//===- bench/dynamic_compilation.cpp - Section 3.7.3 adaptivity ------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.7.3: in a Self-style dynamic-compilation environment,
/// unoptimized code tracks call-site targets and counts, and the hot part
/// of the call graph is (re)built "as necessary to make specialization
/// decisions during the recompilation process."
///
/// This bench simulates that environment at request granularity: a
/// sequence of requests (main() invocations) starts on the unoptimized
/// Base program with profiling counters; after every request the
/// accumulated call graph drives a selective recompilation, and the next
/// request runs on the new code.  Printed per request: the dispatch count
/// of that request, compiled routine count so far, and the profile size —
/// showing the dispatch rate converging to the ahead-of-time Selective
/// level within a few requests.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "interp/Interpreter.h"

#include <iostream>

using namespace selspec;
using namespace selspec::bench;

int main() {
  printHeader("Dynamic-compilation simulation", "Section 3.7.3");

  for (const BenchProgram &P : table2Suite()) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromFiles(P.Files, Err);
    if (!W) {
      std::cerr << "error: " << Err << '\n';
      return 1;
    }

    // The ahead-of-time reference: profile on train, measure on test.
    std::unique_ptr<Workbench> Ref = Workbench::fromFiles(P.Files, Err);
    if (!Ref->collectProfile(P.TrainInput, Err)) {
      std::cerr << "error: " << Err << '\n';
      return 1;
    }
    std::optional<ConfigResult> AheadOfTime =
        Ref->runConfig(Config::Selective, P.TestInput, Err);
    if (!AheadOfTime) {
      std::cerr << "error: " << Err << '\n';
      return 1;
    }

    TextTable T({"Request", "Dispatches", "Routines", "Profile arcs"});
    const int Requests = 6;
    for (int R = 0; R != Requests; ++R) {
      // Recompile with whatever profile has accumulated so far (empty on
      // the first request: plain CHA-less Base... we model the Self-91
      // unoptimized tier as Base, and the optimizing recompile as
      // Selective once arcs exist).
      Config C = W->hasProfile() ? Config::Selective : Config::Base;
      std::unique_ptr<CompiledProgram> CP = W->compileOnly(C);
      RunOptions Opts;
      Opts.Profile = &W->profile(); // counters stay on, as in Self
      Interpreter I(*CP, Opts);
      if (!I.callMain(P.TestInput)) {
        std::cerr << "error: " << I.errorMessage() << '\n';
        return 1;
      }
      T.addRow({TextTable::count(static_cast<uint64_t>(R + 1)),
                TextTable::count(I.stats().totalDispatches()),
                TextTable::count(CP->numCompiledRoutines()),
                TextTable::count(W->profile().numArcs())});
    }
    std::cout << P.Name << " (ahead-of-time Selective reference: "
              << TextTable::count(AheadOfTime->Run.totalDispatches())
              << " dispatches, "
              << TextTable::count(AheadOfTime->CompiledRoutines)
              << " routines)\n";
    T.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Request 1 runs unoptimized (profiling); from request 2 on "
               "the accumulated call\ngraph drives selective recompiles "
               "and the dispatch rate drops to the\nahead-of-time level — "
               "the Section 3.7.3 adaptation loop.\n";
  return 0;
}
