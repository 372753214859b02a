//===- bench/profiling_overhead.cpp - Section 3.7.2 overhead ---------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.7.2: gathering call-site-specific PIC profiles costs 15-50%
/// run time in the paper's Cecil system.  This bench times the path
/// Workbench::collectProfile takes: a Base-compiled CompiledSnapshot run
/// on the default execution tier, with and without
/// JobOptions::CollectArcs, on each program's training input.  Plain and
/// profiled reps alternate (the order flips every pair, so drift and
/// warm-up hit both sides alike) and each side reports min, median and
/// interquartile range.  Next to the wall clock sit deterministic proxies:
/// the distinct arcs and the calls recorded into them (the profiler's
/// work), and `bytecode.insns_dispatched` (the run's own work, which
/// profiling must leave unchanged).  The last column is the stability of
/// the arc set between the train and test inputs.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/Snapshot.h"

#include <algorithm>
#include <chrono>
#include <iostream>

using namespace selspec;
using namespace selspec::bench;

namespace {

/// Alternating plain/profiled pairs per program.
constexpr int Pairs = 21;

/// Nearest-rank \p P-th percentile (P in 1..100) of sorted \p V.
double percentile(const std::vector<double> &V, int P) {
  size_t Rank = std::max<size_t>(1, (P * V.size() + 99) / 100);
  return V[Rank - 1];
}

struct Spread {
  double Min, Median, Iqr;
};

Spread spreadOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return {V.front(), percentile(V, 50), percentile(V, 75) - percentile(V, 25)};
}

/// One job in the shape collectProfile runs it.  Exits on failure.
CompiledSnapshot::JobResult runJob(const CompiledSnapshot &Snap,
                                   int64_t Input, bool Profile,
                                   bool Metrics = false) {
  CompiledSnapshot::JobOptions JO;
  JO.CaptureOutput = false;
  JO.CollectArcs = Profile;
  JO.CollectMetricsDelta = Metrics;
  CompiledSnapshot::JobResult J = Snap.run(Input, JO);
  if (!J.Ok) {
    std::cerr << "run failed: " << J.Error << '\n';
    std::exit(1);
  }
  return J;
}

double runMillis(const CompiledSnapshot &Snap, int64_t Input, bool Profile) {
  auto T0 = std::chrono::steady_clock::now();
  runJob(Snap, Input, Profile);
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// `bytecode.insns_dispatched` of one job, or -1 on the AST tier.
int64_t insnsDispatched(const CompiledSnapshot::JobResult &J) {
  for (const auto &[Name, Value] : J.MetricsDelta)
    if (Name == "bytecode.insns_dispatched")
      return static_cast<int64_t>(Value);
  return -1;
}

std::string minMedian(const Spread &S) {
  return TextTable::ratio(S.Min) + " / " + TextTable::ratio(S.Median);
}

} // namespace

int main() {
  printHeader("Profiling run-time overhead", "Section 3.7.2");
  std::cout << "Base snapshot runs on the " << tierName(defaultTier())
            << " tier at the training input, " << Pairs
            << " alternating plain/profiled pairs.\n\n";

  TextTable T({"Program", "Plain min/med (ms)", "Profiled min/med (ms)",
               "IQR plain/prof (ms)", "Overhead (med)", "Arcs",
               "Calls recorded", "Insns dispatched",
               "Hot-arc overlap train/test"});
  for (const BenchProgram &P : table2Suite()) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromFiles(P.Files, Err);
    std::shared_ptr<const CompiledSnapshot> Snap =
        W ? W->buildSnapshot(Config::Base, Err) : nullptr;
    if (!Snap) {
      std::cerr << "error: " << Err << '\n';
      return 1;
    }

    // Untimed first runs: they publish the dispatch tables, and they give
    // the deterministic columns.  Profiling must not change the run's work.
    CompiledSnapshot::JobResult Plain =
        runJob(*Snap, P.TrainInput, false, /*Metrics=*/true);
    CompiledSnapshot::JobResult Train =
        runJob(*Snap, P.TrainInput, true, /*Metrics=*/true);
    int64_t Insns = insnsDispatched(Plain);
    if (Insns != insnsDispatched(Train) || !(Plain.R.Run == Train.R.Run)) {
      std::cerr << P.Name << ": arc collection changed the run's work\n";
      return 1;
    }

    std::vector<double> PlainMs, ProfiledMs;
    for (int I = 0; I != Pairs; ++I) {
      bool ProfiledFirst = I % 2;
      for (bool Profile : {ProfiledFirst, !ProfiledFirst})
        (Profile ? ProfiledMs : PlainMs)
            .push_back(runMillis(*Snap, P.TrainInput, Profile));
    }
    Spread SP = spreadOf(PlainMs), SQ = spreadOf(ProfiledMs);

    // Stability of the arc structure across inputs (Section 3.7.2 /
    // [Garrett et al. 94]): the share of train arcs the test run also has.
    std::vector<Arc> TestArcs = runJob(*Snap, P.TestInput, true).Arcs.arcs();
    unsigned Shared = 0;
    for (const Arc &A : Train.Arcs.arcs())
      for (const Arc &B : TestArcs)
        if (A.Site == B.Site && A.Callee == B.Callee) {
          ++Shared;
          break;
        }
    size_t NumArcs = Train.Arcs.numArcs();
    double Overlap =
        NumArcs == 0 ? 0.0 : 100.0 * Shared / static_cast<double>(NumArcs);

    T.addRow({P.Name, minMedian(SP), minMedian(SQ),
              TextTable::ratio(SP.Iqr) + " / " + TextTable::ratio(SQ.Iqr),
              TextTable::percentDelta(SQ.Median, SP.Median),
              TextTable::count(NumArcs),
              TextTable::count(Train.Arcs.totalWeight()),
              Insns < 0 ? "-" : TextTable::count(static_cast<uint64_t>(Insns)),
              TextTable::ratio(Overlap) + "%"});
  }
  T.print(std::cout);
  std::cout << "\nPaper: PIC-based profiling costs 15-50% at run time; "
               "profiles are stable\nacross inputs, so they are gathered "
               "rarely and reused (persistent profile DB).\n";
  return 0;
}
