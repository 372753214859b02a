//===- bench/table2_benchmarks.cpp - Table 2 reproduction ------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 2: the benchmark suite — name, size, description, plus the
/// train/test inputs this reproduction uses and basic workload counts
/// from a Base run.  Also runs the measured suite on the current
/// execution tier and writes BENCH_table2_benchmarks.json, the aggregate
/// record of each config's modeled cycles and dispatches.  It holds no
/// wall-clock times: single runs are too noisy to compare, so measured
/// speed comes from perfbench's repeated runs.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <fstream>
#include <iostream>

using namespace selspec;
using namespace selspec::bench;

int main() {
  printHeader("Table 2: benchmark programs", "Table 2");

  TextTable T({"Program", "Lines", "Methods", "Call sites", "Train", "Test",
               "Description"});
  for (const BenchProgram &P : table2Suite()) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromFiles(P.Files, Err);
    if (!W) {
      std::cerr << "error: " << Err << '\n';
      return 1;
    }
    T.addRow({P.Name, TextTable::count(W->sourceLines()),
              TextTable::count(W->program().numUserMethods()),
              TextTable::count(W->program().numCallSites()),
              TextTable::count(static_cast<uint64_t>(P.TrainInput)),
              TextTable::count(static_cast<uint64_t>(P.TestInput)),
              P.Description});
  }
  T.print(std::cout);
  std::cout << "\nLine counts include the shared Mica standard library "
               "(as the paper's counts\ninclude Cecil's 8,500-line "
               "library); typechecker and compiler share the\nminilang "
               "front end, mirroring the paper's ~12,000 shared lines.\n";

  // Measured suite on the current tier (also refreshes each program's
  // BENCH_<name>.json), aggregated into one machine-readable file.
  std::vector<SuiteResult> Results;
  for (const BenchProgram &P : table2Suite())
    Results.push_back(runSuiteProgram(P));

  const char *Tier = tierName(Results.front().ByConfig.front().Tier);
  std::ofstream OS("BENCH_table2_benchmarks.json");
  if (!OS) {
    std::cerr << "warning: cannot write BENCH_table2_benchmarks.json\n";
    return 0;
  }
  OS << "{\n"
     << "  \"tier\": \"" << Tier << "\",\n"
     << "  \"git_describe\": \"" << gitDescribe() << "\",\n"
     << "  \"programs\": [\n";
  for (size_t I = 0; I != Results.size(); ++I) {
    const SuiteResult &R = Results[I];
    OS << "    {\n"
       << "      \"benchmark\": \"" << R.Program.Name << "\",\n"
       << "      \"source_lines\": " << R.SourceLines << ",\n"
       << "      \"train_input\": " << R.Program.TrainInput << ",\n"
       << "      \"test_input\": " << R.Program.TestInput << ",\n"
       << "      \"configs\": [\n";
    for (size_t J = 0; J != R.ByConfig.size(); ++J) {
      const ConfigResult &CR = R.ByConfig[J];
      OS << "        {\"config\": \"" << configName(CR.Configuration)
         << "\", \"tier\": \"" << tierName(CR.Tier)
         << "\", \"cycles\": " << CR.Run.Cycles
         << ", \"dispatches\": " << CR.Run.totalDispatches() << "}"
         << (J + 1 == R.ByConfig.size() ? "" : ",") << "\n";
    }
    OS << "      ]\n    }" << (I + 1 == Results.size() ? "" : ",") << "\n";
  }
  OS << "  ]\n}\n";
  std::cout << "\nWrote BENCH_table2_benchmarks.json (tier: " << Tier
            << ").\n";
  return 0;
}
