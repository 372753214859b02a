//===- bench/BenchCommon.h - Shared harness for figure benches -*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Table 2 benchmark suite (programs + train/test inputs) and the
/// "run every Table 1 configuration" helper shared by the per-figure
/// bench binaries.  Profiles are gathered on the train input and results
/// measured on the test input, exactly as the paper does for its two
/// larger programs.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_BENCH_BENCHCOMMON_H
#define SELSPEC_BENCH_BENCHCOMMON_H

#include "driver/Pipeline.h"
#include "driver/Report.h"

#include <array>
#include <string>
#include <vector>

namespace selspec {
namespace bench {

struct BenchProgram {
  std::string Name;
  std::string Description;
  std::vector<std::string> Files;
  /// Input used for the profiling (training) run.
  int64_t TrainInput;
  /// Input used for the measured (test) run.
  int64_t TestInput;
};

/// The Table 2 suite.
const std::vector<BenchProgram> &table2Suite();

/// All five Table 1 configurations, in the paper's order.
inline const std::array<Config, 5> AllConfigs = {
    Config::Base, Config::Cust, Config::CustMM, Config::CHA,
    Config::Selective};

struct SuiteResult {
  BenchProgram Program;
  /// One result per AllConfigs entry.
  std::vector<ConfigResult> ByConfig;
  /// Source line count (Table 2).
  unsigned SourceLines = 0;
};

/// Loads \p Program, profiles on the train input, and runs the test input
/// under every configuration.  Exits with a message on failure.
SuiteResult runSuiteProgram(const BenchProgram &Program,
                            const SelectiveOptions &Sel = {});

/// Like runSuiteProgram for only the given configs.
SuiteResult runSuiteProgram(const BenchProgram &Program,
                            const std::vector<Config> &Configs,
                            const SelectiveOptions &Sel);

/// Writes BENCH_<name>.json in the working directory: one record per
/// configuration with the dispatch counters and modeled cycles (no
/// wall-clock: one unrepeated run is noise, so measured speed comes from
/// perfbench), plus the execution tier and `git describe` of the tree,
/// for machine consumption (the files are gitignored).  Overwriting a
/// file measured on a different tier warns on stderr.  Returns false
/// (after a warning on stderr) if the file cannot be written; benches
/// proceed regardless.
bool writeBenchJson(const SuiteResult &R);

/// `git describe --always --dirty` of the working tree, or "unknown"
/// when git is unavailable — stamped into every BENCH_*.json.
std::string gitDescribe();

/// Prints the standard bench header.
void printHeader(const std::string &Title, const std::string &PaperRef);

} // namespace bench
} // namespace selspec

#endif // SELSPEC_BENCH_BENCHCOMMON_H
