//===- perfbench/harness.h - Benchmark harness shared declarations -*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the benchmark harness (harness.cpp: workloads,
/// reference oracle, raw result document) and its traced pipeline
/// (layers.cpp: the same compile/run pipeline the Workbench runs, rebuilt
/// from each layer's public entry points so every layer can be timed).
///
/// The harness only measures and checks.  Statistics (per-class
/// percentiles, geometric means) are computed by run.py from the raw
/// samples this program prints.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_PERFBENCH_HARNESS_H
#define SELSPEC_PERFBENCH_HARNESS_H

#include "driver/Pipeline.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One benchmark program: its full source text (stdlib first), the
/// profile-training input, and the input its jobs run.
struct ProgramSpec {
  std::string Name;
  std::vector<std::string> Sources;
  int64_t Train = 0;
  int64_t Input = 0;
  /// Non-empty for the synthesized hierarchy: the checksum `main` must
  /// print, computed independently of the program.
  std::string ExpectedOutput;
};

/// Where a traced pipeline gets its profile from.
enum class ProfileSource : uint8_t {
  None,    ///< no profile (CHA snapshots in the serving workloads)
  Run,     ///< Base profile run on ProgramSpec::Train
  Database ///< merge from the ProfileDb written during set-up
};

/// Accumulated per-layer observations of a traced run: for each metric
/// name, the sum of its samples and how many there were.  Ratios are
/// formed by run.py from pairs of sums.
class LayerTrace {
public:
  struct Entry {
    double Sum = 0;
    uint64_t Count = 0;
  };

  void add(const std::string &Name, double Value) {
    Entry &E = Entries[Name];
    E.Sum += Value;
    E.Count += 1;
  }
  void addSpan(const std::string &Name, uint64_t StartNs) {
    add(Name, double(nowNs() - StartNs) / 1e6);
  }
  const std::map<std::string, Entry> &entries() const { return Entries; }

private:
  std::map<std::string, Entry> Entries;
};

/// What a traced measured run observed, for the per-layer counters and
/// the traced-vs-untraced equality check.
struct TracedRun {
  bool Ok = false;
  std::string Error;
  selspec::RunStats Stats;
  std::string Output;
};

/// Result of one traced compile of one configuration (no run).
struct TracedBuildInfo {
  uint64_t CodeSize = 0;
  uint64_t BytecodeBytes = 0;
};

/// Runs the pipeline for \p Prog layer by layer — parse, resolve, CHA,
/// profile (per \p Profile), then plan, optimize and bytecode-compile each
/// of \p Configs — recording spans and counts into \p T.  When
/// \p RunInput is non-negative each compiled configuration also runs
/// `main(RunInput)` and its observations land in \p Runs (one per
/// config, in order); \p Builds receives one entry per config either
/// way.  \p DbPath names the ProfileDb for ProfileSource::Database.
bool tracedPipeline(const ProgramSpec &Prog, ProfileSource Profile,
                    const std::string &DbPath,
                    const std::vector<selspec::Config> &Configs,
                    int64_t RunInput, LayerTrace &T,
                    std::vector<TracedBuildInfo> &Builds,
                    std::vector<TracedRun> &Runs, std::string &Err);

/// Field-by-field RunStats equality (counters, peak depth, node mix).
bool sameRunStats(const selspec::RunStats &A, const selspec::RunStats &B);

} // namespace perfbench

#endif // SELSPEC_PERFBENCH_HARNESS_H
