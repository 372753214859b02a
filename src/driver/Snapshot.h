//===- driver/Snapshot.h - Immutable compiled program snapshots -*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-once/run-many boundary of the serving story.  A
/// CompiledSnapshot bundles everything a measured run needs — the
/// optimized CompiledProgram, its bytecode module (when the tier allows),
/// and the DispatchTables — behind a const surface, so one snapshot can
/// execute any number of jobs on any number of threads concurrently.
/// The immutability contract (DESIGN.md section 11):
///
///   - shared and read-only: Program/AST, CompiledProgram bodies and
///     layouts, BcModule instruction streams and site tables, and every
///     published dispatch table;
///   - per-thread, created per job by run(): Interpreter or
///     BytecodeInterpreter with its FramePool, argument stack, Heap,
///     and bytecode IC side-tables (the AST tier keeps no dispatch cache:
///     every dynamic send reads the shared tables);
///   - the two documented exceptions: CompiledProgram's atomic invoked
///     bits (monotonic relaxed stores, Figure 6 accounting), and each
///     generic's one-time dispatch-table publication at its first lookup
///     (an atomic pointer, written once under a mutex).
///
/// A job's RunStats are bit-identical to a single-threaded run of the
/// same job because no adaptive state crosses threads (enforced by
/// tests/ServeTests.cpp on both tiers).
///
/// SnapshotCache memoizes snapshots under a caller-chosen string key —
/// conventionally makeKey(sources, config, tier, profile tag) — so a
/// serving loop compiles each distinct program once and shares the
/// result; concurrent requests for the same key block on a single build.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_DRIVER_SNAPSHOT_H
#define SELSPEC_DRIVER_SNAPSHOT_H

#include "bytecode/Bytecode.h"
#include "driver/Pipeline.h"

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace selspec {

class CompiledSnapshot {
public:
  /// Compile-time facts baked into every ConfigResult run() produces.
  struct BuildInfo {
    Config Configuration = Config::Base;
    /// Tier the snapshot actually serves (Ast after a bytecode-lowering
    /// fallback).
    ExecTier Tier = ExecTier::Ast;
    Optimizer::Stats Opt;
    std::optional<SelectiveSpecializer::Stats> Specializer;
    unsigned CompiledRoutines = 0;
    uint64_t CodeSize = 0;
  };

  /// Per-job knobs; everything else is baked into the snapshot.
  struct JobOptions {
    ResourceLimits Limits;
    /// Per-job stop signal (deadline and/or external cancel).
    const CancelToken *Cancel = nullptr;
    CostModel Costs;
    /// Capture `print` output into the result (off for load tests).
    bool CaptureOutput = true;
    /// Fill JobResult::MetricsDelta (see below).
    bool CollectMetricsDelta = false;
    /// Record this job's weighted call-graph arcs into JobResult::Arcs
    /// (Workbench::collectProfile's profile run).  The arcs land in
    /// a job-private CallGraph on the interpreter's stack — no shared
    /// state, no atomics — and are merged by the caller afterwards, the
    /// same publish-after-run scheme the metrics deltas use.  RunStats
    /// are unaffected.
    bool CollectArcs = false;
  };

  struct JobResult {
    bool Ok = false;
    /// Bench-compatible result row; Run/WallNanos/Output are this job's,
    /// the compile-time fields come from buildInfo().
    ConfigResult R;
    /// Structured failure when !Ok (Kind == DeadlineExceeded for a job
    /// that ran past its deadline or was cancelled).
    RuntimeTrap Trap;
    /// Rendered failure message when !Ok.
    std::string Error;
    /// The exact per-counter increments this job published onto the
    /// process-wide metrics registry (interp.*, dispatcher.*, and on the
    /// bytecode tier bytecode.*), keyed by registry counter name.  Summing
    /// the deltas of every job equals the registry totals for those
    /// counters (tested), which is what makes per-job observability of a
    /// multi-threaded server exact rather than sampled.
    std::vector<std::pair<std::string, uint64_t>> MetricsDelta;
    /// This job's weighted arcs (JobOptions::CollectArcs); empty
    /// otherwise.  Site/method ids are those of the snapshot's Program,
    /// so arcs from any job against any snapshot of the same sources
    /// merge into one coherent profile.
    CallGraph Arcs;
  };

  /// Executes `main(Input)` on a fresh interpreter over this snapshot.
  /// Const and re-entrant: safe from any number of threads concurrently.
  JobResult run(int64_t Input, const JobOptions &Opts) const;
  JobResult run(int64_t Input) const { return run(Input, JobOptions()); }

  const Program &program() const { return CP->program(); }
  const CompiledProgram &compiled() const { return *CP; }
  /// Non-null iff tier() == Bytecode.
  const BcModule *bytecode() const {
    return Info.Tier == ExecTier::Bytecode ? &Mod : nullptr;
  }
  const DispatchTables &tables() const { return *Tables; }
  ExecTier tier() const { return Info.Tier; }
  Config configuration() const { return Info.Configuration; }
  const BuildInfo &buildInfo() const { return Info; }

private:
  friend class Workbench;
  CompiledSnapshot() = default;

  /// Keeps the source Workbench (Program, AST, profile) alive when the
  /// snapshot owns its provenance (serving); null when the caller
  /// guarantees the workbench outlives the snapshot (runConfig).
  std::shared_ptr<Workbench> Keeper;
  std::unique_ptr<CompiledProgram> CP;
  /// Valid iff tier() == Bytecode.
  BcModule Mod;
  std::unique_ptr<DispatchTables> Tables;
  BuildInfo Info;
};

/// Process-wide snapshot memo: one build per key, shared by every serving
/// thread.  Thread-safe; concurrent getOrBuild calls for one key block
/// while the first caller builds.  Failed builds are not cached.
class SnapshotCache {
public:
  using Builder =
      std::function<std::shared_ptr<const CompiledSnapshot>(std::string &)>;

  /// The canonical cache key: program identity (file list or source
  /// digest), configuration, tier, and a profile tag (training input or
  /// profile-db generation) — a new profile generation yields a new key,
  /// which is how snapshot reuse is invalidated across generations.
  static std::string makeKey(const std::vector<std::string> &Sources,
                             Config C, ExecTier T,
                             const std::string &ProfileTag);

  /// Returns the snapshot cached under \p Key, invoking \p Build to
  /// create it on first use.  Null + message in \p ErrorOut when the
  /// build fails (the failure is not cached; a later call retries).
  std::shared_ptr<const CompiledSnapshot>
  getOrBuild(const std::string &Key, const Builder &Build,
             std::string &ErrorOut);

  /// Drops the entry for \p Key (e.g. its profile generation went stale).
  void invalidate(const std::string &Key);
  void clear();
  size_t size() const;

private:
  struct Entry {
    std::mutex M;
    std::condition_variable CV;
    bool Building = false;
    std::shared_ptr<const CompiledSnapshot> Snap;
  };

  mutable std::mutex M;
  std::unordered_map<std::string, std::shared_ptr<Entry>> Map;
};

} // namespace selspec

#endif // SELSPEC_DRIVER_SNAPSHOT_H
