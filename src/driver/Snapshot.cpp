//===- driver/Snapshot.cpp - Immutable compiled program snapshots ----------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "driver/Snapshot.h"

#include "bytecode/BytecodeCompiler.h"
#include "bytecode/BytecodeInterpreter.h"
#include "support/Metrics.h"
#include "support/TraceEmitter.h"

#include <chrono>
#include <sstream>

using namespace selspec;

namespace {

metrics::Counter CtrSnapJobs("snapshot.jobs");
metrics::Counter CtrSnapJobTraps("snapshot.job_traps");
metrics::Counter CtrCacheHits("snapshot_cache.hits");
metrics::Counter CtrCacheBuilds("snapshot_cache.builds");
metrics::Counter CtrCacheBuildFailures("snapshot_cache.build_failures");

/// The per-job increments the interpreter's and dispatcher's destructors
/// will publish onto the registry, under the same names, so per-job
/// deltas sum exactly to the process-wide totals.
void collectDelta(std::vector<std::pair<std::string, uint64_t>> &MD,
                  const RunStats &S, const Dispatcher::Stats &D) {
  RuntimeCore::appendStatCounters(S, MD);
  MD.emplace_back("dispatcher.lookups", D.Lookups);
  MD.emplace_back("dispatcher.full_lookups", D.FullLookups);
}

} // namespace

CompiledSnapshot::JobResult
CompiledSnapshot::run(int64_t Input, const JobOptions &Opts) const {
  CtrSnapJobs.add();
  JobResult J;
  J.R.Configuration = Info.Configuration;
  J.R.Tier = Tier;
  J.R.CompiledRoutines = Info.CompiledRoutines;
  J.R.CodeSize = Info.CodeSize;
  J.R.Opt = Info.Opt;
  J.R.Specializer = Info.Specializer;

  std::ostringstream Output;
  RunOptions RO;
  RO.Output = Opts.CaptureOutput ? &Output : nullptr;
  RO.Limits = Opts.Limits;
  RO.Cancel = Opts.Cancel;
  // Live-profiling jobs record arcs into the result's own CallGraph;
  // unsampled jobs pay nothing (a null Profile is one branch per send).
  RO.Profile = Opts.CollectArcs ? &J.Arcs : nullptr;
  // The whole point: the interpreter below reads this snapshot's shared
  // dispatch tables (built lazily, once per generic) instead of owning
  // fresh ones.
  RO.Tables = Tables.get();

  auto Measure = [&](RuntimeCore &I) {
    bool Ok;
    {
      TraceEmitter::Scope Timing("run");
      auto Start = std::chrono::steady_clock::now();
      Ok = I.callMain(Input);
      J.R.WallNanos = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - Start)
              .count());
    }
    // Deltas cover the run's full publication, success or trap.
    if (Opts.CollectMetricsDelta)
      collectDelta(J.MetricsDelta, I.stats(), I.dispatcher().stats());
    if (!Ok) {
      CtrSnapJobTraps.add();
      J.Trap = I.trap();
      J.R.Trap = J.Trap.Kind;
      J.Error = I.errorMessage();
      return false;
    }
    J.R.Run = I.stats();
    J.Ok = true;
    return true;
  };

  if (Tier == ExecTier::Bytecode) {
    BytecodeInterpreter I(*CP, Mod, RO, Opts.Costs);
    Measure(I);
    if (Opts.CollectMetricsDelta) {
      J.MetricsDelta.emplace_back("bytecode.ic_hits", I.icHits());
      J.MetricsDelta.emplace_back("bytecode.ic_misses", I.icMisses());
      J.MetricsDelta.emplace_back("bytecode.ic_misdispatch",
                                  I.icMisdispatches());
      J.MetricsDelta.emplace_back("bytecode.insns_dispatched",
                                  I.insnsDispatched());
    }
  } else {
    Interpreter I(*CP, RO, Opts.Costs);
    Measure(I);
  }
  if (J.Ok) {
    J.R.InvokedRoutines = CP->numInvokedRoutines();
    J.R.Output = Output.str();
  }
  return J;
}

std::shared_ptr<const CompiledSnapshot>
Workbench::buildSnapshot(Config C, std::string &ErrorOut,
                         const SelectiveOptions &Sel,
                         const OptimizerOptions &OptOpts,
                         std::shared_ptr<Workbench> Keep) {
  if (!phaseGate("pipeline.plan", "planning", ErrorOut))
    return nullptr;
  SpecializationPlan Plan =
      makePlan(C, *P, *AC, *PT, Profile.empty() ? nullptr : &Profile, Sel,
               &Diags);

  std::shared_ptr<CompiledSnapshot> Snap(new CompiledSnapshot());
  Snap->Keeper = std::move(Keep);
  Snap->Info.Configuration = C;
  if (C == Config::Selective && !Profile.empty()) {
    // Re-run the specializer just for its statistics (cheap).
    SelectiveSpecializer Specializer(*P, *AC, *PT, Profile, Sel);
    Specializer.run();
    Snap->Info.Specializer = Specializer.stats();
  }

  if (!phaseGate("pipeline.optimize", "optimization", ErrorOut))
    return nullptr;
  Optimizer Opt(*P, *AC, OptOpts, Profile.empty() ? nullptr : &Profile);
  Snap->CP = Opt.compile(Plan);
  Snap->Info.Opt = Opt.stats();
  Snap->Info.CompiledRoutines = Snap->CP->numCompiledRoutines();
  Snap->Info.CodeSize = Snap->CP->totalCodeSize();

  // Bake the tier in.  A program the bytecode compiler cannot lower
  // degrades the whole snapshot to the AST tier (warning in Diags);
  // RunStats are identical either way, only wall clock differs.
  ExecTier SnapTier = Tier;
  if (SnapTier == ExecTier::Bytecode) {
    TraceEmitter::Scope Timing("bytecode-compile");
    Snap->Mod = compileToBytecode(*Snap->CP);
    if (!Snap->Mod.Ok) {
      Diags.warning(SourceLoc(), "bytecode tier unavailable (" +
                                     Snap->Mod.Error +
                                     "); falling back to the AST tier");
      SnapTier = ExecTier::Ast;
    }
  }
  Snap->Tier = SnapTier;
  Snap->Info.Tier = SnapTier;
  Snap->Tables = std::make_unique<DispatchTables>(*Snap->CP);
  return Snap;
}

std::string SnapshotCache::makeKey(const std::vector<std::string> &Sources,
                                   Config C, ExecTier T,
                                   const std::string &ProfileTag) {
  std::string Key;
  for (const std::string &S : Sources) {
    Key += S;
    Key += '\x1f';
  }
  Key += '|';
  Key += configName(C);
  Key += '|';
  Key += T == ExecTier::Bytecode ? "bytecode" : "ast";
  Key += '|';
  Key += ProfileTag;
  return Key;
}

std::shared_ptr<const CompiledSnapshot>
SnapshotCache::getOrBuild(const std::string &Key, const Builder &Build,
                          std::string &ErrorOut) {
  for (;;) {
    std::shared_ptr<Entry> E;
    {
      std::lock_guard<std::mutex> Lock(M);
      std::shared_ptr<Entry> &Slot = Map[Key];
      if (!Slot)
        Slot = std::make_shared<Entry>();
      E = Slot;
    }

    std::unique_lock<std::mutex> Lock(E->M);
    if (E->Snap) {
      CtrCacheHits.add();
      return E->Snap;
    }
    if (E->Building) {
      // Someone else is compiling this key; wait for their verdict and
      // re-probe (their failure is our cue to retry the build ourselves).
      E->CV.wait(Lock, [&] { return !E->Building; });
      if (E->Snap) {
        CtrCacheHits.add();
        return E->Snap;
      }
      continue;
    }

    E->Building = true;
    Lock.unlock();

    CtrCacheBuilds.add();
    std::shared_ptr<const CompiledSnapshot> Snap;
    std::string BuildError;
    Snap = Build(BuildError);

    Lock.lock();
    E->Building = false;
    if (Snap) {
      E->Snap = Snap;
      E->CV.notify_all();
      return Snap;
    }
    E->CV.notify_all();
    Lock.unlock();

    // Failures are not cached: drop the (still-empty) entry so a later
    // call rebuilds, unless someone replaced it meanwhile.
    CtrCacheBuildFailures.add();
    {
      std::lock_guard<std::mutex> MapLock(M);
      auto It = Map.find(Key);
      if (It != Map.end() && It->second == E && !E->Snap)
        Map.erase(It);
    }
    ErrorOut = BuildError.empty() ? "snapshot build failed" : BuildError;
    return nullptr;
  }
}

void SnapshotCache::invalidate(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(M);
  Map.erase(Key);
}

void SnapshotCache::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Map.clear();
}

size_t SnapshotCache::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Map.size();
}
