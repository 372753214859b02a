//===- perfbench/layers.cpp - Traced, layer-by-layer pipeline ---------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Workbench pipeline (driver/Pipeline.cpp, driver/Snapshot.cpp)
/// rebuilt from the public entry points of each layer, with a span around
/// every call.  The harness checks that the runs it produces have the same
/// RunStats and output as the untraced Workbench runs, so this copy cannot
/// drift from the code it measures without the benchmark failing.
///
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "bytecode/BytecodeCompiler.h"
#include "bytecode/BytecodeInterpreter.h"
#include "profile/ProfileDb.h"

#include <sstream>

using namespace selspec;

namespace perfbench {

bool sameRunStats(const RunStats &A, const RunStats &B) {
  return A.DynamicDispatches == B.DynamicDispatches &&
         A.VersionSelects == B.VersionSelects &&
         A.StaticCalls == B.StaticCalls && A.InlinePrims == B.InlinePrims &&
         A.PredictedHits == B.PredictedHits &&
         A.PredictedMisses == B.PredictedMisses &&
         A.FeedbackHits == B.FeedbackHits &&
         A.FeedbackMisses == B.FeedbackMisses &&
         A.ClosuresCreated == B.ClosuresCreated &&
         A.ClosureCalls == B.ClosureCalls && A.Allocations == B.Allocations &&
         A.MethodInvocations == B.MethodInvocations &&
         A.NodesEvaluated == B.NodesEvaluated && A.PeakDepth == B.PeakDepth &&
         A.Cycles == B.Cycles && A.NodeMix == B.NodeMix;
}

namespace {

/// Runs `main(Input)` the way CompiledSnapshot::run does, recording the
/// run's counters as `obs.*` samples.
TracedRun measuredRun(const Program &P, const CompiledProgram &CP,
                      const BcModule &Mod, int64_t Input, LayerTrace &T) {
  TracedRun R;
  std::ostringstream Output;
  DispatchTables Tables(P);
  RunOptions RO;
  RO.Output = &Output;
  RO.Limits = ResourceLimits();
  RO.Tables = &Tables;
  BytecodeInterpreter I(CP, Mod, RO);
  uint64_t Start = nowNs();
  bool Ok = I.callMain(Input);
  uint64_t Ns = nowNs() - Start;
  if (!Ok) {
    R.Error = I.errorMessage();
    return R;
  }
  const RunStats &S = I.stats();
  const Dispatcher::Stats &D = I.dispatcher().stats();
  T.add("obs.run_ns", double(Ns));
  T.add("obs.dispatches", double(S.totalDispatches()));
  T.add("obs.nodes", double(S.NodesEvaluated));
  T.add("obs.allocs", double(S.Allocations));
  T.add("obs.bytes", double(I.heap().bytesAllocated()));
  T.add("obs.ic_hits", double(I.icHits()));
  T.add("obs.ic_misses", double(I.icMisses()));
  T.add("obs.pic_hits", double(D.PicHits));
  T.add("obs.memo_hits", double(D.MemoHits));
  T.add("obs.full_lookups", double(D.FullLookups));
  R.Ok = true;
  R.Stats = S;
  R.Output = Output.str();
  return R;
}

} // namespace

bool tracedPipeline(const ProgramSpec &Prog, ProfileSource Profile,
                    const std::string &DbPath,
                    const std::vector<Config> &Configs, int64_t RunInput,
                    LayerTrace &T, std::vector<TracedBuildInfo> &Builds,
                    std::vector<TracedRun> &Runs, std::string &Err) {
  Program P;
  P.addBuiltins();
  Diagnostics Diags;

  uint64_t Start = nowNs();
  for (const std::string &Src : Prog.Sources)
    if (!P.addSource(Src, Diags)) {
      Err = Diags.toString();
      return false;
    }
  T.addSpan("lang.parse_ms", Start);

  Start = nowNs();
  if (!P.resolve(Diags)) {
    Err = Diags.toString();
    return false;
  }
  T.addSpan("lang.resolve_ms", Start);
  T.add("hierarchy.cone_bytes", double(P.Classes.coneIndexBytes()));

  Start = nowNs();
  ApplicableClassesAnalysis AC(P);
  PassThroughAnalysis PT(P);
  T.addSpan("analysis.cha_ms", Start);

  CallGraph CG;
  if (Profile == ProfileSource::Run) {
    // Workbench::collectProfile: Base compile, then an instrumented run.
    Start = nowNs();
    SpecializationPlan Plan = makePlan(Config::Base, P, AC, PT, nullptr);
    std::unique_ptr<CompiledProgram> CP =
        Optimizer(P, AC, OptimizerOptions(), nullptr).compile(Plan);
    BcModule Mod = compileToBytecode(*CP);
    if (!Mod.Ok) {
      Err = "bytecode compile failed: " + Mod.Error;
      return false;
    }
    RunOptions RO;
    RO.Profile = &CG;
    RO.Limits = ResourceLimits();
    BytecodeInterpreter I(*CP, Mod, RO);
    if (!I.callMain(Prog.Train)) {
      Err = "profile run failed: " + I.errorMessage();
      return false;
    }
    T.addSpan("profile.run_ms", Start);
    T.add("profile.arcs", double(CG.numArcs()));
  } else if (Profile == ProfileSource::Database) {
    // Workbench::loadProfileDb.
    ProfileDb Db;
    if (!Db.loadFromFile(DbPath, Diags) || !Db.hasProgram(Prog.Name)) {
      Err = "cannot load profile of '" + Prog.Name + "' from " + DbPath;
      return false;
    }
    Db.validate(Prog.Name, P, Diags);
    CG.merge(Db.forProgram(Prog.Name));
    T.add("profile.arcs", double(CG.numArcs()));
  }
  const CallGraph *CGPtr = CG.empty() ? nullptr : &CG;

  for (Config C : Configs) {
    // Workbench::buildSnapshot: the plan, then (Selective with a profile)
    // a second specializer run for the snapshot's statistics.
    Start = nowNs();
    SpecializationPlan Plan = makePlan(C, P, AC, PT, CGPtr);
    if (C == Config::Selective && CGPtr) {
      SelectiveSpecializer Specializer(P, AC, PT, CG, SelectiveOptions());
      Specializer.run();
      T.add("specialize.versions_added",
            double(Specializer.stats().VersionsAdded));
    }
    T.addSpan("specialize.plan_ms", Start);

    Start = nowNs();
    Optimizer Opt(P, AC, OptimizerOptions(), CGPtr);
    std::unique_ptr<CompiledProgram> CP = Opt.compile(Plan);
    T.addSpan("opt.optimize_ms", Start);
    T.add("opt.sites_dynamic", double(Opt.stats().SitesDynamic));

    Start = nowNs();
    BcModule Mod = compileToBytecode(*CP);
    T.addSpan("bytecode.compile_ms", Start);
    if (!Mod.Ok) {
      Err = "bytecode compile failed: " + Mod.Error;
      return false;
    }
    T.add("bytecode.code_bytes", double(Mod.CodeBytes));

    TracedBuildInfo B;
    B.CodeSize = CP->totalCodeSize();
    B.BytecodeBytes = Mod.CodeBytes;
    Builds.push_back(B);

    if (RunInput >= 0)
      Runs.push_back(measuredRun(P, *CP, Mod, RunInput, T));
  }
  return true;
}

} // namespace perfbench
