//===- tests/ResilienceTests.cpp - Deadlines, failpoints, crash safety ------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// The long-running-service guarantees: cooperative deadlines surface as
// structured DeadlineExceeded traps, every registered failpoint injected
// into a full five-configuration pipeline yields a Diagnostic or a trap
// (never a crash or corrupt state), and the profile database survives a
// torn write at every step of its save sequence.
//
//===----------------------------------------------------------------------===//

#include "driver/Adaptive.h"
#include "driver/Pipeline.h"
#include "driver/Serve.h"
#include "driver/Snapshot.h"

#include "TestUtil.h"
#include "profile/ProfileDb.h"
#include "runtime/DispatchTable.h"
#include "support/Deadline.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>

using namespace selspec;
using namespace selspec::test;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

std::string readFileOr(const std::string &Path, const std::string &Fallback) {
  std::ifstream IS(Path);
  if (!IS)
    return Fallback;
  std::ostringstream Buf;
  Buf << IS.rdbuf();
  return Buf.str();
}

void removeAll(const std::string &Path) {
  std::remove(Path.c_str());
  std::remove((Path + ".bak").c_str());
  std::remove((Path + ".tmp").c_str());
}

const char *CounterSrc = R"(
    class Box { slot v; }
    method bump(b@Box) { b.v := b.v + 1; b.v; }
    method main(n@Int) {
      let b := new Box; b.v := 0;
      let i := 0;
      while (i < n) { bump(b); i := i + 1; }
      print(b.v);
    }
)";

/// Every iteration disarms before returning, even through ASSERT failures.
struct FailpointGuard {
  ~FailpointGuard() { failpoint::disarmAll(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Deadline and CancelToken primitives.
//===----------------------------------------------------------------------===//

TEST(Deadline, DefaultNeverExpires) {
  Deadline D;
  EXPECT_FALSE(D.armed());
  EXPECT_FALSE(D.expired());
  EXPECT_EQ(D.remainingMillis(), INT64_MAX);
}

TEST(Deadline, ZeroBudgetExpiresImmediately) {
  Deadline D = Deadline::afterMillis(0);
  EXPECT_TRUE(D.armed());
  EXPECT_TRUE(D.expired());
  EXPECT_EQ(D.remainingMillis(), 0);
}

TEST(Deadline, NegativeBudgetClampsToZero) {
  EXPECT_TRUE(Deadline::afterMillis(-5).expired());
  EXPECT_EQ(Deadline::afterMillis(-5).budgetMillis(), 0);
}

TEST(CancelToken, ExplicitCancelStops) {
  CancelToken T;
  EXPECT_FALSE(T.stopRequested());
  T.requestCancel();
  EXPECT_TRUE(T.stopRequested());
  EXPECT_NE(T.reason().find("cancelled"), std::string::npos);
}

TEST(CancelToken, ExpiredDeadlineStopsWithBudgetInReason) {
  CancelToken T;
  T.setDeadline(Deadline::afterMillis(0));
  EXPECT_TRUE(T.stopRequested());
  EXPECT_NE(T.reason().find("deadline"), std::string::npos);
  EXPECT_NE(T.reason().find("0 ms"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Deadlines through the interpreter and the pipeline.
//===----------------------------------------------------------------------===//

TEST(DeadlineTrap, InterpreterPollsTheToken) {
  std::unique_ptr<Program> P =
      buildProgram({"method main(n@Int) { while (true) { n; } }"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  CancelToken Tok;
  Tok.setDeadline(Deadline::afterMillis(0));
  RunOptions Opts;
  Opts.Cancel = &Tok;
  Interpreter I(*CP, Opts);
  EXPECT_FALSE(I.callMain(0));
  EXPECT_EQ(I.trap().Kind, TrapKind::DeadlineExceeded) << I.trap().render();
  EXPECT_NE(I.trap().Message.find("deadline"), std::string::npos);
  // The poll is sampled every 8192 nodes; an infinite loop must still be
  // stopped within a small multiple of that.
  EXPECT_LT(I.stats().NodesEvaluated, 100000u);
}

TEST(DeadlineTrap, ExplicitCancelTrapsToo) {
  std::unique_ptr<Program> P =
      buildProgram({"method main(n@Int) { while (true) { n; } }"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  CancelToken Tok;
  Tok.requestCancel(); // as a signal handler would
  RunOptions Opts;
  Opts.Cancel = &Tok;
  Interpreter I(*CP, Opts);
  EXPECT_FALSE(I.callMain(0));
  EXPECT_EQ(I.trap().Kind, TrapKind::DeadlineExceeded);
  EXPECT_NE(I.trap().Message.find("cancelled"), std::string::npos);
}

TEST(DeadlineTrap, PipelinePhaseGateStopsBeforeWork) {
  CancelToken Tok;
  Tok.setDeadline(Deadline::afterMillis(0));
  std::string Err;
  // The token is already expired, so construction fails at the first
  // phase boundary with the deadline message.
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({CounterSrc}, Err, false, &Tok);
  EXPECT_EQ(W, nullptr);
  EXPECT_NE(Err.find("deadline"), std::string::npos);
}

TEST(DeadlineTrap, RunConfigReportsDeadlineTrap) {
  CancelToken Tok;
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({CounterSrc}, Err, false, &Tok);
  ASSERT_TRUE(W) << Err;
  // Expire only after load so the phase gate (not init) reports it.
  Tok.setDeadline(Deadline::afterMillis(0));
  std::optional<ConfigResult> R = W->runConfig(Config::Base, 3, Err);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(W->lastTrap().Kind, TrapKind::DeadlineExceeded);
}

TEST(DeadlineTrap, UnexpiredDeadlineDoesNotPerturbTheRun) {
  CancelToken Tok;
  Tok.setDeadline(Deadline::afterMillis(60000));
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({CounterSrc}, Err, false, &Tok);
  ASSERT_TRUE(W) << Err;
  std::optional<ConfigResult> R = W->runConfig(Config::Base, 5, Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->Output, "5\n");
}

//===----------------------------------------------------------------------===//
// Failpoint framework basics.
//===----------------------------------------------------------------------===//

TEST(Failpoint, CatalogIsStable) {
  const std::vector<const char *> &Names = failpoint::allNames();
  EXPECT_EQ(Names.size(), 20u);
  // Spot-check the contract names tools and docs rely on.
  auto Has = [&](const char *N) {
    for (const char *Name : Names)
      if (std::string(Name) == N)
        return true;
    return false;
  };
  EXPECT_TRUE(Has("pipeline.resolve"));
  EXPECT_TRUE(Has("interp.frame-acquire"));
  EXPECT_TRUE(Has("dispatch.table-build"));
  EXPECT_TRUE(Has("profiledb.save.rename"));
  EXPECT_TRUE(Has("adaptive.build"));
  EXPECT_TRUE(Has("adaptive.promote"));
}

TEST(Failpoint, ConfigureRejectsBadSpecsAtomically) {
  FailpointGuard G;
  std::string Err;
  EXPECT_FALSE(failpoint::configure("nonsense=fail", Err));
  EXPECT_NE(Err.find("nonsense"), std::string::npos);
  EXPECT_FALSE(failpoint::anyArmed());
  // A bad pair anywhere in the list arms nothing, even after valid pairs.
  EXPECT_FALSE(
      failpoint::configure("pipeline.parse=fail,pipeline.cha=explode", Err));
  EXPECT_FALSE(failpoint::anyArmed());
  EXPECT_TRUE(failpoint::configure("pipeline.parse=fail", Err)) << Err;
  EXPECT_TRUE(failpoint::anyArmed());
  failpoint::disarmAll();
  EXPECT_FALSE(failpoint::anyArmed());
}

TEST(Failpoint, TriggeredCountsHits) {
  FailpointGuard G;
  std::string Err;
  ASSERT_TRUE(failpoint::configure("pipeline.plan=fail", Err));
  uint64_t Before = failpoint::totalHits();
  EXPECT_TRUE(failpoint::triggered("pipeline.plan"));
  EXPECT_FALSE(failpoint::triggered("pipeline.optimize"));
  EXPECT_EQ(failpoint::totalHits(), Before + 1);
}

//===----------------------------------------------------------------------===//
// The headline guarantee: arming any single registered failpoint during a
// full five-configuration pipeline produces a clean structured failure —
// a null Workbench with diagnostics, a failed phase with diagnostics, or
// a trap — and never a crash.  Sites not on a given path simply stay
// quiet and the pipeline completes.
//===----------------------------------------------------------------------===//

TEST(Failpoint, EverySiteFailsCleanlyAcrossAllConfigs) {
  for (const char *Name : failpoint::allNames()) {
    SCOPED_TRACE(Name);
    FailpointGuard G;
    std::string Err;
    ASSERT_TRUE(failpoint::configure(std::string(Name) + "=fail", Err))
        << Err;

    std::unique_ptr<Workbench> W =
        Workbench::fromSources({CounterSrc}, Err, false);
    if (!W) {
      // Load-phase injection: rejected with a diagnostic naming the site.
      EXPECT_NE(Err.find("injected failure"), std::string::npos) << Err;
      continue;
    }
    std::string ProfErr;
    W->collectProfile(3, ProfErr); // may fail; Selective must degrade
    for (Config C : {Config::Base, Config::Cust, Config::CustMM,
                     Config::CHA, Config::Selective}) {
      std::string RunErr;
      std::optional<ConfigResult> R = W->runConfig(C, 3, RunErr);
      if (R) {
        EXPECT_EQ(R->Output, "3\n");
      } else {
        // Structured failure: a message, and either a trap kind or a
        // diagnostic — never an empty-handed nullopt.
        EXPECT_FALSE(RunErr.empty());
      }
    }
  }
}

TEST(Failpoint, FrameAcquireInjectionTrapsInternalError) {
  FailpointGuard G;
  std::string Err;
  ASSERT_TRUE(failpoint::configure("interp.frame-acquire=fail", Err));
  std::unique_ptr<Program> P = buildProgram({CounterSrc});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  Interpreter I(*CP);
  EXPECT_FALSE(I.callMain(3));
  EXPECT_EQ(I.trap().Kind, TrapKind::InternalError) << I.trap().render();
  EXPECT_NE(I.trap().Message.find("interp.frame-acquire"), std::string::npos);
}

// CHA's ApplicableClasses are read from method-only tables, so an armed
// failpoint degrades the analysis too: every method keeps its specializer
// cones (a sound superset) and every generic its dispatched positions.
// g's root tuple dispatches to g(Any), so a Cust build that saw no
// dispatched positions would bind g(new B) to it and print 3, not 13.
TEST(Failpoint, DispatchTableBuildInjectionDegradesToSearch) {
  FailpointGuard G;
  std::unique_ptr<Program> P = buildProgram({R"(
      class A; class B isa A;
      method f(x@A) { 1; }
      method f(x@B) { 2; }
      method g(x) { 0; }
      method g(x@B) { 10; }
      method main(n@Int) { print(f(new B) + f(new A) + g(new B)); }
  )"});
  ASSERT_TRUE(P);
  std::string Err;
  ASSERT_TRUE(failpoint::configure("dispatch.table-build=fail", Err));
  DispatchTables Degraded(*P);
  for (unsigned GI = 0; GI != P->numGenerics(); ++GI)
    Degraded.table(GenericId(GI)); // builds while armed
  ApplicableClassesAnalysis ArmedAC(*P);
  std::unique_ptr<CompiledProgram> ArmedCHA = compileProgram(*P, Config::CHA);
  std::unique_ptr<CompiledProgram> ArmedCust =
      compileProgram(*P, Config::Cust);
  failpoint::disarmAll();
  DispatchTables Normal(*P);
  ApplicableClassesAnalysis AC(*P);
  // Degraded tables materialize nothing but answer identically through
  // the search-based fallback.
  for (unsigned GI = 0; GI != P->numGenerics(); ++GI) {
    const GenericInfo &Info = P->generic(GenericId(GI));
    EXPECT_FALSE(Degraded.table(GenericId(GI)).materialized());
    EXPECT_EQ(Degraded.table(GenericId(GI)).tableSize(), 0u);
    EXPECT_EQ(Degraded.table(GenericId(GI)).positions(),
              Normal.table(GenericId(GI)).positions());
    std::vector<ClassId> Args(Info.Arity, P->Classes.root());
    EXPECT_EQ(Degraded.dispatch(GenericId(GI), Args),
              Normal.dispatch(GenericId(GI), Args));
    EXPECT_EQ(ArmedAC.dispatchedPositions(GenericId(GI)),
              AC.dispatchedPositions(GenericId(GI)));
  }
  for (const char *Name : {"f", "g"}) {
    GenericId Gen = P->lookupGeneric(P->Syms.find(Name), 1);
    EXPECT_EQ(ArmedAC.dispatchedPositions(Gen), std::vector<unsigned>{0});
    for (MethodId M : P->generic(Gen).Methods) {
      const ClassSet Cone = P->Classes.cone(P->method(M).Specializers[0]);
      EXPECT_EQ(ArmedAC.of(M)[0], Cone) << P->methodLabel(M);
      EXPECT_TRUE(AC.of(M)[0].isSubsetOf(Cone)) << P->methodLabel(M);
    }
  }
  // Programs compiled on the degraded analysis compute what the normal
  // ones do.
  for (CompiledProgram *CP : {ArmedCHA.get(), ArmedCust.get()}) {
    std::string Armed, Unarmed;
    runMain(*CP, 1, &Armed);
    runMain(*compileProgram(*P, CP->configuration()), 1, &Unarmed);
    EXPECT_EQ(Unarmed, "13\n");
    EXPECT_EQ(Armed, Unarmed) << configName(CP->configuration());
  }
}

// The tables are built at a job's first dispatch miss, not at snapshot
// build, so that is where the failpoint fires.  Armed, every generic the
// served job misses on degrades to the search fallback, and the job's
// output and RunStats equal an unarmed job's, on both tiers.
TEST(Failpoint, DispatchTableBuildOnServePathDegradesToSearch) {
  const std::string Src = R"(
      class Shape; class Circle isa Shape; class Square isa Shape;
      class Tri isa Shape;
      method area(s@Circle) { 3; }
      method area(s@Square) { 4; }
      method area(s@Tri) { 5; }
      method pick(n@Int) {
        if (n % 3 == 0) { new Circle; }
        else { if (n % 3 == 1) { new Square; } else { new Tri; } }
      }
      method main(n@Int) {
        let i := 0; let acc := 0;
        while (i < n) { acc := acc + area(pick(i)); i := i + 1; }
        print(acc);
      })";
  metrics::Counter &Fallbacks = metrics::named("dispatch.table_fallbacks");
  for (ExecTier Tier : {ExecTier::Bytecode, ExecTier::Ast}) {
    SCOPED_TRACE(tierName(Tier));
    FailpointGuard G;
    auto ServeOne = [&](bool Armed, uint64_t &FallbacksAdded) {
      std::string Err;
      std::shared_ptr<Workbench> WB =
          Workbench::fromSources({Src}, Err, /*WithStdlib=*/false);
      EXPECT_TRUE(WB) << Err;
      WB->setTier(Tier);
      if (Armed) {
        EXPECT_TRUE(failpoint::configure("dispatch.table-build=fail", Err));
      }
      const uint64_t Before = Fallbacks.value();
      std::shared_ptr<const CompiledSnapshot> Snap =
          WB->buildSnapshot(Config::Base, Err, {}, {}, WB);
      EXPECT_TRUE(Snap) << Err;
      EXPECT_EQ(Fallbacks.value(), Before) << "snapshot build built a table";
      CompiledSnapshot::JobResult Result;
      {
        ServeEngine Engine(ServeEngine::Options(),
                           [&](ServeEngine::Completion &&Cmp) {
                             Result = std::move(Cmp.Result);
                           });
        ServeEngine::Job J;
        J.Id = "0";
        J.Snapshot = Snap;
        J.Input = 30;
        EXPECT_EQ(Engine.submit(std::move(J)), ServeEngine::Admit::Accepted);
        Engine.shutdown(false);
      }
      FallbacksAdded = Fallbacks.value() - Before;
      failpoint::disarmAll();
      GenericId Area =
          Snap->program().lookupGeneric(Snap->program().Syms.find("area"), 1);
      EXPECT_EQ(Snap->tables().table(Area).materialized(), !Armed);
      return Result;
    };
    uint64_t NormalFallbacks = 0, DegradedFallbacks = 0;
    CompiledSnapshot::JobResult Normal = ServeOne(false, NormalFallbacks);
    CompiledSnapshot::JobResult Degraded = ServeOne(true, DegradedFallbacks);
    ASSERT_TRUE(Normal.Ok) << Normal.Error;
    ASSERT_TRUE(Degraded.Ok) << Degraded.Error;
    EXPECT_EQ(NormalFallbacks, 0u);
    EXPECT_GT(DegradedFallbacks, 0u);
    EXPECT_EQ(Normal.R.Output, "120\n");
    EXPECT_EQ(Degraded.R.Output, Normal.R.Output);
    expectSameStats(Normal.R.Run, Degraded.R.Run, "armed vs unarmed");
  }
}

//===----------------------------------------------------------------------===//
// Crash-safe profile persistence: v2 on-disk format, generations, backup
// rotation, and torn-write recovery with a failpoint at every save step.
//===----------------------------------------------------------------------===//

namespace {

/// Builds a small db worth saving.
ProfileDb makeDb() {
  ProfileDb Db;
  CallGraph &G = Db.forProgram("prog");
  G.addHits(CallSiteId(1), MethodId(2), MethodId(3), 40);
  G.addHits(CallSiteId(2), MethodId(3), MethodId(4), 2);
  return Db;
}

} // namespace

TEST(CrashSafeDb, SaveWritesV2HeaderAndRoundTrips) {
  std::string Path = tempPath("v2_roundtrip.db");
  removeAll(Path);
  ProfileDb Db = makeDb();
  Diagnostics Diags;
  ASSERT_TRUE(Db.saveToFile(Path, Diags)) << Diags.toString();
  std::string Text = readFileOr(Path, "");
  EXPECT_EQ(Text.rfind("selspec-profile v2 gen 1 sum ", 0), 0u) << Text;

  ProfileDb Loaded;
  ASSERT_TRUE(Loaded.loadFromFile(Path, Diags)) << Diags.toString();
  EXPECT_EQ(Loaded.generation(), 1u);
  EXPECT_EQ(Loaded.forProgram("prog").totalWeight(),
            Db.forProgram("prog").totalWeight());
  removeAll(Path);
}

TEST(CrashSafeDb, GenerationsCountUpAndRotateBackups) {
  std::string Path = tempPath("generations.db");
  removeAll(Path);
  ProfileDb Db = makeDb();
  ASSERT_TRUE(Db.saveToFile(Path));
  ASSERT_TRUE(Db.saveToFile(Path));
  ASSERT_TRUE(Db.saveToFile(Path));
  EXPECT_EQ(readFileOr(Path, "").rfind("selspec-profile v2 gen 3", 0), 0u);
  EXPECT_EQ(readFileOr(Path + ".bak", "").rfind("selspec-profile v2 gen 2", 0),
            0u);
  removeAll(Path);
}

TEST(CrashSafeDb, ChecksumCatchesTornFile) {
  std::string Path = tempPath("torn.db");
  removeAll(Path);
  ProfileDb Db = makeDb();
  ASSERT_TRUE(Db.saveToFile(Path));
  std::string Text = readFileOr(Path, "");
  ASSERT_GT(Text.size(), 20u);
  {
    std::ofstream OS(Path, std::ios::trunc);
    OS << Text.substr(0, Text.size() / 2); // torn mid-body
  }
  ProfileDb Loaded;
  Diagnostics Diags;
  EXPECT_FALSE(Loaded.loadFromFile(Path, Diags));
  EXPECT_NE(Diags.toString().find("checksum"), std::string::npos)
      << Diags.toString();
  removeAll(Path);
}

TEST(CrashSafeDb, LoadFallsBackToBackup) {
  std::string Path = tempPath("fallback.db");
  removeAll(Path);
  ProfileDb Db = makeDb();
  ASSERT_TRUE(Db.saveToFile(Path)); // gen 1
  ASSERT_TRUE(Db.saveToFile(Path)); // gen 2, .bak = gen 1
  {
    std::ofstream OS(Path, std::ios::trunc);
    OS << "selspec-profile v2 gen 9 sum 0123456789abcdef\ngarbage\n";
  }
  ProfileDb Loaded;
  Diagnostics Diags;
  ASSERT_TRUE(Loaded.loadFromFile(Path, Diags)) << Diags.toString();
  EXPECT_EQ(Loaded.generation(), 1u);
  EXPECT_NE(Diags.toString().find("recovered generation 1"),
            std::string::npos)
      << Diags.toString();
  EXPECT_EQ(Loaded.forProgram("prog").totalWeight(),
            Db.forProgram("prog").totalWeight());
  removeAll(Path);
}

TEST(CrashSafeDb, MissingPrimaryUsesBackup) {
  std::string Path = tempPath("missing_primary.db");
  removeAll(Path);
  ProfileDb Db = makeDb();
  ASSERT_TRUE(Db.saveToFile(Path));
  // A crash between the two renames leaves only <path>.bak.
  ASSERT_EQ(std::rename(Path.c_str(), (Path + ".bak").c_str()), 0);
  ProfileDb Loaded;
  Diagnostics Diags;
  ASSERT_TRUE(Loaded.loadFromFile(Path, Diags)) << Diags.toString();
  EXPECT_EQ(Loaded.generation(), 1u);
  removeAll(Path);
}

// The decisive torn-write matrix: after generation 2 exists, inject a
// failure at EVERY step of the generation-3 save.  The save must report
// failure, and a subsequent load must still produce generation 2 (from
// the primary or the rotated backup, depending on where the "crash"
// happened).
TEST(CrashSafeDb, EverySaveStepFailureLeavesLastGenerationLoadable) {
  const char *SaveSteps[] = {
      "profiledb.save.open", "profiledb.save.write", "profiledb.save.sync",
      "profiledb.save.backup", "profiledb.save.rename"};
  for (const char *Step : SaveSteps) {
    SCOPED_TRACE(Step);
    FailpointGuard G;
    std::string Path = tempPath(std::string("step_") +
                                std::string(Step).substr(15) + ".db");
    removeAll(Path);
    ProfileDb Db = makeDb();
    ASSERT_TRUE(Db.saveToFile(Path)); // gen 1
    ASSERT_TRUE(Db.saveToFile(Path)); // gen 2

    std::string Err;
    ASSERT_TRUE(failpoint::configure(std::string(Step) + "=fail", Err));
    Diagnostics SaveDiags;
    EXPECT_FALSE(Db.saveToFile(Path, SaveDiags));
    EXPECT_NE(SaveDiags.toString().find(Step), std::string::npos)
        << SaveDiags.toString();
    failpoint::disarmAll();

    ProfileDb Loaded;
    Diagnostics LoadDiags;
    ASSERT_TRUE(Loaded.loadFromFile(Path, LoadDiags))
        << LoadDiags.toString();
    EXPECT_EQ(Loaded.generation(), 2u) << LoadDiags.toString();
    EXPECT_EQ(Loaded.forProgram("prog").totalWeight(),
              Db.forProgram("prog").totalWeight());
    removeAll(Path);
  }
}

TEST(CrashSafeDb, LoadFailpointsFailCleanly) {
  std::string Path = tempPath("load_fp.db");
  removeAll(Path);
  ProfileDb Db = makeDb();
  ASSERT_TRUE(Db.saveToFile(Path));
  for (const char *Step : {"profiledb.load.open", "profiledb.load.header"}) {
    SCOPED_TRACE(Step);
    FailpointGuard G;
    std::string Err;
    ASSERT_TRUE(failpoint::configure(std::string(Step) + "=fail", Err));
    ProfileDb Loaded;
    Diagnostics Diags;
    // load.open fails both primary and backup; load.header likewise.
    // Either way: errors, no crash, and nothing merged.
    EXPECT_FALSE(Loaded.loadFromFile(Path, Diags));
    EXPECT_EQ(Loaded.numPrograms(), 0u);
  }
  removeAll(Path);
}

TEST(CrashSafeDb, TornPrimaryDoesNotPolluteBeforeFallback) {
  std::string Path = tempPath("no_pollute.db");
  removeAll(Path);
  ProfileDb Db = makeDb();
  ASSERT_TRUE(Db.saveToFile(Path)); // gen 1 -> becomes .bak
  ASSERT_TRUE(Db.saveToFile(Path)); // gen 2
  // Corrupt the primary so its header parses but the body is half gone:
  // the loader must not keep any arcs from the torn primary.
  std::string Text = readFileOr(Path, "");
  {
    std::ofstream OS(Path, std::ios::trunc);
    OS << Text.substr(0, Text.size() - 10);
  }
  ProfileDb Loaded;
  Diagnostics Diags;
  ASSERT_TRUE(Loaded.loadFromFile(Path, Diags)) << Diags.toString();
  EXPECT_EQ(Loaded.generation(), 1u);
  EXPECT_EQ(Loaded.forProgram("prog").totalWeight(),
            Db.forProgram("prog").totalWeight());
  removeAll(Path);
}

TEST(CrashSafeDb, V1InterchangeStillAccepted) {
  // serialize() stays v1 (the in-memory interchange format other tests
  // and the fuzzer round-trip); loadFromFile accepts it for migration.
  std::string Path = tempPath("v1_migrate.db");
  removeAll(Path);
  ProfileDb Db = makeDb();
  {
    std::ofstream OS(Path);
    OS << Db.serialize();
  }
  ProfileDb Loaded;
  Diagnostics Diags;
  ASSERT_TRUE(Loaded.loadFromFile(Path, Diags)) << Diags.toString();
  EXPECT_EQ(Loaded.generation(), 0u); // v1 files carry no generation
  EXPECT_EQ(Loaded.forProgram("prog").totalWeight(),
            Db.forProgram("prog").totalWeight());
  // And the next save starts the generation counter above it.
  ASSERT_TRUE(Loaded.saveToFile(Path));
  EXPECT_EQ(readFileOr(Path, "").rfind("selspec-profile v2 gen 1", 0), 0u);
  removeAll(Path);
}

//===----------------------------------------------------------------------===//
// Adaptive respecialization under injected faults: any single armed
// adaptive.* failpoint during serving demotes the candidate and pins the
// incumbent — never a crash, a lost job, or a wedged serving loop.
//===----------------------------------------------------------------------===//

TEST(AdaptiveFailpoints, AnySingleFailpointRollsBackToIncumbent) {
  const char *ServeSrc = R"(
      class Shape; class Circle isa Shape; class Square isa Shape;
      method area(s@Circle) { 3; }
      method area(s@Square) { 4; }
      method pick(n@Int) {
        if (n % 2 == 0) { new Circle; } else { new Square; }
      }
      method main(n@Int) {
        let i := 0; let acc := 0;
        while (i < n) { acc := acc + area(pick(i)); i := i + 1; }
        acc;
      })";
  const char *Points[] = {"adaptive.build", "adaptive.canary",
                          "adaptive.promote", "adaptive.profile-save"};
  for (const char *Point : Points) {
    SCOPED_TRACE(Point);
    FailpointGuard G;
    std::string Err;
    ASSERT_TRUE(failpoint::configure(std::string(Point) + "=fail", Err))
        << Err;

    std::string DbPath = tempPath("adaptive_fp.profdb");
    removeAll(DbPath);

    std::shared_ptr<Workbench> WB = Workbench::fromSources({ServeSrc}, Err);
    ASSERT_TRUE(WB) << Err;
    std::shared_ptr<const CompiledSnapshot> Inc =
        WB->buildSnapshot(Config::CHA, Err, {}, {}, WB);
    ASSERT_TRUE(Inc) << Err;

    AdaptiveController::Options O;
    O.CanaryFraction = 0.5;
    O.CanaryJobs = 4;
    O.MinIncumbentJobs = 1;
    O.RespecializeIntervalMs = 0;
    O.ProfileDbPath = DbPath; // exercises adaptive.profile-save
    AdaptiveController C(
        Inc,
        [ServeSrc](const CallGraph &,
                   std::string &E) -> std::shared_ptr<const CompiledSnapshot> {
          std::shared_ptr<Workbench> B = Workbench::fromSources({ServeSrc}, E);
          if (!B)
            return nullptr;
          return B->buildSnapshot(Config::CHA, E, {}, {}, B);
        },
        O);

    // The serving loop micad runs, bounded: every job must complete Ok
    // whichever failpoint is armed (a failed canary probe serves from the
    // incumbent; a healthy candidate runs fine even if its promotion is
    // then injected to fail).
    auto Serve = [&](size_t N) {
      for (size_t I = 0; I != N; ++I) {
        AdaptiveController::Ticket T = C.admit();
        ASSERT_TRUE(T.Snap) << "admission must always yield a snapshot";
        CompiledSnapshot::JobOptions JO;
        JO.CollectArcs = T.SampleArcs;
        CompiledSnapshot::JobResult R = T.Snap->run(30, JO);
        C.report(T, R.Ok, R.Ok ? R.R.Run.Cycles : 0,
                 T.SampleArcs ? &R.Arcs : nullptr);
        EXPECT_TRUE(R.Ok) << "job " << I << " failed: " << R.Error;
      }
    };

    Serve(8);
    std::string BuildErr;
    C.respecializeNow(BuildErr, /*Force=*/true); // fails for build/save points
    Serve(24); // enough traffic for a full canary verdict
    EXPECT_TRUE(C.waitForDecision(0, 2000));

    EXPECT_EQ(C.promotions(), 0u)
        << "an injected fault anywhere in the chain must block promotion";
    EXPECT_GE(C.rollbacks(), 1u) << "the failure must roll back, not linger";
    EXPECT_EQ(C.incumbent().get(), Inc.get())
        << "the incumbent must come through the episode untouched";
    EXPECT_EQ(C.phase(), AdaptiveController::Phase::Stable)
        << "no candidate may survive the injected fault";

    removeAll(DbPath);
  }
}
