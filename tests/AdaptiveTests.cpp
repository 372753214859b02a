//===- tests/AdaptiveTests.cpp - Online adaptive respecialization -----------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// The adaptive-loop guarantees of DESIGN.md section 12, enforced:
//
//   - live arc collection through CompiledSnapshot::run is exact and free
//     of observable side effects (RunStats bit-identical with it on/off,
//     both tiers);
//   - a healthy candidate promotes after its canary; a candidate that
//     traps, or that costs measurably more than the incumbent, is
//     canaried, rejected, and rolled back with the incumbent untouched —
//     bit-identical RunStats before and after;
//   - a rolled-back profile generation is pinned and never rebuilt
//     verbatim; genuinely new arcs unpin respecialization;
//   - the background respecializer answers requestRespecialize() (the
//     SIGHUP path) without any serving-thread involvement.
//
//===----------------------------------------------------------------------===//

#include "driver/Adaptive.h"
#include "driver/Pipeline.h"
#include "driver/Snapshot.h"
#include "support/Metrics.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

using namespace selspec;
using namespace selspec::test;

namespace {

/// Polymorphic workload: pick() launders the receiver class so area()
/// stays a live dynamic dispatch and every run records arcs.
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

/// Same interface, 12x the work per job: a candidate built from this is a
/// clean, deterministic cost regression against a ServeSrc incumbent.
const char *SlowSrc = R"(
    class Shape; class Circle isa Shape; class Square isa Shape;
    method area(s@Circle) { 3; }
    method area(s@Square) { 4; }
    method pick(n@Int) {
      if (n % 2 == 0) { new Circle; } else { new Square; }
    }
    method main(n@Int) {
      let i := 0; let acc := 0;
      while (i < n * 12) { acc := acc + area(pick(i)); i := i + 1; }
      acc;
    })";

/// Builds fine, traps on every run (depth-limit recursion): the candidate
/// a bad profile generation might produce.
const char *TrapSrc = R"(
    method deep(n@Int) { deep(n + 1); }
    method main(n@Int) { deep(n); })";

std::shared_ptr<const CompiledSnapshot> snapFromSource(const std::string &Src,
                                                       Config C) {
  std::string Err;
  std::shared_ptr<Workbench> WB = Workbench::fromSources({Src}, Err);
  if (!WB) {
    ADD_FAILURE() << "workbench: " << Err;
    return nullptr;
  }
  std::shared_ptr<const CompiledSnapshot> S =
      WB->buildSnapshot(C, Err, {}, {}, WB);
  if (!S)
    ADD_FAILURE() << "snapshot: " << Err;
  return S;
}

/// A builder that compiles \p Src fresh each generation, ignoring the
/// profile (tests pick the program to force the outcome they need).
AdaptiveController::SnapshotBuilder builderFor(std::string Src,
                                               Config C = Config::CHA) {
  return [Src = std::move(Src),
          C](const CallGraph &,
             std::string &E) -> std::shared_ptr<const CompiledSnapshot> {
    std::shared_ptr<Workbench> WB = Workbench::fromSources({Src}, E);
    if (!WB)
      return nullptr;
    return WB->buildSnapshot(C, E, {}, {}, WB);
  };
}

AdaptiveController::Options quickOptions() {
  AdaptiveController::Options O;
  O.CanaryFraction = 0.5; // every 2nd job canaries
  O.CanaryJobs = 4;
  O.MinIncumbentJobs = 1;
  O.RespecializeIntervalMs = 0; // builds only on request
  return O;
}

/// Serves \p N jobs through the controller exactly the way micad does:
/// admit -> run on the ticket's snapshot -> report.  Returns how many ran
/// Ok.
size_t serveJobs(AdaptiveController &C, size_t N, int64_t Input) {
  size_t Ok = 0;
  for (size_t I = 0; I != N; ++I) {
    AdaptiveController::Ticket T = C.admit();
    CompiledSnapshot::JobOptions JO;
    JO.CollectArcs = T.SampleArcs;
    CompiledSnapshot::JobResult R = T.Snap->run(Input, JO);
    C.report(T, R.Ok, R.Ok ? R.R.Run.Cycles : 0,
             T.SampleArcs ? &R.Arcs : nullptr);
    Ok += R.Ok;
  }
  return Ok;
}

} // namespace

//===----------------------------------------------------------------------===//
// Live arc collection through the snapshot layer.
//===----------------------------------------------------------------------===//

TEST(AdaptiveArcs, CollectionIsExactAndInvisibleOnBothTiers) {
  for (ExecTier T : {ExecTier::Bytecode, ExecTier::Ast}) {
    SCOPED_TRACE(T == ExecTier::Bytecode ? "bytecode" : "ast");
    std::string Err;
    std::shared_ptr<Workbench> WB = Workbench::fromSources({ServeSrc}, Err);
    ASSERT_TRUE(WB) << Err;
    WB->setTier(T);
    std::shared_ptr<const CompiledSnapshot> Snap =
        WB->buildSnapshot(Config::CHA, Err, {}, {}, WB);
    ASSERT_TRUE(Snap) << Err;

    CompiledSnapshot::JobResult Plain = Snap->run(40);
    ASSERT_TRUE(Plain.Ok) << Plain.Error;
    EXPECT_TRUE(Plain.Arcs.empty()) << "unsampled jobs must not record arcs";

    CompiledSnapshot::JobOptions JO;
    JO.CollectArcs = true;
    CompiledSnapshot::JobResult Sampled = Snap->run(40, JO);
    ASSERT_TRUE(Sampled.Ok) << Sampled.Error;
    EXPECT_GT(Sampled.Arcs.numArcs(), 0u);
    EXPECT_GT(Sampled.Arcs.totalWeight(), 0u);

    // Profiling must be observationally free: identical stats and output.
    EXPECT_TRUE(Plain.R.Run == Sampled.R.Run)
        << "arc collection changed the run's RunStats";
    EXPECT_EQ(Plain.R.Output, Sampled.R.Output);
  }
}

//===----------------------------------------------------------------------===//
// Canary verdicts: promotion and both rollback triggers.
//===----------------------------------------------------------------------===//

TEST(AdaptiveVerdict, HealthyCandidatePromotes) {
  std::shared_ptr<const CompiledSnapshot> Inc =
      snapFromSource(ServeSrc, Config::CHA);
  ASSERT_TRUE(Inc);
  AdaptiveController C(Inc, builderFor(ServeSrc), quickOptions());

  serveJobs(C, 8, 40); // incumbent baseline
  std::string Err;
  ASSERT_TRUE(C.respecializeNow(Err)) << Err;
  EXPECT_EQ(C.phase(), AdaptiveController::Phase::Canary);

  serveJobs(C, 20, 40); // canary stride 2, sample 4 -> verdict inside
  EXPECT_EQ(C.promotions(), 1u);
  EXPECT_EQ(C.rollbacks(), 0u);
  EXPECT_EQ(C.phase(), AdaptiveController::Phase::Stable);
  EXPECT_NE(C.incumbent().get(), Inc.get())
      << "promotion must install the candidate";

  // The promoted snapshot serves correctly.
  EXPECT_EQ(serveJobs(C, 4, 40), 4u);
}

TEST(AdaptiveVerdict, TrappingCandidateRollsBackAndIncumbentIsUntouched) {
  std::shared_ptr<const CompiledSnapshot> Inc =
      snapFromSource(ServeSrc, Config::CHA);
  ASSERT_TRUE(Inc);
  CompiledSnapshot::JobResult Before = Inc->run(40);
  ASSERT_TRUE(Before.Ok) << Before.Error;

  AdaptiveController C(Inc, builderFor(TrapSrc), quickOptions());
  serveJobs(C, 8, 40);
  std::string Err;
  ASSERT_TRUE(C.respecializeNow(Err)) << Err; // builds fine, traps at run
  EXPECT_EQ(C.generationsBuilt(), 1u);

  serveJobs(C, 20, 40);
  EXPECT_EQ(C.rollbacks(), 1u) << "trap regression must demote the candidate";
  EXPECT_EQ(C.promotions(), 0u);
  EXPECT_GT(metrics::named("adaptive.canary_traps").value(), 0u);
  EXPECT_EQ(C.incumbent().get(), Inc.get())
      << "rollback must pin the very same incumbent snapshot";

  // The incumbent's behaviour is bit-identical across the whole episode.
  CompiledSnapshot::JobResult After = C.incumbent()->run(40);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_TRUE(Before.R.Run == After.R.Run);
  EXPECT_EQ(Before.R.Output, After.R.Output);
}

TEST(AdaptiveVerdict, CostRegressionRollsBack) {
  std::shared_ptr<const CompiledSnapshot> Inc =
      snapFromSource(ServeSrc, Config::CHA);
  ASSERT_TRUE(Inc);
  AdaptiveController::Options O = quickOptions();
  O.CostRegressionFactor = 1.15;
  O.MinIncumbentJobs = 2;
  AdaptiveController C(Inc, builderFor(SlowSrc), O);

  serveJobs(C, 8, 40);
  std::string Err;
  ASSERT_TRUE(C.respecializeNow(Err)) << Err;
  serveJobs(C, 20, 40); // candidate runs fine — just 12x the cycles
  EXPECT_EQ(C.rollbacks(), 1u) << "cost regression must demote the candidate";
  EXPECT_EQ(C.promotions(), 0u);
  EXPECT_EQ(C.incumbent().get(), Inc.get());
}

//===----------------------------------------------------------------------===//
// Bad-profile pinning.
//===----------------------------------------------------------------------===//

TEST(AdaptiveVerdict, RolledBackProfileIsNotRetriedVerbatim) {
  std::shared_ptr<const CompiledSnapshot> Inc =
      snapFromSource(ServeSrc, Config::CHA);
  ASSERT_TRUE(Inc);
  // SampleEvery=0: serving never merges arcs, so the live profile changes
  // only through seedProfile() and the "retried verbatim" hash comparison
  // is exact — this is the quiet-server-SIGHUP'd-twice scenario.
  AdaptiveController::Options O = quickOptions();
  O.SampleEvery = 0;
  AdaptiveController C(Inc, builderFor(TrapSrc), O);

  CallGraph Seed;
  Seed.addHits(CallSiteId(1), MethodId(2), MethodId(3), 10);
  C.seedProfile(Seed);

  serveJobs(C, 8, 40);
  std::string Err;
  ASSERT_TRUE(C.respecializeNow(Err)) << Err;
  serveJobs(C, 20, 40);
  ASSERT_EQ(C.rollbacks(), 1u);

  // Same merged profile -> pinned, even when forced (SIGHUP).
  EXPECT_FALSE(C.respecializeNow(Err, /*Force=*/true));
  EXPECT_NE(Err.find("previously rolled back"), std::string::npos) << Err;
  EXPECT_EQ(C.generationsBuilt(), 1u);

  // Genuinely new arcs change the generation's hash and unpin it.
  Seed.addHits(CallSiteId(4), MethodId(5), MethodId(6), 3);
  C.seedProfile(Seed);
  EXPECT_GT(C.liveProfileArcs(), 1u);
  EXPECT_TRUE(C.respecializeNow(Err)) << Err;
  EXPECT_EQ(C.generationsBuilt(), 2u);
}

//===----------------------------------------------------------------------===//
// The background respecializer (SIGHUP path).
//===----------------------------------------------------------------------===//

TEST(AdaptiveBackground, RequestRespecializeBuildsOffThread) {
  std::shared_ptr<const CompiledSnapshot> Inc =
      snapFromSource(ServeSrc, Config::CHA);
  ASSERT_TRUE(Inc);
  AdaptiveController C(Inc, builderFor(ServeSrc), quickOptions());
  serveJobs(C, 4, 40);

  uint64_t Decisions = C.decisions();
  C.requestRespecialize(); // what micad does on SIGHUP
  // The build happens on the controller's own thread; wait for the
  // candidate to appear without this thread ever building anything.
  for (int I = 0; I != 200 && C.phase() != AdaptiveController::Phase::Canary;
       ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(C.phase(), AdaptiveController::Phase::Canary);
  EXPECT_EQ(C.generationsBuilt(), 1u);

  serveJobs(C, 20, 40);
  EXPECT_TRUE(C.waitForDecision(Decisions, 2000));
  EXPECT_EQ(C.promotions(), 1u);
}

TEST(AdaptiveBackground, ArcThresholdTriggersABuild) {
  std::shared_ptr<const CompiledSnapshot> Inc =
      snapFromSource(ServeSrc, Config::CHA);
  ASSERT_TRUE(Inc);
  AdaptiveController::Options O = quickOptions();
  O.ArcWeightThreshold = 1; // the first sampled job's arcs trip it
  AdaptiveController C(Inc, builderFor(ServeSrc), O);

  serveJobs(C, 2, 40);
  for (int I = 0; I != 200 && C.generationsBuilt() == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(C.generationsBuilt(), 1u)
      << "merged arc weight past the threshold must request a build";
}
