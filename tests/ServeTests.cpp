//===- tests/ServeTests.cpp - Snapshots, thread-pool serving ----------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// The immutability contract of DESIGN.md section 11, enforced:
//
//   - every (config, benchmark) job served from a shared CompiledSnapshot
//     on an 8-thread pool produces RunStats bit-identical to the same job
//     run single-threaded, on both execution tiers;
//   - per-job metrics deltas sum exactly to the process-wide registry
//     totals;
//   - deadlines and shutdown cancel jobs cooperatively;
//   - SnapshotCache builds each key once and never caches failures.
//
//===----------------------------------------------------------------------===//

#include "driver/Serve.h"
#include "driver/Snapshot.h"
#include "support/Metrics.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace selspec;
using namespace selspec::test;

namespace {

/// Full bitwise RunStats comparison, NodeMix included: the serving
/// guarantee is *identical* counters, not merely identical output.
bool statsEqual(const RunStats &A, const RunStats &B) {
  return A.DynamicDispatches == B.DynamicDispatches &&
         A.VersionSelects == B.VersionSelects &&
         A.StaticCalls == B.StaticCalls && A.InlinePrims == B.InlinePrims &&
         A.PredictedHits == B.PredictedHits &&
         A.PredictedMisses == B.PredictedMisses &&
         A.FeedbackHits == B.FeedbackHits &&
         A.FeedbackMisses == B.FeedbackMisses &&
         A.ClosuresCreated == B.ClosuresCreated &&
         A.ClosureCalls == B.ClosureCalls &&
         A.Allocations == B.Allocations &&
         A.MethodInvocations == B.MethodInvocations &&
         A.NodesEvaluated == B.NodesEvaluated &&
         A.PeakDepth == B.PeakDepth && A.Cycles == B.Cycles &&
         A.NodeMix == B.NodeMix;
}

struct BenchCase {
  const char *Name;
  std::vector<std::string> Files;
  int64_t Input;
};

const BenchCase Benches[] = {
    {"richards", {"richards.mica"}, 30},
    {"instsched", {"instsched.mica"}, 6},
    {"typechecker", {"minilang.mica", "typechecker.mica"}, 8},
    {"compiler", {"minilang.mica", "compiler.mica"}, 8},
};

const Config AllConfigs[] = {Config::Base, Config::Cust, Config::CustMM,
                             Config::CHA, Config::Selective};

/// One shared snapshot plus its single-threaded reference result.
struct ServedUnit {
  std::string Label;
  std::shared_ptr<const CompiledSnapshot> Snap;
  int64_t Input = 0;
  RunStats Ref;
  std::string RefOutput;
};

/// Builds snapshots for every (benchmark, config) pair on \p T, records a
/// single-threaded reference run for each, then replays every job twice
/// on an 8-thread pool and demands bit-identical RunStats and output.
void runConcurrencyStress(ExecTier T) {
  std::vector<ServedUnit> Units;
  std::vector<std::shared_ptr<Workbench>> Keepers;

  for (const BenchCase &B : Benches) {
    std::string Err;
    std::shared_ptr<Workbench> WB = Workbench::fromFiles(B.Files, Err);
    ASSERT_TRUE(WB) << B.Name << ": " << Err;
    WB->setTier(T);
    ASSERT_TRUE(WB->collectProfile(B.Input, Err)) << B.Name << ": " << Err;
    Keepers.push_back(WB);

    for (Config C : AllConfigs) {
      SelectiveOptions Sel;
      Sel.SpecializationThreshold = 50;
      std::shared_ptr<const CompiledSnapshot> Snap =
          WB->buildSnapshot(C, Err, Sel, {}, WB);
      ASSERT_TRUE(Snap) << B.Name << "/" << configName(C) << ": " << Err;
      EXPECT_EQ(Snap->tier(), T)
          << B.Name << "/" << configName(C) << " fell back off the "
          << "requested tier";

      CompiledSnapshot::JobResult Ref = Snap->run(B.Input);
      ASSERT_TRUE(Ref.Ok)
          << B.Name << "/" << configName(C) << ": " << Ref.Error;

      ServedUnit U;
      U.Label = std::string(B.Name) + "/" + configName(C);
      U.Snap = Snap;
      U.Input = B.Input;
      U.Ref = Ref.R.Run;
      U.RefOutput = Ref.R.Output;
      Units.push_back(std::move(U));
    }
  }
  ASSERT_EQ(Units.size(), 20u) << "5 configs x 4 benchmarks";

  // Storm: every unit twice, interleaved across 8 workers.  Completions
  // are serialized by the engine, so plain writes below are safe.
  std::vector<std::string> Problems;
  size_t Completions = 0;
  {
    ServeEngine::Options EO;
    EO.Threads = 8;
    EO.QueueCapacity = 16;
    ServeEngine Engine(EO, [&](ServeEngine::Completion &&Cmp) {
      ++Completions;
      size_t Idx = std::strtoull(Cmp.TheJob.Id.c_str(), nullptr, 10) %
                   Units.size();
      const ServedUnit &U = Units[Idx];
      if (Cmp.Cancelled || !Cmp.Result.Ok)
        Problems.push_back(U.Label + ": job failed: " + Cmp.Result.Error);
      else if (!statsEqual(Cmp.Result.R.Run, U.Ref))
        Problems.push_back(U.Label + ": RunStats differ from the "
                                     "single-thread reference");
      else if (Cmp.Result.R.Output != U.RefOutput)
        Problems.push_back(U.Label + ": output differs from the "
                                     "single-thread reference");
    });
    for (size_t I = 0; I != 2 * Units.size(); ++I) {
      ServeEngine::Job J;
      J.Id = std::to_string(I);
      J.Snapshot = Units[I % Units.size()].Snap;
      J.Input = Units[I % Units.size()].Input;
      J.CollectMetricsDelta = false;
      ASSERT_EQ(Engine.submit(std::move(J)), ServeEngine::Admit::Accepted);
    }
    Engine.shutdown(false);
  }

  EXPECT_EQ(Completions, 2 * Units.size());
  for (const std::string &P : Problems)
    ADD_FAILURE() << P;
}

} // namespace

TEST(ServeStress, BytecodeTierJobsMatchSingleThreadBaseline) {
  runConcurrencyStress(ExecTier::Bytecode);
}

TEST(ServeStress, AstTierJobsMatchSingleThreadBaseline) {
  runConcurrencyStress(ExecTier::Ast);
}

// Per-job MetricsDelta entries, summed over all jobs, must equal the
// process-wide registry totals for those counters — per-job observability
// is exact, not sampled.  resetAll() runs *after* the builds and reference
// run so only the served jobs contribute.  Jobs alternate between a
// bytecode and an AST snapshot: bytecode IC misses read the dispatch
// tables and never reach a Dispatcher, so the `dispatcher.*` sums come
// from the AST jobs alone.
TEST(Serve, MetricsDeltasSumToRegistryTotals) {
  std::string Err;
  std::shared_ptr<Workbench> WB = Workbench::fromFiles({"richards.mica"}, Err);
  ASSERT_TRUE(WB) << Err;
  WB->setTier(ExecTier::Bytecode);
  ASSERT_TRUE(WB->collectProfile(10, Err)) << Err;
  std::shared_ptr<const CompiledSnapshot> BcSnap =
      WB->buildSnapshot(Config::CHA, Err, {}, {}, WB);
  ASSERT_TRUE(BcSnap) << Err;
  ASSERT_EQ(BcSnap->tier(), ExecTier::Bytecode);
  WB->setTier(ExecTier::Ast);
  std::shared_ptr<const CompiledSnapshot> AstSnap =
      WB->buildSnapshot(Config::CHA, Err, {}, {}, WB);
  ASSERT_TRUE(AstSnap) << Err;
  ASSERT_EQ(AstSnap->tier(), ExecTier::Ast);

  metrics::resetAll();

  std::map<std::string, uint64_t> Sums;
  std::map<ExecTier, std::map<std::string, uint64_t>> TierSums;
  size_t JobsOk = 0;
  {
    ServeEngine::Options EO;
    EO.Threads = 4;
    ServeEngine Engine(EO, [&](ServeEngine::Completion &&Cmp) {
      ASSERT_TRUE(Cmp.Result.Ok) << Cmp.Result.Error;
      ++JobsOk;
      EXPECT_FALSE(Cmp.Result.MetricsDelta.empty());
      for (const auto &KV : Cmp.Result.MetricsDelta) {
        Sums[KV.first] += KV.second;
        TierSums[Cmp.Result.R.Tier][KV.first] += KV.second;
      }
    });
    for (int I = 0; I != 12; ++I) {
      ServeEngine::Job J;
      J.Id = std::to_string(I);
      J.Snapshot = I % 2 ? AstSnap : BcSnap;
      J.Input = 10;
      J.CollectMetricsDelta = true;
      ASSERT_EQ(Engine.submit(std::move(J)), ServeEngine::Admit::Accepted);
    }
    Engine.shutdown(false);
  }
  ASSERT_EQ(JobsOk, 12u);

  std::map<std::string, uint64_t> Registry;
  for (const auto &KV : metrics::snapshot())
    Registry[KV.first] = KV.second;

  EXPECT_GT(Sums.at("interp.nodes_evaluated"), 0u);
  std::map<std::string, uint64_t> &Bc = TierSums[ExecTier::Bytecode];
  std::map<std::string, uint64_t> &Ast = TierSums[ExecTier::Ast];
  EXPECT_GT(Bc.at("bytecode.ic_misses"), 0u);
  EXPECT_EQ(Bc.at("dispatcher.lookups"), 0u);
  EXPECT_GT(Ast.at("dispatcher.lookups"), 0u);
  EXPECT_GT(Ast.at("dispatcher.full_lookups"), 0u);
  for (const auto &KV : Sums)
    EXPECT_EQ(KV.second, Registry[KV.first])
        << "per-job deltas for " << KV.first
        << " do not sum to the registry total";
}

TEST(Serve, DeadlineCancelsJobCooperatively) {
  std::string Err;
  std::shared_ptr<Workbench> WB = Workbench::fromFiles({"richards.mica"}, Err);
  ASSERT_TRUE(WB) << Err;
  WB->setTier(ExecTier::Bytecode);
  std::shared_ptr<const CompiledSnapshot> Snap =
      WB->buildSnapshot(Config::Base, Err, {}, {}, WB);
  ASSERT_TRUE(Snap) << Err;

  bool SawDeadlineTrap = false;
  {
    ServeEngine::Options EO;
    EO.Threads = 1;
    ServeEngine Engine(EO, [&](ServeEngine::Completion &&Cmp) {
      EXPECT_FALSE(Cmp.Result.Ok);
      EXPECT_FALSE(Cmp.Cancelled) << "job started; must trap, not drop";
      if (Cmp.Result.Trap.Kind == TrapKind::DeadlineExceeded)
        SawDeadlineTrap = true;
    });
    ServeEngine::Job J;
    J.Id = "slow";
    J.Snapshot = Snap;
    J.Input = 1000000; // minutes of work, uncancelled
    J.DeadlineMs = 20;
    ASSERT_EQ(Engine.submit(std::move(J)), ServeEngine::Admit::Accepted);
    Engine.shutdown(false);
  }
  EXPECT_TRUE(SawDeadlineTrap);
}

// shutdown(CancelQueued=true) after cancelInFlight(): the running job
// traps at its next poll, jobs still in the queue come back Cancelled
// without ever starting.  This is micad's SIGTERM drain path.
TEST(Serve, ShutdownCancelsInFlightAndDropsQueued) {
  std::string Err;
  std::shared_ptr<Workbench> WB = Workbench::fromFiles({"richards.mica"}, Err);
  ASSERT_TRUE(WB) << Err;
  WB->setTier(ExecTier::Bytecode);
  std::shared_ptr<const CompiledSnapshot> Snap =
      WB->buildSnapshot(Config::Base, Err, {}, {}, WB);
  ASSERT_TRUE(Snap) << Err;

  size_t Completions = 0, Dropped = 0, Started = 0;
  {
    ServeEngine::Options EO;
    EO.Threads = 1;
    EO.QueueCapacity = 8;
    ServeEngine Engine(EO, [&](ServeEngine::Completion &&Cmp) {
      ++Completions;
      if (Cmp.Cancelled) {
        ++Dropped;
        return;
      }
      ++Started;
      // Anything that got to run was cancelled cooperatively — nothing
      // this slow finishes before the drain (backstop deadline included).
      EXPECT_FALSE(Cmp.Result.Ok);
      EXPECT_EQ(Cmp.Result.Trap.Kind, TrapKind::DeadlineExceeded);
    });
    for (int I = 0; I != 4; ++I) {
      ServeEngine::Job J;
      J.Id = std::to_string(I);
      J.Snapshot = Snap;
      J.Input = 1000000;
      J.DeadlineMs = 2000; // backstop so a racing dequeue stays bounded
      ASSERT_EQ(Engine.submit(std::move(J)), ServeEngine::Admit::Accepted);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Engine.cancelInFlight();
    Engine.shutdown(/*CancelQueued=*/true);
  }
  EXPECT_EQ(Completions, 4u) << "every submitted job must complete";
  EXPECT_GE(Started, 1u);
  EXPECT_GE(Dropped, 2u) << "most of the queue must drain as Cancelled";
}

// Bounded-wait submit (Options::MaxSubmitWaitMs): with the single worker
// wedged on a slow job and the queue full, a further submit must come
// back Admit::Shed after the bound instead of blocking — and a shed job
// must never produce a completion.
TEST(Serve, BoundedWaitSubmitShedsWhenQueueStaysFull) {
  std::string Err;
  std::shared_ptr<Workbench> WB = Workbench::fromFiles({"richards.mica"}, Err);
  ASSERT_TRUE(WB) << Err;
  WB->setTier(ExecTier::Bytecode);
  std::shared_ptr<const CompiledSnapshot> Snap =
      WB->buildSnapshot(Config::Base, Err, {}, {}, WB);
  ASSERT_TRUE(Snap) << Err;

  size_t Completions = 0;
  std::vector<std::string> CompletedIds;
  {
    ServeEngine::Options EO;
    EO.Threads = 1;
    EO.QueueCapacity = 1;
    EO.MaxSubmitWaitMs = 20;
    ServeEngine Engine(EO, [&](ServeEngine::Completion &&Cmp) {
      ++Completions;
      CompletedIds.push_back(Cmp.TheJob.Id);
    });
    auto SlowJob = [&](const char *Id) {
      ServeEngine::Job J;
      J.Id = Id;
      J.Snapshot = Snap;
      J.Input = 1000000;
      J.DeadlineMs = 2000; // backstop so the test stays bounded
      return J;
    };
    // Occupies the worker...
    ASSERT_EQ(Engine.submit(SlowJob("running")),
              ServeEngine::Admit::Accepted);
    // ...fills the 1-slot queue...
    ASSERT_EQ(Engine.submit(SlowJob("queued")), ServeEngine::Admit::Accepted);
    // ...so this one must shed at the wait bound, not block.
    EXPECT_EQ(Engine.submit(SlowJob("shed")), ServeEngine::Admit::Shed);
    Engine.cancelInFlight();
    Engine.shutdown(/*CancelQueued=*/true);
  }
  EXPECT_EQ(Completions, 2u) << "accepted jobs complete; shed jobs do not";
  for (const std::string &Id : CompletedIds)
    EXPECT_NE(Id, "shed");
}

// Deadline-aware admission (Options::DeadlineAwareAdmission): once the
// EWMA service-time estimate exists, a job whose deadline cannot survive
// the current queue is shed at submit.  Jobs without a deadline are never
// shed by this check, however deep the queue.
TEST(Serve, DeadlineAwareAdmissionShedsDoomedJobs) {
  std::string Err;
  std::shared_ptr<Workbench> WB = Workbench::fromFiles({"richards.mica"}, Err);
  ASSERT_TRUE(WB) << Err;
  WB->setTier(ExecTier::Bytecode);
  std::shared_ptr<const CompiledSnapshot> Snap =
      WB->buildSnapshot(Config::Base, Err, {}, {}, WB);
  ASSERT_TRUE(Snap) << Err;

  std::atomic<size_t> Completions{0};
  {
    ServeEngine::Options EO;
    EO.Threads = 1;
    EO.QueueCapacity = 8;
    EO.DeadlineAwareAdmission = true;
    ServeEngine Engine(EO,
                       [&](ServeEngine::Completion &&) { ++Completions; });
    // Seed the EWMA: one real completion (richards at input 30 runs for
    // well over a millisecond).
    ServeEngine::Job Seed;
    Seed.Id = "seed";
    Seed.Snapshot = Snap;
    Seed.Input = 30;
    ASSERT_EQ(Engine.submit(std::move(Seed)), ServeEngine::Admit::Accepted);
    while (Completions.load() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Give the worker time to publish the EWMA after the completion.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // Wedge the worker and stack the queue with slow work.  The deadline
    // is a wedge backstop only (cancelInFlight ends the test); it must be
    // generous enough that the sanitizer-inflated EWMA estimate can never
    // shed these setup jobs themselves.
    for (int I = 0; I != 3; ++I) {
      ServeEngine::Job J;
      J.Id = "slow-" + std::to_string(I);
      J.Snapshot = Snap;
      J.Input = 1000000;
      J.DeadlineMs = 60000;
      ASSERT_EQ(Engine.submit(std::move(J)), ServeEngine::Admit::Accepted);
    }
    // A 1 ms deadline cannot survive a queue of multi-ms jobs: shed.
    ServeEngine::Job Doomed;
    Doomed.Id = "doomed";
    Doomed.Snapshot = Snap;
    Doomed.Input = 30;
    Doomed.DeadlineMs = 1;
    EXPECT_EQ(Engine.submit(std::move(Doomed)), ServeEngine::Admit::Shed);
    // No deadline means no deadline-aware shed, ever.
    ServeEngine::Job NoDeadline;
    NoDeadline.Id = "no-deadline";
    NoDeadline.Snapshot = Snap;
    NoDeadline.Input = 30;
    EXPECT_EQ(Engine.submit(std::move(NoDeadline)),
              ServeEngine::Admit::Accepted);
    Engine.cancelInFlight();
    Engine.shutdown(/*CancelQueued=*/true);
  }
}

// Graceful drain under backpressure: producers blocked in submit() on a
// full queue must be released by shutdown — each blocked submit returns
// Closed (not a hang, not a lost job), every accepted job completes, and
// a post-shutdown submit is refused with Closed.  This is micad's
// SIGTERM-while-producers-are-backpressured path at the engine level.
TEST(Serve, ShutdownReleasesBackpressuredProducers) {
  std::string Err;
  std::shared_ptr<Workbench> WB = Workbench::fromFiles({"richards.mica"}, Err);
  ASSERT_TRUE(WB) << Err;
  WB->setTier(ExecTier::Bytecode);
  std::shared_ptr<const CompiledSnapshot> Snap =
      WB->buildSnapshot(Config::Base, Err, {}, {}, WB);
  ASSERT_TRUE(Snap) << Err;

  std::atomic<size_t> Completions{0};
  std::atomic<size_t> Accepted{0}, RefusedClosed{0}, Other{0};
  {
    ServeEngine::Options EO;
    EO.Threads = 1;
    EO.QueueCapacity = 2;
    ServeEngine Engine(EO,
                       [&](ServeEngine::Completion &&) { ++Completions; });

    std::vector<std::thread> Producers;
    for (int P = 0; P != 2; ++P)
      Producers.emplace_back([&, P] {
        for (int I = 0; I != 4; ++I) {
          ServeEngine::Job J;
          J.Id = std::to_string(P) + "-" + std::to_string(I);
          J.Snapshot = Snap;
          J.Input = 1000000;
          J.DeadlineMs = 2000;
          switch (Engine.submit(std::move(J))) {
          case ServeEngine::Admit::Accepted:
            ++Accepted;
            break;
          case ServeEngine::Admit::Closed:
            ++RefusedClosed;
            break;
          default:
            ++Other;
            break;
          }
        }
      });

    // Let the producers fill the queue and block, then drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Engine.cancelInFlight();
    Engine.shutdown(/*CancelQueued=*/true);
    for (std::thread &T : Producers)
      T.join();

    ServeEngine::Job Late;
    Late.Id = "late";
    Late.Snapshot = Snap;
    Late.Input = 10;
    EXPECT_EQ(Engine.submit(std::move(Late)), ServeEngine::Admit::Closed);
  }
  EXPECT_EQ(Other.load(), 0u);
  EXPECT_EQ(Accepted.load() + RefusedClosed.load(), 8u)
      << "every producer submit got a definite verdict";
  EXPECT_GE(RefusedClosed.load(), 1u)
      << "at least one blocked producer was released by the drain";
  EXPECT_EQ(Completions.load(), Accepted.load())
      << "every accepted job completed (ran, trapped, or was dropped "
         "Cancelled) — none lost, none duplicated";
}

TEST(SnapshotCacheTest, BuildsOnceAcrossThreads) {
  std::string Err;
  std::shared_ptr<Workbench> WB = Workbench::fromFiles({"richards.mica"}, Err);
  ASSERT_TRUE(WB) << Err;
  WB->setTier(ExecTier::Bytecode);

  SnapshotCache Cache;
  const std::string Key = SnapshotCache::makeKey(
      {"richards.mica"}, Config::CHA, ExecTier::Bytecode, "none");

  std::atomic<int> Builds{0};
  SnapshotCache::Builder Build =
      [&](std::string &BErr) -> std::shared_ptr<const CompiledSnapshot> {
    ++Builds;
    // Widen the race window so every thread is in getOrBuild before the
    // one build finishes.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return WB->buildSnapshot(Config::CHA, BErr, {}, {}, WB);
  };

  std::vector<std::shared_ptr<const CompiledSnapshot>> Got(8);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != Got.size(); ++I)
    Threads.emplace_back([&, I] {
      std::string TErr;
      Got[I] = Cache.getOrBuild(Key, Build, TErr);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Builds.load(), 1) << "one build per key, however many waiters";
  ASSERT_TRUE(Got[0]);
  for (const auto &Snap : Got)
    EXPECT_EQ(Snap.get(), Got[0].get()) << "all callers share one snapshot";
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(SnapshotCacheTest, FailedBuildsAreNotCached) {
  std::string Err;
  std::shared_ptr<Workbench> WB = Workbench::fromFiles({"richards.mica"}, Err);
  ASSERT_TRUE(WB) << Err;

  SnapshotCache Cache;
  const std::string Key = SnapshotCache::makeKey(
      {"richards.mica"}, Config::Base, ExecTier::Bytecode, "none");

  std::string GErr;
  std::shared_ptr<const CompiledSnapshot> Snap = Cache.getOrBuild(
      Key,
      [](std::string &BErr) -> std::shared_ptr<const CompiledSnapshot> {
        BErr = "synthetic build failure";
        return nullptr;
      },
      GErr);
  EXPECT_FALSE(Snap);
  EXPECT_NE(GErr.find("synthetic build failure"), std::string::npos);
  EXPECT_EQ(Cache.size(), 0u) << "failures must not be cached";

  // The same key retries and succeeds.
  GErr.clear();
  Snap = Cache.getOrBuild(
      Key,
      [&](std::string &BErr) -> std::shared_ptr<const CompiledSnapshot> {
        return WB->buildSnapshot(Config::Base, BErr, {}, {}, WB);
      },
      GErr);
  ASSERT_TRUE(Snap) << GErr;
  EXPECT_EQ(Cache.size(), 1u);
}
