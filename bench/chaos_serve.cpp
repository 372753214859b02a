//===- bench/chaos_serve.cpp - Overload-resilience SLO harness ------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The overload-resilience SLO harness (DESIGN.md section 12): the four
/// Table 2 benchmarks, prebuilt as Selective snapshots, served as a
/// deliberately overloaded job storm against a small admission-controlled
/// pool, with poison jobs (tiny modeled-byte budgets sharing one source
/// key, so the crash quarantine engages), a mid-storm armed-failpoint
/// window (SELSPEC_FAILPOINTS, validated up front, default
/// interp.frame-acquire=fail), and a low-rate cooldown that must walk the
/// brown-out ladder back to normal.  It asserts the serving SLO
/// invariants — the server survives, every job gets exactly one definite
/// outcome (ok/trap/shed/quarantined), completion p99 stays under a
/// calibrated bound, the ladder both engages and recovers, and shedding,
/// quarantine and the failpoints all fire — exits 0 only if every one
/// holds, and writes chaos_summary.json for CI.
///
/// Measured serving speed is not this harness's job: that is perfbench's
/// `serve` workload.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/Overload.h"
#include "driver/Quarantine.h"
#include "driver/Serve.h"
#include "driver/Snapshot.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <vector>

#include <unistd.h>

using namespace selspec;
using namespace selspec::bench;

namespace {

/// Pool width of the served storm.
constexpr unsigned Threads = 8;
/// A served job is one request, not a full benchmark run: train on
/// TrainInput, serve TrainInput / InputDiv.
constexpr int64_t InputDiv = 20;

double p99Ms(std::vector<uint64_t> LatenciesNs) {
  if (LatenciesNs.empty())
    return 0;
  std::sort(LatenciesNs.begin(), LatenciesNs.end());
  size_t I = static_cast<size_t>(0.99 * (LatenciesNs.size() - 1) + 0.5);
  return LatenciesNs[I] / 1e6;
}

/// One prebuilt (program, config) unit of the job mix.
struct ServedProgram {
  const BenchProgram *Program;
  std::shared_ptr<const CompiledSnapshot> Snapshot;
  int64_t ServeInput = 1;
};

/// Builds the four snapshots (Selective config, profile on the train
/// input, bytecode tier).
std::vector<ServedProgram> buildSnapshots() {
  std::vector<ServedProgram> Out;
  for (const BenchProgram &BP : table2Suite()) {
    std::string Err;
    std::shared_ptr<Workbench> WB = Workbench::fromFiles(BP.Files, Err);
    if (!WB) {
      std::cerr << "chaos_serve: " << BP.Name << ": " << Err << '\n';
      std::exit(1);
    }
    WB->setTier(ExecTier::Bytecode);
    if (!WB->collectProfile(BP.TrainInput, Err)) {
      std::cerr << "chaos_serve: " << BP.Name << ": profile: " << Err << '\n';
      std::exit(1);
    }
    std::shared_ptr<const CompiledSnapshot> Snap =
        WB->buildSnapshot(Config::Selective, Err, {}, {}, WB);
    if (!Snap) {
      std::cerr << "chaos_serve: " << BP.Name << ": " << Err << '\n';
      std::exit(1);
    }
    int64_t ServeInput = std::max<int64_t>(BP.TrainInput / InputDiv, 1);
    Out.push_back(ServedProgram{&BP, std::move(Snap), ServeInput});
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Phases: clean snapshot builds -> an overloaded storm (admission control
// + poison jobs + a mid-storm armed-failpoint window) -> a low-rate
// cooldown the brown-out ladder must recover through.  Every stream job
// ends in exactly one of: ok, trap, shed (refused at admission),
// quarantined (rerouted out of the shared pool).  The process surviving
// to the summary IS the zero-crash assertion.
//===----------------------------------------------------------------------===//

int main() {
  printHeader("chaos_serve — overload-resilience SLO harness",
              "2x-overload storm + poison jobs + armed failpoints");

  // Validate the failpoint spec up front (unknown sites are a usage
  // error, exit 2 like micac/micad) but arm it only inside the storm
  // window: env-armed pipeline.* points would break the clean builds.
  const char *Env = std::getenv("SELSPEC_FAILPOINTS");
  std::string FpSpec =
      Env && *Env ? Env : std::string("interp.frame-acquire=fail");
  {
    std::string E;
    if (!failpoint::configure(FpSpec, E)) {
      std::cerr << "chaos_serve: SELSPEC_FAILPOINTS: " << E << '\n';
      return 2;
    }
    failpoint::disarmAll();
  }

  // Bench-sized ladder: quick to engage, and a short cooldown can walk
  // all the way back down.
  {
    overload::Policy OP;
    OP.EngageTicks = 4;
    OP.RecoverTicks = 8;
    overload::setPolicy(OP);
    overload::reset();
  }

  std::vector<ServedProgram> Programs = buildSnapshots();

  const uint64_t StormJobs = 240;
  const uint64_t CooldownJobs = 48;
  const int64_t DeadlineMs = 500;
  const uint64_t PoisonEvery = 6;
  // An "interactive" tenant with a deadline far below the pool's run
  // time: deadline-aware admission must shed these on arrival once the
  // run-time EWMA is published, not let them burn a queue slot and time
  // out.  Offset so it never collides with the poison cadence.
  const int64_t TightDeadlineMs = 2;
  auto IsTight = [&](uint64_t I) { return I % PoisonEvery == 1; };
  // The armed-failpoint window: the middle sixth of the storm.
  const uint64_t WindowBegin = StormJobs / 3;
  const uint64_t WindowEnd = WindowBegin + StormJobs / 6;

  ServeEngine::Options EO;
  EO.Threads = Threads;
  // A small queue against an unthrottled producer is the overload: the
  // storm arrives far faster than the pool drains it.
  EO.QueueCapacity = static_cast<size_t>(Threads) * 2;
  EO.DeadlineAwareAdmission = true;
  EO.MaxSubmitWaitMs = 10;

  CrashQuarantine Quar;
  std::mutex ResultM;
  std::vector<uint64_t> Latencies;
  uint64_t Ok = 0, Trap = 0, Cancelled = 0;
  uint64_t Shed = 0, Quarantined = 0, QuarOk = 0, QuarTrap = 0;
  uint64_t SubmitCalls = 0;
  uint64_t FpHits = 0;
  overload::Level MaxLevel = overload::Level::Normal;

  // Poison jobs share one source key, so their MemoryBudgetExceeded
  // fingerprints repeat and the quarantine threshold (2) trips.
  auto IsPoison = [&](uint64_t I) { return I % PoisonEvery == 3; };
  auto KeyFor = [&](uint64_t I, bool Cooldown) -> std::string {
    if (!Cooldown && IsPoison(I))
      return "poison";
    std::string K = Programs[I % Programs.size()].Program->Name;
    return Cooldown ? K + ":cooldown" : K;
  };

  {
    ServeEngine Engine(EO, [&](ServeEngine::Completion &&Cmp) {
      std::lock_guard<std::mutex> Lock(ResultM);
      if (Cmp.Cancelled) {
        ++Cancelled;
        return;
      }
      Latencies.push_back(Cmp.QueueNanos + Cmp.RunNanos);
      if (Cmp.Result.Ok) {
        ++Ok;
      } else {
        ++Trap;
        // The job id is "<source-key>|<seq>".
        std::string Key = Cmp.TheJob.Id.substr(0, Cmp.TheJob.Id.find('|'));
        if (Quar.recordTrap(Key, Cmp.Result.Trap.Kind))
          std::cerr << "chaos_serve: quarantined '" << Key << "' ("
                    << trapKindName(Cmp.Result.Trap.Kind) << ")\n";
      }
    });

    // Runs a quarantined job inline, outside the shared pool — degraded
    // latency for the offender, zero exposure for everyone else.  A job
    // that completes OK releases its source back to the pool.
    auto RunQuarantined = [&](const ServedProgram &SP, const std::string &Key,
                              bool Poison) {
      CompiledSnapshot::JobOptions JO;
      JO.CaptureOutput = false;
      if (Poison)
        JO.Limits.MaxBytes = 4096;
      CancelToken Tok;
      Tok.setDeadline(Deadline::afterMillis(DeadlineMs));
      JO.Cancel = &Tok;
      CompiledSnapshot::JobResult JR = SP.Snapshot->run(SP.ServeInput, JO);
      ++Quarantined;
      if (JR.Ok) {
        ++QuarOk;
        Quar.release(Key);
      } else {
        ++QuarTrap;
      }
    };

    auto SubmitOne = [&](uint64_t I, bool Cooldown) {
      const ServedProgram &SP = Programs[I % Programs.size()];
      bool Poison = !Cooldown && IsPoison(I);
      std::string Key = KeyFor(I, Cooldown);
      if (Quar.isQuarantined(Key)) {
        RunQuarantined(SP, Key, Poison);
        return;
      }
      ServeEngine::Job J;
      J.Id = Key + "|" + std::to_string(I);
      J.Snapshot = SP.Snapshot;
      J.Input = SP.ServeInput;
      J.DeadlineMs =
          Cooldown ? 5000 : (IsTight(I) ? TightDeadlineMs : DeadlineMs);
      J.CaptureOutput = false;
      J.CollectMetricsDelta = false;
      if (Poison)
        J.Limits.MaxBytes = 4096; // traps MemoryBudgetExceeded immediately
      ++SubmitCalls;
      if (Engine.submit(std::move(J)) == ServeEngine::Admit::Shed)
        ++Shed;
      MaxLevel = std::max(MaxLevel, overload::level());
    };

    bool Armed = false;
    for (uint64_t I = 0; I != StormJobs; ++I) {
      bool InWindow = I >= WindowBegin && I < WindowEnd;
      if (InWindow != Armed) {
        if (InWindow) {
          std::string E;
          failpoint::configure(FpSpec, E); // validated above
        } else {
          // disarmAll clears the hit counter, so bank the window's hits
          // first.
          FpHits += failpoint::totalHits();
          failpoint::disarmAll();
        }
        Armed = InWindow;
      }
      SubmitOne(I, /*Cooldown=*/false);
    }
    FpHits += failpoint::totalHits();
    failpoint::disarmAll();

    // Cooldown: one job at a time against an empty queue — every
    // observation is clear, so the ladder must walk back to normal.
    for (uint64_t I = 0; I != CooldownJobs; ++I) {
      SubmitOne(I, /*Cooldown=*/true);
      while (Engine.queued() + Engine.inFlight() > 0)
        usleep(200);
    }
    Engine.shutdown(false);
  }

  overload::Level FinalLevel = overload::level();
  double P99Ms = p99Ms(std::move(Latencies));
  // Bounded p99 for accepted jobs: a run is deadline-bounded, and the
  // queue ahead of a job holds at most Capacity more deadline-bounded
  // runs spread over the pool; everything past that bound is a wedge.
  double BoundMs =
      static_cast<double>(DeadlineMs) *
          (static_cast<double>(EO.QueueCapacity) / Threads + 2.0) +
      1000.0;

  uint64_t Total = StormJobs + CooldownJobs;
  bool Accounted = Ok + Trap + Shed == SubmitCalls && Cancelled == 0 &&
                   SubmitCalls + Quarantined == Total;
  bool P99Ok = P99Ms <= BoundMs;
  bool LadderEngaged = MaxLevel > overload::Level::Normal;
  bool LadderRecovered = FinalLevel == overload::Level::Normal;
  bool QuarantineEngaged = Quarantined > 0;
  bool QuarantineResolved = QuarOk + QuarTrap == Quarantined;
  bool ShedEngaged = Shed > 0;
  bool FailpointsHit = FpHits > 0;
  bool SloOk = Accounted && P99Ok && LadderEngaged && LadderRecovered &&
               QuarantineEngaged && QuarantineResolved && ShedEngaged &&
               FailpointsHit;

  auto YesNo = [](bool B) { return B ? "yes" : "NO"; };
  std::printf("  storm %llu + cooldown %llu jobs: ok %llu  trap %llu  "
              "shed %llu  quarantined %llu (ok %llu, trap %llu)  "
              "cancelled %llu\n",
              static_cast<unsigned long long>(StormJobs),
              static_cast<unsigned long long>(CooldownJobs),
              static_cast<unsigned long long>(Ok),
              static_cast<unsigned long long>(Trap),
              static_cast<unsigned long long>(Shed),
              static_cast<unsigned long long>(Quarantined),
              static_cast<unsigned long long>(QuarOk),
              static_cast<unsigned long long>(QuarTrap),
              static_cast<unsigned long long>(Cancelled));
  std::printf("  p99 %.1f ms (bound %.1f ms)  failpoint hits %llu  "
              "brown-out max %s, final %s\n",
              P99Ms, BoundMs, static_cast<unsigned long long>(FpHits),
              overload::levelName(MaxLevel), overload::levelName(FinalLevel));
  std::printf("  SLO: accounted %s  p99-bounded %s  ladder-engaged %s  "
              "ladder-recovered %s  quarantine-engaged %s\n"
              "       quarantine-resolved %s  shed-engaged %s  "
              "failpoints-hit %s  -> %s\n",
              YesNo(Accounted), YesNo(P99Ok), YesNo(LadderEngaged),
              YesNo(LadderRecovered), YesNo(QuarantineEngaged),
              YesNo(QuarantineResolved), YesNo(ShedEngaged),
              YesNo(FailpointsHit), SloOk ? "PASS" : "FAIL");

  std::ofstream OS("chaos_summary.json");
  if (!OS) {
    std::cerr << "chaos_serve: cannot write chaos_summary.json\n";
  } else {
    OS << "{\n  \"bench\": \"chaos_serve\",\n  \"git\": \""
       << gitDescribe() << "\",\n  \"threads\": " << Threads
       << ",\n  \"total_jobs\": " << Total
       << ",\n  \"submitted\": " << SubmitCalls << ",\n  \"ok\": " << Ok
       << ",\n  \"trap\": " << Trap << ",\n  \"shed\": " << Shed
       << ",\n  \"quarantined\": " << Quarantined
       << ",\n  \"quarantined_ok\": " << QuarOk
       << ",\n  \"quarantined_trap\": " << QuarTrap
       << ",\n  \"cancelled\": " << Cancelled
       << ",\n  \"p99_ms\": " << P99Ms
       << ",\n  \"p99_bound_ms\": " << BoundMs
       << ",\n  \"failpoint_hits\": " << FpHits
       << ",\n  \"max_brownout_level\": "
       << static_cast<unsigned>(MaxLevel)
       << ",\n  \"final_brownout_level\": "
       << static_cast<unsigned>(FinalLevel)
       << ",\n  \"server_crashes\": 0,\n  \"slo_ok\": "
       << (SloOk ? "true" : "false")
       << ",\n  \"counters\": " << metrics::toJsonCompact() << "\n}\n";
  }
  return SloOk ? 0 : 1;
}
