//===- driver/Adaptive.cpp - Online adaptive respecialization -------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "driver/Adaptive.h"

#include "driver/Overload.h"
#include "profile/ProfileDb.h"
#include "support/Diagnostics.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"

#include <chrono>
#include <cmath>

using namespace selspec;

namespace {

metrics::Counter CtrGenerations("adaptive.generations_built");
metrics::Counter CtrPromotions("adaptive.promotions");
metrics::Counter CtrRollbacks("adaptive.rollbacks");
metrics::Counter CtrBuildFailures("adaptive.build_failures");
metrics::Counter CtrCanaryJobs("adaptive.canary_jobs");
metrics::Counter CtrCanaryTraps("adaptive.canary_traps");
metrics::Counter CtrArcsMerged("adaptive.arcs_merged");
metrics::Counter CtrProfileSaves("adaptive.profile_saves");
metrics::Counter CtrProfileSaveFailures("adaptive.profile_save_failures");
metrics::Counter CtrSkippedBad("adaptive.skipped_bad_profile");
metrics::Counter CtrSkippedUnchanged("adaptive.skipped_unchanged");
metrics::Counter CtrSkippedOverload("adaptive.skipped_overload");
metrics::Counter CtrSwapLatency("adaptive.swap_latency_ns");

/// Canonical hash of a profile generation: fnv1a-64 over arcs() in its
/// deterministic (site, callee) order.  Two CallGraphs with the same arcs
/// hash equal regardless of merge order, which is what lets a rolled-back
/// generation be pinned until genuinely new arcs arrive.
uint64_t profileHash(const CallGraph &G) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (I * 8)) & 0xff;
      H *= 1099511628211ull;
    }
  };
  for (const Arc &A : G.arcs()) {
    Mix(A.Site.value());
    Mix(A.Caller.value());
    Mix(A.Callee.value());
    Mix(A.Weight);
  }
  return H;
}

uint64_t strideFor(double CanaryFraction) {
  if (!(CanaryFraction > 0.0))
    return 4;
  if (CanaryFraction > 1.0)
    CanaryFraction = 1.0;
  double S = std::llround(1.0 / CanaryFraction);
  return S < 1 ? 1 : static_cast<uint64_t>(S);
}

} // namespace

AdaptiveController::AdaptiveController(
    std::shared_ptr<const CompiledSnapshot> Incumbent0,
    SnapshotBuilder Builder0, const Options &O)
    : Opts(O), Builder(std::move(Builder0)),
      CanaryStride(strideFor(O.CanaryFraction)),
      Incumbent(std::move(Incumbent0)) {
  Respecializer = std::thread([this] { respecLoop(); });
}

AdaptiveController::~AdaptiveController() { stop(); }

void AdaptiveController::stop() {
  {
    std::lock_guard<std::mutex> Lock(StateM);
    if (Stopping)
      return;
    Stopping = true;
  }
  BgCV.notify_all();
  DecisionCV.notify_all();
  if (Respecializer.joinable())
    Respecializer.join();
}

AdaptiveController::Ticket AdaptiveController::admit() {
  // Destroyed after the lock releases: a verdict rendered inside this
  // call may retire a snapshot, and its destructor (a whole compiled
  // program) must not run under StateM — that would be the swap pause
  // the RCU design exists to avoid.
  std::shared_ptr<const CompiledSnapshot> Drop;
  std::lock_guard<std::mutex> Lock(StateM);
  Ticket T;
  ++Seq;
  // Brown-out rung 1 (driver/Overload.h): under pressure, live-arc
  // profiling is pure overhead — stop sampling until the ladder recovers.
  T.SampleArcs = Opts.SampleEvery != 0 && (Seq % Opts.SampleEvery) == 0 &&
                 overload::allowArcCollection();
  if (Candidate && CanaryIssued < Opts.CanaryJobs &&
      (Seq % CanaryStride) == 0) {
    ++CanaryIssued;
    if (failpoint::triggered("adaptive.canary")) {
      // The injected fault models "routing to the candidate failed": the
      // probe is charged against the candidate's health and the real job
      // serves from the incumbent, so an armed canary failpoint can only
      // ever demote the candidate, never lose a job.
      recordCanaryLocked(/*Ok=*/false, /*Cycles=*/0);
      T.Snap = Incumbent;
    } else {
      T.Snap = Candidate;
      T.Canary = true;
    }
  } else {
    T.Snap = Incumbent;
  }
  // After any verdict recordCanaryLocked may just have rendered, so the
  // ticket is consistent with the snapshot it actually carries.
  T.Epoch = TheEpoch;
  Drop = std::move(Retired);
  return T;
}

void AdaptiveController::report(const Ticket &T, bool Ok, uint64_t Cycles,
                                const CallGraph *Arcs) {
  bool WantBuild = false;
  if (Arcs && !Arcs->empty()) {
    std::lock_guard<std::mutex> Lock(ProfileM);
    LiveProfile.merge(*Arcs);
    NewArcWeight += Arcs->totalWeight();
    CtrArcsMerged.add(Arcs->numArcs());
    WantBuild =
        Opts.ArcWeightThreshold != 0 && NewArcWeight >= Opts.ArcWeightThreshold;
  }
  if (WantBuild)
    requestRespecialize(/*Force=*/false);

  // Declared before the lock so a snapshot retired by a verdict rendered
  // here is destroyed after StateM releases (see admit()).
  std::shared_ptr<const CompiledSnapshot> Drop;
  std::lock_guard<std::mutex> Lock(StateM);
  if (T.Canary) {
    // A canary completion only counts while its candidate is still the
    // candidate; a straggler finishing after the verdict (epoch moved on)
    // must not poison the next candidate's sample.
    if (Candidate && T.Epoch == TheEpoch)
      recordCanaryLocked(Ok, Cycles);
  } else {
    ++LifeJobs;
    ++WindowJobs;
    if (Ok) {
      ++LifeOk;
      ++WindowOk;
      LifeOkCycles += Cycles;
      WindowOkCycles += Cycles;
    } else {
      ++LifeTraps;
      ++WindowTraps;
    }
  }
  Drop = std::move(Retired);
}

void AdaptiveController::recordCanaryLocked(bool Ok, uint64_t Cycles) {
  ++CanaryDone;
  CtrCanaryJobs.add();
  if (Ok) {
    ++CanaryOk;
    CanaryOkCycles += Cycles;
  } else {
    ++CanaryTraps;
    CtrCanaryTraps.add();
  }
  if (CanaryDone >= Opts.CanaryJobs)
    verdictLocked();
}

void AdaptiveController::verdictLocked() {
  std::shared_ptr<const CompiledSnapshot> Cand = std::move(Candidate);
  Candidate.reset();
  uint64_t Hash = CandidateHash;

  // Trap regression: the candidate trapped more often than the incumbent
  // did over the same serving window (lifetime as fallback when the window
  // is empty).  An incumbent that also traps on the workload sets the bar:
  // the candidate only fails this check by being *worse*.
  double CanTrapRate =
      CanaryDone ? double(CanaryTraps) / double(CanaryDone) : 0.0;
  double BaseTrapRate =
      WindowJobs ? double(WindowTraps) / double(WindowJobs)
                 : (LifeJobs ? double(LifeTraps) / double(LifeJobs) : 0.0);
  bool TrapRegress = CanaryTraps > 0 && CanTrapRate > BaseTrapRate;

  // Cost regression: mean modeled cycles per *successful* job, candidate
  // vs incumbent, compared only when both sides have enough sample.
  bool CostRegress = false;
  uint64_t BaseOk = WindowOk ? WindowOk : LifeOk;
  uint64_t BaseOkCycles = WindowOk ? WindowOkCycles : LifeOkCycles;
  if (CanaryOk > 0 && BaseOk >= Opts.MinIncumbentJobs) {
    double CanMean = double(CanaryOkCycles) / double(CanaryOk);
    double BaseMean = double(BaseOkCycles) / double(BaseOk);
    CostRegress = CanMean > BaseMean * Opts.CostRegressionFactor;
  }

  bool Promote = !TrapRegress && !CostRegress;
  if (Promote && failpoint::triggered("adaptive.promote"))
    Promote = false; // Injected swap failure: demote instead.

  if (Promote) {
    auto T0 = std::chrono::steady_clock::now();
    // Pure pointer exchange: the outgoing incumbent parks in Retired and
    // is destroyed by the next admit()/report() after StateM releases.
    Retired = std::move(Incumbent);
    Incumbent = std::move(Cand);
    ++TheEpoch;
    // The whole "pause" an RCU promotion imposes on serving: one pointer
    // assignment under StateM, summed into adaptive.swap_latency_ns.
    uint64_t SwapNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
    CtrSwapLatency.add(SwapNs);
    ++NumPromoted;
    CtrPromotions.add();
    LastBuiltHash = Hash;
    // The promoted profile is the new baseline; its serving window starts
    // fresh.
    WindowJobs = WindowTraps = WindowOk = WindowOkCycles = 0;
  } else {
    Retired = std::move(Cand);
    rollbackLocked(Hash, TrapRegress ? "trap regression"
                   : CostRegress    ? "cost regression"
                                    : "injected promote failure");
  }
  ++NumDecisions;
  DecisionCV.notify_all();
  // A deferred (forced) request that arrived mid-canary can run now.
  BgCV.notify_all();
}

void AdaptiveController::rollbackLocked(uint64_t ProfileHash,
                                        const char * /*Why*/) {
  // Pin the incumbent: drop the candidate (callers already did), bump the
  // epoch so stragglers and retries know a transition happened, and
  // remember this profile generation as bad so the respecializer will not
  // rebuild it verbatim — only genuinely new arcs (a different hash)
  // unpin respecialization.
  BadProfiles.insert(ProfileHash);
  ++TheEpoch;
  ++NumRolledBack;
  CtrRollbacks.add();
}

bool AdaptiveController::respecializeNow(std::string &ErrorOut, bool Force) {
  // Brown-out rung 2: a background build burns a core and doubles
  // resident compiled state — exactly what an overloaded server cannot
  // afford.  Pressure wins even over a forced (SIGHUP) request; the
  // request is counted as a decision so waiters don't wedge.
  if (!overload::allowRespecialization()) {
    CtrSkippedOverload.add();
    std::lock_guard<std::mutex> Lock(StateM);
    ++NumDecisions;
    DecisionCV.notify_all();
    ErrorOut = "respecialization skipped: overload brown-out (level " +
               std::string(overload::levelName(overload::level())) + ")";
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(StateM);
    if (Candidate) {
      ErrorOut = "respecialization skipped: canary in progress";
      return false;
    }
    if (BuildInProgress) {
      ErrorOut = "respecialization skipped: build in progress";
      return false;
    }
    BuildInProgress = true;
  }
  bool Ok = doBuild(ErrorOut, Force);
  {
    std::lock_guard<std::mutex> Lock(StateM);
    BuildInProgress = false;
  }
  return Ok;
}

bool AdaptiveController::doBuild(std::string &ErrorOut, bool Force) {
  CallGraph Prof;
  {
    std::lock_guard<std::mutex> Lock(ProfileM);
    Prof = LiveProfile;
    NewArcWeight = 0;
  }
  uint64_t Hash = profileHash(Prof);

  {
    std::lock_guard<std::mutex> Lock(StateM);
    if (BadProfiles.count(Hash)) {
      CtrSkippedBad.add();
      ++NumDecisions;
      DecisionCV.notify_all();
      ErrorOut = "respecialization skipped: profile generation previously "
                 "rolled back";
      return false;
    }
    if (!Force && Hash == LastBuiltHash && NumBuilt > 0) {
      CtrSkippedUnchanged.add();
      ++NumDecisions;
      DecisionCV.notify_all();
      ErrorOut = "respecialization skipped: profile unchanged";
      return false;
    }
  }

  auto BuildFailed = [&](const std::string &Why) {
    std::lock_guard<std::mutex> Lock(StateM);
    ++NumBuildFailures;
    CtrBuildFailures.add();
    // A failed build is a rollback in miniature: the incumbent stays
    // pinned and this profile generation is not retried verbatim.
    rollbackLocked(Hash, "build failure");
    ++NumDecisions;
    DecisionCV.notify_all();
    ErrorOut = Why;
    return false;
  };

  if (failpoint::triggered("adaptive.build"))
    return BuildFailed(failpoint::failureMessage("adaptive.build"));

  std::string BuildErr;
  std::shared_ptr<const CompiledSnapshot> Snap = Builder(Prof, BuildErr);
  if (!Snap)
    return BuildFailed(BuildErr.empty() ? "respecialization build failed"
                                        : BuildErr);
  CtrGenerations.add();

  // Persist the merged profile through the checksummed generation chain
  // *before* the candidate serves: a generation we cannot persist is a
  // generation we cannot reproduce after a crash, so it is not trusted.
  if (!Opts.ProfileDbPath.empty()) {
    auto SaveFailed = [&](const std::string &Why) {
      CtrProfileSaveFailures.add();
      return BuildFailed("profile save failed: " + Why);
    };
    if (failpoint::triggered("adaptive.profile-save"))
      return SaveFailed(failpoint::failureMessage("adaptive.profile-save"));
    ProfileDb Db;
    Diagnostics Diags;
    // Extend the chain: load the current generation (absence is fine for
    // the first save), merge, save as generation N+1.
    Db.loadFromFile(Opts.ProfileDbPath, Diags);
    Db.forProgram(Opts.ProgramKey).merge(Prof);
    Diagnostics SaveDiags;
    if (!Db.saveToFile(Opts.ProfileDbPath, SaveDiags))
      return SaveFailed(SaveDiags.all().empty() ? "ProfileDb::saveToFile failed"
                                                : SaveDiags.toString());
    CtrProfileSaves.add();
  }

  {
    std::lock_guard<std::mutex> Lock(StateM);
    ++NumBuilt;
    Candidate = std::move(Snap);
    CandidateHash = Hash;
    LastBuiltHash = Hash;
    CanaryIssued = CanaryDone = CanaryTraps = CanaryOk = CanaryOkCycles = 0;
    // Fresh serving window so the cost baseline is contemporaneous with
    // the canary sample.
    WindowJobs = WindowTraps = WindowOk = WindowOkCycles = 0;
    ++TheEpoch;
  }
  return true;
}

void AdaptiveController::requestRespecialize(bool Force) {
  {
    std::lock_guard<std::mutex> Lock(StateM);
    BuildRequested = true;
    if (Force)
      ForceRequested = true;
  }
  BgCV.notify_all();
}

void AdaptiveController::respecLoop() {
  std::unique_lock<std::mutex> Lock(StateM);
  while (!Stopping) {
    // A pending canary defers builds: the request stays latched, arcs
    // keep accumulating, and the verdict's BgCV notify re-arms us once
    // the slot frees up.  The defer condition must live INSIDE the wait
    // predicate — a predicate that is true on entry returns without ever
    // releasing the mutex, which would spin here holding StateM and
    // wedge every admit()/report()/stop() in the process.
    auto Ready = [&] {
      return Stopping || (BuildRequested && !Candidate && !BuildInProgress);
    };
    if (Opts.RespecializeIntervalMs > 0)
      BgCV.wait_for(Lock,
                    std::chrono::milliseconds(Opts.RespecializeIntervalMs),
                    Ready);
    else
      BgCV.wait(Lock, Ready);
    if (Stopping)
      return;
    // Interval tick while a canary is still pending: keep waiting.
    if (Candidate || BuildInProgress)
      continue;
    bool Force = ForceRequested;
    BuildRequested = ForceRequested = false;
    Lock.unlock();
    std::string Err;
    respecializeNow(Err, Force);
    Lock.lock();
  }
}

void AdaptiveController::seedProfile(const CallGraph &G) {
  std::lock_guard<std::mutex> Lock(ProfileM);
  LiveProfile.merge(G);
}

std::shared_ptr<const CompiledSnapshot> AdaptiveController::incumbent() const {
  std::lock_guard<std::mutex> Lock(StateM);
  return Incumbent;
}

AdaptiveController::Phase AdaptiveController::phase() const {
  std::lock_guard<std::mutex> Lock(StateM);
  if (Candidate)
    return Phase::Canary;
  if (BuildInProgress)
    return Phase::Building;
  return Phase::Stable;
}

uint64_t AdaptiveController::generationsBuilt() const {
  std::lock_guard<std::mutex> Lock(StateM);
  return NumBuilt;
}

uint64_t AdaptiveController::promotions() const {
  std::lock_guard<std::mutex> Lock(StateM);
  return NumPromoted;
}

uint64_t AdaptiveController::rollbacks() const {
  std::lock_guard<std::mutex> Lock(StateM);
  return NumRolledBack;
}

uint64_t AdaptiveController::buildFailures() const {
  std::lock_guard<std::mutex> Lock(StateM);
  return NumBuildFailures;
}

uint64_t AdaptiveController::decisions() const {
  std::lock_guard<std::mutex> Lock(StateM);
  return NumDecisions;
}

uint64_t AdaptiveController::epoch() const {
  std::lock_guard<std::mutex> Lock(StateM);
  return TheEpoch;
}

size_t AdaptiveController::liveProfileArcs() const {
  std::lock_guard<std::mutex> Lock(ProfileM);
  return LiveProfile.numArcs();
}

bool AdaptiveController::waitForDecision(uint64_t PrevDecisions,
                                         int64_t TimeoutMs) {
  std::unique_lock<std::mutex> Lock(StateM);
  return DecisionCV.wait_for(
      Lock, std::chrono::milliseconds(TimeoutMs),
      [&] { return Stopping || NumDecisions > PrevDecisions; });
}
