//===- driver/Adaptive.h - Online adaptive respecialization ----*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closes the paper's offline profile -> specialize -> recompile loop into
/// an online one: an AdaptiveController owns the *incumbent*
/// CompiledSnapshot a serving loop runs jobs against, merges live
/// call-graph arcs collected from those jobs (JobOptions::CollectArcs),
/// and respecializes in a background thread.  A freshly built *candidate*
/// is never trusted: it first serves a bounded canary fraction of jobs
/// while a health monitor compares its trap rate and modeled per-job cost
/// against the incumbent, and only a healthy candidate is promoted — an
/// RCU-style shared_ptr swap, so in-flight jobs always finish on the
/// snapshot they started on and the serving loop never pauses.
///
/// Robustness invariants (DESIGN.md section 12; enforced by
/// tests/AdaptiveTests.cpp and the adaptive ResilienceTests):
///
///   - the incumbent is only ever *replaced by* a candidate that finished
///     its canary with no trap regression and no cost regression — a bad
///     respecialization can demote itself, never the serving loop;
///   - any failure in the build -> save -> canary -> promote chain
///     (including every `adaptive.*` failpoint) rolls back to the
///     incumbent and records the profile generation's hash so the same
///     profile is not retried verbatim (new arcs unpin it);
///   - health accounting, routing, and the swap share one mutex and no
///     job execution ever happens under it, so a wedged build can slow
///     respecialization but not serving.
///
/// The controller is policy + state machine only: it builds candidates
/// through a caller-supplied SnapshotBuilder callback (micad wires the
/// real Workbench pipeline in; tests wire in synthetic good/trapping/slow
/// builders), which is what makes the rollback paths testable at all.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_DRIVER_ADAPTIVE_H
#define SELSPEC_DRIVER_ADAPTIVE_H

#include "driver/Snapshot.h"
#include "profile/CallGraph.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

namespace selspec {

class AdaptiveController {
public:
  struct Options {
    /// Fraction of admitted jobs routed to a candidate while it canaries
    /// (clamped to (0, 1]); the rest stay on the incumbent.
    double CanaryFraction = 0.25;
    /// Canary sample size: candidate job completions needed for a
    /// promote/rollback verdict.
    unsigned CanaryJobs = 16;
    /// Cost regression bound: reject the candidate when its mean modeled
    /// cycles per successful job exceed the incumbent's mean times this.
    double CostRegressionFactor = 1.15;
    /// Incumbent successful-job sample below which the cost comparison is
    /// skipped (too little baseline to call a regression).
    unsigned MinIncumbentJobs = 4;
    /// Request a respecialization once this much new arc weight has been
    /// merged since the last build (0 = no threshold trigger).
    uint64_t ArcWeightThreshold = 0;
    /// Periodic respecialization cadence (0 = only on request/threshold).
    int64_t RespecializeIntervalMs = 0;
    /// Collect arcs from every Nth admitted job (1 = all, 0 = never).
    /// Unsampled jobs run with a null profile hook — the hot path stays
    /// atomic-free exactly as in non-adaptive serving.
    uint64_t SampleEvery = 1;
    /// Persist the merged live profile through the crash-safe checksummed
    /// ProfileDb generation chain at this path ("" = no persistence).
    std::string ProfileDbPath;
    /// ProfileDb program key for the persisted generations.
    std::string ProgramKey = "adaptive";
  };

  /// Builds a candidate snapshot from the merged live profile.  Called
  /// off the serving path (background thread or respecializeNow caller);
  /// null + message on failure.  Must be thread-compatible with
  /// concurrent snapshot runs (the usual Workbench-per-build pipeline is).
  using SnapshotBuilder =
      std::function<std::shared_ptr<const CompiledSnapshot>(
          const CallGraph &Profile, std::string &ErrorOut)>;

  enum class Phase : uint8_t { Stable, Building, Canary };

  /// One admitted job's routing decision.  The shared_ptr keeps the
  /// chosen snapshot alive for the whole run, which is the entire
  /// in-flight-jobs-survive-the-swap story.
  struct Ticket {
    std::shared_ptr<const CompiledSnapshot> Snap;
    /// True when this job serves from the candidate (canary traffic).
    bool Canary = false;
    /// True when this job should run with JobOptions::CollectArcs.
    bool SampleArcs = false;
    /// Controller epoch at admission; a mismatch at completion means a
    /// promotion/rollback happened while the job ran.
    uint64_t Epoch = 0;
  };

  /// \p Incumbent must be a healthy snapshot (it serves immediately).
  AdaptiveController(std::shared_ptr<const CompiledSnapshot> Incumbent,
                     SnapshotBuilder Builder, const Options &O);
  /// Stops the background thread; outstanding tickets remain valid (they
  /// own their snapshots) but late report()s are dropped.
  ~AdaptiveController();

  AdaptiveController(const AdaptiveController &) = delete;
  AdaptiveController &operator=(const AdaptiveController &) = delete;

  /// Per-job routing: the snapshot this job must run on.  Serving paths
  /// call this instead of holding their own snapshot pointer.
  Ticket admit();

  /// Report a finished job: success flag, modeled cycles of a successful
  /// run (0 for failures), and the arcs it collected (null when not
  /// sampled).  Drives both the live profile and the canary verdict.
  void report(const Ticket &T, bool Ok, uint64_t Cycles,
              const CallGraph *Arcs);

  /// The incumbent right now (retries after a transient failure run on
  /// this, never on a candidate).
  std::shared_ptr<const CompiledSnapshot> incumbent() const;

  /// Asks the background thread to respecialize now (SIGHUP path).
  /// Forced requests rebuild even when the profile hash is unchanged.
  void requestRespecialize(bool Force = true);

  /// Synchronous respecialization: builds and installs a candidate from
  /// the current merged profile (tests, and the background thread's
  /// worker).  False + reason when the build is skipped (canary already
  /// in progress, profile pinned bad or unchanged) or fails/rolls back.
  bool respecializeNow(std::string &ErrorOut, bool Force = false);

  /// Merges \p G into the live profile without attributing it to a job
  /// (seeding from a loaded ProfileDb generation at startup).
  void seedProfile(const CallGraph &G);

  /// Stops the background respecializer (idempotent; destructor calls it).
  void stop();

  Phase phase() const;
  uint64_t generationsBuilt() const;
  uint64_t promotions() const;
  uint64_t rollbacks() const;
  uint64_t buildFailures() const;
  /// Terminal outcomes of requested builds: promotions + rollbacks +
  /// build failures + skips.  waitForDecision() keys off this.
  uint64_t decisions() const;
  /// Epoch increments on candidate install, promotion, and rollback.
  uint64_t epoch() const;
  /// Current merged live-profile arc count (tests).
  size_t liveProfileArcs() const;

  /// Blocks until decisions() > \p PrevDecisions or \p TimeoutMs passes.
  bool waitForDecision(uint64_t PrevDecisions, int64_t TimeoutMs);

private:
  void respecLoop();
  bool doBuild(std::string &ErrorOut, bool Force);
  /// StateM held.  Records one canary completion and renders the verdict
  /// once the sample is complete.
  void recordCanaryLocked(bool Ok, uint64_t Cycles);
  /// StateM held.  Promote-or-rollback once CanaryDone == CanaryJobs.
  void verdictLocked();
  /// StateM held.  Demotes the candidate (or the not-yet-installed build
  /// identified by \p ProfileHash) and pins the profile generation.
  void rollbackLocked(uint64_t ProfileHash, const char *Why);

  const Options Opts;
  const SnapshotBuilder Builder;
  const uint64_t CanaryStride;

  mutable std::mutex StateM;
  std::condition_variable DecisionCV;
  std::condition_variable BgCV;
  std::shared_ptr<const CompiledSnapshot> Incumbent;
  std::shared_ptr<const CompiledSnapshot> Candidate;
  uint64_t CandidateHash = 0;
  uint64_t Seq = 0;
  uint64_t TheEpoch = 0;
  bool BuildInProgress = false;
  bool BuildRequested = false;
  bool ForceRequested = false;
  bool Stopping = false;

  // Canary health sample (reset per candidate).
  uint64_t CanaryIssued = 0;
  uint64_t CanaryDone = 0;
  uint64_t CanaryTraps = 0;
  uint64_t CanaryOk = 0;
  uint64_t CanaryOkCycles = 0;
  // Incumbent window since the candidate was installed (cost baseline).
  uint64_t WindowJobs = 0;
  uint64_t WindowTraps = 0;
  uint64_t WindowOk = 0;
  uint64_t WindowOkCycles = 0;
  // Lifetime incumbent tallies (baseline fallback for early canaries).
  uint64_t LifeJobs = 0;
  uint64_t LifeTraps = 0;
  uint64_t LifeOk = 0;
  uint64_t LifeOkCycles = 0;

  uint64_t NumBuilt = 0;
  uint64_t NumPromoted = 0;
  uint64_t NumRolledBack = 0;
  uint64_t NumBuildFailures = 0;
  uint64_t NumDecisions = 0;
  uint64_t LastBuiltHash = 0;
  std::unordered_set<uint64_t> BadProfiles;
  /// Snapshot displaced by the latest verdict, parked so its destructor
  /// (a whole compiled program) runs outside StateM — admit()/report()
  /// drain it after unlocking.
  std::shared_ptr<const CompiledSnapshot> Retired;

  mutable std::mutex ProfileM;
  CallGraph LiveProfile;
  uint64_t NewArcWeight = 0;

  std::thread Respecializer;
};

} // namespace selspec

#endif // SELSPEC_DRIVER_ADAPTIVE_H
