//===- tests/OverloadTests.cpp - Brown-out ladder + quarantine tests ------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the serving-resilience support pieces: the process-wide
// brown-out ladder (driver/Overload.h), the crash quarantine
// (driver/Quarantine.h), the modeled-byte accounting (support/MemoryBudget.h),
// and the failpoint configuration diagnostics (support/FailPoint.h).
//
// The ladder is process-global state shared with every other test in this
// binary, so each test installs its own policy and the LadderGuard restores
// the inert policy + Normal level on exit.
//
//===----------------------------------------------------------------------===//

#include "driver/Overload.h"
#include "driver/Quarantine.h"
#include "interp/RuntimeTrap.h"
#include "support/FailPoint.h"
#include "support/MemoryBudget.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

using namespace selspec;

namespace {

/// Restores the governor to its inert, Normal-level startup state so no
/// other test in this process inherits an escalated ladder.
struct LadderGuard {
  ~LadderGuard() {
    overload::Policy P;
    P.QueueHighFraction = 2.0;
    P.QueueLowFraction = 2.0;
    overload::setPolicy(P);
    overload::reset();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Brown-out ladder
//===----------------------------------------------------------------------===//

TEST(Overload, InertPolicyNeverEscalates) {
  LadderGuard G;
  overload::Policy P;
  P.QueueHighFraction = 2.0; // no real queue reaches this fraction
  P.QueueLowFraction = 2.0;
  P.EngageTicks = 1;
  overload::setPolicy(P);
  overload::reset();
  for (int I = 0; I != 100; ++I)
    overload::observe(/*QueueDepth=*/8, /*QueueCapacity=*/8);
  EXPECT_EQ(overload::level(), overload::Level::Normal);
  EXPECT_FALSE(overload::degradeToCha());
}

TEST(Overload, LadderEscalatesHoldsAndRecovers) {
  LadderGuard G;
  overload::Policy P;
  P.EngageTicks = 3;
  P.RecoverTicks = 4;
  overload::setPolicy(P);
  overload::reset();

  // Two pressured observations are not yet a streak.
  for (int I = 0; I != 2; ++I)
    overload::observe(8, 8);
  EXPECT_EQ(overload::level(), overload::Level::Normal);
  EXPECT_FALSE(overload::degradeToCha());

  // The third consecutive one engages the one rung.
  overload::observe(8, 8);
  EXPECT_EQ(overload::level(), overload::Level::ChaOnly);
  EXPECT_TRUE(overload::degradeToCha());

  // Sustained pressure saturates there.
  for (int I = 0; I != 20; ++I)
    overload::observe(8, 8);
  EXPECT_EQ(overload::level(), overload::Level::ChaOnly);

  // The hysteresis band between the fractions holds the level no matter
  // how long the queue sits there.
  for (int I = 0; I != 50; ++I)
    overload::observe(4, 8); // 0.5: above low (0.25), below high (0.75)
  EXPECT_EQ(overload::level(), overload::Level::ChaOnly);

  // Recovery needs RecoverTicks consecutive clear observations.
  for (int I = 0; I != 3; ++I)
    overload::observe(0, 8);
  EXPECT_EQ(overload::level(), overload::Level::ChaOnly);
  overload::observe(0, 8);
  EXPECT_EQ(overload::level(), overload::Level::Normal);
  EXPECT_FALSE(overload::degradeToCha());
}

TEST(Overload, ClearObservationResetsTheEscalationStreak) {
  LadderGuard G;
  overload::Policy P;
  P.EngageTicks = 4;
  P.RecoverTicks = 100;
  overload::setPolicy(P);
  overload::reset();

  // A burst shorter than EngageTicks, interrupted by a clear tick, never
  // escalates: the streak restarts.
  for (int I = 0; I != 3; ++I)
    overload::observe(8, 8);
  overload::observe(0, 8);
  for (int I = 0; I != 3; ++I)
    overload::observe(8, 8);
  EXPECT_EQ(overload::level(), overload::Level::Normal);
  // The fourth consecutive pressured tick finally engages.
  overload::observe(8, 8);
  EXPECT_EQ(overload::level(), overload::Level::ChaOnly);
}

TEST(Overload, MemorySignalPressuresAnEmptyQueue) {
  LadderGuard G;
  uint64_t Base = membudget::liveBytes();
  overload::Policy P;
  P.MemHighBytes = Base + (uint64_t(1) << 20);
  P.EngageTicks = 2;
  P.RecoverTicks = 2;
  overload::setPolicy(P);
  overload::reset();

  // Below the threshold an empty queue is clear.
  for (int I = 0; I != 10; ++I)
    overload::observe(0, 8);
  EXPECT_EQ(overload::level(), overload::Level::Normal);

  // Push modeled live bytes over the threshold: the memory signal alone
  // escalates even with an empty queue.
  membudget::addLive(int64_t(2) << 20);
  for (int I = 0; I != 2; ++I)
    overload::observe(0, 8);
  EXPECT_EQ(overload::level(), overload::Level::ChaOnly);

  // Releasing the bytes clears the signal and the ladder recovers.
  membudget::addLive(-(int64_t(2) << 20));
  for (int I = 0; I != 2; ++I)
    overload::observe(0, 8);
  EXPECT_EQ(overload::level(), overload::Level::Normal);
}

//===----------------------------------------------------------------------===//
// Modeled-byte accounting
//===----------------------------------------------------------------------===//

TEST(MemoryBudget, ModeledSizesArePlatformIndependentConstants) {
  EXPECT_EQ(membudget::instanceBytes(0), 64u);
  EXPECT_EQ(membudget::instanceBytes(3), 64u + 3 * 16u);
  EXPECT_EQ(membudget::stringBytes(0), 64u);
  EXPECT_EQ(membudget::stringBytes(100), 164u);
  EXPECT_EQ(membudget::arrayBytes(10), 64u + 10 * 16u);
  EXPECT_EQ(membudget::closureBytes(2), 64u + 2 * 48u);
}

TEST(MemoryBudget, LiveTallyAndWatermark) {
  uint64_t Before = membudget::liveBytes();
  membudget::addLive(4096);
  EXPECT_EQ(membudget::liveBytes(), Before + 4096);
  EXPECT_GE(membudget::highWatermark(), Before + 4096);
  membudget::addLive(-4096);
  EXPECT_EQ(membudget::liveBytes(), Before);
  // The watermark remembers the peak after the bytes are released.
  EXPECT_GE(membudget::highWatermark(), Before + 4096);
  membudget::resetWatermark();
  EXPECT_EQ(membudget::highWatermark(), membudget::liveBytes());
}

TEST(MemoryBudget, MaxBytesFromEnv) {
  ::setenv("SELSPEC_MAX_BYTES", "123456", 1);
  EXPECT_EQ(membudget::maxBytesFromEnv(999), 123456u);
  ::setenv("SELSPEC_MAX_BYTES", "not-a-number", 1);
  EXPECT_EQ(membudget::maxBytesFromEnv(999), 999u);
  ::setenv("SELSPEC_MAX_BYTES", "", 1);
  EXPECT_EQ(membudget::maxBytesFromEnv(999), 999u);
  ::unsetenv("SELSPEC_MAX_BYTES");
  EXPECT_EQ(membudget::maxBytesFromEnv(999), 999u);
}

//===----------------------------------------------------------------------===//
// Crash quarantine
//===----------------------------------------------------------------------===//

TEST(Quarantine, OnlyGuardAndInternalKindsQuarantine) {
  // Guards + violations: a repeat offender here is a poison input (or an
  // interpreter bug) worth isolating.
  EXPECT_TRUE(CrashQuarantine::quarantines(TrapKind::NodeBudgetExceeded));
  EXPECT_TRUE(CrashQuarantine::quarantines(TrapKind::RecursionLimitExceeded));
  EXPECT_TRUE(CrashQuarantine::quarantines(TrapKind::HeapLimitExceeded));
  EXPECT_TRUE(CrashQuarantine::quarantines(TrapKind::MemoryBudgetExceeded));
  EXPECT_TRUE(CrashQuarantine::quarantines(TrapKind::BindingViolation));
  EXPECT_TRUE(CrashQuarantine::quarantines(TrapKind::InternalError));
  // Program errors are the Mica program's own well-defined behavior.
  EXPECT_FALSE(CrashQuarantine::quarantines(TrapKind::None));
  EXPECT_FALSE(CrashQuarantine::quarantines(TrapKind::TypeError));
  EXPECT_FALSE(CrashQuarantine::quarantines(TrapKind::NoApplicableMethod));
  EXPECT_FALSE(CrashQuarantine::quarantines(TrapKind::AmbiguousDispatch));
  EXPECT_FALSE(CrashQuarantine::quarantines(TrapKind::IndexOutOfBounds));
  EXPECT_FALSE(CrashQuarantine::quarantines(TrapKind::DivisionByZero));
  EXPECT_FALSE(CrashQuarantine::quarantines(TrapKind::UndefinedSlot));
  EXPECT_FALSE(CrashQuarantine::quarantines(TrapKind::ArityMismatch));
  EXPECT_FALSE(CrashQuarantine::quarantines(TrapKind::UserAbort));
  // Deadline traps indicate load, not a poison input: under overload they
  // would quarantine every tenant.
  EXPECT_FALSE(CrashQuarantine::quarantines(TrapKind::DeadlineExceeded));
}

TEST(Quarantine, SecondOffenseQuarantinesExactlyOnce) {
  CrashQuarantine Q;
  EXPECT_FALSE(Q.recordTrap("a.mica", TrapKind::MemoryBudgetExceeded));
  EXPECT_FALSE(Q.isQuarantined("a.mica")) << "first trap is forgiven";
  EXPECT_TRUE(Q.recordTrap("a.mica", TrapKind::MemoryBudgetExceeded))
      << "the repeat offense newly quarantines";
  EXPECT_TRUE(Q.isQuarantined("a.mica"));
  EXPECT_FALSE(Q.recordTrap("a.mica", TrapKind::MemoryBudgetExceeded))
      << "recordTrap reports the transition only once";
  EXPECT_EQ(Q.numQuarantined(), 1u);
  EXPECT_FALSE(Q.isQuarantined("b.mica"));
}

TEST(Quarantine, DistinctKindsDoNotAccumulateTogether) {
  // Fingerprints separate trap kinds: one node-budget trap plus one
  // heap-limit trap is two first offenses, not a repeat.
  EXPECT_NE(
      CrashQuarantine::fingerprint("a.mica", TrapKind::NodeBudgetExceeded),
      CrashQuarantine::fingerprint("a.mica", TrapKind::HeapLimitExceeded));
  EXPECT_NE(
      CrashQuarantine::fingerprint("a.mica", TrapKind::NodeBudgetExceeded),
      CrashQuarantine::fingerprint("b.mica", TrapKind::NodeBudgetExceeded));
  EXPECT_EQ(
      CrashQuarantine::fingerprint("a.mica", TrapKind::NodeBudgetExceeded),
      CrashQuarantine::fingerprint("a.mica", TrapKind::NodeBudgetExceeded));

  CrashQuarantine Q;
  EXPECT_FALSE(Q.recordTrap("a.mica", TrapKind::NodeBudgetExceeded));
  EXPECT_FALSE(Q.recordTrap("a.mica", TrapKind::HeapLimitExceeded));
  EXPECT_FALSE(Q.isQuarantined("a.mica"));
  EXPECT_TRUE(Q.recordTrap("a.mica", TrapKind::HeapLimitExceeded));
  EXPECT_TRUE(Q.isQuarantined("a.mica"));
}

TEST(Quarantine, NonQuarantiningKindsAreIgnored) {
  CrashQuarantine Q;
  for (int I = 0; I != 10; ++I)
    EXPECT_FALSE(Q.recordTrap("hot.mica", TrapKind::DeadlineExceeded));
  for (int I = 0; I != 10; ++I)
    EXPECT_FALSE(Q.recordTrap("hot.mica", TrapKind::TypeError));
  EXPECT_FALSE(Q.isQuarantined("hot.mica"));
  EXPECT_EQ(Q.numQuarantined(), 0u);
}

TEST(Quarantine, ThresholdIsConfigurable) {
  CrashQuarantine::Options O;
  O.Threshold = 1;
  CrashQuarantine Q(O);
  EXPECT_TRUE(Q.recordTrap("a.mica", TrapKind::InternalError))
      << "threshold 1 quarantines on the first offense";
  EXPECT_TRUE(Q.isQuarantined("a.mica"));
}

TEST(Quarantine, ReleaseForgetsOffensesUntilTheThresholdAgain) {
  CrashQuarantine Q;
  EXPECT_FALSE(Q.recordTrap("a.mica", TrapKind::InternalError));
  EXPECT_TRUE(Q.recordTrap("a.mica", TrapKind::InternalError));
  EXPECT_FALSE(Q.recordTrap("b.mica", TrapKind::InternalError));
  EXPECT_TRUE(Q.isQuarantined("a.mica"));

  Q.release("a.mica");
  EXPECT_FALSE(Q.isQuarantined("a.mica"));
  EXPECT_EQ(Q.numQuarantined(), 0u);
  // The offense counts went with the quarantine: one more trap is a first
  // offense again, and only the repeat re-quarantines.
  EXPECT_FALSE(Q.recordTrap("a.mica", TrapKind::InternalError));
  EXPECT_FALSE(Q.isQuarantined("a.mica"));
  EXPECT_TRUE(Q.recordTrap("a.mica", TrapKind::InternalError));
  EXPECT_TRUE(Q.isQuarantined("a.mica"));
  // Other sources keep their counts.
  EXPECT_TRUE(Q.recordTrap("b.mica", TrapKind::InternalError));
}

//===----------------------------------------------------------------------===//
// Failpoint configuration diagnostics
//===----------------------------------------------------------------------===//

TEST(FailPointConfig, UnknownSiteListsTheValidCatalog) {
  // The second input is a site that no longer exists (online adaptive
  // respecialization was removed): an old soak script that still arms it
  // must fail loudly, not run with nothing armed.
  for (const char *Site : {"definitely-not-a-site", "adaptive.promote"}) {
    SCOPED_TRACE(Site);
    std::string Err;
    EXPECT_FALSE(failpoint::configure(std::string(Site) + "=fail", Err));
    EXPECT_NE(Err.find(Site), std::string::npos)
        << "diagnostic names the offending site: " << Err;
    EXPECT_NE(Err.find("valid sites"), std::string::npos) << Err;
    for (const char *Name : failpoint::allNames())
      EXPECT_NE(Err.find(Name), std::string::npos)
          << "diagnostic lists every valid site; missing " << Name;
    EXPECT_FALSE(failpoint::anyArmed())
        << "a rejected spec must not leave sites armed";
    failpoint::disarmAll();
  }
}
