//===- driver/Overload.h - Brown-out degradation ladder --------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's brown-out governor: a process-wide state machine
/// that watches sustained queue and memory pressure and sheds *optional*
/// work before the server has to shed jobs.  The ladder has one rung
/// above Normal, and recovers to Normal when pressure clears (DESIGN.md
/// section 12):
///
///   Normal   -> everything enabled
///   ChaOnly  -> new snapshot builds degrade Selective -> CHA (cheapest
///               compile that still serves; mirrors the offline
///               missing-profile degradation)
///
/// Pressure is observed by the ServeEngine on every queue transition:
/// queue depth as a fraction of capacity, plus the process-wide modeled
/// live bytes from support/MemoryBudget.  Transitions need EngageTicks
/// consecutive pressured observations to escalate and RecoverTicks
/// consecutive clear observations to step back down, so a single burst
/// can't flap the ladder.  Every transition bumps
/// `serve.brownout_escalations` / `serve.brownout_recoveries` and the
/// `serve.brownout_level` gauge; consumers (micad's snapshot builders)
/// read the cheap level accessors.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_DRIVER_OVERLOAD_H
#define SELSPEC_DRIVER_OVERLOAD_H

#include <cstddef>
#include <cstdint>

namespace selspec {
namespace overload {

/// Ladder rungs, in escalation order.
enum class Level : uint8_t { Normal = 0, ChaOnly = 1 };

/// Stable lower-case name of \p L ("normal", "cha-only").
const char *levelName(Level L);

struct Policy {
  /// Modeled live bytes (membudget::liveBytes()) at or above which the
  /// memory signal reports pressure.  0 disables the memory signal.
  uint64_t MemHighBytes = 0;
  /// Queue depth / capacity at or above which the queue signal reports
  /// pressure.
  double QueueHighFraction = 0.75;
  /// Queue fraction at or below which an observation counts as clear
  /// (between the two fractions neither counter advances — a hysteresis
  /// band, not a boolean).
  double QueueLowFraction = 0.25;
  /// Consecutive pressured observations to escalate to ChaOnly.
  unsigned EngageTicks = 4;
  /// Consecutive clear observations to recover to Normal.
  unsigned RecoverTicks = 16;
  /// Log every transition to stderr (servers; off for tests/benches that
  /// own stdout/stderr).
  bool LogTransitions = false;
};

/// Installs \p P (servers call this once at startup; tests per-case).
/// Until the first call the governor is inert — the initial policy's
/// queue thresholds are unreachable, so embedding the library (or
/// running unrelated ServeEngine tests in one process) never triggers
/// brown-outs by accident.
void setPolicy(const Policy &P);
Policy policy();

/// One pressure observation (ServeEngine calls this on every enqueue,
/// dequeue, and shed).  Cheap: one mutex a few times per job, never on
/// the interpreter hot path.
void observe(size_t QueueDepth, size_t QueueCapacity);

Level level();

/// Level == ChaOnly: new snapshot builds should degrade Selective -> CHA.
bool degradeToCha();

/// Back to Normal with cleared tick state (test isolation; does not
/// touch the transition counters).
void reset();

} // namespace overload
} // namespace selspec

#endif // SELSPEC_DRIVER_OVERLOAD_H
