//===- driver/Quarantine.h - Crash quarantine for shared pools -*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Repeat-offender tracking for in-process serving.  A job that traps on
/// a resource guard or an injected fault in `--isolation=thread` mode
/// gets a *crash fingerprint* — FNV-1a over its source key plus the trap
/// kind — and once the same fingerprint reoffends Threshold times, the
/// source is quarantined: micad reroutes its jobs to the fork-isolation
/// path (and benches run them outside the shared pool), so one poison
/// input can degrade its own latency but never monopolize or destabilize
/// the pool everyone else shares.  A rerouted job that completes OK
/// releases the source: its faults were transient, not a poison input.
///
/// Only *guard* trap kinds quarantine (node budget, recursion, heap
/// limit, memory budget) plus InternalError (which is how injected
/// failpoint faults and real interpreter bugs surface).  Program errors
/// (type errors, failed dispatch, user abort) are the Mica program's own
/// well-defined behavior, deterministic and cheap — isolating them buys
/// nothing.  Deadline traps are excluded too: they indicate load, not a
/// poison input, and under overload they would quarantine everything.
///
/// Thread-safe; shared by micad's thread-mode dispatch, its completion
/// path, and `bench/chaos_serve`.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_DRIVER_QUARANTINE_H
#define SELSPEC_DRIVER_QUARANTINE_H

#include "interp/RuntimeTrap.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace selspec {

class CrashQuarantine {
public:
  struct Options {
    /// Offenses of one fingerprint before the source is quarantined.
    /// 2 = first trap is forgiven (may be load or bad luck), the repeat
    /// proves a pattern.
    unsigned Threshold = 2;
  };

  CrashQuarantine() : Opts(Options()) {}
  explicit CrashQuarantine(Options O) : Opts(O) {}

  /// True for trap kinds that count toward quarantine (see file
  /// comment).
  static bool quarantines(TrapKind K);

  /// Records a trap of kind \p K for \p SourceKey.  Returns true when
  /// this offense newly quarantined the source (callers log/count the
  /// transition once).  Non-quarantining kinds are ignored.
  bool recordTrap(const std::string &SourceKey, TrapKind K);

  /// Lifts \p SourceKey's quarantine and forgets its offenses: called
  /// when a rerouted job completes OK, so a source that saw transient
  /// faults returns to the shared pool and must reach the threshold again
  /// to be quarantined again.
  void release(const std::string &SourceKey);

  /// Should jobs for \p SourceKey be rerouted out of the shared pool?
  bool isQuarantined(const std::string &SourceKey) const;

  size_t numQuarantined() const;

  /// The fingerprint recordTrap buckets by (exposed for tests/logging).
  static uint64_t fingerprint(const std::string &SourceKey, TrapKind K);

private:
  const Options Opts;
  mutable std::mutex M;
  /// fingerprint -> offense count.
  std::unordered_map<uint64_t, unsigned> Offenses;
  std::unordered_set<std::string> Quarantined;
};

} // namespace selspec

#endif // SELSPEC_DRIVER_QUARANTINE_H
