//===- driver/Quarantine.cpp - Crash quarantine for shared pools -----------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "driver/Quarantine.h"

#include <algorithm>
#include <iterator>

using namespace selspec;

namespace {

/// The trap kinds that count toward quarantine (see the file comment).
constexpr TrapKind QuarantiningKinds[] = {
    TrapKind::NodeBudgetExceeded,   TrapKind::RecursionLimitExceeded,
    TrapKind::HeapLimitExceeded,    TrapKind::MemoryBudgetExceeded,
    TrapKind::BindingViolation,     TrapKind::InternalError};

} // namespace

bool CrashQuarantine::quarantines(TrapKind K) {
  return std::find(std::begin(QuarantiningKinds), std::end(QuarantiningKinds),
                   K) != std::end(QuarantiningKinds);
}

uint64_t CrashQuarantine::fingerprint(const std::string &SourceKey,
                                      TrapKind K) {
  // FNV-1a over the source key, then the trap-kind name (stable across
  // enum renumbering, unlike the raw enum value).
  uint64_t H = UINT64_C(1469598103934665603);
  auto Mix = [&H](const char *S) {
    for (; *S; ++S) {
      H ^= static_cast<unsigned char>(*S);
      H *= UINT64_C(1099511628211);
    }
  };
  Mix(SourceKey.c_str());
  H ^= '|';
  H *= UINT64_C(1099511628211);
  Mix(trapKindName(K));
  return H;
}

bool CrashQuarantine::recordTrap(const std::string &SourceKey, TrapKind K) {
  if (!quarantines(K))
    return false;
  std::lock_guard<std::mutex> Lock(M);
  if (Quarantined.count(SourceKey))
    return false;
  unsigned &Count = Offenses[fingerprint(SourceKey, K)];
  if (++Count < Opts.Threshold)
    return false;
  Quarantined.insert(SourceKey);
  return true;
}

void CrashQuarantine::release(const std::string &SourceKey) {
  std::lock_guard<std::mutex> Lock(M);
  Quarantined.erase(SourceKey);
  for (TrapKind K : QuarantiningKinds)
    Offenses.erase(fingerprint(SourceKey, K));
}

bool CrashQuarantine::isQuarantined(const std::string &SourceKey) const {
  std::lock_guard<std::mutex> Lock(M);
  return Quarantined.count(SourceKey) != 0;
}

size_t CrashQuarantine::numQuarantined() const {
  std::lock_guard<std::mutex> Lock(M);
  return Quarantined.size();
}
