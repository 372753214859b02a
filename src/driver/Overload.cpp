//===- driver/Overload.cpp - Brown-out degradation ladder ------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "driver/Overload.h"

#include "support/MemoryBudget.h"
#include "support/Metrics.h"

#include <atomic>
#include <cstdio>
#include <mutex>

using namespace selspec;
using namespace selspec::overload;

namespace {

/// Until a server installs a policy, the governor is inert: no queue
/// fraction reaches 2.0, so library users (and unrelated tests sharing
/// the process) never see global brown-outs from their own queue churn.
Policy inertPolicy() {
  Policy P;
  P.QueueHighFraction = 2.0;
  P.QueueLowFraction = 2.0;
  return P;
}

std::mutex M;
Policy ThePolicy = inertPolicy(); // guarded by M
unsigned PressuredTicks = 0;      // guarded by M
unsigned ClearTicks = 0;          // guarded by M

/// Readable without M so consumers (snapshot builders) pay one relaxed
/// load.
std::atomic<Level> TheLevel{Level::Normal};

metrics::Counter GaugeLevel("serve.brownout_level");
metrics::Counter CtrEscalations("serve.brownout_escalations");
metrics::Counter CtrRecoveries("serve.brownout_recoveries");

void transitionLocked(Level From, Level To, size_t Depth, size_t Capacity) {
  TheLevel.store(To, std::memory_order_relaxed);
  GaugeLevel.set(static_cast<uint64_t>(To));
  if (To > From)
    CtrEscalations.add();
  else
    CtrRecoveries.add();
  if (ThePolicy.LogTransitions) {
    std::fprintf(stderr,
                 "selspec overload: %s -> %s (queue %zu/%zu, live %llu MB)\n",
                 levelName(From), levelName(To), Depth, Capacity,
                 static_cast<unsigned long long>(membudget::liveBytes() >>
                                                 20));
    std::fflush(stderr);
  }
}

} // namespace

const char *selspec::overload::levelName(Level L) {
  switch (L) {
  case Level::Normal:
    return "normal";
  case Level::ChaOnly:
    return "cha-only";
  }
  return "unknown";
}

void selspec::overload::setPolicy(const Policy &P) {
  std::lock_guard<std::mutex> Lock(M);
  ThePolicy = P;
}

Policy selspec::overload::policy() {
  std::lock_guard<std::mutex> Lock(M);
  return ThePolicy;
}

void selspec::overload::observe(size_t QueueDepth, size_t QueueCapacity) {
  std::lock_guard<std::mutex> Lock(M);
  double Frac = QueueCapacity
                    ? static_cast<double>(QueueDepth) /
                          static_cast<double>(QueueCapacity)
                    : 0.0;
  bool MemHigh = ThePolicy.MemHighBytes &&
                 membudget::liveBytes() >= ThePolicy.MemHighBytes;
  bool Pressured = MemHigh || Frac >= ThePolicy.QueueHighFraction;
  bool Clear = !MemHigh && Frac <= ThePolicy.QueueLowFraction;

  Level Cur = TheLevel.load(std::memory_order_relaxed);
  if (Pressured) {
    ClearTicks = 0;
    if (Cur != Level::ChaOnly && ++PressuredTicks >= ThePolicy.EngageTicks) {
      PressuredTicks = 0;
      transitionLocked(Cur, Level::ChaOnly, QueueDepth, QueueCapacity);
    }
  } else if (Clear) {
    PressuredTicks = 0;
    if (Cur != Level::Normal && ++ClearTicks >= ThePolicy.RecoverTicks) {
      ClearTicks = 0;
      transitionLocked(Cur, Level::Normal, QueueDepth, QueueCapacity);
    }
  }
  // In the hysteresis band between the fractions neither counter moves:
  // the ladder holds its level.
}

Level selspec::overload::level() {
  return TheLevel.load(std::memory_order_relaxed);
}

bool selspec::overload::degradeToCha() { return level() == Level::ChaOnly; }

void selspec::overload::reset() {
  std::lock_guard<std::mutex> Lock(M);
  PressuredTicks = 0;
  ClearTicks = 0;
  TheLevel.store(Level::Normal, std::memory_order_relaxed);
  GaugeLevel.set(0);
}
