//===- driver/Serve.h - In-process thread-pool job serving -----*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded-queue thread pool that executes jobs against shared
/// CompiledSnapshots.  This is the in-process alternative to micad's
/// fork-per-job isolation: no exec, no pipes, no page-table churn — a job
/// is just a CompiledSnapshot::run() on a pooled thread, with its own
/// CancelToken (deadline + cooperative cancel, polled by the interpreter's
/// chargeNode cadence) and its own metrics delta.
///
/// Backpressure is by blocking by default: submit() waits while the queue
/// is at capacity, so a replay loop can never race ahead of the pool
/// unbounded.  Two overload-resilience admission modes relax that
/// (DESIGN.md section 12): a bounded submit wait (Options::MaxSubmitWaitMs)
/// sheds the job instead of blocking past the bound, and deadline-aware
/// admission (Options::DeadlineAwareAdmission) sheds a job at submit time
/// when the estimated queue wait at the current depth already exceeds the
/// job's own latency budget — a definite `Admit::Shed` verdict the caller
/// reports, instead of a queue the job was never going to survive.  Every
/// admission outcome is visible in the metrics registry: the
/// `serve.queue_depth` / `serve.queue_peak` gauges and the `serve.shed`
/// counter, alongside the `serve.mem_*` gauges maintained by
/// support/MemoryBudget.  Queue observations also tick the process-wide
/// overload governor (driver/Overload.h), which drives brown-out.
///
/// Completions are serialized — the completion callback is invoked by
/// worker threads one at a time, so callers may write to a shared sink
/// (stdout, a results vector) without their own locking.
///
/// Shutdown semantics (micad's SIGTERM/SIGINT drain is built on these):
/// close() stops admission; cancelInFlight() requests cooperative cancel
/// of every running job; shutdown(CancelQueued) closes, optionally drops
/// still-queued jobs (reported with Cancelled = true), and joins once the
/// last in-flight job finishes.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_DRIVER_SERVE_H
#define SELSPEC_DRIVER_SERVE_H

#include "driver/Snapshot.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace selspec {

class ServeEngine {
public:
  struct Options {
    /// Worker threads; clamped to at least 1.
    unsigned Threads = 4;
    /// Bounded queue depth; submit() blocks when full (backpressure).
    size_t QueueCapacity = 64;
    /// Shed a deadline-bearing job at submit when the estimated queue
    /// wait (EWMA of recent run times x queue depth / threads) already
    /// exceeds the job's DeadlineMs.  Jobs without a deadline are never
    /// shed by this check.
    bool DeadlineAwareAdmission = false;
    /// >= 0: bounded-wait submit — wait at most this long for queue
    /// space, then return Admit::Shed.  < 0: block indefinitely (the
    /// legacy backpressure contract).
    int64_t MaxSubmitWaitMs = -1;
  };

  /// submit() verdict.  Scoped (not bool) on purpose: every call site
  /// must decide what a shed means for its accounting.
  enum class Admit : uint8_t {
    /// Enqueued; exactly one completion will fire for the job.
    Accepted,
    /// Load-shed (queue-wait bound or deadline-aware admission); the job
    /// was NOT enqueued and no completion fires for it.
    Shed,
    /// The engine is closed; not enqueued, no completion.
    Closed,
  };

  struct Job {
    std::string Id;
    std::shared_ptr<const CompiledSnapshot> Snapshot;
    int64_t Input = 0;
    /// <= 0: no deadline.  Counted from the moment the job *starts*, not
    /// from submission (queue wait is reported separately).
    int64_t DeadlineMs = 0;
    ResourceLimits Limits;
    CostModel Costs;
    bool CaptureOutput = true;
    bool CollectMetricsDelta = true;
  };

  struct Completion {
    Job TheJob;
    CompiledSnapshot::JobResult Result;
    /// True for a job dropped from the queue by shutdown(CancelQueued)
    /// before it ever started; Result is untouched in that case.
    bool Cancelled = false;
    uint64_t QueueNanos = 0;
    uint64_t RunNanos = 0;
  };

  /// Invoked once per submitted job, serialized (never concurrently),
  /// from a worker thread (or the shutdown caller, for dropped jobs).
  using CompletionFn = std::function<void(Completion &&)>;

  ServeEngine(const Options &O, CompletionFn OnDone);
  /// Implicit shutdown(false): drains the queue, joins the workers.
  ~ServeEngine();

  ServeEngine(const ServeEngine &) = delete;
  ServeEngine &operator=(const ServeEngine &) = delete;

  /// Enqueues \p J, blocking while the queue is at capacity (subject to
  /// Options::MaxSubmitWaitMs and Options::DeadlineAwareAdmission — see
  /// Admit).  Only Admit::Accepted jobs ever produce a completion.
  Admit submit(Job J);

  /// Stops admission; queued and in-flight jobs still run to completion.
  void close();

  /// Cooperatively cancels every currently-running job (their tokens'
  /// requestCancel; the interpreters trap with DeadlineExceeded at the
  /// next poll).  Queued jobs are unaffected.  Signal-safe it is NOT —
  /// call from normal context after a sig_atomic_t flag, as micad does.
  void cancelInFlight();

  /// close() + optionally drop still-queued jobs (completing them with
  /// Cancelled = true) + wait for in-flight jobs + join all workers.
  /// Idempotent.
  void shutdown(bool CancelQueued);

  unsigned threads() const { return NumThreads; }
  size_t queued() const;
  size_t inFlight() const;

private:
  struct QueuedJob {
    Job J;
    std::chrono::steady_clock::time_point Enqueued;
  };

  void workerLoop(unsigned Slot);
  /// M held.  Publishes the queue-depth gauges after a push/pop.
  void noteQueueDepthLocked();

  CompletionFn OnDone;
  const Options Opt;
  unsigned NumThreads;
  size_t Capacity;
  /// EWMA of completed jobs' RunNanos (alpha = 1/8); the service-time
  /// estimate behind deadline-aware admission.  0 until the first
  /// completion (admission checks are skipped until then).
  std::atomic<uint64_t> EwmaRunNanos{0};
  /// Highest queue depth seen (gauge `serve.queue_peak`), guarded by M.
  size_t QueuePeak = 0;

  mutable std::mutex M;
  std::condition_variable NotFull;
  std::condition_variable NotEmpty;
  std::condition_variable AllDone;
  std::deque<QueuedJob> Queue;
  /// Per-worker-slot token of the running job, guarded by M; null when
  /// the slot is idle.  Set/cleared under M so cancelInFlight() can
  /// safely reach tokens that live on worker stacks.
  std::vector<CancelToken *> Active;
  size_t Running = 0;
  bool Closed = false;
  bool Joined = false;

  /// Serializes OnDone invocations.
  std::mutex DoneM;

  std::vector<std::thread> Workers;
};

} // namespace selspec

#endif // SELSPEC_DRIVER_SERVE_H
