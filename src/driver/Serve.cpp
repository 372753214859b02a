//===- driver/Serve.cpp - In-process thread-pool job serving --------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "driver/Serve.h"

#include "driver/Overload.h"
#include "support/Metrics.h"

using namespace selspec;

namespace {

metrics::Counter CtrSubmitted("serve.jobs_submitted");
metrics::Counter CtrCompleted("serve.jobs_completed");
metrics::Counter CtrCancelledQueued("serve.jobs_cancelled_queued");
metrics::Counter CtrCancelSignals("serve.cancel_signals");
metrics::Counter CtrShed("serve.shed");
metrics::Counter GaugeQueueDepth("serve.queue_depth");
metrics::Counter GaugeQueuePeak("serve.queue_peak");

uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

} // namespace

ServeEngine::ServeEngine(const Options &O, CompletionFn OnDoneFn)
    : OnDone(std::move(OnDoneFn)), Opt(O),
      NumThreads(O.Threads < 1 ? 1u : O.Threads),
      Capacity(O.QueueCapacity < 1 ? 1u : O.QueueCapacity),
      Active(NumThreads, nullptr) {
  Workers.reserve(NumThreads);
  for (unsigned Slot = 0; Slot != NumThreads; ++Slot)
    Workers.emplace_back([this, Slot] { workerLoop(Slot); });
}

ServeEngine::~ServeEngine() { shutdown(false); }

void ServeEngine::noteQueueDepthLocked() {
  GaugeQueueDepth.set(Queue.size());
  if (Queue.size() > QueuePeak) {
    QueuePeak = Queue.size();
    GaugeQueuePeak.set(QueuePeak);
  }
}

ServeEngine::Admit ServeEngine::submit(Job J) {
  {
    std::unique_lock<std::mutex> Lock(M);
    auto HasRoom = [&] { return Queue.size() < Capacity || Closed; };
    if (Opt.MaxSubmitWaitMs >= 0) {
      // Bounded-wait admission: never block a producer past the bound.
      if (!NotFull.wait_for(Lock,
                            std::chrono::milliseconds(Opt.MaxSubmitWaitMs),
                            HasRoom)) {
        CtrShed.add();
        overload::observe(Queue.size(), Capacity);
        return Admit::Shed;
      }
    } else {
      NotFull.wait(Lock, HasRoom);
    }
    if (Closed)
      return Admit::Closed;
    if (Opt.DeadlineAwareAdmission && J.DeadlineMs > 0) {
      // Deadline-aware admission: with the current backlog, the job's
      // estimated wait before it could even start is depth/threads
      // service periods.  If that alone exceeds the job's whole latency
      // budget, shedding now is strictly better than queueing it.
      uint64_t Ewma = EwmaRunNanos.load(std::memory_order_relaxed);
      if (Ewma) {
        uint64_t EstStartNanos = Ewma * (Queue.size() / NumThreads + 1);
        if (EstStartNanos > static_cast<uint64_t>(J.DeadlineMs) * 1'000'000) {
          CtrShed.add();
          overload::observe(Queue.size(), Capacity);
          return Admit::Shed;
        }
      }
    }
    Queue.push_back(QueuedJob{std::move(J), std::chrono::steady_clock::now()});
    noteQueueDepthLocked();
    overload::observe(Queue.size(), Capacity);
  }
  CtrSubmitted.add();
  NotEmpty.notify_one();
  return Admit::Accepted;
}

void ServeEngine::close() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Closed = true;
  }
  // Wake blocked submitters (they observe Closed and bail) and idle
  // workers (they drain the queue, then exit).
  NotFull.notify_all();
  NotEmpty.notify_all();
}

void ServeEngine::cancelInFlight() {
  std::lock_guard<std::mutex> Lock(M);
  for (CancelToken *Tok : Active)
    if (Tok) {
      Tok->requestCancel();
      CtrCancelSignals.add();
    }
}

void ServeEngine::shutdown(bool CancelQueued) {
  close();

  std::deque<QueuedJob> Dropped;
  if (CancelQueued) {
    std::lock_guard<std::mutex> Lock(M);
    Dropped.swap(Queue);
    noteQueueDepthLocked();
  }
  for (QueuedJob &QJ : Dropped) {
    Completion Cmp;
    Cmp.TheJob = std::move(QJ.J);
    Cmp.Cancelled = true;
    Cmp.QueueNanos = nanosSince(QJ.Enqueued);
    CtrCancelledQueued.add();
    std::lock_guard<std::mutex> DoneLock(DoneM);
    OnDone(std::move(Cmp));
  }
  NotEmpty.notify_all();

  {
    std::unique_lock<std::mutex> Lock(M);
    AllDone.wait(Lock, [&] { return Queue.empty() && Running == 0; });
    if (Joined)
      return;
    Joined = true;
  }
  for (std::thread &T : Workers)
    T.join();
}

size_t ServeEngine::queued() const {
  std::lock_guard<std::mutex> Lock(M);
  return Queue.size();
}

size_t ServeEngine::inFlight() const {
  std::lock_guard<std::mutex> Lock(M);
  return Running;
}

void ServeEngine::workerLoop(unsigned Slot) {
  for (;;) {
    QueuedJob QJ;
    {
      std::unique_lock<std::mutex> Lock(M);
      NotEmpty.wait(Lock, [&] { return !Queue.empty() || Closed; });
      if (Queue.empty())
        return; // Closed and drained.
      QJ = std::move(Queue.front());
      Queue.pop_front();
      noteQueueDepthLocked();
      overload::observe(Queue.size(), Capacity);
      ++Running;
    }
    NotFull.notify_one();

    // The token lives on this worker's stack for the duration of the
    // job; it is reachable by cancelInFlight() only through Active[Slot],
    // which is set and cleared under M.
    CancelToken Tok;
    if (QJ.J.DeadlineMs > 0)
      Tok.setDeadline(Deadline::afterMillis(QJ.J.DeadlineMs));
    {
      std::lock_guard<std::mutex> Lock(M);
      Active[Slot] = &Tok;
    }

    Completion Cmp;
    Cmp.QueueNanos = nanosSince(QJ.Enqueued);

    CompiledSnapshot::JobOptions JO;
    JO.Limits = QJ.J.Limits;
    JO.Cancel = &Tok;
    JO.Costs = QJ.J.Costs;
    JO.CaptureOutput = QJ.J.CaptureOutput;
    JO.CollectMetricsDelta = QJ.J.CollectMetricsDelta;

    auto Start = std::chrono::steady_clock::now();
    Cmp.Result = QJ.J.Snapshot->run(QJ.J.Input, JO);
    Cmp.RunNanos = nanosSince(Start);
    Cmp.TheJob = std::move(QJ.J);
    CtrCompleted.add();

    // Service-time EWMA (alpha = 1/8) behind deadline-aware admission.
    // Plain load/store: concurrent updates can drop a sample, which is
    // fine for an estimate.
    uint64_t Prev = EwmaRunNanos.load(std::memory_order_relaxed);
    EwmaRunNanos.store(Prev ? (7 * Prev + Cmp.RunNanos) / 8 : Cmp.RunNanos,
                       std::memory_order_relaxed);

    {
      std::lock_guard<std::mutex> DoneLock(DoneM);
      OnDone(std::move(Cmp));
    }

    {
      std::lock_guard<std::mutex> Lock(M);
      Active[Slot] = nullptr;
      --Running;
      if (Queue.empty() && Running == 0)
        AllDone.notify_all();
    }
  }
}
