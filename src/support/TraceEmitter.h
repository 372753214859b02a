//===- support/TraceEmitter.h - Chrome-trace span emitter ------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one wall-clock timing facility.  An RAII Scope around each
/// pipeline phase (parse, resolve, cha, profile, plan, specialize,
/// optimize, slot-resolve, bytecode-compile, run, and the
/// profile-database load/save) records a completed span (name + start +
/// duration on one steady clock) and adds it to that phase's totals.
/// The spans render in the Chrome trace-event JSON format, loadable in
/// `chrome://tracing` and Perfetto (ui.perfetto.dev), so one
/// `micac --trace-out` file shows where a whole invocation's wall clock
/// went; the totals render as the `--time-report` "-- phase times"
/// table.
///
/// Off by default; while disabled a Scope pays one relaxed atomic load.
/// While enabled, each completed span takes a mutex for a vector push
/// and a short scan of the phase totals — spans are per-phase (a handful
/// per pipeline, one per compiled body for slot-resolve), never per-node.
/// The span buffer is capped (MaxSpans); overflowing spans are counted in
/// `trace.spans_dropped` rather than growing without bound in a
/// long-running server, but still count in the phase totals, so the
/// phase table stays exact.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_SUPPORT_TRACEEMITTER_H
#define SELSPEC_SUPPORT_TRACEEMITTER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace selspec {

class TraceEmitter {
public:
  struct Span {
    /// String literal; span sources are compiled-in phase names.
    const char *Name;
    /// Nanoseconds since the emitter's epoch (first use of global()).
    uint64_t StartNanos;
    uint64_t DurNanos;
  };

  /// One phase's accumulated wall time (report order is first-recorded).
  struct Phase {
    const char *Name;
    uint64_t Nanos;
    uint64_t Count;
  };

  /// The process-wide emitter every span source reports into.
  static TraceEmitter &global();

  void setEnabled(bool E) { Enabled.store(E, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Nanoseconds of \p T past the emitter's epoch (0 for earlier times).
  uint64_t sinceEpoch(std::chrono::steady_clock::time_point T) const;

  /// Records one completed span into the phase totals and the span
  /// buffer; past MaxSpans the span is dropped (and counted) from the
  /// buffer only.
  void record(const char *Name, uint64_t StartNanos, uint64_t DurNanos);

  size_t numSpans() const;
  uint64_t numDropped() const;
  std::vector<Phase> phases() const;
  /// Drops every span and phase total.
  void reset();

  /// Renders the phase totals ("-- phase times" block).
  void printPhases(std::ostream &OS) const;

  /// Renders `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
  void print(std::ostream &OS) const;

  /// print() to \p Path + newline; false + message in \p ErrorOut on I/O
  /// failure.
  bool writeFile(const std::string &Path, std::string &ErrorOut) const;

  /// Spans kept before dropping; bounds a long-running server's memory.
  static constexpr size_t MaxSpans = 1 << 16;

  /// RAII measurement of one phase \p Name (a string literal) into \p T;
  /// a no-op when \p T is disabled at construction.  Scopes may nest
  /// ("specialize" inside "plan", "slot-resolve" inside "optimize"); the
  /// phase table is flat, so nested phases count in their parents' totals.
  class Scope {
  public:
    explicit Scope(const char *Name, TraceEmitter &T = global())
        : T(T.enabled() ? &T : nullptr), Name(Name) {
      if (this->T)
        Start = std::chrono::steady_clock::now();
    }
    ~Scope() {
      if (!T)
        return;
      auto End = std::chrono::steady_clock::now();
      T->record(Name, T->sinceEpoch(Start),
                static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        End - Start)
                        .count()));
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    TraceEmitter *T;
    const char *Name;
    std::chrono::steady_clock::time_point Start;
  };

private:
  std::atomic<bool> Enabled{false};
  mutable std::mutex M;
  std::vector<Phase> Phases;
  std::vector<Span> Spans;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  uint64_t Dropped = 0;
};

} // namespace selspec

#endif // SELSPEC_SUPPORT_TRACEEMITTER_H
