//===- support/TraceEmitter.cpp - Chrome-trace span emitter ----------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "support/TraceEmitter.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <ostream>

using namespace selspec;

namespace {

metrics::Counter CtrSpans("trace.spans");
metrics::Counter CtrSpansDropped("trace.spans_dropped");

} // namespace

TraceEmitter &TraceEmitter::global() {
  static TraceEmitter T;
  return T;
}

uint64_t
TraceEmitter::sinceEpoch(std::chrono::steady_clock::time_point T) const {
  if (T <= Epoch)
    return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
          .count());
}

void TraceEmitter::record(const char *Name, uint64_t StartNanos,
                          uint64_t DurNanos) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = std::find_if(Phases.begin(), Phases.end(), [&](const Phase &Ph) {
    return std::strcmp(Ph.Name, Name) == 0;
  });
  if (It == Phases.end())
    Phases.push_back({Name, DurNanos, 1});
  else {
    It->Nanos += DurNanos;
    ++It->Count;
  }
  if (Spans.size() >= MaxSpans) {
    ++Dropped;
    CtrSpansDropped.add();
    return;
  }
  Spans.push_back({Name, StartNanos, DurNanos});
  CtrSpans.add();
}

size_t TraceEmitter::numSpans() const {
  std::lock_guard<std::mutex> Lock(M);
  return Spans.size();
}

uint64_t TraceEmitter::numDropped() const {
  std::lock_guard<std::mutex> Lock(M);
  return Dropped;
}

std::vector<TraceEmitter::Phase> TraceEmitter::phases() const {
  std::lock_guard<std::mutex> Lock(M);
  return Phases;
}

void TraceEmitter::reset() {
  std::lock_guard<std::mutex> Lock(M);
  Phases.clear();
  Spans.clear();
  Dropped = 0;
}

void TraceEmitter::printPhases(std::ostream &OS) const {
  std::vector<Phase> Table = phases();
  OS << "-- phase times\n";
  if (Table.empty()) {
    OS << "   (no phases recorded)\n";
    return;
  }
  size_t Width = 0;
  for (const Phase &Ph : Table)
    Width = std::max(Width, std::strlen(Ph.Name));
  for (const Phase &Ph : Table) {
    OS << "   " << std::left << std::setw(static_cast<int>(Width) + 2)
       << Ph.Name << std::right << std::fixed << std::setprecision(3)
       << std::setw(12) << static_cast<double>(Ph.Nanos) / 1e6 << " ms";
    if (Ph.Count > 1)
      OS << "  (" << Ph.Count << " scopes)";
    OS << '\n';
  }
}

void TraceEmitter::print(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(M);
  // Complete events ("ph":"X"); ts/dur are microseconds per the format.
  // Integer-nanosecond arithmetic rendered as <µs>.<frac> keeps the file
  // locale-independent and exact.
  OS << "{\"traceEvents\":[";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n " : "\n ") << "{\"name\":\"" << S.Name
       << "\",\"cat\":\"selspec\",\"ph\":\"X\",\"ts\":" << S.StartNanos / 1000
       << '.' << static_cast<char>('0' + S.StartNanos / 100 % 10)
       << static_cast<char>('0' + S.StartNanos / 10 % 10)
       << static_cast<char>('0' + S.StartNanos % 10)
       << ",\"dur\":" << S.DurNanos / 1000 << '.'
       << static_cast<char>('0' + S.DurNanos / 100 % 10)
       << static_cast<char>('0' + S.DurNanos / 10 % 10)
       << static_cast<char>('0' + S.DurNanos % 10)
       << ",\"pid\":1,\"tid\":1}";
  }
  OS << "\n],\"displayTimeUnit\":\"ms\"}";
}

bool TraceEmitter::writeFile(const std::string &Path,
                             std::string &ErrorOut) const {
  std::ofstream OS(Path);
  if (!OS) {
    ErrorOut = "cannot write trace file '" + Path + "'";
    return false;
  }
  print(OS);
  OS << '\n';
  if (!OS) {
    ErrorOut = "error writing trace file '" + Path + "'";
    return false;
  }
  return true;
}
