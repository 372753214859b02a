//===- runtime/Dispatcher.h - Multi-method dispatch ------------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AST tier's method lookup, with the two levels of caching Section
/// 3.5 of the paper discusses in front of the compressed tables:
///  - per-call-site polymorphic inline caches (PICs, Hölzle et al.),
///    extended to multiple dispatched arguments, and
///  - a per-thread memo table over (generic, argument-class tuple).
/// A full lookup reads the generic's DispatchTable (DispatchTable.h), the
/// immutable half shared by every thread of a snapshot.  Hit/miss
/// statistics feed the dispatch-cost microbenchmarks and the
/// profiling-overhead experiment (§3.5, §3.7.2).
///
/// The bytecode tier does not use this class: its per-site inline caches
/// miss straight into the shared tables, so the PICs and the memo live
/// only here, one Dispatcher per AST interpreter, never shared.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_RUNTIME_DISPATCHER_H
#define SELSPEC_RUNTIME_DISPATCHER_H

#include "runtime/DispatchTable.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace selspec {

/// The adaptive, per-thread half of dispatch: PICs + memo + statistics
/// over a shared DispatchTables.
class Dispatcher {
public:
  /// \p PicCapacity bounds each call site's inline cache; sites that
  /// observe more class tuples go "megamorphic" and stop caching locally
  /// (they still use the global memo table), as real PIC implementations
  /// do (Hölzle et al. use ~8).
  ///
  /// This convenience overload owns its tables; single-threaded callers
  /// keep working unchanged.
  explicit Dispatcher(const Program &P, unsigned PicCapacity = 8)
      : Owned(std::make_unique<DispatchTables>(P)), Tables(Owned.get()),
        PicCapacity(PicCapacity) {}

  /// Per-thread cache over shared immutable \p Tables (which must outlive
  /// this Dispatcher).  This is the serving configuration: one snapshot's
  /// tables, one Dispatcher per thread.
  explicit Dispatcher(const DispatchTables &Tables, unsigned PicCapacity = 8)
      : Tables(&Tables), PicCapacity(PicCapacity) {}

  /// Statistics for the microbenchmarks and overhead studies.
  struct Stats {
    uint64_t Lookups = 0;
    uint64_t PicHits = 0;
    uint64_t MemoHits = 0;
    uint64_t FullLookups = 0;
    /// Sites whose PIC overflowed and was disabled.
    uint64_t MegamorphicSites = 0;
    /// Memo probes whose key matched but whose (generic, class tuple)
    /// did not: tupleKey hash collisions, detected by the verify-on-hit
    /// check and resolved by a full lookup instead of returning the
    /// cached (wrong) target.
    uint64_t MemoCollisions = 0;
  };

  /// Publishes the accumulated Stats onto the process-wide metrics
  /// registry (`dispatcher.*` counters).
  ~Dispatcher();

  /// Looks up the method invoked by generic \p G on \p ArgClasses, using
  /// the PIC of call site \p Site (pass an invalid id to skip the PIC).
  /// Returns an invalid id for "message not understood"/"ambiguous".
  MethodId lookup(GenericId G, const std::vector<ClassId> &ArgClasses,
                  CallSiteId Site);

  const Stats &stats() const { return Cache.S; }
  void resetStats() { Cache.S = Stats(); }

  /// Drops the adaptive state (every PIC and the memo table) without
  /// touching Stats or the shared tables: the next lookup of any tuple is
  /// a full lookup again.  Used when a snapshot is reused across profile
  /// generations; deliberately independent of resetStats() (tested).
  void clearCaches() {
    Cache.Pics.clear();
    Cache.Memo.clear();
  }

  const DispatchTables &tables() const { return *Tables; }

  /// Number of PIC entries of \p Site (its observed polymorphism degree).
  unsigned picSize(CallSiteId Site) const;

  /// Number of sites that own a PIC record (populated or megamorphic);
  /// sites that only ever missed into the memo never allocate one.
  size_t numPicSites() const { return Cache.Pics.size(); }

  /// The memo key: an FNV-style mix of the generic id and the argument
  /// classes.  Collidable by construction (10 bits shifted per argument,
  /// so arity >= 7 aliases); lookup() therefore verifies the stored
  /// tuple on every hit.  Public so tests can construct colliding
  /// tuples deliberately.
  static uint64_t tupleKey(GenericId G,
                           const std::vector<ClassId> &ArgClasses);

private:
  struct PicEntry {
    std::vector<ClassId> Classes;
    MethodId Target;
  };
  struct Pic {
    std::vector<PicEntry> Entries;
    bool Megamorphic = false;
  };
  /// One memo slot: the exact tuple the key was computed from, verified
  /// on every hit so a key collision can never return a wrong target.
  struct MemoEntry {
    GenericId Generic;
    std::vector<ClassId> Classes;
    MethodId Target;
  };

  /// Everything a lookup mutates, gathered so the thread-ownership
  /// boundary is explicit: one DispatchCache per thread, never shared.
  struct DispatchCache {
    Stats S;
    std::unordered_map<uint32_t, Pic> Pics;
    std::unordered_map<uint64_t, MemoEntry> Memo;
  };

  /// Set only by the table-owning convenience constructor.
  std::unique_ptr<DispatchTables> Owned;
  /// Never null; points at Owned or at a caller-shared snapshot's tables.
  const DispatchTables *Tables;
  unsigned PicCapacity;
  DispatchCache Cache;
};

} // namespace selspec

#endif // SELSPEC_RUNTIME_DISPATCHER_H
