//===- runtime/DispatchTable.h - Compressed dispatch tables ----*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.5 lists compressed multi-method dispatch tables (Chen et
/// al., Amiel et al.) among the lookup mechanisms a runtime with
/// specialized multi-methods can use.  This is that mechanism, and it is
/// the dispatch path of both execution tiers: per generic function, an
/// n-dimensional table indexed by per-argument class groups.  Classes
/// that behave identically at an argument position share a group (the
/// compression), so the table size is the product of the *behavioral*
/// group counts rather than of the class counts.
///
/// Lookup is one array read per dispatched argument plus one table read —
/// constant time, no search.  A position's groups come from one sweep over
/// its specializers' cone intervals in preorder space (ClassHierarchy):
/// the applicability pattern is constant between interval boundaries, so
/// grouping costs one pattern per segment and one pass over the classes.
///
/// DispatchTables holds one table per generic of an immutable Program,
/// built on the generic's first lookup and published once; a
/// CompiledSnapshot owns one and every serving thread reads it.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_RUNTIME_DISPATCHTABLE_H
#define SELSPEC_RUNTIME_DISPATCHTABLE_H

#include "hierarchy/Program.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace selspec {

/// Compressed dispatch table for one generic function.
class DispatchTable {
public:
  /// Builds the table for \p G by enumerating dispatch behaviors.
  /// \p CellCap overrides the materialization cap (tests exercise the
  /// overflow fallback with a small cap instead of filling 16M cells).
  DispatchTable(const Program &P, GenericId G, size_t CellCap = MaxCells);

  /// The method invoked for the given argument classes, or invalid for
  /// "message not understood"/ambiguous.  Equivalent to P.dispatch().
  MethodId lookup(const std::vector<ClassId> &ArgClasses) const {
    if (Oversized)
      return P.dispatch(G, ArgClasses);
    size_t Index = 0;
    size_t Stride = 1;
    for (size_t PI = 0; PI != Positions.size(); ++PI) {
      Index += GroupOf[PI][ArgClasses[Positions[PI]].value()] * Stride;
      Stride *= GroupCount[PI];
    }
    return Table[Index];
  }

  /// False when the compressed table would have exceeded the cell cap (or
  /// the `dispatch.table-build` failpoint fired) and the table was not
  /// materialized; lookup() then answers through Program::dispatch
  /// instead of failing.
  bool materialized() const { return !Oversized; }

  /// Cap on materialized cells, inclusive: exactly MaxCells cells still
  /// materializes, one more falls back.  16M cells ≈ 64 MiB of MethodIds;
  /// pathological hierarchies fall back to search-based dispatch instead
  /// of aborting.
  static constexpr size_t MaxCells = size_t(1) << 24;

  /// Compression statistics.
  unsigned numDispatchedPositions() const {
    return static_cast<unsigned>(GroupOf.size());
  }
  unsigned numGroups(unsigned DispatchedPos) const {
    return GroupCount[DispatchedPos];
  }
  size_t tableSize() const { return Table.size(); }
  /// Table cells an uncompressed class^n table would need.
  size_t uncompressedSize() const;

private:
  const Program &P;
  GenericId G;
  /// Positions of the generic that actually dispatch.
  std::vector<unsigned> Positions;
  /// GroupOf[i][classId] = group index of the class at dispatched
  /// position i.
  std::vector<std::vector<uint32_t>> GroupOf;
  std::vector<uint32_t> GroupCount;
  /// Row-major over group indexes.
  std::vector<MethodId> Table;
  /// Cell count exceeded the cap; Table is empty, lookups re-dispatch.
  bool Oversized = false;
};

/// The dispatch rule of one immutable Program: one DispatchTable per
/// generic, each built on its generic's first lookup.  Logically const —
/// the only write is a table's one-time publication (an atomic pointer
/// store under a mutex that serializes builders; readers pay one acquire
/// load) — so one DispatchTables can serve any number of threads.
class DispatchTables {
public:
  explicit DispatchTables(const Program &P);
  ~DispatchTables();
  DispatchTables(const DispatchTables &) = delete;
  DispatchTables &operator=(const DispatchTables &) = delete;

  const Program &program() const { return P; }

  /// Full multi-method lookup: a read of \p G's table, equal to
  /// Program::dispatch (the oracle that fills the cells).
  MethodId dispatch(GenericId G,
                    const std::vector<ClassId> &ArgClasses) const {
    return table(G).lookup(ArgClasses);
  }

  /// \p G's table, built and published on first use.
  const DispatchTable &table(GenericId G) const {
    if (const DispatchTable *T =
            Published[G.value()].load(std::memory_order_acquire))
      return *T;
    return build(G);
  }

private:
  const DispatchTable &build(GenericId G) const;

  const Program &P;
  unsigned NumGenerics;
  /// One slot per generic; null until its table is published.  Owned:
  /// the destructor deletes every published table.
  std::unique_ptr<std::atomic<const DispatchTable *>[]> Published;
  mutable std::mutex BuildLock;
};

} // namespace selspec

#endif // SELSPEC_RUNTIME_DISPATCHTABLE_H
