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
/// Version selection (§3.3) rides along when a table is built for a
/// CompiledProgram: each cell then holds (method, version), the version
/// CompiledProgram::selectVersion picks for the cell's class tuple.  For
/// that answer to hold for every tuple of the cell, each position's groups
/// are refined by the class sets the generic's version tuples hold there
/// (a position only a version tuple constrains is dispatched too), so all
/// classes of a group agree on every version-tuple membership.  The
/// refinement is a partition refinement over the sets' preorder runs,
/// merged into the same sweep, so it costs in proportion to their run
/// counts rather than to the class count.  selectVersion stays the
/// oracle: the fill applies its rule (through per-position bit rows of
/// which versions contain which group), and it answers for tables built
/// without a CompiledProgram and for degraded tables.
///
/// DispatchTables holds one table per generic of an immutable Program,
/// built on the generic's first lookup and published once; a
/// CompiledSnapshot owns one built for its CompiledProgram and every
/// serving thread reads it.  CHA (ApplicableClassesAnalysis) reads a
/// method-only table per generic too: its cells are the invocation
/// relation whose projections are the ApplicableClasses sets.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_RUNTIME_DISPATCHTABLE_H
#define SELSPEC_RUNTIME_DISPATCHTABLE_H

#include "hierarchy/Program.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace selspec {

class CompiledProgram;

/// Compressed dispatch table for one generic function.
class DispatchTable {
public:
  /// One table cell: the method invoked, or invalid for "message not
  /// understood"/ambiguous, and, in a table built for a CompiledProgram,
  /// the version selectVersion picks (-1 when none matches, and always -1
  /// in a table built without one).
  struct Cell {
    MethodId Method;
    int32_t Version = -1;
  };

  /// Builds the method-only table for \p G by enumerating dispatch
  /// behaviors.  \p CellCap overrides the materialization cap (tests
  /// exercise the overflow fallback with a small cap instead of filling
  /// 16M cells).
  DispatchTable(const Program &P, GenericId G, size_t CellCap = MaxCells);
  /// Builds \p G's table over \p CP's program with the selected version
  /// of \p CP in every cell.
  DispatchTable(const CompiledProgram &CP, GenericId G,
                size_t CellCap = MaxCells);

  /// The method invoked for the given argument classes, or invalid for
  /// "message not understood"/ambiguous.  Equivalent to P.dispatch().
  MethodId lookup(const std::vector<ClassId> &ArgClasses) const {
    if (Oversized)
      return P.dispatch(G, ArgClasses);
    return Table[cellIndex(ArgClasses)].Method;
  }

  /// The cell for the given argument classes: lookup() plus, in a table
  /// built for a CompiledProgram, the selected version.  Equivalent to
  /// P.dispatch() followed by CP.selectVersion().
  Cell select(const std::vector<ClassId> &ArgClasses) const {
    if (Oversized)
      return degradedSelect(ArgClasses);
    return Table[cellIndex(ArgClasses)];
  }

  /// False when the compressed table would have exceeded the cell cap or
  /// the group-id width (or the `dispatch.table-build` failpoint fired)
  /// and the table was not materialized; lookups then answer through
  /// Program::dispatch and selectVersion instead of failing.
  bool materialized() const { return !Oversized; }

  /// Cap on materialized cells, inclusive: exactly MaxCells cells still
  /// materializes, one more falls back.  16M cells ≈ 128 MiB of cells;
  /// pathological hierarchies fall back to search-based dispatch instead
  /// of aborting.
  static constexpr size_t MaxCells = size_t(1) << 24;
  /// Cap on one position's groups, inclusive: group ids are stored as
  /// uint16_t, so a position with more groups falls back the same way.
  static constexpr size_t MaxGroups = size_t(UINT16_MAX) + 1;

  /// The argument positions of the generic that dispatch, in order; set
  /// whether or not the table materialized.
  const std::vector<unsigned> &positions() const { return Positions; }

  /// Compression statistics and the class groups of a materialized table:
  /// the group count at dispatched position \p DispatchedPos (an index
  /// into positions()), and the group of \p C there.
  unsigned numGroups(unsigned DispatchedPos) const {
    return GroupCount[DispatchedPos];
  }
  unsigned group(unsigned DispatchedPos, ClassId C) const {
    return GroupOf[DispatchedPos][C.value()];
  }
  size_t tableSize() const { return Table.size(); }
  /// Table cells an uncompressed class^n table would need.
  size_t uncompressedSize() const;
  /// Heap bytes of the group-id arrays and the cells.
  size_t memoryBytes() const;

private:
  DispatchTable(const Program &P, const CompiledProgram *CP, GenericId G,
                size_t CellCap);

  size_t cellIndex(const std::vector<ClassId> &ArgClasses) const {
    size_t Index = 0;
    size_t Stride = 1;
    for (size_t PI = 0; PI != Positions.size(); ++PI) {
      Index += GroupOf[PI][ArgClasses[Positions[PI]].value()] * Stride;
      Stride *= GroupCount[PI];
    }
    return Index;
  }
  [[gnu::cold]] Cell
  degradedSelect(const std::vector<ClassId> &ArgClasses) const;
  void degrade();

  const Program &P;
  /// The program whose versions the cells carry; null for method-only
  /// tables.
  const CompiledProgram *CP;
  GenericId G;
  /// Positions of the generic that actually dispatch.
  std::vector<unsigned> Positions;
  /// GroupOf[i][classId] = group index of the class at dispatched
  /// position i.
  std::vector<std::vector<uint16_t>> GroupOf;
  std::vector<uint32_t> GroupCount;
  /// Row-major over group indexes.
  std::vector<Cell> Table;
  /// Cell count or a position's group count exceeded its cap; Table is
  /// empty, lookups re-dispatch.
  bool Oversized = false;
};

/// The dispatch rule of one immutable Program: one DispatchTable per
/// generic, each built on its generic's first lookup.  Logically const —
/// the only write is a table's one-time publication (an atomic pointer
/// store under a mutex that serializes builders; readers pay one acquire
/// load) — so one DispatchTables can serve any number of threads.
class DispatchTables {
public:
  /// Method-only tables: select() leaves version selection to the caller.
  explicit DispatchTables(const Program &P);
  /// Tables whose cells also carry \p CP's selected version.
  explicit DispatchTables(const CompiledProgram &CP);
  ~DispatchTables();
  DispatchTables(const DispatchTables &) = delete;
  DispatchTables &operator=(const DispatchTables &) = delete;

  const Program &program() const { return P; }
  /// The program whose versions the cells carry, or null.  A caller
  /// running any other CompiledProgram must select versions itself.
  const CompiledProgram *compiledProgram() const { return CP; }

  /// Full multi-method lookup: a read of \p G's table, equal to
  /// Program::dispatch (the oracle that fills the cells).
  MethodId dispatch(GenericId G,
                    const std::vector<ClassId> &ArgClasses) const {
    return table(G).lookup(ArgClasses);
  }

  /// dispatch() plus the selected version of compiledProgram(): one read
  /// of \p G's table.
  DispatchTable::Cell select(GenericId G,
                             const std::vector<ClassId> &ArgClasses) const {
    return table(G).select(ArgClasses);
  }

  /// \p G's table, built and published on first use.
  const DispatchTable &table(GenericId G) const {
    if (const DispatchTable *T =
            Published[G.value()].load(std::memory_order_acquire))
      return *T;
    return build(G);
  }

private:
  DispatchTables(const Program &P, const CompiledProgram *CP);
  const DispatchTable &build(GenericId G) const;

  const Program &P;
  const CompiledProgram *CP;
  unsigned NumGenerics;
  /// One slot per generic; null until its table is published.  Owned:
  /// the destructor deletes every published table.
  std::unique_ptr<std::atomic<const DispatchTable *>[]> Published;
  mutable std::mutex BuildLock;
};

} // namespace selspec

#endif // SELSPEC_RUNTIME_DISPATCHTABLE_H
