//===- runtime/DispatchTable.cpp - Compressed dispatch tables --------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/DispatchTable.h"

#include "support/FailPoint.h"
#include "support/Metrics.h"

#include <algorithm>
#include <map>

using namespace selspec;

namespace {

metrics::Counter CtrTablesBuilt("dispatch.tables_built");
metrics::Counter CtrTableCells("dispatch.table_cells");
metrics::Counter CtrTableFallbacks("dispatch.table_fallbacks");

/// Partitions the classes by applicability pattern at argument position
/// \p ArgPos of \p Info (two classes that are subclasses of exactly the
/// same specializers dispatch identically there).  The pattern only
/// changes at a boundary of some specializer's cone interval, so one
/// sweep over the sorted boundaries in preorder space yields a pattern
/// per segment, and each segment's classes are assigned in one pass.
/// Fills \p GroupOf (indexed by ClassId) and one representative class per
/// group, in order of first preorder appearance; returns the group count.
uint32_t groupClasses(const Program &P, const GenericInfo &Info,
                      unsigned ArgPos, std::vector<uint32_t> &GroupOf,
                      std::vector<ClassId> &Representatives) {
  const ClassHierarchy &H = P.Classes;
  std::vector<ClassId> Specs;
  for (MethodId M : Info.Methods)
    Specs.push_back(P.method(M).Specializers[ArgPos]);
  std::sort(Specs.begin(), Specs.end());
  Specs.erase(std::unique(Specs.begin(), Specs.end()), Specs.end());

  struct Boundary {
    uint32_t At;
    uint32_t Spec;
    bool Enters;
  };
  std::vector<Boundary> Bounds;
  for (uint32_t S = 0; S != Specs.size(); ++S)
    for (const ClassSet::Range &Rg : H.coneIntervals(Specs[S])) {
      Bounds.push_back({Rg.Lo, S, true});
      Bounds.push_back({Rg.Hi, S, false});
    }
  std::sort(Bounds.begin(), Bounds.end(),
            [](const Boundary &A, const Boundary &B) { return A.At < B.At; });

  // Depth counts a specializer's open intervals, so the order of
  // boundaries sharing a point does not matter.
  std::vector<uint32_t> Depth(Specs.size(), 0);
  std::vector<uint64_t> Pattern((Specs.size() + 63) / 64, 0);
  std::map<std::vector<uint64_t>, uint32_t> Groups;
  const uint32_t U = H.size();
  GroupOf.assign(U, 0);
  size_t Next = 0;
  for (uint32_t Pos = 0; Pos != U;) {
    for (; Next != Bounds.size() && Bounds[Next].At == Pos; ++Next) {
      const Boundary &B = Bounds[Next];
      if (B.Enters)
        ++Depth[B.Spec];
      else
        --Depth[B.Spec];
      uint64_t Bit = uint64_t(1) << (B.Spec % 64);
      if (Depth[B.Spec] != 0)
        Pattern[B.Spec / 64] |= Bit;
      else
        Pattern[B.Spec / 64] &= ~Bit;
    }
    const uint32_t End = Next != Bounds.size() ? Bounds[Next].At : U;
    auto [It, Inserted] =
        Groups.emplace(Pattern, static_cast<uint32_t>(Groups.size()));
    if (Inserted)
      Representatives.push_back(H.classAtPreorder(Pos));
    for (; Pos != End; ++Pos)
      GroupOf[H.classAtPreorder(Pos).value()] = It->second;
  }
  return static_cast<uint32_t>(Groups.size());
}

} // namespace

DispatchTable::DispatchTable(const Program &P, GenericId G, size_t CellCap)
    : P(P), G(G) {
  const GenericInfo &Info = P.generic(G);
  CtrTablesBuilt.add();

  // An injected build failure takes the same degradation path as an
  // oversized table: no materialization, lookups answer through
  // Program::dispatch.
  if (failpoint::anyArmed() && failpoint::triggered("dispatch.table-build")) {
    Oversized = true;
    CtrTableFallbacks.add();
    return;
  }

  // Dispatched positions: where some method constrains the argument.
  for (unsigned I = 0; I != Info.Arity; ++I)
    for (MethodId M : Info.Methods)
      if (P.method(M).Specializers[I] != P.Classes.root()) {
        Positions.push_back(I);
        break;
      }

  GroupOf.resize(Positions.size());
  GroupCount.resize(Positions.size());
  std::vector<std::vector<ClassId>> Representatives(Positions.size());
  for (size_t PI = 0; PI != Positions.size(); ++PI)
    GroupCount[PI] = groupClasses(P, Info, Positions[PI], GroupOf[PI],
                                  Representatives[PI]);

  // Fill the table by dispatching one representative tuple per cell.
  // Overflow-safe product: a hostile hierarchy can push the cell count
  // past any bound, in which case the table is skipped and lookups fall
  // back to search-based dispatch.  The cap is inclusive (exactly CellCap
  // cells materializes): Cells > CellCap / GC ⟺ Cells * GC > CellCap for
  // positive integers, so the pre-check is exact, not approximate.
  size_t Cells = 1;
  for (uint32_t GC : GroupCount) {
    if (GC != 0 && Cells > CellCap / GC) {
      Oversized = true;
      CtrTableFallbacks.add();
      return;
    }
    Cells *= GC;
  }
  if (Cells > CellCap) {
    Oversized = true;
    CtrTableFallbacks.add();
    return;
  }
  Table.assign(Cells, MethodId());

  std::vector<ClassId> Args(Info.Arity, P.Classes.root());
  std::vector<uint32_t> Cursor(Positions.size(), 0);
  for (size_t Cell = 0; Cell != Cells; ++Cell) {
    for (size_t PI = 0; PI != Positions.size(); ++PI)
      Args[Positions[PI]] = Representatives[PI][Cursor[PI]];
    Table[Cell] = P.dispatch(G, Args);

    for (size_t PI = 0;
         PI != Cursor.size() && ++Cursor[PI] == GroupCount[PI]; ++PI)
      Cursor[PI] = 0;
  }
  CtrTableCells.add(Cells);
}

size_t DispatchTable::uncompressedSize() const {
  size_t N = 1;
  for (size_t PI = 0; PI != Positions.size(); ++PI)
    N *= P.Classes.size();
  return N;
}

DispatchTables::DispatchTables(const Program &P)
    : P(P), NumGenerics(P.numGenerics()),
      Published(new std::atomic<const DispatchTable *>[NumGenerics]) {
  for (unsigned GI = 0; GI != NumGenerics; ++GI)
    Published[GI].store(nullptr, std::memory_order_relaxed);
}

DispatchTables::~DispatchTables() {
  for (unsigned GI = 0; GI != NumGenerics; ++GI)
    delete Published[GI].load(std::memory_order_relaxed);
}

const DispatchTable &DispatchTables::build(GenericId G) const {
  // Builders of different generics serialize too; a build is a one-time
  // cost per generic, so one lock keeps publication simple.
  std::lock_guard<std::mutex> Lock(BuildLock);
  if (const DispatchTable *T =
          Published[G.value()].load(std::memory_order_relaxed))
    return *T;
  const DispatchTable *T = new DispatchTable(P, G);
  Published[G.value()].store(T, std::memory_order_release);
  return *T;
}
