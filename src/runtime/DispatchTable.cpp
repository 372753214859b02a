//===- runtime/DispatchTable.cpp - Compressed dispatch tables --------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/DispatchTable.h"

#include "opt/CompiledProgram.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <optional>
#include <unordered_map>

using namespace selspec;

namespace {

metrics::Counter CtrTablesBuilt("dispatch.tables_built");
metrics::Counter CtrTableCells("dispatch.table_cells");
metrics::Counter CtrTableFallbacks("dispatch.table_fallbacks");

/// One run of a labelling of preorder space: the classes from preorder
/// number Start up to the next run's Start carry Label.
struct LabelRun {
  uint32_t Start;
  uint32_t Label;
};

/// Labels the classes by their memberships in \p Sets: two classes get
/// the same label iff every set holds both or neither.  Partition
/// refinement over preorder runs: the partition is a map from run start
/// to label, and each set splits the runs at its own run boundaries and
/// relabels the runs it covers, one fresh label per old label it touches.
/// The cost is proportional to the runs of the sets and of the partition,
/// not to the class count.  Returns the runs in preorder (one run, label
/// 0, when no set splits the classes).
std::vector<LabelRun> labelByVersionSets(
    const ClassHierarchy &H, const std::vector<const ClassSet *> &Sets) {
  const uint32_t U = H.size();
  std::map<uint32_t, uint32_t> Runs{{0, 0}};
  auto SplitAt = [&](uint32_t At) {
    if (At == U)
      return Runs.end();
    auto It = std::prev(Runs.upper_bound(At));
    if (It->first == At)
      return It;
    return Runs.emplace_hint(std::next(It), At, It->second);
  };
  // Remap[L] is the label runs of L inside the current set move to,
  // valid while Stamp[L] is the current set's round.
  std::vector<uint32_t> Remap(1), Stamp(1, 0);
  uint32_t Round = 0;
  for (const ClassSet *S : Sets) {
    ++Round;
    for (const ClassSet::Range &Rg : H.preorderRuns(*S)) {
      auto End = SplitAt(Rg.Hi);
      for (auto It = SplitAt(Rg.Lo); It != End; ++It) {
        const uint32_t L = It->second;
        if (Stamp[L] != Round) {
          Stamp[L] = Round;
          Remap[L] = static_cast<uint32_t>(Remap.size());
          Remap.push_back(0);
          Stamp.push_back(0);
        }
        It->second = Remap[L];
      }
    }
  }
  std::vector<LabelRun> Out;
  for (const auto &[Start, Label] : Runs)
    Out.push_back({Start, Label});
  return Out;
}

/// Partitions the classes by applicability pattern at argument position
/// \p ArgPos of \p Info (two classes that are subclasses of exactly the
/// same specializers dispatch identically there), refined by the labels
/// \p Labels (labelByVersionSets).  The pattern only changes at a boundary
/// of some specializer's cone interval, so one sweep over the sorted
/// boundaries and label runs in preorder space yields a (pattern, label)
/// pair per segment, and each segment's classes are assigned in one pass.
/// Fills \p GroupOf (indexed by ClassId) and one representative class per
/// group, in order of first preorder appearance; returns the group count,
/// or 0 when it would exceed DispatchTable::MaxGroups.
uint32_t groupClasses(const Program &P, const GenericInfo &Info,
                      unsigned ArgPos, const std::vector<LabelRun> &Labels,
                      std::vector<uint16_t> &GroupOf,
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
  std::map<std::vector<uint64_t>, uint32_t> Patterns;
  // Group of each (pattern, label) pair, keyed pattern << 32 | label.
  std::unordered_map<uint64_t, uint32_t> Groups;
  const uint32_t U = H.size();
  GroupOf.assign(U, 0);
  size_t Next = 0;
  size_t NextLabel = 0;
  uint32_t Label = 0;
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
    const uint64_t PatternKey =
        uint64_t(Patterns.emplace(Pattern, Patterns.size()).first->second)
        << 32;
    if (NextLabel != Labels.size() && Labels[NextLabel].Start == Pos)
      Label = Labels[NextLabel++].Label;
    const uint32_t End = std::min(
        Next != Bounds.size() ? Bounds[Next].At : U,
        NextLabel != Labels.size() ? Labels[NextLabel].Start : U);
    auto [It, Inserted] = Groups.emplace(PatternKey | Label,
                                         static_cast<uint32_t>(Groups.size()));
    if (Inserted) {
      if (Groups.size() > DispatchTable::MaxGroups)
        return 0;
      Representatives.push_back(H.classAtPreorder(Pos));
    }
    const uint16_t Group = static_cast<uint16_t>(It->second);
    for (; Pos != End; ++Pos)
      GroupOf[H.classAtPreorder(Pos).value()] = Group;
  }
  return static_cast<uint32_t>(Groups.size());
}

/// CompiledProgram::selectVersion's answer for every cell of one table,
/// without testing every version's tuple per cell.  The generic's versions
/// are listed method by method in selectVersion's scan order, and bit rows
/// record which of them contain each group at each dispatched position
/// (Rows[i][group] has bit V set when listed version V's set at Positions[i]
/// holds the group's classes).  A cell ANDs one row per position over its
/// method's versions and applies selectVersion's rule to the survivors:
/// the most specific, earliest on ties.  Undispatched positions need no
/// row: every version's set there holds every class.
class CellVersions {
public:
  CellVersions(const CompiledProgram &CP, const GenericInfo &Info,
               const std::vector<unsigned> &Positions,
               const std::vector<uint32_t> &GroupCount,
               const std::vector<std::vector<uint16_t>> &GroupOf,
               const std::vector<std::vector<ClassId>> &Representatives)
      : CP(CP), Info(Info) {
    for (MethodId M : Info.Methods) {
      Begin.push_back(static_cast<uint32_t>(Listed.size()));
      for (uint32_t V : CP.versionsOf(M))
        Listed.push_back(V);
    }
    Begin.push_back(static_cast<uint32_t>(Listed.size()));
    Words = (Listed.size() + 63) / 64;
    Rows.resize(Positions.size());
    for (size_t PI = 0; PI != Positions.size(); ++PI) {
      Rows[PI].assign(GroupCount[PI] * Words, 0);
      for (size_t V = 0; V != Listed.size(); ++V) {
        const ClassSet &S = CP.version(Listed[V]).Tuple[Positions[PI]];
        const uint64_t Bit = uint64_t(1) << (V % 64);
        // Groups refine S, so a member marks its whole group; the cheaper
        // of walking S's members and testing each group's representative.
        if (S.count() < GroupCount[PI]) {
          for (ClassId C : S.members())
            Rows[PI][GroupOf[PI][C.value()] * Words + V / 64] |= Bit;
        } else {
          for (uint32_t Gr = 0; Gr != GroupCount[PI]; ++Gr)
            if (S.contains(Representatives[PI][Gr]))
              Rows[PI][Gr * Words + V / 64] |= Bit;
        }
      }
    }
  }

  /// The version of \p M selectVersion picks for the cell whose group at
  /// dispatched position i is \p Cursor[i]; -1 when none contains it.
  int select(MethodId M, const std::vector<uint32_t> &Cursor) const {
    const size_t MI =
        std::find(Info.Methods.begin(), Info.Methods.end(), M) -
        Info.Methods.begin();
    const uint32_t Lo = Begin[MI], Hi = Begin[MI + 1];
    int Best = -1;
    for (uint32_t W = Lo / 64; W * 64 < Hi; ++W) {
      uint64_t Bits = ~uint64_t(0);
      if (W == Lo / 64)
        Bits <<= Lo % 64;
      if (Hi < (W + 1) * 64)
        Bits &= (uint64_t(1) << (Hi % 64)) - 1;
      for (size_t PI = 0; PI != Rows.size(); ++PI)
        Bits &= Rows[PI][Cursor[PI] * Words + W];
      for (; Bits != 0; Bits &= Bits - 1) {
        const uint32_t Index = Listed[W * 64 + std::countr_zero(Bits)];
        if (Best < 0 || tupleSubsetOf(CP.version(Index).Tuple,
                                      CP.version(Best).Tuple))
          Best = static_cast<int>(Index);
      }
    }
    return Best;
  }

private:
  const CompiledProgram &CP;
  const GenericInfo &Info;
  /// The generic's version indexes, method by method in Info.Methods
  /// order; method i's are Listed[Begin[i] .. Begin[i + 1]).
  std::vector<uint32_t> Listed;
  std::vector<uint32_t> Begin;
  size_t Words = 0;
  std::vector<std::vector<uint64_t>> Rows;
};

} // namespace

DispatchTable::DispatchTable(const Program &P, GenericId G, size_t CellCap)
    : DispatchTable(P, nullptr, G, CellCap) {}

DispatchTable::DispatchTable(const CompiledProgram &CP, GenericId G,
                             size_t CellCap)
    : DispatchTable(CP.program(), &CP, G, CellCap) {}

DispatchTable::DispatchTable(const Program &P, const CompiledProgram *CP,
                             GenericId G, size_t CellCap)
    : P(P), CP(CP), G(G) {
  const GenericInfo &Info = P.generic(G);
  CtrTablesBuilt.add();

  // An injected build failure takes the same degradation path as an
  // oversized table: no materialization, lookups answer through
  // Program::dispatch.
  if (failpoint::anyArmed() && failpoint::triggered("dispatch.table-build")) {
    degrade();
    return;
  }

  // Dispatched positions: where some method, or some version tuple of a
  // method, constrains the argument.
  std::vector<std::vector<const ClassSet *>> VersionSets;
  for (unsigned I = 0; I != Info.Arity; ++I) {
    std::vector<const ClassSet *> Sets;
    bool Constrained = false;
    for (MethodId M : Info.Methods) {
      Constrained |= P.method(M).Specializers[I] != P.Classes.root();
      if (CP)
        for (uint32_t V : CP->versionsOf(M))
          if (const ClassSet &S = CP->version(V).Tuple[I]; !S.isAll())
            Sets.push_back(&S);
    }
    if (!Constrained && Sets.empty())
      continue;
    Positions.push_back(I);
    VersionSets.push_back(std::move(Sets));
  }

  GroupOf.resize(Positions.size());
  GroupCount.resize(Positions.size());
  std::vector<std::vector<ClassId>> Representatives(Positions.size());
  for (size_t PI = 0; PI != Positions.size(); ++PI) {
    GroupCount[PI] = groupClasses(
        P, Info, Positions[PI], labelByVersionSets(P.Classes, VersionSets[PI]),
        GroupOf[PI], Representatives[PI]);
    if (GroupCount[PI] == 0) {
      degrade();
      return;
    }
  }

  // Fill the table by dispatching one representative tuple per cell and
  // selecting its version (CellVersions): every class of a group agrees
  // on every specializer and version-tuple membership, so the answer
  // holds for the whole cell.  Overflow-safe product: a hostile hierarchy can push the
  // cell count past any bound, in which case the table is skipped and
  // lookups fall back to search-based dispatch.  The cap is inclusive
  // (exactly CellCap cells materializes): Cells > CellCap / GC ⟺
  // Cells * GC > CellCap for positive integers, so the pre-check is exact,
  // not approximate.
  size_t Cells = 1;
  for (uint32_t GC : GroupCount) {
    if (Cells > CellCap / GC) {
      degrade();
      return;
    }
    Cells *= GC;
  }
  if (Cells > CellCap) {
    degrade();
    return;
  }
  Table.resize(Cells);

  std::optional<CellVersions> Versions;
  if (CP)
    Versions.emplace(*CP, Info, Positions, GroupCount, GroupOf,
                     Representatives);
  std::vector<ClassId> Args(Info.Arity, P.Classes.root());
  std::vector<uint32_t> Cursor(Positions.size(), 0);
  for (Cell &C : Table) {
    for (size_t PI = 0; PI != Positions.size(); ++PI)
      Args[Positions[PI]] = Representatives[PI][Cursor[PI]];
    C.Method = P.dispatch(G, Args);
    if (Versions && C.Method.isValid())
      C.Version = Versions->select(C.Method, Cursor);

    for (size_t PI = 0;
         PI != Cursor.size() && ++Cursor[PI] == GroupCount[PI]; ++PI)
      Cursor[PI] = 0;
  }
  CtrTableCells.add(Cells);
}

void DispatchTable::degrade() {
  Oversized = true;
  GroupOf.clear();
  GroupCount.clear();
  CtrTableFallbacks.add();
}

DispatchTable::Cell
DispatchTable::degradedSelect(const std::vector<ClassId> &ArgClasses) const {
  Cell C;
  C.Method = P.dispatch(G, ArgClasses);
  if (CP && C.Method.isValid())
    C.Version = CP->selectVersion(C.Method, ArgClasses);
  return C;
}

size_t DispatchTable::uncompressedSize() const {
  size_t N = 1;
  for (size_t PI = 0; PI != Positions.size(); ++PI)
    N *= P.Classes.size();
  return N;
}

size_t DispatchTable::memoryBytes() const {
  size_t N = Table.capacity() * sizeof(Cell);
  for (const std::vector<uint16_t> &Groups : GroupOf)
    N += Groups.capacity() * sizeof(uint16_t);
  return N;
}

DispatchTables::DispatchTables(const Program &P) : DispatchTables(P, nullptr) {}

DispatchTables::DispatchTables(const CompiledProgram &CP)
    : DispatchTables(CP.program(), &CP) {}

DispatchTables::DispatchTables(const Program &P, const CompiledProgram *CP)
    : P(P), CP(CP), NumGenerics(P.numGenerics()),
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
  const DispatchTable *T =
      CP ? new DispatchTable(*CP, G) : new DispatchTable(P, G);
  Published[G.value()].store(T, std::memory_order_release);
  return *T;
}
