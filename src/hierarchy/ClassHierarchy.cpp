//===- hierarchy/ClassHierarchy.cpp - Class inheritance DAG ---------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "hierarchy/ClassHierarchy.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace selspec;

ClassId ClassHierarchy::addClass(Symbol Name,
                                 std::span<const ClassId> Parents,
                                 std::span<const Symbol> OwnSlots) {
  if (lookup(Name).isValid())
    return ClassId();
  ClassId Id(static_cast<uint32_t>(Classes.size()));
  // Only the root may be parentless; others implicitly subclass Any.
  if (Parents.empty() && Id != ClassId(0))
    ParentPool.push_back(ClassId(0));
  for (ClassId P : Parents) {
    assert(P.isValid() && P.value() < Classes.size() && "unknown parent");
    ParentPool.push_back(P);
  }
  ParentBegin.push_back(static_cast<uint32_t>(ParentPool.size()));
  OwnSlotPool.insert(OwnSlotPool.end(), OwnSlots.begin(), OwnSlots.end());
  OwnSlotBegin.push_back(static_cast<uint32_t>(OwnSlotPool.size()));
  Classes.push_back(ClassInfo{Name, {}, {}, {}, {}});
  if (ByName.size() <= Name.value())
    ByName.resize(Name.value() + 1);
  ByName[Name.value()] = Id;
  Finalized = false;
  return Id;
}

ClassId ClassHierarchy::lookup(Symbol Name) const {
  return Name.value() < ByName.size() ? ByName[Name.value()] : ClassId();
}

void ClassHierarchy::finalize() {
  unsigned N = size();
  // One scratch index vector serves the child and layout pools in turn.
  std::vector<uint32_t> Begin(N + 1, 0);

  for (unsigned I = 0; I != N; ++I) {
    ClassInfo &Info = Classes[I];
    Info.Parents = {ParentPool.data() + ParentBegin[I],
                    ParentBegin[I + 1] - ParentBegin[I]};
    Info.OwnSlots = {OwnSlotPool.data() + OwnSlotBegin[I],
                     OwnSlotBegin[I + 1] - OwnSlotBegin[I]};
  }

  // Children, grouped by parent: a counting sort of the (parent, child)
  // edges.  Scanning children in id order lists each parent's children in
  // the order addClass met them.
  for (ClassId P : ParentPool)
    ++Begin[P.value() + 1];
  for (unsigned I = 0; I != N; ++I)
    Begin[I + 1] += Begin[I];
  ChildPool.resize(ParentPool.size());
  for (unsigned I = 0; I != N; ++I)
    for (ClassId P : Classes[I].Parents)
      ChildPool[Begin[P.value()]++] = ClassId(I);
  // Each Begin[P] now holds the end of P's run, which is where P + 1's
  // begins.
  for (unsigned I = 0; I != N; ++I) {
    uint32_t From = I == 0 ? 0 : Begin[I - 1];
    Classes[I].Children = {ChildPool.data() + From, Begin[I] - From};
  }

  // DFS preorder numbering over the spanning tree of first visits
  // (iterative: a 10k-class chain must not overflow the native stack).
  // Every class is reachable from the root because addClass gives each
  // non-root class at least one parent.
  PreOf.assign(N, UINT32_MAX);
  ClassAtPre.assign(N, UINT32_MAX);
  if (N != 0) {
    uint32_t NextPre = 0;
    std::vector<uint32_t> Stack;
    Stack.push_back(0);
    while (!Stack.empty()) {
      uint32_t C = Stack.back();
      Stack.pop_back();
      if (PreOf[C] != UINT32_MAX)
        continue;
      PreOf[C] = NextPre;
      ClassAtPre[NextPre] = C;
      ++NextPre;
      std::span<const ClassId> Kids = Classes[C].Children;
      for (size_t I = Kids.size(); I-- > 0;)
        Stack.push_back(Kids[I].value());
    }
    assert(NextPre == N && "unreachable class in hierarchy");
  }

  IdOrderIsPreorder = true;
  for (unsigned I = 0; I != N; ++I)
    if (PreOf[I] != I) {
      IdOrderIsPreorder = false;
      break;
    }

  // Cone intervals, bottom-up: cone(C) = {PreOf[C]} ∪ ⋃ cone(children).
  // Children always have larger ids than parents (addClass requires
  // parents to exist), so reverse id order sees complete child cones.
  // In a tree every cone coalesces to the single interval
  // [PreOf[C], PreOf[C] + |subtree|); only inheritance diamonds add
  // extra intervals (a multi-parent class's subtree is numbered under
  // its first-visit parent and appears as a separate interval in the
  // others' cones).
  //
  // The pool fills in reverse id order: class C's intervals land at
  // ConePool[ConeBegin[C + 1] .. ConeBegin[C]), ConeBegin[N] being 0.
  // Reversing the pool and then each class's run afterwards puts it in
  // id order, with C's run starting at the old size - ConeBegin[C].
  ConePool.clear();
  ConeBegin.assign(N + 1, 0);
  std::vector<ClassSet::Range> Gather;
  for (unsigned I = N; I-- > 0;) {
    Gather.clear();
    Gather.push_back({PreOf[I], PreOf[I] + 1});
    for (ClassId Child : Classes[I].Children) {
      const uint32_t C = Child.value();
      Gather.insert(Gather.end(), ConePool.begin() + ConeBegin[C + 1],
                    ConePool.begin() + ConeBegin[C]);
    }
    std::sort(Gather.begin(), Gather.end(),
              [](const ClassSet::Range &A, const ClassSet::Range &B) {
                return A.Lo < B.Lo || (A.Lo == B.Lo && A.Hi < B.Hi);
              });
    const size_t Start = ConePool.size();
    for (const ClassSet::Range &Rg : Gather) {
      if (ConePool.size() != Start && ConePool.back().Hi >= Rg.Lo) {
        if (Rg.Hi > ConePool.back().Hi)
          ConePool.back().Hi = Rg.Hi;
      } else {
        ConePool.push_back(Rg);
      }
    }
    ConeBegin[I] = static_cast<uint32_t>(ConePool.size());
  }
  const uint32_t Total = static_cast<uint32_t>(ConePool.size());
  std::reverse(ConePool.begin(), ConePool.end());
  for (uint32_t &B : ConeBegin)
    B = Total - B;
  for (unsigned I = 0; I != N; ++I)
    std::reverse(ConePool.begin() + ConeBegin[I],
                 ConePool.begin() + ConeBegin[I + 1]);

  UniverseSet = ClassSet::all(N);

  // Object layouts: inherited slots in parent order, then own slots, with
  // duplicates (diamond inheritance) appearing once.  Parents have
  // smaller ids, so their layouts are pooled first; they are read by
  // index because the pool may move as it grows.
  LayoutPool.clear();
  for (unsigned I = 0; I != N; ++I) {
    const size_t Start = LayoutPool.size();
    Begin[I] = static_cast<uint32_t>(Start);
    auto AppendUnique = [&](Symbol S) {
      if (std::find(LayoutPool.begin() + Start, LayoutPool.end(), S) ==
          LayoutPool.end())
        LayoutPool.push_back(S);
    };
    for (ClassId P : Classes[I].Parents)
      for (uint32_t K = Begin[P.value()]; K != Begin[P.value() + 1]; ++K)
        AppendUnique(LayoutPool[K]);
    for (Symbol S : Classes[I].OwnSlots)
      AppendUnique(S);
    Begin[I + 1] = static_cast<uint32_t>(LayoutPool.size());
  }
  for (unsigned I = 0; I != N; ++I)
    Classes[I].Layout = {LayoutPool.data() + Begin[I],
                         Begin[I + 1] - Begin[I]};

  Finalized = true;
  ++FinalizeGen;

  static metrics::Counter &Finalizes = metrics::named("hierarchy.finalizes");
  static metrics::Counter &NumClasses = metrics::named("hierarchy.classes");
  static metrics::Counter &ConeIntervals =
      metrics::named("hierarchy.cone_intervals");
  static metrics::Counter &IndexBytes =
      metrics::named("hierarchy.cone_index_bytes");
  Finalizes.add();
  NumClasses.set(N);
  ConeIntervals.set(ConePool.size());
  IndexBytes.set(coneIndexBytes());
}

void ClassHierarchy::finalizeViolation(const char *Query) const {
  std::fprintf(stderr,
               "fatal: ClassHierarchy::%s queried %s (finalize generation "
               "%llu); call finalize() first\n",
               Query,
               FinalizeGen == 0 ? "before finalize()"
                                : "after addClass invalidated finalize()",
               static_cast<unsigned long long>(FinalizeGen));
  std::fflush(stderr);
  std::abort();
}

std::vector<ClassSet::Range>
ClassHierarchy::preorderRuns(const ClassSet &S) const {
  requireFinalized("preorderRuns");
  std::vector<ClassSet::Range> Runs = S.runs();
  if (IdOrderIsPreorder)
    return Runs;
  // Consecutive ids are often consecutive in preorder too, so extend a
  // preorder run while they are, then sort and merge the runs.
  std::vector<ClassSet::Range> Pre;
  for (const ClassSet::Range &Rg : Runs)
    for (uint32_t C = Rg.Lo; C != Rg.Hi; ++C) {
      const uint32_t At = PreOf[C];
      if (!Pre.empty() && Pre.back().Hi == At)
        ++Pre.back().Hi;
      else
        Pre.push_back({At, At + 1});
    }
  std::sort(Pre.begin(), Pre.end(),
            [](const ClassSet::Range &A, const ClassSet::Range &B) {
              return A.Lo < B.Lo;
            });
  size_t Kept = 0;
  for (const ClassSet::Range &Rg : Pre)
    if (Kept != 0 && Pre[Kept - 1].Hi == Rg.Lo)
      Pre[Kept - 1].Hi = Rg.Hi;
    else
      Pre[Kept++] = Rg;
  Pre.resize(Kept);
  return Pre;
}

ClassSet ClassHierarchy::cone(ClassId C) const {
  requireFinalized("cone");
  assert(C.isValid() && C.value() < size() && "class out of range");
  uint32_t Begin = ConeBegin[C.value()], End = ConeBegin[C.value() + 1];
  std::vector<ClassSet::Range> Rs(ConePool.begin() + Begin,
                                  ConePool.begin() + End);
  if (IdOrderIsPreorder)
    return ClassSet::fromRuns(size(), std::move(Rs));
  // Preorder intervals name preorder positions; translate to ClassId
  // space before building the set.
  std::vector<uint32_t> Ids;
  Ids.reserve(coneSize(C));
  for (const ClassSet::Range &Rg : Rs)
    for (uint32_t P = Rg.Lo; P != Rg.Hi; ++P)
      Ids.push_back(ClassAtPre[P]);
  std::sort(Ids.begin(), Ids.end());
  std::vector<ClassSet::Range> Runs;
  for (uint32_t V : Ids) {
    if (!Runs.empty() && Runs.back().Hi == V)
      Runs.back().Hi = V + 1;
    else
      Runs.push_back({V, V + 1});
  }
  return ClassSet::fromRuns(size(), std::move(Runs));
}

unsigned ClassHierarchy::coneSize(ClassId C) const {
  requireFinalized("coneSize");
  unsigned N = 0;
  for (uint32_t I = ConeBegin[C.value()], E = ConeBegin[C.value() + 1];
       I != E; ++I)
    N += ConePool[I].Hi - ConePool[I].Lo;
  return N;
}

size_t ClassHierarchy::coneIndexBytes() const {
  return PreOf.size() * sizeof(uint32_t) +
         ClassAtPre.size() * sizeof(uint32_t) +
         ConeBegin.size() * sizeof(uint32_t) +
         ConePool.size() * sizeof(ClassSet::Range);
}

int ClassHierarchy::slotIndex(ClassId C, Symbol SlotName) const {
  requireFinalized("slotIndex");
  std::span<const Symbol> Layout = Classes[C.value()].Layout;
  auto It = std::find(Layout.begin(), Layout.end(), SlotName);
  return It == Layout.end() ? -1 : static_cast<int>(It - Layout.begin());
}

std::string ClassHierarchy::setToString(const ClassSet &S,
                                        const SymbolTable &Syms) const {
  std::ostringstream OS;
  OS << '{';
  bool First = true;
  for (ClassId C : S.members()) {
    if (!First)
      OS << ',';
    First = false;
    OS << Syms.name(info(C).Name);
  }
  OS << '}';
  return OS.str();
}
