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
                                 const std::vector<ClassId> &Parents,
                                 std::vector<Symbol> OwnSlots) {
  if (ByName.count(Name))
    return ClassId();
  ClassId Id(static_cast<uint32_t>(Classes.size()));
  ClassInfo Info;
  Info.Name = Name;
  Info.OwnSlots = std::move(OwnSlots);
  if (Parents.empty()) {
    // Only the root may be parentless; others implicitly subclass Any.
    if (Id != ClassId(0))
      Info.Parents.push_back(ClassId(0));
  } else {
    Info.Parents = Parents;
  }
  for (ClassId P : Info.Parents) {
    assert(P.isValid() && P.value() < Classes.size() && "unknown parent");
    Classes[P.value()].Children.push_back(Id);
  }
  Classes.push_back(std::move(Info));
  ByName.emplace(Name, Id);
  Finalized = false;
  return Id;
}

ClassId ClassHierarchy::lookup(Symbol Name) const {
  auto It = ByName.find(Name);
  return It == ByName.end() ? ClassId() : It->second;
}

void ClassHierarchy::finalize() {
  unsigned N = size();

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
      const std::vector<ClassId> &Kids = Classes[C].Children;
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
  std::vector<std::vector<ClassSet::Range>> ConeRanges(N);
  for (unsigned I = N; I-- > 0;) {
    std::vector<ClassSet::Range> Gather;
    Gather.push_back({PreOf[I], PreOf[I] + 1});
    for (ClassId Child : Classes[I].Children) {
      const auto &CR = ConeRanges[Child.value()];
      Gather.insert(Gather.end(), CR.begin(), CR.end());
    }
    std::sort(Gather.begin(), Gather.end(),
              [](const ClassSet::Range &A, const ClassSet::Range &B) {
                return A.Lo < B.Lo || (A.Lo == B.Lo && A.Hi < B.Hi);
              });
    std::vector<ClassSet::Range> &Out = ConeRanges[I];
    for (const ClassSet::Range &Rg : Gather) {
      if (!Out.empty() && Out.back().Hi >= Rg.Lo) {
        if (Rg.Hi > Out.back().Hi)
          Out.back().Hi = Rg.Hi;
      } else {
        Out.push_back(Rg);
      }
    }
  }

  ConeBegin.assign(N + 1, 0);
  for (unsigned I = 0; I != N; ++I)
    ConeBegin[I + 1] =
        ConeBegin[I] + static_cast<uint32_t>(ConeRanges[I].size());
  ConePool.clear();
  ConePool.reserve(ConeBegin[N]);
  for (unsigned I = 0; I != N; ++I)
    ConePool.insert(ConePool.end(), ConeRanges[I].begin(),
                    ConeRanges[I].end());

  UniverseSet = ClassSet::all(N);

  // Object layouts: inherited slots in parent order, then own slots, with
  // duplicates (diamond inheritance) appearing once.
  SlotIndex.assign(N, {});
  for (unsigned I = 0; I != N; ++I) {
    ClassInfo &Info = Classes[I];
    Info.Layout.clear();
    auto AppendUnique = [&](Symbol S) {
      if (std::find(Info.Layout.begin(), Info.Layout.end(), S) ==
          Info.Layout.end())
        Info.Layout.push_back(S);
    };
    for (ClassId P : Info.Parents)
      for (Symbol S : Classes[P.value()].Layout)
        AppendUnique(S);
    for (Symbol S : Info.OwnSlots)
      AppendUnique(S);
    for (size_t SI = 0; SI != Info.Layout.size(); ++SI)
      SlotIndex[I].emplace(Info.Layout[SI], static_cast<int>(SI));
  }

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
  const auto &Map = SlotIndex[C.value()];
  auto It = Map.find(SlotName);
  return It == Map.end() ? -1 : It->second;
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
