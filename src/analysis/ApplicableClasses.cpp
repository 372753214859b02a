//===- analysis/ApplicableClasses.cpp - CHA ApplicableClasses --------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/ApplicableClasses.h"

#include "runtime/DispatchTable.h"

#include <algorithm>
#include <utility>

using namespace selspec;

ApplicableClassesAnalysis::ApplicableClassesAnalysis(const Program &P)
    : P(P) {
  const unsigned Universe = P.Classes.size();
  PerMethod.resize(P.numMethods());
  DispatchedPos.resize(P.numGenerics());
  // Runs[m]: method m's classes at the position being projected, as runs
  // in ClassId order.
  std::vector<std::vector<ClassSet::Range>> Runs(P.numMethods());

  for (unsigned GI = 0; GI != P.numGenerics(); ++GI) {
    const GenericInfo &G = P.generic(GenericId(GI));
    const DispatchTable T(P, G.Id);
    const std::vector<unsigned> &Pos = DispatchedPos[GI] = T.positions();

    // Every tuple starts as the cones of the method's specializers: exact
    // at undispatched positions, and sound everywhere when the table was
    // not materialized.
    for (MethodId M : G.Methods)
      for (ClassId Spec : P.method(M).Specializers)
        PerMethod[M.value()].push_back(P.Classes.cone(Spec));
    if (!T.materialized())
      continue;

    // One representative class per group, and Invokers[i][g]: the methods
    // invoked by some cell whose group at dispatched position i is g.
    std::vector<std::vector<ClassId>> Representative(Pos.size());
    std::vector<std::vector<std::vector<MethodId>>> Invokers(Pos.size());
    for (size_t PI = 0; PI != Pos.size(); ++PI) {
      Representative[PI].resize(T.numGroups(PI));
      Invokers[PI].resize(T.numGroups(PI));
      for (unsigned C = 0; C != Universe; ++C)
        Representative[PI][T.group(PI, ClassId(C))] = ClassId(C);
    }
    std::vector<ClassId> Args(G.Arity, P.Classes.root());
    std::vector<uint32_t> Cursor(Pos.size(), 0);
    for (size_t Cell = 0; Cell != T.tableSize(); ++Cell) {
      for (size_t PI = 0; PI != Pos.size(); ++PI)
        Args[Pos[PI]] = Representative[PI][Cursor[PI]];
      if (MethodId M = T.lookup(Args); M.isValid())
        for (size_t PI = 0; PI != Pos.size(); ++PI) {
          std::vector<MethodId> &In = Invokers[PI][Cursor[PI]];
          if (std::find(In.begin(), In.end(), M) == In.end())
            In.push_back(M);
        }
      for (size_t PI = 0;
           PI != Cursor.size() && ++Cursor[PI] == T.numGroups(PI); ++PI)
        Cursor[PI] = 0;
    }

    // A method's set at a dispatched position is the union of the groups
    // its cells name there.
    for (size_t PI = 0; PI != Pos.size(); ++PI) {
      for (unsigned C = 0; C != Universe; ++C)
        for (MethodId M : Invokers[PI][T.group(PI, ClassId(C))]) {
          std::vector<ClassSet::Range> &R = Runs[M.value()];
          if (!R.empty() && R.back().Hi == C)
            ++R.back().Hi;
          else
            R.push_back({C, C + 1});
        }
      for (MethodId M : G.Methods)
        PerMethod[M.value()][Pos[PI]] =
            ClassSet::fromRuns(Universe, std::exchange(Runs[M.value()], {}));
    }
  }
}
