//===- specialize/SelectiveSpecializer.cpp - Figure 4 algorithm ------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "specialize/SelectiveSpecializer.h"

#include "analysis/StaticBinding.h"
#include "opt/ClassAnalysis.h"
#include "support/TraceEmitter.h"

#include <algorithm>

using namespace selspec;

SelectiveSpecializer::SelectiveSpecializer(
    const Program &P, const ApplicableClassesAnalysis &AC,
    const PassThroughAnalysis &PT, const CallGraph &CG,
    SelectiveOptions Options)
    : P(P), AC(AC), PT(PT), CG(CG), Options(Options) {
  // specializeProgram's initialization: Specializations[meth] :=
  // ApplicableClasses[meth] (the single general-purpose version).
  Specializations.resize(P.numMethods());
  for (unsigned MI = 0; MI != P.numMethods(); ++MI) {
    if (P.method(MethodId(MI)).isBuiltin())
      continue;
    Specializations[MI].push_back(AC.of(MethodId(MI)));
  }

  ArcsFrom.resize(P.numMethods());
  ArcsTo.resize(P.numMethods());
  for (const Arc &A : CG.arcs()) {
    ArcsFrom[A.Caller.value()].push_back(A);
    ArcsTo[A.Callee.value()].push_back(A);
  }
  // Visit a method's arcs hottest-first so that, if the per-method version
  // cap bites, the most profitable specializations survive.
  for (std::vector<Arc> &Arcs : ArcsFrom)
    std::stable_sort(Arcs.begin(), Arcs.end(),
                     [](const Arc &A, const Arc &B) {
                       return A.Weight > B.Weight;
                     });
}

bool SelectiveSpecializer::siteIsDynamic(const Arc &A) const {
  // Build the caller's per-argument class sets at the site: pass-through
  // positions carry the caller's ApplicableClasses set, everything else is
  // unknown (the universe).
  const CallSiteInfo &Site = P.callSite(A.Site);
  const SendExpr *Send = Site.Send;
  unsigned Arity = static_cast<unsigned>(Send->Args.size());
  ClassSet Universe = P.Classes.allClasses();
  std::vector<ClassSet> ArgSets(Arity, Universe);
  const SpecTuple &CallerInfo = AC.of(A.Caller);
  for (auto [F, Actual] : PT.at(A.Site))
    ArgSets[Actual] = CallerInfo[F];
  return possibleTargets(AC, Send->Generic, ArgSets).size() > 1;
}

SpecTuple
SelectiveSpecializer::neededInfoForArc(const Arc &A,
                                       const SpecTuple &CalleeInfo) const {
  SpecTuple Needed = AC.of(A.Caller);
  for (auto [F, Actual] : PT.at(A.Site))
    Needed[F] &= CalleeInfo[Actual];
  return Needed;
}

SpecTuple SelectiveSpecializer::neededInfoForArc(const Arc &A) const {
  return neededInfoForArc(A, AC.of(A.Callee));
}

bool SelectiveSpecializer::isSpecializableArc(const Arc &A) const {
  if (P.method(A.Caller).isBuiltin())
    return false;
  if (PT.at(A.Site).empty())
    return false;
  if (tupleEquals(neededInfoForArc(A), AC.of(A.Caller)))
    return false;
  return siteIsDynamic(A);
}

bool SelectiveSpecializer::hasSpecialization(MethodId Meth,
                                             const SpecTuple &T) const {
  for (const SpecTuple &Existing : Specializations[Meth.value()])
    if (tupleEquals(Existing, T))
      return true;
  return false;
}

void SelectiveSpecializer::run() {
  assert(!Ran && "run() must be called once");
  Ran = true;
  TraceEmitter::Scope Timing("specialize");

  if (Options.SpaceBudgetVersions == 0) {
    // Figure 4: visit each method, considering its outgoing arcs.
    for (unsigned MI = 0; MI != P.numMethods(); ++MI)
      specializeMethod(MethodId(MI));
  } else {
    // Section 3.4 alternatives: specialize under a fixed space budget, in
    // decreasing order of either raw arc weight or estimated
    // benefit-per-cost.
    std::vector<Arc> All = CG.arcs();
    if (!Options.UseBenefitCostOrder) {
      std::stable_sort(All.begin(), All.end(),
                       [](const Arc &A, const Arc &B) {
                         return A.Weight > B.Weight;
                       });
    } else {
      std::vector<double> Score(All.size(), 0.0);
      for (size_t I = 0; I != All.size(); ++I) {
        if (!isSpecializableArc(All[I]))
          continue;
        // Benefit: total weight of the caller's specializable arcs whose
        // own needed-info the candidate tuple already provides (their
        // sites would bind too inside the specialized version).
        SpecTuple Spec = neededInfoForArc(All[I]);
        uint64_t Benefit = 0;
        for (const Arc &Other : ArcsFrom[All[I].Caller.value()])
          if (isSpecializableArc(Other) &&
              tupleSubsetOf(Spec, neededInfoForArc(Other)))
            Benefit += Other.Weight;
        // Cost: the body we would duplicate.
        const MethodInfo &Caller = P.method(All[I].Caller);
        unsigned Cost =
            Caller.Body ? countNodes(Caller.Body.get()) : 1;
        Score[I] = static_cast<double>(Benefit) / Cost;
      }
      std::vector<size_t> Order(All.size());
      for (size_t I = 0; I != Order.size(); ++I)
        Order[I] = I;
      std::stable_sort(Order.begin(), Order.end(),
                       [&](size_t A, size_t B) {
                         return Score[A] > Score[B];
                       });
      std::vector<Arc> Sorted;
      Sorted.reserve(All.size());
      for (size_t I : Order)
        Sorted.push_back(All[I]);
      All = std::move(Sorted);
    }
    for (const Arc &A : All) {
      if (BudgetUsed >= Options.SpaceBudgetVersions)
        break;
      if (isSpecializableArc(A))
        addSpecialization(A.Caller, neededInfoForArc(A));
    }
  }

  // Final statistics.
  for (unsigned MI = 0; MI != P.numMethods(); ++MI) {
    unsigned N = static_cast<unsigned>(Specializations[MI].size());
    if (N > 1) {
      ++S.MethodsSpecialized;
      S.VersionsAdded += N - 1;
    }
    S.MaxVersionsOfAMethod = std::max(S.MaxVersionsOfAMethod, N);
  }
}

void SelectiveSpecializer::specializeMethod(MethodId Meth) {
  for (const Arc &A : ArcsFrom[Meth.value()]) {
    if (!isSpecializableArc(A))
      continue;
    if (A.Weight > Options.SpecializationThreshold)
      addSpecialization(Meth, neededInfoForArc(A));
  }
}

void SelectiveSpecializer::addSpecialization(MethodId Meth,
                                             const SpecTuple &Spec) {
  std::vector<SpecTuple> &Specs = Specializations[Meth.value()];
  if (Specs.size() >= Options.MaxVersionsPerMethod) {
    ++S.BlowupGuardHits;
    return;
  }

  // Combine with every previously-computed tuple (including the general
  // one), covering all plausible combinations of arc specializations
  // (Section 3.2).  Snapshot first: new tuples must not combine with
  // themselves in the same pass.
  std::vector<SpecTuple> NewTuples;
  size_t SnapshotSize = Specs.size();
  for (size_t I = 0; I != SnapshotSize; ++I) {
    if (!tupleIntersects(Specs[I], Spec))
      continue; // a component would be empty: drop
    SpecTuple Inter = tupleIntersect(Specs[I], Spec);
    if (!hasSpecialization(Meth, Inter)) {
      bool Duplicate = false;
      for (const SpecTuple &T : NewTuples)
        if (tupleEquals(T, Inter))
          Duplicate = true;
      if (!Duplicate)
        NewTuples.push_back(std::move(Inter));
    }
  }

  for (SpecTuple &T : NewTuples) {
    if (Specs.size() >= Options.MaxVersionsPerMethod) {
      ++S.BlowupGuardHits;
      break;
    }
    Specs.push_back(T);
    ++BudgetUsed;
    if (Options.CascadeSpecializations)
      for (const Arc &A : ArcsTo[Meth.value()])
        cascadeSpecializations(A, T);
  }
}

void SelectiveSpecializer::cascadeSpecializations(const Arc &A,
                                                  const SpecTuple &CalleeSpec) {
  if (P.method(A.Caller).isBuiltin())
    return;
  if (PT.at(A.Site).empty())
    return;
  // The arc must already be statically bound with respect to its
  // pass-through arguments (no sharpening possible) — dynamically-bound
  // arcs are handled by regular specializeMethod.
  if (!tupleEquals(AC.of(A.Caller), neededInfoForArc(A)))
    return;
  if (A.Weight <= Options.SpecializationThreshold &&
      Options.SpaceBudgetVersions == 0)
    return;
  SpecTuple CallerSpec = neededInfoForArc(A, CalleeSpec);
  if (!tupleNonEmpty(CallerSpec))
    return;
  if (hasSpecialization(A.Caller, CallerSpec))
    return;
  ++S.CascadedSpecializations;
  addSpecialization(A.Caller, CallerSpec);
}
