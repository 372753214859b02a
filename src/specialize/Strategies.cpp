//===- specialize/Strategies.cpp - Table 1 configurations ------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "specialize/Strategies.h"

#include "support/TraceEmitter.h"

using namespace selspec;

namespace {

/// Base and CHA: one general version per user method.
void planGeneral(const Program &P, const ApplicableClassesAnalysis &AC,
                 SpecializationPlan &Plan) {
  for (unsigned MI = 0; MI != P.numMethods(); ++MI) {
    MethodId M(MI);
    if (P.method(M).isBuiltin())
      continue;
    Plan.VersionsByMethod[MI].push_back(AC.of(M));
  }
}

/// Cust: a version per receiver class inheriting the method; the receiver
/// class is always exact, so no general version remains (Self-style
/// customization).  Methods never invoked keep their general version so
/// the program still compiles one routine for them.
void planCustomization(const Program &P, const ApplicableClassesAnalysis &AC,
                       SpecializationPlan &Plan) {
  for (unsigned MI = 0; MI != P.numMethods(); ++MI) {
    MethodId M(MI);
    const MethodInfo &Info = P.method(M);
    if (Info.isBuiltin())
      continue;
    const SpecTuple &General = AC.of(M);
    std::vector<SpecTuple> &Versions = Plan.VersionsByMethod[MI];
    if (Info.arity() == 0 || General.empty() || General[0].isEmpty()) {
      Versions.push_back(General);
      continue;
    }
    for (ClassId C : General[0].members()) {
      SpecTuple T = General;
      T[0] = ClassSet::single(P.Classes.size(), C);
      Versions.push_back(std::move(T));
    }
  }
}

/// Cust-MM: a version per combination of classes of the *dispatched*
/// argument positions of the method's generic (within the method's
/// ApplicableClasses sets).
void planCustomizationMM(const Program &P, const ApplicableClassesAnalysis &AC,
                         SpecializationPlan &Plan) {
  for (unsigned MI = 0; MI != P.numMethods(); ++MI) {
    MethodId M(MI);
    const MethodInfo &Info = P.method(M);
    if (Info.isBuiltin())
      continue;
    const SpecTuple &General = AC.of(M);
    std::vector<SpecTuple> &Versions = Plan.VersionsByMethod[MI];

    const std::vector<unsigned> &Pos = AC.dispatchedPositions(Info.Generic);
    if (Pos.empty()) {
      Versions.push_back(General);
      continue;
    }
    // Odometer over the members of each dispatched position's set.
    std::vector<std::vector<ClassId>> Members;
    bool AnyEmpty = false;
    for (unsigned I : Pos) {
      Members.push_back(General[I].members());
      AnyEmpty |= Members.back().empty();
    }
    if (AnyEmpty) { // dead method: keep the general version only
      Versions.push_back(General);
      continue;
    }
    std::vector<size_t> Cursor(Pos.size(), 0);
    for (;;) {
      SpecTuple T = General;
      for (size_t I = 0; I != Pos.size(); ++I)
        T[Pos[I]] =
            ClassSet::single(P.Classes.size(), Members[I][Cursor[I]]);
      Versions.push_back(std::move(T));

      size_t K = 0;
      while (K != Cursor.size() && ++Cursor[K] == Members[K].size()) {
        Cursor[K] = 0;
        ++K;
      }
      if (K == Cursor.size())
        break;
    }
  }
}

} // namespace

SpecializationPlan selspec::makePlan(Config C, const Program &P,
                                     const ApplicableClassesAnalysis &AC,
                                     const PassThroughAnalysis &PT,
                                     const CallGraph *CG,
                                     const SelectiveOptions &Options,
                                     Diagnostics *Diags) {
  TraceEmitter::Scope Timing("plan");
  SpecializationPlan Plan;
  Plan.Configuration = C;
  Plan.VersionsByMethod.resize(P.numMethods());

  switch (C) {
  case Config::Base:
    Plan.UseCHA = false;
    planGeneral(P, AC, Plan);
    break;
  case Config::CHA:
    Plan.UseCHA = true;
    planGeneral(P, AC, Plan);
    break;
  case Config::Cust:
    Plan.UseCHA = false;
    planCustomization(P, AC, Plan);
    break;
  case Config::CustMM:
    Plan.UseCHA = false;
    planCustomizationMM(P, AC, Plan);
    break;
  case Config::Selective: {
    Plan.UseCHA = true;
    if (!CG || CG->empty()) {
      // Missing or invalidated profile: degrade to CHA (general versions)
      // rather than specializing on garbage or asserting.
      if (Diags)
        Diags->warning(SourceLoc(),
                       "Selective has no usable profile; "
                       "degrading to CHA (no specialization)");
      planGeneral(P, AC, Plan);
      break;
    }
    SelectiveSpecializer Specializer(P, AC, PT, *CG, Options);
    Specializer.run();
    for (unsigned MI = 0; MI != P.numMethods(); ++MI)
      Plan.VersionsByMethod[MI] = Specializer.specializations()[MI];
    break;
  }
  }
  return Plan;
}
