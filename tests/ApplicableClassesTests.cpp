//===- tests/ApplicableClassesTests.cpp - CHA ApplicableClasses ------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/ApplicableClasses.h"
#include "analysis/StaticBinding.h"
#include "hierarchy/Builtins.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace selspec;
using namespace selspec::test;

namespace {

/// Finds method "g(Spec1,...)" by label.
MethodId findMethod(const Program &P, const std::string &Label) {
  for (unsigned MI = 0; MI != P.numMethods(); ++MI)
    if (P.methodLabel(MethodId(MI)) == Label)
      return MethodId(MI);
  ADD_FAILURE() << "no method labeled " << Label;
  return MethodId();
}

ClassSet namedSet(const Program &P, std::initializer_list<const char *> Names) {
  ClassSet S(P.Classes.size());
  for (const char *N : Names) {
    ClassId C = P.Classes.lookup(P.Syms.find(N));
    EXPECT_TRUE(C.isValid()) << "unknown class " << N;
    S.insert(C);
  }
  return S;
}

} // namespace

TEST(ApplicableClasses, SingleDispatchConesMinusOverrides) {
  // The paper's m() structure: a method on the root of a subtree is
  // applicable to its cone minus the cones of overriding methods.
  std::unique_ptr<Program> P = buildProgram({R"(
    class A; class B isa A; class C isa A;
    class D isa B; class E isa B;
    method m(x@A) { 1; }
    method m(x@E) { 2; }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);

  MethodId MA = findMethod(*P, "m(A)");
  MethodId ME = findMethod(*P, "m(E)");
  EXPECT_EQ(AC.of(MA)[0], namedSet(*P, {"A", "B", "C", "D"}));
  EXPECT_EQ(AC.of(ME)[0], namedSet(*P, {"E"}));
}

TEST(ApplicableClasses, UnspecializedFormalIsUniverse) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A;
    method f(x@A, y) { y; }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  MethodId M = findMethod(*P, "f(A,Any)");
  EXPECT_FALSE(AC.of(M)[0].isAll());
  EXPECT_TRUE(AC.of(M)[1].isAll());
}

TEST(ApplicableClasses, MultiMethodExactProjection) {
  // With multi-methods a class can stay in a general method's set at one
  // position even though a more specific method exists, because tuples
  // with other second arguments still invoke the general method.
  std::unique_ptr<Program> P = buildProgram({R"(
    class A; class B isa A;
    method g(x@A, y@A) { 1; }
    method g(x@B, y@B) { 2; }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  MethodId GA = findMethod(*P, "g(A,A)");
  MethodId GB = findMethod(*P, "g(B,B)");

  // g(A,A) is still invoked with x=B (when y=A), so B stays in position 0.
  EXPECT_EQ(AC.of(GA)[0], namedSet(*P, {"A", "B"}));
  EXPECT_EQ(AC.of(GA)[1], namedSet(*P, {"A", "B"}));
  EXPECT_EQ(AC.of(GB)[0], namedSet(*P, {"B"}));
  EXPECT_EQ(AC.of(GB)[1], namedSet(*P, {"B"}));
}

TEST(ApplicableClasses, FullyShadowedPositionRemoved) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A; class B isa A;
    method h(x@A) { 1; }
    method h(x@B) { 2; }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  EXPECT_EQ(AC.of(findMethod(*P, "h(A)"))[0], namedSet(*P, {"A"}));
  EXPECT_EQ(AC.of(findMethod(*P, "h(B)"))[0], namedSet(*P, {"B"}));
}

TEST(ApplicableClasses, DispatchedPositions) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A;
    method p(x@A, y, z@A) { 1; }
    method q(x, y) { 1; }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  GenericId GP = P->lookupGeneric(P->Syms.find("p"), 3);
  GenericId GQ = P->lookupGeneric(P->Syms.find("q"), 2);
  EXPECT_EQ(AC.dispatchedPositions(GP), (std::vector<unsigned>{0, 2}));
  EXPECT_TRUE(AC.dispatchedPositions(GQ).empty());
}

TEST(ApplicableClasses, MatchesBruteForceOnPaperPrograms) {
  // Every generic of the Table 2 programs against the oracle that runs
  // Program::dispatch on every class tuple.  compiler.mica's combineIf
  // and compileApp dispatch on three positions (66^3 tuples); their
  // general methods lose the one subclass a sibling method takes at
  // position 0.
  const struct {
    const char *Name;
    std::vector<std::string> Files;
  } Cases[] = {
      {"richards", {"richards.mica"}},
      {"instsched", {"instsched.mica"}},
      {"typechecker", {"minilang.mica", "typechecker.mica"}},
      {"compiler", {"minilang.mica", "compiler.mica"}},
  };
  for (const auto &Case : Cases) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromFiles(Case.Files, Err);
    ASSERT_TRUE(W) << Case.Name << ": " << Err;
    const Program &P = W->program();
    for (unsigned GI = 0; GI != P.numGenerics(); ++GI) {
      const GenericId G(GI);
      expectApplicableClassesAreOracle(
          W->applicableClasses(), G,
          std::string(Case.Name) + " " + P.Syms.name(P.generic(G).Name));
    }
    if (std::string(Case.Name) != "compiler")
      continue;
    for (const char *Label : {"combineIf(Exp,Exp,Exp)",
                              "compileApp(Exp,Exp,Vector)"}) {
      const std::vector<ClassSet> &Tuple =
          W->applicableClasses().of(findMethod(P, Label));
      EXPECT_EQ(Tuple[0].count(), 18u) << Label;
      EXPECT_EQ(Tuple[0].count() + 1,
                P.Classes.cone(P.Classes.lookup(P.Syms.find("Exp"))).count())
          << Label;
    }
  }
}

TEST(ApplicableClasses, ExactPastSixtyFiveThousandTuples) {
  // 258 classes under A put a generic dispatched on two positions past
  // 65,536 class tuples.  g(B, A) takes every tuple whose first argument
  // is B, so g(A, A) never sees B there, and a send whose arguments are
  // exactly a B and an A has one possible target.
  std::string Src = "class A; class B isa A;\n";
  for (unsigned I = 0; I != 256; ++I)
    Src += "class C" + std::to_string(I) + " isa A;\n";
  Src += R"(
    method g(x@A, y@A) { 1; }
    method g(x@B, y@A) { 2; }
    method main(n@Int) { print(g(new B, new A)); }
  )";
  std::unique_ptr<Program> P = buildProgram({Src});
  ASSERT_TRUE(P);
  const unsigned U = P->Classes.size();
  ASSERT_GT(uint64_t(U) * U, uint64_t(1) << 16);
  ApplicableClassesAnalysis AC(*P);
  GenericId G = P->lookupGeneric(P->Syms.find("g"), 2);
  EXPECT_EQ(AC.dispatchedPositions(G), (std::vector<unsigned>{0, 1}));

  const ClassId A = P->Classes.lookup(P->Syms.find("A"));
  const ClassId B = P->Classes.lookup(P->Syms.find("B"));
  ClassSet ConeAWithoutB = P->Classes.cone(A);
  ConeAWithoutB.remove(B);
  MethodId GA = findMethod(*P, "g(A,A)");
  MethodId GB = findMethod(*P, "g(B,A)");
  EXPECT_EQ(AC.of(GA)[0], ConeAWithoutB);
  EXPECT_EQ(AC.of(GA)[1], P->Classes.cone(A));
  EXPECT_EQ(AC.of(GB)[0], namedSet(*P, {"B"}));
  EXPECT_EQ(AC.of(GB)[1], P->Classes.cone(A));
  expectApplicableClassesAreOracle(AC, G, "g");

  const std::vector<ClassSet> Sends = {namedSet(*P, {"B"}),
                                       namedSet(*P, {"A"})};
  EXPECT_EQ(uniqueTarget(AC, G, Sends), GB);
  // CHA binds that send, so the run dispatches nothing.
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::CHA);
  std::string Out;
  RunStats Stats = runMain(*CP, 1, &Out);
  EXPECT_EQ(Out, "2\n");
  EXPECT_EQ(Stats.DynamicDispatches, 0u);
}

TEST(StaticBinding, UniqueTargetRequiresOneIntersection) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A; class B isa A; class C isa A;
    method m(x@B) { 1; }
    method m(x@C) { 2; }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  GenericId G = P->lookupGeneric(P->Syms.find("m"), 1);

  std::vector<ClassSet> JustB = {namedSet(*P, {"B"})};
  std::vector<ClassSet> BorC = {namedSet(*P, {"B", "C"})};
  EXPECT_TRUE(uniqueTarget(AC, G, JustB).isValid());
  EXPECT_FALSE(uniqueTarget(AC, G, BorC).isValid());
  EXPECT_EQ(possibleTargets(AC, G, BorC).size(), 2u);

  // A alone understands no m: no targets.
  std::vector<ClassSet> JustA = {namedSet(*P, {"A"})};
  EXPECT_TRUE(possibleTargets(AC, G, JustA).empty());
}
