//===- tests/ExtensionsTests.cpp - §6 extensions and §3.5 tables -----------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the implemented extensions: interprocedural return-class
/// analysis (§6 "specializing callers for return values" enabler),
/// profile-guided type feedback (§6 combination with Hölzle & Ungar), and
/// compressed multi-method dispatch tables (§3.5).
///
//===----------------------------------------------------------------------===//

#include "analysis/ReturnClasses.h"
#include "runtime/DispatchTable.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace selspec;
using namespace selspec::test;

namespace {

MethodId findMethod(const Program &P, const std::string &Label) {
  for (unsigned MI = 0; MI != P.numMethods(); ++MI)
    if (P.methodLabel(MethodId(MI)) == Label)
      return MethodId(MI);
  ADD_FAILURE() << "no method " << Label;
  return MethodId();
}

ClassSet namedSet(const Program &P,
                  std::initializer_list<const char *> Names) {
  ClassSet S(P.Classes.size());
  for (const char *N : Names)
    S.insert(P.Classes.lookup(P.Syms.find(N)));
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// ReturnClassAnalysis
//===----------------------------------------------------------------------===//

TEST(ReturnClasses, LiteralsAndConstructors) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A; class B isa A;
    method makeB() { new B; }
    method makeNum(n@Int) { n + 1; }
    method makeEither(n@Int) { if (n > 0) { new A; } else { new B; } }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  ReturnClassAnalysis RC(*P, AC);

  EXPECT_EQ(RC.of(findMethod(*P, "makeB()")), namedSet(*P, {"B"}));
  EXPECT_EQ(RC.of(findMethod(*P, "makeNum(Int)")),
            namedSet(*P, {"Int"}));
  EXPECT_EQ(RC.of(findMethod(*P, "makeEither(Int)")),
            namedSet(*P, {"A", "B"}));
}

TEST(ReturnClasses, PropagatesThroughCalls) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A;
    method inner(n@Int) { new A; }
    method outer(n@Int) { inner(n); }
    method viaReturn(n@Int) {
      if (n > 0) { return inner(n); }
      42;
    }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  ReturnClassAnalysis RC(*P, AC);
  EXPECT_EQ(RC.of(findMethod(*P, "outer(Int)")), namedSet(*P, {"A"}));
  EXPECT_EQ(RC.of(findMethod(*P, "viaReturn(Int)")),
            namedSet(*P, {"A", "Int"}));
}

TEST(ReturnClasses, RecursionReachesFixpoint) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A; class B isa A;
    method ping(n@Int) { if (n > 0) { pong(n - 1); } else { new A; } }
    method pong(n@Int) { if (n > 0) { ping(n - 1); } else { new B; } }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  ReturnClassAnalysis RC(*P, AC);
  // Mutual recursion: both may return A or B (plus Nil is *not* possible:
  // every path produces a value).
  EXPECT_EQ(RC.of(findMethod(*P, "ping(Int)")), namedSet(*P, {"A", "B"}));
  EXPECT_EQ(RC.of(findMethod(*P, "pong(Int)")), namedSet(*P, {"A", "B"}));
  EXPECT_GE(RC.iterations(), 2u) << "fixpoint needed more than one pass";
}

TEST(ReturnClasses, NonLocalReturnsFromClosuresCounted) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A;
    method each(n@Int, body) {
      let i := 0;
      while (i < n) { body(i); i := i + 1; }
    }
    method findIt(n@Int) {
      each(n, fn(i) { if (i == 3) { return new A; } });
      0;
    }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  ReturnClassAnalysis RC(*P, AC);
  EXPECT_EQ(RC.of(findMethod(*P, "findIt(Int)")),
            namedSet(*P, {"A", "Int"}));
}

TEST(ReturnClasses, EnablesMoreStaticBinding) {
  // pick() returns only B or C; with return-class analysis the poke()
  // send binds... to nothing unique here, but the B-only path does.
  const char *Source = R"(
    class A; class B isa A; class C isa A;
    method onlyB(n@Int) { new B; }
    method poke(x@B) { 1; }
    method poke(x@C) { 2; }
    method use(n@Int) { poke(onlyB(n)); }
    method main(n@Int) { print(use(n)); }
  )";
  std::unique_ptr<Program> P = buildProgram({Source});
  ASSERT_TRUE(P);
  OptimizerOptions Plain;
  Plain.EnableInlining = false;
  OptimizerOptions WithRC = Plain;
  WithRC.UseReturnClasses = true;

  std::unique_ptr<CompiledProgram> CP1 =
      compileProgram(*P, Config::CHA, nullptr, {}, Plain);
  std::unique_ptr<CompiledProgram> CP2 =
      compileProgram(*P, Config::CHA, nullptr, {}, WithRC);

  std::string Out1, Out2;
  RunStats S1 = runMain(*CP1, 1, &Out1);
  RunStats S2 = runMain(*CP2, 1, &Out2);
  EXPECT_EQ(Out1, Out2);
  EXPECT_EQ(Out1, "1\n");
  // Without return classes the poke() send cannot be bound (onlyB's
  // result is unknown); with them it statically binds.
  EXPECT_LT(S2.totalDispatches(), S1.totalDispatches());
}

TEST(ReturnClasses, SemanticsPreservedOnBenchmarks) {
  for (const char *File : {"richards.mica", "instsched.mica"}) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromFiles({File}, Err);
    ASSERT_TRUE(W) << Err;
    OptimizerOptions WithRC;
    WithRC.UseReturnClasses = true;
    std::optional<ConfigResult> Plain =
        W->runConfig(Config::CHA, 8, Err);
    std::optional<ConfigResult> RC =
        W->runConfig(Config::CHA, 8, Err, {}, WithRC);
    ASSERT_TRUE(Plain && RC) << Err;
    EXPECT_EQ(Plain->Output, RC->Output) << File;
    EXPECT_LE(RC->Run.totalDispatches(), Plain->Run.totalDispatches())
        << File;
  }
}

//===----------------------------------------------------------------------===//
// Type feedback
//===----------------------------------------------------------------------===//

TEST(TypeFeedback, GuardsDominantCalleeAndFallsBack) {
  const char *Source = R"(
    class A; class B isa A; class C isa A;
    method tag(x@B) { 1; }
    method tag(x@C) { 2; }
    method pick(n@Int) { if (n % 10 == 0) { new C; } else { new B; } }
    method main(n@Int) {
      let total := 0;
      let i := 0;
      while (i < n) { total := total + tag(pick(i)); i := i + 1; }
      print(total);
    }
  )";
  std::unique_ptr<Program> P = buildProgram({Source});
  ASSERT_TRUE(P);

  // Profile: 90% of tag() calls hit tag(B).
  CallGraph CG;
  {
    std::unique_ptr<CompiledProgram> Base = compileProgram(*P, Config::Base);
    runMain(*Base, 2000, nullptr, &CG);
  }

  OptimizerOptions Opt;
  Opt.EnableTypeFeedback = true;
  std::unique_ptr<CompiledProgram> CP =
      compileProgram(*P, Config::CHA, &CG, {}, Opt);

  std::string Out;
  std::ostringstream OS;
  RunOptions RO;
  RO.Output = &OS;
  Interpreter I(*CP, RO);
  ASSERT_TRUE(I.callMain(2000)) << I.errorMessage();
  const RunStats &S = I.stats();
  // 90% hits, 10% misses (which still dispatch correctly).
  EXPECT_EQ(S.FeedbackHits, 1800u);
  EXPECT_EQ(S.FeedbackMisses, 200u);
  EXPECT_EQ(OS.str(), "2200\n"); // 1800*1 + 200*2

  // The dispatch count shrinks by exactly the hits at that site.
  std::unique_ptr<CompiledProgram> Plain = compileProgram(*P, Config::CHA);
  RunStats SPlain = runMain(*Plain, 2000);
  EXPECT_LT(S.totalDispatches(), SPlain.totalDispatches());
}

TEST(TypeFeedback, NoGuardWithoutDominantCallee) {
  const char *Source = R"(
    class A; class B isa A; class C isa A;
    method tag(x@B) { 1; }
    method tag(x@C) { 2; }
    method pick(n@Int) { if (n % 2 == 0) { new C; } else { new B; } }
    method main(n@Int) {
      let total := 0;
      let i := 0;
      while (i < n) { total := total + tag(pick(i)); i := i + 1; }
      print(total);
    }
  )";
  std::unique_ptr<Program> P = buildProgram({Source});
  ASSERT_TRUE(P);
  CallGraph CG;
  {
    std::unique_ptr<CompiledProgram> Base = compileProgram(*P, Config::Base);
    runMain(*Base, 3000, nullptr, &CG);
  }
  OptimizerOptions Opt;
  Opt.EnableTypeFeedback = true;
  std::unique_ptr<CompiledProgram> CP =
      compileProgram(*P, Config::CHA, &CG, {}, Opt);
  RunStats S = runMain(*CP, 3000);
  // 50/50 split: below the dominance threshold, no guard installed.
  EXPECT_EQ(S.FeedbackHits + S.FeedbackMisses, 0u);
}

TEST(TypeFeedback, RequiresMinimumWeight) {
  const char *Source = R"(
    class A; class B isa A; class C isa A;
    method tag(x@B) { 1; }
    method tag(x@C) { 2; }
    method pick(n@Int) { if (n % 10 == 0) { new C; } else { new B; } }
    method main(n@Int) {
      let total := 0;
      let i := 0;
      while (i < n) { total := total + tag(pick(i)); i := i + 1; }
      print(total);
    }
  )";
  std::unique_ptr<Program> P = buildProgram({Source});
  ASSERT_TRUE(P);
  CallGraph CG;
  {
    std::unique_ptr<CompiledProgram> Base = compileProgram(*P, Config::Base);
    runMain(*Base, 50, nullptr, &CG); // far below FeedbackMinWeight
  }
  OptimizerOptions Opt;
  Opt.EnableTypeFeedback = true;
  std::unique_ptr<CompiledProgram> CP =
      compileProgram(*P, Config::CHA, &CG, {}, Opt);
  RunStats S = runMain(*CP, 50);
  EXPECT_EQ(S.FeedbackHits + S.FeedbackMisses, 0u);
}

//===----------------------------------------------------------------------===//
// Compressed dispatch tables
//===----------------------------------------------------------------------===//

TEST(DispatchTable, AgreesWithFullLookupEverywhere) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A; class B isa A; class C isa A; class D isa B;
    method m2(x@A, y@A) { 1; }
    method m2(x@B, y@A) { 2; }
    method m2(x@B, y@B) { 3; }
    method m2(x@C, y@D) { 4; }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  GenericId G = P->lookupGeneric(P->Syms.find("m2"), 2);
  ASSERT_TRUE(G.isValid());
  DispatchTable T(*P, G);

  for (unsigned I = 0; I != P->Classes.size(); ++I)
    for (unsigned J = 0; J != P->Classes.size(); ++J) {
      std::vector<ClassId> Args = {ClassId(I), ClassId(J)};
      EXPECT_EQ(T.lookup(Args), P->dispatch(G, Args))
          << "tuple (" << I << ',' << J << ')';
    }
}

TEST(DispatchTable, CompressionSharesEquivalentRows) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A; class B isa A; class C isa A; class D isa A; class E isa A;
    method m(x@A) { 1; }
    method m(x@B) { 2; }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  GenericId G = P->lookupGeneric(P->Syms.find("m"), 1);
  DispatchTable T(*P, G);
  ASSERT_EQ(T.positions().size(), 1u);
  // Behaviors: {not an A}, {A-but-not-B: A,C,D,E}, {B}: three groups,
  // regardless of how many classes the universe holds.
  EXPECT_EQ(T.numGroups(0), 3u);
  EXPECT_EQ(T.tableSize(), 3u);
  EXPECT_LT(T.tableSize(), T.uncompressedSize());
}

TEST(DispatchTable, WholeProgramSetAgreesOnBenchmark) {
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromFiles({"instsched.mica"}, Err);
  ASSERT_TRUE(W) << Err;
  const Program &P = W->program();
  DispatchTables Tables(P);

  // Spot-check the 7-case conflicts multi-method over every class pair.
  GenericId G = P.lookupGeneric(P.Syms.find("conflicts"), 2);
  ASSERT_TRUE(G.isValid());
  const DispatchTable &T = Tables.table(G);
  for (unsigned I = 0; I != P.Classes.size(); ++I)
    for (unsigned J = 0; J != P.Classes.size(); ++J) {
      std::vector<ClassId> Args = {ClassId(I), ClassId(J)};
      ASSERT_EQ(T.lookup(Args), P.dispatch(G, Args));
      ASSERT_EQ(Tables.dispatch(G, Args), P.dispatch(G, Args));
    }
  size_t Cells = 0, Uncompressed = 0;
  for (unsigned GI = 0; GI != P.numGenerics(); ++GI) {
    Cells += Tables.table(GenericId(GI)).tableSize();
    Uncompressed += Tables.table(GenericId(GI)).uncompressedSize();
  }
  EXPECT_LT(Cells, Uncompressed);
}
