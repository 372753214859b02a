//===- tests/OptimizerTests.cpp - Static binding, inlining, closures -------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "lang/AstPrinter.h"
#include "opt/Optimizer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace selspec;
using namespace selspec::test;

namespace {

/// Returns the compiled body printout of the only version of the method
/// labeled \p Label.
std::string bodyOf(const Program &P, const CompiledProgram &CP,
                   const std::string &Label) {
  for (const CompiledMethod &CM : CP.versions())
    if (P.methodLabel(CM.Source) == Label && CM.Body)
      return printExpr(CM.Body.get(), P.Syms);
  ADD_FAILURE() << "no compiled body for " << Label;
  return "";
}

} // namespace

TEST(Optimizer, CHABindsMonomorphicSends) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A; class B isa A;
    method solo(x@A) { 1; }
    method caller(a@A) { solo(a); }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  OptimizerOptions NoInline;
  NoInline.EnableInlining = false;

  std::unique_ptr<CompiledProgram> Base =
      compileProgram(*P, Config::Base, nullptr, {}, NoInline);
  std::unique_ptr<CompiledProgram> CHA =
      compileProgram(*P, Config::CHA, nullptr, {}, NoInline);

  // Base cannot bind (the formal could be any A subclass... but there are
  // none; still, Base does not consult the hierarchy): dynamic.
  EXPECT_NE(bodyOf(*P, *Base, "caller(A)").find("(send solo"),
            std::string::npos);
  EXPECT_EQ(bodyOf(*P, *Base, "caller(A)").find("[static]"),
            std::string::npos);
  // CHA proves there is exactly one target: static.
  EXPECT_NE(bodyOf(*P, *CHA, "caller(A)").find("(send[static] solo"),
            std::string::npos);
}

TEST(Optimizer, BaseBindsExactlyKnownClasses) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A; class B isa A;
    method poke(x@A) { 1; }
    method poke(x@B) { 2; }
    method main(n@Int) { poke(new B); }
  )"});
  ASSERT_TRUE(P);
  OptimizerOptions NoInline;
  NoInline.EnableInlining = false;
  std::unique_ptr<CompiledProgram> Base =
      compileProgram(*P, Config::Base, nullptr, {}, NoInline);
  // new B has an exactly-known class: even Base binds statically.
  EXPECT_NE(bodyOf(*P, *Base, "main(Int)").find("(send[static] poke"),
            std::string::npos);
}

TEST(Optimizer, IntArithmeticInlinedAsPrims) {
  std::unique_ptr<Program> P =
      buildProgram({"method main(n@Int) { n + 1 * 2; }"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  std::string Body = bodyOf(*P, *CP, "main(Int)");
  // The literal subexpression folds (Table 1's constant folding); the
  // remaining add on the formal is an inlined primitive.
  EXPECT_EQ(Body, "(seq (send[prim] + (var n) (int 2)))");
}

TEST(Optimizer, ConstantFoldingAndDeadCode) {
  std::unique_ptr<Program> P = buildProgram({R"(
    method main(n@Int) {
      let unused := 5;            // dead: pure init, never referenced
      3 + 4;                      // dead: pure statement (after folding)
      let keep := n + (2 * 3 - 1);
      print(keep);
    }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  PassThroughAnalysis PT(*P);
  SpecializationPlan Plan = makePlan(Config::Base, *P, AC, PT, nullptr);
  Optimizer Opt(*P, AC);
  std::unique_ptr<CompiledProgram> CP = Opt.compile(Plan);

  EXPECT_GE(Opt.stats().ConstantsFolded, 3u);
  EXPECT_GE(Opt.stats().DeadStatementsRemoved, 2u);
  std::string Body = bodyOf(*P, *CP, "main(Int)");
  EXPECT_EQ(Body.find("unused"), std::string::npos) << Body;
  EXPECT_NE(Body.find("(send[prim] + (var n) (int 5))"),
            std::string::npos)
      << Body;

  std::string Out;
  runMain(*CP, 10, &Out);
  EXPECT_EQ(Out, "15\n");

  // Division by zero must never be folded away.
  std::unique_ptr<Program> P2 =
      buildProgram({"method main(n@Int) { 1 / 0; }"});
  ASSERT_TRUE(P2);
  std::unique_ptr<CompiledProgram> CP2 = compileProgram(*P2, Config::Base);
  Interpreter I(*CP2);
  EXPECT_FALSE(I.callMain(0));
  EXPECT_NE(I.errorMessage().find("division by zero"), std::string::npos);
}

TEST(Optimizer, DeadCodeStatsOnALongDeadLetBody) {
  // Every x{i} is dead once the closure that alone reads it is gone; the
  // z chain loses only its tail, because z0 and z1 were still referenced
  // when the pass looked at them.
  constexpr unsigned N = 4000;
  std::string Src = "method main(n@Int) {\n";
  for (unsigned I = 0; I != N; ++I) {
    std::string X = "x" + std::to_string(I);
    Src += "  let " + X + " := " + std::to_string(I) + ";\n";
    if (I % 4 == 0)
      Src += "  let c" + std::to_string(I) + " := fn() { " + X + "; };\n";
  }
  Src += "  n;\n  let z0 := n; let z1 := z0; let z2 := z1;\n"
         "  print(n);\n}\n";
  std::unique_ptr<Program> P = buildProgram({Src});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  PassThroughAnalysis PT(*P);
  SpecializationPlan Plan = makePlan(Config::Base, *P, AC, PT, nullptr);
  Optimizer Opt(*P, AC);
  std::unique_ptr<CompiledProgram> CP = Opt.compile(Plan);

  EXPECT_EQ(Opt.stats().ClosureCreationsEliminated, N / 4);
  // N x-lets, N/4 nil-initialized c-lets, the `n;` statement, z2.
  EXPECT_EQ(Opt.stats().DeadStatementsRemoved, N + N / 4 + 2);
  std::string Body = bodyOf(*P, *CP, "main(Int)");
  EXPECT_EQ(Body.find("(let z2"), std::string::npos) << Body;
  EXPECT_NE(Body.find("(let z1"), std::string::npos) << Body;
  EXPECT_EQ(Body.find("(let x"), std::string::npos);

  std::string Out;
  runMain(*CP, 7, &Out);
  EXPECT_EQ(Out, "7\n");
}

TEST(Optimizer, ClassPredictionWhenTypeUnknown) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class Box { slot v; }
    method main(n@Int) {
      let b := new Box { v := n };
      b.v + 1;
    }
  )"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  // b.v has unknown class: the + send gets hard-wired Int prediction.
  EXPECT_NE(bodyOf(*P, *CP, "main(Int)").find("(send[pred] +"),
            std::string::npos);

  OptimizerOptions NoPred;
  NoPred.EnableClassPrediction = false;
  std::unique_ptr<CompiledProgram> CP2 =
      compileProgram(*P, Config::Base, nullptr, {}, NoPred);
  EXPECT_EQ(bodyOf(*P, *CP2, "main(Int)").find("[pred]"),
            std::string::npos);
}

TEST(Optimizer, InliningSplicesSmallCallees) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A;
    method twice(x@Int) { x + x; }
    method main(n@Int) { twice(n); }
  )"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  std::string Body = bodyOf(*P, *CP, "main(Int)");
  EXPECT_NE(Body.find("(inlined#"), std::string::npos);
  EXPECT_EQ(Body.find("(send[static] twice"), std::string::npos);
  // Semantics preserved.
  EXPECT_EQ(runSource("method twice(x@Int) { x + x; }"
                      "method main(n@Int) { print(twice(n)); }",
                      Config::Base, 21),
            "42\n");
}

TEST(Optimizer, RecursiveMethodsNotInlinedForever) {
  std::unique_ptr<Program> P = buildProgram({R"(
    method fact(n@Int) { if (n <= 1) { 1; } else { n * fact(n - 1); } }
    method main(n@Int) { print(fact(n)); }
  )"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  std::string Out;
  runMain(*CP, 10, &Out);
  EXPECT_EQ(Out, "3628800\n");
}

TEST(Optimizer, ClosureEliminationInInlinedIteration) {
  // The Figure 1 payoff: when `each` is inlined, the closure argument is
  // propagated to the call site inside and its creation is eliminated.
  std::unique_ptr<Program> P = buildProgram({R"(
    method each(n@Int, body) {
      let i := 0;
      while (i < n) { body(i); i := i + 1; }
    }
    method main(n@Int) {
      let total := 0;
      each(n, fn(i) { total := total + i; });
      print(total);
    }
  )"});
  ASSERT_TRUE(P);
  ApplicableClassesAnalysis AC(*P);
  PassThroughAnalysis PT(*P);
  SpecializationPlan Plan = makePlan(Config::CHA, *P, AC, PT, nullptr);
  Optimizer Opt(*P, AC);
  std::unique_ptr<CompiledProgram> CP = Opt.compile(Plan);

  EXPECT_GE(Opt.stats().MethodsInlined, 1u);
  EXPECT_GE(Opt.stats().ClosureCallsInlined, 1u);
  EXPECT_GE(Opt.stats().ClosureCreationsEliminated, 1u);

  std::string Out;
  RunStats Stats = runMain(*CP, 100, &Out);
  EXPECT_EQ(Out, "4950\n");
  EXPECT_EQ(Stats.ClosuresCreated, 0u) << "closure creation eliminated";
  EXPECT_EQ(Stats.ClosureCalls, 0u) << "closure calls inlined";
}

TEST(Optimizer, NonLocalReturnSurvivesInlining) {
  const char *Source = R"(
    method each(n@Int, body) {
      let i := 0;
      while (i < n) { body(i); i := i + 1; }
    }
    method find(n@Int, t@Int) {
      each(n, fn(i) { if (i == t) { return 111; } });
      222;
    }
    method main(n@Int) { print(find(10, n)); }
  )";
  // Same output whether or not the optimizer inlines through the closure.
  EXPECT_EQ(runSource(Source, Config::Base, 4), "111\n");
  EXPECT_EQ(runSource(Source, Config::CHA, 4), "111\n");
  EXPECT_EQ(runSource(Source, Config::Base, 40), "222\n");
  EXPECT_EQ(runSource(Source, Config::CHA, 40), "222\n");
}

TEST(Optimizer, SpecializedVersionsBindInside) {
  // Under Cust, the receiver class is exact inside each version, so the
  // area(s) send statically binds inside describe's versions.
  std::unique_ptr<Program> P = buildProgram({R"(
    class Shape; class Circle isa Shape; class Square isa Shape;
    method area(s@Circle) { 3; }
    method area(s@Square) { 4; }
    method describe(s@Shape) { area(s); }
    method main(n@Int) {
      print(describe(new Circle) + describe(new Square));
    }
  )"});
  ASSERT_TRUE(P);
  OptimizerOptions NoInline;
  NoInline.EnableInlining = false;
  std::unique_ptr<CompiledProgram> Cust =
      compileProgram(*P, Config::Cust, nullptr, {}, NoInline);

  MethodId Describe;
  for (unsigned MI = 0; MI != P->numMethods(); ++MI)
    if (P->methodLabel(MethodId(MI)) == "describe(Shape)")
      Describe = MethodId(MI);
  ASSERT_TRUE(Describe.isValid());
  // Every class is concrete in Mica, so customization produces a version
  // for Shape itself as well as Circle and Square.
  ASSERT_EQ(Cust->versionsOf(Describe).size(), 3u);
  unsigned StaticallyBound = 0;
  for (uint32_t VI : Cust->versionsOf(Describe)) {
    const CompiledMethod &CM = Cust->version(VI);
    std::string Body = printExpr(CM.Body.get(), P->Syms);
    if (Body.find("(send[static] area") != std::string::npos)
      ++StaticallyBound;
  }
  // The Circle and Square versions bind area statically (the Shape-only
  // version has no applicable area method and stays dynamic).
  EXPECT_EQ(StaticallyBound, 2u);

  std::string Out;
  runMain(*Cust, 0, &Out);
  EXPECT_EQ(Out, "7\n");
}

TEST(Optimizer, StaticSelectWhenVersionsAmbiguous) {
  // Section 3.3: once the callee is specialized, a statically-bound
  // caller that cannot tell the versions apart needs a run-time version
  // selection — a dispatch.  (Cascading, tested in SpecializerTests,
  // exists to repair exactly this.)
  std::unique_ptr<Program> P = buildProgram({R"(
    class Shape; class Circle isa Shape; class Square isa Shape;
    method area(s@Circle) { 3; }
    method area(s@Square) { 4; }
    method describe(s@Shape) { area(s); }
    method caller(s@Shape) { describe(s); }
    method main(n@Int) { print(caller(new Circle)); }
  )"});
  ASSERT_TRUE(P);

  // Profile: describe's area site is hot (specialize describe for
  // Circle); the caller->describe arc stays cold so no cascade repairs
  // the caller.
  ApplicableClassesAnalysis AC(*P);
  CallGraph CG;
  MethodId Describe, AreaCircle;
  for (unsigned MI = 0; MI != P->numMethods(); ++MI) {
    if (P->methodLabel(MethodId(MI)) == "describe(Shape)")
      Describe = MethodId(MI);
    if (P->methodLabel(MethodId(MI)) == "area(Circle)")
      AreaCircle = MethodId(MI);
  }
  ASSERT_TRUE(Describe.isValid() && AreaCircle.isValid());
  Symbol AreaSym = P->Syms.find("area");
  for (unsigned I = 0; I != P->numCallSites(); ++I) {
    const CallSiteInfo &Site = P->callSite(CallSiteId(I));
    if (Site.Owner == Describe && Site.Send->GenericName == AreaSym)
      CG.addHits(Site.Id, Describe, AreaCircle, 50000);
  }

  OptimizerOptions NoInline;
  NoInline.EnableInlining = false;
  std::unique_ptr<CompiledProgram> CP =
      compileProgram(*P, Config::Selective, &CG, {}, NoInline);

  bool SawSelect = false;
  for (const CompiledMethod &CM : CP->versions()) {
    if (!CM.Body || P->methodLabel(CM.Source) != "caller(Shape)")
      continue;
    std::string Body = printExpr(CM.Body.get(), P->Syms);
    SawSelect |= Body.find("[select]") != std::string::npos;
  }
  EXPECT_TRUE(SawSelect);

  std::string Out;
  RunStats Stats = runMain(*CP, 0, &Out);
  EXPECT_EQ(Out, "3\n");
  EXPECT_GE(Stats.VersionSelects, 1u);
}

TEST(Optimizer, CodeSizeGrowsWithVersions) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class Shape; class Circle isa Shape; class Square isa Shape;
    method area(s@Circle) { 3; }
    method area(s@Square) { 4; }
    method describe(s@Shape) { area(s); }
    method main(n@Int) { describe(new Circle); }
  )"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> Base = compileProgram(*P, Config::Base);
  std::unique_ptr<CompiledProgram> Cust = compileProgram(*P, Config::Cust);
  EXPECT_GT(Cust->numCompiledRoutines(), Base->numCompiledRoutines());
  EXPECT_GT(Cust->totalCodeSize(), Base->totalCodeSize());
}

TEST(Optimizer, InvokedBitsTrackDynamicCompilation) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class Shape; class Circle isa Shape; class Square isa Shape;
    method area(s@Circle) { 3; }
    method area(s@Square) { 4; }
    method describe(s@Shape) { area(s); }
    method main(n@Int) { describe(new Circle); }
  )"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> Cust = compileProgram(*P, Config::Cust);
  EXPECT_EQ(Cust->numInvokedRoutines(), 0u);
  runMain(*Cust, 0);
  unsigned Invoked = Cust->numInvokedRoutines();
  EXPECT_GT(Invoked, 0u);
  EXPECT_LT(Invoked, Cust->numCompiledRoutines())
      << "Square versions were generated but never invoked";
  Cust->resetInvoked();
  EXPECT_EQ(Cust->numInvokedRoutines(), 0u);
}
