//===- tests/InlinerTests.cpp - Inlining correctness edge cases ------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Edge cases of body splicing: renaming against capture, return-boundary
/// rewriting, closure propagation through several inlined frames, and the
/// interaction of non-local returns with inlined iteration — all checked
/// end-to-end by comparing optimized and unoptimized executions.
///
//===----------------------------------------------------------------------===//

#include "opt/Inliner.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace selspec;
using namespace selspec::test;

namespace {

/// The behavior oracle: a program behaves identically with inlining off
/// and on (under CHA, which inlines the most).
void expectSameBehavior(const std::string &Source, int64_t Input) {
  std::unique_ptr<Program> P1 = buildProgram({Source});
  std::unique_ptr<Program> P2 = buildProgram({Source});
  ASSERT_TRUE(P1 && P2);

  OptimizerOptions NoInline;
  NoInline.EnableInlining = false;
  NoInline.EnableClosureInlining = false;
  std::unique_ptr<CompiledProgram> Plain =
      compileProgram(*P1, Config::CHA, nullptr, {}, NoInline);
  std::unique_ptr<CompiledProgram> Inlined =
      compileProgram(*P2, Config::CHA);

  std::string Out1, Out2;
  runMain(*Plain, Input, &Out1);
  runMain(*Inlined, Input, &Out2);
  EXPECT_EQ(Out1, Out2) << "inlining changed behavior";
}

} // namespace

TEST(Inliner, CalleeLocalsDoNotCaptureCallerNames) {
  // Both caller and callee use `i` and `total`; the callee's must be
  // renamed or the caller's loop would be corrupted.
  expectSameBehavior(R"(
    method sumTo(n@Int) {
      let total := 0;
      let i := 0;
      while (i < n) { total := total + i; i := i + 1; }
      total;
    }
    method main(n@Int) {
      let total := 100;
      let i := 7;
      print(sumTo(n) + total + i);
      print(i);
    }
  )",
                     10);
}

TEST(Inliner, ClosureFreeVariablesResolveAtCallSite) {
  // The closure references caller locals; when propagated into the
  // inlined `apply` body (whose formals are renamed), those references
  // must still reach the caller's bindings.
  expectSameBehavior(R"(
    method apply(f, x@Int) {
      let k := 1000;    // a callee local that must not capture anything
      f(x) + k;
    }
    method main(n@Int) {
      let base := 5;
      print(apply(fn(v) { v * base; }, n));
      print(base);
    }
  )",
                     6);
}

TEST(Inliner, NestedInliningThreeDeep) {
  expectSameBehavior(R"(
    method l3(x@Int) { x + 1; }
    method l2(x@Int) { l3(x) * 2; }
    method l1(x@Int) { l2(x) + 3; }
    method main(n@Int) { print(l1(n)); }
  )",
                     10);
}

TEST(Inliner, ReturnInsideInlinedCalleeIsLocal) {
  // `classify`'s early returns must exit only classify, not main.
  expectSameBehavior(R"(
    method classify(x@Int) {
      if (x < 0) { return 0 - 1; }
      if (x == 0) { return 0; }
      1;
    }
    method main(n@Int) {
      print(classify(0 - n));
      print(classify(0));
      print(classify(n));
      print("after");
    }
  )",
                     5);
}

TEST(Inliner, NonLocalReturnThroughTwoInlinedFrames) {
  // find -> each -> closure; the closure's return unwinds both inlined
  // frames back to find's caller-visible result.
  expectSameBehavior(R"(
    method each(n@Int, body) {
      let i := 0;
      while (i < n) { body(i); i := i + 1; }
    }
    method eachPair(n@Int, body2) {
      each(n, fn(i) { each(n, fn(j) { body2(i, j); }); });
    }
    method findPair(n@Int, want@Int) {
      eachPair(n, fn(a, b) {
        if (a * 10 + b == want) { return a * 100 + b; }
      });
      0 - 1;
    }
    method main(n@Int) {
      print(findPair(n, 23));
      print(findPair(n, 99));
      print("done");
    }
  )",
                     8);
}

TEST(Inliner, ClosurePropagatedThroughHelperChain) {
  expectSameBehavior(R"(
    method reallyDo(n@Int, body) {
      let i := 0;
      while (i < n) { body(i); i := i + 1; }
    }
    method doIt(n@Int, body) { reallyDo(n, body); }
    method main(n@Int) {
      let total := 0;
      doIt(n, fn(i) { total := total + i * i; });
      print(total);
    }
  )",
                     12);
}

TEST(Inliner, ShadowingInsideClosureBodies) {
  expectSameBehavior(R"(
    method apply(f, x@Int) { f(x); }
    method main(n@Int) {
      let v := 3;
      // The closure's own `v` shadows the outer one.
      print(apply(fn(v) { v + 1; }, n));
      print(v);
      // And a let inside the closure shadows its parameter.
      print(apply(fn(w) { let w := 50; w; }, n));
    }
  )",
                     9);
}

TEST(Inliner, SideEffectOrderOfArgumentsPreserved) {
  expectSameBehavior(R"(
    class Counter { slot v; }
    method bump(c@Counter) { c.v := c.v + 1; c.v; }
    method pair2(a@Int, b@Int) { a * 100 + b; }
    method main(n@Int) {
      let c := new Counter { v := 0 };
      // Argument evaluation order (left to right) must survive inlining.
      print(pair2(bump(c), bump(c)));
      print(c.v);
    }
  )",
                     0);
}

TEST(Inliner, RecursiveCalleeStillCorrect) {
  expectSameBehavior(R"(
    method gcd(a@Int, b@Int) { if (b == 0) { a; } else { gcd(b, a % b); } }
    method main(n@Int) { print(gcd(252, n * 7)); }
  )",
                     15);
}

TEST(Inliner, AssignmentToFormalInsideCallee) {
  expectSameBehavior(R"(
    method clampedDouble(x@Int) {
      if (x > 100) { x := 100; }
      x * 2;
    }
    method main(n@Int) {
      let x := 7;
      print(clampedDouble(n * 50));
      print(clampedDouble(n));
      print(x);
    }
  )",
                     3);
}

TEST(Inliner, UnitRenamingProducesFreshDistinctNames) {
  // Direct unit test of the Inliner: two inlinings of the same callee
  // must not share renamed symbols or boundaries.
  std::unique_ptr<Program> P = buildProgram({R"(
    method callee(x@Int) { let y := x + 1; y; }
    method main(n@Int) { n; }
  )"});
  ASSERT_TRUE(P);
  MethodId Callee;
  for (unsigned MI = 0; MI != P->numMethods(); ++MI)
    if (P->methodLabel(MethodId(MI)) == "callee(Int)")
      Callee = MethodId(MI);
  ASSERT_TRUE(Callee.isValid());

  Inliner In(P->Syms);
  auto MakeArgs = [] {
    std::vector<ExprPtr> Args;
    Args.push_back(std::make_unique<IntLitExpr>(1, SourceLoc()));
    return Args;
  };
  std::unique_ptr<InlinedExpr> A =
      In.inlineMethodCall(P->method(Callee), MakeArgs(), CallSiteId(),
                          SourceLoc());
  std::unique_ptr<InlinedExpr> B =
      In.inlineMethodCall(P->method(Callee), MakeArgs(), CallSiteId(),
                          SourceLoc());
  ASSERT_EQ(A->Bindings.size(), 1u);
  ASSERT_EQ(B->Bindings.size(), 1u);
  EXPECT_NE(A->Bindings[0].first, B->Bindings[0].first)
      << "renamed formals must be unique per splice";
  EXPECT_NE(A->Boundary, B->Boundary);
  // The original formal name is gone from the spliced body.
  Symbol X = P->Syms.find("x");
  VarRefCounts Refs;
  tallyVarRefs(A->Body.get(), Refs);
  EXPECT_EQ(Refs[X.value()], 0u);
}
