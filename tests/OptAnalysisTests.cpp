//===- tests/OptAnalysisTests.cpp - Class-analysis utilities ---------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the optimizer's analysis utilities: the scoped ClassEnv,
/// primitive result sets, assigned-name scans, reference counting and
/// node counting — the pieces the soundness rules of opt/ClassAnalysis.h
/// are built from.
///
//===----------------------------------------------------------------------===//

#include "hierarchy/Builtins.h"
#include "lang/Parser.h"
#include "opt/ClassAnalysis.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace selspec;
using namespace selspec::test;

namespace {

/// Parses `method t(a, b) { <Body> }` and returns its body (module owns it
/// via the returned pair).
struct ParsedBody {
  SymbolTable Syms;
  Module M;
  const Expr *Body = nullptr;
};

std::unique_ptr<ParsedBody> parseBody(const std::string &Body) {
  auto Out = std::make_unique<ParsedBody>();
  Diagnostics Diags;
  if (!Parser::parseSource("method t(a, b) { " + Body + " }", Out->Syms,
                           Diags, Out->M)) {
    ADD_FAILURE() << Diags.toString();
    return nullptr;
  }
  Out->Body = Out->M.Methods.at(0).Body.get();
  return Out;
}

} // namespace

TEST(ClassEnv, ScopedLookupAndShadowing) {
  ClassEnv Env;
  Symbol X(1), Y(2);
  Env.pushScope();
  Env.define(X, ClassSet::single(8, ClassId(1)));
  ASSERT_NE(Env.lookup(X), nullptr);
  EXPECT_EQ(Env.lookup(X)->getSingleElement(), ClassId(1));
  EXPECT_EQ(Env.lookup(Y), nullptr);

  Env.pushScope();
  Env.define(X, ClassSet::single(8, ClassId(2)));
  EXPECT_EQ(Env.lookup(X)->getSingleElement(), ClassId(2))
      << "inner binding shadows";
  Env.popScope();
  EXPECT_EQ(Env.lookup(X)->getSingleElement(), ClassId(1))
      << "outer binding restored";
  Env.popScope();
}

TEST(ClassEnv, WidenTouchesAllVisibleBindings) {
  ClassEnv Env;
  Symbol X(1), Y(2);
  Env.pushScope();
  Env.define(X, ClassSet::single(8, ClassId(1)));
  Env.pushScope();
  Env.define(X, ClassSet::single(8, ClassId(2)));
  Env.define(Y, ClassSet::single(8, ClassId(3)));

  std::unordered_set<uint32_t> Names = {X.value()};
  Env.widen(Names, ClassSet::all(8));
  EXPECT_TRUE(Env.lookup(X)->isAll());
  EXPECT_FALSE(Env.lookup(Y)->isAll());
  Env.popScope();
  EXPECT_TRUE(Env.lookup(X)->isAll()) << "outer shadowed binding widened too";
}

TEST(PrimResultSets, KnownShapes) {
  unsigned U = 10;
  EXPECT_EQ(primResultSet(PrimOp::IntAdd, U).getSingleElement(),
            builtin::Int);
  EXPECT_EQ(primResultSet(PrimOp::IntLess, U).getSingleElement(),
            builtin::Bool);
  EXPECT_EQ(primResultSet(PrimOp::StrConcat, U).getSingleElement(),
            builtin::String);
  EXPECT_EQ(primResultSet(PrimOp::ArrayNew, U).getSingleElement(),
            builtin::Array);
  EXPECT_EQ(primResultSet(PrimOp::Print, U).getSingleElement(),
            builtin::Nil);
  // Array element reads can produce anything.
  EXPECT_TRUE(primResultSet(PrimOp::ArrayAt, U).isAll());
}

TEST(NameScans, AssignedNamesIncludeLoopAndBranchBodies) {
  std::unique_ptr<ParsedBody> PB = parseBody(R"(
    let x := 1;
    while (a < 3) { x := x + 1; }
    if (b == 0) { a := 2; } else { let shadowed := 0; }
  )");
  ASSERT_TRUE(PB);
  auto Names = collectAssignedNames(PB->Body);
  EXPECT_TRUE(Names.count(PB->Syms.find("x").value()));
  EXPECT_TRUE(Names.count(PB->Syms.find("a").value()));
  EXPECT_FALSE(Names.count(PB->Syms.find("b").value()));
  EXPECT_FALSE(Names.count(PB->Syms.find("shadowed").value()))
      << "lets are bindings, not assignments";
}

TEST(NameScans, ClosureAssignedNamesOnlyInsideClosures) {
  std::unique_ptr<ParsedBody> PB = parseBody(R"(
    let outer := 0;
    let inner := 0;
    outer := 1;
    let f := fn(p) { inner := inner + p; };
    f(1);
  )");
  ASSERT_TRUE(PB);
  auto InClosure = collectClosureAssignedNames(PB->Body);
  EXPECT_TRUE(InClosure.count(PB->Syms.find("inner").value()));
  EXPECT_FALSE(InClosure.count(PB->Syms.find("outer").value()));

  auto All = collectAssignedNames(PB->Body);
  EXPECT_TRUE(All.count(PB->Syms.find("inner").value()))
      << "closure assignments are assignments too";
  EXPECT_TRUE(All.count(PB->Syms.find("outer").value()));
}

TEST(NameScans, CountVarRefsSeesReadsAndWrites) {
  std::unique_ptr<ParsedBody> PB = parseBody(R"(
    let x := a;
    x := x + a;
    print(x);
  )");
  ASSERT_TRUE(PB);
  Symbol X = PB->Syms.find("x");
  Symbol A = PB->Syms.find("a");
  Symbol B = PB->Syms.find("b");
  VarRefCounts Refs;
  tallyVarRefs(PB->Body, Refs);
  // x: one write (the assignment) + two reads.
  EXPECT_EQ(Refs[X.value()], 3u);
  EXPECT_EQ(Refs[A.value()], 2u);
  EXPECT_EQ(Refs[B.value()], 0u);
  // Subtracting a subtree takes back exactly its references.
  tallyVarRefs(PB->Body, Refs, -1);
  EXPECT_EQ(Refs[X.value()], 0u);
  EXPECT_EQ(Refs[A.value()], 0u);
}

TEST(NameScans, CountNodesMatchesHandCount) {
  // (seq (let x (int 1))) = Seq + Let + IntLit = 3 nodes.
  std::unique_ptr<ParsedBody> PB = parseBody("let x := 1;");
  ASSERT_TRUE(PB);
  EXPECT_EQ(countNodes(PB->Body), 3u);

  // Seq + Send + two IntLits = 4.
  std::unique_ptr<ParsedBody> PB2 = parseBody("1 + 2;");
  ASSERT_TRUE(PB2);
  EXPECT_EQ(countNodes(PB2->Body), 4u);
}

TEST(CostModel, DescribeMentionsEveryKnob) {
  CostModel CM;
  std::string S = CM.describe();
  for (const char *Needle :
       {"dispatch=", "select=", "call=", "prim=", "predict=",
        "closure-new=", "closure-call=", "alloc=", "slot="})
    EXPECT_NE(S.find(Needle), std::string::npos) << Needle;
}
