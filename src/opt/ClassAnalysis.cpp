//===- opt/ClassAnalysis.cpp - Intraprocedural class analysis --------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "opt/ClassAnalysis.h"

#include "hierarchy/Builtins.h"

using namespace selspec;

ClassSet selspec::primResultSet(PrimOp Op, unsigned UniverseSize) {
  auto Single = [&](ClassId C) {
    return ClassSet::single(UniverseSize, C);
  };
  switch (Op) {
  case PrimOp::IntAdd:
  case PrimOp::IntSub:
  case PrimOp::IntMul:
  case PrimOp::IntDiv:
  case PrimOp::IntMod:
  case PrimOp::IntNeg:
  case PrimOp::StrSize:
  case PrimOp::ArraySize:
    return Single(builtin::Int);
  case PrimOp::IntLess:
  case PrimOp::IntLessEq:
  case PrimOp::IntGreater:
  case PrimOp::IntGreaterEq:
  case PrimOp::IntEq:
  case PrimOp::IntNe:
  case PrimOp::BoolNot:
  case PrimOp::BoolEq:
  case PrimOp::AnyEq:
  case PrimOp::AnyNe:
  case PrimOp::StrEq:
  case PrimOp::StrLess:
    return Single(builtin::Bool);
  case PrimOp::StrConcat:
  case PrimOp::ClassName:
    return Single(builtin::String);
  case PrimOp::ArrayNew:
    return Single(builtin::Array);
  case PrimOp::Print:
  case PrimOp::Abort:
    return Single(builtin::Nil);
  case PrimOp::ArrayAt:
  case PrimOp::ArrayPut:
  case PrimOp::None:
    return ClassSet::all(UniverseSize);
  }
  return ClassSet::all(UniverseSize);
}

namespace {

void collectAssignedImpl(const Expr *E, std::unordered_set<uint32_t> &Out,
                         bool OnlyInsideClosures, bool InClosure) {
  if (const auto *A = dyn_cast<AssignVarExpr>(E))
    if (!OnlyInsideClosures || InClosure)
      Out.insert(A->Name.value());
  bool ChildInClosure = InClosure || isa<ClosureLitExpr>(E);
  forEachChild(E, [&](const Expr *Child) {
    collectAssignedImpl(Child, Out, OnlyInsideClosures, ChildInClosure);
  });
}

} // namespace

std::unordered_set<uint32_t> selspec::collectAssignedNames(const Expr *E) {
  std::unordered_set<uint32_t> Out;
  collectAssignedImpl(E, Out, /*OnlyInsideClosures=*/false,
                      /*InClosure=*/false);
  return Out;
}

std::unordered_set<uint32_t>
selspec::collectClosureAssignedNames(const Expr *E) {
  std::unordered_set<uint32_t> Out;
  collectAssignedImpl(E, Out, /*OnlyInsideClosures=*/true,
                      /*InClosure=*/false);
  return Out;
}

void selspec::tallyVarRefs(const Expr *E, VarRefCounts &Counts, int Delta) {
  if (const auto *V = dyn_cast<VarRefExpr>(E))
    Counts[V->Name.value()] += Delta;
  // Assignments also reference the variable binding.
  else if (const auto *A = dyn_cast<AssignVarExpr>(E))
    Counts[A->Name.value()] += Delta;
  forEachChild(E, [&](const Expr *Child) { tallyVarRefs(Child, Counts, Delta); });
}

unsigned selspec::countNodes(const Expr *E) {
  unsigned N = 1;
  forEachChild(E, [&](const Expr *Child) { N += countNodes(Child); });
  return N;
}
