//===- interp/Interpreter.cpp - Instrumented AST interpreter ---------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

using namespace selspec;

Interpreter::Interpreter(const CompiledProgram &CP, RunOptions Opts,
                         CostModel Costs)
    : RuntimeCore(CP, Opts, Costs) {}

bool Interpreter::chargeNode(const Expr *E, Control &C) {
  ++Stats.NodesEvaluated;
  Stats.Cycles += Costs.NodeCost;
  if (Stats.NodesEvaluated > Opts.Limits.MaxNodes) {
    failNodeBudget(C, E->getLoc());
    return false;
  }
  // Sampled cooperative-cancellation poll: the clock is only read every
  // DeadlineCheckMask + 1 nodes, so unarmed runs pay one masked compare.
  if ((Stats.NodesEvaluated & DeadlineCheckMask) == 0 && Opts.Cancel &&
      Opts.Cancel->stopRequested()) {
    failDeadline(C, E->getLoc());
    return false;
  }
  return true;
}

namespace {
/// Truncates the shared argument stack back to a recorded depth on scope
/// exit, covering every return path (including failures).
struct ArgStackScope {
  std::vector<Value> &S;
  size_t Base;
  ~ArgStackScope() { S.resize(Base); }
};
} // namespace

bool Interpreter::evalArgs(const std::vector<ExprPtr> &ArgExprs, Frame &F,
                           Control &C) {
  for (const ExprPtr &A : ArgExprs) {
    Value V = eval(A.get(), F, C);
    if (C.active())
      return false;
    ArgStack.push_back(V);
  }
  return true;
}

Value Interpreter::eval(const Expr *E, Frame &F, Control &C) {
  if (!chargeNode(E, C))
    return Value::nil();
  ++Stats.NodeMix[static_cast<size_t>(E->getKind())];

  switch (E->getKind()) {
  case Expr::Kind::IntLit:
    return Value::ofInt(cast<IntLitExpr>(E)->Value);
  case Expr::Kind::BoolLit:
    return Value::ofBool(cast<BoolLitExpr>(E)->Value);
  case Expr::Kind::StrLit: {
    const std::string &S = cast<StrLitExpr>(E)->Value;
    if (!allocationFits(membudget::stringBytes(S.size()), E->getLoc(), C))
      return Value::nil();
    return Value::ofObj(TheHeap.newString(S));
  }
  case Expr::Kind::NilLit:
    return Value::nil();

  case Expr::Kind::VarRef: {
    const auto *V = cast<VarRefExpr>(E);
    switch (V->Slot.Loc) {
    case VarLoc::Slot:
      return F.slot(V->Slot.Index);
    case VarLoc::Cell:
      assert(F.cell(V->Slot.Index) && "read of a cell before its let ran");
      return F.cell(V->Slot.Index)->V;
    case VarLoc::Capture:
      return F.capture(V->Slot.Index)->V;
    case VarLoc::Unresolved:
      break;
    }
    return fail(C, TrapKind::InternalError, E->getLoc(),
                "internal: unresolved variable '" + P.Syms.name(V->Name) +
                    "'");
  }

  case Expr::Kind::AssignVar: {
    const auto *A = cast<AssignVarExpr>(E);
    Value V = eval(A->Value.get(), F, C);
    if (C.active())
      return Value::nil();
    switch (A->Slot.Loc) {
    case VarLoc::Slot:
      F.slot(A->Slot.Index) = V;
      return V;
    case VarLoc::Cell:
      assert(F.cell(A->Slot.Index) && "write to a cell before its let ran");
      F.cell(A->Slot.Index)->V = V;
      return V;
    case VarLoc::Capture:
      F.capture(A->Slot.Index)->V = V;
      return V;
    case VarLoc::Unresolved:
      break;
    }
    return fail(C, TrapKind::InternalError, E->getLoc(),
                "internal: assignment to unresolved variable '" +
                    P.Syms.name(A->Name) + "'");
  }

  case Expr::Kind::Let: {
    const auto *L = cast<LetExpr>(E);
    Value V = eval(L->Init.get(), F, C);
    if (C.active())
      return Value::nil();
    // A let executes once per enclosing activation *visit*: a let inside a
    // loop body re-executes each iteration, and a captured one must then
    // produce a fresh cell so closures made in different iterations don't
    // share state (matching the old per-Seq Env scopes).
    if (L->Slot.Loc == VarLoc::Cell)
      F.cell(L->Slot.Index) = std::make_shared<Cell>(Cell{V});
    else
      F.slot(L->Slot.Index) = V;
    return Value::nil();
  }

  case Expr::Kind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    Value Last = Value::nil();
    for (const ExprPtr &Elem : S->Elems) {
      Last = eval(Elem.get(), F, C);
      if (C.active())
        return Value::nil();
    }
    return Last;
  }

  case Expr::Kind::If: {
    const auto *I = cast<IfExpr>(E);
    Value Cond = eval(I->Cond.get(), F, C);
    if (C.active())
      return Value::nil();
    if (!Cond.isBool())
      return fail(C, TrapKind::TypeError, I->Cond->getLoc(),
                  "if condition is not a boolean");
    if (Cond.asBool())
      return eval(I->Then.get(), F, C);
    if (I->Else)
      return eval(I->Else.get(), F, C);
    return Value::nil();
  }

  case Expr::Kind::While: {
    const auto *W = cast<WhileExpr>(E);
    for (;;) {
      Value Cond = eval(W->Cond.get(), F, C);
      if (C.active())
        return Value::nil();
      if (!Cond.isBool())
        return fail(C, TrapKind::TypeError, W->Cond->getLoc(),
                    "while condition is not a boolean");
      if (!Cond.asBool())
        return Value::nil();
      eval(W->Body.get(), F, C);
      if (C.active())
        return Value::nil();
    }
  }

  case Expr::Kind::Send:
    return evalSend(cast<SendExpr>(E), F, C);

  case Expr::Kind::ClosureCall: {
    const auto *Call = cast<ClosureCallExpr>(E);
    Value Callee = eval(Call->Callee.get(), F, C);
    if (C.active())
      return Value::nil();
    const size_t ArgsBase = ArgStack.size();
    ArgStackScope ArgsScope{ArgStack, ArgsBase};
    if (!evalArgs(Call->Args, F, C))
      return Value::nil();
    if (!Callee.isObject() ||
        Callee.asObject()->payload() != Obj::Payload::Closure)
      return fail(C, TrapKind::TypeError, E->getLoc(),
                  "called value is not a closure");
    Obj *Closure = Callee.asObject();
    const ClosureLitExpr *Lit = Closure->Lit;
    const size_t NumArgs = ArgStack.size() - ArgsBase;
    if (Lit->Params.size() != NumArgs)
      return fail(C, TrapKind::ArityMismatch, E->getLoc(),
                  "closure called with wrong number of arguments");
    if (!callAllowed(E->getLoc(), C))
      return Value::nil();

    ++Stats.ClosureCalls;
    Stats.Cycles += Costs.ClosureCallCost;
    return activate(
        Lit->Layout, ArgStack.data() + ArgsBase, NumArgs, &Closure->Captured,
        Closure->HomeActivation, MethodId(),
        [&](Frame &Inner) { return eval(Lit->Body.get(), Inner, C); });
  }

  case Expr::Kind::ClosureLit: {
    Obj *O = newClosure(cast<ClosureLitExpr>(E), F, E->getLoc(), C);
    return O ? Value::ofObj(O) : Value::nil();
  }

  case Expr::Kind::New: {
    const auto *N = cast<NewExpr>(E);
    const ClassInfo &Info = P.Classes.info(N->Class);
    if (!allocationFits(membudget::instanceBytes(Info.Layout.size()),
                        E->getLoc(), C))
      return Value::nil();
    ++Stats.Allocations;
    Stats.Cycles += Costs.AllocCost + Info.Layout.size();
    Obj *O = TheHeap.newInstance(
        N->Class, static_cast<unsigned>(Info.Layout.size()));
    for (const auto &[SlotName, Init] : N->Inits) {
      Value V = eval(Init.get(), F, C);
      if (C.active())
        return Value::nil();
      int Idx = P.Classes.slotIndex(N->Class, SlotName);
      assert(Idx >= 0 && "resolver checked slot names");
      O->Slots[Idx] = V;
    }
    return Value::ofObj(O);
  }

  case Expr::Kind::SlotGet: {
    const auto *G = cast<SlotGetExpr>(E);
    Value ObjV = eval(G->Object.get(), F, C);
    if (C.active())
      return Value::nil();
    if (!ObjV.isObject() ||
        ObjV.asObject()->payload() != Obj::Payload::Instance)
      return fail(C, TrapKind::TypeError, E->getLoc(),
                  "slot access '" + P.Syms.name(G->SlotName) +
                      "' on a non-instance value");
    Obj *O = ObjV.asObject();
    int Idx = P.Classes.slotIndex(O->getClass(), G->SlotName);
    if (Idx < 0)
      return failNoSlot(C, E->getLoc(), O->getClass(), G->SlotName);
    Stats.Cycles += Costs.SlotCost;
    return O->Slots[Idx];
  }

  case Expr::Kind::SlotSet: {
    const auto *S = cast<SlotSetExpr>(E);
    Value ObjV = eval(S->Object.get(), F, C);
    if (C.active())
      return Value::nil();
    Value V = eval(S->Value.get(), F, C);
    if (C.active())
      return Value::nil();
    if (!ObjV.isObject() ||
        ObjV.asObject()->payload() != Obj::Payload::Instance)
      return fail(C, TrapKind::TypeError, E->getLoc(),
                  "slot assignment on a non-instance value");
    Obj *O = ObjV.asObject();
    int Idx = P.Classes.slotIndex(O->getClass(), S->SlotName);
    if (Idx < 0)
      return failNoSlot(C, E->getLoc(), O->getClass(), S->SlotName);
    Stats.Cycles += Costs.SlotCost;
    O->Slots[Idx] = V;
    return V;
  }

  case Expr::Kind::Return: {
    const auto *R = cast<ReturnExpr>(E);
    Value V = Value::nil();
    if (R->Value) {
      V = eval(R->Value.get(), F, C);
      if (C.active())
        return Value::nil();
    }
    C.K = Control::Kind::Return;
    C.Activation = CurrentHome;
    C.Boundary = R->Boundary;
    C.Val = V;
    return Value::nil();
  }

  case Expr::Kind::Inlined:
    return evalInlined(cast<InlinedExpr>(E), F, C);
  }
  return fail(C, TrapKind::InternalError, E->getLoc(),
              "internal: unknown expression kind");
}

Value Interpreter::evalInlined(const InlinedExpr *In, Frame &F, Control &C) {
  // Inlined bodies recurse natively without raising Depth, so they need
  // their own native-stack check.
  if (nativeStackLow())
    return failNativeStack(C, In->getLoc());
  // Inlined bindings live in the caller's frame.  Interleaving each store
  // with its initializer is safe even though the old code evaluated all
  // initializers first: every binding occurrence has its own slot, so an
  // initializer can never observe an earlier binding's store (references
  // inside initializers were resolved before these bindings were declared).
  for (size_t I = 0; I != In->Bindings.size(); ++I) {
    Value V = eval(In->Bindings[I].second.get(), F, C);
    if (C.active())
      return Value::nil();
    const SlotRef &Where = In->BindingSlots[I];
    if (Where.Loc == VarLoc::Cell)
      F.cell(Where.Index) = std::make_shared<Cell>(Cell{V});
    else
      F.slot(Where.Index) = V;
  }

  Value Result = eval(In->Body.get(), F, C);
  // Catch returns targeting this inline boundary within our activation.
  if (C.K == Control::Kind::Return && C.Activation == CurrentHome &&
      C.Boundary == In->Boundary) {
    Result = C.Val;
    C = Control();
  }
  return Result;
}

Value Interpreter::invokeMethod(MethodId M, int VersionIndex,
                                size_t ArgsBase, SourceLoc CallLoc,
                                Control &C) {
  if (VersionIndex < 0)
    return fail(C, TrapKind::InternalError, CallLoc,
                "internal: no compiled version matches arguments of " +
                    P.methodLabel(M));
  return invokeVersion(CP.version(static_cast<uint32_t>(VersionIndex)),
                       ArgsBase, CallLoc, C);
}

Value Interpreter::invokeVersion(const CompiledMethod &CM, size_t ArgsBase,
                                 SourceLoc CallLoc, Control &C) {
  const MethodInfo &M = P.method(CM.Source);
  CP.markInvoked(CM.Index);

  if (M.isBuiltin())
    return invokePrim(M.Prim, ArgStack.data() + ArgsBase, CallLoc, C);

  if (!callAllowed(CallLoc, C))
    return Value::nil();

  ++Stats.MethodInvocations;
  const uint64_t Activation = NextActivation++;
  const size_t NumArgs = ArgStack.size() - ArgsBase;
  assert(CM.Layout.Params.size() == NumArgs && "dispatcher arity mismatch");
  Value Result = activate(
      CM.Layout, ArgStack.data() + ArgsBase, NumArgs, nullptr, Activation,
      CM.Source, [&](Frame &F) { return eval(CM.Body.get(), F, C); });

  if (C.K == Control::Kind::Return && C.Activation == Activation &&
      C.Boundary == 0) {
    Result = C.Val;
    C = Control();
  }
  return Result;
}

Value Interpreter::dispatchCall(const SendExpr *S, size_t ArgsBase,
                                Control &C) {
  gatherClasses(ArgStack.data() + ArgsBase, ArgStack.size() - ArgsBase);
  MethodId Target = Disp.lookup(S->Generic, ClassScratch);
  if (!Target.isValid())
    return failDispatch(C, S);

  recordArc(S->Site, Target);
  ++Stats.DynamicDispatches;
  Stats.Cycles += Costs.DynamicDispatchCost;
  // The version comes from selectVersion, never from the table cell the
  // bytecode tier reads: this tier is the oracle the tier-agreement
  // checks hold those cells to.
  return invokeMethod(Target, CP.selectVersion(Target, ClassScratch),
                      ArgsBase, S->getLoc(), C);
}

Value Interpreter::evalSend(const SendExpr *S, Frame &F, Control &C) {
  const size_t ArgsBase = ArgStack.size();
  ArgStackScope ArgsScope{ArgStack, ArgsBase};
  if (!evalArgs(S->Args, F, C))
    return Value::nil();
  const Value *Args = ArgStack.data() + ArgsBase;
  const size_t NumArgs = ArgStack.size() - ArgsBase;

  switch (S->Binding.Kind) {
  case SendBindKind::Dynamic:
    return dispatchCall(S, ArgsBase, C);

  case SendBindKind::Static: {
    const CompiledMethod &CM = CP.version(S->Binding.TargetVersion);
    if (Opts.ValidateBindings && !bindingHolds(S, Args, NumArgs, C))
      return Value::nil();
    recordArc(S->Site, CM.Source);
    ++Stats.StaticCalls;
    Stats.Cycles += Costs.StaticCallCost;
    return invokeVersion(CM, ArgsBase, S->getLoc(), C);
  }

  case SendBindKind::StaticSelect: {
    gatherClasses(Args, NumArgs);
    if (Opts.ValidateBindings && !bindingHolds(S, Args, NumArgs, C))
      return Value::nil();
    recordArc(S->Site, S->Binding.Target);
    ++Stats.VersionSelects;
    Stats.Cycles += Costs.VersionSelectCost;
    return invokeMethod(S->Binding.Target,
                        CP.selectVersion(S->Binding.Target, ClassScratch),
                        ArgsBase, S->getLoc(), C);
  }

  case SendBindKind::InlinePrim: {
    if (Opts.ValidateBindings && !bindingHolds(S, Args, NumArgs, C))
      return Value::nil();
    recordArc(S->Site, S->Binding.Target);
    ++Stats.InlinePrims;
    Stats.Cycles += Costs.InlinePrimCost;
    return invokePrim(P.method(S->Binding.Target).Prim, Args, S->getLoc(), C);
  }

  case SendBindKind::FeedbackGuard: {
    gatherClasses(Args, NumArgs);
    // The modeled machine executes an inline-cache class test; this
    // implementation realizes the test with a dispatch-table read.
    Stats.Cycles += Costs.PredictTestCost;
    MethodId Real = Disp.lookup(S->Generic, ClassScratch);
    if (!Real.isValid())
      return failDispatch(C, S);
    recordArc(S->Site, Real);
    if (Real == S->Binding.Target) {
      ++Stats.FeedbackHits;
      const MethodInfo &M = P.method(Real);
      if (M.isBuiltin()) {
        Stats.Cycles += Costs.InlinePrimCost;
        return invokePrim(M.Prim, Args, S->getLoc(), C);
      }
      Stats.Cycles += Costs.StaticCallCost;
      return invokeMethod(Real, CP.selectVersion(Real, ClassScratch),
                          ArgsBase, S->getLoc(), C);
    }
    ++Stats.FeedbackMisses;
    ++Stats.DynamicDispatches;
    Stats.Cycles += Costs.DynamicDispatchCost;
    return invokeMethod(Real, CP.selectVersion(Real, ClassScratch),
                        ArgsBase, S->getLoc(), C);
  }

  case SendBindKind::Predicted: {
    Stats.Cycles += Costs.PredictTestCost;
    bool Hit = true;
    for (size_t I = 0; I != NumArgs; ++I)
      Hit &= Args[I].classOf() == S->Binding.PredictedClass;
    if (Hit) {
      recordArc(S->Site, S->Binding.Target);
      ++Stats.PredictedHits;
      Stats.Cycles += Costs.InlinePrimCost;
      return invokePrim(P.method(S->Binding.Target).Prim, Args, S->getLoc(),
                        C);
    }
    ++Stats.PredictedMisses;
    return dispatchCall(S, ArgsBase, C);
  }
  }
  return fail(C, TrapKind::InternalError, S->getLoc(),
              "internal: unknown binding kind");
}

Value Interpreter::enter(MethodId Target, int Version,
                         std::vector<Value> &Args, Control &C) {
  const size_t ArgsBase = ArgStack.size();
  ArgStackScope ArgsScope{ArgStack, ArgsBase};
  ArgStack.insert(ArgStack.end(), Args.begin(), Args.end());
  return invokeMethod(Target, Version, ArgsBase, SourceLoc(), C);
}
