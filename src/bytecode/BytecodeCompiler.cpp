//===- bytecode/BytecodeCompiler.cpp - AST -> register bytecode ------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// The lowering discipline that keeps RunStats bit-identical to the AST
// walker: every AST node contributes exactly one charge point, recorded in
// pre-order (at node entry, before its children) in the function's
// Charges table rather than as an instruction.  A charge point precedes
// the action of the next instruction emitted: a leaf's own instruction,
// or the first instruction of a composite node's child code.
//
// Control transfers get charge regions instead of code: each instruction
// that enters a region (Jump, CondBranch, a call's continuation, the
// inlined-body landing pad, the prologue) names a region bound to a Label
// — a pc plus the number of charge points recorded before it, because a
// loop head shares its pc with the While's own charge, which runs once,
// not per iteration.  finishRegions() then sums each region from its
// label to the first region-ending instruction and builds the per-pc trap
// give-back table.
//
// Register model: expression results flow through temp registers, which
// are frame slots past the body's source layout.  compileExpr(E, Dst)
// leaves E's value in Dst and may clobber any register > Dst; sequential
// children that must coexist (call arguments) are laid out contiguously
// at Dst, Dst+1, ..., which is exactly the calling convention (callees
// read arguments from the caller's register window).  A read of a plain
// frame slot feeding a consumer that can name a register (slot access
// objects and values, branch conditions, stores, returns, argument
// windows of consecutive slots) is not copied: the consumer reads the
// slot itself and the read's VarRef charge stays in the region summary.
// That is only done when nothing evaluated between the read and the
// consumer can store into the slot.
//
//===----------------------------------------------------------------------===//

#include "bytecode/BytecodeCompiler.h"

#include "hierarchy/Program.h"
#include "opt/CompiledProgram.h"
#include "support/Metrics.h"

#include <limits>

using namespace selspec;

namespace {

metrics::Counter CtrCompiledFunctions("bytecode.compiled_functions");
metrics::Counter CtrCodeBytes("bytecode.code_bytes");
metrics::Counter CtrCompileFallbacks("bytecode.compile_fallbacks");

/// The VarRef \p E when it reads a plain frame slot, else null.
const VarRefExpr *slotRead(const Expr *E) {
  const auto *V = dyn_cast<VarRefExpr>(E);
  return V && V->Slot.Loc == VarLoc::Slot ? V : nullptr;
}

/// Whether evaluating \p E can store into frame slot \p Slot of the
/// current frame.  Closure bodies run in frames of their own.
bool maySetSlot(const Expr *E, uint32_t Slot) {
  auto Stores = [Slot](const SlotRef &Where) {
    return Where.Loc != VarLoc::Cell && Where.Index == Slot;
  };
  switch (E->getKind()) {
  case Expr::Kind::ClosureLit:
    return false;
  case Expr::Kind::AssignVar:
    if (Stores(cast<AssignVarExpr>(E)->Slot))
      return true;
    break;
  case Expr::Kind::Let:
    if (Stores(cast<LetExpr>(E)->Slot))
      return true;
    break;
  case Expr::Kind::Inlined:
    for (const SlotRef &Where : cast<InlinedExpr>(E)->BindingSlots)
      if (Stores(Where))
        return true;
    break;
  default:
    break;
  }
  bool Found = false;
  forEachChild(E, [&](const Expr *Child) {
    Found = Found || maySetSlot(Child, Slot);
  });
  return Found;
}

class ModuleBuilder {
public:
  ModuleBuilder(const CompiledProgram &CP, BcModule &Mod)
      : CP(CP), P(CP.program()), Mod(Mod) {}

  bool run();
  const std::string &error() const { return Error; }

private:
  /// A position in the stream a region can start at: the next pc plus
  /// how many charge points precede it.
  struct Label {
    uint32_t Pc;
    uint32_t Charge;
  };

  /// One open InlinedExpr region during body compilation.
  struct OpenRegion {
    uint32_t Boundary;
    uint32_t Dst;
    std::vector<uint32_t> ExitRegions; ///< charge regions to bind at End.
  };

  /// Per-function compilation state (saved/restored around closure
  /// compilation, which nests).
  struct FnState {
    BcFunction *Fn = nullptr;
    uint32_t MaxReg = 0;
    bool IsMethod = false;
    std::vector<OpenRegion> Open;
  };

  BcFunction *compileMethod(const CompiledMethod &CM);
  BcFunction *getOrCompileClosure(const ClosureLitExpr *Lit);
  bool compileInto(BcFunction &Fn, const Expr *Body,
                   const FrameLayout &SrcLayout);
  bool compileExpr(const Expr *E, uint32_t Dst);
  bool operand(const Expr *E, uint32_t Dst, uint32_t &Reg);
  bool slotWindow(const Expr *Head, const std::vector<ExprPtr> &Tail,
                  uint32_t &First);
  void finishRegions(BcFunction &Fn);

  bool fail(const std::string &Why) {
    if (Error.empty())
      Error = Why;
    return false;
  }

  uint32_t emit(BcOp Op, SourceLoc Loc, uint8_t K = 0, uint32_t A = 0,
                uint32_t B = 0, uint32_t C = 0, uint32_t D = 0) {
    Insn I;
    I.Op = Op;
    I.K = K;
    I.A = static_cast<uint16_t>(A);
    I.B = static_cast<uint16_t>(B);
    I.C = static_cast<uint16_t>(C);
    I.D = D;
    S.Fn->Code.push_back(I);
    S.Fn->Locs.push_back(Loc);
    return static_cast<uint32_t>(S.Fn->Code.size() - 1);
  }

  uint32_t here() const { return static_cast<uint32_t>(S.Fn->Code.size()); }
  Label label() const {
    return {here(), static_cast<uint32_t>(S.Fn->Charges.size())};
  }

  /// Records \p E's charge point ahead of the next instruction.
  void charge(const Expr *E) {
    S.Fn->Charges.push_back(BcCharge{here(), E->getKind(), E->getLoc()});
  }

  /// Allocates \p N consecutive charge regions, bound later.
  uint32_t newRegions(uint32_t N = 1) {
    uint32_t First = static_cast<uint32_t>(S.Fn->ChargeRegions.size());
    S.Fn->ChargeRegions.resize(First + N);
    return First;
  }
  void bind(uint32_t Region, Label L) {
    S.Fn->ChargeRegions[Region].Start = L.Pc;
    S.Fn->ChargeRegions[Region].FirstCharge = L.Charge;
  }

  /// Registers a destination/operand register; the uint16 encoding bound
  /// is checked once per function in compileInto.
  bool touchReg(uint32_t Reg) {
    if (Reg + 1 > S.MaxReg)
      S.MaxReg = Reg + 1;
    return true;
  }

  bool index16(uint32_t V) { return V <= 0xFFFF; }

  const CompiledProgram &CP;
  const Program &P;
  BcModule &Mod;
  FnState S;
  std::string Error;
  /// finishRegions' per-pc scratch, reused across functions.
  std::vector<uint32_t> After, Term;
};

bool ModuleBuilder::run() {
  const std::vector<CompiledMethod> &Versions = CP.versions();
  Mod.ByVersion.assign(Versions.size(), nullptr);
  for (const CompiledMethod &CM : Versions) {
    if (!CM.Body)
      continue; // builtin: invoked as a primitive, no body to lower
    BcFunction *Fn = compileMethod(CM);
    if (!Fn)
      return false;
    Mod.ByVersion[CM.Index] = Fn;
  }
  Mod.NumFunctions = static_cast<uint32_t>(Mod.Functions.size());
  for (const std::unique_ptr<BcFunction> &Fn : Mod.Functions)
    Mod.CodeBytes += Fn->Code.size() * sizeof(Insn);
  return true;
}

BcFunction *ModuleBuilder::compileMethod(const CompiledMethod &CM) {
  if (!CM.Layout.Resolved) {
    fail("method version " + P.methodLabel(CM.Source) +
         " was not slot-resolved");
    return nullptr;
  }
  Mod.Functions.push_back(std::make_unique<BcFunction>());
  BcFunction *Fn = Mod.Functions.back().get();
  Fn->Source = CM.Source;
  Fn->Method = &CM;
  Fn->Name = P.methodLabel(CM.Source) + " #" + std::to_string(CM.Index);

  FnState Saved = std::move(S);
  S = FnState();
  S.Fn = Fn;
  S.IsMethod = true;
  bool Ok = compileInto(*Fn, CM.Body.get(), CM.Layout);
  S = std::move(Saved);
  return Ok ? Fn : nullptr;
}

BcFunction *ModuleBuilder::getOrCompileClosure(const ClosureLitExpr *Lit) {
  auto It = Mod.ByClosure.find(Lit);
  if (It != Mod.ByClosure.end())
    return It->second;
  if (!Lit->Layout.Resolved) {
    fail("closure literal was not slot-resolved");
    return nullptr;
  }
  Mod.Functions.push_back(std::make_unique<BcFunction>());
  BcFunction *Fn = Mod.Functions.back().get();
  Fn->Lit = Lit;
  Fn->Name = "closure @" + std::to_string(Lit->getLoc().Line) + ":" +
             std::to_string(Lit->getLoc().Col);

  FnState Saved = std::move(S);
  S = FnState();
  S.Fn = Fn;
  S.IsMethod = false;
  bool Ok = compileInto(*Fn, Lit->Body.get(), Lit->Layout);
  S = std::move(Saved);
  if (!Ok)
    return nullptr;
  Mod.ByClosure.emplace(Lit, Fn);
  return Fn;
}

bool ModuleBuilder::compileInto(BcFunction &Fn, const Expr *Body,
                                const FrameLayout &SrcLayout) {
  Fn.FirstTemp = SrcLayout.NumSlots;
  S.MaxReg = SrcLayout.NumSlots;
  bind(newRegions(), label()); // region 0: the prologue's
  if (!compileExpr(Body, SrcLayout.NumSlots))
    return false;
  emit(BcOp::RetLocal, Body->getLoc(), 0, SrcLayout.NumSlots);
  if (S.MaxReg > 0xFFFF)
    return fail("function '" + Fn.Name + "' needs " +
                std::to_string(S.MaxReg) + " registers (uint16 encoding)");
  Fn.NumTemps = S.MaxReg - SrcLayout.NumSlots;
  Fn.Layout = SrcLayout;
  Fn.Layout.NumSlots = S.MaxReg;
  finishRegions(Fn);
  return true;
}

void ModuleBuilder::finishRegions(BcFunction &Fn) {
  const uint32_t N = static_cast<uint32_t>(Fn.Code.size());
  // After[Pc]: index of the first charge point past Pc's action.
  // Term[Pc]: the region-ending instruction at or after Pc (the stream
  // ends in RetLocal, so there always is one).
  After.resize(N);
  Term.resize(N);
  uint32_t Ch = 0;
  for (uint32_t Pc = 0; Pc != N; ++Pc) {
    while (Ch != Fn.Charges.size() && Fn.Charges[Ch].Pc <= Pc)
      ++Ch;
    After[Pc] = Ch;
  }
  for (uint32_t Pc = N, T = N - 1; Pc-- != 0;) {
    if (bcEndsRegion(Fn.Code[Pc].Op))
      T = Pc;
    Term[Pc] = T;
  }
  // Branches were emitted naming their region in D; give D the target pc
  // and move the region to B:C (bcBranchRegion).
  for (Insn &I : Fn.Code)
    if (I.Op == BcOp::Jump || I.Op == BcOp::CondBranch) {
      const uint32_t Region = I.D;
      I.B = static_cast<uint16_t>(Region);
      I.C = static_cast<uint16_t>(Region >> 16);
      I.D = Fn.ChargeRegions[Region].Start;
    }
  Fn.Suffixes.resize(N);
  for (uint32_t Pc = 0; Pc != N; ++Pc)
    Fn.Suffixes[Pc] = BcChargeSuffix{After[Pc], After[Term[Pc]] - After[Pc],
                                     Term[Pc] - Pc};
  for (BcChargeRegion &Rg : Fn.ChargeRegions) {
    Rg.Len = Term[Rg.Start] - Rg.Start + 1;
    Rg.Nodes = After[Term[Rg.Start]] - Rg.FirstCharge;
  }
  Fn.RegionBase = Mod.NumChargeRegions;
  Mod.NumChargeRegions += static_cast<uint32_t>(Fn.ChargeRegions.size());
}

bool ModuleBuilder::operand(const Expr *E, uint32_t Dst, uint32_t &Reg) {
  if (const VarRefExpr *V = slotRead(E)) {
    if (!index16(V->Slot.Index))
      return fail("variable index exceeds uint16 encoding");
    charge(E);
    Reg = V->Slot.Index;
    return true;
  }
  Reg = Dst;
  return compileExpr(E, Dst);
}

/// The window is \p Head (when non-null) followed by \p Tail.
bool ModuleBuilder::slotWindow(const Expr *Head,
                               const std::vector<ExprPtr> &Tail,
                               uint32_t &First) {
  const Expr *FirstExpr = Head ? Head : Tail.empty() ? nullptr : Tail[0].get();
  const VarRefExpr *V0 = FirstExpr ? slotRead(FirstExpr) : nullptr;
  const size_t N = Tail.size() + (Head ? 1 : 0);
  if (!V0 || !index16(V0->Slot.Index + N - 1))
    return false;
  for (size_t I = 0; I != Tail.size(); ++I) {
    const VarRefExpr *V = slotRead(Tail[I].get());
    if (!V || V->Slot.Index != V0->Slot.Index + I + (Head ? 1 : 0))
      return false;
  }
  First = V0->Slot.Index;
  if (Head)
    charge(Head);
  for (const ExprPtr &E : Tail)
    charge(E.get());
  return true;
}

bool ModuleBuilder::compileExpr(const Expr *E, uint32_t Dst) {
  touchReg(Dst);
  const SourceLoc Loc = E->getLoc();

  switch (E->getKind()) {
  case Expr::Kind::IntLit: {
    int64_t V = cast<IntLitExpr>(E)->Value;
    charge(E);
    if (V >= std::numeric_limits<int32_t>::min() &&
        V <= std::numeric_limits<int32_t>::max()) {
      emit(BcOp::LoadInt, Loc, 1, Dst, 0, 0,
           static_cast<uint32_t>(static_cast<int32_t>(V)));
    } else {
      S.Fn->IntPool.push_back(V);
      emit(BcOp::LoadInt, Loc, 0, Dst, 0, 0,
           static_cast<uint32_t>(S.Fn->IntPool.size() - 1));
    }
    return true;
  }

  case Expr::Kind::BoolLit:
    charge(E);
    emit(BcOp::LoadBool, Loc, cast<BoolLitExpr>(E)->Value ? 1 : 0, Dst);
    return true;

  case Expr::Kind::StrLit:
    charge(E);
    S.Fn->StrPool.push_back(&cast<StrLitExpr>(E)->Value);
    emit(BcOp::LoadStr, Loc, 0, Dst, 0, 0,
         static_cast<uint32_t>(S.Fn->StrPool.size() - 1));
    return true;

  case Expr::Kind::NilLit:
    charge(E);
    emit(BcOp::LoadNil, Loc, 0, Dst);
    return true;

  case Expr::Kind::VarRef: {
    const auto *V = cast<VarRefExpr>(E);
    if (!index16(V->Slot.Index))
      return fail("variable index exceeds uint16 encoding");
    switch (V->Slot.Loc) {
    case VarLoc::Slot:
      charge(E);
      emit(BcOp::LoadVarSlot, Loc, 0, Dst, V->Slot.Index);
      return true;
    case VarLoc::Cell:
      charge(E);
      emit(BcOp::LoadVarCell, Loc, 0, Dst, V->Slot.Index);
      return true;
    case VarLoc::Capture:
      charge(E);
      emit(BcOp::LoadVarCapture, Loc, 0, Dst, V->Slot.Index);
      return true;
    case VarLoc::Unresolved:
      break;
    }
    return fail("unresolved variable '" + P.Syms.name(V->Name) + "'");
  }

  case Expr::Kind::AssignVar: {
    const auto *A = cast<AssignVarExpr>(E);
    charge(E);
    if (!compileExpr(A->Value.get(), Dst))
      return false;
    if (!index16(A->Slot.Index))
      return fail("variable index exceeds uint16 encoding");
    switch (A->Slot.Loc) {
    case VarLoc::Slot:
      emit(BcOp::StoreSlot, Loc, 0, Dst, A->Slot.Index);
      return true;
    case VarLoc::Cell:
      emit(BcOp::StoreCell, Loc, 0, Dst, A->Slot.Index);
      return true;
    case VarLoc::Capture:
      emit(BcOp::StoreCapture, Loc, 0, Dst, A->Slot.Index);
      return true;
    case VarLoc::Unresolved:
      break;
    }
    return fail("assignment to unresolved variable '" +
                P.Syms.name(A->Name) + "'");
  }

  case Expr::Kind::Let: {
    const auto *L = cast<LetExpr>(E);
    charge(E);
    uint32_t Src;
    if (!operand(L->Init.get(), Dst, Src))
      return false;
    if (!index16(L->Slot.Index))
      return fail("variable index exceeds uint16 encoding");
    // Mirrors the AST walker: a Cell-located let makes a fresh cell per
    // execution; anything else stores into the plain slot.
    if (L->Slot.Loc == VarLoc::Cell)
      emit(BcOp::LetCell, Loc, 0, Src, L->Slot.Index);
    else
      emit(BcOp::StoreSlot, Loc, 0, Src, L->Slot.Index);
    emit(BcOp::LoadNilRaw, Loc, 0, Dst);
    return true;
  }

  case Expr::Kind::Seq: {
    const auto *Sq = cast<SeqExpr>(E);
    charge(E);
    if (Sq->Elems.empty()) {
      emit(BcOp::LoadNilRaw, Loc, 0, Dst);
      return true;
    }
    for (const ExprPtr &Elem : Sq->Elems)
      if (!compileExpr(Elem.get(), Dst))
        return false;
    return true;
  }

  case Expr::Kind::If: {
    const auto *I = cast<IfExpr>(E);
    charge(E);
    uint32_t Cond;
    if (!operand(I->Cond.get(), Dst, Cond))
      return false;
    const uint32_t Branch = newRegions(2); // false, true
    emit(BcOp::CondBranch, I->Cond->getLoc(), 0, Cond, 0, 0, Branch);
    bind(Branch + 1, label());
    if (!compileExpr(I->Then.get(), Dst))
      return false;
    const uint32_t Join = newRegions();
    emit(BcOp::Jump, Loc, 0, 0, 0, 0, Join);
    bind(Branch, label());
    if (I->Else) {
      if (!compileExpr(I->Else.get(), Dst))
        return false;
    } else {
      emit(BcOp::LoadNilRaw, Loc, 0, Dst);
    }
    bind(Join, label());
    return true;
  }

  case Expr::Kind::While: {
    const auto *W = cast<WhileExpr>(E);
    charge(E);
    const Label Loop = label();
    uint32_t Cond;
    if (!operand(W->Cond.get(), Dst, Cond))
      return false;
    const uint32_t Branch = newRegions(2); // false (exit), true (body)
    emit(BcOp::CondBranch, W->Cond->getLoc(), 1, Cond, 0, 0, Branch);
    bind(Branch + 1, label());
    if (!compileExpr(W->Body.get(), Dst))
      return false;
    const uint32_t Back = newRegions();
    emit(BcOp::Jump, Loc, 0, 0, 0, 0, Back);
    bind(Back, Loop);
    bind(Branch, label());
    emit(BcOp::LoadNilRaw, Loc, 0, Dst);
    return true;
  }

  case Expr::Kind::Send: {
    const auto *Sd = cast<SendExpr>(E);
    if (Sd->Args.size() > 0xFFFF)
      return fail("send arity exceeds uint16 encoding");
    charge(E);
    uint32_t Window = Dst;
    if (!slotWindow(nullptr, Sd->Args, Window))
      for (size_t I = 0; I != Sd->Args.size(); ++I)
        if (!compileExpr(Sd->Args[I].get(), Dst + static_cast<uint32_t>(I)))
          return false;

    BcSite Site;
    Site.S = Sd;
    BcOp Op = BcOp::CallDyn;
    switch (Sd->Binding.Kind) {
    case SendBindKind::Dynamic:
      Op = BcOp::CallDyn;
      break;
    case SendBindKind::Static:
      Op = BcOp::CallStatic;
      break;
    case SendBindKind::StaticSelect:
      Op = BcOp::CallSelect;
      break;
    case SendBindKind::InlinePrim:
      Op = BcOp::CallPrim;
      Site.Prim = P.method(Sd->Binding.Target).Prim;
      break;
    case SendBindKind::Predicted:
      Op = BcOp::CallPred;
      Site.Prim = P.method(Sd->Binding.Target).Prim;
      break;
    case SendBindKind::FeedbackGuard:
      Op = BcOp::CallFeedback;
      break;
    }
    Site.IcSlot = Mod.NumIcSlots++;
    if (bcEndsRegion(Op))
      Site.Cont = newRegions();
    S.Fn->Sites.push_back(Site);
    emit(Op, Loc, 0, Dst, Window, static_cast<uint32_t>(Sd->Args.size()),
         static_cast<uint32_t>(S.Fn->Sites.size() - 1));
    if (bcEndsRegion(Op))
      bind(Site.Cont, label());
    return true;
  }

  case Expr::Kind::ClosureCall: {
    const auto *Call = cast<ClosureCallExpr>(E);
    if (Call->Args.size() > 0xFFFF)
      return fail("closure-call arity exceeds uint16 encoding");
    charge(E);
    uint32_t Callee = Dst;
    if (!slotWindow(Call->Callee.get(), Call->Args, Callee)) {
      if (!compileExpr(Call->Callee.get(), Dst))
        return false;
      for (size_t I = 0; I != Call->Args.size(); ++I)
        if (!compileExpr(Call->Args[I].get(),
                         Dst + 1 + static_cast<uint32_t>(I)))
          return false;
    }
    const uint32_t Cont = newRegions();
    emit(BcOp::CallClosure, Loc, 0, Dst, Callee,
         static_cast<uint32_t>(Call->Args.size()), Cont);
    bind(Cont, label());
    return true;
  }

  case Expr::Kind::ClosureLit: {
    const auto *Lit = cast<ClosureLitExpr>(E);
    BcFunction *CF = getOrCompileClosure(Lit);
    if (!CF)
      return false;
    S.Fn->Closures.push_back(BcClosureRef{Lit, CF});
    charge(E);
    emit(BcOp::MakeClosure, Loc, 0, Dst, 0, 0,
         static_cast<uint32_t>(S.Fn->Closures.size() - 1));
    return true;
  }

  case Expr::Kind::New: {
    const auto *N = cast<NewExpr>(E);
    if (!N->Class.isValid())
      return fail("unresolved class in new expression");
    BcNewSite Site;
    Site.N = N;
    Site.LayoutSize =
        static_cast<uint32_t>(P.Classes.info(N->Class).Layout.size());
    S.Fn->NewSites.push_back(Site);
    charge(E);
    emit(BcOp::NewObj, Loc, 0, Dst, 0, 0,
         static_cast<uint32_t>(S.Fn->NewSites.size() - 1));
    for (const auto &[SlotName, Init] : N->Inits) {
      uint32_t Value;
      if (!operand(Init.get(), Dst + 1, Value))
        return false;
      int Idx = P.Classes.slotIndex(N->Class, SlotName);
      if (Idx < 0 || !index16(static_cast<uint32_t>(Idx)))
        return fail("unresolvable slot initializer in new expression");
      emit(BcOp::InitSlot, Init->getLoc(), 0, Dst,
           static_cast<uint32_t>(Idx), Value);
    }
    return true;
  }

  case Expr::Kind::SlotGet: {
    const auto *G = cast<SlotGetExpr>(E);
    charge(E);
    uint32_t Object;
    if (!operand(G->Object.get(), Dst, Object))
      return false;
    S.Fn->SlotSites.push_back(BcSlotSite{G->SlotName, Mod.NumSlotCacheSlots++});
    emit(BcOp::GetSlot, Loc, 0, Dst, Object, 0,
         static_cast<uint32_t>(S.Fn->SlotSites.size() - 1));
    return true;
  }

  case Expr::Kind::SlotSet: {
    const auto *St = cast<SlotSetExpr>(E);
    charge(E);
    // The object is read before the value runs, so it may only be read in
    // place when the value cannot reassign its slot.
    const VarRefExpr *ObjRead = slotRead(St->Object.get());
    uint32_t Object = Dst;
    if (ObjRead && !maySetSlot(St->Value.get(), ObjRead->Slot.Index)) {
      if (!operand(St->Object.get(), Dst, Object))
        return false;
    } else if (!compileExpr(St->Object.get(), Dst)) {
      return false;
    }
    uint32_t Value;
    if (!operand(St->Value.get(), Dst + 1, Value))
      return false;
    S.Fn->SlotSites.push_back(BcSlotSite{St->SlotName, Mod.NumSlotCacheSlots++});
    emit(BcOp::SetSlot, Loc, 0, Dst, Object, Value,
         static_cast<uint32_t>(S.Fn->SlotSites.size() - 1));
    return true;
  }

  case Expr::Kind::Return: {
    const auto *R = cast<ReturnExpr>(E);
    charge(E);
    uint32_t Value = Dst;
    if (R->Value) {
      if (!operand(R->Value.get(), Dst, Value))
        return false;
    } else {
      emit(BcOp::LoadNilRaw, Loc, 0, Dst);
    }
    // A return lexically inside its matching inlined region resolves
    // statically: land the value in the region's result register and jump
    // to the region's end.  (The innermost matching region corresponds to
    // the nearest enclosing InlinedExpr the AST walker's unwinding would
    // reach first.)
    for (auto It = S.Open.rbegin(); It != S.Open.rend(); ++It) {
      if (It->Boundary != R->Boundary)
        continue;
      if (It->Dst != Value)
        emit(BcOp::Move, Loc, 0, It->Dst, Value);
      It->ExitRegions.push_back(newRegions());
      emit(BcOp::Jump, Loc, 0, 0, 0, 0, It->ExitRegions.back());
      return true;
    }
    if (R->Boundary == 0 && S.IsMethod) {
      emit(BcOp::RetLocal, Loc, 0, Value);
      return true;
    }
    emit(BcOp::RetNonLocal, Loc, 0, Value, 0, 0, R->Boundary);
    return true;
  }

  case Expr::Kind::Inlined: {
    const auto *In = cast<InlinedExpr>(E);
    charge(E);
    emit(BcOp::StackCheck, Loc);
    if (In->BindingSlots.size() != In->Bindings.size())
      return fail("inlined body is missing binding slot assignments");
    for (size_t I = 0; I != In->Bindings.size(); ++I) {
      const Expr *Init = In->Bindings[I].second.get();
      uint32_t Src;
      if (!operand(Init, Dst, Src))
        return false;
      const SlotRef &Where = In->BindingSlots[I];
      if (!index16(Where.Index))
        return fail("binding index exceeds uint16 encoding");
      // Mirrors the AST walker's binding stores (Cell -> fresh cell,
      // anything else -> plain slot).
      if (Where.Loc == VarLoc::Cell)
        emit(BcOp::LetCell, Init->getLoc(), 0, Src, Where.Index);
      else
        emit(BcOp::StoreSlot, Init->getLoc(), 0, Src, Where.Index);
    }
    S.Open.push_back(OpenRegion{In->Boundary, Dst, {}});
    uint32_t Start = here();
    if (!compileExpr(In->Body.get(), Dst))
      return false;
    const Label End = label();
    for (uint32_t Exit : S.Open.back().ExitRegions)
      bind(Exit, End);
    const uint32_t Landing = newRegions();
    bind(Landing, End);
    S.Fn->InlinedRegions.push_back(BcInlinedRegion{
        Start, End.Pc, In->Boundary, static_cast<uint16_t>(Dst), Landing});
    S.Open.pop_back();
    return true;
  }
  }
  return fail("unknown expression kind");
}

} // namespace

BcModule selspec::compileToBytecode(const CompiledProgram &CP) {
  BcModule Mod;
  ModuleBuilder B(CP, Mod);
  if (B.run()) {
    Mod.Ok = true;
    CtrCompiledFunctions.add(Mod.NumFunctions);
    CtrCodeBytes.add(Mod.CodeBytes);
  } else {
    Mod.Ok = false;
    Mod.Error = B.error();
    CtrCompileFallbacks.add();
  }
  return Mod;
}
