//===- opt/Optimizer.cpp - Vortex-lite optimizing compiler -----------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"

#include "analysis/StaticBinding.h"
#include "hierarchy/Builtins.h"
#include "lang/SlotResolver.h"
#include "support/TraceEmitter.h"

#include <algorithm>

using namespace selspec;

namespace {

/// Free variables of a closure literal: names referenced in its body that
/// the literal does not bind itself.
void freeVarsImpl(const Expr *E, std::vector<std::vector<uint32_t>> &Bound,
                  std::unordered_set<uint32_t> &Free) {
  auto IsBound = [&](uint32_t Name) {
    for (const auto &Scope : Bound)
      for (uint32_t B : Scope)
        if (B == Name)
          return true;
    return false;
  };
  switch (E->getKind()) {
  case Expr::Kind::VarRef: {
    uint32_t Name = cast<VarRefExpr>(E)->Name.value();
    if (!IsBound(Name))
      Free.insert(Name);
    return;
  }
  case Expr::Kind::AssignVar: {
    const auto *A = cast<AssignVarExpr>(E);
    if (!IsBound(A->Name.value()))
      Free.insert(A->Name.value());
    freeVarsImpl(A->Value.get(), Bound, Free);
    return;
  }
  case Expr::Kind::Let: {
    const auto *L = cast<LetExpr>(E);
    freeVarsImpl(L->Init.get(), Bound, Free);
    Bound.back().push_back(L->Name.value());
    return;
  }
  case Expr::Kind::Seq:
    Bound.emplace_back();
    for (const ExprPtr &Elem : cast<SeqExpr>(E)->Elems)
      freeVarsImpl(Elem.get(), Bound, Free);
    Bound.pop_back();
    return;
  case Expr::Kind::ClosureLit: {
    const auto *C = cast<ClosureLitExpr>(E);
    Bound.emplace_back();
    for (Symbol S : C->Params)
      Bound.back().push_back(S.value());
    freeVarsImpl(C->Body.get(), Bound, Free);
    Bound.pop_back();
    return;
  }
  default:
    forEachChild(E, [&](const Expr *Child) {
      freeVarsImpl(Child, Bound, Free);
    });
    return;
  }
}

std::unordered_set<uint32_t> freeVarsOf(const ClosureLitExpr &Lit) {
  std::unordered_set<uint32_t> Free;
  std::vector<std::vector<uint32_t>> Bound;
  Bound.emplace_back();
  for (Symbol S : Lit.Params)
    Bound.back().push_back(S.value());
  freeVarsImpl(Lit.Body.get(), Bound, Free);
  return Free;
}

/// Messages with hard-wired class prediction in the Base configuration.
bool isPredictedGenericName(const std::string &Name) {
  static const char *Names[] = {"+", "-",  "*",  "/", "%", "<",
                                "<=", ">", ">=", "==", "!="};
  for (const char *N : Names)
    if (Name == N)
      return true;
  return false;
}

/// Code-size estimate: AST nodes plus dispatch stub costs.
unsigned estimateCodeSize(const Expr *E) {
  unsigned N = 1;
  if (const auto *Send = dyn_cast<SendExpr>(E)) {
    switch (Send->Binding.Kind) {
    case SendBindKind::Dynamic:
      N += 2;
      break;
    case SendBindKind::Predicted:
    case SendBindKind::StaticSelect:
    case SendBindKind::FeedbackGuard:
      N += 1;
      break;
    case SendBindKind::Static:
    case SendBindKind::InlinePrim:
      break;
    }
  }
  forEachChild(E, [&](const Expr *Child) { N += estimateCodeSize(Child); });
  return N;
}

} // namespace

Optimizer::Optimizer(Program &P, const ApplicableClassesAnalysis &AC,
                     OptimizerOptions Options, const CallGraph *Profile)
    : P(P), AC(AC), Options(Options), Profile(Profile) {
  if (Options.UseReturnClasses)
    RC = std::make_unique<ReturnClassAnalysis>(P, AC);
}

/// Return-class knowledge for a bound callee; universe when the analysis
/// is off or the callee's set is empty (a method that never returns).
static ClassSet returnSetOr(const ReturnClassAnalysis *RC, MethodId M,
                            const ClassSet &Fallback) {
  if (!RC)
    return Fallback;
  const ClassSet &S = RC->of(M);
  return S.isEmpty() ? Fallback : S;
}

std::unique_ptr<CompiledProgram>
Optimizer::compile(const SpecializationPlan &Plan) {
  TraceEmitter::Scope Timing("optimize");
  auto CP = std::make_unique<CompiledProgram>(P, Plan.Configuration,
                                              Plan.UseCHA);

  // Phase 1: create every version so that version-binding decisions can
  // see the full version tables.
  for (unsigned MI = 0; MI != P.numMethods(); ++MI) {
    MethodId M(MI);
    const MethodInfo &Info = P.method(M);
    if (Info.isBuiltin()) {
      CompiledMethod CM;
      CM.Source = M;
      for (ClassId Spec : Info.Specializers)
        CM.Tuple.push_back(P.Classes.cone(Spec));
      CM.CodeSize = 1;
      CP->addVersion(std::move(CM));
      continue;
    }
    for (const SpecTuple &T : Plan.VersionsByMethod[MI]) {
      CompiledMethod CM;
      CM.Source = M;
      CM.Tuple = T;
      CP->addVersion(std::move(CM));
    }
  }

  // Phase 2: optimize each user version's body.
  CurCP = CP.get();
  CurPlan = &Plan;
  for (uint32_t I = 0; I != CP->versions().size(); ++I)
    if (!P.method(CP->version(I).Source).isBuiltin())
      compileVersion(*CP, I);
  CurCP = nullptr;
  CurPlan = nullptr;
  return CP;
}

void Optimizer::compileVersion(CompiledProgram &CP, uint32_t Index) {
  CompiledMethod &CM = CP.version(Index);
  const MethodInfo &M = P.method(CM.Source);
  assert(M.Body && "user method without body");

  CurInliner = std::make_unique<Inliner>(P.Syms);
  ExprPtr Body = M.Body->clone();

  AssignedNames = collectAssignedNames(Body.get());
  ClosureAssignedNames = collectClosureAssignedNames(Body.get());
  KnownClosures.clear();
  InlineStack.clear();
  InlineStack.push_back(CM.Source);
  ClosureDepth = 0;
  InlinedNodesLeft = Options.MaxInlinedNodesPerVersion;

  Env = ClassEnv();
  Env.pushScope();
  Config Cfg = CurCP->configuration();
  bool Customized = Cfg == Config::Cust || Cfg == Config::CustMM;
  for (unsigned I = 0; I != M.arity(); ++I) {
    // Version tuples derive from specializer cones, i.e. from the class
    // hierarchy.  Without whole-program CHA the compiler may only trust
    // class knowledge the *plan* made exact — a customized position is
    // exact by construction of version selection, whereas "this cone
    // happens to contain a single class" is precisely the fact CHA adds
    // (Table 1).
    ClassId Single = CM.Tuple[I].getSingleElement();
    bool SealedExact = Single.isValid() && P.Classes.isSealed(Single);
    if (CurCP->usesCHA() || SealedExact ||
        (Customized && Single.isValid()))
      Env.define(M.ParamNames[I], CM.Tuple[I]);
    else
      Env.define(M.ParamNames[I], universe());
  }

  analyze(Body);
  // One count per body; both passes subtract what they remove, so every
  // decision sees the counts a fresh walk would give.
  VarRefCounts Refs;
  tallyVarRefs(Body.get(), Refs);
  eliminateDeadClosures(Body.get(), Refs);
  if (Options.EnableDeadCodeElimination)
    eliminateDeadCode(Body.get(), Refs);

  CM.CodeSize = estimateCodeSize(Body.get());
  // Slot-resolve last: inlining and the rewrites above are all done, so
  // the layout reflects exactly the body the interpreter will execute.
  CM.Layout = SlotResolver::resolve(M.ParamNames, Body.get());
  CM.Body = std::move(Body);
  CurInliner.reset();
}

ClassSet Optimizer::varSet(Symbol Name) {
  // Rule: inside a closure, any variable assigned anywhere in the body may
  // have changed between capture and call; variables assigned inside any
  // closure may change at any call.
  if (ClosureDepth > 0 && AssignedNames.count(Name.value()))
    return universe();
  if (ClosureAssignedNames.count(Name.value()))
    return universe();
  if (ClassSet *S = Env.lookup(Name))
    return *S;
  return universe();
}

ClassSet Optimizer::analyze(ExprPtr &E) {
  unsigned U = P.Classes.size();
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
    return ClassSet::single(U, builtin::Int);
  case Expr::Kind::BoolLit:
    return ClassSet::single(U, builtin::Bool);
  case Expr::Kind::StrLit:
    return ClassSet::single(U, builtin::String);
  case Expr::Kind::NilLit:
    return ClassSet::single(U, builtin::Nil);

  case Expr::Kind::VarRef:
    return varSet(cast<VarRefExpr>(E.get())->Name);

  case Expr::Kind::AssignVar: {
    auto *A = cast<AssignVarExpr>(E.get());
    ClassSet V = analyze(A->Value);
    // Accumulate: the variable may now hold either the old or new classes
    // depending on path (sound for joins without explicit merge points).
    if (ClassSet *Slot = Env.lookup(A->Name))
      *Slot |= V;
    return V;
  }

  case Expr::Kind::Let: {
    auto *L = cast<LetExpr>(E.get());
    ClassSet V = analyze(L->Init);
    // Closed closure literals bound by `let` may be inlined at call sites
    // anywhere in scope (free variables would risk capture by shadowing).
    if (const auto *Lit = dyn_cast<ClosureLitExpr>(L->Init.get())) {
      if (!AssignedNames.count(L->Name.value()) && freeVarsOf(*Lit).empty())
        KnownClosures[L->Name.value()] = Lit;
      else
        KnownClosures.erase(L->Name.value());
    } else {
      KnownClosures.erase(L->Name.value());
    }
    Env.define(L->Name, std::move(V));
    return ClassSet::single(U, builtin::Nil);
  }

  case Expr::Kind::Seq: {
    auto *Seq = cast<SeqExpr>(E.get());
    Env.pushScope();
    ClassSet Last = ClassSet::single(U, builtin::Nil);
    for (ExprPtr &Elem : Seq->Elems)
      Last = analyze(Elem);
    Env.popScope();
    return Last;
  }

  case Expr::Kind::If: {
    auto *I = cast<IfExpr>(E.get());
    analyze(I->Cond);
    ClassSet R = analyze(I->Then);
    if (I->Else)
      R |= analyze(I->Else);
    else
      R |= ClassSet::single(U, builtin::Nil);
    return R;
  }

  case Expr::Kind::While: {
    auto *W = cast<WhileExpr>(E.get());
    // Widen loop-carried variables before analyzing the body.
    std::unordered_set<uint32_t> LoopAssigned =
        collectAssignedNames(W->Body.get());
    for (uint32_t N : collectAssignedNames(W->Cond.get()))
      LoopAssigned.insert(N);
    Env.widen(LoopAssigned, universe());
    analyze(W->Cond);
    analyze(W->Body);
    return ClassSet::single(U, builtin::Nil);
  }

  case Expr::Kind::Send:
    return analyzeSend(E);

  case Expr::Kind::ClosureCall:
    return analyzeClosureCall(E);

  case Expr::Kind::ClosureLit: {
    auto *C = cast<ClosureLitExpr>(E.get());
    Env.pushScope();
    for (Symbol S : C->Params) {
      Env.define(S, universe());
      KnownClosures.erase(S.value());
    }
    ++ClosureDepth;
    analyze(C->Body);
    --ClosureDepth;
    Env.popScope();
    return ClassSet::single(U, builtin::Closure);
  }

  case Expr::Kind::New: {
    auto *N = cast<NewExpr>(E.get());
    for (auto &[Slot, Init] : N->Inits)
      analyze(Init);
    return ClassSet::single(U, N->Class);
  }

  case Expr::Kind::SlotGet:
    analyze(cast<SlotGetExpr>(E.get())->Object);
    return universe();

  case Expr::Kind::SlotSet: {
    auto *S = cast<SlotSetExpr>(E.get());
    analyze(S->Object);
    return analyze(S->Value);
  }

  case Expr::Kind::Return: {
    auto *R = cast<ReturnExpr>(E.get());
    if (R->Value)
      analyze(R->Value);
    return universe(); // unreachable afterwards; value irrelevant
  }

  case Expr::Kind::Inlined:
    return analyzeInlined(cast<InlinedExpr>(E.get()));
  }
  assert(false && "unknown expression kind");
  return universe();
}

ClassSet Optimizer::analyzeInlined(InlinedExpr *In) {
  // Runtime evaluates every binding init in the *outer* environment, then
  // binds; mirror that: analyze all inits first.
  std::vector<ClassSet> Sets;
  Sets.reserve(In->Bindings.size());
  for (auto &[Name, Init] : In->Bindings)
    Sets.push_back(analyze(Init));

  Env.pushScope();
  for (unsigned I = 0; I != In->Bindings.size(); ++I) {
    auto &[Name, Init] = In->Bindings[I];
    // Closure propagation: a literal (or an already-known closure
    // variable) bound into an inlined body can be inlined at its call
    // sites inside — the inlined body's binders are all fresh symbols, so
    // no shadowing of the literal's free variables can occur.
    const ClosureLitExpr *Known = nullptr;
    if (!AssignedNames.count(Name.value())) {
      if (const auto *Lit = dyn_cast<ClosureLitExpr>(Init.get())) {
        Known = Lit;
      } else if (const auto *V = dyn_cast<VarRefExpr>(Init.get())) {
        auto It = KnownClosures.find(V->Name.value());
        if (It != KnownClosures.end())
          Known = It->second;
      }
    }
    if (Known)
      KnownClosures[Name.value()] = Known;
    else
      KnownClosures.erase(Name.value());
    Env.define(Name, std::move(Sets[I]));
  }
  analyze(In->Body);
  Env.popScope();
  return universe();
}

ClassSet Optimizer::analyzeSend(ExprPtr &E) {
  auto *Send = cast<SendExpr>(E.get());
  unsigned U = P.Classes.size();

  std::vector<ClassSet> ArgSets;
  ArgSets.reserve(Send->Args.size());
  for (ExprPtr &A : Send->Args)
    ArgSets.push_back(analyze(A));

  GenericId G = Send->Generic;
  assert(G.isValid() && "unresolved send");

  // Step 1: try to bind statically.
  MethodId Target;
  if (CurCP->usesCHA()) {
    std::vector<MethodId> T = possibleTargets(AC, G, ArgSets);
    if (T.size() == 1)
      Target = T.front();
  } else {
    // Without whole-program CHA, binding requires exactly-known classes
    // at every *dispatched* position of the generic (the Self-style rule:
    // an exact receiver determines lookup); undetermined non-dispatched
    // positions never affect the outcome.
    std::vector<ClassId> Exact(ArgSets.size(), P.Classes.root());
    bool AllDispatchedKnown = true;
    for (unsigned I : AC.dispatchedPositions(G)) {
      ClassId C = ArgSets[I].getSingleElement();
      if (!C.isValid()) {
        AllDispatchedKnown = false;
        break;
      }
      Exact[I] = C;
    }
    if (AllDispatchedKnown)
      Target = P.dispatch(G, Exact);
  }

  if (Target.isValid()) {
    const MethodInfo &Callee = P.method(Target);
    if (Callee.isBuiltin()) {
      // Constant propagation & folding (Table 1): a pure primitive over
      // literal operands becomes a literal.
      if (Options.EnableConstantFolding && tryFoldPrim(E, Callee.Prim)) {
        ++S.ConstantsFolded;
        // E is now a literal; classify it directly.
        switch (E->getKind()) {
        case Expr::Kind::IntLit:
          return ClassSet::single(U, builtin::Int);
        case Expr::Kind::BoolLit:
          return ClassSet::single(U, builtin::Bool);
        default:
          break;
        }
      }
      Send->Binding = {SendBindKind::InlinePrim, Target, 0, ClassId()};
      ++S.SitesInlinePrim;
      return primResultSet(Callee.Prim, U);
    }

    // Version binding: direct when one version is uniformly selected for
    // every argument tuple we may pass; otherwise run-time selection.
    // Dispatch already chose Target, so the effective argument classes
    // are the given sets narrowed to Target's ApplicableClasses.
    SpecTuple EffSets = ArgSets;
    {
      const SpecTuple &Applicable = AC.of(Target);
      for (size_t I = 0; I != EffSets.size(); ++I)
        EffSets[I] &= Applicable[I];
    }
    const std::vector<uint32_t> &Versions = CurCP->versionsOf(Target);
    std::vector<uint32_t> Candidates;
    for (uint32_t VI : Versions) {
      const CompiledMethod &CM = CurCP->version(VI);
      if (tupleIntersects(CM.Tuple, EffSets))
        Candidates.push_back(VI);
    }
    int Direct = -1;
    for (uint32_t VI : Candidates) {
      const CompiledMethod &CM = CurCP->version(VI);
      if (!tupleSubsetOf(EffSets, CM.Tuple))
        continue; // does not contain all tuples we may pass
      bool MostSpecific = true;
      for (uint32_t Other : Candidates)
        if (!tupleSubsetOf(CM.Tuple, CurCP->version(Other).Tuple))
          MostSpecific = false;
      if (MostSpecific) {
        Direct = static_cast<int>(VI);
        break;
      }
    }

    // Inlining beats a direct version binding when the callee is small —
    // but when several specialized versions could be selected at run time
    // (Direct < 0), inlining the general source body here would bypass
    // the specializations entirely; keep the version-selecting call so
    // the specialized copies (with their statically-bound interiors) run.
    bool Recursive = std::find(InlineStack.begin(), InlineStack.end(),
                               Target) != InlineStack.end();
    unsigned CalleeSize = countNodes(Callee.Body.get());
    if (Direct >= 0 && Options.EnableInlining && !Recursive &&
        InlineStack.size() <= Options.MaxInlineDepth &&
        CalleeSize <= Options.InlineBudget &&
        CalleeSize <= InlinedNodesLeft) {
      InlinedNodesLeft -= CalleeSize;
      std::unique_ptr<InlinedExpr> In = CurInliner->inlineMethodCall(
          Callee, std::move(Send->Args), Send->Site, Send->getLoc());
      for (uint32_t N : collectAssignedNames(In->Body.get()))
        AssignedNames.insert(N);
      for (uint32_t N : collectClosureAssignedNames(In->Body.get()))
        ClosureAssignedNames.insert(N);
      ++this->S.MethodsInlined;
      E = std::move(In);
      InlineStack.push_back(Target);
      ClassSet R = analyzeInlined(cast<InlinedExpr>(E.get()));
      InlineStack.pop_back();
      return CurCP->usesCHA() ? returnSetOr(RC.get(), Target, R) : R;
    }

    if (Direct >= 0) {
      Send->Binding = {SendBindKind::Static, Target,
                       static_cast<uint32_t>(Direct), ClassId()};
      ++S.SitesStatic;
    } else {
      Send->Binding = {SendBindKind::StaticSelect, Target, 0, ClassId()};
      ++S.SitesStaticSelect;
    }
    return CurCP->usesCHA() ? returnSetOr(RC.get(), Target, universe())
                            : universe();
  }

  // Step 2: hard-wired class prediction for the common messages.
  if (Options.EnableClassPrediction &&
      isPredictedGenericName(P.Syms.name(Send->GenericName))) {
    bool IntPossible = true;
    for (const ClassSet &Set : ArgSets)
      IntPossible &= Set.contains(builtin::Int);
    if (IntPossible) {
      std::vector<ClassId> Ints(ArgSets.size(), builtin::Int);
      MethodId PM = P.dispatch(G, Ints);
      if (PM.isValid() && P.method(PM).isBuiltin()) {
        Send->Binding = {SendBindKind::Predicted, PM, 0, builtin::Int};
        ++S.SitesPredicted;
        return universe();
      }
    }
  }

  // Step 3: profile-guided type feedback for sites with one dominant
  // callee (an inline-cache guard; Section 6 extension).
  if (Options.EnableTypeFeedback && Profile && Send->Site.isValid()) {
    uint64_t Total = 0;
    Arc Dominant;
    for (const Arc &A : Profile->arcsAt(Send->Site)) {
      Total += A.Weight;
      if (A.Weight > Dominant.Weight)
        Dominant = A;
    }
    if (Total >= Options.FeedbackMinWeight &&
        Dominant.Weight * 100 >= Total * Options.FeedbackMinSharePct) {
      Send->Binding = {SendBindKind::FeedbackGuard, Dominant.Callee, 0,
                       ClassId()};
      ++S.SitesFeedback;
      return universe();
    }
  }

  Send->Binding = {SendBindKind::Dynamic, MethodId(), 0, ClassId()};
  ++S.SitesDynamic;
  if (RC && CurCP->usesCHA()) {
    ClassSet R = RC->resultOfSend(G, ArgSets);
    if (!R.isEmpty())
      return R;
  }
  return universe();
}

ClassSet Optimizer::analyzeClosureCall(ExprPtr &E) {
  auto *Call = cast<ClosureCallExpr>(E.get());

  const ClosureLitExpr *Known = nullptr;
  if (const auto *V = dyn_cast<VarRefExpr>(Call->Callee.get())) {
    auto It = KnownClosures.find(V->Name.value());
    if (It != KnownClosures.end())
      Known = It->second;
  }

  if (Known && Options.EnableClosureInlining &&
      Known->Params.size() == Call->Args.size() &&
      InlineStack.size() <= Options.MaxInlineDepth) {
    std::unique_ptr<InlinedExpr> In = CurInliner->inlineClosureCall(
        *Known, std::move(Call->Args), Call->getLoc());
    ++S.ClosureCallsInlined;
    E = std::move(In);
    return analyzeInlined(cast<InlinedExpr>(E.get()));
  }

  analyze(Call->Callee);
  for (ExprPtr &A : Call->Args)
    analyze(A);
  return universe();
}

bool Optimizer::tryFoldPrim(ExprPtr &E, PrimOp Op) {
  auto *Send = cast<SendExpr>(E.get());
  // Gather literal operands.
  std::vector<int64_t> Ints;
  std::vector<bool> Bools;
  for (const ExprPtr &A : Send->Args) {
    if (const auto *IL = dyn_cast<IntLitExpr>(A.get()))
      Ints.push_back(IL->Value);
    else if (const auto *BL = dyn_cast<BoolLitExpr>(A.get()))
      Bools.push_back(BL->Value);
    else
      return false;
  }
  SourceLoc Loc = E->getLoc();
  auto FoldInt = [&](int64_t V) {
    E = std::make_unique<IntLitExpr>(V, Loc);
    return true;
  };
  auto FoldBool = [&](bool V) {
    E = std::make_unique<BoolLitExpr>(V, Loc);
    return true;
  };

  switch (Op) {
  // Int arithmetic goes through intArith, the runtime's own definition.
  case PrimOp::IntAdd:
  case PrimOp::IntSub:
  case PrimOp::IntMul:
    return Ints.size() == 2 && FoldInt(intArith(Op, Ints[0], Ints[1]));
  case PrimOp::IntDiv:
  case PrimOp::IntMod:
    // Folding x/0 would hide the runtime fault; leave it alone.
    return Ints.size() == 2 && Ints[1] != 0 &&
           FoldInt(intArith(Op, Ints[0], Ints[1]));
  case PrimOp::IntNeg:
    return Ints.size() == 1 && FoldInt(intArith(Op, Ints[0], 0));
  case PrimOp::IntLess:
    return Ints.size() == 2 && FoldBool(Ints[0] < Ints[1]);
  case PrimOp::IntLessEq:
    return Ints.size() == 2 && FoldBool(Ints[0] <= Ints[1]);
  case PrimOp::IntGreater:
    return Ints.size() == 2 && FoldBool(Ints[0] > Ints[1]);
  case PrimOp::IntGreaterEq:
    return Ints.size() == 2 && FoldBool(Ints[0] >= Ints[1]);
  case PrimOp::IntEq:
    return Ints.size() == 2 && FoldBool(Ints[0] == Ints[1]);
  case PrimOp::IntNe:
    return Ints.size() == 2 && FoldBool(Ints[0] != Ints[1]);
  case PrimOp::BoolNot:
    return Bools.size() == 1 && FoldBool(!Bools[0]);
  case PrimOp::BoolEq:
    return Bools.size() == 2 && FoldBool(Bools[0] == Bools[1]);
  default:
    return false; // strings/arrays/effects: not folded
  }
}

namespace {

/// Effect-free expressions whose value loss is unobservable.
bool isPureExpr(const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::BoolLit:
  case Expr::Kind::NilLit:
  case Expr::Kind::VarRef:
  case Expr::Kind::ClosureLit: // creation is observable only via cost
    return true;
  default:
    return false;
  }
}

} // namespace

void Optimizer::eliminateDeadCode(Expr *Node, VarRefCounts &Refs) {
  if (auto *Seq = dyn_cast<SeqExpr>(Node); Seq && !Seq->Elems.empty()) {
    // Never drop the last element (it is the block's value).  remove_if
    // decides the statements in order, so each sees the removals before it.
    auto IsDead = [&](const ExprPtr &Elem) {
      const auto *L = dyn_cast<LetExpr>(Elem.get());
      bool Dead = L ? isPureExpr(L->Init.get()) && Refs[L->Name.value()] == 0
                    : isPureExpr(Elem.get()); // value discarded
      if (Dead) {
        tallyVarRefs(Elem.get(), Refs, -1);
        ++S.DeadStatementsRemoved;
      }
      return Dead;
    };
    auto Last = std::prev(Seq->Elems.end());
    Seq->Elems.erase(std::remove_if(Seq->Elems.begin(), Last, IsDead), Last);
  }
  forEachChild(Node, [&](const Expr *Child) {
    eliminateDeadCode(const_cast<Expr *>(Child), Refs);
  });
}

void Optimizer::eliminateDeadClosures(Expr *Node, VarRefCounts &Refs) {
  auto Eliminate = [&](Symbol Name, ExprPtr &Init) {
    if (isa<ClosureLitExpr>(Init.get()) && Refs[Name.value()] == 0) {
      tallyVarRefs(Init.get(), Refs, -1);
      Init = std::make_unique<NilLitExpr>(Init->getLoc());
      ++S.ClosureCreationsEliminated;
    }
  };
  if (auto *L = dyn_cast<LetExpr>(Node))
    Eliminate(L->Name, L->Init);
  else if (auto *In = dyn_cast<InlinedExpr>(Node))
    for (auto &[Name, Init] : In->Bindings)
      Eliminate(Name, Init);
  // Recurse after possible rewrites so replaced children are not visited.
  forEachChild(Node, [&](const Expr *Child) {
    eliminateDeadClosures(const_cast<Expr *>(Child), Refs);
  });
}
