//===- lang/SlotResolver.cpp - Static frame-slot assignment ----------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// Single-walk resolution with deferred index assignment.  Whether a
// binding needs a heap cell is only known once its whole scope has been
// walked (a closure later in the scope may capture it), so the walk
// records, per binding, every annotation site that refers to it; when the
// binding's owning function finishes, final slot/cell indexes are
// assigned in declaration order and all recorded sites are patched.
//
// Capture chains are flattened Lua-upvalue style: a reference from
// closure depth d to a binding at function depth b creates one capture
// entry in every closure between them, each entry naming either the
// enclosing frame's cell (innermost link) or the enclosing closure's own
// capture list (transitive links).  Entries are memoized per (closure,
// binding) so a binding referenced many times costs one capture.
//
//===----------------------------------------------------------------------===//

#include "lang/SlotResolver.h"

#include "support/TraceEmitter.h"

#include <cassert>
#include <memory>
#include <unordered_map>

using namespace selspec;

namespace {

/// One binding occurrence and every site awaiting its final coordinate.
struct BindingInfo {
  Symbol Name;
  bool Captured = false;
  /// VarRef/AssignVar/Let/param annotation fields to patch (all live in
  /// stable AST nodes or pre-sized layout vectors).
  std::vector<SlotRef *> Refs;
  /// EnclosingCell capture entries whose Index must become this binding's
  /// cell index (identified by node + entry position; the entry vector
  /// may still grow while its closure is being walked).
  std::vector<std::pair<ClosureLitExpr *, uint32_t>> PendingCellSpecs;
};

/// Per-function (method body or closure body) resolution state.
struct FuncCtx {
  /// Null for the outermost (method) function.
  ClosureLitExpr *Lit = nullptr;
  /// Where to write NumSlots/NumCells/Resolved at function end.
  FrameLayout *Layout = nullptr;
  /// All bindings in declaration order (frame indexes follow it).
  std::vector<std::unique_ptr<BindingInfo>> Bindings;
  /// Lexical scopes; lookup walks scopes innermost-first and entries
  /// last-first, so redefinition within a scope shadows (matching the
  /// old Env's innermost-binding rule).
  std::vector<std::vector<std::pair<uint32_t, BindingInfo *>>> Scopes;
  /// One capture entry per distinct outer binding.
  std::unordered_map<const BindingInfo *, uint32_t> CaptureMemo;
};

class ResolverImpl {
public:
  FrameLayout run(const std::vector<Symbol> &Params, Expr *Body) {
    FrameLayout MethodLayout;
    pushFunc(nullptr, &MethodLayout, Params);
    walk(Body);
    popFunc();
    return MethodLayout;
  }

private:
  std::vector<FuncCtx> Funcs;

  void pushFunc(ClosureLitExpr *Lit, FrameLayout *Layout,
                const std::vector<Symbol> &Params) {
    Funcs.emplace_back();
    FuncCtx &F = Funcs.back();
    F.Lit = Lit;
    F.Layout = Layout;
    *Layout = FrameLayout();
    // Pre-size so &Layout->Params[I] stays stable while refs accumulate.
    Layout->Params.resize(Params.size());
    F.Scopes.emplace_back();
    for (size_t I = 0; I != Params.size(); ++I)
      declare(Params[I], &Layout->Params[I]);
  }

  void popFunc() {
    FuncCtx &F = Funcs.back();
    uint32_t NextSlot = 0, NextCell = 0;
    for (std::unique_ptr<BindingInfo> &B : F.Bindings) {
      VarLoc Loc = B->Captured ? VarLoc::Cell : VarLoc::Slot;
      uint32_t Index = B->Captured ? NextCell++ : NextSlot++;
      for (SlotRef *R : B->Refs)
        *R = {Loc, Index};
      for (auto &[Lit, SpecIdx] : B->PendingCellSpecs)
        Lit->Captures[SpecIdx].Index = Index;
    }
    F.Layout->NumSlots = NextSlot;
    F.Layout->NumCells = NextCell;
    F.Layout->Resolved = true;
    Funcs.pop_back();
  }

  void declare(Symbol Name, SlotRef *DeclSite) {
    FuncCtx &F = Funcs.back();
    F.Bindings.push_back(std::make_unique<BindingInfo>());
    BindingInfo *B = F.Bindings.back().get();
    B->Name = Name;
    B->Refs.push_back(DeclSite);
    F.Scopes.back().emplace_back(Name.value(), B);
  }

  /// Innermost visible binding of \p Name at the current position, also
  /// reporting which function owns it.
  BindingInfo *lookup(Symbol Name, size_t &OwnerIdx) {
    for (size_t FI = Funcs.size(); FI-- != 0;) {
      FuncCtx &F = Funcs[FI];
      for (auto SIt = F.Scopes.rbegin(); SIt != F.Scopes.rend(); ++SIt)
        for (auto BIt = SIt->rbegin(); BIt != SIt->rend(); ++BIt)
          if (BIt->first == Name.value()) {
            OwnerIdx = FI;
            return BIt->second;
          }
    }
    return nullptr;
  }

  /// Capture index of \p B (owned by function \p OwnerIdx) within function
  /// \p FuncIdx, creating the whole chain of capture entries on demand.
  uint32_t captureIndex(size_t FuncIdx, size_t OwnerIdx, BindingInfo *B) {
    FuncCtx &F = Funcs[FuncIdx];
    auto It = F.CaptureMemo.find(B);
    if (It != F.CaptureMemo.end())
      return It->second;

    assert(F.Lit && "method-level frame cannot capture");
    CaptureSpec Spec;
    if (OwnerIdx + 1 == FuncIdx) {
      Spec.Source = CaptureSpec::From::EnclosingCell;
      Spec.Index = 0; // patched when the owner function finishes
    } else {
      Spec.Source = CaptureSpec::From::EnclosingCapture;
      Spec.Index = captureIndex(FuncIdx - 1, OwnerIdx, B);
    }
    uint32_t Idx = static_cast<uint32_t>(F.Lit->Captures.size());
    F.Lit->Captures.push_back(Spec);
    if (OwnerIdx + 1 == FuncIdx)
      B->PendingCellSpecs.emplace_back(F.Lit, Idx);
    F.CaptureMemo.emplace(B, Idx);
    return Idx;
  }

  void resolveRef(Symbol Name, SlotRef *Site) {
    size_t OwnerIdx = 0;
    BindingInfo *B = lookup(Name, OwnerIdx);
    assert(B && "SlotResolver hit an unbound variable (Resolver missed it)");
    if (!B)
      return;
    if (OwnerIdx + 1 == Funcs.size()) {
      B->Refs.push_back(Site); // same function: patched at function end
      return;
    }
    B->Captured = true;
    *Site = {VarLoc::Capture, captureIndex(Funcs.size() - 1, OwnerIdx, B)};
  }

  void walk(Expr *E) {
    switch (E->getKind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::BoolLit:
    case Expr::Kind::StrLit:
    case Expr::Kind::NilLit:
      return;

    case Expr::Kind::VarRef: {
      auto *V = cast<VarRefExpr>(E);
      resolveRef(V->Name, &V->Slot);
      return;
    }

    case Expr::Kind::AssignVar: {
      auto *A = cast<AssignVarExpr>(E);
      walk(A->Value.get());
      resolveRef(A->Name, &A->Slot);
      return;
    }

    case Expr::Kind::Let: {
      auto *L = cast<LetExpr>(E);
      walk(L->Init.get()); // the init cannot see the new binding
      declare(L->Name, &L->Slot);
      return;
    }

    case Expr::Kind::Seq: {
      // Funcs may reallocate while walking (nested ClosureLit pushes a
      // context), so never hold a FuncCtx reference across a walk.
      Funcs.back().Scopes.emplace_back();
      for (ExprPtr &Elem : cast<SeqExpr>(E)->Elems)
        walk(Elem.get());
      Funcs.back().Scopes.pop_back();
      return;
    }

    case Expr::Kind::ClosureLit: {
      auto *C = cast<ClosureLitExpr>(E);
      C->Captures.clear();
      pushFunc(C, &C->Layout, C->Params);
      walk(C->Body.get());
      popFunc();
      return;
    }

    case Expr::Kind::Inlined: {
      auto *In = cast<InlinedExpr>(E);
      // Binding initializers evaluate in the outer scope before any of
      // the new bindings exist (call-by-value argument evaluation).
      for (auto &[Name, Init] : In->Bindings)
        walk(Init.get());
      Funcs.back().Scopes.emplace_back();
      In->BindingSlots.assign(In->Bindings.size(), SlotRef());
      for (size_t I = 0; I != In->Bindings.size(); ++I)
        declare(In->Bindings[I].first, &In->BindingSlots[I]);
      walk(In->Body.get());
      Funcs.back().Scopes.pop_back();
      return;
    }

    default:
      forEachChild(E, [&](const Expr *Child) {
        walk(const_cast<Expr *>(Child));
      });
      return;
    }
  }
};

} // namespace

FrameLayout SlotResolver::resolve(const std::vector<Symbol> &Params,
                                  Expr *Body) {
  TraceEmitter::Scope Timing("slot-resolve");
  return ResolverImpl().run(Params, Body);
}
