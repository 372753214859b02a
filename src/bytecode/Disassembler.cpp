//===- bytecode/Disassembler.cpp - Bytecode listing ------------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "bytecode/Disassembler.h"

#include "hierarchy/Program.h"

#include <algorithm>
#include <iomanip>
#include <ostream>

using namespace selspec;

const char *selspec::bcOpName(BcOp Op) {
  switch (Op) {
  case BcOp::LoadInt:
    return "LoadInt";
  case BcOp::LoadBool:
    return "LoadBool";
  case BcOp::LoadStr:
    return "LoadStr";
  case BcOp::LoadNil:
    return "LoadNil";
  case BcOp::LoadVarSlot:
    return "LoadVarSlot";
  case BcOp::LoadVarCell:
    return "LoadVarCell";
  case BcOp::LoadVarCapture:
    return "LoadVarCapture";
  case BcOp::Move:
    return "Move";
  case BcOp::LoadNilRaw:
    return "LoadNilRaw";
  case BcOp::StoreSlot:
    return "StoreSlot";
  case BcOp::StoreCell:
    return "StoreCell";
  case BcOp::StoreCapture:
    return "StoreCapture";
  case BcOp::LetCell:
    return "LetCell";
  case BcOp::Jump:
    return "Jump";
  case BcOp::CondBranch:
    return "CondBranch";
  case BcOp::StackCheck:
    return "StackCheck";
  case BcOp::CallDyn:
    return "CallDyn";
  case BcOp::CallStatic:
    return "CallStatic";
  case BcOp::CallSelect:
    return "CallSelect";
  case BcOp::CallPrim:
    return "CallPrim";
  case BcOp::CallPred:
    return "CallPred";
  case BcOp::CallFeedback:
    return "CallFeedback";
  case BcOp::CallClosure:
    return "CallClosure";
  case BcOp::MakeClosure:
    return "MakeClosure";
  case BcOp::NewObj:
    return "NewObj";
  case BcOp::InitSlot:
    return "InitSlot";
  case BcOp::GetSlot:
    return "GetSlot";
  case BcOp::SetSlot:
    return "SetSlot";
  case BcOp::RetLocal:
    return "RetLocal";
  case BcOp::RetNonLocal:
    return "RetNonLocal";
  }
  return "?";
}

namespace {

const char *bindKindName(SendBindKind K) {
  switch (K) {
  case SendBindKind::Dynamic:
    return "dynamic";
  case SendBindKind::Static:
    return "static";
  case SendBindKind::StaticSelect:
    return "static-select";
  case SendBindKind::InlinePrim:
    return "inline-prim";
  case SendBindKind::Predicted:
    return "predicted";
  case SendBindKind::FeedbackGuard:
    return "feedback-guard";
  }
  return "?";
}

void printInsn(const BcFunction &Fn, uint32_t Pc, std::ostream &OS) {
  const Insn &I = Fn.Code[Pc];
  OS << "    " << std::setw(5) << Pc << "  " << std::left << std::setw(14)
     << bcOpName(I.Op) << std::right;
  switch (I.Op) {
  case BcOp::LoadInt:
    OS << " r" << I.A << " <- "
       << (I.K ? static_cast<int64_t>(static_cast<int32_t>(I.D))
               : Fn.IntPool[I.D]);
    break;
  case BcOp::LoadBool:
    OS << " r" << I.A << " <- " << (I.K ? "true" : "false");
    break;
  case BcOp::LoadStr:
    OS << " r" << I.A << " <- str[" << I.D << "] \"" << *Fn.StrPool[I.D]
       << '"';
    break;
  case BcOp::LoadNil:
  case BcOp::LoadNilRaw:
    OS << " r" << I.A << " <- nil";
    break;
  case BcOp::LoadVarSlot:
  case BcOp::Move:
    OS << " r" << I.A << " <- r" << I.B;
    break;
  case BcOp::LoadVarCell:
    OS << " r" << I.A << " <- cell[" << I.B << ']';
    break;
  case BcOp::LoadVarCapture:
    OS << " r" << I.A << " <- capture[" << I.B << ']';
    break;
  case BcOp::StoreSlot:
    OS << " r" << I.B << " <- r" << I.A;
    break;
  case BcOp::StoreCell:
    OS << " cell[" << I.B << "] <- r" << I.A;
    break;
  case BcOp::StoreCapture:
    OS << " capture[" << I.B << "] <- r" << I.A;
    break;
  case BcOp::LetCell:
    OS << " cell[" << I.B << "] <- fresh(r" << I.A << ')';
    break;
  case BcOp::Jump:
    OS << " -> " << I.D << " (region " << bcBranchRegion(I) << ')';
    break;
  case BcOp::CondBranch:
    OS << " r" << I.A << "? fallthrough (region " << bcBranchRegion(I) + 1
       << ") : " << I.D << " (region " << bcBranchRegion(I) << ")  ("
       << (I.K ? "while" : "if") << ')';
    break;
  case BcOp::StackCheck:
    break;
  case BcOp::CallDyn:
  case BcOp::CallStatic:
  case BcOp::CallSelect:
  case BcOp::CallPrim:
  case BcOp::CallPred:
  case BcOp::CallFeedback:
    OS << " r" << I.A << " <- site[" << I.D << "](r" << I.B << "..r"
       << (I.B + (I.C ? I.C - 1 : 0)) << ") argc=" << I.C;
    if (bcEndsRegion(I.Op))
      OS << " -> region " << Fn.Sites[I.D].Cont;
    break;
  case BcOp::CallClosure:
    OS << " r" << I.A << " <- r" << I.B << "(r" << (I.B + 1) << "..r"
       << (I.B + I.C) << ") argc=" << I.C << " -> region " << I.D;
    break;
  case BcOp::MakeClosure:
    OS << " r" << I.A << " <- closure[" << I.D << ']';
    break;
  case BcOp::NewObj:
    OS << " r" << I.A << " <- new[" << I.D << ']';
    break;
  case BcOp::InitSlot:
    OS << " r" << I.A << ".slot[" << I.B << "] <- r" << I.C;
    break;
  case BcOp::GetSlot:
    OS << " r" << I.A << " <- r" << I.B << ".slotsite[" << I.D << ']';
    break;
  case BcOp::SetSlot:
    OS << " r" << I.A << " <- (r" << I.B << ".slotsite[" << I.D << "] <- r"
       << I.C << ')';
    break;
  case BcOp::RetLocal:
    OS << " r" << I.A;
    break;
  case BcOp::RetNonLocal:
    OS << " r" << I.A << " boundary=" << I.D;
    break;
  }
  OS << '\n';
}

/// "region 2: 5 nodes [Seq If Send VarRef×2]": the region's number, node
/// count and charge kinds in order of first appearance.
void printRegionHead(const BcFunction &Fn, uint32_t Region, std::ostream &OS) {
  const BcChargeRegion &Rg = Fn.ChargeRegions[Region];
  std::vector<std::pair<Expr::Kind, uint32_t>> Mix;
  for (uint32_t I = 0; I != Rg.Nodes; ++I) {
    Expr::Kind K = Fn.Charges[Rg.FirstCharge + I].Kind;
    auto It = std::find_if(Mix.begin(), Mix.end(),
                           [K](const auto &E) { return E.first == K; });
    if (It == Mix.end())
      Mix.emplace_back(K, 1);
    else
      ++It->second;
  }
  OS << "  region " << Region << ": " << Rg.Nodes
     << (Rg.Nodes == 1 ? " node [" : " nodes [");
  for (size_t I = 0; I != Mix.size(); ++I) {
    OS << (I ? " " : "") << exprKindName(Mix[I].first);
    if (Mix[I].second > 1)
      OS << "\u00d7" << Mix[I].second;
  }
  OS << "]\n";
}

void printSite(const BcSite &Site, size_t Idx, const Program &P,
               std::ostream &OS) {
  const SendExpr *S = Site.S;
  OS << "    [" << Idx << "] send '" << P.genericLabel(S->Generic)
     << "' site=" << (S->Site.isValid() ? std::to_string(S->Site.value())
                                        : std::string("-"))
     << " binding=" << bindKindName(S->Binding.Kind);
  if (Site.Prim != PrimOp::None)
    OS << " prim=" << primOpName(Site.Prim);
  if (S->Binding.Kind == SendBindKind::FeedbackGuard && Site.TargetIsBuiltin)
    OS << " target-prim=" << primOpName(Site.TargetPrim);
  // IC contents are per-thread interpreter state now, not module state;
  // the module only records which side-table slot the site owns.
  OS << " ic-slot=" << Site.IcSlot << '\n';
}

} // namespace

void selspec::disassemble(const BcFunction &Fn, const Program &P,
                          std::ostream &OS) {
  OS << "function '" << Fn.Name << "':\n"
     << "  regs: " << Fn.FirstTemp << " slots + " << Fn.NumTemps
     << " temps = " << Fn.Layout.NumSlots << "  cells: " << Fn.Layout.NumCells
     << "  params: " << Fn.Layout.Params.size() << '\n'
     << "  code (" << Fn.Code.size() << " insns, "
     << Fn.Code.size() * sizeof(Insn) << " bytes):\n";
  // Region heads in pc order (a pc can head several regions: a loop head
  // and the region that falls into it with the While's own charge).
  std::vector<uint32_t> Heads(Fn.ChargeRegions.size());
  for (uint32_t R = 0; R != Heads.size(); ++R)
    Heads[R] = R;
  std::stable_sort(Heads.begin(), Heads.end(), [&](uint32_t A, uint32_t B) {
    return Fn.ChargeRegions[A].Start < Fn.ChargeRegions[B].Start;
  });
  size_t NextHead = 0;
  for (uint32_t Pc = 0; Pc != Fn.Code.size(); ++Pc) {
    for (; NextHead != Heads.size() &&
           Fn.ChargeRegions[Heads[NextHead]].Start == Pc;
         ++NextHead)
      printRegionHead(Fn, Heads[NextHead], OS);
    printInsn(Fn, Pc, OS);
  }
  if (!Fn.Sites.empty()) {
    OS << "  sites:\n";
    for (size_t I = 0; I != Fn.Sites.size(); ++I)
      printSite(Fn.Sites[I], I, P, OS);
  }
  if (!Fn.SlotSites.empty()) {
    OS << "  slot sites:\n";
    for (size_t I = 0; I != Fn.SlotSites.size(); ++I) {
      const BcSlotSite &SS = Fn.SlotSites[I];
      OS << "    [" << I << "] '" << P.Syms.name(SS.Name)
         << "' cache-slot=" << SS.CacheSlot << '\n';
    }
  }
  if (!Fn.InlinedRegions.empty()) {
    OS << "  inlined regions:\n";
    for (size_t I = 0; I != Fn.InlinedRegions.size(); ++I) {
      const BcInlinedRegion &Rg = Fn.InlinedRegions[I];
      OS << "    [" << I << "] pc " << Rg.Start << ".." << Rg.End
         << " boundary=" << Rg.Boundary << " dst=r" << Rg.Dst
         << " landing=region " << Rg.Landing << '\n';
    }
  }
}

void selspec::disassemble(const BcModule &Mod, const Program &P,
                          std::ostream &OS) {
  OS << "bytecode module: " << Mod.NumFunctions << " functions, "
     << Mod.CodeBytes << " code bytes\n\n";
  for (const std::unique_ptr<BcFunction> &Fn : Mod.Functions) {
    disassemble(*Fn, P, OS);
    OS << '\n';
  }
}
