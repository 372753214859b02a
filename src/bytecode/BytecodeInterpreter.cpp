//===- bytecode/BytecodeInterpreter.cpp - Register-bytecode tier -----------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// Execution engine for BcModules.  Everything both tiers must agree on
// (the send protocol, method invocation, `new`, primitives, traps,
// allocation and call guards, rendering, the entry path) is RuntimeCore's;
// what remains here mirrors the AST Interpreter's tree walk
// (src/interp/Interpreter.cpp) in check order and cost charges, because
// the differential tests require RunStats to be bit-identical between the
// tiers.  When editing either tier's walk, update the other.
//
// Two pieces of machinery are new.  The per-site inline cache: a call
// instruction's lookup hook probes the BcIcEntry slots of its site's
// side-table entry, and a miss reads the snapshot's shared compressed
// dispatch table (DispatchTables) directly: one cell holds both the
// method and its selected version.  A hit must return exactly what
// dispatch and version selection would have (the program is immutable
// during a run), so the substitution is invisible to RunStats;
// SELSPEC_IC_AUDIT=1 re-verifies every hit and every table answer against
// Program::dispatch and CompiledProgram::selectVersion and counts
// `bytecode.ic_misdispatch`.  And region charging: the AST walker's
// per-node chargeNode() is applied a charge region at a time (see
// execute()), which reaches the same RunStats and the same traps.
//
// The dispatch loop is computed goto (`&&label` tables), a GNU extension
// that GCC and Clang provide.
//
//===----------------------------------------------------------------------===//

#include "bytecode/BytecodeInterpreter.h"

#include "support/Metrics.h"

#include <cstdlib>

#if !(defined(__GNUC__) || defined(__clang__))
#error "the bytecode dispatch loop needs computed goto (GCC or Clang)"
#endif

using namespace selspec;

namespace {
metrics::Counter CtrIcHits("bytecode.ic_hits");
metrics::Counter CtrIcMisses("bytecode.ic_misses");
metrics::Counter CtrIcMisdispatch("bytecode.ic_misdispatch");
metrics::Counter CtrInsnsDispatched("bytecode.insns_dispatched");
} // namespace

BytecodeInterpreter::BytecodeInterpreter(const CompiledProgram &CP,
                                         const BcModule &Mod, RunOptions Opts,
                                         CostModel Costs)
    : RuntimeCore(CP, Opts, Costs), Mod(Mod), Tables(Disp.tables()),
      CellsHoldVersions(Tables.compiledProgram() == &CP),
      IcTable(Mod.NumIcSlots), SlotCaches(Mod.NumSlotCacheSlots),
      RegionHits(Mod.NumChargeRegions) {
  assert(Mod.Ok && "executing a module that failed to compile");
  const char *Audit = std::getenv("SELSPEC_IC_AUDIT");
  IcAudit = Audit && Audit[0] && !(Audit[0] == '0' && Audit[1] == '\0');
}

BytecodeInterpreter::~BytecodeInterpreter() {
  CtrIcHits.add(IcHits);
  CtrIcMisses.add(IcMisses);
  CtrIcMisdispatch.add(IcMisdispatches);
  CtrInsnsDispatched.add(InsnsDispatched);
}

void BytecodeInterpreter::giveBack(const BcFunction &Fn, uint32_t Pc) {
  // NodeMix may dip below zero until the region's entry is folded in;
  // unsigned arithmetic wraps back to the exact count.
  const BcChargeSuffix &Rest = Fn.Suffixes[Pc];
  Stats.NodesEvaluated -= Rest.Nodes;
  for (uint32_t I = 0; I != Rest.Nodes; ++I)
    --Stats.NodeMix[static_cast<size_t>(
        Fn.Charges[Rest.FirstCharge + I].Kind)];
  InsnsDispatched -= Rest.Insns;
}

void BytecodeInterpreter::foldRegionCounts() {
  for (const std::unique_ptr<BcFunction> &Fn : Mod.Functions) {
    uint64_t *Hits = RegionHits.data() + Fn->RegionBase;
    for (size_t R = 0; R != Fn->ChargeRegions.size(); ++R) {
      const uint64_t N = Hits[R];
      if (!N)
        continue;
      Hits[R] = 0;
      const BcChargeRegion &Rg = Fn->ChargeRegions[R];
      InsnsDispatched += N * Rg.Len;
      for (uint32_t I = 0; I != Rg.Nodes; ++I)
        Stats.NodeMix[static_cast<size_t>(
            Fn->Charges[Rg.FirstCharge + I].Kind)] += N;
    }
  }
  Stats.Cycles += (Stats.NodesEvaluated - NodesFolded) * Costs.NodeCost;
  NodesFolded = Stats.NodesEvaluated;
}


//===----------------------------------------------------------------------===//
// Inline caches
//===----------------------------------------------------------------------===//

bool BytecodeInterpreter::icFind(const BcSite &Site, MethodId &Target,
                                 int &Version) {
  const size_t N = ClassScratch.size();
  if (N > BcIcMaxArity) {
    ++IcMisses;
    return false;
  }
  for (BcIcEntry &E : IcTable[Site.IcSlot].Ways) {
    if (E.Arity != N)
      continue;
    bool Match = true;
    for (size_t I = 0; I != N; ++I)
      Match &= E.Classes[I] == ClassScratch[I];
    if (!Match)
      continue;
    ++IcHits;
    Target = E.Target;
    Version = E.Version;
    if (IcAudit) {
      // Re-derive the result from ground truth.  The program is immutable
      // during a run, so any divergence is an IC bug.
      MethodId Real = P.dispatch(Site.S->Generic, ClassScratch);
      int RealVersion =
          Real.isValid() ? CP.selectVersion(Real, ClassScratch) : -1;
      if (Real != Target || RealVersion != Version) {
        ++IcMisdispatches;
        E.Arity = 0xff; // drop the poisoned entry
        if (!Real.isValid())
          return false; // miss path raises the dispatch failure
        Target = Real;
        Version = RealVersion;
      }
    }
    return true;
  }
  ++IcMisses;
  return false;
}

bool BytecodeInterpreter::icMiss(const BcSite &Site, MethodId &Target,
                                 int &Version) {
  const GenericId G = Site.S->Generic;
  DispatchTable::Cell Hit = Tables.select(G, ClassScratch);
  if (!CellsHoldVersions && Hit.Method.isValid())
    Hit.Version = CP.selectVersion(Hit.Method, ClassScratch);
  if (IcAudit) {
    MethodId Real = P.dispatch(G, ClassScratch);
    int RealVersion =
        Real.isValid() ? CP.selectVersion(Real, ClassScratch) : -1;
    if (Real != Hit.Method || RealVersion != Hit.Version) {
      ++IcMisdispatches;
      Hit = {Real, RealVersion};
    }
  }
  if (!Hit.Method.isValid())
    return false;
  Target = Hit.Method;
  Version = Hit.Version;
  icInsert(Site, Target, Version);
  return true;
}

void BytecodeInterpreter::icInsert(const BcSite &Site, MethodId Target,
                                   int Version) {
  const size_t N = ClassScratch.size();
  if (N > BcIcMaxArity)
    return;
  IcSlotState &Slot = IcTable[Site.IcSlot];
  // Fill an empty way first; evict round-robin once the site is full.
  BcIcEntry *E = nullptr;
  for (BcIcEntry &Way : Slot.Ways)
    if (Way.Arity == 0xff) {
      E = &Way;
      break;
    }
  if (!E) {
    E = &Slot.Ways[Slot.Victim];
    Slot.Victim = static_cast<uint8_t>((Slot.Victim + 1) % BcIcEntries);
  }
  E->Arity = static_cast<uint8_t>(N);
  for (size_t I = 0; I != N; ++I)
    E->Classes[I] = ClassScratch[I];
  E->Target = Target;
  E->Version = Version;
}

//===----------------------------------------------------------------------===//
// Calls: the send protocol's hooks and closure calls
//===----------------------------------------------------------------------===//

const BcFunction *BytecodeInterpreter::bodyOf(const CompiledMethod &CM,
                                              SourceLoc Loc, Control &C) {
  const BcFunction *Fn = Mod.ByVersion[CM.Index];
  if (!Fn)
    fail(C, TrapKind::InternalError, Loc,
         "internal: method version was not compiled to bytecode");
  return Fn;
}

Value BytecodeInterpreter::callClosureValue(Value Callee, Value *Args,
                                            size_t N, SourceLoc Loc,
                                            Control &C) {
  Obj *Closure = enterClosureCall(Callee, N, Loc, C);
  if (!Closure)
    return Value::nil();

  // Closures made by this tier carry their compiled body; ones handed in
  // from outside (embedder values) fall back to the module map.
  BcFunction *Fn = Closure->BcFn;
  if (!Fn) {
    auto It = Mod.ByClosure.find(Closure->Lit);
    if (It == Mod.ByClosure.end())
      return fail(C, TrapKind::InternalError, Loc,
                  "internal: closure body was not compiled to bytecode");
    Fn = It->second;
  }
  return activate(Fn->Layout, Args, N, &Closure->Captured,
                  Closure->HomeActivation, MethodId(),
                  [&](Frame &Inner) { return execute(*Fn, Inner, C); });
}

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//

Value BytecodeInterpreter::execute(const BcFunction &Fn, Frame &F,
                                   Control &C) {
  const Insn *const Code = Fn.Code.data();
  const SourceLoc *const Locs = Fn.Locs.data();
  const BcChargeRegion *const Regions = Fn.ChargeRegions.data();
  const BcCharge *const Charges = Fn.Charges.data();
  uint64_t *const Hits = RegionHits.data() + Fn.RegionBase;
  // The register file: the frame's slot array.  Registers [0, FirstTemp)
  // are the body's locals, the rest are lowering temps.  The pointer is
  // stable for the whole activation (configure() sized the vector up
  // front, and callee frames are separate objects).
  Value *R = F.slotData();
  const Insn *Ip = Code;
  Value CallVal;
  // The region being entered, and a call's continuation region.
  uint32_t Region = 0;
  uint32_t Cont = 0;
  // Stepping mode: the charge points of the current region not yet
  // applied, [StepCharge, StepEnd).
  uint32_t StepCharge = 0;
  uint32_t StepEnd = 0;
  // The stepping path's limits.
  const uint64_t MaxNodes = Opts.Limits.MaxNodes;
  const CancelToken *const Cancel = Opts.Cancel;

#define BC_UNLIKELY(X) __builtin_expect(!!(X), 0)

  // Computed-goto dispatch: one indirect branch per instruction with a
  // per-opcode target the predictor can learn.  Table order must match
  // the BcOp declaration exactly.
  static const void *const JumpTable[] = {
      &&L_LoadInt,      &&L_LoadBool,     &&L_LoadStr,
      &&L_LoadNil,      &&L_LoadVarSlot,  &&L_LoadVarCell,
      &&L_LoadVarCapture, &&L_Move,       &&L_LoadNilRaw,
      &&L_StoreSlot,    &&L_StoreCell,    &&L_StoreCapture,
      &&L_LetCell,      &&L_Jump,         &&L_CondBranch,
      &&L_StackCheck,   &&L_CallDyn,      &&L_CallStatic,
      &&L_CallSelect,   &&L_CallPrim,     &&L_CallPred,
      &&L_CallFeedback, &&L_CallClosure,  &&L_MakeClosure,
      &&L_NewObj,       &&L_InitSlot,     &&L_GetSlot,
      &&L_SetSlot,      &&L_RetLocal,     &&L_RetNonLocal,
  };
  static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) == BcNumOps,
                "jump table out of sync with BcOp");
  // The stepping table sends every opcode through L_Step, which applies
  // the charge points preceding the instruction and then jumps to its
  // handler through JumpTable.
  static const void *const StepTable[] = {
      &&L_Step, &&L_Step, &&L_Step, &&L_Step, &&L_Step, &&L_Step,
      &&L_Step, &&L_Step, &&L_Step, &&L_Step, &&L_Step, &&L_Step,
      &&L_Step, &&L_Step, &&L_Step, &&L_Step, &&L_Step, &&L_Step,
      &&L_Step, &&L_Step, &&L_Step, &&L_Step, &&L_Step, &&L_Step,
      &&L_Step, &&L_Step, &&L_Step, &&L_Step, &&L_Step, &&L_Step,
  };
  static_assert(sizeof(StepTable) / sizeof(StepTable[0]) == BcNumOps,
                "stepping table out of sync with BcOp");
  const void *const *Dispatch = JumpTable;
#define BC_DISPATCH() goto *Dispatch[static_cast<uint8_t>(Ip->Op)]

  // Region entry, inlined into every instruction that enters one: one add
  // and one compare charge the region's whole summary unless it would
  // reach the next budget-trap or deadline-poll threshold, in which case
  // the region runs in stepping mode.  NodeMix and the node cost in
  // Cycles follow from the entry count (foldRegionCounts).
#define BC_ENTER(RegionV, IpV)                                                 \
  do {                                                                         \
    Region = (RegionV);                                                        \
    Ip = (IpV);                                                                \
    const uint64_t Nodes = Stats.NodesEvaluated + Regions[Region].Nodes;       \
    if (BC_UNLIKELY(Nodes >= ChargeLimit))                                     \
      goto EnterStepping;                                                      \
    Stats.NodesEvaluated = Nodes;                                              \
    ++Hits[Region];                                                            \
    Dispatch = JumpTable;                                                      \
    BC_DISPATCH();                                                             \
  } while (0)

  // A trap raised by the instruction at Ip.  On the fast path its region
  // was charged whole, so the part after Ip is given back first.
#define BC_TRAP()                                                              \
  do {                                                                         \
    if (Dispatch == JumpTable)                                                 \
      giveBack(Fn, static_cast<uint32_t>(Ip - Code));                          \
    return Value::nil();                                                       \
  } while (0)

  BC_ENTER(0, Code);

  // ---- Stepping mode (cold) ----

EnterStepping: {
  const BcChargeRegion &Rg = Regions[Region];
  StepCharge = Rg.FirstCharge;
  StepEnd = Rg.FirstCharge + Rg.Nodes;
  Dispatch = StepTable;
  BC_DISPATCH();
}

L_Step: {
  // Exactly the AST walker's chargeNode() for each charge point before
  // this instruction, in order; the node cost joins Cycles at the fold.
  ++InsnsDispatched;
  const uint32_t Pc = static_cast<uint32_t>(Ip - Code);
  for (; StepCharge != StepEnd && Charges[StepCharge].Pc == Pc; ++StepCharge) {
    const BcCharge &Ch = Charges[StepCharge];
    const uint64_t Nodes = ++Stats.NodesEvaluated;
    if (Nodes > MaxNodes) {
      failNodeBudget(C, Ch.Loc);
      return Value::nil();
    }
    if ((Nodes & DeadlineCheckMask) == 0) {
      if (Cancel && Cancel->stopRequested()) {
        failDeadline(C, Ch.Loc);
        return Value::nil();
      }
      ChargeLimit = nextChargeLimit(Nodes);
    }
    ++Stats.NodeMix[static_cast<size_t>(Ch.Kind)];
  }
  goto *JumpTable[static_cast<uint8_t>(Ip->Op)];
}

  // ---- Charged leaves ----

L_LoadInt: {
  const Insn &I = *Ip;
  R[I.A] = Value::ofInt(I.K ? static_cast<int64_t>(static_cast<int32_t>(I.D))
                            : Fn.IntPool[I.D]);
  ++Ip;
  BC_DISPATCH();
}

L_LoadBool: {
  const Insn &I = *Ip;
  R[I.A] = Value::ofBool(I.K != 0);
  ++Ip;
  BC_DISPATCH();
}

L_LoadStr: {
  const Insn &I = *Ip;
  if (!allocationFits(membudget::stringBytes(Fn.StrPool[I.D]->size()),
                      Locs[Ip - Code], C))
    BC_TRAP();
  R[I.A] = Value::ofObj(TheHeap.newString(*Fn.StrPool[I.D]));
  ++Ip;
  BC_DISPATCH();
}

L_LoadNil: {
  R[Ip->A] = Value::nil();
  ++Ip;
  BC_DISPATCH();
}

L_LoadVarSlot: {
  const Insn &I = *Ip;
  R[I.A] = R[I.B]; // locals live in the same array as the temps
  ++Ip;
  BC_DISPATCH();
}

L_LoadVarCell: {
  const Insn &I = *Ip;
  assert(F.cell(I.B) && "read of a cell before its let ran");
  R[I.A] = F.cell(I.B)->V;
  ++Ip;
  BC_DISPATCH();
}

L_LoadVarCapture: {
  const Insn &I = *Ip;
  R[I.A] = F.capture(I.B)->V;
  ++Ip;
  BC_DISPATCH();
}

  // ---- Raw data movement ----

L_Move: {
  const Insn &I = *Ip;
  R[I.A] = R[I.B];
  ++Ip;
  BC_DISPATCH();
}

L_LoadNilRaw: {
  R[Ip->A] = Value::nil();
  ++Ip;
  BC_DISPATCH();
}

L_StoreSlot: {
  const Insn &I = *Ip;
  R[I.B] = R[I.A];
  ++Ip;
  BC_DISPATCH();
}

L_StoreCell: {
  const Insn &I = *Ip;
  assert(F.cell(I.B) && "write to a cell before its let ran");
  F.cell(I.B)->V = R[I.A];
  ++Ip;
  BC_DISPATCH();
}

L_StoreCapture: {
  const Insn &I = *Ip;
  F.capture(I.B)->V = R[I.A];
  ++Ip;
  BC_DISPATCH();
}

L_LetCell: {
  const Insn &I = *Ip;
  // Fresh cell per execution so closures made in different loop
  // iterations don't share state (same as the AST walker's Let).
  F.cell(I.B) = std::make_shared<Cell>(Cell{R[I.A]});
  ++Ip;
  BC_DISPATCH();
}

  // ---- Raw control flow ----

L_Jump: {
  BC_ENTER(bcBranchRegion(*Ip), Code + Ip->D);
}

L_CondBranch: {
  const Insn &I = *Ip;
  const Value &Cond = R[I.A];
  if (!Cond.isBool()) {
    fail(C, TrapKind::TypeError, Locs[Ip - Code],
         I.K ? "while condition is not a boolean"
             : "if condition is not a boolean");
    return Value::nil(); // ends its region: nothing to give back
  }
  if (Cond.asBool())
    BC_ENTER(bcBranchRegion(I) + 1, Ip + 1);
  BC_ENTER(bcBranchRegion(I), Code + I.D);
}

L_StackCheck: {
  // Inlined bodies recurse natively in the AST walker without raising
  // Depth; the bytecode stream is flat, but keeps the probe (and its
  // trap) so resource behavior stays identical.
  if (nativeStackLow()) {
    failNativeStack(C, Locs[Ip - Code]);
    BC_TRAP();
  }
  ++Ip;
  BC_DISPATCH();
}

  // ---- Calls ----

L_CallDyn: {
  const Insn &I = *Ip;
  const BcSite &Site = Fn.Sites[I.D];
  CallVal = sendDynamic(*this, Site.S, R + I.B, I.C, C, icLookup(Site));
  Cont = Site.Cont;
  goto HandleCall;
}

L_CallStatic: {
  const Insn &I = *Ip;
  const BcSite &Site = Fn.Sites[I.D];
  CallVal = sendStatic(*this, Site.S, R + I.B, I.C, C);
  Cont = Site.Cont;
  goto HandleCall;
}

L_CallSelect: {
  const Insn &I = *Ip;
  const BcSite &Site = Fn.Sites[I.D];
  CallVal = sendStaticSelect(*this, Site.S, R + I.B, I.C, C, icSelect(Site));
  Cont = Site.Cont;
  goto HandleCall;
}

L_CallPrim: {
  // Primitives run no charged code, so the region goes on.
  const Insn &I = *Ip;
  const BcSite &Site = Fn.Sites[I.D];
  CallVal = sendInlinePrim(Site.S, Site.Prim, R + I.B, I.C, C);
  if (BC_UNLIKELY(C.active()))
    BC_TRAP();
  R[I.A] = CallVal;
  ++Ip;
  BC_DISPATCH();
}

L_CallPred: {
  const Insn &I = *Ip;
  const BcSite &Site = Fn.Sites[I.D];
  CallVal = sendPredicted(*this, Site.S, Site.Prim, R + I.B, I.C, C,
                          icLookup(Site));
  Cont = Site.Cont;
  goto HandleCall;
}

L_CallFeedback: {
  const Insn &I = *Ip;
  const BcSite &Site = Fn.Sites[I.D];
  CallVal = sendFeedbackGuard(*this, Site.S, R + I.B, I.C, C, icLookup(Site));
  Cont = Site.Cont;
  goto HandleCall;
}

L_CallClosure: {
  const Insn &I = *Ip;
  // Callee passed by value: the register may be clobbered by the callee's
  // result landing in I.A == I.B.
  CallVal = callClosureValue(R[I.B], R + I.B + 1, I.C, Locs[Ip - Code], C);
  Cont = I.D;
  goto HandleCall;
}

HandleCall: {
  // Calls end their region, so a trap inside one has nothing to give
  // back.
  if (C.active()) {
    if (C.K == Control::Kind::Return) {
      if (C.Activation == CurrentHome) {
        // A non-local return unwinding through this frame: land in the
        // innermost inlined region containing this call site that
        // catches the boundary (the bytecode analogue of the nearest
        // enclosing InlinedExpr catch).
        const uint32_t Pc = static_cast<uint32_t>(Ip - Code);
        const BcInlinedRegion *Best = nullptr;
        for (const BcInlinedRegion &Rg : Fn.InlinedRegions) {
          if (Rg.Boundary != C.Boundary || Pc < Rg.Start || Pc >= Rg.End)
            continue;
          if (!Best || Rg.End - Rg.Start < Best->End - Best->Start)
            Best = &Rg;
        }
        if (Best) {
          R[Best->Dst] = C.Val;
          C = Control();
          BC_ENTER(Best->Landing, Code + Best->End);
        }
      }
    }
    // Propagate Return/Error to the caller; a boundary-0 return to this
    // method's activation is caught by RuntimeCore::invokeVersion.
    return Value::nil();
  }
  R[Ip->A] = CallVal;
  BC_ENTER(Cont, Ip + 1);
}

  // ---- Objects and closures ----

L_MakeClosure: {
  const Insn &I = *Ip;
  const BcClosureRef &Ref = Fn.Closures[I.D];
  Obj *O = newClosure(Ref.Lit, F, Locs[Ip - Code], C);
  if (!O)
    BC_TRAP();
  O->BcFn = Ref.Fn;
  R[I.A] = Value::ofObj(O);
  ++Ip;
  BC_DISPATCH();
}

L_NewObj: {
  const Insn &I = *Ip;
  const BcNewSite &NS = Fn.NewSites[I.D];
  Obj *O = newInstance(NS.N->Class, NS.LayoutSize, Locs[Ip - Code], C);
  if (!O)
    BC_TRAP();
  R[I.A] = Value::ofObj(O);
  ++Ip;
  BC_DISPATCH();
}

L_InitSlot: {
  const Insn &I = *Ip;
  R[I.A].asObject()->Slots[I.B] = R[I.C];
  ++Ip;
  BC_DISPATCH();
}

L_GetSlot: {
  const Insn &I = *Ip;
  const BcSlotSite &SS = Fn.SlotSites[I.D];
  SlotCacheState &SC = SlotCaches[SS.CacheSlot];
  const Value &ObjV = R[I.B];
  if (!ObjV.isObject() ||
      ObjV.asObject()->payload() != Obj::Payload::Instance) {
    fail(C, TrapKind::TypeError, Locs[Ip - Code],
         "slot access '" + P.Syms.name(SS.Name) +
             "' on a non-instance value");
    BC_TRAP();
  }
  Obj *O = ObjV.asObject();
  int Idx;
  if (SC.CachedIndex >= 0 && O->getClass() == SC.CachedClass) {
    Idx = SC.CachedIndex;
  } else {
    Idx = P.Classes.slotIndex(O->getClass(), SS.Name);
    if (Idx < 0) {
      failNoSlot(C, Locs[Ip - Code], O->getClass(), SS.Name);
      BC_TRAP();
    }
    SC.CachedClass = O->getClass();
    SC.CachedIndex = Idx;
  }
  Stats.Cycles += Costs.SlotCost;
  R[I.A] = O->Slots[Idx];
  ++Ip;
  BC_DISPATCH();
}

L_SetSlot: {
  const Insn &I = *Ip;
  const BcSlotSite &SS = Fn.SlotSites[I.D];
  SlotCacheState &SC = SlotCaches[SS.CacheSlot];
  const Value &ObjV = R[I.B];
  if (!ObjV.isObject() ||
      ObjV.asObject()->payload() != Obj::Payload::Instance) {
    fail(C, TrapKind::TypeError, Locs[Ip - Code],
         "slot assignment on a non-instance value");
    BC_TRAP();
  }
  Obj *O = ObjV.asObject();
  int Idx;
  if (SC.CachedIndex >= 0 && O->getClass() == SC.CachedClass) {
    Idx = SC.CachedIndex;
  } else {
    Idx = P.Classes.slotIndex(O->getClass(), SS.Name);
    if (Idx < 0) {
      failNoSlot(C, Locs[Ip - Code], O->getClass(), SS.Name);
      BC_TRAP();
    }
    SC.CachedClass = O->getClass();
    SC.CachedIndex = Idx;
  }
  Stats.Cycles += Costs.SlotCost;
  O->Slots[Idx] = R[I.C];
  R[I.A] = R[I.C];
  ++Ip;
  BC_DISPATCH();
}

  // ---- Returns ----

L_RetLocal: {
  return R[Ip->A];
}

L_RetNonLocal: {
  const Insn &I = *Ip;
  C.K = Control::Kind::Return;
  C.Activation = CurrentHome;
  C.Boundary = I.D;
  C.Val = R[I.A];
  return Value::nil();
}

#undef BC_TRAP
#undef BC_ENTER
#undef BC_DISPATCH
#undef BC_UNLIKELY
}

Value BytecodeInterpreter::enter(MethodId Target, int Version,
                                 std::vector<Value> &Args, Control &C) {
  ChargeLimit = nextChargeLimit(Stats.NodesEvaluated);
  Value Result = invokeMethod(*this, Target, Version, Args.data(),
                              Args.size(), SourceLoc(), C);
  foldRegionCounts();
  return Result;
}
