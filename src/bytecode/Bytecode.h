//===- bytecode/Bytecode.h - Flat register bytecode format -----*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat register-bytecode execution tier's program representation.
///
/// Every optimized, slot-resolved body (compiled method version or closure
/// literal) lowers to one BcFunction: a linear instruction stream over a
/// register file that is simply the tail of the body's activation frame
/// (Frame slots [Layout-slots, Layout-slots + temps)), so Frame/FramePool
/// are reused unchanged and temporaries are as cheap as locals.
///
/// The lowering preserves the AST walker's *exact* accounting without
/// putting it in the instruction stream.  Each AST node still has exactly
/// one charge point (its chargeNode(), in pre-order), but the points live
/// in a per-function side table (BcFunction::Charges) and are summed into
/// charge regions: straight-line ranges that start at function entry, a
/// jump or branch target, the CondBranch fall-through, the continuation
/// of a call that can run charged code, or a non-local-return landing
/// pad, and end at the first control transfer.  The instruction that
/// enters a region charges its whole summary at once; the interpreter
/// falls back to applying the points one by one only for a region that
/// would cross the node budget or a deadline poll, and gives back the
/// unreached part of a region when an instruction inside it traps.  So
/// RunStats — NodesEvaluated, NodeMix, Cycles, dispatch counters,
/// PeakDepth — and trap kinds, locations and text are bit-identical
/// between tiers.
///
/// Call sites consult a small inline cache of (class tuple -> method,
/// version) entries before reading the shared dispatch tables, so the
/// hot dispatch path is a handful of compares instead of a table read.
/// The mutable IC state does NOT live in the module: a BcModule is part
/// of an immutable, thread-shared CompiledSnapshot, so each BcSite (and
/// each slot-access site) carries only a dense index (IcSlot/CacheSlot)
/// into a per-interpreter — hence per-thread — IC side-table that the
/// BytecodeInterpreter allocates from NumIcSlots/NumSlotCacheSlots.  The
/// 12-byte instruction encoding is unchanged; instructions still name
/// sites, sites name side-table slots.  IC state is observability only —
/// a hit returns exactly what Program::dispatch +
/// CompiledProgram::selectVersion would return for the same immutable
/// program, which the SELSPEC_IC_AUDIT=1 mode re-verifies (counting
/// `bytecode.ic_misdispatch`).
///
/// Non-local returns: boundary-B returns lexically inside their matching
/// InlinedExpr region resolve statically to a move + jump; all others
/// become RetNonLocal, unwound at call instructions against the
/// per-function BcInlinedRegion table (pc-range containment picks the
/// innermost matching region, the bytecode analogue of the nearest
/// enclosing InlinedExpr catch in the AST walker).
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_BYTECODE_BYTECODE_H
#define SELSPEC_BYTECODE_BYTECODE_H

#include "hierarchy/PrimOp.h"
#include "lang/Ast.h"
#include "support/Ids.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace selspec {

class CompiledProgram;
struct CompiledMethod;

/// Opcodes of the register bytecode.  Leaves whose AST node is a charge
/// point ("charged") and raw lowering glue look the same to the dispatch
/// loop: every charge is folded into the region summaries.  Terminators
/// (Jump, CondBranch, every Call* but CallPrim, RetLocal, RetNonLocal) end
/// a charge region; the first three enter the next one.
enum class BcOp : uint8_t {
  // Charged leaves.
  LoadInt,        ///< IntLit.  A=dst; K=1: D is an int32 immediate, else
                  ///< D indexes IntPool.
  LoadBool,       ///< BoolLit.  A=dst, K=value.
  LoadStr,        ///< StrLit.  A=dst, D=StrPool index (heap-checked).
  LoadNil,        ///< NilLit.  A=dst.
  LoadVarSlot,    ///< VarRef of a frame slot.  A=dst, B=slot index.
  LoadVarCell,    ///< VarRef of an owned cell.  A=dst, B=cell index.
  LoadVarCapture, ///< VarRef of a captured cell.  A=dst, B=capture index.

  // Raw data movement.
  Move,         ///< A=dst, B=src.
  LoadNilRaw,   ///< A=dst (uncharged nil, e.g. empty Seq / While result).
  StoreSlot,    ///< frame slot B = R[A]  (AssignVar / Let / binding).
  StoreCell,    ///< cell B's value = R[A]  (AssignVar through a cell).
  StoreCapture, ///< capture B's value = R[A].
  LetCell,      ///< cell B = fresh Cell{R[A]}  (per-execution let / binding).

  // Raw control flow.
  Jump,       ///< Pc = D, entering charge region bcBranchRegion().
  CondBranch, ///< R[A] must be Bool else TypeError (K=0 "if", K=1 "while");
              ///< false jumps to D entering charge region bcBranchRegion(),
              ///< true falls through entering the region after it.
  StackCheck, ///< Native-stack backstop probe (InlinedExpr entry).

  // Calls.  A=dst, B=first argument register, C=arg count, D=BcSite
  // index; the continuation enters charge region BcSite::Cont.  The
  // argument window is either consecutive temps or, when every argument
  // is a read of consecutive frame slots, those slots themselves.
  CallDyn,      ///< SendBindKind::Dynamic.
  CallStatic,   ///< SendBindKind::Static.
  CallSelect,   ///< SendBindKind::StaticSelect.
  CallPrim,     ///< SendBindKind::InlinePrim (runs no charged code, so it
                ///< does not end a region).
  CallPred,     ///< SendBindKind::Predicted.
  CallFeedback, ///< SendBindKind::FeedbackGuard.
  CallClosure,  ///< A=dst, B=callee register (args at B+1..B+C), C=count,
                ///< D=continuation charge region.

  // Objects and closures.
  MakeClosure, ///< Charged ClosureLit.  A=dst, D=Closures index.
  NewObj,      ///< Charged New.  A=dst, D=NewSites index.
  InitSlot,    ///< R[A].Slots[B] = R[C] (raw; slot index precomputed).
  GetSlot,     ///< A=dst, B=object reg, D=SlotSites index.
  SetSlot,     ///< A=dst(result), B=object reg, C=value reg, D=SlotSites.

  // Returns.
  RetLocal,    ///< Return R[A] from this function (epilogue; boundary-0
               ///< returns of method bodies).
  RetNonLocal, ///< Control{Return, CurrentHome, D} with value R[A].
};

/// Number of opcodes (jump-table sizing).
constexpr unsigned BcNumOps = static_cast<unsigned>(BcOp::RetNonLocal) + 1;

/// True for the opcodes that end a charge region.
constexpr bool bcEndsRegion(BcOp Op) {
  switch (Op) {
  case BcOp::Jump:
  case BcOp::CondBranch:
  case BcOp::CallDyn:
  case BcOp::CallStatic:
  case BcOp::CallSelect:
  case BcOp::CallPred:
  case BcOp::CallFeedback:
  case BcOp::CallClosure:
  case BcOp::RetLocal:
  case BcOp::RetNonLocal:
    return true;
  default:
    return false;
  }
}

/// Readable opcode name ("LoadInt", "CallDyn", ...).
const char *bcOpName(BcOp Op);

/// One instruction.  Fixed 12-byte encoding; registers are frame-slot
/// indices (uint16), wide operands (jump targets, pool/site indexes,
/// return boundaries, CallClosure's continuation region) live in D.
struct Insn {
  BcOp Op;
  uint8_t K = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint32_t D = 0;
};

/// The charge region a Jump or CondBranch enters, split over B (low half)
/// and C (high half) so that D can hold the target pc.
inline uint32_t bcBranchRegion(const Insn &I) {
  return static_cast<uint32_t>(I.B) | static_cast<uint32_t>(I.C) << 16;
}

/// Inline-cache geometry: entries per site and the widest class tuple an
/// entry can hold (wider tuples always read the dispatch tables).
constexpr unsigned BcIcEntries = 4;
constexpr unsigned BcIcMaxArity = 6;

/// One inline-cache entry: an argument-class tuple with the dispatch
/// result (target method and its selected compiled version).  Lives in
/// the interpreter's per-thread IC side-table, never in the module.
struct BcIcEntry {
  uint8_t Arity = 0xff; ///< 0xff = empty.
  ClassId Classes[BcIcMaxArity];
  MethodId Target;
  int32_t Version = -1;
};

/// Per-send-site record: the resolved SendExpr (generic, site id, binding
/// annotation, location) plus compile-time-cached primitive info.
/// Immutable after compilation; the run-time IC state lives in the
/// interpreter's side-table at index IcSlot.
struct BcSite {
  const SendExpr *S = nullptr;
  /// InlinePrim/Predicted target primitive, resolved at compile time.
  PrimOp Prim = PrimOp::None;
  /// Module-dense index of this site's per-thread inline cache
  /// (< BcModule::NumIcSlots).
  uint32_t IcSlot = 0;
  /// Charge region the call's continuation enters (unused for CallPrim).
  uint32_t Cont = 0;
};

/// Per slot-access site: the slot name plus the module-dense index of its
/// per-thread one-entry (class -> layout index) cache
/// (< BcModule::NumSlotCacheSlots).  Immutable after compilation.
struct BcSlotSite {
  Symbol Name;
  uint32_t CacheSlot = 0;
};

/// Per `new` site: the resolved NewExpr and its class's layout size.
struct BcNewSite {
  const NewExpr *N = nullptr;
  uint32_t LayoutSize = 0;
};

struct BcFunction;

/// Per closure-literal site: the literal and its compiled body.
struct BcClosureRef {
  const ClosureLitExpr *Lit = nullptr;
  BcFunction *Fn = nullptr;
};

/// An inlined-body region: pc range of the body code, the return boundary
/// it catches, and the register its value lands in.  The landing pc is
/// End (the first instruction after the body), entered through charge
/// region Landing.
struct BcInlinedRegion {
  uint32_t Start = 0;
  uint32_t End = 0;
  uint32_t Boundary = 0;
  uint16_t Dst = 0;
  uint32_t Landing = 0;
};

/// One charge point: the chargeNode() of one AST node, which precedes the
/// action of instruction Pc (a leaf's own instruction, or the first
/// instruction of a composite node's child code).
struct BcCharge {
  uint32_t Pc = 0;
  Expr::Kind Kind = Expr::Kind::IntLit;
  /// The node's location, reported by a budget or deadline trap.
  SourceLoc Loc;
};

/// A charge region: the straight-line run from Start through the first
/// region-ending instruction, with the charge points met on the way
/// (BcFunction::Charges[FirstCharge, FirstCharge + Nodes)).  Regions of
/// one function may share instructions: a merge point reached by
/// fall-through continues its predecessor's region.
struct BcChargeRegion {
  uint32_t Start = 0;
  uint32_t Nodes = 0;
  /// Instructions dispatched by one pass (Start through the terminator).
  uint32_t Len = 0;
  uint32_t FirstCharge = 0;
};

/// Per instruction: what its region still owes after it, given back when
/// the instruction traps after its region was charged whole.
struct BcChargeSuffix {
  uint32_t FirstCharge = 0; ///< first charge point after this pc
  uint32_t Nodes = 0;       ///< charge points from there to the terminator
  uint32_t Insns = 0;       ///< instructions after this pc in the region
};

/// One compiled executable body.
struct BcFunction {
  /// Instruction stream; the compiler guarantees the last reachable
  /// instruction of every path is RetLocal/RetNonLocal.
  std::vector<Insn> Code;
  /// Source location per instruction (cold: trap construction only).
  std::vector<SourceLoc> Locs;
  /// The body's frame layout *augmented* with the temp registers:
  /// NumSlots = source layout slots + NumTemps.  Params/cells unchanged,
  /// so Frame::bindParam and capture wiring work exactly as in the AST
  /// tier.
  FrameLayout Layout;
  uint32_t NumTemps = 0;
  /// First temp register (== the source layout's NumSlots).
  uint32_t FirstTemp = 0;
  /// Source method (methods only; for backtraces and Invoked bits).
  MethodId Source;
  const CompiledMethod *Method = nullptr;
  const ClosureLitExpr *Lit = nullptr;
  /// Disassembly label ("fib(Int) #3" / "closure @12:5").
  std::string Name;

  std::vector<int64_t> IntPool;
  /// StrLit payloads; point into the AST, which outlives the module.
  std::vector<const std::string *> StrPool;
  std::vector<BcSite> Sites;
  std::vector<BcSlotSite> SlotSites;
  std::vector<BcNewSite> NewSites;
  std::vector<BcClosureRef> Closures;
  std::vector<BcInlinedRegion> InlinedRegions;

  /// Charge points in stream order (non-decreasing Pc).
  std::vector<BcCharge> Charges;
  /// Region 0 is entered by the prologue; the rest by the instructions
  /// and sites that name them.
  std::vector<BcChargeRegion> ChargeRegions;
  /// Cold, one per instruction: the trap give-back table.
  std::vector<BcChargeSuffix> Suffixes;
  /// Module-dense index of ChargeRegions[0] (per-interpreter region entry
  /// counts are indexed RegionBase + region).
  uint32_t RegionBase = 0;
};

/// A compiled program: one BcFunction per non-builtin compiled method
/// version plus one per reachable closure literal.  Immutable once
/// compiled — execution state (inline caches, slot caches) lives in each
/// BytecodeInterpreter's side-tables, sized by the slot counts below —
/// so one module can back any number of concurrent interpreters.
struct BcModule {
  std::vector<std::unique_ptr<BcFunction>> Functions;
  /// CompiledMethod::Index -> function (null for builtins).
  std::vector<BcFunction *> ByVersion;
  std::unordered_map<const ClosureLitExpr *, BcFunction *> ByClosure;
  /// Module-wide count of send-site IC slots (BcSite::IcSlot range).
  uint32_t NumIcSlots = 0;
  /// Module-wide count of slot-access cache slots (BcSlotSite::CacheSlot
  /// range).
  uint32_t NumSlotCacheSlots = 0;
  /// Module-wide count of charge regions (BcFunction::RegionBase range).
  uint32_t NumChargeRegions = 0;
  /// Total instruction-stream bytes (the `bytecode.code_bytes` counter).
  uint64_t CodeBytes = 0;
  /// Compiled function count (methods + closures).
  uint32_t NumFunctions = 0;
  /// False when some body could not be lowered; the driver falls back to
  /// the AST tier for the whole run (Error says why).
  bool Ok = false;
  std::string Error;
};

} // namespace selspec

#endif // SELSPEC_BYTECODE_BYTECODE_H
