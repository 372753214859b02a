//===- bytecode/BytecodeInterpreter.h - Register-bytecode tier -*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a BcModule: the flat register-bytecode twin of the AST
/// Interpreter, with the same public surface (callMain/callGeneric,
/// RunStats, RuntimeTrap, rendered errors) so the driver can select a
/// tier without caring which one runs.  The dispatch loop is computed
/// goto under GCC/Clang and a switch elsewhere; Frame/FramePool, the
/// Dispatcher (as the inline caches' miss path), resource guards, the
/// deadline poll and the cost model are shared with the AST tier.  The AST
/// walker charges every node as it goes; this tier charges a whole charge
/// region when it enters one (an add and a compare against the next node
/// budget or deadline-poll threshold), steps through the region's charge
/// points one by one only when that threshold falls inside it, and gives
/// back the unreached points when an instruction traps mid-region.
/// NodeMix and the node share of Cycles are folded in from per-region
/// entry counts when callGeneric returns, so RunStats are bit-identical
/// across tiers, which tests/BytecodeTests.cpp enforces differentially.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_BYTECODE_BYTECODEINTERPRETER_H
#define SELSPEC_BYTECODE_BYTECODEINTERPRETER_H

#include "bytecode/Bytecode.h"
#include "interp/Interpreter.h"

#include <cstdint>
#include <iosfwd>
#include <string>

namespace selspec {

class BytecodeInterpreter {
public:
  /// \p Mod must be the compilation of \p CP (see compileToBytecode) and
  /// must outlive the interpreter.  Both are shared, never mutated: all
  /// adaptive state (inline caches, slot caches, dispatcher memo/PICs)
  /// lives in per-interpreter side-tables, so any number of concurrent
  /// interpreters may execute one (CP, Mod) snapshot.
  BytecodeInterpreter(const CompiledProgram &CP, const BcModule &Mod,
                      RunOptions Opts = {}, CostModel Costs = {});

  /// Publishes the accumulated RunStats (`interp.*`, summed with the AST
  /// tier's), the IC counters and `bytecode.insns_dispatched`.
  ~BytecodeInterpreter();

  bool callMain(int64_t Arg);
  Value callGeneric(const std::string &Name, std::vector<Value> Args,
                    bool &Ok);

  const RunStats &stats() const { return Stats; }
  const RuntimeTrap &trap() const { return Trap; }
  const std::string &errorMessage() const { return Error; }
  Dispatcher &dispatcher() { return Disp; }
  Heap &heap() { return TheHeap; }
  const CostModel &costs() const { return Costs; }

  std::string valueToString(const Value &V) const;

  uint64_t icHits() const { return IcHits; }
  uint64_t icMisses() const { return IcMisses; }
  uint64_t icMisdispatches() const { return IcMisdispatches; }
  /// Bytecode instructions dispatched so far (deterministic: derived from
  /// region entries, not counted per instruction).
  uint64_t insnsDispatched() const { return InsnsDispatched; }

private:
  struct Control {
    enum class Kind : uint8_t { None, Return, Error };
    Kind K = Kind::None;
    uint64_t Activation = 0;
    uint32_t Boundary = 0;
    Value Val;

    bool active() const { return K != Kind::None; }
  };

  Value execute(const BcFunction &Fn, Frame &F, uint64_t Activation,
                Control &C);

  Value callDyn(const BcSite &Site, Value *Args, size_t N, Control &C);
  Value callStatic(const BcSite &Site, Value *Args, size_t N, Control &C);
  Value callSelect(const BcSite &Site, Value *Args, size_t N, Control &C);
  Value callPrim(const BcSite &Site, Value *Args, size_t N, Control &C);
  Value callPred(const BcSite &Site, Value *Args, size_t N, Control &C);
  Value callFeedback(const BcSite &Site, Value *Args, size_t N, Control &C);
  Value callClosureValue(Value Callee, Value *Args, size_t N, SourceLoc Loc,
                         Control &C);

  Value bcInvokeMethod(MethodId M, int VersionIndex, Value *Args, size_t N,
                       SourceLoc CallLoc, Control &C);
  Value bcInvokeVersion(const CompiledMethod &CM, Value *Args, size_t N,
                        SourceLoc CallLoc, Control &C);
  Value invokePrim(PrimOp Op, const Value *Args, SourceLoc Loc, Control &C);

  /// Inline-cache probe/fill over ClassScratch, against this
  /// interpreter's side-table entry for the site (IcTable[Site.IcSlot]).
  /// A hit yields the cached (method, version); under SELSPEC_IC_AUDIT=1
  /// hits are re-verified against full dispatch
  /// (`bytecode.ic_misdispatch`).
  bool icFind(const BcSite &Site, MethodId &Target, int &Version);
  void icInsert(const BcSite &Site, MethodId Target, int Version);

  void gatherClasses(const Value *Args, size_t N) {
    ClassScratch.clear();
    for (size_t I = 0; I != N; ++I)
      ClassScratch.push_back(Args[I].classOf());
  }

  void recordArc(CallSiteId Site, MethodId Callee);
  Value fail(Control &C, TrapKind Kind, SourceLoc Loc, std::string Message);
  void failTop(TrapKind Kind, std::string Message);
  bool heapHasRoom() const {
    return TheHeap.numAllocated() < Opts.Limits.MaxObjects;
  }
  /// Same pre-allocation byte-budget check as the AST tier: identical
  /// modeled sizes at identical points, so the trap is tier-invariant.
  bool heapBytesOk(uint64_t Incoming) const {
    return TheHeap.bytesAllocated() + Incoming <= Opts.Limits.MaxBytes;
  }

  [[gnu::cold]] [[gnu::noinline]] Value failPrimType(Control &C, PrimOp Op,
                                                     SourceLoc Loc,
                                                     const char *Expected);
  [[gnu::cold]] [[gnu::noinline]] Value failBounds(Control &C, SourceLoc Loc,
                                                   int64_t Index, size_t Size);
  [[gnu::cold]] [[gnu::noinline]] Value failNoSlot(Control &C, SourceLoc Loc,
                                                   ClassId Cls,
                                                   Symbol SlotName);
  [[gnu::cold]] [[gnu::noinline]] Value failDispatch(Control &C,
                                                     const SendExpr *S);
  [[gnu::cold]] [[gnu::noinline]] Value failNodeBudget(Control &C,
                                                       SourceLoc Loc);
  [[gnu::cold]] [[gnu::noinline]] Value failDepth(Control &C, SourceLoc Loc);
  [[gnu::cold]] [[gnu::noinline]] Value failNativeStack(Control &C,
                                                        SourceLoc Loc);
  [[gnu::cold]] [[gnu::noinline]] Value failHeapLimit(Control &C,
                                                      SourceLoc Loc);
  [[gnu::cold]] [[gnu::noinline]] Value failMemoryBudget(Control &C,
                                                         SourceLoc Loc,
                                                         uint64_t Requested);
  [[gnu::cold]] [[gnu::noinline]] Value failDeadline(Control &C,
                                                     SourceLoc Loc);
  [[gnu::cold]] [[gnu::noinline]] Value failInjected(Control &C, SourceLoc Loc,
                                                     const char *Name);

  /// Same sampled poll cadence as the AST tier (RunStats-identical).
  static constexpr uint64_t DeadlineCheckMask = 8191;

  /// The smallest node count past \p Nodes at which a charge traps or
  /// polls the deadline: a region whose summary reaches it is stepped.
  uint64_t nextChargeLimit(uint64_t Nodes) const {
    const uint64_t Budget = Opts.Limits.MaxNodes == UINT64_MAX
                                ? UINT64_MAX
                                : Opts.Limits.MaxNodes + 1;
    const uint64_t Poll = (Nodes & ~DeadlineCheckMask) + DeadlineCheckMask + 1;
    return Budget < Poll ? Budget : Poll;
  }
  /// Undoes the part of \p Pc's region after \p Pc, charged at region
  /// entry but not reached because \p Pc trapped.
  [[gnu::cold]] [[gnu::noinline]] void giveBack(const BcFunction &Fn,
                                                uint32_t Pc);
  /// Adds the region entry counts into NodeMix and InsnsDispatched, and
  /// the node cost of every node charged since the last fold into Cycles.
  void foldRegionCounts();

  bool nativeStackLow() const {
    char Probe;
    uintptr_t Here = reinterpret_cast<uintptr_t>(&Probe);
    size_t Used = StackBase >= Here ? StackBase - Here : Here - StackBase;
    return Used > StackBudget;
  }

  /// One send site's per-thread inline cache: the BcIcEntry ways plus the
  /// round-robin replacement cursor, indexed by BcSite::IcSlot.
  struct IcSlotState {
    BcIcEntry Ways[BcIcEntries];
    uint8_t Victim = 0;
  };
  /// One slot-access site's per-thread (class -> layout index) cache,
  /// indexed by BcSlotSite::CacheSlot.
  struct SlotCacheState {
    ClassId CachedClass; ///< invalid id = empty.
    int32_t CachedIndex = -1;
  };

  const CompiledProgram &CP;
  const Program &P;
  const BcModule &Mod;
  RunOptions Opts;
  CostModel Costs;
  Dispatcher Disp;
  Heap TheHeap;
  FramePool Frames;
  /// Per-thread IC side-tables (the module itself is immutable and
  /// shared): sized once from Mod.NumIcSlots / Mod.NumSlotCacheSlots.
  std::vector<IcSlotState> IcTable;
  std::vector<SlotCacheState> SlotCaches;
  std::vector<ClassId> ClassScratch;
  RunStats Stats;
  RuntimeTrap Trap;
  std::string Error;
  uint64_t NextActivation = 1;
  uint32_t Depth = 0;
  uintptr_t StackBase = 0;
  size_t StackBudget;
  uint64_t CurrentHome = 0;
  std::vector<MethodId> CallStack;
  /// Per-thread entry counts of fast-path (summary-charged) region passes,
  /// indexed BcFunction::RegionBase + region; zeroed by each fold.
  std::vector<uint64_t> RegionHits;
  /// nextChargeLimit(Stats.NodesEvaluated), kept current by the stepping
  /// path; shared by every activation since the node count is.
  uint64_t ChargeLimit = 0;
  /// Stats.NodesEvaluated at the last fold (Cycles owes the rest).
  uint64_t NodesFolded = 0;
  uint64_t InsnsDispatched = 0;
  /// Inline-cache observability (published as `bytecode.*` counters).
  uint64_t IcHits = 0;
  uint64_t IcMisses = 0;
  uint64_t IcMisdispatches = 0;
  /// SELSPEC_IC_AUDIT=1: re-verify every IC hit against full dispatch.
  bool IcAudit = false;
};

} // namespace selspec

#endif // SELSPEC_BYTECODE_BYTECODEINTERPRETER_H
