//===- bytecode/BytecodeInterpreter.h - Register-bytecode tier -*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode tier: executes a BcModule, the flat register-bytecode
/// lowering of a CompiledProgram.  Primitives, traps, value rendering,
/// resource guards, the callGeneric entry path and `interp.*` stats
/// publication come from RuntimeCore, shared with the AST Interpreter, so
/// the driver selects a tier without caring which one runs.  This class
/// adds only how bytecode runs: the dispatch loop (computed goto under
/// GCC/Clang, a switch elsewhere), the call-instruction family with its
/// per-thread inline caches, whose misses read the shared compressed
/// dispatch tables (DispatchTables) directly, and charge regions.  When the tables were
/// built for this interpreter's CompiledProgram (a snapshot's, or the
/// core's own), a miss is one cell read that yields the method and its
/// selected version; over tables built for no CompiledProgram or another
/// one, the miss selects the version with CompiledProgram::selectVersion.
/// The AST walker charges every node as it goes; this tier charges a
/// whole charge region when it enters one (an add and a compare against
/// the next node budget or deadline-poll threshold), steps through the
/// region's charge points one by one only when that threshold falls
/// inside it, and gives back the unreached points when an instruction
/// traps mid-region.  NodeMix and
/// the node share of Cycles are folded in from per-region entry counts
/// when a job ends, so RunStats are bit-identical across tiers, which
/// tests/BytecodeTests.cpp enforces differentially.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_BYTECODE_BYTECODEINTERPRETER_H
#define SELSPEC_BYTECODE_BYTECODEINTERPRETER_H

#include "bytecode/Bytecode.h"
#include "interp/RuntimeCore.h"

#include <cstdint>
#include <vector>

namespace selspec {

class BytecodeInterpreter final : public RuntimeCore {
public:
  /// \p Mod must be the compilation of \p CP (see compileToBytecode) and
  /// must outlive the interpreter.  Both are shared, never mutated: all
  /// adaptive state (inline caches, slot caches) lives in per-interpreter
  /// side-tables, and the dispatch tables a miss reads are published once
  /// per generic, so any number of concurrent interpreters may execute
  /// one (CP, Mod) snapshot.
  BytecodeInterpreter(const CompiledProgram &CP, const BcModule &Mod,
                      RunOptions Opts = {}, CostModel Costs = {});

  /// Publishes the IC counters and `bytecode.insns_dispatched` (the core
  /// publishes `interp.*`).
  ~BytecodeInterpreter() override;

  uint64_t icHits() const { return IcHits; }
  uint64_t icMisses() const { return IcMisses; }
  uint64_t icMisdispatches() const { return IcMisdispatches; }
  /// Bytecode instructions dispatched so far (deterministic: derived from
  /// region entries, not counted per instruction).
  uint64_t insnsDispatched() const { return InsnsDispatched; }

private:
  Value enter(MethodId Target, int Version, std::vector<Value> &Args,
              Control &C) override;

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

  /// Inline-cache probe/fill over ClassScratch, against this
  /// interpreter's side-table entry for the site (IcTable[Site.IcSlot]).
  /// A hit yields the cached (method, version); under SELSPEC_IC_AUDIT=1
  /// hits are re-verified against full dispatch
  /// (`bytecode.ic_misdispatch`).
  bool icFind(const BcSite &Site, MethodId &Target, int &Version);
  /// The miss path of callDyn and callFeedback: reads the (method,
  /// version) cell of the site's generic's dispatch table (selecting the
  /// version itself unless CellsHoldVersions), fills the IC, and under
  /// SELSPEC_IC_AUDIT=1 re-derives both from Program::dispatch and
  /// selectVersion first, counting a divergence as a misdispatch and
  /// taking the oracle's answer.  False when no method applies.
  bool icMiss(const BcSite &Site, MethodId &Target, int &Version);
  void icInsert(const BcSite &Site, MethodId Target, int Version);

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

  const BcModule &Mod;
  /// The dispatch tables IC misses read: the snapshot's shared ones, or
  /// the core's own when RunOptions::Tables is null.
  const DispatchTables &Tables;
  /// Tables' cells carry this CP's versions (built for it); otherwise a
  /// miss selects the version with CompiledProgram::selectVersion.
  const bool CellsHoldVersions;
  /// Per-thread IC side-tables (the module itself is immutable and
  /// shared): sized once from Mod.NumIcSlots / Mod.NumSlotCacheSlots.
  std::vector<IcSlotState> IcTable;
  std::vector<SlotCacheState> SlotCaches;
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
  /// SELSPEC_IC_AUDIT=1: re-verify every IC hit and every table answer
  /// against Program::dispatch and CompiledProgram::selectVersion.
  bool IcAudit = false;
};

} // namespace selspec

#endif // SELSPEC_BYTECODE_BYTECODEINTERPRETER_H
