//===- interp/RuntimeCore.h - Semantics shared by both tiers ----*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime core both execution tiers derive from.  Everything the
/// tiers must agree on for RunStats, output and traps to be bit-identical
/// lives here once: the per-run state (stats, trap, heap, dispatcher,
/// frame pool, depth and native-stack guards), the primitives, value
/// rendering, every trap constructor, profile-arc recording, the
/// callGeneric entry path and the `interp.*` counter publication.  A tier
/// adds only how it walks code: the AST Interpreter evaluates expression
/// trees, the BytecodeInterpreter runs a register-bytecode loop.
///
/// The only virtual call is enter(), once per callGeneric; the per-node,
/// per-instruction and per-send paths call the core's inline or
/// out-of-line members directly.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_INTERP_RUNTIMECORE_H
#define SELSPEC_INTERP_RUNTIMECORE_H

#include "interp/CostModel.h"
#include "interp/RuntimeTrap.h"
#include "opt/CompiledProgram.h"
#include "profile/CallGraph.h"
#include "runtime/Dispatcher.h"
#include "runtime/Frame.h"
#include "runtime/Heap.h"
#include "runtime/Value.h"
#include "support/Deadline.h"
#include "support/FailPoint.h"

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace selspec {

/// Counters of one execution.
struct RunStats {
  uint64_t DynamicDispatches = 0;
  uint64_t VersionSelects = 0;
  uint64_t StaticCalls = 0;
  uint64_t InlinePrims = 0;
  uint64_t PredictedHits = 0;
  uint64_t PredictedMisses = 0;
  uint64_t FeedbackHits = 0;
  uint64_t FeedbackMisses = 0;
  uint64_t ClosuresCreated = 0;
  uint64_t ClosureCalls = 0;
  uint64_t Allocations = 0;
  uint64_t MethodInvocations = 0;
  uint64_t NodesEvaluated = 0;
  /// Deepest concurrently-active Mica call chain (methods + closures);
  /// what ResourceLimits::MaxDepth bounds.
  uint64_t PeakDepth = 0;
  /// Modeled execution time.
  uint64_t Cycles = 0;
  /// Executed-node histogram by AST kind (the `--time-report` node mix).
  std::array<uint64_t, Expr::NumKinds> NodeMix{};

  /// The paper's "number of dynamic dispatches": full dispatches plus
  /// run-time version selections (statically-bound calls that had to be
  /// converted back to dispatches, Section 3.3).
  uint64_t totalDispatches() const {
    return DynamicDispatches + VersionSelects;
  }
};

struct RunOptions {
  /// Record (site, caller, callee, weight) arcs into Profile.
  CallGraph *Profile = nullptr;
  /// Verify every statically-bound send against real dispatch (tests).
  bool ValidateBindings = false;
  /// Resource guards: node budget, recursion depth, heap object count.
  ResourceLimits Limits;
  /// Destination of `print`; null discards output.
  std::ostream *Output = nullptr;
  /// Cooperative stop signal (deadline and/or external cancel); polled
  /// every DeadlineCheckInterval evaluated nodes, trapping
  /// DeadlineExceeded.  Null disables the checks beyond one predictable
  /// branch per node.
  const CancelToken *Cancel = nullptr;
  /// Shared dispatch tables (a CompiledSnapshot's).  When set, bytecode
  /// IC misses and every AST-tier dynamic send read them; when null the
  /// Dispatcher owns tables of its own, built for the interpreter's
  /// CompiledProgram.  Tables built for that same CompiledProgram hand a
  /// bytecode miss the selected version in the cell it reads; tables
  /// built for no CompiledProgram (DispatchTables(const Program &)) or
  /// another one leave version selection to
  /// CompiledProgram::selectVersion, which the AST tier always uses.
  /// Results are identical either way.  Must outlive the interpreter.
  const DispatchTables *Tables = nullptr;
};

class RuntimeCore {
public:
  /// Publishes the accumulated RunStats onto the process-wide metrics
  /// registry (`interp.*` counters): once per interpreter, either tier.
  virtual ~RuntimeCore();

  /// Invokes `main(Arg)`.  Returns false on any runtime error (see
  /// trap() / errorMessage()).
  bool callMain(int64_t Arg);

  /// Invokes generic \p Name on \p Args; \p Ok reports success.
  Value callGeneric(const std::string &Name, std::vector<Value> Args,
                    bool &Ok);

  const RunStats &stats() const { return Stats; }
  /// The structured failure of the last run (Kind == None on success).
  const RuntimeTrap &trap() const { return Trap; }
  /// Rendered form of trap() (message + location + backtrace).
  const std::string &errorMessage() const { return Error; }
  Dispatcher &dispatcher() { return Disp; }
  Heap &heap() { return TheHeap; }
  const CostModel &costs() const { return Costs; }

  /// Appends each `interp.*` counter the destructor publishes for a run
  /// that produced \p S, as (name, value), in registration order.
  static void
  appendStatCounters(const RunStats &S,
                     std::vector<std::pair<std::string, uint64_t>> &Out);

  /// Renders a value for `print` and diagnostics.  An array already being
  /// rendered further out (a cycle) prints as `[...]`, as does one nested
  /// deeper than MaxRenderDepth; once the text passes MaxRenderBytes the
  /// remaining elements print as a single `...`.
  std::string valueToString(const Value &V) const;

  static constexpr unsigned MaxRenderDepth = 64;
  static constexpr size_t MaxRenderBytes = size_t(1) << 20;

protected:
  RuntimeCore(const CompiledProgram &CP, RunOptions Opts, CostModel Costs);

  /// The pending non-local transfer of an evaluation: a `return` unwinding
  /// to its home activation, or a trap unwinding to callGeneric.
  struct Control {
    enum class Kind : uint8_t { None, Return, Error };
    Kind K = Kind::None;
    uint64_t Activation = 0;
    uint32_t Boundary = 0;
    Value Val;

    bool active() const { return K != Kind::None; }
  };

  /// The tier's half of callGeneric: runs version \p Version of \p Target
  /// (the dispatch callGeneric already did) on \p Args.
  virtual Value enter(MethodId Target, int Version, std::vector<Value> &Args,
                      Control &C) = 0;

  /// Runs a builtin.  Primitives never re-enter the tier, so \p Args
  /// stays valid throughout.
  Value invokePrim(PrimOp Op, const Value *Args, SourceLoc Loc, Control &C);

  /// Loads the classes of \p Args into ClassScratch.
  void gatherClasses(const Value *Args, size_t N) {
    ClassScratch.clear();
    for (size_t I = 0; I != N; ++I)
      ClassScratch.push_back(Args[I].classOf());
  }

  void recordArc(CallSiteId Site, MethodId Callee) {
    if (Opts.Profile && Site.isValid())
      Opts.Profile->addHits(Site, P.callSite(Site).Owner, Callee);
  }

  /// RunOptions::ValidateBindings: checks a statically bound send (Static,
  /// StaticSelect or InlinePrim) against real dispatch on \p Args.  False
  /// after trapping BindingViolation.
  [[gnu::cold]] [[gnu::noinline]] bool bindingHolds(const SendExpr *S,
                                                    const Value *Args,
                                                    size_t N, Control &C);

  /// The guards every Mica call passes before taking a frame, in order:
  /// recursion depth, native-stack headroom, the `interp.frame-acquire`
  /// failpoint.  False after trapping.
  bool callAllowed(SourceLoc Loc, Control &C) {
    if (Depth >= Opts.Limits.MaxDepth) {
      failDepth(C, Loc);
      return false;
    }
    if (nativeStackLow()) {
      failNativeStack(C, Loc);
      return false;
    }
    if (failpoint::anyArmed() &&
        failpoint::triggered("interp.frame-acquire")) {
      failInjected(C, Loc, "interp.frame-acquire");
      return false;
    }
    return true;
  }

  /// Runs one Mica activation, method or closure: a frame of \p Layout
  /// with \p Args bound to its parameters and \p Captured as its
  /// captures, CurrentHome set to \p Home, the call depth raised and, for
  /// a method (\p Source valid), a backtrace entry; \p Run(Frame &)
  /// evaluates the body in it.
  template <class RunT>
  Value activate(const FrameLayout &Layout, const Value *Args, size_t N,
                 const std::vector<CellPtr> *Captured, uint64_t Home,
                 MethodId Source, RunT Run) {
    FrameGuard G(Frames, Layout, Captured);
    Frame &F = G.frame();
    for (size_t I = 0; I != N; ++I)
      F.bindParam(Layout.Params[I], Args[I]);
    const uint64_t SavedHome = CurrentHome;
    CurrentHome = Home;
    if (Source.isValid())
      CallStack.push_back(Source);
    if (++Depth > Stats.PeakDepth)
      Stats.PeakDepth = Depth;
    Value Result = Run(F);
    --Depth;
    if (Source.isValid())
      CallStack.pop_back();
    CurrentHome = SavedHome;
    return Result;
  }

  /// The pre-allocation guards for one object of \p Bytes modeled bytes:
  /// the object count, then the per-job byte budget, checked with the
  /// incoming object's exact size so the trap fires at the same byte in
  /// every build mode and on both tiers.  False after trapping.
  bool allocationFits(uint64_t Bytes, SourceLoc Loc, Control &C) {
    if (TheHeap.numAllocated() >= Opts.Limits.MaxObjects) {
      failHeapLimit(C, Loc);
      return false;
    }
    if (TheHeap.bytesAllocated() + Bytes > Opts.Limits.MaxBytes) {
      failMemoryBudget(C, Loc, Bytes);
      return false;
    }
    return true;
  }

  /// Allocates a closure over \p Lit capturing from \p F, with its guards
  /// and charges; null after trapping.
  Obj *newClosure(const ClosureLitExpr *Lit, Frame &F, SourceLoc Loc,
                  Control &C);

  /// Records the first failure of a run (later ones, raised while already
  /// unwinding an error, are dropped) with a bounded backtrace.
  Value fail(Control &C, TrapKind Kind, SourceLoc Loc, std::string Message);
  /// Records a failure that happens outside any Control channel (the
  /// callGeneric entry path).
  void failTop(TrapKind Kind, std::string Message);

  // Out-of-line failure constructors: the hot paths branch to these and
  // the message strings are only built once a failure is certain.
  [[gnu::cold]] [[gnu::noinline]] Value failPrimType(Control &C, PrimOp Op,
                                                     SourceLoc Loc,
                                                     const char *Expected);
  [[gnu::cold]] [[gnu::noinline]] Value failBounds(Control &C, SourceLoc Loc,
                                                   int64_t Index, size_t Size);
  [[gnu::cold]] [[gnu::noinline]] Value failNoSlot(Control &C, SourceLoc Loc,
                                                   ClassId Cls,
                                                   Symbol SlotName);
  /// Dispatch failed for \p S on the classes in ClassScratch; classifies
  /// no-applicable-method vs. ambiguous via a (cold) re-dispatch.
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
  /// An armed failpoint fired at \p Name (an injected internal fault).
  [[gnu::cold]] [[gnu::noinline]] Value failInjected(Control &C, SourceLoc Loc,
                                                     const char *Name);

  /// How often the node charge polls RunOptions::Cancel: every
  /// (DeadlineCheckMask + 1) evaluated nodes.  8192 keeps the steady-state
  /// cost to one masked compare per node while bounding deadline overshoot
  /// to microseconds of interpreter work.
  static constexpr uint64_t DeadlineCheckMask = 8191;

  /// True when the native C++ stack consumed below the entry point
  /// exceeds StackBudget.  Backstop for MaxDepth: sanitizer and debug
  /// builds grow native frames enough that a depth limit calibrated for
  /// release builds can still overflow the real stack.
  bool nativeStackLow() const {
    char Probe;
    uintptr_t Here = reinterpret_cast<uintptr_t>(&Probe);
    size_t Used = StackBase >= Here ? StackBase - Here : Here - StackBase;
    return Used > StackBudget;
  }

  const CompiledProgram &CP;
  const Program &P;
  RunOptions Opts;
  CostModel Costs;
  Dispatcher Disp;
  Heap TheHeap;
  FramePool Frames;
  /// Scratch for per-dispatch class tuples; each use finishes before any
  /// recursive call, so a single reused buffer is safe.
  std::vector<ClassId> ClassScratch;
  RunStats Stats;
  RuntimeTrap Trap;
  std::string Error;
  uint64_t NextActivation = 1;
  /// Concurrently-active Mica calls (methods + closures); bounded by
  /// Opts.Limits.MaxDepth to keep native C++ recursion in check.
  uint32_t Depth = 0;
  /// Native-stack backstop: address of a local in the public entry point
  /// (refreshed by callGeneric) and the bytes of native stack a tier may
  /// consume below it before trapping RecursionLimitExceeded.
  uintptr_t StackBase = 0;
  size_t StackBudget;
  /// Home activation of the code currently executing (the activation a
  /// boundary-0 return unwinds to).
  uint64_t CurrentHome = 0;
  /// Active method invocations, innermost last (for error stack traces).
  std::vector<MethodId> CallStack;

private:
  void render(const Value &V, std::string &Out,
              std::vector<const Obj *> &Open) const;
};

} // namespace selspec

#endif // SELSPEC_INTERP_RUNTIMECORE_H
