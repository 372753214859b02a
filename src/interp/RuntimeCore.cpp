//===- interp/RuntimeCore.cpp - Semantics shared by both tiers -------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "interp/RuntimeCore.h"

#include "support/Metrics.h"

#include <algorithm>
#include <ostream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace selspec;

namespace {
/// How much native stack a tier may consume before the backstop trap
/// fires: three quarters of the soft stack rlimit, capped at 6 MiB.  The
/// cap keeps the remaining headroom (frame sizes vary ~10x between release
/// and sanitizer builds) comfortably larger than one trap-rendering
/// excursion even on the default 8 MiB main-thread stack.
size_t nativeStackBudget() {
  size_t Budget = size_t(6) << 20;
#if defined(__unix__) || defined(__APPLE__)
  struct rlimit RL;
  if (getrlimit(RLIMIT_STACK, &RL) == 0 && RL.rlim_cur != RLIM_INFINITY) {
    size_t ThreeQuarters = static_cast<size_t>(RL.rlim_cur) / 4 * 3;
    if (ThreeQuarters < Budget)
      Budget = ThreeQuarters;
  }
#endif
  return Budget;
}

/// The `interp.*` counters that mirror RunStats fields.  The core's
/// destructor publishes them and per-job metric deltas report them, both
/// from this one table.
struct StatCounter {
  metrics::Counter Ctr;
  uint64_t RunStats::*Field;
};
StatCounter StatCounters[] = {
    {metrics::Counter("interp.dynamic_dispatches"),
     &RunStats::DynamicDispatches},
    {metrics::Counter("interp.version_selects"), &RunStats::VersionSelects},
    {metrics::Counter("interp.static_calls"), &RunStats::StaticCalls},
    {metrics::Counter("interp.inline_prims"), &RunStats::InlinePrims},
    {metrics::Counter("interp.predicted_hits"), &RunStats::PredictedHits},
    {metrics::Counter("interp.predicted_misses"), &RunStats::PredictedMisses},
    {metrics::Counter("interp.feedback_hits"), &RunStats::FeedbackHits},
    {metrics::Counter("interp.feedback_misses"), &RunStats::FeedbackMisses},
    {metrics::Counter("interp.closures_created"), &RunStats::ClosuresCreated},
    {metrics::Counter("interp.closure_calls"), &RunStats::ClosureCalls},
    {metrics::Counter("interp.allocations"), &RunStats::Allocations},
    {metrics::Counter("interp.method_invocations"),
     &RunStats::MethodInvocations},
    {metrics::Counter("interp.nodes_evaluated"), &RunStats::NodesEvaluated},
    {metrics::Counter("interp.cycles"), &RunStats::Cycles},
};
metrics::Counter CtrBytesAllocated("interp.bytes_allocated");
metrics::Counter CtrDeadlineExpired("deadline.expired");
} // namespace

RuntimeCore::RuntimeCore(const CompiledProgram &CP, RunOptions Opts,
                         CostModel Costs)
    : CP(CP), P(CP.program()), Opts(Opts), Costs(Costs),
      Disp(Opts.Tables ? Dispatcher(*Opts.Tables) : Dispatcher(CP)),
      StackBudget(nativeStackBudget()) {}

RuntimeCore::~RuntimeCore() {
  // RunStats stays a plain struct on the hot path; totals reach the
  // registry once per interpreter, here.
  for (StatCounter &SC : StatCounters)
    SC.Ctr.add(Stats.*SC.Field);
  CtrBytesAllocated.add(TheHeap.bytesAllocated());
}

void RuntimeCore::appendStatCounters(
    const RunStats &S, std::vector<std::pair<std::string, uint64_t>> &Out) {
  for (const StatCounter &SC : StatCounters)
    Out.emplace_back(SC.Ctr.name(), S.*SC.Field);
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string RuntimeCore::valueToString(const Value &V) const {
  std::string Out;
  std::vector<const Obj *> Open;
  render(V, Out, Open);
  return Out;
}

void RuntimeCore::render(const Value &V, std::string &Out,
                         std::vector<const Obj *> &Open) const {
  switch (V.kind()) {
  case Value::Kind::Nil:
    Out += "nil";
    return;
  case Value::Kind::Int:
    Out += std::to_string(V.asInt());
    return;
  case Value::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    return;
  case Value::Kind::Object:
    break;
  }
  const Obj *O = V.asObject();
  switch (O->payload()) {
  case Obj::Payload::Str:
    Out += O->Str;
    return;
  case Obj::Payload::Closure:
    Out += "<closure>";
    return;
  case Obj::Payload::Instance:
    Out += '<';
    Out += P.Syms.name(P.Classes.info(O->getClass()).Name);
    Out += '>';
    return;
  case Obj::Payload::Array:
    break;
  }
  // Open holds the arrays being rendered around this one, so its size is
  // the nesting depth and a match is a cycle.
  if (Open.size() == MaxRenderDepth ||
      std::find(Open.begin(), Open.end(), O) != Open.end()) {
    Out += "[...]";
    return;
  }
  Open.push_back(O);
  Out += '[';
  for (size_t I = 0; I != O->Slots.size(); ++I) {
    if (I)
      Out += ", ";
    if (Out.size() >= MaxRenderBytes) {
      Out += "...";
      break;
    }
    render(O->Slots[I], Out, Open);
  }
  Out += ']';
  Open.pop_back();
}

//===----------------------------------------------------------------------===//
// Traps
//===----------------------------------------------------------------------===//

Value RuntimeCore::fail(Control &C, TrapKind Kind, SourceLoc Loc,
                        std::string Message) {
  if (C.K != Control::Kind::Error) {
    C.K = Control::Kind::Error;
    Trap.reset();
    Trap.Kind = Kind;
    Trap.Loc = Loc;
    Trap.Message = std::move(Message);
    // Attach a bounded stack trace, innermost frame first.
    for (auto It = CallStack.rbegin(); It != CallStack.rend(); ++It) {
      if (Trap.Backtrace.size() == RuntimeTrap::MaxBacktraceFrames) {
        Trap.FramesElided =
            CallStack.size() - RuntimeTrap::MaxBacktraceFrames;
        break;
      }
      Trap.Backtrace.push_back(P.methodLabel(*It));
    }
    Error = Trap.render();
  }
  return Value::nil();
}

void RuntimeCore::failTop(TrapKind Kind, std::string Message) {
  Trap.reset();
  Trap.Kind = Kind;
  Trap.Message = std::move(Message);
  Error = Trap.render();
}

Value RuntimeCore::failPrimType(Control &C, PrimOp Op, SourceLoc Loc,
                                const char *Expected) {
  return fail(C, TrapKind::TypeError, Loc,
              std::string("primitive '") + primOpName(Op) + "' expects " +
                  Expected);
}

Value RuntimeCore::failBounds(Control &C, SourceLoc Loc, int64_t Index,
                              size_t Size) {
  return fail(C, TrapKind::IndexOutOfBounds, Loc,
              "array index " + std::to_string(Index) +
                  " out of bounds (size " + std::to_string(Size) + ")");
}

Value RuntimeCore::failNoSlot(Control &C, SourceLoc Loc, ClassId Cls,
                              Symbol SlotName) {
  return fail(C, TrapKind::UndefinedSlot, Loc,
              "class '" + P.Syms.name(P.Classes.info(Cls).Name) +
                  "' has no slot '" + P.Syms.name(SlotName) + "'");
}

Value RuntimeCore::failDispatch(Control &C, const SendExpr *S) {
  bool Ambiguous = false;
  P.dispatch(S->Generic, ClassScratch, &Ambiguous);
  if (Ambiguous)
    return fail(C, TrapKind::AmbiguousDispatch, S->getLoc(),
                "message '" + P.genericLabel(S->Generic) +
                    "' is ambiguous for the given argument classes");
  return fail(C, TrapKind::NoApplicableMethod, S->getLoc(),
              "message '" + P.genericLabel(S->Generic) + "' not understood");
}

Value RuntimeCore::failNoVersion(Control &C, SourceLoc Loc, MethodId M) {
  return fail(C, TrapKind::InternalError, Loc,
              "internal: no compiled version matches arguments of " +
                  P.methodLabel(M));
}

Value RuntimeCore::failNodeBudget(Control &C, SourceLoc Loc) {
  return fail(C, TrapKind::NodeBudgetExceeded, Loc,
              "execution exceeded the node budget of " +
                  std::to_string(Opts.Limits.MaxNodes) +
                  " nodes (infinite loop?)");
}

Value RuntimeCore::failDepth(Control &C, SourceLoc Loc) {
  return fail(C, TrapKind::RecursionLimitExceeded, Loc,
              "call depth exceeded the recursion limit of " +
                  std::to_string(Opts.Limits.MaxDepth) + " activations");
}

Value RuntimeCore::failNativeStack(Control &C, SourceLoc Loc) {
  return fail(C, TrapKind::RecursionLimitExceeded, Loc,
              "recursion exhausted the native stack headroom (" +
                  std::to_string(StackBudget) +
                  " bytes) before reaching the recursion limit of " +
                  std::to_string(Opts.Limits.MaxDepth) + " activations");
}

Value RuntimeCore::failHeapLimit(Control &C, SourceLoc Loc) {
  return fail(C, TrapKind::HeapLimitExceeded, Loc,
              "allocation exceeded the heap limit of " +
                  std::to_string(Opts.Limits.MaxObjects) + " objects");
}

Value RuntimeCore::failMemoryBudget(Control &C, SourceLoc Loc,
                                    uint64_t Requested) {
  return fail(C, TrapKind::MemoryBudgetExceeded, Loc,
              "allocation of " + std::to_string(Requested) +
                  " modeled bytes exceeded the memory budget of " +
                  std::to_string(Opts.Limits.MaxBytes) + " bytes (" +
                  std::to_string(TheHeap.bytesAllocated()) +
                  " already allocated)");
}

Value RuntimeCore::failDeadline(Control &C, SourceLoc Loc) {
  CtrDeadlineExpired.add();
  return fail(C, TrapKind::DeadlineExceeded, Loc,
              Opts.Cancel ? Opts.Cancel->reason() : "execution cancelled");
}

Value RuntimeCore::failInjected(Control &C, SourceLoc Loc, const char *Name) {
  return fail(C, TrapKind::InternalError, Loc,
              failpoint::failureMessage(Name));
}

bool RuntimeCore::bindingHolds(const SendExpr *S, const Value *Args, size_t N,
                               Control &C) {
  std::vector<ClassId> Classes;
  for (size_t I = 0; I != N; ++I)
    Classes.push_back(Args[I].classOf());
  const MethodId Real = P.dispatch(S->Generic, Classes);
  const std::string Site = std::to_string(S->Site.value());
  switch (S->Binding.Kind) {
  case SendBindKind::Static: {
    const CompiledMethod &CM = CP.version(S->Binding.TargetVersion);
    if (Real != CM.Source) {
      fail(C, TrapKind::BindingViolation, S->getLoc(),
           "static binding violation at site " + Site + ": bound to " +
               P.methodLabel(CM.Source) + " but dispatch picks " +
               (Real.isValid() ? P.methodLabel(Real) : "<none>"));
      return false;
    }
    if (!tupleContains(CM.Tuple, Classes)) {
      fail(C, TrapKind::BindingViolation, S->getLoc(),
           "static version binding violation at site " + Site);
      return false;
    }
    return true;
  }
  case SendBindKind::StaticSelect:
  case SendBindKind::InlinePrim:
    if (Real != S->Binding.Target) {
      fail(C, TrapKind::BindingViolation, S->getLoc(),
           std::string(S->Binding.Kind == SendBindKind::StaticSelect
                           ? "static-select"
                           : "inline-prim") +
               " binding violation at site " + Site);
      return false;
    }
    return true;
  default:
    return true;
  }
}

//===----------------------------------------------------------------------===//
// Allocation and primitives
//===----------------------------------------------------------------------===//

Obj *RuntimeCore::newClosure(const ClosureLitExpr *Lit, Frame &F,
                             SourceLoc Loc, Control &C) {
  if (!allocationFits(membudget::closureBytes(Lit->Captures.size()), Loc, C))
    return nullptr;
  ++Stats.ClosuresCreated;
  Stats.Cycles += Costs.ClosureCreateCost;
  std::vector<CellPtr> Captured;
  Captured.reserve(Lit->Captures.size());
  for (const CaptureSpec &CS : Lit->Captures)
    Captured.push_back(CS.Source == CaptureSpec::From::EnclosingCell
                           ? F.cell(CS.Index)
                           : F.capture(CS.Index));
  return TheHeap.newClosure(Lit, std::move(Captured), CurrentHome);
}

Value RuntimeCore::invokePrim(PrimOp Op, const Value *Args, SourceLoc Loc,
                              Control &C) {
  auto WantInt = [&](const Value &V, int64_t &Out) {
    if (!V.isInt()) {
      failPrimType(C, Op, Loc, "an integer");
      return false;
    }
    Out = V.asInt();
    return true;
  };
  auto WantStr = [&](const Value &V, const std::string *&Out) {
    if (!V.isObject() || V.asObject()->payload() != Obj::Payload::Str) {
      failPrimType(C, Op, Loc, "a string");
      return false;
    }
    Out = &V.asObject()->Str;
    return true;
  };
  auto WantArray = [&](const Value &V, Obj *&Out) {
    if (!V.isObject() || V.asObject()->payload() != Obj::Payload::Array) {
      failPrimType(C, Op, Loc, "an array");
      return false;
    }
    Out = V.asObject();
    return true;
  };

  int64_t A = 0, B = 0;
  const std::string *SA = nullptr, *SB = nullptr;
  Obj *Arr = nullptr;

  switch (Op) {
  case PrimOp::None:
    return fail(C, TrapKind::InternalError, Loc,
                "internal: invoking PrimOp::None");

  case PrimOp::IntAdd:
    if (!WantInt(Args[0], A) || !WantInt(Args[1], B))
      return Value::nil();
    return Value::ofInt(intArith(PrimOp::IntAdd, A, B));
  case PrimOp::IntSub:
    if (!WantInt(Args[0], A) || !WantInt(Args[1], B))
      return Value::nil();
    return Value::ofInt(intArith(PrimOp::IntSub, A, B));
  case PrimOp::IntMul:
    if (!WantInt(Args[0], A) || !WantInt(Args[1], B))
      return Value::nil();
    return Value::ofInt(intArith(PrimOp::IntMul, A, B));
  case PrimOp::IntDiv:
    if (!WantInt(Args[0], A) || !WantInt(Args[1], B))
      return Value::nil();
    if (B == 0)
      return fail(C, TrapKind::DivisionByZero, Loc, "division by zero");
    return Value::ofInt(intArith(PrimOp::IntDiv, A, B));
  case PrimOp::IntMod:
    if (!WantInt(Args[0], A) || !WantInt(Args[1], B))
      return Value::nil();
    if (B == 0)
      return fail(C, TrapKind::DivisionByZero, Loc, "modulo by zero");
    return Value::ofInt(intArith(PrimOp::IntMod, A, B));
  case PrimOp::IntNeg:
    if (!WantInt(Args[0], A))
      return Value::nil();
    return Value::ofInt(intArith(PrimOp::IntNeg, A, 0));
  case PrimOp::IntLess:
    if (!WantInt(Args[0], A) || !WantInt(Args[1], B))
      return Value::nil();
    return Value::ofBool(A < B);
  case PrimOp::IntLessEq:
    if (!WantInt(Args[0], A) || !WantInt(Args[1], B))
      return Value::nil();
    return Value::ofBool(A <= B);
  case PrimOp::IntGreater:
    if (!WantInt(Args[0], A) || !WantInt(Args[1], B))
      return Value::nil();
    return Value::ofBool(A > B);
  case PrimOp::IntGreaterEq:
    if (!WantInt(Args[0], A) || !WantInt(Args[1], B))
      return Value::nil();
    return Value::ofBool(A >= B);
  case PrimOp::IntEq:
    if (!WantInt(Args[0], A) || !WantInt(Args[1], B))
      return Value::nil();
    return Value::ofBool(A == B);
  case PrimOp::IntNe:
    if (!WantInt(Args[0], A) || !WantInt(Args[1], B))
      return Value::nil();
    return Value::ofBool(A != B);

  case PrimOp::BoolNot:
    if (!Args[0].isBool())
      return fail(C, TrapKind::TypeError, Loc, "'not' expects a boolean");
    return Value::ofBool(!Args[0].asBool());
  case PrimOp::BoolEq:
    if (!Args[0].isBool() || !Args[1].isBool())
      return fail(C, TrapKind::TypeError, Loc,
                  "'==' on booleans expects booleans");
    return Value::ofBool(Args[0].asBool() == Args[1].asBool());

  case PrimOp::AnyEq:
    return Value::ofBool(Args[0].identicalTo(Args[1]));
  case PrimOp::AnyNe:
    return Value::ofBool(!Args[0].identicalTo(Args[1]));

  case PrimOp::StrConcat:
    if (!WantStr(Args[0], SA) || !WantStr(Args[1], SB) ||
        !allocationFits(membudget::stringBytes(SA->size() + SB->size()), Loc,
                        C))
      return Value::nil();
    return Value::ofObj(TheHeap.newString(*SA + *SB));
  case PrimOp::StrEq:
    if (!WantStr(Args[0], SA) || !WantStr(Args[1], SB))
      return Value::nil();
    return Value::ofBool(*SA == *SB);
  case PrimOp::StrLess:
    if (!WantStr(Args[0], SA) || !WantStr(Args[1], SB))
      return Value::nil();
    return Value::ofBool(*SA < *SB);
  case PrimOp::StrSize:
    if (!WantStr(Args[0], SA))
      return Value::nil();
    return Value::ofInt(static_cast<int64_t>(SA->size()));

  case PrimOp::ArrayNew:
    if (!WantInt(Args[0], A))
      return Value::nil();
    if (A < 0)
      return fail(C, TrapKind::TypeError, Loc,
                  "array size must be non-negative");
    if (!allocationFits(membudget::arrayBytes(static_cast<uint64_t>(A)), Loc,
                        C))
      return Value::nil();
    ++Stats.Allocations;
    Stats.Cycles += Costs.AllocCost + static_cast<uint64_t>(A);
    return Value::ofObj(TheHeap.newArray(static_cast<size_t>(A)));
  case PrimOp::ArrayAt:
    if (!WantArray(Args[0], Arr) || !WantInt(Args[1], A))
      return Value::nil();
    if (A < 0 || static_cast<size_t>(A) >= Arr->Slots.size())
      return failBounds(C, Loc, A, Arr->Slots.size());
    Stats.Cycles += Costs.SlotCost;
    return Arr->Slots[static_cast<size_t>(A)];
  case PrimOp::ArrayPut:
    if (!WantArray(Args[0], Arr) || !WantInt(Args[1], A))
      return Value::nil();
    if (A < 0 || static_cast<size_t>(A) >= Arr->Slots.size())
      return failBounds(C, Loc, A, Arr->Slots.size());
    Stats.Cycles += Costs.SlotCost;
    Arr->Slots[static_cast<size_t>(A)] = Args[2];
    return Args[2];
  case PrimOp::ArraySize:
    if (!WantArray(Args[0], Arr))
      return Value::nil();
    return Value::ofInt(static_cast<int64_t>(Arr->Slots.size()));

  case PrimOp::Print:
    if (Opts.Output)
      *Opts.Output << valueToString(Args[0]) << '\n';
    return Value::nil();
  case PrimOp::ClassName: {
    const std::string &Name =
        P.Syms.name(P.Classes.info(Args[0].classOf()).Name);
    if (!allocationFits(membudget::stringBytes(Name.size()), Loc, C))
      return Value::nil();
    return Value::ofObj(TheHeap.newString(Name));
  }
  case PrimOp::Abort:
    return fail(C, TrapKind::UserAbort, Loc,
                "abort: " + valueToString(Args[0]));
  }
  return fail(C, TrapKind::InternalError, Loc,
              "internal: unknown primitive");
}

//===----------------------------------------------------------------------===//
// Entry
//===----------------------------------------------------------------------===//

Value RuntimeCore::callGeneric(const std::string &Name,
                               std::vector<Value> Args, bool &Ok) {
  Ok = false;
  Error.clear();
  Trap.reset();
  // Anchor the native-stack backstop at the point the embedder entered;
  // see nativeStackLow().
  char StackProbe;
  StackBase = reinterpret_cast<uintptr_t>(&StackProbe);
  // A deadline that expired before entry fails immediately rather than
  // waiting for the first sampled node-charge poll.
  if (Opts.Cancel && Opts.Cancel->stopRequested()) {
    CtrDeadlineExpired.add();
    failTop(TrapKind::DeadlineExceeded, Opts.Cancel->reason());
    return Value::nil();
  }
  Symbol S = P.Syms.find(Name);
  GenericId G = S.isValid()
                    ? P.lookupGeneric(S, static_cast<unsigned>(Args.size()))
                    : GenericId();
  if (!G.isValid()) {
    failTop(TrapKind::NoApplicableMethod,
            "no generic function '" + Name + "/" +
                std::to_string(Args.size()) + "'");
    return Value::nil();
  }
  std::vector<ClassId> Classes;
  for (const Value &V : Args)
    Classes.push_back(V.classOf());
  bool Ambiguous = false;
  MethodId Target = P.dispatch(G, Classes, &Ambiguous);
  if (!Target.isValid()) {
    failTop(Ambiguous ? TrapKind::AmbiguousDispatch
                      : TrapKind::NoApplicableMethod,
            Ambiguous ? "message '" + Name + "' is ambiguous"
                      : "message '" + Name + "' not understood");
    return Value::nil();
  }

  Control C;
  Value Result = enter(Target, CP.selectVersion(Target, Classes), Args, C);
  if (Opts.Profile)
    foldArcs();
  if (C.K == Control::Kind::Error)
    return Value::nil();
  if (C.K == Control::Kind::Return) {
    failTop(TrapKind::InternalError,
            "non-local return escaped its home activation");
    return Value::nil();
  }
  Ok = true;
  return Result;
}

void RuntimeCore::countArc(CallSiteId Site, MethodId Callee) {
  if (SiteCallees.empty())
    SiteCallees.resize(P.numCallSites());
  auto &Row = SiteCallees[Site.value()];
  for (auto &[M, N] : Row)
    if (M == Callee) {
      ++N;
      return;
    }
  Row.push_back({Callee, 1});
}

void RuntimeCore::foldArcs() {
  // Keys come out in (site, callee) order with one caller per site, so
  // every addHits appends.
  CallGraph Run;
  for (uint32_t S = 0; S != SiteCallees.size(); ++S) {
    auto &Row = SiteCallees[S];
    std::sort(Row.begin(), Row.end());
    const CallSiteId Site(S);
    for (const auto &[Callee, N] : Row)
      Run.addHits(Site, P.callSite(Site).Owner, Callee, N);
    Row.clear();
  }
  if (Opts.Profile->empty())
    *Opts.Profile = std::move(Run);
  else
    Opts.Profile->merge(Run);
}

bool RuntimeCore::callMain(int64_t Arg) {
  bool Ok = false;
  callGeneric("main", {Value::ofInt(Arg)}, Ok);
  return Ok;
}
