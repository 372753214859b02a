//===- tests/BytecodeTests.cpp - Bytecode tier equivalence ------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
//
// The tier-equivalence invariant: the bytecode interpreter must produce
// RunStats bit-identical to the AST walker — every counter, Cycles, and the
// full NodeMix histogram — plus identical output and identical traps, on the
// same CompiledProgram.  Exercised over the four paper benchmarks under all
// five configurations, and over targeted edge cases the bytecode compiler
// must get right: deep closure nesting, wide-arity calls past the IC limit,
// traps unwinding out of inlined callees, non-local returns (caught and
// escaped), and operands read in place from frame slots.  Region charging
// gets trap-position sweeps: node budgets landing on every charge point of
// a small program and of richards, a deadline poll triggered from inside
// the program, and traps raised in the middle of a charged region.  Also
// covers the dispatched-instruction counter, the disassembler and the tier
// plumbing in the driver pipeline.
//
//===----------------------------------------------------------------------===//

#include "bytecode/BytecodeCompiler.h"
#include "bytecode/BytecodeInterpreter.h"
#include "bytecode/Disassembler.h"

#include "TestUtil.h"
#include "support/Deadline.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <sstream>

using namespace selspec;
using namespace selspec::test;

namespace {

/// Everything one tier's run produced, for field-by-field comparison.
struct TierRun {
  bool Ok = false;
  RunStats Stats;
  std::string Output;
  TrapKind Trap = TrapKind::None;
  std::string Error;
};

TierRun finish(RuntimeCore &I, bool Ok, const std::ostringstream &Out) {
  TierRun R;
  R.Ok = Ok;
  R.Stats = I.stats();
  R.Output = Out.str();
  R.Trap = I.trap().Kind;
  R.Error = I.errorMessage();
  return R;
}

TierRun runAstTier(CompiledProgram &CP, int64_t Input,
                   const ResourceLimits &Limits = {}) {
  std::ostringstream Out;
  RunOptions Opts;
  Opts.Output = &Out;
  Opts.Limits = Limits;
  Interpreter I(CP, Opts);
  return finish(I, I.callMain(Input), Out);
}

TierRun runBytecodeTier(CompiledProgram &CP, BcModule &Mod, int64_t Input,
                        const ResourceLimits &Limits = {}) {
  std::ostringstream Out;
  RunOptions Opts;
  Opts.Output = &Out;
  Opts.Limits = Limits;
  BytecodeInterpreter I(CP, Mod, Opts);
  return finish(I, I.callMain(Input), Out);
}

/// A string stream whose every write asks \p Token to stop, so a program
/// that prints traps DeadlineExceeded at the next sampled deadline poll.
class CancellingBuf : public std::stringbuf {
public:
  explicit CancellingBuf(CancelToken &Token) : Token(Token) {}

protected:
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    Token.requestCancel();
    return std::stringbuf::xsputn(S, N);
  }
  int_type overflow(int_type C) override {
    Token.requestCancel();
    return std::stringbuf::overflow(C);
  }

private:
  CancelToken &Token;
};

/// Runs main(Input) on one tier with output to a CancellingBuf.
template <class InterpT, class... ExtraT>
TierRun runCancelledOnPrint(CompiledProgram &CP, int64_t Input,
                            ExtraT &...Extra) {
  CancelToken Token;
  CancellingBuf Buf(Token);
  std::ostream Out(&Buf);
  RunOptions Opts;
  Opts.Output = &Out;
  Opts.Cancel = &Token;
  InterpT I(CP, Extra..., Opts);
  TierRun R;
  R.Ok = I.callMain(Input);
  R.Stats = I.stats();
  R.Output = Buf.str();
  R.Trap = I.trap().Kind;
  R.Error = I.errorMessage();
  return R;
}

/// Asserts every RunStats field matches, NodeMix bucket by bucket.
void expectSameStats(const RunStats &Ast, const RunStats &Bc,
                     const std::string &Label) {
  EXPECT_EQ(Ast.DynamicDispatches, Bc.DynamicDispatches) << Label;
  EXPECT_EQ(Ast.VersionSelects, Bc.VersionSelects) << Label;
  EXPECT_EQ(Ast.StaticCalls, Bc.StaticCalls) << Label;
  EXPECT_EQ(Ast.InlinePrims, Bc.InlinePrims) << Label;
  EXPECT_EQ(Ast.PredictedHits, Bc.PredictedHits) << Label;
  EXPECT_EQ(Ast.PredictedMisses, Bc.PredictedMisses) << Label;
  EXPECT_EQ(Ast.FeedbackHits, Bc.FeedbackHits) << Label;
  EXPECT_EQ(Ast.FeedbackMisses, Bc.FeedbackMisses) << Label;
  EXPECT_EQ(Ast.ClosuresCreated, Bc.ClosuresCreated) << Label;
  EXPECT_EQ(Ast.ClosureCalls, Bc.ClosureCalls) << Label;
  EXPECT_EQ(Ast.Allocations, Bc.Allocations) << Label;
  EXPECT_EQ(Ast.MethodInvocations, Bc.MethodInvocations) << Label;
  EXPECT_EQ(Ast.NodesEvaluated, Bc.NodesEvaluated) << Label;
  EXPECT_EQ(Ast.PeakDepth, Bc.PeakDepth) << Label;
  EXPECT_EQ(Ast.Cycles, Bc.Cycles) << Label;
  for (size_t K = 0; K != Expr::NumKinds; ++K)
    EXPECT_EQ(Ast.NodeMix[K], Bc.NodeMix[K])
        << Label << " NodeMix["
        << exprKindName(static_cast<Expr::Kind>(K)) << ']';
}

void expectSameRun(const TierRun &Ast, const TierRun &Bc,
                   const std::string &Label) {
  EXPECT_EQ(Ast.Ok, Bc.Ok) << Label << "\n  ast: " << Ast.Error
                           << "\n  bc:  " << Bc.Error;
  EXPECT_EQ(Ast.Trap, Bc.Trap) << Label;
  EXPECT_EQ(Ast.Error, Bc.Error) << Label;
  EXPECT_EQ(Ast.Output, Bc.Output) << Label;
  expectSameStats(Ast.Stats, Bc.Stats, Label);
}

constexpr Config AllConfigs[] = {Config::Base, Config::Cust, Config::CustMM,
                                 Config::CHA, Config::Selective};

/// Builds \p Sources, then for every configuration compiles once and runs
/// the same CompiledProgram on both tiers, asserting identical results.
/// Selective gets a profile gathered from a Base run at \p Input.  The AST
/// tier's runs, one per AllConfigs entry, are appended to \p Runs.
void expectTiersAgree(const std::vector<std::string> &Sources, int64_t Input,
                      const ResourceLimits &Limits = {},
                      std::vector<TierRun> *Runs = nullptr) {
  std::unique_ptr<Program> P = buildProgram(Sources);
  ASSERT_TRUE(P);

  CallGraph CG;
  {
    std::unique_ptr<CompiledProgram> BaseCP = compileProgram(*P, Config::Base);
    RunOptions Opts;
    Opts.Profile = &CG;
    Opts.Limits = Limits;
    Interpreter I(*BaseCP, Opts);
    I.callMain(Input); // A trapping profile run still yields partial arcs.
  }

  for (Config C : AllConfigs) {
    std::unique_ptr<CompiledProgram> CP =
        compileProgram(*P, C, CG.empty() ? nullptr : &CG);
    ASSERT_TRUE(CP);
    BcModule Mod = compileToBytecode(*CP);
    ASSERT_TRUE(Mod.Ok) << configName(C)
                        << ": bytecode compilation failed: " << Mod.Error;
    TierRun Ast = runAstTier(*CP, Input, Limits);
    TierRun Bc = runBytecodeTier(*CP, Mod, Input, Limits);
    expectSameRun(Ast, Bc, std::string("config ") + configName(C));
    if (Runs)
      Runs->push_back(std::move(Ast));
  }
}

/// Runs \p CP on both tiers once per node budget in [First, First + Count),
/// asserting identical results; stops at the first divergence.
void sweepBudgets(CompiledProgram &CP, BcModule &Mod, int64_t Input,
                  uint64_t First, uint64_t Count, const std::string &Label) {
  for (uint64_t Budget = First; Budget != First + Count; ++Budget) {
    ResourceLimits Limits;
    Limits.MaxNodes = Budget;
    TierRun Ast = runAstTier(CP, Input, Limits);
    TierRun Bc = runBytecodeTier(CP, Mod, Input, Limits);
    expectSameRun(Ast, Bc, Label + " max-nodes=" + std::to_string(Budget));
    if (::testing::Test::HasFailure())
      return;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Paper benchmarks: full differential sweep (the acceptance gate).
//===----------------------------------------------------------------------===//

namespace {

struct BenchCase {
  const char *Name;
  std::vector<std::string> Files;
  int64_t SmallInput;
};

const BenchCase BenchCases[] = {
    {"richards", {"richards.mica"}, 30},
    {"instsched", {"instsched.mica"}, 6},
    {"typechecker", {"minilang.mica", "typechecker.mica"}, 8},
    {"compiler", {"minilang.mica", "compiler.mica"}, 8},
};

} // namespace

TEST(BytecodeDifferential, PaperBenchmarksAllConfigs) {
  for (const BenchCase &Case : BenchCases) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromFiles(Case.Files, Err);
    ASSERT_TRUE(W) << Case.Name << ": " << Err;
    ASSERT_TRUE(W->collectProfile(Case.SmallInput, Err))
        << Case.Name << ": " << Err;

    SelectiveOptions Sel;
    Sel.SpecializationThreshold = 50;
    for (Config C : AllConfigs) {
      std::unique_ptr<CompiledProgram> CP = W->compileOnly(C, Sel);
      ASSERT_TRUE(CP) << Case.Name << '/' << configName(C);
      BcModule Mod = compileToBytecode(*CP);
      ASSERT_TRUE(Mod.Ok) << Case.Name << '/' << configName(C) << ": "
                          << Mod.Error;
      TierRun Ast = runAstTier(*CP, Case.SmallInput);
      TierRun Bc = runBytecodeTier(*CP, Mod, Case.SmallInput);
      ASSERT_TRUE(Ast.Ok) << Case.Name << '/' << configName(C) << ": "
                          << Ast.Error;
      expectSameRun(Ast, Bc,
                    std::string(Case.Name) + "/" + configName(C));
    }
  }
}

//===----------------------------------------------------------------------===//
// Compiler edge cases, run differentially under every configuration.
//===----------------------------------------------------------------------===//

TEST(BytecodeDifferential, DeepClosureNesting) {
  expectTiersAgree({R"(
    method main(n@Int) {
      let f1 := fn(a) { fn(b) { fn(c) { fn(d) { a + b + c + d + n; }; }; }; };
      let f2 := f1(1);
      let f3 := f2(2);
      let f4 := f3(3);
      print(f4(4));
    })"},
                   10);
}

TEST(BytecodeDifferential, ClosureMutatesCapturesAcrossLevels) {
  expectTiersAgree({R"(
    method apply(f) { f(); }
    method main(n@Int) {
      let count := 0;
      let bump := fn() { count := count + 1; fn() { count := count + 10; }; };
      let inner := bump();
      apply(inner);
      apply(bump());
      print(count);
    })"},
                   0);
}

TEST(BytecodeDifferential, WideArityCallsPastIcLimit) {
  // Arity 9 exceeds BcIcMaxArity (6): every send at this site must take the
  // inline cache's miss path yet still reproduce AST accounting exactly.
  expectTiersAgree({R"(
    method wide(a@Int, b@Int, c@Int, d@Int, e@Int, f@Int, g@Int, h@Int, i@Int) {
      a + b + c + d + e + f + g + h + i;
    }
    method main(n@Int) {
      let k := 0; let total := 0;
      while (k < 5) {
        total := total + wide(1, 2, 3, 4, 5, 6, 7, 8, k);
        k := k + 1;
      }
      print(total);
    })"},
                   0);
}

TEST(BytecodeDifferential, TrapInCalleeUnwindsInlinedRegions) {
  // The out-of-bounds trap fires inside a callee that inlining configs fold
  // into the caller; Error control must unwind through inlined regions
  // without being caught as a non-local return.
  expectTiersAgree({R"(
    method helper(x@Int) { at(array(1), x); }
    method main(n@Int) {
      let i := 0;
      while (i < 3) { helper(5); i := i + 1; }
      print("unreached");
    })"},
                   0);
}

TEST(BytecodeDifferential, NonLocalReturnThroughClosure) {
  expectTiersAgree({R"(
    method each(n@Int, body) {
      let i := 0;
      while (i < n) { body(i); i := i + 1; }
    }
    method find(n@Int, target@Int) {
      each(n, fn(i) { if (i == target) { return "found"; } });
      "missing";
    }
    method main(n@Int) {
      print(find(10, 4));
      print(find(10, 12));
    })"},
                   0);
}

TEST(BytecodeDifferential, EscapedNonLocalReturnTraps) {
  // Calling the closure after its home activation died must trap
  // identically on both tiers.
  expectTiersAgree({R"(
    method makeEsc(n@Int) { fn() { return n; }; }
    method main(n@Int) {
      let f := makeEsc(7);
      f();
      print("unreached");
    })"},
                   0);
}

TEST(BytecodeDifferential, PolymorphicDispatchAndSlots) {
  expectTiersAgree({R"(
    class Shape { slot tag; }
    class Circle isa Shape { slot r; }
    class Square isa Shape { slot s; }
    method area(x@Circle) { x.r * x.r * 3; }
    method area(x@Square) { x.s * x.s; }
    method main(n@Int) {
      let a := array(2);
      atPut(a, 0, new Circle { tag := 1, r := 2 });
      atPut(a, 1, new Square { tag := 2, s := 3 });
      let i := 0; let total := 0;
      while (i < n) {
        total := total + area(at(a, i - (i / 2) * 2));
        i := i + 1;
      }
      print(total);
    })"},
                   20);
}

TEST(BytecodeDifferential, RecursionAndArithmetic) {
  expectTiersAgree({R"(
    method fib(n@Int) { if (n < 2) { n; } else { fib(n - 1) + fib(n - 2); } }
    method main(n@Int) { print(fib(n)); })"},
                   15);
}

TEST(BytecodeDifferential, NotUnderstoodTrap) {
  expectTiersAgree({R"(
    class A { slot x; }
    method foo(a@A) { a.x; }
    method main(n@Int) { foo(3); })"},
                   0);
}

TEST(BytecodeDifferential, OperandAliasing) {
  // Operands read in place from frame slots must still see the value the
  // AST walker read, before a later sibling reassigns the slot.
  expectTiersAgree({R"(
    class Box { slot v; }
    method f(a@Int, b@Int) { a * 10 + b; }
    method main(n@Int) {
      let x := n;
      print(f(x, x := 5));
      print(x + (x := x + 1));
      let p := new Box { v := 1 };
      let q := new Box { v := 2 };
      let first := p;
      p.v := (p := q);
      print(first.v.v);
      print(p.v);
      print(f(x, x));
    })"},
                   3);
}

//===----------------------------------------------------------------------===//
// Resource guards: every limit must trap at the identical charged node.
//===----------------------------------------------------------------------===//

TEST(BytecodeDifferential, NodeBudgetTrap) {
  ResourceLimits Limits;
  Limits.MaxNodes = 5000;
  expectTiersAgree({R"(
    method main(n@Int) {
      let i := 0;
      while (true) { i := i + 1; }
    })"},
                   0, Limits);
}

TEST(BytecodeDifferential, DepthLimitTrap) {
  ResourceLimits Limits;
  Limits.MaxDepth = 64; // Fires long before the native-stack backstop.
  expectTiersAgree({R"(
    method down(n@Int) { down(n + 1); }
    method main(n@Int) { down(0); })"},
                   0, Limits);
}

TEST(BytecodeDifferential, HeapLimitTrap) {
  ResourceLimits Limits;
  Limits.MaxObjects = 16;
  expectTiersAgree({R"(
    class Node { slot next; }
    method main(n@Int) {
      let i := 0;
      while (i < 1000) { new Node { next := nil }; i := i + 1; }
    })"},
                   0, Limits);
}

//===----------------------------------------------------------------------===//
// Trap positions under region charging: budgets, deadline polls and traps
// in the middle of a region.
//===----------------------------------------------------------------------===//

namespace {

/// A small program with loops, calls, an inlinable callee, slot traffic,
/// a closure and both arms of an if.
const char *const SweepSource = R"(
  class P { slot x; slot y; }
  method step(p@P, k@Int) { p.x := p.x + k; p.y := p.y * 2 - k; p.x + p.y; }
  method main(n@Int) {
    let p := new P { x := 1, y := 2 };
    let i := 0; let acc := 0;
    let f := fn(v) { v + i; };
    while (i < n) {
      acc := acc + step(p, i) + f(i);
      if (acc > 1000) { acc := acc - 1000; } else { acc := acc + 1; }
      i := i + 1;
    }
    print(acc);
  })";

} // namespace

TEST(BytecodeTrapPosition, EveryBudgetOnASmallLoop) {
  // Budgets 1..400 land the budget trap on the first, middle and last
  // charge point of every region the run passes through.
  std::unique_ptr<Program> P = buildProgram({SweepSource});
  ASSERT_TRUE(P);
  CallGraph CG;
  {
    std::unique_ptr<CompiledProgram> BaseCP = compileProgram(*P, Config::Base);
    RunOptions Opts;
    Opts.Profile = &CG;
    Interpreter I(*BaseCP, Opts);
    ASSERT_TRUE(I.callMain(10));
  }
  for (Config C : AllConfigs) {
    std::unique_ptr<CompiledProgram> CP = compileProgram(*P, C, &CG);
    ASSERT_TRUE(CP);
    BcModule Mod = compileToBytecode(*CP);
    ASSERT_TRUE(Mod.Ok) << Mod.Error;
    TierRun Full = runAstTier(*CP, 10);
    ASSERT_TRUE(Full.Ok) << Full.Error;
    ASSERT_GT(Full.Stats.NodesEvaluated, 400u) << configName(C);
    sweepBudgets(*CP, Mod, 10, 1, 400, configName(C));
  }
}

TEST(BytecodeTrapPosition, ConsecutiveBudgetsInRichards) {
  // 64 consecutive budgets at an eighth, a quarter and half of the full
  // run, under every configuration.
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromFiles(BenchCases[0].Files, Err);
  ASSERT_TRUE(W) << Err;
  const int64_t Input = 3;
  ASSERT_TRUE(W->collectProfile(Input, Err)) << Err;
  for (Config C : AllConfigs) {
    std::unique_ptr<CompiledProgram> CP = W->compileOnly(C);
    ASSERT_TRUE(CP) << configName(C);
    BcModule Mod = compileToBytecode(*CP);
    ASSERT_TRUE(Mod.Ok) << Mod.Error;
    TierRun Full = runAstTier(*CP, Input);
    ASSERT_TRUE(Full.Ok) << Full.Error;
    for (uint64_t Eighths : {1, 2, 4})
      sweepBudgets(*CP, Mod, Input, Full.Stats.NodesEvaluated * Eighths / 8,
                   64, std::string("richards/") + configName(C));
  }
}

TEST(BytecodeTrapPosition, DeadlinePollTriggeredByTheProgram) {
  // The print at i == 700 requests cancellation; both tiers must run on
  // to the same sampled poll and trap there with identical stats.
  std::unique_ptr<Program> P = buildProgram({R"(
    method main(n@Int) {
      let i := 0; let acc := 0;
      while (i < n) {
        if (i == 700) { print(i); }
        acc := acc + i;
        i := i + 1;
      }
      print(acc);
    })"});
  ASSERT_TRUE(P);
  for (Config C : AllConfigs) {
    std::unique_ptr<CompiledProgram> CP = compileProgram(*P, C);
    ASSERT_TRUE(CP);
    BcModule Mod = compileToBytecode(*CP);
    ASSERT_TRUE(Mod.Ok) << Mod.Error;
    TierRun Ast = runCancelledOnPrint<Interpreter>(*CP, 100000);
    TierRun Bc = runCancelledOnPrint<BytecodeInterpreter>(*CP, 100000, Mod);
    EXPECT_EQ(Ast.Trap, TrapKind::DeadlineExceeded) << configName(C);
    EXPECT_EQ(Ast.Output, "700\n") << configName(C);
    EXPECT_EQ(Ast.Stats.NodesEvaluated % 8192, 0u) << configName(C);
    expectSameRun(Ast, Bc, configName(C));
  }
}

TEST(BytecodeTrapPosition, TrapsInTheMiddleOfARegion) {
  // Each trap fires with charge points of its region still ahead of it
  // (and, under the inlining configs, inside an inlined callee).
  expectTiersAgree({R"(
    class A { slot v; }
    method get(o) { o.v; }
    method main(n@Int) { print(get(n) + 1); print(2); })"},
                   3);
  expectTiersAgree({R"(
    method main(n@Int) {
      let z := n - n;
      let q := 10 / z;
      print(q + 1);
    })"},
                   3);
  ResourceLimits Limits;
  Limits.MaxObjects = 3;
  expectTiersAgree({R"(
    class Node { slot next; slot tag; }
    method main(n@Int) {
      let i := 0; let last := nil;
      while (i < n) {
        last := new Node { next := last, tag := i + 1 };
        i := i + 1;
      }
      print(i);
    })"},
                   10, Limits);
}

//===----------------------------------------------------------------------===//
// Dispatched-instruction counter.
//===----------------------------------------------------------------------===//

namespace {

/// main's lowering under CHA (every send an inline primitive):
///   0 LoadInt  1 StoreSlot  2 LoadNilRaw            let i := 0
///   3 LoadVarSlot  4 LoadVarSlot  5 CallPrim  6 CondBranch   i < n
///   7 LoadVarSlot  8 LoadInt  9 CallPrim  10 StoreSlot  11 Jump   body
///   12 LoadNilRaw  13 CallPrim  14 RetLocal                print(i)
const char *const CountedSource = R"(
  method main(n@Int) {
    let i := 0;
    while (i < n) { i := i + 1; }
    print(i);
  })";

uint64_t countedRun(CompiledProgram &CP, BcModule &Mod, int64_t Input,
                    const ResourceLimits &Limits = {}) {
  RunOptions Opts;
  Opts.Limits = Limits;
  BytecodeInterpreter I(CP, Mod, Opts);
  I.callMain(Input);
  return I.insnsDispatched();
}

} // namespace

TEST(BytecodeInsnCount, MatchesAHandCountedTrace) {
  std::unique_ptr<Program> P = buildProgram({CountedSource});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::CHA);
  BcModule Mod = compileToBytecode(*CP);
  ASSERT_TRUE(Mod.Ok) << Mod.Error;
  // n = 0: pcs 0-6, then 12-14.
  EXPECT_EQ(countedRun(*CP, Mod, 0), 7u + 3u);
  // n = 3: pcs 0-6, three times 7-11 and 3-6, then 12-14.
  EXPECT_EQ(countedRun(*CP, Mod, 3), 7u + 3u * (5u + 4u) + 3u);
  EXPECT_EQ(countedRun(*CP, Mod, 3), countedRun(*CP, Mod, 3));
  // n = 5000 runs past four deadline-poll thresholds, so some loop passes
  // are stepped rather than charged whole: the count must not notice.
  EXPECT_EQ(countedRun(*CP, Mod, 5000), 7u + 5000u * (5u + 4u) + 3u);
  // A budget of 20 nodes: the entry region charges 7, the body 5, the loop
  // head 3, so the second pass through the loop head is stepped and traps
  // at its first charge point; its first instruction was dispatched.
  ResourceLimits Limits;
  Limits.MaxNodes = 20;
  EXPECT_EQ(countedRun(*CP, Mod, 100, Limits), 7u + 5u + 4u + 5u + 1u);
}

TEST(BytecodeInsnCount, GivesBackTheRestOfATrappingRegion) {
  // The GetSlot traps with the LoadInt, CallPrim and the rest of main's
  // first region still ahead: only instructions up to the trap count.
  std::unique_ptr<Program> P = buildProgram({R"(
    class A { slot v; }
    method main(n@Int) { let o := n; print(o.v + 1); })"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::CHA);
  BcModule Mod = compileToBytecode(*CP);
  ASSERT_TRUE(Mod.Ok) << Mod.Error;
  // 0 StoreSlot (let o := n reads n in place)  1 LoadNilRaw  2 GetSlot.
  RunOptions Opts;
  BytecodeInterpreter I(*CP, Mod, Opts);
  EXPECT_FALSE(I.callMain(3));
  EXPECT_EQ(I.trap().Kind, TrapKind::TypeError);
  EXPECT_EQ(I.insnsDispatched(), 3u);
}

//===----------------------------------------------------------------------===//
// Inline caches: behavior observability.
//===----------------------------------------------------------------------===//

TEST(BytecodeIc, MonomorphicSiteHitsAfterFirstSend) {
  // The receiver flows through an array load so its class is opaque to the
  // intraprocedural analysis and the send stays a dynamic-dispatch site.
  std::unique_ptr<Program> P = buildProgram({R"(
    class A { slot v; }
    class B isa A { slot w; }
    method get(a@A) { a.v; }
    method main(n@Int) {
      let arr := array(1);
      atPut(arr, 0, new A { v := 41 });
      let i := 0; let total := 0;
      while (i < n) { total := total + get(at(arr, 0)); i := i + 1; }
      print(total);
    })"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  BcModule Mod = compileToBytecode(*CP);
  ASSERT_TRUE(Mod.Ok) << Mod.Error;

  RunOptions Opts;
  BytecodeInterpreter I(*CP, Mod, Opts);
  ASSERT_TRUE(I.callMain(100)) << I.errorMessage();
  // Under Base every send is a dynamic dispatch; after the first miss the
  // monomorphic site must hit its inline cache.
  EXPECT_GT(I.icHits(), 90u);
  EXPECT_GT(I.icMisses(), 0u);
  EXPECT_LT(I.icMisses(), 20u);
}

TEST(BytecodeIc, IcStateIsPerInterpreterNotBakedIntoModule) {
  // The snapshot-immutability contract: a BcModule carries no run-time IC
  // state, so a fresh interpreter over the same module starts cold — its
  // miss profile is identical to the first interpreter's, not warmed by
  // it.  (Within one interpreter, warming still works: see
  // MonomorphicSiteHitsAfterFirstSend.)
  std::unique_ptr<Program> P = buildProgram({R"(
    class A { slot v; }
    class B isa A { slot w; }
    method get(a@A) { a.v; }
    method main(n@Int) {
      let arr := array(1);
      atPut(arr, 0, new A { v := n });
      print(get(at(arr, 0)));
    })"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  BcModule Mod = compileToBytecode(*CP);
  ASSERT_TRUE(Mod.Ok) << Mod.Error;
  EXPECT_GT(Mod.NumIcSlots, 0u);

  uint64_t FirstMisses;
  {
    BytecodeInterpreter I(*CP, Mod, {});
    ASSERT_TRUE(I.callMain(1));
    FirstMisses = I.icMisses();
    EXPECT_GT(FirstMisses, 0u);
  }
  {
    BytecodeInterpreter I(*CP, Mod, {});
    ASSERT_TRUE(I.callMain(2));
    EXPECT_EQ(I.icMisses(), FirstMisses);
  }
}

//===----------------------------------------------------------------------===//
// Compiler module structure and the disassembler.
//===----------------------------------------------------------------------===//

TEST(BytecodeModule, CompilesEveryVersionAndClosure) {
  std::unique_ptr<Program> P = buildProgram({R"(
    method twice(f) { f(); f(); }
    method main(n@Int) {
      let x := 0;
      twice(fn() { x := x + 1; });
      print(x);
    })"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  BcModule Mod = compileToBytecode(*CP);
  ASSERT_TRUE(Mod.Ok) << Mod.Error;
  EXPECT_GT(Mod.NumFunctions, 0u);
  EXPECT_GT(Mod.CodeBytes, 0u);
  // Every compiled function carries charged instructions.
  for (const auto &Fn : Mod.Functions) {
    EXPECT_FALSE(Fn->Code.empty());
    EXPECT_EQ(Fn->Code.size(), Fn->Locs.size());
  }
}

TEST(BytecodeModule, DisassemblerListsFunctionsAndSites) {
  std::unique_ptr<Program> P = buildProgram({R"(
    class A { slot v; }
    class B isa A { slot w; }
    method get(a@A) { a.v; }
    method main(n@Int) {
      let arr := array(1);
      atPut(arr, 0, new A { v := n });
      print(get(at(arr, 0)));
    })"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  BcModule Mod = compileToBytecode(*CP);
  ASSERT_TRUE(Mod.Ok) << Mod.Error;

  std::ostringstream OS;
  disassemble(Mod, *P, OS);
  std::string Listing = OS.str();
  EXPECT_NE(Listing.find("main"), std::string::npos);
  EXPECT_NE(Listing.find("get"), std::string::npos);
  EXPECT_NE(Listing.find("CallDyn"), std::string::npos);
  EXPECT_NE(Listing.find("RetLocal"), std::string::npos) << Listing;
  // Charges appear only as region summaries, never as instructions.
  EXPECT_EQ(Listing.find("Charge"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("region 0: "), std::string::npos) << Listing;
  EXPECT_NE(Listing.find(" nodes [Seq "), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("VarRef\u00d7"), std::string::npos) << Listing;
}

//===----------------------------------------------------------------------===//
// Int arithmetic edges and value rendering: semantics the runtime core
// defines once for both tiers (and, for Int, for the constant folder).
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Source on both tiers in every configuration and requires each
/// configuration to print \p Expected.
void expectOutputEverywhere(const std::string &Source, int64_t Input,
                            const std::string &Expected) {
  std::vector<TierRun> Runs;
  expectTiersAgree({Source}, Input, {}, &Runs);
  ASSERT_EQ(Runs.size(), std::size(AllConfigs));
  for (size_t I = 0; I != Runs.size(); ++I) {
    EXPECT_TRUE(Runs[I].Ok) << Runs[I].Error;
    EXPECT_EQ(Runs[I].Output, Expected) << configName(AllConfigs[I]);
  }
}

/// \p Build is the start of main, leaving an array in `v`.  Runs it once
/// ending in print(v) and once ending in abort(v), on both tiers in every
/// configuration, and \p Check vets what print printed.  abort is
/// declared on Str only: Base traps the send as not understood, while
/// configurations that bind the lone abort method statically (the value
/// reaches it through a loop-assigned variable, whose class is unknown)
/// run the primitive, which must render exactly what print printed.
void expectRenderedEverywhere(
    const std::string &Build, int64_t Input,
    const std::function<void(const std::string &)> &Check) {
  std::vector<TierRun> Printed, Aborted;
  expectTiersAgree({"method main(n@Int) {" + Build + " print(v); 0; }"},
                   Input, {}, &Printed);
  expectTiersAgree({"method main(n@Int) {" + Build +
                    " let u := 0; let k := 0;"
                    " while (k < 1) { u := v; k := k + 1; } abort(u); 0; }"},
                   Input, {}, &Aborted);
  ASSERT_EQ(Printed.size(), std::size(AllConfigs));
  ASSERT_EQ(Aborted.size(), std::size(AllConfigs));
  size_t Rendered = 0;
  for (size_t I = 0; I != Printed.size(); ++I) {
    SCOPED_TRACE(configName(AllConfigs[I]));
    ASSERT_TRUE(Printed[I].Ok) << Printed[I].Error;
    ASSERT_FALSE(Printed[I].Output.empty());
    EXPECT_EQ(Printed[I].Output.back(), '\n');
    const std::string Text =
        Printed[I].Output.substr(0, Printed[I].Output.size() - 1);
    Check(Text);
    if (Aborted[I].Trap == TrapKind::UserAbort) {
      ++Rendered;
      EXPECT_NE(Aborted[I].Error.find("abort: " + Text + " (at line"),
                std::string::npos);
    } else {
      EXPECT_EQ(Aborted[I].Trap, TrapKind::NoApplicableMethod)
          << Aborted[I].Error;
    }
  }
  EXPECT_GT(Rendered, 0u) << "no configuration reached the abort primitive";
}

} // namespace

TEST(RuntimeCoreSemantics, IntArithmeticWraps) {
  // Operands depend on n, so none of this is constant-folded.
  expectOutputEverywhere(R"(
    method main(n@Int) {
      let max := 9223372036854775807 * n;
      let min := 0 - max - n;
      print(max + n);
      print(min - n);
      print(max * 2);
      print(neg(min));
      print(min * (0 - n));
      0;
    })",
                         1,
                         "-9223372036854775808\n9223372036854775807\n-2\n"
                         "-9223372036854775808\n-9223372036854775808\n");
}

TEST(RuntimeCoreSemantics, DivisionAndModuloEdges) {
  // INT64_MIN / -1 wraps instead of raising SIGFPE; % by -1 is 0; both
  // truncate toward zero elsewhere.
  expectOutputEverywhere(R"(
    method main(n@Int) {
      let min := 0 - 9223372036854775807 - n;
      print(min / (0 - n));
      print(min % (0 - n));
      print((0 - 7) / (n + 1));
      print((0 - 7) % (n + 1));
      print(7 / (0 - 2 * n));
      0;
    })",
                         1, "-9223372036854775808\n0\n-3\n-1\n-3\n");
}

TEST(RuntimeCoreSemantics, FoldedAndUnfoldedArithmeticAgree) {
  // The same expressions over literals (folded at compile time) and over
  // values derived from n (computed at run time) print the same.
  const std::string Expected = "-9223372036854775808\n0\n"
                               "-9223372036854775808\n9223372036854775807\n"
                               "-9223372036854775808\n-2\n";
  const std::string Folded = R"(
    method main(n@Int) {
      print((0 - 9223372036854775807 - 1) / (0 - 1));
      print((0 - 9223372036854775807 - 1) % (0 - 1));
      print(neg(0 - 9223372036854775807 - 1));
      print(0 - 9223372036854775807 - 1 - 1);
      print(9223372036854775807 + 1);
      print(9223372036854775807 * 2);
      0;
    })";
  const std::string Unfolded = R"(
    method main(n@Int) {
      print((0 - 9223372036854775807 - n) / (0 - n));
      print((0 - 9223372036854775807 - n) % (0 - n));
      print(neg(0 - 9223372036854775807 - n));
      print(0 - 9223372036854775807 - n - n);
      print(9223372036854775807 + n);
      print(9223372036854775807 * (n + 1));
      0;
    })";
  expectOutputEverywhere(Folded, 1, Expected);
  expectOutputEverywhere(Unfolded, 1, Expected);

  // The literal program really is folded: every print argument becomes a
  // literal, and turning folding off computes the same output at run time.
  std::unique_ptr<Program> P = buildProgram({Folded});
  ASSERT_TRUE(P);
  for (bool Fold : {true, false}) {
    ApplicableClassesAnalysis AC(*P);
    PassThroughAnalysis PT(*P);
    SpecializationPlan Plan = makePlan(Config::Base, *P, AC, PT, nullptr);
    OptimizerOptions OptOpts;
    OptOpts.EnableConstantFolding = Fold;
    Optimizer Opt(*P, AC, OptOpts);
    std::unique_ptr<CompiledProgram> CP = Opt.compile(Plan);
    ASSERT_TRUE(CP);
    if (Fold)
      EXPECT_GE(Opt.stats().ConstantsFolded, 6u);
    else
      EXPECT_EQ(Opt.stats().ConstantsFolded, 0u);
    BcModule Mod = compileToBytecode(*CP);
    ASSERT_TRUE(Mod.Ok) << Mod.Error;
    TierRun Ast = runAstTier(*CP, 1);
    TierRun Bc = runBytecodeTier(*CP, Mod, 1);
    expectSameRun(Ast, Bc, Fold ? "folded" : "unfolded");
    EXPECT_EQ(Ast.Output, Expected) << (Fold ? "folded" : "unfolded");
  }
}

TEST(RuntimeCoreSemantics, SelfCycleRendersBackReference) {
  expectRenderedEverywhere("let v := array(1); atPut(v, 0, v);", 0,
                           [](const std::string &R) {
                             EXPECT_EQ(R, "[[...]]");
                           });
}

TEST(RuntimeCoreSemantics, TwoArrayCycleRendersBackReference) {
  expectRenderedEverywhere(
      "let v := array(2); let w := array(1);"
      " atPut(v, 0, w); atPut(v, 1, n); atPut(w, 0, v);",
      7, [](const std::string &R) { EXPECT_EQ(R, "[[[...]], 7]"); });
}

TEST(RuntimeCoreSemantics, DeepChainRenderingIsDepthBounded) {
  const unsigned Depth = RuntimeCore::MaxRenderDepth;
  const std::string Expected =
      std::string(Depth, '[') + "[...]" + std::string(Depth, ']');
  expectRenderedEverywhere(
      "let v := array(1); let cur := v; let i := 0;"
      " while (i < n) { let next := array(1); atPut(cur, 0, next);"
      " cur := next; i := i + 1; }",
      100000, [&](const std::string &R) { EXPECT_EQ(R, Expected); });
}

TEST(RuntimeCoreSemantics, SharedSubarrayRenderingIsLengthBounded) {
  // 40 levels of [x, x] sharing: the full rendering would take 2^40
  // leaves.  Output stops shortly past MaxRenderBytes with a `...` marker.
  expectRenderedEverywhere(
      "let v := array(2); atPut(v, 0, n); atPut(v, 1, n); let i := 0;"
      " while (i < 40) { let w := array(2); atPut(w, 0, v); atPut(w, 1, v);"
      " v := w; i := i + 1; }",
      3, [](const std::string &R) {
        EXPECT_GE(R.size(), RuntimeCore::MaxRenderBytes);
        EXPECT_LE(R.size(), RuntimeCore::MaxRenderBytes + 1024);
        EXPECT_EQ(R.compare(0, 4, "[[[["), 0);
        EXPECT_NE(R.find("[3, 3]"), std::string::npos);
        EXPECT_NE(R.find(", ...]"), std::string::npos);
      });
}

//===----------------------------------------------------------------------===//
// Driver plumbing: tier selection, fallback surface, metrics.
//===----------------------------------------------------------------------===//

TEST(BytecodeTier, ParseAndNames) {
  EXPECT_EQ(parseTier("ast"), ExecTier::Ast);
  EXPECT_EQ(parseTier("bytecode"), ExecTier::Bytecode);
  EXPECT_FALSE(parseTier("jit").has_value());
  EXPECT_STREQ(tierName(ExecTier::Ast), "ast");
  EXPECT_STREQ(tierName(ExecTier::Bytecode), "bytecode");
}

TEST(BytecodeTier, WorkbenchRunsIdenticalStatsOnBothTiers) {
  const char *Source = R"(
    method fib(n@Int) { if (n < 2) { n; } else { fib(n - 1) + fib(n - 2); } }
    method main(n@Int) { print(fib(n)); })";

  std::optional<ConfigResult> Results[2];
  ExecTier Tiers[2] = {ExecTier::Ast, ExecTier::Bytecode};
  for (int T = 0; T != 2; ++T) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromSources({Source}, Err);
    ASSERT_TRUE(W) << Err;
    W->setTier(Tiers[T]);
    ASSERT_TRUE(W->collectProfile(10, Err)) << Err;
    Results[T] = W->runConfig(Config::Selective, 10, Err);
    ASSERT_TRUE(Results[T]) << Err;
    EXPECT_EQ(Results[T]->Tier, Tiers[T]);
  }
  EXPECT_EQ(Results[0]->Output, Results[1]->Output);
  expectSameStats(Results[0]->Run, Results[1]->Run, "workbench tiers");
}

TEST(BytecodeTier, PublishesBytecodeCounters) {
  metrics::resetAll();
  std::unique_ptr<Program> P = buildProgram({R"(
    class A { slot v; }
    class B isa A { slot w; }
    method get(a@A) { a.v; }
    method main(n@Int) {
      let arr := array(1);
      atPut(arr, 0, new A { v := n });
      print(get(at(arr, 0)));
    })"});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  BcModule Mod = compileToBytecode(*CP);
  ASSERT_TRUE(Mod.Ok) << Mod.Error;
  {
    BytecodeInterpreter I(*CP, Mod, {});
    ASSERT_TRUE(I.callMain(1));
  }
  std::vector<std::pair<std::string, uint64_t>> S = metrics::snapshot();
  auto value = [&](const std::string &Name) -> int64_t {
    for (const auto &C : S)
      if (C.first == Name)
        return static_cast<int64_t>(C.second);
    return -1;
  };
  EXPECT_GT(value("bytecode.compiled_functions"), 0);
  EXPECT_GT(value("bytecode.code_bytes"), 0);
  EXPECT_GE(value("bytecode.ic_hits"), 0);
  EXPECT_GT(value("bytecode.ic_misses"), 0);
  EXPECT_GT(value("bytecode.insns_dispatched"), 0);
  EXPECT_GT(value("interp.method_invocations"), 0);
}
