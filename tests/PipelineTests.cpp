//===- tests/PipelineTests.cpp - End-to-end driver --------------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "bytecode/BytecodeCompiler.h"
#include "bytecode/BytecodeInterpreter.h"
#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "support/TraceEmitter.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace selspec;
using namespace selspec::test;

namespace {

const char *CounterSource = R"(
  class Shape; class Circle isa Shape; class Square isa Shape;
  method area(s@Circle) { 6; }
  method area(s@Square) { 9; }
  method pickShape(i@Int) {
    if (i % 2 == 0) { new Circle; } else { new Square; }
  }
  method totalArea(v@Vector) {
    let total := 0;
    do(v, fn(s) { total := total + area(s); });
    total;
  }
  method main(n@Int) {
    let v := vectorNew();
    let i := 0;
    while (i < n) { add(v, pickShape(i)); i := i + 1; }
    print(totalArea(v));
  }
)";

} // namespace

TEST(Pipeline, FromSourcesAndAllConfigsAgree) {
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({CounterSource}, Err, /*WithStdlib=*/true);
  ASSERT_TRUE(W) << Err;
  ASSERT_TRUE(W->collectProfile(20, Err)) << Err;
  ASSERT_TRUE(W->hasProfile());

  std::string Expected = "150\n"; // 10*6 + 10*9
  for (Config C : {Config::Base, Config::Cust, Config::CustMM, Config::CHA,
                   Config::Selective}) {
    SelectiveOptions Sel;
    Sel.SpecializationThreshold = 5;
    std::optional<ConfigResult> R = W->runConfig(C, 20, Err, Sel);
    ASSERT_TRUE(R) << configName(C) << ": " << Err;
    EXPECT_EQ(R->Output, Expected) << configName(C);
    EXPECT_GT(R->CompiledRoutines, 0u);
    EXPECT_GT(R->Run.Cycles, 0u);
    EXPECT_LE(R->InvokedRoutines, R->CompiledRoutines);
  }
}

TEST(Pipeline, ProfileErrorSurfaces) {
  std::string Err;
  std::unique_ptr<Workbench> W = Workbench::fromSources(
      {"method main(n@Int) { abort(\"kaput\"); }"}, Err);
  ASSERT_TRUE(W) << Err;
  EXPECT_FALSE(W->collectProfile(1, Err));
  EXPECT_NE(Err.find("kaput"), std::string::npos);
}

TEST(Pipeline, ParseErrorSurfaces) {
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({"method main(n@Int) { ; }"}, Err);
  EXPECT_EQ(W, nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(Pipeline, MissingFileSurfaces) {
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromFiles({"no_such_file.mica"}, Err);
  EXPECT_EQ(W, nullptr);
  EXPECT_NE(Err.find("no_such_file.mica"), std::string::npos);
}

TEST(Pipeline, StdlibLoads) {
  std::string Err;
  std::unique_ptr<Workbench> W = Workbench::fromSources(
      {"method main(n@Int) { let v := vectorNew(); add(v, 1); "
       "print(size(v)); }"},
      Err, /*WithStdlib=*/true);
  ASSERT_TRUE(W) << Err;
  std::optional<ConfigResult> R = W->runConfig(Config::Base, 0, Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(R->Output, "1\n");
  EXPECT_GT(W->sourceLines(), 100u) << "stdlib lines counted";
}

TEST(Pipeline, SelectiveReducesDispatchesOnPolymorphicLoop) {
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources({CounterSource}, Err, /*WithStdlib=*/true);
  ASSERT_TRUE(W) << Err;
  ASSERT_TRUE(W->collectProfile(60, Err)) << Err;

  SelectiveOptions Sel;
  Sel.SpecializationThreshold = 10;
  std::optional<ConfigResult> Base = W->runConfig(Config::Base, 60, Err);
  std::optional<ConfigResult> CHA = W->runConfig(Config::CHA, 60, Err);
  std::optional<ConfigResult> Sel60 =
      W->runConfig(Config::Selective, 60, Err, Sel);
  ASSERT_TRUE(Base && CHA && Sel60) << Err;

  EXPECT_LE(CHA->Run.totalDispatches(), Base->Run.totalDispatches());
  EXPECT_LE(Sel60->Run.totalDispatches(), CHA->Run.totalDispatches());
  EXPECT_LT(Sel60->Run.Cycles, Base->Run.Cycles);
}

namespace {

/// Turns the process-wide trace emitter on for one test and leaves it off
/// and empty afterwards.
struct TraceOn {
  TraceOn() {
    TraceEmitter::global().reset();
    TraceEmitter::global().setEnabled(true);
  }
  ~TraceOn() {
    TraceEmitter::global().setEnabled(false);
    TraceEmitter::global().reset();
  }
  static uint64_t count(const char *Name) {
    for (const TraceEmitter::Phase &Ph : TraceEmitter::global().phases())
      if (std::string(Ph.Name) == Name)
        return Ph.Count;
    return 0;
  }
};

/// The arcs a direct Base-compiled BytecodeInterpreter run of
/// `main(Input)` records under \p Limits, and the trap that stopped it.
CallGraph directProfile(Workbench &W, int64_t Input,
                        const ResourceLimits &Limits, RuntimeTrap &TrapOut) {
  CallGraph CG;
  std::unique_ptr<CompiledProgram> CP =
      compileProgram(W.program(), Config::Base);
  BcModule Mod = compileToBytecode(*CP);
  EXPECT_TRUE(Mod.Ok) << Mod.Error;
  RunOptions RO;
  RO.Profile = &CG;
  RO.Limits = Limits;
  BytecodeInterpreter I(*CP, Mod, RO);
  I.callMain(Input);
  TrapOut = I.trap();
  return CG;
}

void expectSameArcs(const CallGraph &A, const CallGraph &B,
                    const std::string &Label) {
  std::vector<Arc> XA = A.arcs(), XB = B.arcs();
  ASSERT_EQ(XA.size(), XB.size()) << Label;
  for (size_t I = 0; I != XA.size(); ++I) {
    EXPECT_EQ(XA[I].Site, XB[I].Site) << Label << " arc " << I;
    EXPECT_EQ(XA[I].Caller, XB[I].Caller) << Label << " arc " << I;
    EXPECT_EQ(XA[I].Callee, XB[I].Callee) << Label << " arc " << I;
    EXPECT_EQ(XA[I].Weight, XB[I].Weight) << Label << " arc " << I;
  }
}

struct TableTwoProgram {
  const char *Name;
  std::vector<std::string> Files;
  int64_t Input;
};

const TableTwoProgram TableTwo[] = {
    {"richards", {"richards.mica"}, 30},
    {"instsched", {"instsched.mica"}, 6},
    {"typechecker", {"minilang.mica", "typechecker.mica"}, 8},
    {"compiler", {"minilang.mica", "compiler.mica"}, 8},
};

} // namespace

TEST(PipelinePhases, ProfileSpecializeAndRunAreCountedOnce) {
  std::string Err;
  std::unique_ptr<Workbench> W = Workbench::fromFiles({"richards.mica"}, Err);
  ASSERT_TRUE(W) << Err;
  TraceOn Trace;
  ASSERT_TRUE(W->collectProfile(30, Err)) << Err;
  SelectiveOptions Sel;
  Sel.SpecializationThreshold = 100;
  std::optional<ConfigResult> R =
      W->runConfig(Config::Selective, 30, Err, Sel);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(TraceOn::count("profile"), 1u);
  EXPECT_EQ(TraceOn::count("specialize"), 1u);
  EXPECT_EQ(TraceOn::count("run"), 1u);

  // The one specializer run's statistics reach the result.
  ASSERT_TRUE(R->Specializer);
  SelectiveSpecializer Direct(W->program(), W->applicableClasses(),
                              W->passThrough(), W->profile(), Sel);
  Direct.run();
  EXPECT_GT(R->Specializer->VersionsAdded, 0u);
  EXPECT_EQ(R->Specializer->MethodsSpecialized,
            Direct.stats().MethodsSpecialized);
  EXPECT_EQ(R->Specializer->VersionsAdded, Direct.stats().VersionsAdded);
  EXPECT_EQ(R->Specializer->MaxVersionsOfAMethod,
            Direct.stats().MaxVersionsOfAMethod);
  EXPECT_EQ(R->Specializer->CascadedSpecializations,
            Direct.stats().CascadedSpecializations);
  EXPECT_EQ(R->Specializer->BlowupGuardHits, Direct.stats().BlowupGuardHits);
}

TEST(PipelineProfile, EqualsDirectBytecodeRecordingOnTableTwoPrograms) {
  for (const TableTwoProgram &Prog : TableTwo) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromFiles(Prog.Files, Err);
    ASSERT_TRUE(W) << Prog.Name << ": " << Err;
    ASSERT_TRUE(W->collectProfile(Prog.Input, Err)) << Prog.Name << ": " << Err;
    RuntimeTrap Trap;
    CallGraph Direct = directProfile(*W, Prog.Input, W->limits(), Trap);
    EXPECT_FALSE(Trap.isTrap()) << Prog.Name << ": " << Trap.Message;
    EXPECT_FALSE(W->profile().empty()) << Prog.Name;
    expectSameArcs(W->profile(), Direct, Prog.Name);
  }
}

TEST(PipelineProfile, NodeBudgetStopKeepsPartialArcsAndTrap) {
  std::string Err;
  std::unique_ptr<Workbench> W = Workbench::fromFiles({"richards.mica"}, Err);
  ASSERT_TRUE(W) << Err;
  ResourceLimits Limits;
  Limits.MaxNodes = 20000;
  W->setLimits(Limits);
  EXPECT_FALSE(W->collectProfile(30, Err));
  EXPECT_EQ(W->lastTrap().Kind, TrapKind::NodeBudgetExceeded);

  RuntimeTrap Direct;
  CallGraph DirectArcs = directProfile(*W, 30, Limits, Direct);
  EXPECT_FALSE(W->profile().empty());
  expectSameArcs(W->profile(), DirectArcs, "richards, stopped");
  const RuntimeTrap &T = W->lastTrap();
  EXPECT_EQ(T.Kind, Direct.Kind);
  EXPECT_EQ(T.Loc.Line, Direct.Loc.Line);
  EXPECT_EQ(T.Loc.Col, Direct.Loc.Col);
  EXPECT_EQ(T.Message, Direct.Message);
  EXPECT_EQ(T.Backtrace, Direct.Backtrace);
  EXPECT_EQ(Err, "profile run failed: " + T.render());
}

TEST(TextTable, FormattingHelpers) {
  EXPECT_EQ(TextTable::ratio(1.0), "1.00");
  EXPECT_EQ(TextTable::ratio(2.345), "2.35");
  EXPECT_EQ(TextTable::count(0), "0");
  EXPECT_EQ(TextTable::count(999), "999");
  EXPECT_EQ(TextTable::count(1234567), "1,234,567");
  EXPECT_EQ(TextTable::percentDelta(1.65, 1.0), "+65%");
  EXPECT_EQ(TextTable::percentDelta(0.9, 1.0), "-10%");
  EXPECT_EQ(TextTable::percentDelta(1.0, 0.0), "n/a");

  TextTable T({"Program", "Base", "Selective"});
  T.addRow({"richards", "1.00", "2.50"});
  std::ostringstream OS;
  T.print(OS);
  std::string S = OS.str();
  EXPECT_NE(S.find("Program"), std::string::npos);
  EXPECT_NE(S.find("richards"), std::string::npos);
  EXPECT_NE(S.find("2.50"), std::string::npos);
}
