//===- tests/TestUtil.h - Shared test helpers ------------------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_TESTS_TESTUTIL_H
#define SELSPEC_TESTS_TESTUTIL_H

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "opt/Optimizer.h"
#include "specialize/Strategies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace selspec {
namespace test {

/// Builds a resolved Program from \p Sources (builtins included).  Fails
/// the current test on any diagnostic.
inline std::unique_ptr<Program>
buildProgram(const std::vector<std::string> &Sources) {
  auto P = std::make_unique<Program>();
  P->addBuiltins();
  Diagnostics Diags;
  for (const std::string &Src : Sources)
    if (!P->addSource(Src, Diags)) {
      ADD_FAILURE() << "program did not parse:\n" << Diags.toString();
      return nullptr;
    }
  if (!P->resolve(Diags)) {
    ADD_FAILURE() << "program did not resolve:\n" << Diags.toString();
    return nullptr;
  }
  return P;
}

/// Compiles \p P under \p C (optionally with a profile for Selective) and
/// returns the compiled program.
inline std::unique_ptr<CompiledProgram>
compileProgram(Program &P, Config C, const CallGraph *CG = nullptr,
               const SelectiveOptions &Sel = {},
               const OptimizerOptions &OptOpts = {}) {
  ApplicableClassesAnalysis AC(P);
  PassThroughAnalysis PT(P);
  SpecializationPlan Plan = makePlan(C, P, AC, PT, CG, Sel);
  Optimizer Opt(P, AC, OptOpts, CG);
  return Opt.compile(Plan);
}

/// Runs `main(Input)` on a fresh interpreter with binding validation on;
/// fails the test on runtime errors.  Returns the interpreter's stats.
inline RunStats runMain(CompiledProgram &CP, int64_t Input,
                        std::string *OutputText = nullptr,
                        CallGraph *Profile = nullptr) {
  std::ostringstream Out;
  RunOptions Opts;
  Opts.Output = &Out;
  Opts.ValidateBindings = true;
  Opts.Profile = Profile;
  Interpreter I(CP, Opts);
  EXPECT_TRUE(I.callMain(Input)) << "runtime error: " << I.errorMessage();
  if (OutputText)
    *OutputText = Out.str();
  return I.stats();
}

/// End-to-end convenience: parse, compile under \p C, run main(Input),
/// return printed output.
inline std::string runSource(const std::string &Source, Config C,
                             int64_t Input) {
  std::unique_ptr<Program> P = buildProgram({Source});
  if (!P)
    return "<build failed>";
  CallGraph CG;
  std::unique_ptr<CompiledProgram> BaseCP =
      compileProgram(*P, Config::Base);
  if (C == Config::Selective)
    runMain(*BaseCP, Input, nullptr, &CG);
  std::unique_ptr<CompiledProgram> CP =
      compileProgram(*P, C, CG.empty() ? nullptr : &CG);
  std::string Out;
  runMain(*CP, Input, &Out);
  return Out;
}

/// Brute-force ApplicableClasses of \p G, the oracle for the analysis:
/// every class tuple at the positions some method specializes goes
/// through Program::dispatch, and the winner gains the tuple's classes
/// there.  The other positions keep each method's specializer cones.
/// Returns one tuple per method of \p G, in Methods order.
inline std::vector<std::vector<ClassSet>>
bruteForceApplicableClasses(const Program &P, GenericId G) {
  const GenericInfo &Info = P.generic(G);
  const unsigned U = P.Classes.size();
  std::vector<unsigned> Pos;
  for (unsigned I = 0; I != Info.Arity; ++I)
    for (MethodId M : Info.Methods)
      if (P.method(M).Specializers[I] != P.Classes.root()) {
        Pos.push_back(I);
        break;
      }
  std::vector<std::vector<ClassSet>> Out;
  for (MethodId M : Info.Methods) {
    std::vector<ClassSet> Tuple;
    for (unsigned I = 0; I != Info.Arity; ++I)
      Tuple.push_back(P.Classes.cone(P.method(M).Specializers[I]));
    for (unsigned I : Pos)
      Tuple[I] = ClassSet::empty(U);
    Out.push_back(std::move(Tuple));
  }
  std::vector<ClassId> Args(Info.Arity, P.Classes.root());
  std::vector<unsigned> Cursor(Pos.size(), 0);
  for (;;) {
    for (size_t I = 0; I != Pos.size(); ++I)
      Args[Pos[I]] = ClassId(Cursor[I]);
    const MethodId Winner = P.dispatch(G, Args);
    if (Winner.isValid()) {
      const size_t MI =
          std::find(Info.Methods.begin(), Info.Methods.end(), Winner) -
          Info.Methods.begin();
      for (size_t I = 0; I != Pos.size(); ++I)
        Out[MI][Pos[I]].insert(ClassId(Cursor[I]));
    }
    size_t K = 0;
    while (K != Cursor.size() && ++Cursor[K] == U) {
      Cursor[K] = 0;
      ++K;
    }
    if (K == Cursor.size())
      return Out;
  }
}

/// Checks \p AC's tuples for \p G's methods against the brute-force
/// oracle, position by position.
inline void
expectApplicableClassesAreOracle(const ApplicableClassesAnalysis &AC,
                                 GenericId G, const std::string &Ctx) {
  const Program &P = AC.program();
  const std::vector<std::vector<ClassSet>> Oracle =
      bruteForceApplicableClasses(P, G);
  const std::vector<MethodId> &Methods = P.generic(G).Methods;
  for (size_t MI = 0; MI != Methods.size(); ++MI)
    for (size_t I = 0; I != Oracle[MI].size(); ++I) {
      const ClassSet &Got = AC.of(Methods[MI])[I];
      EXPECT_EQ(Got, Oracle[MI][I])
          << Ctx << ": " << P.methodLabel(Methods[MI]) << " position " << I
          << " analysis " << P.Classes.setToString(Got, P.Syms)
          << " oracle " << P.Classes.setToString(Oracle[MI][I], P.Syms);
    }
}

/// Asserts every RunStats field matches, NodeMix bucket by bucket.
inline void expectSameStats(const RunStats &A, const RunStats &B,
                            const std::string &Label) {
  EXPECT_EQ(A.DynamicDispatches, B.DynamicDispatches) << Label;
  EXPECT_EQ(A.VersionSelects, B.VersionSelects) << Label;
  EXPECT_EQ(A.StaticCalls, B.StaticCalls) << Label;
  EXPECT_EQ(A.InlinePrims, B.InlinePrims) << Label;
  EXPECT_EQ(A.PredictedHits, B.PredictedHits) << Label;
  EXPECT_EQ(A.PredictedMisses, B.PredictedMisses) << Label;
  EXPECT_EQ(A.FeedbackHits, B.FeedbackHits) << Label;
  EXPECT_EQ(A.FeedbackMisses, B.FeedbackMisses) << Label;
  EXPECT_EQ(A.ClosuresCreated, B.ClosuresCreated) << Label;
  EXPECT_EQ(A.ClosureCalls, B.ClosureCalls) << Label;
  EXPECT_EQ(A.Allocations, B.Allocations) << Label;
  EXPECT_EQ(A.MethodInvocations, B.MethodInvocations) << Label;
  EXPECT_EQ(A.NodesEvaluated, B.NodesEvaluated) << Label;
  EXPECT_EQ(A.PeakDepth, B.PeakDepth) << Label;
  EXPECT_EQ(A.Cycles, B.Cycles) << Label;
  for (size_t K = 0; K != Expr::NumKinds; ++K)
    EXPECT_EQ(A.NodeMix[K], B.NodeMix[K])
        << Label << " NodeMix["
        << exprKindName(static_cast<Expr::Kind>(K)) << ']';
}

} // namespace test
} // namespace selspec

#endif // SELSPEC_TESTS_TESTUTIL_H
