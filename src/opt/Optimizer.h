//===- opt/Optimizer.h - Vortex-lite optimizing compiler -------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a Program under a SpecializationPlan into a CompiledProgram.
/// Per method version, performs the Table 1 "Base" optimizations over the
/// version's class-set context:
///
///  - intraprocedural class analysis (flow-sensitive sets per variable,
///    soundly widened around loops and closures);
///  - static binding of sends: without CHA only exactly-known receiver
///    tuples bind; with CHA any send whose possible targets reduce to one
///    method binds; specialization tightens the formal sets and thus
///    enables both;
///  - direct version binding or run-time version selection when the callee
///    has several compiled versions (Section 3.3/3.5);
///  - inlining of small statically-bound callees, with closure propagation
///    into inlined bodies and closure-call inlining;
///  - dead closure-creation elimination;
///  - hard-wired class prediction for common messages (+, <, ==, ...);
///  - code-size estimation.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_OPT_OPTIMIZER_H
#define SELSPEC_OPT_OPTIMIZER_H

#include "analysis/ApplicableClasses.h"
#include "analysis/ReturnClasses.h"
#include "profile/CallGraph.h"
#include "opt/ClassAnalysis.h"
#include "opt/CompiledProgram.h"
#include "opt/Inliner.h"
#include "specialize/SpecTuple.h"

#include <memory>
#include <unordered_map>

namespace selspec {

struct OptimizerOptions {
  bool EnableInlining = true;
  /// Table 1 Base optimizations: fold primitive sends over literal
  /// arguments and delete effect-free dead statements.
  bool EnableConstantFolding = true;
  bool EnableDeadCodeElimination = true;
  /// Max callee body size (AST nodes) eligible for inlining.
  unsigned InlineBudget = 80;
  /// Max nesting of method inlining.
  unsigned MaxInlineDepth = 5;
  /// Total AST nodes a single compiled version may gain from inlining —
  /// bounds code-space growth the way real inliners do.
  unsigned MaxInlinedNodesPerVersion = 400;
  bool EnableClassPrediction = true;
  bool EnableClosureInlining = true;
  /// Section 6 extension: use the interprocedural return-class analysis
  /// to sharpen send results (only meaningful with CHA configurations).
  bool UseReturnClasses = false;
  /// Section 6 extension: profile-guided type feedback — guard dynamic
  /// sites whose profile shows one dominant callee with an inline-cache
  /// test and a direct call.  Requires a profile to be passed to the
  /// Optimizer.
  bool EnableTypeFeedback = false;
  /// Minimum total site weight and minimum dominant-callee share (%) for
  /// a feedback guard.
  uint64_t FeedbackMinWeight = 1000;
  unsigned FeedbackMinSharePct = 80;
};

class Optimizer {
public:
  /// \p P is non-const only because inlining gensyms fresh names into the
  /// shared symbol table.  \p Profile is only needed for type feedback.
  Optimizer(Program &P, const ApplicableClassesAnalysis &AC,
            OptimizerOptions Options = {},
            const CallGraph *Profile = nullptr);

  /// Compiles every version in \p Plan (plus one version per builtin).
  std::unique_ptr<CompiledProgram> compile(const SpecializationPlan &Plan);

  struct Stats {
    uint64_t SitesStatic = 0;
    uint64_t SitesStaticSelect = 0;
    uint64_t SitesInlinePrim = 0;
    uint64_t SitesPredicted = 0;
    uint64_t SitesDynamic = 0;
    uint64_t SitesFeedback = 0;
    uint64_t MethodsInlined = 0;
    uint64_t ClosureCallsInlined = 0;
    uint64_t ClosureCreationsEliminated = 0;
    uint64_t ConstantsFolded = 0;
    uint64_t DeadStatementsRemoved = 0;
  };
  const Stats &stats() const { return S; }

private:
  void compileVersion(CompiledProgram &CP, uint32_t Index);

  /// Analyzes and rewrites \p E; returns its class-set estimate.
  ClassSet analyze(ExprPtr &E);
  ClassSet analyzeSend(ExprPtr &E);
  ClassSet analyzeInlined(InlinedExpr *In);
  ClassSet analyzeClosureCall(ExprPtr &E);
  ClassSet varSet(Symbol Name);
  ClassSet universe() const { return P.Classes.allClasses(); }

  /// Eliminates closure creations whose binding is never referenced.
  /// \p Refs counts the version body's references and is kept exact.
  void eliminateDeadClosures(Expr *Node, VarRefCounts &Refs);
  /// Drops effect-free dead statements (Table 1's dead code elimination).
  void eliminateDeadCode(Expr *Node, VarRefCounts &Refs);
  /// Replaces a primitive send over literals with its value; returns true
  /// when folded.
  bool tryFoldPrim(ExprPtr &E, PrimOp Op);

  Program &P;
  const ApplicableClassesAnalysis &AC;
  OptimizerOptions Options;
  const CallGraph *Profile;
  std::unique_ptr<ReturnClassAnalysis> RC;
  Stats S;

  // Per-version compile state.
  CompiledProgram *CurCP = nullptr;
  const SpecializationPlan *CurPlan = nullptr;
  std::unique_ptr<Inliner> CurInliner;
  ClassEnv Env;
  std::unordered_set<uint32_t> AssignedNames;
  std::unordered_set<uint32_t> ClosureAssignedNames;
  std::unordered_map<uint32_t, const ClosureLitExpr *> KnownClosures;
  std::vector<MethodId> InlineStack;
  unsigned ClosureDepth = 0;
  unsigned InlinedNodesLeft = 0;
};

} // namespace selspec

#endif // SELSPEC_OPT_OPTIMIZER_H
