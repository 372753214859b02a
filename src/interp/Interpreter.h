//===- interp/Interpreter.h - Instrumented AST interpreter -----*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AST tier: walks a CompiledProgram's expression trees, honoring the
/// optimizer's binding annotations (dynamic dispatch, static call, version
/// selection, inlined primitive, class prediction) and charging the
/// CostModel node by node.  The same interpreter both gathers profiles
/// (filling a CallGraph with call-site-exact weighted arcs, the paper's
/// PIC-based profiling) and measures optimized executions (dispatch counts
/// and modeled cycles for Figure 5, invoked-version bits for Figure 6).
/// It is the semantic reference the bytecode tier is checked against.
///
/// Primitives, traps, value rendering, resource guards, the callGeneric
/// entry path and stats publication come from RuntimeCore, shared with
/// the bytecode tier; this class adds only the tree walk.
///
/// Non-local returns: `return` inside a closure unwinds to the closure's
/// home method activation (Cecil semantics), which the Figure 1
/// `overlaps`/`includes` pattern relies on; inlined bodies catch their own
/// rewritten return boundary.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_INTERP_INTERPRETER_H
#define SELSPEC_INTERP_INTERPRETER_H

#include "interp/RuntimeCore.h"

#include <vector>

namespace selspec {

class Interpreter final : public RuntimeCore {
public:
  /// \p CP is shared, not owned: interpreters only read it (the atomic
  /// invoked bits are the documented exception), so any number of
  /// concurrent interpreters may execute one snapshot.
  explicit Interpreter(const CompiledProgram &CP, RunOptions Opts = {},
                       CostModel Costs = {});

private:
  Value enter(MethodId Target, int Version, std::vector<Value> &Args,
              Control &C) override;

  Value eval(const Expr *E, Frame &F, Control &C);
  Value evalSend(const SendExpr *S, Frame &F, Control &C);
  Value evalInlined(const InlinedExpr *In, Frame &F, Control &C);
  // Call arguments travel on a shared stack (ArgStack): a caller records
  // the current depth (ArgsBase), evaluates its arguments on top, and the
  // callee consumes exactly the entries above ArgsBase.  Entries are
  // indexed, never held by reference across eval, because nested sends
  // push (and may reallocate) above them.
  Value invokeMethod(MethodId M, int VersionIndex, size_t ArgsBase,
                     SourceLoc CallLoc, Control &C);
  Value invokeVersion(const CompiledMethod &CM, size_t ArgsBase,
                      SourceLoc CallLoc, Control &C);
  Value dispatchCall(const SendExpr *S, size_t ArgsBase, Control &C);
  bool evalArgs(const std::vector<ExprPtr> &ArgExprs, Frame &F, Control &C);
  bool chargeNode(const Expr *E, Control &C);

  /// Shared argument stack; see the invokeMethod comment for discipline.
  std::vector<Value> ArgStack;
};

} // namespace selspec

#endif // SELSPEC_INTERP_INTERPRETER_H
