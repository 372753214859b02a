//===- opt/ClassAnalysis.h - Intraprocedural class analysis ----*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Support for the optimizer's intraprocedural class analysis (the "Base"
/// optimization of Table 1): a scoped environment mapping variables to
/// class sets, result-class knowledge for builtin primitives, and the
/// assignment/volatility scan that keeps the analysis sound in the
/// presence of loops and closures:
///
///  - variables assigned inside any closure of a body are "volatile" and
///    always analyzed as the universe;
///  - variables assigned in a loop body are widened to the universe before
///    the body is analyzed;
///  - inside a closure body, any variable assigned anywhere in the
///    enclosing body is the universe (the closure may run at any time).
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_OPT_CLASSANALYSIS_H
#define SELSPEC_OPT_CLASSANALYSIS_H

#include "hierarchy/PrimOp.h"
#include "lang/Ast.h"
#include "support/ClassSet.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace selspec {

/// Scoped Symbol -> ClassSet environment.
class ClassEnv {
public:
  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }

  void define(Symbol Name, ClassSet S) {
    Scopes.back().emplace_back(Name, std::move(S));
  }

  /// Innermost binding, or null.
  ClassSet *lookup(Symbol Name) {
    for (auto SI = Scopes.rbegin(), SE = Scopes.rend(); SI != SE; ++SI)
      for (auto BI = SI->rbegin(), BE = SI->rend(); BI != BE; ++BI)
        if (BI->first == Name)
          return &BI->second;
    return nullptr;
  }

  /// Widens every visible binding of the given names to \p To.
  void widen(const std::unordered_set<uint32_t> &Names, const ClassSet &To) {
    for (auto &Scope : Scopes)
      for (auto &[Name, Set] : Scope)
        if (Names.count(Name.value()))
          Set = To;
  }

private:
  std::vector<std::vector<std::pair<Symbol, ClassSet>>> Scopes;
};

/// Result-class knowledge for builtins: the set of classes a primitive's
/// result may have.  \p Universe sizes the returned set.
ClassSet primResultSet(PrimOp Op, unsigned UniverseSize);

/// Names assigned (AssignVar) anywhere in \p E, including inside closures.
std::unordered_set<uint32_t> collectAssignedNames(const Expr *E);

/// Names assigned inside any ClosureLit nested in \p E.
std::unordered_set<uint32_t> collectClosureAssignedNames(const Expr *E);

/// References per variable name (Symbol value): VarRef and AssignVar nodes.
using VarRefCounts = std::unordered_map<uint32_t, unsigned>;

/// Adds \p Delta (+1 or -1) to \p Counts for every reference inside \p E.
void tallyVarRefs(const Expr *E, VarRefCounts &Counts, int Delta = 1);

/// AST node count (the code-size estimate unit).
unsigned countNodes(const Expr *E);

} // namespace selspec

#endif // SELSPEC_OPT_CLASSANALYSIS_H
