//===- analysis/ApplicableClasses.h - CHA ApplicableClasses ----*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the paper's ApplicableClasses function:
///
///   ApplicableClasses[meth m(f1,...,fn)] = the n-tuple of class sets, one
///   per formal, for which m might be invoked (excluding classes that bind
///   to overriding methods).
///
/// For multi-methods each set is the projection of the exact invocation
/// relation onto its formal (the paper defers these "subtleties" to
/// [Dean et al. 95]).  The §3.5 compressed dispatch table of a generic
/// already holds that relation: its cells partition the class tuples, and
/// every class of a cell's group at a position dispatches alike.  So m's
/// set at a dispatched position is the union of that position's groups
/// over the cells that invoke m, exact at any hierarchy size for
/// O(cells × arity + classes) per generic.  Undispatched positions keep
/// m's specializer cones, and so does every position of a generic whose
/// table was not materialized (over a cap, or failed by the
/// `dispatch.table-build` failpoint): a sound superset.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_ANALYSIS_APPLICABLECLASSES_H
#define SELSPEC_ANALYSIS_APPLICABLECLASSES_H

#include "hierarchy/Program.h"
#include "support/ClassSet.h"

#include <vector>

namespace selspec {

class ApplicableClassesAnalysis {
public:
  /// Computes ApplicableClasses for every method in \p P.
  explicit ApplicableClassesAnalysis(const Program &P);

  /// The ApplicableClasses tuple of \p M (size = arity).  Empty sets mean
  /// the method can never be invoked (dead method).
  const std::vector<ClassSet> &of(MethodId M) const {
    return PerMethod[M.value()];
  }

  /// Argument positions of \p G on which any method actually dispatches
  /// (has a non-root specializer): the positions of \p G's table.
  const std::vector<unsigned> &dispatchedPositions(GenericId G) const {
    return DispatchedPos[G.value()];
  }

  const Program &program() const { return P; }

private:
  const Program &P;
  std::vector<std::vector<ClassSet>> PerMethod;
  std::vector<std::vector<unsigned>> DispatchedPos;
};

} // namespace selspec

#endif // SELSPEC_ANALYSIS_APPLICABLECLASSES_H
