//===- profile/CallGraph.h - Weighted dynamic call graph -------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weighted call graph the specialization algorithm consumes: for each
/// call site, the set of methods invoked from it and how many times (one
/// arc per (site, callee); a dynamically-dispatched site can have several
/// arcs).  Matches the paper's Caller(arc), Callee(arc), CallSite(arc),
/// Weight(arc) accessors.  Arcs are recorded for statically-bound sites
/// too, since cascadeSpecializations needs their weights.
///
/// The graph is one vector of arcs kept sorted by (site, callee, caller),
/// one arc per key.  A site's caller is the method that contains it, so in
/// a profile of one program (site, callee) is already unique; the caller
/// only orders arcs read from an unvalidated database.  Both producers
/// write keys in that order: the profile run folds its per-site counters
/// site by site (interp/RuntimeCore.h), and a saved database lists its
/// arcs sorted (profile/ProfileDb.h).  So addHits appends, arcs() is the
/// vector itself, arcsAt is a binary search and merge is a linear merge;
/// nothing hashes.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_PROFILE_CALLGRAPH_H
#define SELSPEC_PROFILE_CALLGRAPH_H

#include "support/Ids.h"

#include <cstdint>
#include <span>
#include <vector>

namespace selspec {

/// One weighted arc of the dynamic call graph.
struct Arc {
  CallSiteId Site;
  MethodId Caller;
  MethodId Callee;
  uint64_t Weight = 0;

  bool operator==(const Arc &) const = default;
};

class CallGraph {
public:
  /// Records \p N invocations of \p Callee from \p Site (inside \p Caller).
  /// Appends when the key sorts after every arc already present, and
  /// inserts in order otherwise.
  void addHits(CallSiteId Site, MethodId Caller, MethodId Callee,
               uint64_t N = 1);

  /// All arcs, sorted by (site, callee, caller).
  const std::vector<Arc> &arcs() const { return Arcs; }

  /// Arcs leaving \p Caller / arriving at \p Callee, in arcs() order.
  std::vector<Arc> arcsFrom(MethodId Caller) const;
  std::vector<Arc> arcsTo(MethodId Callee) const;
  /// Arcs of one call site, in arcs() order.
  std::span<const Arc> arcsAt(CallSiteId Site) const;

  uint64_t totalWeight() const;
  bool empty() const { return Arcs.empty(); }
  size_t numArcs() const { return Arcs.size(); }

  /// Accumulates \p Other into this graph (profiles from several runs).
  void merge(const CallGraph &Other);

  void clear() { Arcs.clear(); }

  bool operator==(const CallGraph &) const = default;

private:
  std::vector<Arc> Arcs;
};

} // namespace selspec

#endif // SELSPEC_PROFILE_CALLGRAPH_H
