//===- profile/CallGraph.cpp - Weighted dynamic call graph -----------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "profile/CallGraph.h"

#include <algorithm>
#include <cassert>

using namespace selspec;

/// The arc order: by site, then callee, then caller.
static bool keyLess(const Arc &A, const Arc &B) {
  if (A.Site != B.Site)
    return A.Site < B.Site;
  if (A.Callee != B.Callee)
    return A.Callee < B.Callee;
  return A.Caller < B.Caller;
}

static bool sameKey(const Arc &A, const Arc &B) {
  return A.Site == B.Site && A.Callee == B.Callee && A.Caller == B.Caller;
}

void CallGraph::addHits(CallSiteId Site, MethodId Caller, MethodId Callee,
                        uint64_t N) {
  assert(Site.isValid() && Caller.isValid() && Callee.isValid() &&
         "invalid arc component");
  const Arc New{Site, Caller, Callee, N};
  if (Arcs.empty() || keyLess(Arcs.back(), New)) {
    Arcs.push_back(New);
    return;
  }
  auto It = std::lower_bound(Arcs.begin(), Arcs.end(), New, keyLess);
  if (sameKey(*It, New))
    It->Weight += N;
  else
    Arcs.insert(It, New);
}

std::vector<Arc> CallGraph::arcsFrom(MethodId Caller) const {
  std::vector<Arc> Out;
  for (const Arc &A : Arcs)
    if (A.Caller == Caller)
      Out.push_back(A);
  return Out;
}

std::vector<Arc> CallGraph::arcsTo(MethodId Callee) const {
  std::vector<Arc> Out;
  for (const Arc &A : Arcs)
    if (A.Callee == Callee)
      Out.push_back(A);
  return Out;
}

std::span<const Arc> CallGraph::arcsAt(CallSiteId Site) const {
  auto [First, Last] = std::equal_range(
      Arcs.begin(), Arcs.end(), Arc{Site, MethodId(), MethodId()},
      [](const Arc &A, const Arc &B) { return A.Site < B.Site; });
  return {First, Last};
}

uint64_t CallGraph::totalWeight() const {
  uint64_t Total = 0;
  for (const Arc &A : Arcs)
    Total += A.Weight;
  return Total;
}

void CallGraph::merge(const CallGraph &Other) {
  if (Other.Arcs.empty())
    return;
  if (Arcs.empty()) {
    Arcs = Other.Arcs;
    return;
  }
  std::vector<Arc> Out;
  Out.reserve(Arcs.size() + Other.Arcs.size());
  auto A = Arcs.begin(), AEnd = Arcs.end();
  auto B = Other.Arcs.begin(), BEnd = Other.Arcs.end();
  while (A != AEnd && B != BEnd) {
    if (keyLess(*A, *B)) {
      Out.push_back(*A++);
    } else if (keyLess(*B, *A)) {
      Out.push_back(*B++);
    } else {
      Out.push_back(*A++);
      Out.back().Weight += (B++)->Weight;
    }
  }
  Out.insert(Out.end(), A, AEnd);
  Out.insert(Out.end(), B, BEnd);
  Arcs = std::move(Out);
}
