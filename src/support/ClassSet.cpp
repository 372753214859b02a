//===- support/ClassSet.cpp - Hybrid set over class ids -------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "support/ClassSet.h"

#include <algorithm>
#include <bit>
#include <sstream>

using namespace selspec;

namespace {

using Range = ClassSet::Range;

/// Merge two canonical run lists into their union (canonical).
std::vector<Range> runUnion(const std::vector<Range> &A,
                            const std::vector<Range> &B) {
  std::vector<Range> Out;
  Out.reserve(A.size() + B.size());
  size_t I = 0, J = 0;
  auto Push = [&Out](Range R) {
    if (!Out.empty() && Out.back().Hi >= R.Lo) {
      if (R.Hi > Out.back().Hi)
        Out.back().Hi = R.Hi;
    } else {
      Out.push_back(R);
    }
  };
  while (I != A.size() || J != B.size()) {
    if (J == B.size() || (I != A.size() && A[I].Lo <= B[J].Lo))
      Push(A[I++]);
    else
      Push(B[J++]);
  }
  return Out;
}

std::vector<Range> runIntersect(const std::vector<Range> &A,
                                const std::vector<Range> &B) {
  std::vector<Range> Out;
  size_t I = 0, J = 0;
  while (I != A.size() && J != B.size()) {
    uint32_t Lo = std::max(A[I].Lo, B[J].Lo);
    uint32_t Hi = std::min(A[I].Hi, B[J].Hi);
    if (Lo < Hi)
      Out.push_back({Lo, Hi});
    if (A[I].Hi < B[J].Hi)
      ++I;
    else
      ++J;
  }
  return Out;
}

std::vector<Range> runSubtract(const std::vector<Range> &A,
                               const std::vector<Range> &B) {
  std::vector<Range> Out;
  size_t J = 0;
  for (const Range &RA : A) {
    uint32_t Lo = RA.Lo;
    while (J != B.size() && B[J].Hi <= Lo)
      ++J;
    size_t K = J;
    while (Lo < RA.Hi && K != B.size() && B[K].Lo < RA.Hi) {
      if (B[K].Lo > Lo)
        Out.push_back({Lo, B[K].Lo});
      if (B[K].Hi > Lo)
        Lo = B[K].Hi;
      ++K;
    }
    if (Lo < RA.Hi)
      Out.push_back({Lo, RA.Hi});
  }
  return Out;
}

} // namespace

ClassSet ClassSet::all(unsigned UniverseSize) {
  ClassSet S(UniverseSize);
  if (UniverseSize != 0)
    S.Ranges.push_back({0, UniverseSize});
  return S;
}

ClassSet ClassSet::single(unsigned UniverseSize, ClassId C) {
  ClassSet S(UniverseSize);
  S.insert(C);
  return S;
}

ClassSet ClassSet::fromRuns(unsigned UniverseSize, std::vector<Range> Runs) {
  ClassSet S(UniverseSize);
  S.adoptRuns(std::move(Runs));
  return S;
}

bool ClassSet::contains(ClassId C) const {
  assert(C.isValid() && C.value() < Universe && "class out of universe");
  uint32_t V = C.value();
  if (R == Rep::Dense)
    return (Words[V / 64] >> (V % 64)) & 1;
  auto It = std::upper_bound(
      Ranges.begin(), Ranges.end(), V,
      [](uint32_t Val, const Range &Rg) { return Val < Rg.Lo; });
  return It != Ranges.begin() && V < (It - 1)->Hi;
}

void ClassSet::insert(ClassId C) {
  assert(C.isValid() && C.value() < Universe && "class out of universe");
  uint32_t V = C.value();
  if (R == Rep::Dense) {
    Words[V / 64] |= uint64_t(1) << (V % 64);
    return;
  }
  // First range whose Hi >= V: the only candidate that can contain V or
  // be left-adjacent (every earlier range ends strictly before V).
  auto It = std::lower_bound(
      Ranges.begin(), Ranges.end(), V,
      [](const Range &Rg, uint32_t Val) { return Rg.Hi < Val; });
  if (It != Ranges.end() && It->Lo <= V && V < It->Hi)
    return;
  if (It != Ranges.end() && It->Hi == V) {
    It->Hi = V + 1;
    auto Next = It + 1;
    if (Next != Ranges.end() && Next->Lo == It->Hi) {
      It->Hi = Next->Hi;
      Ranges.erase(Next);
    }
    return;
  }
  if (It != Ranges.end() && It->Lo == V + 1) {
    It->Lo = V;
    return;
  }
  Ranges.insert(It, {V, V + 1});
  if (Ranges.size() > maxRanges(Universe))
    adoptRuns(std::move(Ranges));
}

void ClassSet::remove(ClassId C) {
  assert(C.isValid() && C.value() < Universe && "class out of universe");
  uint32_t V = C.value();
  if (R == Rep::Dense) {
    Words[V / 64] &= ~(uint64_t(1) << (V % 64));
    return;
  }
  auto It = std::lower_bound(
      Ranges.begin(), Ranges.end(), V,
      [](const Range &Rg, uint32_t Val) { return Rg.Hi <= Val; });
  if (It == Ranges.end() || V < It->Lo)
    return;
  if (It->Lo == V) {
    if (++It->Lo == It->Hi)
      Ranges.erase(It);
    return;
  }
  if (It->Hi == V + 1) {
    --It->Hi;
    return;
  }
  Range Right{V + 1, It->Hi};
  It->Hi = V;
  Ranges.insert(It + 1, Right);
  if (Ranges.size() > maxRanges(Universe))
    adoptRuns(std::move(Ranges));
}

bool ClassSet::isEmpty() const {
  if (R == Rep::Interval)
    return Ranges.empty();
  for (uint64_t W : Words)
    if (W != 0)
      return false;
  return true;
}

unsigned ClassSet::count() const {
  unsigned N = 0;
  if (R == Rep::Dense) {
    for (uint64_t W : Words)
      N += std::popcount(W);
    return N;
  }
  for (const Range &Rg : Ranges)
    N += Rg.Hi - Rg.Lo;
  return N;
}

bool ClassSet::isAll() const { return count() == Universe; }

ClassSet &ClassSet::operator&=(const ClassSet &RHS) {
  assert(Universe == RHS.Universe && "universe mismatch");
  if (R == Rep::Dense && RHS.R == Rep::Dense) {
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= RHS.Words[I];
    return *this;
  }
  std::vector<Range> SA, SB;
  adoptRuns(runIntersect(runView(SA), RHS.runView(SB)));
  return *this;
}

ClassSet &ClassSet::operator|=(const ClassSet &RHS) {
  assert(Universe == RHS.Universe && "universe mismatch");
  if (R == Rep::Dense && RHS.R == Rep::Dense) {
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] |= RHS.Words[I];
    return *this;
  }
  std::vector<Range> SA, SB;
  adoptRuns(runUnion(runView(SA), RHS.runView(SB)));
  return *this;
}

ClassSet &ClassSet::subtract(const ClassSet &RHS) {
  assert(Universe == RHS.Universe && "universe mismatch");
  if (R == Rep::Dense && RHS.R == Rep::Dense) {
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= ~RHS.Words[I];
    return *this;
  }
  std::vector<Range> SA, SB;
  adoptRuns(runSubtract(runView(SA), RHS.runView(SB)));
  return *this;
}

bool ClassSet::operator==(const ClassSet &RHS) const {
  if (Universe != RHS.Universe)
    return false;
  if (R == Rep::Dense && RHS.R == Rep::Dense)
    return Words == RHS.Words;
  std::vector<Range> SA, SB;
  return runView(SA) == RHS.runView(SB);
}

bool ClassSet::isSubsetOf(const ClassSet &RHS) const {
  assert(Universe == RHS.Universe && "universe mismatch");
  if (R == Rep::Dense && RHS.R == Rep::Dense) {
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if ((Words[I] & ~RHS.Words[I]) != 0)
        return false;
    return true;
  }
  // Each of our runs must fit inside a single run of RHS (RHS runs are
  // maximal, so a covered run cannot straddle two of them).
  std::vector<Range> SA, SB;
  const std::vector<Range> &AR = runView(SA), &BR = RHS.runView(SB);
  size_t J = 0;
  for (const Range &RA : AR) {
    while (J != BR.size() && BR[J].Hi <= RA.Lo)
      ++J;
    if (J == BR.size() || BR[J].Lo > RA.Lo || BR[J].Hi < RA.Hi)
      return false;
  }
  return true;
}

bool ClassSet::intersects(const ClassSet &RHS) const {
  assert(Universe == RHS.Universe && "universe mismatch");
  if (R == Rep::Dense && RHS.R == Rep::Dense) {
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if ((Words[I] & RHS.Words[I]) != 0)
        return true;
    return false;
  }
  std::vector<Range> SA, SB;
  const std::vector<Range> &AR = runView(SA), &BR = RHS.runView(SB);
  size_t I = 0, J = 0;
  while (I != AR.size() && J != BR.size()) {
    if (AR[I].Hi <= BR[J].Lo)
      ++I;
    else if (BR[J].Hi <= AR[I].Lo)
      ++J;
    else
      return true;
  }
  return false;
}

std::vector<ClassId> ClassSet::members() const {
  std::vector<ClassId> Out;
  Out.reserve(count());
  std::vector<Range> Scratch;
  for (const Range &Rg : runView(Scratch))
    for (uint32_t V = Rg.Lo; V != Rg.Hi; ++V)
      Out.push_back(ClassId(V));
  return Out;
}

ClassId ClassSet::getSingleElement() const {
  if (count() != 1)
    return ClassId();
  std::vector<Range> Scratch;
  return ClassId(runView(Scratch).front().Lo);
}

size_t ClassSet::hashValue() const {
  size_t H = Universe;
  std::vector<Range> Scratch;
  for (const Range &Rg : runView(Scratch)) {
    H = H * 1000003u + Rg.Lo;
    H = H * 1000003u + Rg.Hi;
  }
  return H;
}

std::vector<ClassSet::Range> ClassSet::runs() const {
  if (R == Rep::Interval)
    return Ranges;
  std::vector<Range> Out;
  runView(Out);
  return Out;
}

const std::vector<ClassSet::Range> &
ClassSet::runView(std::vector<Range> &Scratch) const {
  if (R == Rep::Interval)
    return Ranges;
  for (size_t WI = 0, E = Words.size(); WI != E; ++WI) {
    uint64_t W = Words[WI];
    while (W != 0) {
      uint32_t B = static_cast<uint32_t>(WI * 64) +
                   static_cast<uint32_t>(std::countr_zero(W));
      W &= W - 1;
      if (!Scratch.empty() && Scratch.back().Hi == B)
        Scratch.back().Hi = B + 1;
      else
        Scratch.push_back({B, B + 1});
    }
  }
  return Scratch;
}

size_t ClassSet::memoryBytes() const {
  return R == Rep::Dense ? Words.size() * sizeof(uint64_t)
                         : Ranges.size() * sizeof(Range);
}

void ClassSet::adoptRuns(std::vector<Range> Runs) {
  if (Runs.size() > maxRanges(Universe))
    assignDense(Runs);
  else
    assignIntervals(std::move(Runs));
}

void ClassSet::assignIntervals(std::vector<Range> Runs) {
  R = Rep::Interval;
  Words.clear();
  Ranges = std::move(Runs);
}

void ClassSet::assignDense(const std::vector<Range> &Runs) {
  R = Rep::Dense;
  Words.assign((Universe + 63) / 64, 0);
  for (const Range &Rg : Runs)
    for (uint32_t V = Rg.Lo; V != Rg.Hi; ++V)
      Words[V / 64] |= uint64_t(1) << (V % 64);
  Ranges.clear();
}

void ClassSet::convertToRepForTesting(Rep Target) {
  if (Target == Rep::Dense)
    assignDense(runs());
  else
    assignIntervals(runs());
}

std::string ClassSet::toString() const {
  std::ostringstream OS;
  OS << '{';
  bool First = true;
  for (ClassId C : members()) {
    if (!First)
      OS << ',';
    First = false;
    OS << C.value();
  }
  OS << '}';
  return OS.str();
}
