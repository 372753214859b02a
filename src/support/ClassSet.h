//===- support/ClassSet.h - Hybrid set over class ids ----------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ClassSet is the central value domain of the specialization framework: the
/// paper describes every specialization as "a tuple of class sets, one class
/// set per formal argument".
///
/// The representation is hybrid, chosen automatically so that a 10k-class
/// universe does not cost O(universe/8) bytes per set:
///
///   - Interval: a sorted vector of disjoint, non-adjacent half-open
///     [Lo, Hi) ranges.  The default: the empty set allocates nothing, and
///     cones under DFS preorder numbering, the full universe and small sets
///     are one or a few ranges regardless of class count.
///   - Dense:    the classic bit vector over ClassIds, used once a set needs
///     more than max(8, universe/64) ranges (past that the 8-byte ranges
///     outweigh the universe/8-byte vector); word-parallel fast paths kick
///     in when both operands are Dense.
///
/// All observable behavior — members(), operator==, hashValue(), every set
/// operation — is representation-independent; the representation is a pure
/// storage decision (exposed only through the *ForTesting hooks).
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_SUPPORT_CLASSSET_H
#define SELSPEC_SUPPORT_CLASSSET_H

#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace selspec {

/// A set of classes over a fixed universe of dense ClassIds.
///
/// All binary operations require both operands to have the same universe
/// size (they come from the same ClassHierarchy).
class ClassSet {
public:
  enum class Rep : uint8_t { Dense, Interval };

  /// Half-open id range [Lo, Hi); the unit of the Interval representation
  /// and of the canonical "run list" every representation can produce.
  struct Range {
    uint32_t Lo;
    uint32_t Hi;
    bool operator==(const Range &O) const { return Lo == O.Lo && Hi == O.Hi; }
  };

  ClassSet() = default;

  /// Creates an empty set over a universe of \p UniverseSize classes.
  /// An empty range list, so it allocates nothing until elements arrive.
  explicit ClassSet(unsigned UniverseSize) : Universe(UniverseSize) {}

  /// Returns the empty set over \p UniverseSize classes.
  static ClassSet empty(unsigned UniverseSize) {
    return ClassSet(UniverseSize);
  }

  /// Returns the full set (all classes) over \p UniverseSize classes.
  /// One interval, independent of the universe size.
  static ClassSet all(unsigned UniverseSize);

  /// Returns the singleton set {C}.
  static ClassSet single(unsigned UniverseSize, ClassId C);

  /// Builds a set from a canonical run list (sorted, disjoint, non-adjacent,
  /// non-empty ranges), picking the densest-appropriate representation.
  static ClassSet fromRuns(unsigned UniverseSize, std::vector<Range> Runs);

  unsigned universeSize() const { return Universe; }

  bool contains(ClassId C) const;
  void insert(ClassId C);
  void remove(ClassId C);

  bool isEmpty() const;

  /// Number of classes in the set.
  unsigned count() const;

  /// True when the set contains every class in the universe.
  bool isAll() const;

  /// Pointwise operations (operands must share a universe).
  ClassSet &operator&=(const ClassSet &RHS);
  ClassSet &operator|=(const ClassSet &RHS);
  /// Set difference: removes all members of \p RHS.
  ClassSet &subtract(const ClassSet &RHS);

  friend ClassSet operator&(ClassSet A, const ClassSet &B) { return A &= B; }
  friend ClassSet operator|(ClassSet A, const ClassSet &B) { return A |= B; }

  /// Representation-independent equality: {0,1,2} compares equal whether it
  /// is stored as words or as the range [0,3).
  bool operator==(const ClassSet &RHS) const;
  bool operator!=(const ClassSet &RHS) const { return !(*this == RHS); }

  /// True when this set is a subset of \p RHS.
  bool isSubsetOf(const ClassSet &RHS) const;

  /// True when the two sets share at least one class.
  bool intersects(const ClassSet &RHS) const;

  /// Returns the members in increasing ClassId order.
  std::vector<ClassId> members() const;

  /// If the set is a singleton, returns its sole member; otherwise an
  /// invalid ClassId.
  ClassId getSingleElement() const;

  /// Stable, representation-independent hash usable for unordered
  /// containers of SpecTuples.
  size_t hashValue() const;

  /// The canonical run list: maximal [Lo, Hi) ranges in increasing order.
  /// Every representation produces the identical list for equal sets.
  std::vector<Range> runs() const;

  /// Heap bytes of the active storage (the scaling benchmarks' cone-memory
  /// metric; excludes the fixed object header).
  size_t memoryBytes() const;

  /// Current storage representation (test/benchmark introspection).
  Rep representation() const { return R; }

  /// Forces a specific representation without changing the value.  Test
  /// hook for the differential property tests; any set is expressible in
  /// any representation (Interval may need many ranges).
  void convertToRepForTesting(Rep Target);

  /// Renders as "{0,3,7}" using raw ids (names require a hierarchy; see
  /// ClassHierarchy::setToString).
  std::string toString() const;

private:
  /// Ranges an Interval set may hold before it becomes Dense.
  static size_t maxRanges(unsigned Universe) {
    return Universe / 64 < 8 ? 8 : Universe / 64;
  }

  /// The canonical run list read in place: Ranges when Interval, else
  /// \p Scratch filled from the bit vector.
  const std::vector<Range> &runView(std::vector<Range> &Scratch) const;
  /// Stores \p Runs as Interval, or as Dense past maxRanges.
  void adoptRuns(std::vector<Range> Runs);
  void assignIntervals(std::vector<Range> Runs);
  void assignDense(const std::vector<Range> &Runs);

  /// Active representation; exactly one of the vectors below is in use.
  Rep R = Rep::Interval;
  /// Dense: bit vector, (Universe+63)/64 words, tail bits always clear.
  std::vector<uint64_t> Words;
  /// Interval: canonical run list (sorted, disjoint, non-adjacent).
  std::vector<Range> Ranges;
  unsigned Universe = 0;
};

} // namespace selspec

#endif // SELSPEC_SUPPORT_CLASSSET_H
