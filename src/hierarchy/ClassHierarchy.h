//===- hierarchy/ClassHierarchy.h - Class inheritance DAG ------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program's class inheritance DAG (multiple inheritance is allowed, as
/// in Cecil).  After finalize(), constant-time subclass tests and cone
/// queries are available; both the specialization algorithm and class
/// hierarchy analysis are built on cones ("C and all its descendants").
///
/// finalize() assigns every class a DFS preorder number over the
/// inheritance DAG (first-visit order on a spanning tree rooted at Any)
/// and represents each cone as a short list of half-open preorder
/// intervals: a tree-shaped subhierarchy is exactly one interval, and a
/// multiply-inherited class contributes the union of its preorder
/// subtree intervals to each ancestor.  isSubclassOf is then two integer
/// comparisons in the single-interval common case, and total cone storage
/// is O(classes + diamond edges) instead of the O(classes²/8) bytes the
/// previous materialized bit-vector cones cost.  cone() builds a (cheap,
/// hybrid-representation) ClassSet view on demand, so all set-algebra
/// clients keep working unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_HIERARCHY_CLASSHIERARCHY_H
#define SELSPEC_HIERARCHY_CLASSHIERARCHY_H

#include "lang/Symbol.h"
#include "support/ClassSet.h"
#include "support/Ids.h"

#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace selspec {

/// Per-class record.
struct ClassInfo {
  Symbol Name;
  std::vector<ClassId> Parents;
  std::vector<ClassId> Children;
  /// Slots declared directly on this class.
  std::vector<Symbol> OwnSlots;
  /// Full object layout: inherited slots (parent order) then own slots,
  /// deduplicated.  Computed by finalize().
  std::vector<Symbol> Layout;
};

class ClassHierarchy {
public:
  ClassHierarchy() = default;

  /// Adds a class.  \p Parents may be empty only for the root (Any), which
  /// must be the first class added; every other parentless class is given
  /// Any as its parent.  Returns an invalid id and leaves the hierarchy
  /// unchanged if \p Name is already defined.
  ClassId addClass(Symbol Name, const std::vector<ClassId> &Parents,
                   std::vector<Symbol> OwnSlots = {});

  /// Marks \p C sealed: no user class may subclass it.  The builtin value
  /// classes (Int, Bool, String, Nil, Array, Closure) are sealed, which is
  /// why even without whole-program analysis the compiler may treat an
  /// @Int formal as exactly Int.
  void seal(ClassId C) { Sealed.insert(C.value()); }
  bool isSealed(ClassId C) const { return Sealed.count(C.value()) != 0; }

  /// Returns the class named \p Name, or an invalid id.
  ClassId lookup(Symbol Name) const;

  unsigned size() const { return static_cast<unsigned>(Classes.size()); }
  const ClassInfo &info(ClassId C) const { return Classes[C.value()]; }
  ClassId root() const { return ClassId(0); }

  /// Precomputes preorder numbering, cone intervals, and layouts.  Must be
  /// called after the last addClass and before any query below; adding
  /// classes afterwards requires calling finalize() again.
  void finalize();

  bool isFinalized() const { return Finalized; }

  /// Monotonic count of completed finalize() calls.  A client that caches
  /// cone-derived state can stamp it with this and detect staleness after
  /// a later addClass+finalize; queries between addClass and the next
  /// finalize trap deterministically in every build mode.
  uint64_t finalizeGeneration() const { return FinalizeGen; }

  /// Reflexive subclass test: A == B or A inherits (transitively) from B.
  /// Two integer comparisons when B's cone is a single preorder interval
  /// (always true for tree-shaped subhierarchies).
  bool isSubclassOf(ClassId A, ClassId B) const {
    requireFinalized("isSubclassOf");
    uint32_t P = PreOf[A.value()];
    uint32_t Begin = ConeBegin[B.value()];
    uint32_t End = ConeBegin[B.value() + 1];
    if (End - Begin == 1)
      return P >= ConePool[Begin].Lo && P < ConePool[Begin].Hi;
    for (uint32_t I = Begin; I != End; ++I)
      if (P >= ConePool[I].Lo && P < ConePool[I].Hi)
        return true;
    return false;
  }

  /// The cone of \p C: the set {C} ∪ descendants(C), materialized on
  /// demand as a hybrid ClassSet (interval-backed, so a tree cone costs
  /// O(1) bytes regardless of its member count).
  ClassSet cone(ClassId C) const;

  /// Members of cone(C) without building a set.
  unsigned coneSize(ClassId C) const;

  /// Preorder intervals backing cone(C) (introspection for tests and the
  /// scaling benchmark; 1 for every tree-shaped cone).
  unsigned coneIntervalCount(ClassId C) const {
    requireFinalized("coneIntervalCount");
    return ConeBegin[C.value() + 1] - ConeBegin[C.value()];
  }

  /// The preorder intervals themselves: half-open, sorted and disjoint
  /// (sweeping them classifies every class at once; see DispatchTable).
  std::span<const ClassSet::Range> coneIntervals(ClassId C) const {
    requireFinalized("coneIntervals");
    return {ConePool.data() + ConeBegin[C.value()],
            ConePool.data() + ConeBegin[C.value() + 1]};
  }

  /// \p S in preorder space: sorted, disjoint, non-adjacent preorder
  /// intervals, like coneIntervals().  Linear in S's runs when ClassId
  /// order is preorder, in its members otherwise.
  std::vector<ClassSet::Range> preorderRuns(const ClassSet &S) const;

  /// The class numbered \p Pre in DFS preorder (inverse of the numbering
  /// coneIntervals() is expressed in).
  ClassId classAtPreorder(uint32_t Pre) const {
    requireFinalized("classAtPreorder");
    return ClassId(ClassAtPre[Pre]);
  }

  /// Total bytes of the preorder/cone-interval index (the hierarchy-scale
  /// benchmark's cone-memory metric).
  size_t coneIndexBytes() const;

  /// The set of every class (the universe).
  const ClassSet &allClasses() const {
    requireFinalized("allClasses");
    return UniverseSet;
  }

  /// Index of slot \p SlotName in the layout of \p C, or -1.
  int slotIndex(ClassId C, Symbol SlotName) const;

  /// True when \p C has no children (useful to pick concrete classes).
  bool isLeaf(ClassId C) const { return info(C).Children.empty(); }

  /// Only concrete classes can be instantiated at run time; by convention
  /// every class is concrete in Mica (abstract use is just "never
  /// instantiated"), so this returns the universe.
  const ClassSet &concreteClasses() const { return allClasses(); }

  /// Renders a ClassSet with class names: "{Set,ListSet}".
  std::string setToString(const ClassSet &S, const SymbolTable &Syms) const;

private:
  /// Checked in every build mode: querying a non-finalized hierarchy was
  /// an out-of-bounds read in Release before; now it is a deterministic
  /// diagnostic + trap ("diagnostic, trap, or result — never a crash").
  void requireFinalized(const char *Query) const {
    if (!Finalized)
      finalizeViolation(Query);
  }
  [[noreturn]] void finalizeViolation(const char *Query) const;

  std::vector<ClassInfo> Classes;
  std::unordered_map<Symbol, ClassId> ByName;
  /// PreOf[classId] = DFS preorder number; ClassAtPre is its inverse.
  std::vector<uint32_t> PreOf;
  std::vector<uint32_t> ClassAtPre;
  /// Pooled per-class cone intervals in preorder space: class C owns
  /// ConePool[ConeBegin[C] .. ConeBegin[C+1]).
  std::vector<uint32_t> ConeBegin;
  std::vector<ClassSet::Range> ConePool;
  /// True when addClass order happened to equal preorder, letting cone()
  /// reuse the preorder intervals as ClassId intervals directly.
  bool IdOrderIsPreorder = false;
  /// Cached universe set (one interval).
  ClassSet UniverseSet;
  /// Per-class slot index maps; computed by finalize().
  std::vector<std::unordered_map<Symbol, int>> SlotIndex;
  std::unordered_set<uint32_t> Sealed;
  bool Finalized = false;
  uint64_t FinalizeGen = 0;
};

} // namespace selspec

#endif // SELSPEC_HIERARCHY_CLASSHIERARCHY_H
