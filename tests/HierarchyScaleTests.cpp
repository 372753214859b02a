//===- tests/HierarchyScaleTests.cpp - Hierarchy-axis scaling tests -------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the hierarchy-axis scaling work: the hybrid ClassSet
/// representations (differential against a std::set model, all three
/// representations forced through the test hook), interval cones against
/// a transitive-closure reference over randomized DAGs, the
/// DispatchTable cell-cap regression (just-over-cap must fall back while
/// just-under-cap materializes, both agreeing with Program::dispatch),
/// the all-build-modes finalize trap, the Rng rejection-sampling rewrite
/// (frozen legacy sequence + uniformity), and the structured hierarchy
/// synthesizer (determinism, single-interval cones, cross-config/tier
/// output equality).  The same random DAGs drive a differential of the
/// lazily built DispatchTables against Program::dispatch (answers and
/// per-position group counts).  Tables built for a CompiledProgram carry
/// the selected version in every cell: differentials against
/// Program::dispatch + selectVersion over every Table 2 program and
/// configuration and over random DAGs with synthesized version tuples,
/// the uint16_t group-id overflow fallback, and interpreters over
/// method-only or foreign tables matching the snapshot path.  Three
/// eight-thread races check that a table is built and published once
/// per generic.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "bytecode/BytecodeInterpreter.h"
#include "driver/Snapshot.h"
#include "fuzz/ProgramGen.h"
#include "hierarchy/ClassHierarchy.h"
#include "runtime/DispatchTable.h"
#include "support/ClassSet.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace selspec;
using namespace selspec::test;

namespace {

//===----------------------------------------------------------------------===//
// Hybrid ClassSet: differential property tests
//===----------------------------------------------------------------------===//

constexpr ClassSet::Rep AllReps[] = {ClassSet::Rep::Dense,
                                     ClassSet::Rep::Sparse,
                                     ClassSet::Rep::Interval};

/// Checks every observable of \p S against the model \p M, including that
/// forcing each representation preserves value, equality, and hash.
void expectMatchesModel(const ClassSet &S, const std::set<uint32_t> &M,
                        unsigned Universe, const char *Ctx) {
  ASSERT_EQ(S.universeSize(), Universe) << Ctx;
  EXPECT_EQ(S.count(), M.size()) << Ctx;
  EXPECT_EQ(S.isEmpty(), M.empty()) << Ctx;
  EXPECT_EQ(S.isAll(), M.size() == Universe) << Ctx;

  std::vector<ClassId> Members = S.members();
  ASSERT_EQ(Members.size(), M.size()) << Ctx;
  auto It = M.begin();
  for (size_t I = 0; I != Members.size(); ++I, ++It)
    EXPECT_EQ(Members[I].value(), *It) << Ctx << " member " << I;

  for (uint32_t V : {0u, 1u, Universe / 2, Universe - 1})
    EXPECT_EQ(S.contains(ClassId(V)), M.count(V) != 0)
        << Ctx << " contains " << V;

  if (M.size() == 1)
    EXPECT_EQ(S.getSingleElement().value(), *M.begin()) << Ctx;
  else
    EXPECT_FALSE(S.getSingleElement().isValid()) << Ctx;

  // runs() must reconstruct exactly the member list.
  std::vector<uint32_t> FromRuns;
  for (const ClassSet::Range &Rg : S.runs()) {
    EXPECT_LT(Rg.Lo, Rg.Hi) << Ctx;
    for (uint32_t V = Rg.Lo; V != Rg.Hi; ++V)
      FromRuns.push_back(V);
  }
  EXPECT_EQ(FromRuns, std::vector<uint32_t>(M.begin(), M.end())) << Ctx;

  // Every representation of the same value is ==, hashes identically, and
  // observes identically.
  for (ClassSet::Rep Target : AllReps) {
    ClassSet Copy = S;
    Copy.convertToRepForTesting(Target);
    EXPECT_EQ(Copy.representation(), Target) << Ctx;
    EXPECT_EQ(Copy, S) << Ctx;
    EXPECT_EQ(Copy.hashValue(), S.hashValue()) << Ctx;
    EXPECT_EQ(Copy.count(), S.count()) << Ctx;
    EXPECT_TRUE(Copy.isSubsetOf(S) && S.isSubsetOf(Copy)) << Ctx;
  }
}

std::set<uint32_t> modelIntersect(const std::set<uint32_t> &A,
                                  const std::set<uint32_t> &B) {
  std::set<uint32_t> Out;
  for (uint32_t V : A)
    if (B.count(V))
      Out.insert(V);
  return Out;
}

std::set<uint32_t> modelUnion(const std::set<uint32_t> &A,
                              const std::set<uint32_t> &B) {
  std::set<uint32_t> Out = A;
  Out.insert(B.begin(), B.end());
  return Out;
}

std::set<uint32_t> modelSubtract(const std::set<uint32_t> &A,
                                 const std::set<uint32_t> &B) {
  std::set<uint32_t> Out;
  for (uint32_t V : A)
    if (!B.count(V))
      Out.insert(V);
  return Out;
}

TEST(HybridClassSetTest, DifferentialAgainstModel) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    fuzz::Rng R(Seed);
    const unsigned U = 8 + R.below(160);
    ClassSet A(U), B(U);
    std::set<uint32_t> MA, MB;
    std::string Ctx = "seed " + std::to_string(Seed);

    for (unsigned Op = 0; Op != 200; ++Op) {
      switch (R.below(12)) {
      case 0:
      case 1: {
        uint32_t V = R.below(U);
        A.insert(ClassId(V));
        MA.insert(V);
        break;
      }
      case 2: {
        uint32_t V = R.below(U);
        A.remove(ClassId(V));
        MA.erase(V);
        break;
      }
      case 3: {
        uint32_t V = R.below(U);
        B.insert(ClassId(V));
        MB.insert(V);
        break;
      }
      case 4: {
        uint32_t V = R.below(U);
        B.remove(ClassId(V));
        MB.erase(V);
        break;
      }
      case 5:
        A &= B;
        MA = modelIntersect(MA, MB);
        break;
      case 6:
        A |= B;
        MA = modelUnion(MA, MB);
        break;
      case 7:
        A.subtract(B);
        MA = modelSubtract(MA, MB);
        break;
      case 8: {
        bool ModelSubset = std::includes(MB.begin(), MB.end(), MA.begin(),
                                         MA.end());
        EXPECT_EQ(A.isSubsetOf(B), ModelSubset) << Ctx;
        EXPECT_EQ(A.intersects(B), !modelIntersect(MA, MB).empty()) << Ctx;
        EXPECT_EQ(A == B, MA == MB) << Ctx;
        break;
      }
      case 9:
        B = ClassSet::all(U);
        MB.clear();
        for (uint32_t V = 0; V != U; ++V)
          MB.insert(V);
        break;
      case 10: {
        uint32_t V = R.below(U);
        B = ClassSet::single(U, ClassId(V));
        MB = {V};
        break;
      }
      case 11: {
        // Force a random representation mid-sequence: the value must be
        // unaffected and later ops must keep agreeing with the model.
        ClassSet &Target = R.chance(50) ? A : B;
        Target.convertToRepForTesting(AllReps[R.below(3)]);
        break;
      }
      }
      expectMatchesModel(A, MA, U, Ctx.c_str());
      expectMatchesModel(B, MB, U, Ctx.c_str());
    }
  }
}

TEST(HybridClassSetTest, EqualityAndHashAcrossRepresentations) {
  const unsigned U = 64;
  ClassSet S = ClassSet::fromRuns(U, {{2, 5}, {7, 8}, {30, 40}});
  std::vector<ClassSet> Copies;
  for (ClassSet::Rep Target : AllReps) {
    ClassSet C = S;
    C.convertToRepForTesting(Target);
    Copies.push_back(C);
  }
  for (const ClassSet &X : Copies)
    for (const ClassSet &Y : Copies) {
      EXPECT_EQ(X, Y);
      EXPECT_EQ(X.hashValue(), Y.hashValue());
    }
  // A genuinely different set differs in every representation pairing.
  ClassSet Other = ClassSet::fromRuns(U, {{2, 5}, {7, 9}, {30, 40}});
  for (ClassSet::Rep Target : AllReps) {
    ClassSet C = Other;
    C.convertToRepForTesting(Target);
    for (const ClassSet &X : Copies)
      EXPECT_NE(X, C);
  }
}

TEST(HybridClassSetTest, RepresentationAutoSelection) {
  // Empty sets allocate nothing and stay Sparse.
  ClassSet Empty(10000);
  EXPECT_EQ(Empty.representation(), ClassSet::Rep::Sparse);
  EXPECT_EQ(Empty.memoryBytes(), 0u);

  // The universe is one interval regardless of size.
  ClassSet All = ClassSet::all(10000);
  EXPECT_EQ(All.representation(), ClassSet::Rep::Interval);
  EXPECT_TRUE(All.isAll());
  EXPECT_LE(All.memoryBytes(), 64u);

  // A dense scatter over a large universe escalates to Dense.
  ClassSet Scatter(10000);
  for (uint32_t V = 0; V < 10000; V += 2)
    Scatter.insert(ClassId(V));
  EXPECT_EQ(Scatter.representation(), ClassSet::Rep::Dense);
  EXPECT_EQ(Scatter.count(), 5000u);
}

//===----------------------------------------------------------------------===//
// Interval cones vs. transitive-closure reference over random DAGs
//===----------------------------------------------------------------------===//

/// A random DAG of 20..119 classes: class i > 0 picks one or (30%) two
/// parents among 0..i-1, so diamonds are common.  ParentsOf[i] lists them.
std::vector<std::vector<unsigned>> randomDag(fuzz::Rng &R) {
  const unsigned N = 20 + R.below(100);
  std::vector<std::vector<unsigned>> ParentsOf(N);
  for (unsigned I = 1; I != N; ++I) {
    unsigned P1 = R.below(I);
    ParentsOf[I].push_back(P1);
    if (I > 1 && R.chance(30)) {
      unsigned P2 = R.below(I);
      if (P2 != P1)
        ParentsOf[I].push_back(P2);
    }
  }
  return ParentsOf;
}

TEST(IntervalConeTest, MatchesTransitiveClosureOnRandomHierarchies) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    fuzz::Rng R(Seed);
    SymbolTable Syms;
    ClassHierarchy H;
    const std::vector<std::vector<unsigned>> ParentsOf = randomDag(R);
    const unsigned N = static_cast<unsigned>(ParentsOf.size());
    H.addClass(Syms.intern("C0"), {});
    for (unsigned I = 1; I != N; ++I) {
      std::vector<ClassId> Ps;
      for (unsigned P : ParentsOf[I])
        Ps.push_back(ClassId(P));
      ASSERT_TRUE(
          H.addClass(Syms.intern("C" + std::to_string(I)), Ps).isValid());
    }
    H.finalize();

    // Reference: IsSub[i][j] by forward propagation over ancestors.
    std::vector<std::vector<bool>> IsSub(N, std::vector<bool>(N, false));
    for (unsigned I = 0; I != N; ++I) {
      IsSub[I][I] = true;
      for (unsigned P : ParentsOf[I])
        for (unsigned J = 0; J != N; ++J)
          if (IsSub[P][J])
            IsSub[I][J] = true;
    }

    for (unsigned I = 0; I != N; ++I)
      for (unsigned J = 0; J != N; ++J)
        EXPECT_EQ(H.isSubclassOf(ClassId(I), ClassId(J)), IsSub[I][J])
            << "seed " << Seed << " pair (" << I << "," << J << ")";

    for (unsigned J = 0; J != N; ++J) {
      ClassSet Cone = H.cone(ClassId(J));
      ClassSet Reference(N);
      unsigned RefCount = 0;
      for (unsigned I = 0; I != N; ++I)
        if (IsSub[I][J]) {
          Reference.insert(ClassId(I));
          ++RefCount;
        }
      EXPECT_EQ(Cone, Reference) << "seed " << Seed << " cone " << J;
      EXPECT_EQ(Cone.hashValue(), Reference.hashValue())
          << "seed " << Seed << " cone " << J;
      EXPECT_EQ(H.coneSize(ClassId(J)), RefCount)
          << "seed " << Seed << " cone " << J;
      EXPECT_GE(H.coneIntervalCount(ClassId(J)), 1u);
    }

    EXPECT_TRUE(H.allClasses().isAll());
    EXPECT_EQ(H.allClasses().count(), N);
    EXPECT_EQ(H.cone(H.root()), H.allClasses()) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// DispatchTable cell-cap regression
//===----------------------------------------------------------------------===//

const char *CapProgram = R"(
class A; class A1 isa A; class A2 isa A; class A3 isa A;
class B; class B1 isa B; class B2 isa B; class B3 isa B;
method g(x@A1, y@B1) { 1; }
method g(x@A2, y@B2) { 2; }
method g(x@A3, y@B3) { 3; }
method main(n@Int) { n; }
)";

/// Both dispatched positions have 4 behavioral groups ({A1},{A2},{A3},
/// everything else), so the compressed table is exactly 16 cells.
TEST(DispatchTableCapTest, JustUnderCapMaterializesJustOverFallsBack) {
  std::unique_ptr<Program> P = buildProgram({CapProgram});
  ASSERT_TRUE(P);
  GenericId G = P->lookupGeneric(P->Syms.find("g"), 2);
  ASSERT_TRUE(G.isValid());

  DispatchTable AtCap(*P, G, /*CellCap=*/16);
  EXPECT_TRUE(AtCap.materialized());
  EXPECT_EQ(AtCap.tableSize(), 16u);
  EXPECT_EQ(AtCap.numDispatchedPositions(), 2u);
  EXPECT_EQ(AtCap.numGroups(0), 4u);
  EXPECT_EQ(AtCap.numGroups(1), 4u);

  // One cell over: the table must fall back, not abort or truncate.
  DispatchTable OverCap(*P, G, /*CellCap=*/15);
  EXPECT_FALSE(OverCap.materialized());
  EXPECT_EQ(OverCap.tableSize(), 0u);

  // The default cap is far above 16 cells.
  DispatchTable Default(*P, G);
  EXPECT_TRUE(Default.materialized());

  // Materialized or not, lookup agrees with Program::dispatch on every
  // class pair (including no-applicable-method combinations).
  std::vector<ClassId> Cs;
  for (const char *Name : {"A", "A1", "A2", "A3", "B", "B1", "B2", "B3"})
    Cs.push_back(P->Classes.lookup(P->Syms.find(Name)));
  for (ClassId X : Cs)
    for (ClassId Y : Cs) {
      MethodId Want = P->dispatch(G, {X, Y});
      EXPECT_EQ(AtCap.lookup({X, Y}), Want);
      EXPECT_EQ(OverCap.lookup({X, Y}), Want);
      EXPECT_EQ(Default.lookup({X, Y}), Want);
    }
}

//===----------------------------------------------------------------------===//
// Finalization is checked in every build mode
//===----------------------------------------------------------------------===//

TEST(ClassHierarchyDeathTest, QueryBeforeFinalizeTraps) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SymbolTable Syms;
  ClassHierarchy H;
  ClassId Any = H.addClass(Syms.intern("Any"), {});
  ASSERT_TRUE(Any.isValid());
  EXPECT_DEATH(H.isSubclassOf(Any, Any), "before finalize");
  EXPECT_DEATH(H.allClasses(), "before finalize");
}

TEST(ClassHierarchyDeathTest, AddClassInvalidatesFinalize) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SymbolTable Syms;
  ClassHierarchy H;
  ClassId Any = H.addClass(Syms.intern("Any"), {});
  H.finalize();
  EXPECT_TRUE(H.isSubclassOf(Any, Any));
  ClassId Later = H.addClass(Syms.intern("Later"), {Any});
  ASSERT_TRUE(Later.isValid());
  EXPECT_DEATH(H.isSubclassOf(Later, Any), "after addClass");
}

TEST(ClassHierarchyTest, FinalizeGenerationStamps) {
  SymbolTable Syms;
  ClassHierarchy H;
  ClassId Any = H.addClass(Syms.intern("Any"), {});
  EXPECT_EQ(H.finalizeGeneration(), 0u);
  EXPECT_FALSE(H.isFinalized());
  H.finalize();
  EXPECT_EQ(H.finalizeGeneration(), 1u);
  EXPECT_TRUE(H.isFinalized());
  H.addClass(Syms.intern("Later"), {Any});
  EXPECT_FALSE(H.isFinalized());
  EXPECT_EQ(H.finalizeGeneration(), 1u);
  H.finalize();
  EXPECT_EQ(H.finalizeGeneration(), 2u);
  EXPECT_TRUE(H.isFinalized());
}

//===----------------------------------------------------------------------===//
// Rng: frozen legacy sequence + rejection-sampling uniformity
//===----------------------------------------------------------------------===//

/// The pre-rejection-sampling sequence (next() % N) is frozen: logged
/// stress seeds must replay their historical programs.  Golden values
/// were captured from the original implementation.
TEST(RngTest, LegacySequenceIsFrozen) {
  fuzz::Rng R(0x5E15EC1AFEULL);
  const uint32_t Bounds[] = {10, 100, 7, 1000000, 3, 2, 4096, 999999937};
  const uint32_t Want[] = {7u, 33u, 5u, 725477u, 2u, 1u, 1643u, 437043025u};
  for (size_t I = 0; I != std::size(Bounds); ++I)
    EXPECT_EQ(R.below(Bounds[I]), Want[I]) << "draw " << I;

  fuzz::Rng R2(42);
  const uint32_t Want2[] = {13u, 91u, 58u, 64u, 50u, 62u};
  for (uint32_t W : Want2)
    EXPECT_EQ(R2.below(100), W);

  // Structurally: the first accepted draw equals the raw splitmix64
  // output mod N, for any seed and bound.
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    fuzz::Rng A(Seed), B(Seed);
    uint32_t N = 1 + static_cast<uint32_t>((Seed * 7919) % 100000);
    EXPECT_EQ(A.below(N), B.next() % N) << "seed " << Seed;
  }
}

TEST(RngTest, BelowIsStatisticallyUniform) {
  fuzz::Rng R(7);
  // Small bound: 30000 draws over 3 buckets; each expectation 10000,
  // sigma ~81, so +/-500 is a >6-sigma band (never flakes).
  unsigned Buckets[3] = {0, 0, 0};
  for (unsigned I = 0; I != 30000; ++I)
    ++Buckets[R.below(3)];
  for (unsigned Count : Buckets) {
    EXPECT_GT(Count, 9500u);
    EXPECT_LT(Count, 10500u);
  }

  // Large bound (near 2^32, where the discarded top residue band is
  // widest): the sample mean of 20000 draws must sit within 2% of N/2
  // (sigma of the mean ~8.2e6, the band is ~5 sigma).
  const uint32_t N = 4000000000u;
  double Sum = 0;
  for (unsigned I = 0; I != 20000; ++I)
    Sum += R.below(N);
  double Mean = Sum / 20000.0;
  EXPECT_GT(Mean, double(N) / 2 * 0.98);
  EXPECT_LT(Mean, double(N) / 2 * 1.02);
}

//===----------------------------------------------------------------------===//
// Structured hierarchy synthesizer
//===----------------------------------------------------------------------===//

TEST(HierarchySynthesizerTest, Deterministic) {
  fuzz::HierarchySpec Spec;
  Spec.Classes = 80;
  Spec.Seed = 1234;
  EXPECT_EQ(fuzz::generateHierarchyProgram(Spec),
            fuzz::generateHierarchyProgram(Spec));
  fuzz::HierarchySpec Other = Spec;
  Other.Seed = 1235;
  EXPECT_NE(fuzz::generateHierarchyProgram(Spec),
            fuzz::generateHierarchyProgram(Other));
}

TEST(HierarchySynthesizerTest, TreeConesAreSingleIntervals) {
  fuzz::HierarchySpec Spec;
  Spec.Classes = 120;
  Spec.MultiParentPercent = 0;
  Spec.Seed = 7;
  std::unique_ptr<Program> P =
      buildProgram({fuzz::generateHierarchyProgram(Spec)});
  ASSERT_TRUE(P);
  const ClassHierarchy &H = P->Classes;
  ASSERT_GE(H.size(), Spec.Classes);
  for (unsigned I = 0; I != H.size(); ++I)
    EXPECT_EQ(H.coneIntervalCount(ClassId(I)), 1u)
        << "class " << I << " cone is not a single preorder interval";
}

TEST(HierarchySynthesizerTest, DiamondHierarchyResolvesAndRuns) {
  fuzz::HierarchySpec Spec;
  Spec.Classes = 100;
  Spec.MultiParentPercent = 40;
  Spec.MethodLeaves = 6;
  Spec.Generics = 2;
  Spec.Seed = 11;
  std::string Err;
  auto WB = Workbench::fromSources({fuzz::generateHierarchyProgram(Spec)},
                                   Err, /*WithStdlib=*/false);
  ASSERT_TRUE(WB) << Err;
  auto R = WB->runConfig(Config::Base, /*Input=*/200, Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(R->Trap, TrapKind::None);
  EXPECT_FALSE(R->Output.empty());
}

TEST(HierarchySynthesizerTest, IdenticalOutputAcrossConfigsAndTiers) {
  fuzz::HierarchySpec Spec;
  Spec.Classes = 60;
  Spec.Depth = 6;
  Spec.Fanout = 4;
  Spec.MethodLeaves = 8;
  Spec.Generics = 2;
  Spec.Seed = 99;
  std::string Err;
  auto WB = Workbench::fromSources({fuzz::generateHierarchyProgram(Spec)},
                                   Err, /*WithStdlib=*/false);
  ASSERT_TRUE(WB) << Err;
  ASSERT_TRUE(WB->collectProfile(/*Input=*/200, Err)) << Err;

  std::string Reference;
  for (ExecTier Tier : {ExecTier::Bytecode, ExecTier::Ast}) {
    WB->setTier(Tier);
    for (Config C : {Config::Base, Config::Cust, Config::CustMM,
                     Config::CHA, Config::Selective}) {
      auto R = WB->runConfig(C, /*Input=*/500, Err);
      ASSERT_TRUE(R) << configName(C) << "/" << tierName(Tier) << ": "
                     << Err;
      EXPECT_EQ(R->Trap, TrapKind::None)
          << configName(C) << "/" << tierName(Tier);
      // The 500 iterations x 2 generics megamorphic dispatches can never
      // be statically bound, so every configuration retains at least
      // those 1000 (CHA binds everything else and hits exactly 1000).
      EXPECT_GE(R->Run.totalDispatches(), 1000u)
          << configName(C) << "/" << tierName(Tier);
      if (Reference.empty())
        Reference = R->Output;
      else
        EXPECT_EQ(R->Output, Reference)
            << configName(C) << "/" << tierName(Tier);
    }
  }
  EXPECT_FALSE(Reference.empty());
}

//===----------------------------------------------------------------------===//
// DispatchTables: the dispatch path against the Program::dispatch oracle
//===----------------------------------------------------------------------===//

/// Arities of the generics g0..g6 that randomDispatchProgram declares.
constexpr unsigned RandomGenericArity[] = {1, 1, 1, 2, 2, 3, 3};

/// Mica source for the hierarchy \p ParentsOf (class Ci for node i) plus
/// generics g0..g6 of 1..10 methods each, whose specializers are random
/// classes; at multi-argument positions one in four is unspecialized.
/// Ambiguous tuples are kept: the tables must agree on them too.
std::string randomDispatchProgram(
    fuzz::Rng &R, const std::vector<std::vector<unsigned>> &ParentsOf) {
  const unsigned N = static_cast<unsigned>(ParentsOf.size());
  std::string Src = "class C0;\n";
  for (unsigned I = 1; I != N; ++I) {
    Src += "class C" + std::to_string(I) + " isa ";
    for (size_t K = 0; K != ParentsOf[I].size(); ++K)
      Src += (K ? ", C" : "C") + std::to_string(ParentsOf[I][K]);
    Src += ";\n";
  }
  for (unsigned GI = 0; GI != std::size(RandomGenericArity); ++GI) {
    const unsigned Arity = RandomGenericArity[GI];
    std::set<std::string> Seen;
    const unsigned NumMethods = 1 + R.below(10);
    for (unsigned M = 0; M != NumMethods; ++M) {
      std::string Formals;
      for (unsigned A = 0; A != Arity; ++A) {
        Formals += (A ? ", x" : "x") + std::to_string(A);
        if (Arity == 1 || !R.chance(25))
          Formals += "@C" + std::to_string(R.below(N));
      }
      if (Seen.insert(Formals).second)
        Src += "method g" + std::to_string(GI) + "(" + Formals + ") { " +
               std::to_string(M) + "; }\n";
    }
  }
  Src += "method main(n@Int) { n; }\n";
  return Src;
}

TEST(DispatchTablesTest, MatchesProgramDispatchOnRandomDags) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    fuzz::Rng R(Seed);
    const std::vector<std::vector<unsigned>> ParentsOf = randomDag(R);
    std::unique_ptr<Program> P =
        buildProgram({randomDispatchProgram(R, ParentsOf)});
    ASSERT_TRUE(P) << "seed " << Seed;
    const ClassHierarchy &H = P->Classes;
    const unsigned U = H.size();
    DispatchTables Tables(*P);

    for (unsigned GI = 0; GI != std::size(RandomGenericArity); ++GI) {
      const unsigned Arity = RandomGenericArity[GI];
      GenericId G =
          P->lookupGeneric(P->Syms.find("g" + std::to_string(GI)), Arity);
      ASSERT_TRUE(G.isValid());
      const GenericInfo &Info = P->generic(G);
      const DispatchTable &T = Tables.table(G);
      ASSERT_TRUE(T.materialized());

      // Each dispatched position has as many groups as there are distinct
      // applicability patterns over the methods, counted class by class.
      unsigned Dispatched = 0;
      size_t Cells = 1;
      for (unsigned Pos = 0; Pos != Arity; ++Pos) {
        bool Constrained = false;
        for (MethodId M : Info.Methods)
          Constrained |= P->method(M).Specializers[Pos] != H.root();
        if (!Constrained)
          continue;
        std::set<std::vector<bool>> Patterns;
        for (unsigned C = 0; C != U; ++C) {
          std::vector<bool> Pattern;
          for (MethodId M : Info.Methods)
            Pattern.push_back(
                H.isSubclassOf(ClassId(C), P->method(M).Specializers[Pos]));
          Patterns.insert(Pattern);
        }
        ASSERT_LT(Dispatched, T.numDispatchedPositions());
        EXPECT_EQ(T.numGroups(Dispatched), Patterns.size())
            << "seed " << Seed << " g" << GI << " position " << Pos;
        Cells *= Patterns.size();
        ++Dispatched;
      }
      EXPECT_EQ(T.numDispatchedPositions(), Dispatched);
      EXPECT_EQ(T.tableSize(), Cells);

      // Every class at arity 1; seeded tuples beyond that.
      if (Arity == 1) {
        for (unsigned C = 0; C != U; ++C)
          EXPECT_EQ(Tables.dispatch(G, {ClassId(C)}),
                    P->dispatch(G, {ClassId(C)}))
              << "seed " << Seed << " g" << GI << " class " << C;
        continue;
      }
      for (unsigned K = 0; K != 2000; ++K) {
        std::vector<ClassId> Args;
        for (unsigned A = 0; A != Arity; ++A)
          Args.push_back(ClassId(R.below(U)));
        ASSERT_EQ(Tables.dispatch(G, Args), P->dispatch(G, Args))
            << "seed " << Seed << " g" << GI << " tuple " << K;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Versions in cells: every cell equals Program::dispatch + selectVersion
//===----------------------------------------------------------------------===//

/// Checks the (method, version) cell \p Tables holds for \p Args against
/// the oracle: Program::dispatch, then \p CP's selectVersion.
bool cellIsOracle(const DispatchTables &Tables, const CompiledProgram &CP,
                  GenericId G, const std::vector<ClassId> &Args,
                  const std::string &Ctx) {
  const MethodId Want = CP.program().dispatch(G, Args);
  const int WantVersion = Want.isValid() ? CP.selectVersion(Want, Args) : -1;
  const DispatchTable::Cell Got = Tables.select(G, Args);
  if (Got.Method == Want && Got.Version == WantVersion)
    return true;
  std::string Tuple;
  for (ClassId C : Args)
    Tuple += " " + std::to_string(C.value());
  ADD_FAILURE() << Ctx << ": tuple" << Tuple << " cell (" << Got.Method.value()
                << ", " << Got.Version << ") oracle (" << Want.value() << ", "
                << WantVersion << ")";
  return false;
}

/// Runs cellIsOracle over every class tuple of \p G at arity <= 2 and over
/// 2000 seeded tuples above that; stops at \p G's first wrong cell.
void expectCellsAreOracle(const DispatchTables &Tables,
                          const CompiledProgram &CP, GenericId G,
                          fuzz::Rng &R, const std::string &Ctx) {
  const unsigned Arity = CP.program().generic(G).Arity;
  const unsigned U = CP.program().Classes.size();
  std::vector<ClassId> Args(Arity);
  if (Arity <= 2) {
    uint64_t Tuples = 1;
    for (unsigned I = 0; I != Arity; ++I)
      Tuples *= U;
    for (uint64_t T = 0; T != Tuples; ++T) {
      uint64_t Rest = T;
      for (ClassId &C : Args) {
        C = ClassId(static_cast<uint32_t>(Rest % U));
        Rest /= U;
      }
      if (!cellIsOracle(Tables, CP, G, Args, Ctx))
        return;
    }
    return;
  }
  for (unsigned K = 0; K != 2000; ++K) {
    for (ClassId &C : Args)
      C = ClassId(R.below(U));
    if (!cellIsOracle(Tables, CP, G, Args, Ctx))
      return;
  }
}

/// Every Table 2 program under every configuration, Cust and Cust-MM with
/// their many versions per method included: each cell's version is the
/// one selectVersion picks for every tuple the cell covers.
TEST(DispatchTableVersions, CellsMatchOracleOnPaperBenchmarks) {
  const struct {
    const char *Name;
    std::vector<std::string> Files;
    int64_t Train;
  } Cases[] = {
      {"richards", {"richards.mica"}, 30},
      {"instsched", {"instsched.mica"}, 6},
      {"typechecker", {"minilang.mica", "typechecker.mica"}, 8},
      {"compiler", {"minilang.mica", "compiler.mica"}, 8},
  };
  for (const auto &Case : Cases) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromFiles(Case.Files, Err);
    ASSERT_TRUE(W) << Case.Name << ": " << Err;
    ASSERT_TRUE(W->collectProfile(Case.Train, Err)) << Case.Name << ": " << Err;
    SelectiveOptions Sel;
    Sel.SpecializationThreshold = 50;
    for (Config C : {Config::Base, Config::Cust, Config::CustMM, Config::CHA,
                     Config::Selective}) {
      const std::string Ctx = std::string(Case.Name) + "/" + configName(C);
      std::unique_ptr<CompiledProgram> CP = W->compileOnly(C, Sel);
      ASSERT_TRUE(CP) << Ctx;
      const Program &P = CP->program();
      size_t MultiVersion = 0;
      for (unsigned M = 0; M != P.numMethods(); ++M)
        MultiVersion += CP->versionsOf(MethodId(M)).size() > 1;
      if (C == Config::Cust || C == Config::CustMM)
        EXPECT_GT(MultiVersion, 0u) << Ctx;

      DispatchTables Tables(*CP);
      EXPECT_EQ(Tables.compiledProgram(), CP.get());
      fuzz::Rng R(7);
      for (unsigned GI = 0; GI != P.numGenerics(); ++GI)
        expectCellsAreOracle(Tables, *CP, GenericId(GI), R,
                             Ctx + " generic " + std::to_string(GI));
    }
  }
}

/// Adds a body-less version of \p M for \p Tuple (table tests never run
/// it).
void addTupleVersion(CompiledProgram &CP, MethodId M, SpecTuple Tuple) {
  CompiledMethod CM;
  CM.Source = M;
  CM.Tuple = std::move(Tuple);
  CP.addVersion(std::move(CM));
}

/// A CompiledProgram over \p P with synthesized versions: every method
/// keeps a general version (the cones of its specializers) and gains up to
/// three more whose components are random cones, random sparse sets or the
/// general component, so versions overlap, nest, and leave classes
/// uncovered.
std::unique_ptr<CompiledProgram> synthesizeVersions(const Program &P,
                                                    fuzz::Rng &R) {
  auto CP = std::make_unique<CompiledProgram>(P, Config::Base, false);
  const ClassHierarchy &H = P.Classes;
  const unsigned U = H.size();
  for (unsigned MI = 0; MI != P.numMethods(); ++MI) {
    const MethodInfo &Info = P.method(MethodId(MI));
    SpecTuple General;
    for (ClassId Spec : Info.Specializers)
      General.push_back(H.cone(Spec));
    addTupleVersion(*CP, MethodId(MI), General);
    for (unsigned K = R.below(4); K != 0; --K) {
      SpecTuple Tuple;
      for (const ClassSet &G : General) {
        switch (R.below(3)) {
        case 0:
          Tuple.push_back(H.cone(ClassId(R.below(U))));
          break;
        case 1: {
          ClassSet S(U);
          for (unsigned N = 1 + R.below(5); N != 0; --N)
            S.insert(ClassId(R.below(U)));
          Tuple.push_back(std::move(S));
          break;
        }
        default:
          Tuple.push_back(G);
        }
      }
      addTupleVersion(*CP, MethodId(MI), std::move(Tuple));
    }
  }
  return CP;
}

/// Random DAG generics with synthesized version tuples.  Besides the
/// cells, each dispatched position must have exactly as many groups as
/// there are distinct (specializer pattern, version-set membership)
/// vectors, counted class by class: the refinement is exact and minimal.
TEST(DispatchTableVersions, CellsMatchOracleOnRandomDagsWithSynthesizedVersions) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    fuzz::Rng R(Seed);
    const std::vector<std::vector<unsigned>> ParentsOf = randomDag(R);
    std::unique_ptr<Program> P =
        buildProgram({randomDispatchProgram(R, ParentsOf)});
    ASSERT_TRUE(P) << "seed " << Seed;
    std::unique_ptr<CompiledProgram> CP = synthesizeVersions(*P, R);
    const ClassHierarchy &H = P->Classes;
    DispatchTables Tables(*CP);

    for (unsigned GI = 0; GI != std::size(RandomGenericArity); ++GI) {
      const unsigned Arity = RandomGenericArity[GI];
      const std::string Ctx =
          "seed " + std::to_string(Seed) + " g" + std::to_string(GI);
      GenericId G =
          P->lookupGeneric(P->Syms.find("g" + std::to_string(GI)), Arity);
      ASSERT_TRUE(G.isValid());
      const GenericInfo &Info = P->generic(G);
      const DispatchTable &T = Tables.table(G);
      ASSERT_TRUE(T.materialized()) << Ctx;

      unsigned Dispatched = 0;
      for (unsigned Pos = 0; Pos != Arity; ++Pos) {
        std::vector<const ClassSet *> Sets;
        bool Constrained = false;
        for (MethodId M : Info.Methods) {
          Constrained |= P->method(M).Specializers[Pos] != H.root();
          for (uint32_t V : CP->versionsOf(M))
            if (!CP->version(V).Tuple[Pos].isAll())
              Sets.push_back(&CP->version(V).Tuple[Pos]);
        }
        if (!Constrained && Sets.empty())
          continue;
        std::set<std::vector<bool>> Patterns;
        for (unsigned C = 0; C != H.size(); ++C) {
          std::vector<bool> Pattern;
          for (MethodId M : Info.Methods)
            Pattern.push_back(
                H.isSubclassOf(ClassId(C), P->method(M).Specializers[Pos]));
          for (const ClassSet *S : Sets)
            Pattern.push_back(S->contains(ClassId(C)));
          Patterns.insert(Pattern);
        }
        ASSERT_LT(Dispatched, T.numDispatchedPositions()) << Ctx;
        EXPECT_EQ(T.numGroups(Dispatched), Patterns.size())
            << Ctx << " position " << Pos;
        ++Dispatched;
      }
      EXPECT_EQ(T.numDispatchedPositions(), Dispatched) << Ctx;
      expectCellsAreOracle(Tables, *CP, G, R, Ctx);
    }
  }
}

/// Group ids are uint16_t: a position with more groups than that takes the
/// degraded path (Program::dispatch + selectVersion) instead of
/// truncating ids.  65,537 singleton versions of one method give its
/// position 65,539 groups (the singletons, the rest of the method's cone,
/// and the builtins outside it).
TEST(DispatchTableVersions, PositionWithMoreGroupsThanUint16FallsBack) {
  constexpr unsigned Singletons = 65537;
  std::string Src = "class C0;\n";
  for (unsigned I = 1; I <= Singletons + 1; ++I)
    Src += "class C" + std::to_string(I) + " isa C0;\n";
  Src += "method g(x@C0) { 1; }\nmethod main(n@Int) { n; }\n";
  std::unique_ptr<Program> P = buildProgram({Src});
  ASSERT_TRUE(P);
  const ClassHierarchy &H = P->Classes;
  GenericId G = P->lookupGeneric(P->Syms.find("g"), 1);
  ASSERT_TRUE(G.isValid());
  const MethodId M = P->generic(G).Methods[0];
  const ClassId Root = H.lookup(P->Syms.find("C0"));

  CompiledProgram CP(*P, Config::Base, false);
  for (unsigned MI = 0; MI != P->numMethods(); ++MI) {
    SpecTuple General;
    for (ClassId Spec : P->method(MethodId(MI)).Specializers)
      General.push_back(H.cone(Spec));
    addTupleVersion(CP, MethodId(MI), std::move(General));
  }
  std::vector<ClassId> Classes;
  for (unsigned I = 1; I <= Singletons + 1; ++I)
    Classes.push_back(H.lookup(P->Syms.find("C" + std::to_string(I))));
  for (unsigned I = 0; I != Singletons; ++I)
    addTupleVersion(CP, M, {ClassSet::single(H.size(), Classes[I])});

  const uint64_t Fallbacks =
      metrics::named("dispatch.table_fallbacks").value();
  DispatchTable T(CP, G);
  EXPECT_FALSE(T.materialized());
  EXPECT_EQ(T.tableSize(), 0u);
  EXPECT_EQ(metrics::named("dispatch.table_fallbacks").value(), Fallbacks + 1);

  // A method-only table of the same generic has two groups and fits.
  DispatchTable MethodOnly(*P, G);
  EXPECT_TRUE(MethodOnly.materialized());
  EXPECT_EQ(MethodOnly.numGroups(0), 2u);

  // The degraded table still answers like the oracle.
  const ClassId Int = H.lookup(P->Syms.find("Int"));
  for (ClassId C : {Root, Classes[0], Classes[Singletons / 2],
                    Classes[Singletons - 1], Classes[Singletons], Int}) {
    const MethodId Want = P->dispatch(G, {C});
    const DispatchTable::Cell Got = T.select({C});
    EXPECT_EQ(Got.Method, Want);
    EXPECT_EQ(Got.Version,
              Want.isValid() ? CP.selectVersion(Want, {C}) : -1);
    EXPECT_EQ(T.lookup({C}), Want);
  }
}

/// perfbench's layer probe runs a BytecodeInterpreter over method-only
/// DispatchTables(P), and a caller may pass tables built for another
/// CompiledProgram of the same Program.  The cells carry no versions of
/// the running program then, so a miss selects the version itself, and
/// the run must equal the snapshot path's, whose cells do carry them.
TEST(DispatchTableVersions, ForeignTablesRunLikeTheSnapshot) {
  const struct {
    const char *Name;
    std::vector<std::string> Files;
    int64_t Input;
  } Cases[] = {
      {"richards", {"richards.mica"}, 30},
      {"instsched", {"instsched.mica"}, 6},
      {"typechecker", {"minilang.mica", "typechecker.mica"}, 8},
      {"compiler", {"minilang.mica", "compiler.mica"}, 8},
  };
  for (const auto &Case : Cases) {
    std::string Err;
    std::unique_ptr<Workbench> W = Workbench::fromFiles(Case.Files, Err);
    ASSERT_TRUE(W) << Case.Name << ": " << Err;
    ASSERT_TRUE(W->collectProfile(Case.Input, Err)) << Case.Name << ": " << Err;
    W->setTier(ExecTier::Bytecode);
    for (Config C : {Config::Cust, Config::Selective}) {
      const std::string Ctx = std::string(Case.Name) + "/" + configName(C);
      std::shared_ptr<const CompiledSnapshot> Snap = W->buildSnapshot(C, Err);
      ASSERT_TRUE(Snap && Snap->bytecode()) << Ctx << ": " << Err;
      EXPECT_EQ(Snap->tables().compiledProgram(), &Snap->compiled()) << Ctx;
      CompiledSnapshot::JobResult Reference = Snap->run(Case.Input);
      ASSERT_TRUE(Reference.Ok) << Ctx << ": " << Reference.Error;

      std::unique_ptr<CompiledProgram> Other =
          W->compileOnly(C == Config::Cust ? Config::Selective : Config::Cust);
      ASSERT_TRUE(Other) << Ctx;
      DispatchTables MethodOnly(Snap->program());
      DispatchTables ForOther(*Other);
      for (const DispatchTables *Tables : {&MethodOnly, &ForOther}) {
        const std::string Label =
            Ctx + (Tables == &MethodOnly ? " method-only" : " other-CP");
        std::ostringstream Output;
        RunOptions RO;
        RO.Output = &Output;
        RO.Tables = Tables;
        BytecodeInterpreter I(Snap->compiled(), *Snap->bytecode(), RO);
        ASSERT_TRUE(I.callMain(Case.Input)) << Label << ": "
                                            << I.errorMessage();
        EXPECT_EQ(Output.str(), Reference.R.Output) << Label;
        expectSameStats(I.stats(), Reference.R.Run, Label);
        EXPECT_GT(I.icMisses(), 0u) << Label;
        EXPECT_EQ(I.icMisdispatches(), 0u) << Label;
      }
    }
  }
}

// Eight threads take their first dispatch miss on the same generic of one
// shared snapshot at once.  One builds and publishes the table, the rest
// wait for it or read it; every job prints the single-threaded answer,
// and no table is built twice.
TEST(DispatchTablesRace, EightThreadsFirstMissOnOneSnapshot) {
  fuzz::HierarchySpec Spec;
  Spec.Classes = 300;
  Spec.MultiParentPercent = 20;
  Spec.MethodLeaves = 32;
  Spec.Generics = 1;
  Spec.Seed = 7;
  for (ExecTier Tier : {ExecTier::Bytecode, ExecTier::Ast}) {
    SCOPED_TRACE(tierName(Tier));
    std::string Err;
    auto WB = Workbench::fromSources({fuzz::generateHierarchyProgram(Spec)},
                                     Err, /*WithStdlib=*/false);
    ASSERT_TRUE(WB) << Err;
    WB->setTier(Tier);
    auto Build = [&] {
      std::shared_ptr<const CompiledSnapshot> Snap =
          WB->buildSnapshot(Config::Base, Err);
      EXPECT_TRUE(Snap) << Err;
      return Snap;
    };
    metrics::Counter &Built = metrics::named("dispatch.tables_built");

    uint64_t Before = Built.value();
    CompiledSnapshot::JobResult Reference = Build()->run(300);
    ASSERT_TRUE(Reference.Ok) << Reference.Error;
    const uint64_t TablesPerJob = Built.value() - Before;
    EXPECT_GT(TablesPerJob, 0u);

    std::shared_ptr<const CompiledSnapshot> Shared = Build();
    Before = Built.value();
    std::vector<CompiledSnapshot::JobResult> Results(8);
    std::latch Start(8);
    std::vector<std::thread> Threads;
    for (size_t I = 0; I != Results.size(); ++I)
      Threads.emplace_back([&, I] {
        Start.arrive_and_wait();
        Results[I] = Shared->run(300);
      });
    for (std::thread &T : Threads)
      T.join();
    EXPECT_EQ(Built.value() - Before, TablesPerJob);
    for (const CompiledSnapshot::JobResult &J : Results) {
      ASSERT_TRUE(J.Ok) << J.Error;
      EXPECT_EQ(J.R.Output, Reference.R.Output);
      expectSameStats(J.R.Run, Reference.R.Run, "racing job");
    }
  }
}

/// Eight threads ask \p Tables for \p G's table at once; all must get the
/// same table, built once, and read cells equal to the oracle through it:
/// Program::dispatch, then \p CP's selectVersion when the cells carry
/// versions.
void raceFirstTableRequest(const DispatchTables &Tables,
                           const CompiledProgram *CP, GenericId G) {
  const Program &P = Tables.program();
  metrics::Counter &Built = metrics::named("dispatch.tables_built");
  const uint64_t Before = Built.value();
  std::vector<const DispatchTable *> Seen(8);
  std::latch Start(8);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != Seen.size(); ++I)
    Threads.emplace_back([&, I] {
      Start.arrive_and_wait();
      Seen[I] = &Tables.table(G);
      // Read through the published table, as a dispatch would.
      std::vector<ClassId> Args(2, ClassId(static_cast<uint32_t>(I)));
      const MethodId Want = P.dispatch(G, Args);
      EXPECT_EQ(Seen[I]->lookup(Args), Want);
      EXPECT_EQ(Seen[I]->select(Args).Version,
                CP && Want.isValid() ? CP->selectVersion(Want, Args) : -1);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Built.value() - Before, 1u);
  for (const DispatchTable *T : Seen)
    EXPECT_EQ(T, Seen[0]);
}

// The publication itself, without an interpreter around it: eight threads
// ask a fresh DispatchTables for one generic's table at once, all get the
// same table, and it is built once.
TEST(DispatchTablesRace, EightThreadsShareOnePublishedTable) {
  fuzz::Rng R(42);
  std::unique_ptr<Program> P =
      buildProgram({randomDispatchProgram(R, randomDag(R))});
  ASSERT_TRUE(P);
  GenericId G = P->lookupGeneric(P->Syms.find("g3"), 2);
  ASSERT_TRUE(G.isValid());
  DispatchTables Tables(*P);
  raceFirstTableRequest(Tables, nullptr, G);
}

// The same race over tables built for a CompiledProgram, whose cells also
// carry the selected version.
TEST(DispatchTablesRace, EightThreadsShareOnePublishedCompiledTable) {
  fuzz::Rng R(42);
  std::unique_ptr<Program> P =
      buildProgram({randomDispatchProgram(R, randomDag(R))});
  ASSERT_TRUE(P);
  GenericId G = P->lookupGeneric(P->Syms.find("g3"), 2);
  ASSERT_TRUE(G.isValid());
  std::unique_ptr<CompiledProgram> CP = synthesizeVersions(*P, R);
  DispatchTables Tables(*CP);
  raceFirstTableRequest(Tables, CP.get(), G);
}

} // namespace
