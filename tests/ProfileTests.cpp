//===- tests/ProfileTests.cpp - Call graph and profile database ------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileDb.h"

#include "bytecode/BytecodeCompiler.h"
#include "bytecode/BytecodeInterpreter.h"
#include "driver/Tier.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>

using namespace selspec;
using namespace selspec::test;

TEST(CallGraph, AddAndQueryArcs) {
  CallGraph CG;
  EXPECT_TRUE(CG.empty());
  CG.addHits(CallSiteId(1), MethodId(10), MethodId(20), 5);
  CG.addHits(CallSiteId(1), MethodId(10), MethodId(21), 2);
  CG.addHits(CallSiteId(2), MethodId(11), MethodId(20), 7);
  CG.addHits(CallSiteId(1), MethodId(10), MethodId(20), 3); // accumulate

  EXPECT_EQ(CG.numArcs(), 3u);
  EXPECT_EQ(CG.totalWeight(), 17u);

  std::vector<Arc> Arcs = CG.arcs();
  ASSERT_EQ(Arcs.size(), 3u);
  // Deterministic order: by site then callee.
  EXPECT_EQ(Arcs[0].Site, CallSiteId(1));
  EXPECT_EQ(Arcs[0].Callee, MethodId(20));
  EXPECT_EQ(Arcs[0].Weight, 8u);
  EXPECT_EQ(Arcs[1].Callee, MethodId(21));
  EXPECT_EQ(Arcs[2].Site, CallSiteId(2));

  EXPECT_EQ(CG.arcsFrom(MethodId(10)).size(), 2u);
  EXPECT_EQ(CG.arcsTo(MethodId(20)).size(), 2u);
  EXPECT_EQ(CG.arcsAt(CallSiteId(1)).size(), 2u);
}

TEST(CallGraph, Merge) {
  CallGraph A, B;
  A.addHits(CallSiteId(0), MethodId(1), MethodId(2), 10);
  B.addHits(CallSiteId(0), MethodId(1), MethodId(2), 5);
  B.addHits(CallSiteId(3), MethodId(1), MethodId(4), 1);
  A.merge(B);
  EXPECT_EQ(A.totalWeight(), 16u);
  EXPECT_EQ(A.numArcs(), 2u);
}

namespace {

/// Seeded random arcs over small id ranges, so keys repeat and arcs share
/// (site, callee) with different callers.
std::vector<Arc> randomArcs(uint32_t Seed, size_t N) {
  std::mt19937 Rng(Seed);
  auto Below = [&](uint32_t Bound) {
    return static_cast<uint32_t>(Rng() % Bound);
  };
  std::vector<Arc> Out;
  for (size_t I = 0; I != N; ++I)
    Out.push_back({CallSiteId(Below(8)), MethodId(Below(4)),
                   MethodId(Below(6)), 1 + Below(1000)});
  return Out;
}

CallGraph graphOf(const std::vector<Arc> &Hits) {
  CallGraph G;
  for (const Arc &A : Hits)
    G.addHits(A.Site, A.Caller, A.Callee, A.Weight);
  return G;
}

} // namespace

TEST(CallGraph, ArcsSortedBySiteCalleeCaller) {
  CallGraph G;
  G.addHits(CallSiteId(3), MethodId(9), MethodId(2), 1);
  G.addHits(CallSiteId(3), MethodId(1), MethodId(2), 2);
  G.addHits(CallSiteId(3), MethodId(5), MethodId(1), 3);
  G.addHits(CallSiteId(0), MethodId(7), MethodId(4), 4);
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> Keys;
  for (const Arc &A : G.arcs())
    Keys.emplace_back(A.Site.value(), A.Callee.value(), A.Caller.value());
  EXPECT_EQ(Keys, (std::vector<std::tuple<uint32_t, uint32_t, uint32_t>>{
                      {0, 4, 7}, {3, 1, 5}, {3, 2, 1}, {3, 2, 9}}));
}

TEST(CallGraph, SerializeIsCanonicalForArcsThatDifferOnlyInCaller) {
  // Only an unvalidated database can hold such arcs: a site has one
  // caller in any one program.
  ProfileDb Forward, Backward;
  for (uint32_t Caller = 0; Caller != 5; ++Caller)
    Forward.forProgram("p").addHits(CallSiteId(2), MethodId(Caller),
                                    MethodId(7), 10 + Caller);
  for (uint32_t Caller = 5; Caller-- != 0;)
    Backward.forProgram("p").addHits(CallSiteId(2), MethodId(Caller),
                                     MethodId(7), 10 + Caller);
  std::string Text = Forward.serialize();
  EXPECT_EQ(Backward.serialize(), Text);
  EXPECT_EQ(Text, "selspec-profile v1\nprogram p 5\n"
                  "arc 2 0 7 10\narc 2 1 7 11\narc 2 2 7 12\n"
                  "arc 2 3 7 13\narc 2 4 7 14\n");
  ProfileDb Reread;
  ASSERT_TRUE(Reread.deserialize("selspec-profile v1\nprogram p 5\n"
                                 "arc 2 4 7 14\narc 2 2 7 12\n"
                                 "arc 2 0 7 10\narc 2 3 7 13\n"
                                 "arc 2 1 7 11\n"));
  EXPECT_EQ(Reread.serialize(), Text);
}

TEST(CallGraph, AddHitsInAnyOrderEqualsAddHitsInSortedOrder) {
  for (uint32_t Seed = 1; Seed <= 20; ++Seed) {
    SCOPED_TRACE(Seed);
    std::vector<Arc> Hits = randomArcs(Seed, 200);
    std::map<std::tuple<uint32_t, uint32_t, uint32_t>, uint64_t> Oracle;
    for (const Arc &A : Hits)
      Oracle[{A.Site.value(), A.Callee.value(), A.Caller.value()}] +=
          A.Weight;
    std::vector<Arc> Expected;
    for (const auto &[K, W] : Oracle)
      Expected.push_back({CallSiteId(std::get<0>(K)),
                          MethodId(std::get<2>(K)), MethodId(std::get<1>(K)),
                          W});

    CallGraph Random = graphOf(Hits);
    EXPECT_EQ(Random.arcs(), Expected);
    std::sort(Hits.begin(), Hits.end(), [](const Arc &A, const Arc &B) {
      return std::tuple(A.Site.value(), A.Callee.value(), A.Caller.value()) <
             std::tuple(B.Site.value(), B.Callee.value(), B.Caller.value());
    });
    EXPECT_TRUE(graphOf(Hits) == Random);
    EXPECT_EQ(graphOf(Expected).arcs(), Expected);
  }
}

TEST(CallGraph, MergeIsAssociativeAndEqualsAddingEveryHit) {
  for (uint32_t Seed = 1; Seed <= 20; ++Seed) {
    SCOPED_TRACE(Seed);
    std::vector<Arc> HA = randomArcs(Seed, 60), HB = randomArcs(Seed + 100, 40),
                     HC = randomArcs(Seed + 200, 80);
    CallGraph A = graphOf(HA), B = graphOf(HB), C = graphOf(HC);

    CallGraph Left = A; // (A + B) + C
    Left.merge(B);
    Left.merge(C);
    CallGraph BC = B; // A + (B + C)
    BC.merge(C);
    CallGraph Right = A;
    Right.merge(BC);
    EXPECT_TRUE(Left == Right);

    CallGraph Swapped = C; // merge order does not matter either
    Swapped.merge(A);
    Swapped.merge(B);
    EXPECT_TRUE(Swapped == Left);

    std::vector<Arc> All = HA;
    All.insert(All.end(), HB.begin(), HB.end());
    All.insert(All.end(), HC.begin(), HC.end());
    EXPECT_TRUE(graphOf(All) == Left);

    CallGraph Empty;
    Empty.merge(Left);
    EXPECT_TRUE(Empty == Left);
    Left.merge(CallGraph());
    EXPECT_TRUE(Empty == Left);
  }
}

TEST(CallGraph, QueriesEqualFiltersOverArcs) {
  CallGraph G = graphOf(randomArcs(7, 120));
  auto Filter = [&](auto Keep) {
    std::vector<Arc> Out;
    for (const Arc &A : G.arcs())
      if (Keep(A))
        Out.push_back(A);
    return Out;
  };
  // One id past each range, so absent keys are asked about too.
  for (uint32_t S = 0; S != 9; ++S) {
    std::span<const Arc> At = G.arcsAt(CallSiteId(S));
    EXPECT_EQ(std::vector<Arc>(At.begin(), At.end()),
              Filter([&](const Arc &A) { return A.Site == CallSiteId(S); }))
        << "site " << S;
  }
  for (uint32_t M = 0; M != 7; ++M) {
    EXPECT_EQ(G.arcsFrom(MethodId(M)),
              Filter([&](const Arc &A) { return A.Caller == MethodId(M); }))
        << "caller " << M;
    EXPECT_EQ(G.arcsTo(MethodId(M)),
              Filter([&](const Arc &A) { return A.Callee == MethodId(M); }))
        << "callee " << M;
  }
  EXPECT_TRUE(CallGraph().arcsAt(CallSiteId(0)).empty());
}

TEST(ProfileDb, SerializeRoundTrip) {
  ProfileDb Db;
  CallGraph &G1 = Db.forProgram("richards");
  G1.addHits(CallSiteId(5), MethodId(2), MethodId(9), 1234);
  G1.addHits(CallSiteId(6), MethodId(2), MethodId(10), 77);
  CallGraph &G2 = Db.forProgram("instsched");
  G2.addHits(CallSiteId(1), MethodId(0), MethodId(1), 42);

  std::string Text = Db.serialize();
  ProfileDb Loaded;
  ASSERT_TRUE(Loaded.deserialize(Text));
  EXPECT_EQ(Loaded.numPrograms(), 2u);
  ASSERT_TRUE(Loaded.hasProgram("richards"));
  EXPECT_EQ(Loaded.forProgram("richards").totalWeight(), 1311u);
  EXPECT_EQ(Loaded.forProgram("instsched").totalWeight(), 42u);
  // Round-tripping again is byte-identical (canonical ordering).
  EXPECT_EQ(Loaded.serialize(), Text);
}

TEST(ProfileDb, RejectsMalformedInput) {
  ProfileDb Db;
  EXPECT_FALSE(Db.deserialize("not a profile"));
  EXPECT_FALSE(Db.deserialize("selspec-profile v1\narc 1 2 3 4\n"))
      << "arc before program header";
  EXPECT_FALSE(Db.deserialize("selspec-profile v1\nbogus\n"));
  EXPECT_TRUE(Db.deserialize("selspec-profile v1\n"));
}

TEST(ProfileDb, FileRoundTrip) {
  ProfileDb Db;
  Db.forProgram("p").addHits(CallSiteId(0), MethodId(0), MethodId(1), 3);
  std::string Path = testing::TempDir() + "/selspec_profile_test.txt";
  ASSERT_TRUE(Db.saveToFile(Path));
  ProfileDb Loaded;
  ASSERT_TRUE(Loaded.loadFromFile(Path));
  EXPECT_EQ(Loaded.forProgram("p").totalWeight(), 3u);
  EXPECT_FALSE(Loaded.loadFromFile("/nonexistent/dir/file.txt"));
}

namespace {

const char *PolySource = R"(
  class A; class B isa A;
  method tag(x@A) { 1; }
  method tag(x@B) { 2; }
  method pick(n@Int) { if (n % 3 == 0) { new A; } else { new B; } }
  method main(n@Int) {
    let i := 0;
    let total := 0;
    while (i < n) { total := total + tag(pick(i)); i := i + 1; }
    print(total);
  }
)";

} // namespace

TEST(Profiling, CollectsWeightedArcsFromRun) {
  std::unique_ptr<Program> P = buildProgram({PolySource});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  CallGraph CG;
  runMain(*CP, 30, nullptr, &CG);

  ASSERT_FALSE(CG.empty());
  // The tag(pick(i)) site must show two callees with weights 10 / 20.
  uint64_t WeightA = 0, WeightB = 0;
  for (const Arc &A : CG.arcs()) {
    std::string Label = P->methodLabel(A.Callee);
    if (Label == "tag(A)")
      WeightA += A.Weight;
    if (Label == "tag(B)")
      WeightB += A.Weight;
  }
  EXPECT_EQ(WeightA, 10u);
  EXPECT_EQ(WeightB, 20u);
}

TEST(Profiling, DeterministicAcrossIdenticalRuns) {
  std::unique_ptr<Program> P = buildProgram({PolySource});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  CallGraph CG1, CG2;
  runMain(*CP, 25, nullptr, &CG1);
  {
    // Fresh interpreter, same input.
    std::unique_ptr<CompiledProgram> CP2 = compileProgram(*P, Config::Base);
    runMain(*CP2, 25, nullptr, &CG2);
  }
  ProfileDb D1, D2;
  D1.forProgram("p").merge(CG1);
  D2.forProgram("p").merge(CG2);
  EXPECT_EQ(D1.serialize(), D2.serialize());
}

TEST(Profiling, ArcStructureStableAcrossInputs) {
  // Section 3.7.2: the *shape* of the profile (which callees each site
  // reaches) is stable across inputs, even though weights differ.
  std::unique_ptr<Program> P = buildProgram({PolySource});
  ASSERT_TRUE(P);
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  CallGraph Train, Test;
  runMain(*CP, 30, nullptr, &Train);
  {
    std::unique_ptr<CompiledProgram> CP2 = compileProgram(*P, Config::Base);
    runMain(*CP2, 90, nullptr, &Test);
  }
  auto Shape = [](const CallGraph &CG) {
    std::vector<std::pair<uint32_t, uint32_t>> Out;
    for (const Arc &A : CG.arcs())
      Out.emplace_back(A.Site.value(), A.Callee.value());
    return Out;
  };
  EXPECT_EQ(Shape(Train), Shape(Test));
}

//===----------------------------------------------------------------------===//
// The fold: a profile run counts arcs per call site and adds them to
// RunOptions::Profile when callGeneric returns.
//===----------------------------------------------------------------------===//

namespace {

const char *StopSource = R"(
  class A; class B isa A;
  method tag(x@A) { 1; }
  method tag(x@B) { 2; }
  method pick(n@Int) { if (n % 3 == 0) { new A; } else { new B; } }
  method main(n@Int) {
    let i := 0;
    let total := 0;
    while (i < n) { total := total + tag(pick(i)); i := i + 1; }
    if (total > 40) { abort("over 40"); }
    print(total);
  }
)";

/// A Base build of StopSource and an interpreter of either tier over it.
struct FoldFixture {
  std::unique_ptr<Program> P = buildProgram({StopSource});
  std::unique_ptr<CompiledProgram> CP = compileProgram(*P, Config::Base);
  BcModule Mod = compileToBytecode(*CP);

  std::unique_ptr<RuntimeCore> interpreter(ExecTier T, CallGraph &CG) {
    RunOptions RO;
    RO.Profile = &CG;
    if (T == ExecTier::Ast)
      return std::make_unique<Interpreter>(*CP, RO);
    return std::make_unique<BytecodeInterpreter>(*CP, Mod, RO);
  }

  /// The weight of the arcs into the methods whose label starts with
  /// \p Label.
  uint64_t weightInto(const CallGraph &CG, const std::string &Label) {
    uint64_t W = 0;
    for (const Arc &A : CG.arcs())
      if (P->methodLabel(A.Callee).rfind(Label, 0) == 0)
        W += A.Weight;
    return W;
  }
};

} // namespace

TEST(ProfileFold, ArcsAreInTheProfileWhenCallMainReturnsOnBothTiers) {
  FoldFixture F;
  ASSERT_TRUE(F.P && F.Mod.Ok);
  std::vector<CallGraph> PerTier;
  for (ExecTier T : {ExecTier::Ast, ExecTier::Bytecode}) {
    SCOPED_TRACE(T == ExecTier::Ast ? "ast" : "bytecode");
    CallGraph CG;
    std::unique_ptr<RuntimeCore> I = F.interpreter(T, CG);
    ASSERT_TRUE(I->callMain(9)) << I->errorMessage();
    // Read while the interpreter is still alive.
    EXPECT_EQ(F.weightInto(CG, "tag(A)"), 3u);
    EXPECT_EQ(F.weightInto(CG, "tag(B)"), 6u);
    EXPECT_EQ(F.weightInto(CG, "pick(Int)"), 9u);
    PerTier.push_back(CG);
  }
  EXPECT_TRUE(PerTier[0] == PerTier[1]);
}

TEST(ProfileFold, TrapKeepsTheArcsRecordedBeforeItOnBothTiers) {
  FoldFixture F;
  ASSERT_TRUE(F.P && F.Mod.Ok);
  for (ExecTier T : {ExecTier::Ast, ExecTier::Bytecode}) {
    SCOPED_TRACE(T == ExecTier::Ast ? "ast" : "bytecode");
    CallGraph CG;
    std::unique_ptr<RuntimeCore> I = F.interpreter(T, CG);
    // 30 iterations sum past 40, so main aborts after the loop.
    EXPECT_FALSE(I->callMain(30));
    EXPECT_EQ(I->trap().Kind, TrapKind::UserAbort);
    EXPECT_EQ(F.weightInto(CG, "tag(A)"), 10u);
    EXPECT_EQ(F.weightInto(CG, "tag(B)"), 20u);
    EXPECT_EQ(F.weightInto(CG, "abort("), 1u);
    EXPECT_EQ(F.weightInto(CG, "print("), 0u);
  }
}

TEST(ProfileFold, TwoCallsOnOneInterpreterAddUpOnBothTiers) {
  FoldFixture F;
  ASSERT_TRUE(F.P && F.Mod.Ok);
  for (ExecTier T : {ExecTier::Ast, ExecTier::Bytecode}) {
    SCOPED_TRACE(T == ExecTier::Ast ? "ast" : "bytecode");
    CallGraph First, Second;
    ASSERT_TRUE(F.interpreter(T, First)->callMain(4));
    ASSERT_TRUE(F.interpreter(T, Second)->callMain(7));

    CallGraph Both;
    std::unique_ptr<RuntimeCore> I = F.interpreter(T, Both);
    ASSERT_TRUE(I->callMain(4));
    EXPECT_TRUE(Both == First);
    ASSERT_TRUE(I->callMain(7));
    CallGraph Expected = First;
    Expected.merge(Second);
    EXPECT_TRUE(Both == Expected);
    EXPECT_EQ(F.weightInto(Both, "tag(B)"), 2u + 4u);
  }
}
