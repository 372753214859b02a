//===- bench/hierarchy_scale.cpp - Hierarchy-axis scaling bench -----------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ROADMAP's hierarchy-axis scaling study: the paper's benchmarks top
/// out at modest class counts, so this bench synthesizes structured
/// hierarchies (fuzz::generateHierarchyProgram) at 100 -> 1k -> 10k
/// classes, each with megamorphic k-way call sites, and measures how the
/// system degrades — or, with interval cones and hybrid ClassSets,
/// doesn't:
///
///   - per-config, per-tier measured runs (all 5 Table 1 configurations
///     x AST + bytecode tiers) with wall-clock ns per dynamic dispatch;
///   - compressed DispatchTable cells and direct table-lookup ns/op;
///   - cone memory: the hierarchy's interval index plus materialized
///     hybrid cone sets, against the N * N/8-byte dense baseline;
///   - program build (parse -> resolve -> analyses) wall time.
///
/// Output: stdout table plus BENCH_hierarchy_scale.json (gitignored, with
/// the counter registry embedded).  The CI smoke and the nightly 10k-ASan
/// job re-derive the scaling invariants (near-flat dispatch ns/op,
/// sub-linear cone + table bytes) from the JSON in python.
///
/// Environment: SELSPEC_HIERARCHY_SIZES (comma list, default
/// "100,1000,10000"), SELSPEC_HIERARCHY_INPUT (spin iterations, default
/// 20000), SELSPEC_HIERARCHY_LEAVES (k-way fanout, default 32).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "fuzz/ProgramGen.h"
#include "runtime/DispatchTable.h"
#include "support/Metrics.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace selspec;
using namespace selspec::bench;

namespace {

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<unsigned> parseSizes() {
  std::vector<unsigned> Sizes;
  const char *Env = std::getenv("SELSPEC_HIERARCHY_SIZES");
  std::string Spec = Env && *Env ? Env : "100,1000,10000";
  std::stringstream SS(Spec);
  std::string Tok;
  while (std::getline(SS, Tok, ','))
    if (!Tok.empty())
      Sizes.push_back(static_cast<unsigned>(std::strtoul(Tok.c_str(),
                                                         nullptr, 10)));
  return Sizes;
}

uint64_t envOr(const char *Name, uint64_t Default) {
  const char *V = std::getenv(Name);
  return V && *V ? std::strtoull(V, nullptr, 10) : Default;
}

struct ConfigRow {
  Config Configuration;
  ExecTier Tier;
  uint64_t WallNanos = 0;
  uint64_t Dispatches = 0;
  double NsPerDispatch = 0;
};

struct SizeRow {
  unsigned Classes = 0;  ///< synthesized classes (knob)
  unsigned Universe = 0; ///< hierarchy size incl. builtins
  unsigned MethodLeaves = 0;
  uint64_t BuildNanos = 0;
  size_t ConeIndexBytes = 0;
  size_t ConeSetBytes = 0;
  size_t DenseConeBytes = 0;
  size_t ConeIntervals = 0;
  size_t TableCells = 0;
  size_t TableUncompressedCells = 0;
  double TableLookupNs = 0;
  std::vector<ConfigRow> Rows;
};

} // namespace

int main() {
  printHeader("Hierarchy-axis scaling: 100 -> 1k -> 10k classes",
              "ROADMAP scaling item; cf. paper §3.5 dispatch tables");

  const std::vector<unsigned> Sizes = parseSizes();
  const int64_t Input =
      static_cast<int64_t>(envOr("SELSPEC_HIERARCHY_INPUT", 20000));
  const unsigned Leaves =
      static_cast<unsigned>(envOr("SELSPEC_HIERARCHY_LEAVES", 32));

  std::vector<SizeRow> Results;
  for (unsigned NumClasses : Sizes) {
    fuzz::HierarchySpec Spec;
    Spec.Classes = NumClasses;
    Spec.Depth = 12;
    Spec.Fanout = 8;
    Spec.MethodLeaves = Leaves;
    Spec.Generics = 4;
    Spec.Seed = 20260808;
    std::string Source = fuzz::generateHierarchyProgram(Spec);

    uint64_t T0 = nowNs();
    std::string Err;
    auto WB = Workbench::fromSources({Source}, Err, /*WithStdlib=*/false);
    uint64_t BuildNanos = nowNs() - T0;
    if (!WB) {
      std::cerr << "hierarchy_scale: build failed at " << NumClasses
                << " classes: " << Err << "\n";
      return 1;
    }
    if (!WB->collectProfile(/*Input=*/2000, Err)) {
      std::cerr << "hierarchy_scale: profile failed at " << NumClasses
                << " classes: " << Err << "\n";
      return 1;
    }

    Program &P = WB->program();
    const ClassHierarchy &H = P.Classes;

    SizeRow Row;
    Row.Classes = NumClasses;
    Row.Universe = H.size();
    Row.MethodLeaves = Leaves;
    Row.BuildNanos = BuildNanos;
    Row.ConeIndexBytes = H.coneIndexBytes();
    for (unsigned I = 0; I != H.size(); ++I) {
      Row.ConeSetBytes += H.cone(ClassId(I)).memoryBytes();
      Row.ConeIntervals += H.coneIntervalCount(ClassId(I));
    }
    Row.DenseConeBytes =
        size_t(H.size()) * ((size_t(H.size()) + 63) / 64) * 8;

    // Compressed dispatch tables over every generic, plus a direct
    // lookup microloop cycling the megamorphic receivers through g0.
    DispatchTables Tables(P);
    for (unsigned GI = 0; GI != P.numGenerics(); ++GI) {
      const DispatchTable &T = Tables.table(GenericId(GI));
      Row.TableCells += T.tableSize();
      Row.TableUncompressedCells += T.uncompressedSize();
    }
    {
      GenericId G = P.lookupGeneric(P.Syms.find("g0"), 1);
      const DispatchTable &T = Tables.table(G);
      std::vector<std::vector<ClassId>> Cases;
      for (unsigned J = 0;; ++J) {
        ClassId C = H.lookup(P.Syms.find("H" + std::to_string(J)));
        if (!C.isValid())
          break;
        if (H.isLeaf(C))
          Cases.push_back({C});
        if (Cases.size() >= 64)
          break;
      }
      const uint64_t Iters = 2000000;
      uint64_t L0 = nowNs();
      MethodId Sink;
      for (uint64_t I = 0; I != Iters; ++I) {
        Sink = T.lookup(Cases[I % Cases.size()]);
        asm volatile("" : : "r"(&Sink) : "memory");
      }
      Row.TableLookupNs = double(nowNs() - L0) / double(Iters);
    }

    // Measured runs: all five configurations on both tiers; outputs must
    // agree bit-for-bit (the synthesized checksum catches misdispatch).
    std::string Reference;
    const unsigned Reps =
        static_cast<unsigned>(envOr("SELSPEC_HIERARCHY_REPS", 3));
    for (ExecTier Tier : {ExecTier::Bytecode, ExecTier::Ast}) {
      WB->setTier(Tier);
      for (Config C : AllConfigs) {
        // Best-of-Reps wall time: single runs at these sizes are a few
        // ms, where scheduler noise would swamp the flatness comparison.
        ConfigRow CR;
        CR.Configuration = C;
        for (unsigned Rep = 0; Rep != Reps; ++Rep) {
          auto R = WB->runConfig(C, Input, Err);
          if (!R || R->Trap != TrapKind::None) {
            std::cerr << "hierarchy_scale: " << configName(C) << "/"
                      << tierName(Tier) << " failed at " << NumClasses
                      << " classes: " << Err << "\n";
            return 1;
          }
          if (Reference.empty())
            Reference = R->Output;
          else if (R->Output != Reference) {
            std::cerr << "hierarchy_scale: output mismatch for "
                      << configName(C) << "/" << tierName(Tier) << " at "
                      << NumClasses << " classes\n";
            return 1;
          }
          CR.Tier = R->Tier;
          CR.Dispatches = R->Run.totalDispatches();
          if (Rep == 0 || R->WallNanos < CR.WallNanos)
            CR.WallNanos = R->WallNanos;
        }
        CR.NsPerDispatch =
            double(CR.WallNanos) /
            double(CR.Dispatches == 0 ? 1 : CR.Dispatches);
        Row.Rows.push_back(CR);
      }
    }

    std::cout << "classes=" << Row.Universe << " build_ms="
              << Row.BuildNanos / 1000000 << " cone_bytes="
              << (Row.ConeIndexBytes + Row.ConeSetBytes) << " (dense "
              << Row.DenseConeBytes << ") table_cells=" << Row.TableCells
              << " (uncompressed " << Row.TableUncompressedCells
              << ") table_lookup_ns=" << Row.TableLookupNs << "\n";
    for (const ConfigRow &CR : Row.Rows)
      std::cout << "  " << tierName(CR.Tier) << "/" << configName(CR.Configuration)
                << ": wall_ms=" << CR.WallNanos / 1000000
                << " dispatches=" << CR.Dispatches
                << " ns_per_dispatch=" << CR.NsPerDispatch << "\n";
    Results.push_back(std::move(Row));
  }

  std::ofstream OS("BENCH_hierarchy_scale.json");
  if (!OS) {
    std::cerr << "hierarchy_scale: cannot write BENCH_hierarchy_scale.json\n";
    return 1;
  }
  OS << "{\n  \"bench\": \"hierarchy_scale\",\n  \"git\": \""
     << gitDescribe() << "\",\n  \"input\": " << Input
     << ",\n  \"sizes\": [\n";
  for (size_t I = 0; I != Results.size(); ++I) {
    const SizeRow &Row = Results[I];
    OS << "    {\n      \"classes\": " << Row.Classes
       << ",\n      \"universe\": " << Row.Universe
       << ",\n      \"method_leaves\": " << Row.MethodLeaves
       << ",\n      \"build_ns\": " << Row.BuildNanos
       << ",\n      \"cone_index_bytes\": " << Row.ConeIndexBytes
       << ",\n      \"cone_set_bytes\": " << Row.ConeSetBytes
       << ",\n      \"dense_cone_bytes\": " << Row.DenseConeBytes
       << ",\n      \"cone_intervals\": " << Row.ConeIntervals
       << ",\n      \"table_cells\": " << Row.TableCells
       << ",\n      \"table_uncompressed_cells\": "
       << Row.TableUncompressedCells
       << ",\n      \"table_lookup_ns\": " << Row.TableLookupNs
       << ",\n      \"configs\": [\n";
    for (size_t J = 0; J != Row.Rows.size(); ++J) {
      const ConfigRow &CR = Row.Rows[J];
      OS << "        {\"config\": \"" << configName(CR.Configuration)
         << "\", \"tier\": \"" << tierName(CR.Tier)
         << "\", \"wall_ns\": " << CR.WallNanos
         << ", \"dispatches\": " << CR.Dispatches
         << ", \"ns_per_dispatch\": " << CR.NsPerDispatch << "}"
         << (J + 1 == Row.Rows.size() ? "\n" : ",\n");
    }
    OS << "      ]\n    }" << (I + 1 == Results.size() ? "\n" : ",\n");
  }
  OS << "  ],\n  \"counters\": " << metrics::toJsonCompact() << "\n}\n";
  std::cout << "wrote BENCH_hierarchy_scale.json\n";
  return 0;
}
