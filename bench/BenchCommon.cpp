//===- bench/BenchCommon.cpp - Shared harness for figure benches -----------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Metrics.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace selspec;
using namespace selspec::bench;

const std::vector<BenchProgram> &selspec::bench::table2Suite() {
  static const std::vector<BenchProgram> Suite = {
      {"richards", "Operating system task queue simulation",
       {"richards.mica"}, 300, 420},
      {"instsched", "A MIPS assembly code instruction scheduler",
       {"instsched.mica"}, 12, 16},
      {"typechecker", "Typechecker for the minilang language",
       {"minilang.mica", "typechecker.mica"}, 300, 380},
      {"compiler", "Optimizing compiler + VM for the minilang language",
       {"minilang.mica", "compiler.mica"}, 220, 280},
  };
  return Suite;
}

namespace {

/// Refusal helper: a trapped phase aborts the bench with the trap's kind
/// name and faulting location, exiting with the trap's own code so a
/// harness can tell a dispatch failure (11) from a plain diagnostic (1).
[[noreturn]] void refuse(const std::string &Name, const char *What,
                         const RuntimeTrap &T, const std::string &Err) {
  std::cerr << "error: " << What << ' ' << Name << ": " << Err << '\n';
  if (T.isTrap()) {
    std::cerr << "error: trap " << trapKindName(T.Kind);
    if (T.Loc.isValid())
      std::cerr << " at line " << T.Loc.Line << ", col " << T.Loc.Col;
    std::cerr << " (exit " << trapExitCode(T.Kind) << ")\n";
  }
  std::exit(T.isTrap() ? trapExitCode(T.Kind) : 1);
}

/// The "tier" recorded by an existing BENCH_*.json, empty when the file
/// does not exist or predates the field.
std::string previousJsonTier(const std::string &Path) {
  std::ifstream IS(Path);
  if (!IS)
    return "";
  std::ostringstream Buf;
  Buf << IS.rdbuf();
  const std::string Text = Buf.str();
  const std::string Key = "\"tier\": \"";
  size_t At = Text.find(Key);
  if (At == std::string::npos)
    return "";
  At += Key.size();
  size_t End = Text.find('"', At);
  return End == std::string::npos ? "" : Text.substr(At, End - At);
}

} // namespace

std::string selspec::bench::gitDescribe() {
  std::string Out;
  if (FILE *P = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char Buf[128];
    while (fgets(Buf, sizeof(Buf), P))
      Out += Buf;
    pclose(P);
  }
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
    Out.pop_back();
  // Keep the JSON well-formed whatever the tree state produced.
  for (char &Ch : Out)
    if (Ch == '"' || Ch == '\\' || static_cast<unsigned char>(Ch) < 0x20)
      Ch = '?';
  return Out.empty() ? "unknown" : Out;
}

SuiteResult selspec::bench::runSuiteProgram(const BenchProgram &Program,
                                            const std::vector<Config> &Configs,
                                            const SelectiveOptions &Sel) {
  std::string Err;
  std::unique_ptr<Workbench> W = Workbench::fromFiles(Program.Files, Err);
  if (!W) {
    std::cerr << "error: cannot load " << Program.Name << ": " << Err
              << '\n';
    std::exit(1);
  }
  if (!W->collectProfile(Program.TrainInput, Err))
    refuse(Program.Name, "profiling", W->lastTrap(), Err);

  SuiteResult R;
  R.Program = Program;
  R.SourceLines = W->sourceLines();
  std::string BaseOutput;
  for (Config C : Configs) {
    std::optional<ConfigResult> CR =
        W->runConfig(C, Program.TestInput, Err, Sel);
    if (!CR)
      refuse(Program.Name, "running", W->lastTrap(),
             std::string("under ") + configName(C) + ": " + Err);
    // Cross-check: every configuration must compute the same answer.
    if (BaseOutput.empty())
      BaseOutput = CR->Output;
    else if (CR->Output != BaseOutput) {
      std::cerr << "error: " << Program.Name << " under " << configName(C)
                << " produced different output\n";
      std::exit(1);
    }
    R.ByConfig.push_back(std::move(*CR));
  }
  writeBenchJson(R);
  return R;
}

bool selspec::bench::writeBenchJson(const SuiteResult &R) {
  // A trapped run produced no meaningful counters; emitting its JSON would
  // silently poison downstream comparisons.  runSuiteProgram exits on any
  // failed run, so a trap here means a caller built the SuiteResult by
  // hand and skipped that check — fail loudly instead of writing the file.
  for (const ConfigResult &CR : R.ByConfig) {
    if (CR.Trap != TrapKind::None) {
      std::cerr << "error: " << R.Program.Name << " under "
                << configName(CR.Configuration) << " trapped ("
                << trapKindName(CR.Trap)
                << "); refusing to write BENCH_" << R.Program.Name
                << ".json (exit " << trapExitCode(CR.Trap) << ")\n";
      std::exit(trapExitCode(CR.Trap));
    }
  }
  std::string Path = "BENCH_" + R.Program.Name + ".json";
  // All configs in one SuiteResult ran on the Workbench's single tier.
  const char *Tier =
      tierName(R.ByConfig.empty() ? defaultTier() : R.ByConfig.front().Tier);
  std::string PrevTier = previousJsonTier(Path);
  if (!PrevTier.empty() && PrevTier != Tier)
    std::cerr << "warning: " << Path << " was measured on the '" << PrevTier
              << "' tier; overwriting with '" << Tier
              << "' tier results — numbers are not comparable across"
                 " tiers\n";
  std::ofstream OS(Path);
  if (!OS) {
    std::cerr << "warning: cannot write " << Path << '\n';
    return false;
  }
  OS << "{\n"
     << "  \"benchmark\": \"" << R.Program.Name << "\",\n"
     << "  \"tier\": \"" << Tier << "\",\n"
     << "  \"git_describe\": \"" << gitDescribe() << "\",\n"
     << "  \"train_input\": " << R.Program.TrainInput << ",\n"
     << "  \"test_input\": " << R.Program.TestInput << ",\n"
     << "  \"source_lines\": " << R.SourceLines << ",\n"
     << "  \"configs\": [\n";
  for (size_t I = 0; I != R.ByConfig.size(); ++I) {
    const ConfigResult &CR = R.ByConfig[I];
    const RunStats &S = CR.Run;
    OS << "    {\n"
       << "      \"config\": \"" << configName(CR.Configuration) << "\",\n"
       << "      \"tier\": \"" << tierName(CR.Tier) << "\",\n"
       << "      \"dispatches\": " << S.totalDispatches() << ",\n"
       << "      \"dynamic_dispatches\": " << S.DynamicDispatches << ",\n"
       << "      \"version_selects\": " << S.VersionSelects << ",\n"
       << "      \"static_calls\": " << S.StaticCalls << ",\n"
       << "      \"inline_prims\": " << S.InlinePrims << ",\n"
       << "      \"method_invocations\": " << S.MethodInvocations << ",\n"
       << "      \"closure_calls\": " << S.ClosureCalls << ",\n"
       << "      \"nodes_evaluated\": " << S.NodesEvaluated << ",\n"
       << "      \"peak_depth\": " << S.PeakDepth << ",\n"
       << "      \"cycles\": " << S.Cycles << ",\n"
       << "      \"compiled_routines\": " << CR.CompiledRoutines << ",\n"
       << "      \"invoked_routines\": " << CR.InvokedRoutines << ",\n"
       << "      \"code_size\": " << CR.CodeSize << "\n"
       << "    }" << (I + 1 == R.ByConfig.size() ? "" : ",") << "\n";
  }
  // The process-wide counter registry (dispatcher.*, interp.*, ...),
  // accumulated across every config's runs above.
  OS << "  ],\n  \"counters\": " << metrics::toJson("  ") << "\n}\n";
  return true;
}

SuiteResult selspec::bench::runSuiteProgram(const BenchProgram &Program,
                                            const SelectiveOptions &Sel) {
  return runSuiteProgram(
      Program,
      std::vector<Config>(AllConfigs.begin(), AllConfigs.end()), Sel);
}

void selspec::bench::printHeader(const std::string &Title,
                                 const std::string &PaperRef) {
  std::cout << "== " << Title << " ==\n"
            << "Reproduces: " << PaperRef
            << " (Dean, Chambers & Grove, PLDI 1995)\n\n";
}
