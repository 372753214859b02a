//===- tools/micac.cpp - Mica compiler/runner CLI ---------------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the whole pipeline:
///
///   micac check   <files...>                parse + resolve only
///   micac run     <files...> [options]      compile under one config & run
///   micac report  <files...> [options]      compare all five configurations
///   micac profile <files...> [options]      collect a profile, save the DB
///   micac plan    <files...> [options]      emit specialization directives
///   micac dump    <files...> [options]      print optimized method bodies
///
/// Options:
///   --input N           main() argument for the measured run   [10]
///   --profile-input N   main() argument for the training run   [= input]
///   --config NAME       base|cust|cust-mm|cha|selective        [selective]
///   --tier NAME         execution tier: ast|bytecode           [bytecode,
///                       or the SELSPEC_TIER environment variable]
///   --dump-bytecode     run/dump: print the register-bytecode listing of
///                       the compiled program (opcodes, sites, inline-cache
///                       state) to stdout
///   --threshold T       SpecializationThreshold                [1000]
///   --no-cascade        disable cascading specializations
///   --no-stdlib         do not prepend mica/stdlib.mica
///   --feedback          enable profile-guided type feedback
///   --return-classes    enable interprocedural return-class analysis
///   --stats             print run statistics
///   --time-report       print per-phase wall-clock times and the
///                       executed-node-kind histogram of the measured run
///   --db FILE           profile-database path (profile subcommand) [profile.db]
///   --profile-db FILE   run/report/plan/dump: load the training profile from
///                       a saved database instead of running the training
///                       input
///   --directives FILE   run: compile and run a saved directives file instead
///                       of planning (profiling only for --feedback); plan:
///                       where to write it
///   --max-depth N       Mica recursion depth limit                [800]
///   --max-nodes N       executed-node budget per run              [4e9]
///   --max-objects N     live heap object-count limit              [16M]
///   --deadline-ms N     whole-invocation wall-clock deadline; phases
///                       and runs stop cooperatively with exit 23  [off]
///   --metrics-json FILE write the process-wide counter registry as a
///                       flat JSON object on exit (any command)
///   --trace-out FILE    write a Chrome-trace-format (Perfetto-loadable)
///                       span file of the pipeline phases on exit
///
/// The SELSPEC_FAILPOINTS environment variable (name=fail|crash, comma
/// separated; see support/FailPoint.h) arms deterministic fault injection
/// for resilience testing; a bad spec is a usage error.
///
/// Exit codes: 0 success; 1 load/compile diagnostics; 2 usage errors;
/// 10-17 runtime traps (type error, dispatch failure, bounds, ...);
/// 20-22 resource limits (node budget, recursion depth, heap);
/// 23 deadline exceeded; 70 internal errors.  See trapExitCode() in
/// interp/RuntimeTrap.h.
///
/// File arguments are looked up in the working directory first, then in
/// the repository's mica/ directory.
///
//===----------------------------------------------------------------------===//

#include "bytecode/BytecodeCompiler.h"
#include "bytecode/Disassembler.h"
#include "driver/Report.h"
#include "driver/Snapshot.h"
#include "interp/RuntimeTrap.h"
#include "lang/AstPrinter.h"
#include "profile/ProfileDb.h"
#include "specialize/Directives.h"
#include "support/FailPoint.h"
#include "support/MemoryBudget.h"
#include "support/Metrics.h"
#include "support/TraceEmitter.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace selspec;

namespace {

struct CliOptions {
  std::string Command;
  std::vector<std::string> Files;
  int64_t Input = 10;
  int64_t ProfileInput = -1; // default: same as Input
  Config Configuration = Config::Selective;
  SelectiveOptions Sel;
  OptimizerOptions Opt;
  bool WithStdlib = true;
  bool Stats = false;
  bool TimeReport = false;
  std::string DbPath = "profile.db";
  std::string ProfileDbPath;
  std::string DirectivesPath;
  std::string MetricsJsonPath;
  std::string TraceOutPath;
  ResourceLimits Limits;
  int64_t DeadlineMs = 0; // 0 = no deadline
  std::optional<ExecTier> Tier;
  bool DumpBytecode = false;
};

/// Whole-invocation stop signal; armed in main() when --deadline-ms is
/// given and threaded through every Workbench, and so into every run.
CancelToken GlobalCancel;
const CancelToken *ActiveCancel = nullptr;

[[noreturn]] void usage(const char *Message = nullptr) {
  if (Message)
    std::cerr << "micac: " << Message << "\n\n";
  std::cerr <<
      "usage: micac <check|run|report|profile|plan|dump> <files...> [options]\n"
      "  --input N  --profile-input N  --config NAME  --threshold T\n"
      "  --tier NAME  --dump-bytecode\n"
      "  --no-cascade  --no-stdlib  --feedback  --return-classes\n"
      "  --stats  --time-report  --db FILE  --profile-db FILE\n"
      "  --max-depth N  --max-nodes N  --max-objects N  --max-bytes N\n"
      "  --deadline-ms N\n"
      "  --metrics-json FILE  --trace-out FILE\n";
  std::exit(2);
}

/// Parses a full decimal integer or exits with a usage error — CLI input
/// must never throw (std::stoll does on junk or overflow).
template <typename T> T parseIntArg(const std::string &Text, const char *Flag) {
  T V{};
  auto [Ptr, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(), V);
  if (Ec != std::errc() || Ptr != Text.data() + Text.size())
    usage((std::string("invalid integer '") + Text + "' for " + Flag).c_str());
  return V;
}

bool parseConfig(const std::string &Name, Config &Out) {
  if (Name == "base") Out = Config::Base;
  else if (Name == "cust") Out = Config::Cust;
  else if (Name == "cust-mm" || Name == "custmm") Out = Config::CustMM;
  else if (Name == "cha") Out = Config::CHA;
  else if (Name == "selective") Out = Config::Selective;
  else return false;
  return true;
}

CliOptions parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    usage();
  CliOptions O;
  O.Command = Argv[1];
  // Environment default for the byte budget; an explicit --max-bytes
  // below overrides it.
  O.Limits.MaxBytes = membudget::maxBytesFromEnv(O.Limits.MaxBytes);
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NextValue = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value after " + A).c_str());
      return Argv[++I];
    };
    if (A == "--input")
      O.Input = parseIntArg<int64_t>(NextValue(), "--input");
    else if (A == "--profile-input")
      O.ProfileInput = parseIntArg<int64_t>(NextValue(), "--profile-input");
    else if (A == "--config") {
      if (!parseConfig(NextValue(), O.Configuration))
        usage("unknown --config value");
    } else if (A == "--threshold")
      O.Sel.SpecializationThreshold =
          parseIntArg<uint64_t>(NextValue(), "--threshold");
    else if (A == "--max-depth") {
      O.Limits.MaxDepth = parseIntArg<uint32_t>(NextValue(), "--max-depth");
      if (O.Limits.MaxDepth == 0)
        usage("--max-depth must be at least 1");
    } else if (A == "--max-nodes") {
      O.Limits.MaxNodes = parseIntArg<uint64_t>(NextValue(), "--max-nodes");
      if (O.Limits.MaxNodes == 0)
        usage("--max-nodes must be at least 1");
    } else if (A == "--max-objects") {
      O.Limits.MaxObjects = parseIntArg<uint64_t>(NextValue(), "--max-objects");
      if (O.Limits.MaxObjects == 0)
        usage("--max-objects must be at least 1");
    } else if (A == "--max-bytes") {
      O.Limits.MaxBytes = parseIntArg<uint64_t>(NextValue(), "--max-bytes");
      if (O.Limits.MaxBytes == 0)
        usage("--max-bytes must be at least 1");
    } else if (A == "--deadline-ms") {
      O.DeadlineMs = parseIntArg<int64_t>(NextValue(), "--deadline-ms");
      if (O.DeadlineMs <= 0)
        usage("--deadline-ms must be at least 1");
    } else if (A == "--tier" || A.rfind("--tier=", 0) == 0) {
      std::string Name = A == "--tier" ? NextValue() : A.substr(7);
      std::optional<ExecTier> T = parseTier(Name);
      if (!T)
        usage(("unknown --tier value '" + Name + "' (ast|bytecode)").c_str());
      O.Tier = *T;
    } else if (A == "--dump-bytecode")
      O.DumpBytecode = true;
    else if (A == "--profile-db")
      O.ProfileDbPath = NextValue();
    else if (A == "--no-cascade")
      O.Sel.CascadeSpecializations = false;
    else if (A == "--no-stdlib")
      O.WithStdlib = false;
    else if (A == "--feedback")
      O.Opt.EnableTypeFeedback = true;
    else if (A == "--return-classes")
      O.Opt.UseReturnClasses = true;
    else if (A == "--stats")
      O.Stats = true;
    else if (A == "--time-report")
      O.TimeReport = true;
    else if (A == "--db")
      O.DbPath = NextValue();
    else if (A == "--directives")
      O.DirectivesPath = NextValue();
    else if (A == "--metrics-json")
      O.MetricsJsonPath = NextValue();
    else if (A == "--trace-out")
      O.TraceOutPath = NextValue();
    else if (!A.empty() && A[0] == '-')
      usage(("unknown option " + A).c_str());
    else
      O.Files.push_back(A);
  }
  if (O.Files.empty())
    usage("no input files");
  if (O.ProfileInput < 0)
    O.ProfileInput = O.Input;
  return O;
}

/// Reads a file from the working directory, falling back to mica/.
std::optional<std::string> readSource(const std::string &Path) {
  std::ifstream IS(Path);
  if (IS) {
    std::ostringstream Buf;
    Buf << IS.rdbuf();
    return Buf.str();
  }
  return Workbench::readMicaFile(Path);
}

std::unique_ptr<Workbench> load(const CliOptions &O) {
  std::vector<std::string> Sources;
  for (const std::string &F : O.Files) {
    std::optional<std::string> Src = readSource(F);
    if (!Src) {
      std::cerr << "micac: cannot read '" << F << "'\n";
      std::exit(1);
    }
    Sources.push_back(std::move(*Src));
  }
  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromSources(Sources, Err, O.WithStdlib, ActiveCancel);
  if (!W) {
    if (!Err.empty() && Err.back() != '\n')
      Err += '\n';
    std::cerr << "micac: " << Err;
    std::exit(ActiveCancel && ActiveCancel->stopRequested()
                  ? trapExitCode(TrapKind::DeadlineExceeded)
                  : 1);
  }
  W->setLimits(O.Limits);
  if (O.Tier)
    W->setTier(*O.Tier);
  return W;
}

/// Renders accumulated pipeline warnings (e.g. Selective degrading to CHA)
/// to stderr and clears them.
void flushDiags(Workbench &W) {
  std::string Text = W.diagnostics().toString();
  if (!Text.empty())
    std::cerr << Text;
  W.diagnostics().clear();
}

/// Exit code for a failed run: the trap-specific code when the failure was
/// a runtime trap, 1 otherwise (load/compile diagnostics).
int failureExit(const RuntimeTrap &T) {
  return T.isTrap() ? trapExitCode(T.Kind) : 1;
}

/// Renders \p Err and returns the exit code of \p W's last failure.
int reportFailure(const Workbench &W, const std::string &Err) {
  std::cerr << "micac: " << Err << '\n';
  return failureExit(W.lastTrap());
}

/// Fills \p W's training profile from the one profile source of every
/// command: the --profile-db database when one is given, otherwise (and
/// only when the command \p Needs a profile) a run of the training input.
/// Returns 0, or the exit code of the failure.
int loadProfile(const CliOptions &O, Workbench &W, bool Needs) {
  if (O.ProfileDbPath.empty()) {
    std::string Err;
    if (Needs && !W.collectProfile(O.ProfileInput, Err))
      return reportFailure(W, Err);
    return 0;
  }
  Diagnostics ProfileDiags;
  bool Ok = W.loadProfileDb(O.ProfileDbPath, O.Files.front(), ProfileDiags);
  std::string Text = ProfileDiags.toString();
  if (!Text.empty())
    std::cerr << Text;
  if (Ok)
    return 0;
  std::cerr << "micac: cannot load profile database '" << O.ProfileDbPath
            << "'\n";
  return 1;
}

/// Prints the --dump-bytecode listing of \p Mod, or when null (the AST
/// tier) of \p CP lowered for the listing alone.  Returns the exit code.
int dumpBytecodeListing(const CompiledProgram &CP, const BcModule *Mod) {
  BcModule Lowered;
  if (!Mod) {
    Lowered = compileToBytecode(CP);
    if (!Lowered.Ok) {
      std::cerr << "micac: bytecode compilation failed: " << Lowered.Error
                << '\n';
      return 1;
    }
    Mod = &Lowered;
  }
  disassemble(*Mod, CP.program(), std::cout);
  return 0;
}

void printStats(const ConfigResult &R) {
  const RunStats &S = R.Run;
  std::cout << "-- stats (" << configName(R.Configuration) << ")\n"
            << "   dispatches:        " << TextTable::count(S.totalDispatches())
            << " (dynamic " << TextTable::count(S.DynamicDispatches)
            << ", selects " << TextTable::count(S.VersionSelects) << ")\n"
            << "   static calls:      " << TextTable::count(S.StaticCalls)
            << "\n   inlined prims:     " << TextTable::count(S.InlinePrims)
            << "\n   predicted hit/miss: " << TextTable::count(S.PredictedHits)
            << "/" << TextTable::count(S.PredictedMisses)
            << "\n   feedback hit/miss:  " << TextTable::count(S.FeedbackHits)
            << "/" << TextTable::count(S.FeedbackMisses)
            << "\n   closures new/call: " << TextTable::count(S.ClosuresCreated)
            << "/" << TextTable::count(S.ClosureCalls)
            << "\n   cycles:            " << TextTable::count(S.Cycles)
            << "\n   compiled routines: " << TextTable::count(R.CompiledRoutines)
            << " (invoked " << TextTable::count(R.InvokedRoutines) << ")\n";
}

void printNodeMix(const RunStats &S) {
  std::cout << "-- node mix (" << TextTable::count(S.NodesEvaluated)
            << " nodes evaluated)\n";
  std::vector<std::pair<uint64_t, unsigned>> Rows;
  for (unsigned K = 0; K != Expr::NumKinds; ++K)
    if (S.NodeMix[K])
      Rows.emplace_back(S.NodeMix[K], K);
  std::sort(Rows.rbegin(), Rows.rend());
  for (const auto &[Count, K] : Rows) {
    std::ostringstream Pct;
    Pct.precision(1);
    Pct << std::fixed
        << 100.0 * static_cast<double>(Count) /
               static_cast<double>(S.NodesEvaluated);
    std::string Name = exprKindName(static_cast<Expr::Kind>(K));
    std::cout << "   " << Name << std::string(14 - Name.size(), ' ')
              << TextTable::count(Count) << "  (" << Pct.str() << "%)\n";
  }
}

int cmdCheck(const CliOptions &O) {
  std::unique_ptr<Workbench> W = load(O);
  std::cout << "ok: " << W->program().numUserMethods() << " methods, "
            << W->program().Classes.size() << " classes, "
            << W->program().numCallSites() << " call sites, "
            << W->sourceLines() << " lines\n";
  return 0;
}

int cmdRun(const CliOptions &O) {
  std::unique_ptr<Workbench> W = load(O);
  std::string Err;

  // Replaying a saved directives file skips planning (Section 4's "the
  // compiler then executes the directives").
  SpecializationPlan Directives;
  if (!O.DirectivesPath.empty()) {
    std::ifstream IS(O.DirectivesPath);
    if (!IS) {
      std::cerr << "micac: cannot read '" << O.DirectivesPath << "'\n";
      return 1;
    }
    std::ostringstream Buf;
    Buf << IS.rdbuf();
    if (!deserializeDirectives(Buf.str(), W->program(),
                               W->applicableClasses(), Directives, Err)) {
      std::cerr << "micac: " << Err << '\n';
      return 1;
    }
  }
  // Planning needs a profile only for Selective; type feedback needs one
  // in a replay too.
  if (int Rc = loadProfile(O, *W,
                           O.Opt.EnableTypeFeedback ||
                               (O.DirectivesPath.empty() &&
                                O.Configuration == Config::Selective)))
    return Rc;
  std::shared_ptr<const CompiledSnapshot> Snap =
      O.DirectivesPath.empty()
          ? W->buildSnapshot(O.Configuration, Err, O.Sel, O.Opt)
          : W->buildSnapshot(Directives, Err, O.Opt);
  flushDiags(*W);
  if (!Snap)
    return reportFailure(*W, Err);
  if (O.DumpBytecode)
    if (int Rc = dumpBytecodeListing(Snap->compiled(), Snap->bytecode()))
      return Rc;
  std::optional<ConfigResult> R = W->runSnapshot(*Snap, O.Input, Err);
  flushDiags(*W);
  if (!R)
    return reportFailure(*W, Err);
  std::cout << R->Output;
  if (O.Stats)
    printStats(*R);
  if (O.TimeReport) {
    TraceEmitter::global().printPhases(std::cout);
    printNodeMix(R->Run);
  }
  return 0;
}

int cmdDump(const CliOptions &O) {
  std::unique_ptr<Workbench> W = load(O);
  if (int Rc = loadProfile(O, *W,
                           O.Configuration == Config::Selective ||
                               O.Opt.EnableTypeFeedback))
    return Rc;
  std::unique_ptr<CompiledProgram> CP =
      W->compileOnly(O.Configuration, O.Sel, O.Opt);
  flushDiags(*W);
  if (!CP) {
    // The reason (injected failure or deadline) was already rendered via
    // flushDiags or sits in lastTrap().
    if (W->lastTrap().isTrap())
      std::cerr << "micac: " << W->lastTrap().Message << '\n';
    return failureExit(W->lastTrap());
  }
  if (O.DumpBytecode)
    return dumpBytecodeListing(*CP, nullptr);
  const Program &P = W->program();
  for (const CompiledMethod &CM : CP->versions()) {
    if (!CM.Body)
      continue;
    std::cout << "-- " << P.methodLabel(CM.Source) << " #" << CM.Index
              << "  tuple=" << tupleToString(CM.Tuple, P.Classes, P.Syms)
              << "  size=" << CM.CodeSize << '\n'
              << printExpr(CM.Body.get(), P.Syms) << "\n\n";
  }
  return 0;
}

int cmdPlan(const CliOptions &O) {
  std::unique_ptr<Workbench> W = load(O);
  if (int Rc = loadProfile(O, *W, /*Needs=*/true))
    return Rc;
  Diagnostics PlanDiags;
  SpecializationPlan Plan =
      makePlan(O.Configuration, W->program(), W->applicableClasses(),
               W->passThrough(), &W->profile(), O.Sel, &PlanDiags);
  std::string DiagText = PlanDiags.toString();
  if (!DiagText.empty())
    std::cerr << DiagText;
  std::string Text = serializeDirectives(Plan, W->program());
  if (O.DirectivesPath.empty()) {
    std::cout << Text;
    return 0;
  }
  std::ofstream OS(O.DirectivesPath);
  if (!OS) {
    std::cerr << "micac: cannot write '" << O.DirectivesPath << "'\n";
    return 1;
  }
  OS << Text;
  std::cout << "wrote " << Plan.totalVersions() << " version directives to "
            << O.DirectivesPath << '\n';
  return 0;
}

int cmdReport(const CliOptions &O) {
  std::unique_ptr<Workbench> W = load(O);
  if (int Rc = loadProfile(O, *W, /*Needs=*/true))
    return Rc;
  std::string Err;
  TextTable T({"Config", "Dispatches", "Cycles", "Speedup", "Routines",
               "Invoked"});
  uint64_t BaseCycles = 0;
  for (Config C : {Config::Base, Config::Cust, Config::CustMM, Config::CHA,
                   Config::Selective}) {
    std::optional<ConfigResult> R =
        W->runConfig(C, O.Input, Err, O.Sel, O.Opt);
    flushDiags(*W);
    if (!R)
      return reportFailure(*W, Err);
    if (C == Config::Base)
      BaseCycles = R->Run.Cycles;
    T.addRow({configName(C), TextTable::count(R->Run.totalDispatches()),
              TextTable::count(R->Run.Cycles),
              TextTable::ratio(static_cast<double>(BaseCycles) /
                               static_cast<double>(R->Run.Cycles)),
              TextTable::count(R->CompiledRoutines),
              TextTable::count(R->InvokedRoutines)});
  }
  T.print(std::cout);
  if (O.TimeReport)
    TraceEmitter::global().printPhases(std::cout);
  return 0;
}

int cmdProfile(const CliOptions &O) {
  std::unique_ptr<Workbench> W = load(O);
  std::string Err;
  if (!W->collectProfile(O.ProfileInput, Err))
    return reportFailure(*W, Err);
  ProfileDb Db;
  Db.forProgram(O.Files.front()).merge(W->profile());
  Diagnostics SaveDiags;
  if (!Db.saveToFile(O.DbPath, SaveDiags)) {
    std::cerr << SaveDiags.toString();
    return 1;
  }
  std::cout << "wrote " << W->profile().numArcs() << " arcs (total weight "
            << TextTable::count(W->profile().totalWeight()) << ") to "
            << O.DbPath << '\n';
  return 0;
}

} // namespace

namespace {

int runCommand(const CliOptions &O) {
  if (O.Command == "check")
    return cmdCheck(O);
  if (O.Command == "run")
    return cmdRun(O);
  if (O.Command == "report")
    return cmdReport(O);
  if (O.Command == "profile")
    return cmdProfile(O);
  if (O.Command == "plan")
    return cmdPlan(O);
  if (O.Command == "dump")
    return cmdDump(O);
  usage(("unknown command '" + O.Command + "'").c_str());
}

/// Writes the --metrics-json / --trace-out sinks after the command ran.
/// A sink failure degrades a successful invocation to exit 1 but never
/// masks the command's own failure code.
int writeObservabilitySinks(const CliOptions &O, int Rc) {
  std::string Err;
  if (!O.TraceOutPath.empty() &&
      !TraceEmitter::global().writeFile(O.TraceOutPath, Err)) {
    std::cerr << "micac: " << Err << '\n';
    Rc = Rc ? Rc : 1;
  }
  if (!O.MetricsJsonPath.empty() &&
      !metrics::writeJsonFile(O.MetricsJsonPath, Err)) {
    std::cerr << "micac: " << Err << '\n';
    Rc = Rc ? Rc : 1;
  }
  return Rc;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string FpError;
  if (!failpoint::armFromEnv(FpError)) {
    std::cerr << "micac: " << FpError << '\n';
    return 2;
  }
  CliOptions O = parseArgs(Argc, Argv);
  if (O.DeadlineMs > 0) {
    GlobalCancel.setDeadline(Deadline::afterMillis(O.DeadlineMs));
    ActiveCancel = &GlobalCancel;
  }
  if (!O.TraceOutPath.empty() || O.TimeReport)
    TraceEmitter::global().setEnabled(true);
  return writeObservabilitySinks(O, runCommand(O));
}
