//===- tools/mica-stress.cpp - Crash-proofing stress harness ----------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random stress harness for the whole pipeline.  Each iteration
/// generates a random Mica program (sometimes byte-mutated into near-junk),
/// pushes it through load -> resolve -> profile -> plan -> optimize -> run
/// under tight resource limits, and sometimes corrupts a serialized profile
/// and feeds it back through the loader.  The single invariant:
///
///   every input yields Diagnostics, a RuntimeTrap, or a normal result —
///   never a crash, assert, or sanitizer report.
///
/// Everything derives deterministically from --seed, so any CI failure is
/// reproducible from the command line it logged.
///
///   mica-stress [--seed S] [--iterations N] [--jobs N] [--failpoints]
///               [--max-seconds N] [--iter-seed S] [--verbose]
///               [--differential]
///
/// --differential switches every iteration to tier-equivalence checking:
/// the generated program is compiled once under a random configuration and
/// executed on BOTH tiers (AST walker and register bytecode); result,
/// trap kind, rendered error, printed output and the full RunStats —
/// including the NodeMix histogram — must match exactly.  When the run
/// completes, both tiers run again under a node budget drawn below the
/// nodes it evaluated, so the budget trap lands on a random charge point.
/// Any divergence is reported with the iteration seed (and the drawn
/// budget) and fails the invocation (exit 1), same as a crash.
///
/// Iterations run in forked, supervised workers (--jobs of them; each
/// worker executes its share of the iteration list while drawing every
/// seed, so the seed set is identical to a sequential run).  Before each
/// iteration a worker checkpoints the iteration seed and a running
/// mutator trace to a status file; when a worker dies on a signal the
/// parent re-reads the checkpoint and prints the failing seed, the trace,
/// and a one-command repro line:
///
///   mica-stress --iter-seed 1234567 --failpoints
///
/// --iter-seed replays exactly one iteration in-process (no fork), so the
/// repro runs under a debugger or sanitizer with nothing in the way.
/// --failpoints arms one randomly chosen fail-action failpoint per
/// iteration (derived from the iteration seed); --max-seconds bounds the
/// wall-clock of long nightly runs, stopping cleanly mid-list.
///
/// Exits 0 when all iterations complete (whatever mix of outcomes), 1
/// when a worker crashed (after printing the repro), 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "bytecode/BytecodeCompiler.h"
#include "bytecode/BytecodeInterpreter.h"
#include "driver/Pipeline.h"
#include "fuzz/Mutator.h"
#include "fuzz/ProgramGen.h"
#include "profile/ProfileDb.h"
#include "support/FailPoint.h"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace selspec;

namespace {

struct Outcomes {
  uint64_t LoadRejects = 0;  ///< lex/parse/resolve diagnostics
  uint64_t ProfileTraps = 0; ///< training run trapped
  uint64_t RunTraps = 0;     ///< measured run trapped
  uint64_t ProfileCorruptRejects = 0; ///< corrupted db rejected by loader
  uint64_t ProfileCorruptAccepts = 0; ///< corrupted db survived load+validate
  uint64_t InjectedFailures = 0; ///< armed failpoint fired somewhere
  uint64_t Completed = 0;    ///< measured run finished normally
  uint64_t Iterations = 0;   ///< iterations this worker executed
  uint64_t BcFallbacks = 0;  ///< bytecode compiler could not lower (diff mode)
  uint64_t Mismatches = 0;   ///< tier divergence found (diff mode; fails run)
  uint64_t BudgetReruns = 0; ///< completed runs rerun under a cut budget

  void add(const Outcomes &O) {
    LoadRejects += O.LoadRejects;
    ProfileTraps += O.ProfileTraps;
    RunTraps += O.RunTraps;
    ProfileCorruptRejects += O.ProfileCorruptRejects;
    ProfileCorruptAccepts += O.ProfileCorruptAccepts;
    InjectedFailures += O.InjectedFailures;
    Completed += O.Completed;
    Iterations += O.Iterations;
    BcFallbacks += O.BcFallbacks;
    Mismatches += O.Mismatches;
    BudgetReruns += O.BudgetReruns;
  }
};

struct StressOptions {
  uint64_t Seed = 1;
  uint64_t Iterations = 200;
  unsigned Jobs = 1;
  bool Failpoints = false;
  uint64_t MaxSeconds = 0; // 0 = unbounded
  bool Verbose = false;
  bool HaveIterSeed = false;
  uint64_t IterSeed = 0;
  bool Differential = false;
  /// Nonzero forces the structured hierarchy synthesizer with this many
  /// classes on every iteration (10k-class soak runs); zero keeps the
  /// default mix (one iteration in ten draws a random-knob hierarchy).
  unsigned HierarchyClasses = 0;
};

[[noreturn]] void usage(const char *Message) {
  std::cerr << "mica-stress: " << Message << '\n'
            << "usage: mica-stress [--seed S] [--iterations N] [--jobs N]\n"
               "                   [--failpoints] [--max-seconds N]\n"
               "                   [--iter-seed S] [--verbose]\n"
               "                   [--differential] [--hierarchy-classes N]\n";
  std::exit(2);
}

uint64_t parseU64(const std::string &Text, const char *Flag) {
  uint64_t V = 0;
  auto [Ptr, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(), V);
  if (Ec != std::errc() || Ptr != Text.data() + Text.size())
    usage((std::string("invalid integer '") + Text + "' for " + Flag).c_str());
  return V;
}

/// Crash checkpoint shared with the supervisor: the worker rewrites the
/// whole file before and during each iteration, so after a SIGSEGV the
/// parent recovers the seed and the last phase reached.  -1 disables
/// checkpointing (--iter-seed repro mode).
int StatusFd = -1;

void statusWrite(const std::string &Text) {
  if (StatusFd < 0)
    return;
  // ftruncate-then-pwrite keeps the content consistent even if the worker
  // dies between the calls: a short read just loses the newest marker.
  (void)ftruncate(StatusFd, 0);
  (void)pwrite(StatusFd, Text.data(), Text.size(), 0);
}

/// One tier's observable result for the differential comparison.
struct TierResult {
  bool Ok = false;
  TrapKind Trap = TrapKind::None;
  std::string Error;
  std::string Output;
  RunStats Stats;
};

template <class InterpT>
TierResult runOneTier(InterpT &I, int64_t Input,
                      const std::ostringstream &Out) {
  TierResult R;
  R.Ok = I.callMain(Input);
  R.Trap = I.trap().Kind;
  R.Error = I.errorMessage();
  R.Output = Out.str();
  R.Stats = I.stats();
  return R;
}

/// Appends a description of every differing field to \p Why; true when the
/// two runs agree exactly.
bool sameTierResult(const TierResult &A, const TierResult &B,
                    std::string &Why) {
  auto Field = [&](const char *Name, uint64_t X, uint64_t Y) {
    if (X != Y)
      Why += std::string(" ") + Name + "=" + std::to_string(X) + "/" +
             std::to_string(Y);
  };
  if (A.Ok != B.Ok)
    Why += " ok";
  if (A.Trap != B.Trap)
    Why += std::string(" trap=") + trapKindName(A.Trap) + "/" +
           trapKindName(B.Trap);
  if (A.Error != B.Error)
    Why += " error-text";
  if (A.Output != B.Output)
    Why += " output";
  Field("dispatches", A.Stats.DynamicDispatches, B.Stats.DynamicDispatches);
  Field("selects", A.Stats.VersionSelects, B.Stats.VersionSelects);
  Field("static", A.Stats.StaticCalls, B.Stats.StaticCalls);
  Field("prims", A.Stats.InlinePrims, B.Stats.InlinePrims);
  Field("pred-hit", A.Stats.PredictedHits, B.Stats.PredictedHits);
  Field("pred-miss", A.Stats.PredictedMisses, B.Stats.PredictedMisses);
  Field("fb-hit", A.Stats.FeedbackHits, B.Stats.FeedbackHits);
  Field("fb-miss", A.Stats.FeedbackMisses, B.Stats.FeedbackMisses);
  Field("closures", A.Stats.ClosuresCreated, B.Stats.ClosuresCreated);
  Field("closure-calls", A.Stats.ClosureCalls, B.Stats.ClosureCalls);
  Field("allocs", A.Stats.Allocations, B.Stats.Allocations);
  Field("invokes", A.Stats.MethodInvocations, B.Stats.MethodInvocations);
  Field("nodes", A.Stats.NodesEvaluated, B.Stats.NodesEvaluated);
  Field("depth", A.Stats.PeakDepth, B.Stats.PeakDepth);
  Field("cycles", A.Stats.Cycles, B.Stats.Cycles);
  for (size_t K = 0; K != Expr::NumKinds; ++K)
    if (A.Stats.NodeMix[K] != B.Stats.NodeMix[K])
      Why += std::string(" mix[") +
             exprKindName(static_cast<Expr::Kind>(K)) + "]=" +
             std::to_string(A.Stats.NodeMix[K]) + "/" +
             std::to_string(B.Stats.NodeMix[K]);
  return Why.empty();
}

/// Differential iteration: compile once, execute on both tiers, demand
/// exact agreement.
void runDifferentialIteration(uint64_t IterSeed, const StressOptions &SO,
                              Outcomes &O) {
  ++O.Iterations;
  fuzz::Rng R(IterSeed);

  std::string Trace = "seed=" + std::to_string(IterSeed) + " differential";
  auto Mark = [&](const std::string &Note) {
    Trace += ' ';
    Trace += Note;
    statusWrite(Trace + '\n');
    if (SO.Verbose)
      std::cerr << "  " << Note << '\n';
  };
  statusWrite(Trace + '\n');

  std::string Src = fuzz::generateProgram(R.next());
  // Differential runs also soak the hierarchy axis: one iteration in ten
  // (or all, under --hierarchy-classes) compares the two tiers on a
  // structured megamorphic program instead of the grab-bag module.
  if (SO.HierarchyClasses != 0 || R.below(10) == 4) {
    fuzz::HierarchySpec HS;
    HS.Classes =
        SO.HierarchyClasses != 0 ? SO.HierarchyClasses : 20 + R.below(180);
    HS.Depth = 3 + R.below(12);
    HS.Fanout = 2 + R.below(8);
    HS.MultiParentPercent = R.below(3) == 0 ? 10 : 0;
    HS.MethodLeaves = 2 + R.below(15);
    HS.Generics = 1 + R.below(4);
    HS.Seed = R.next();
    Src = fuzz::generateHierarchyProgram(HS);
    Mark("hierarchy=" + std::to_string(HS.Classes));
  }
  std::string Err;
  Mark("load");
  std::unique_ptr<Workbench> W = Workbench::fromSources({Src}, Err, false);
  if (!W) {
    Mark("load-rejected");
    ++O.LoadRejects;
    return;
  }

  // Tight limits so the depth guard (not the native-stack backstop, whose
  // trip point differs per tier by frame size) bounds runaway recursion.
  ResourceLimits Limits;
  Limits.MaxNodes = 200000;
  Limits.MaxDepth = 64;
  Limits.MaxObjects = 20000;
  W->setLimits(Limits);
  W->setTier(ExecTier::Ast); // the profile run is not under test here

  Mark("profile");
  if (!W->collectProfile(2 + R.below(4), Err)) {
    ++O.ProfileTraps;
    Mark(std::string("profile-trapped=") + trapKindName(W->lastTrap().Kind));
  }

  static const Config Configs[] = {Config::Base, Config::Cust,
                                   Config::CustMM, Config::CHA,
                                   Config::Selective};
  Config Cfg = Configs[R.below(5)];
  int64_t Input = 2 + R.below(6);
  Mark(std::string("compile config=") + configName(Cfg));
  std::unique_ptr<CompiledProgram> CP = W->compileOnly(Cfg);
  if (!CP) {
    Mark("compile-gated");
    return;
  }
  BcModule Mod = compileToBytecode(*CP);
  if (!Mod.Ok) {
    // Not a divergence — the driver would fall back — but worth counting:
    // the lowering is meant to be total.
    Mark("bytecode-fallback: " + Mod.Error);
    ++O.BcFallbacks;
    return;
  }

  // Runs both tiers under \p L; false (after reporting) on divergence.
  // \p Budget labels a budget rerun (empty for the unlimited run).
  auto RunBoth = [&](const ResourceLimits &L, TierResult &Ast,
                     const std::string &Budget) {
    TierResult Bc;
    {
      std::ostringstream Out;
      RunOptions Opts;
      Opts.Output = &Out;
      Opts.Limits = L;
      Interpreter I(*CP, Opts);
      Ast = runOneTier(I, Input, Out);
    }
    {
      std::ostringstream Out;
      RunOptions Opts;
      Opts.Output = &Out;
      Opts.Limits = L;
      BytecodeInterpreter I(*CP, Mod, Opts);
      Bc = runOneTier(I, Input, Out);
    }
    std::string Why;
    if (sameTierResult(Ast, Bc, Why))
      return true;
    ++O.Mismatches;
    Mark("MISMATCH:" + Why);
    std::cerr << "mica-stress: tier mismatch at seed " << IterSeed
              << " config=" << configName(Cfg) << " input=" << Input
              << (Budget.empty() ? "" : " ") << Budget << ":" << Why
              << "\n  repro: mica-stress --differential --iter-seed "
              << IterSeed << (Budget.empty() ? "" : "  # ") << Budget
              << '\n';
    return false;
  };

  Mark("run-both");
  TierResult Ast;
  if (!RunBoth(Limits, Ast, ""))
    return;
  if (Ast.Ok)
    ++O.Completed;
  else
    ++O.RunTraps;
  Mark("agreed");

  // Rerun a completed run under a budget it cannot meet, so the trap
  // lands on a random charge point of some region.
  if (!Ast.Ok || Ast.Stats.NodesEvaluated < 2)
    return;
  ResourceLimits Cut = Limits;
  Cut.MaxNodes =
      1 + R.below(static_cast<uint32_t>(Ast.Stats.NodesEvaluated - 1));
  const std::string Budget = "max-nodes=" + std::to_string(Cut.MaxNodes);
  Mark("rerun " + Budget);
  ++O.BudgetReruns;
  TierResult CutAst;
  if (RunBoth(Cut, CutAst, Budget))
    Mark("agreed");
}

void runIteration(uint64_t IterSeed, const StressOptions &SO, Outcomes &O) {
  if (SO.Differential)
    return runDifferentialIteration(IterSeed, SO, O);
  ++O.Iterations;
  fuzz::Rng R(IterSeed);

  std::string Trace = "seed=" + std::to_string(IterSeed);
  auto Mark = [&](const std::string &Note) {
    Trace += ' ';
    Trace += Note;
    statusWrite(Trace + '\n');
    if (SO.Verbose)
      std::cerr << "  " << Note << '\n';
  };
  statusWrite(Trace + '\n');

  // Fault injection: one randomly chosen fail-action failpoint per
  // iteration, derived from the iteration seed so --iter-seed replays the
  // same injection.  Crash actions stay out — this harness asserts the
  // no-crash invariant.
  if (SO.Failpoints) {
    const std::vector<const char *> &Names = failpoint::allNames();
    std::string Name = Names[R.below(static_cast<uint32_t>(Names.size()))];
    std::string E;
    failpoint::disarmAll();
    failpoint::configure(Name + "=fail", E);
    Mark("failpoint=" + Name);
  }
  uint64_t HitsBefore = failpoint::totalHits();

  std::string Src = fuzz::generateProgram(R.next());

  // Three in ten iterations smash the source bytes first: the front end
  // must survive arbitrary junk, not just generator-shaped programs.
  // One in ten swaps in a structured hierarchy (deep/wide class trees,
  // megamorphic k-way sites, occasional diamonds) instead of the
  // grab-bag module; --hierarchy-classes forces that on every iteration.
  unsigned Mode = R.below(10);
  if (SO.HierarchyClasses != 0 || Mode == 4) {
    fuzz::HierarchySpec HS;
    HS.Classes =
        SO.HierarchyClasses != 0 ? SO.HierarchyClasses : 20 + R.below(180);
    HS.Depth = 3 + R.below(12);
    HS.Fanout = 2 + R.below(8);
    HS.MultiParentPercent = R.below(3) == 0 ? 10 : 0;
    HS.MethodLeaves = 2 + R.below(15);
    HS.Generics = 1 + R.below(4);
    HS.Seed = R.next();
    Src = fuzz::generateHierarchyProgram(HS);
    Mark("hierarchy=" + std::to_string(HS.Classes));
  } else if (Mode < 3) {
    Src = fuzz::mutateBytes(Src, R, 1 + R.below(8));
    Mark("mutate-bytes");
  }

  std::string Err;
  Mark("load");
  std::unique_ptr<Workbench> W = Workbench::fromSources({Src}, Err, false);
  if (!W) {
    Mark("load-rejected");
    ++O.LoadRejects;
    if (SO.Failpoints && failpoint::totalHits() != HitsBefore)
      ++O.InjectedFailures;
    return;
  }

  // Tight limits: generated programs routinely loop or recurse, and the
  // harness must churn through thousands of them quickly.
  ResourceLimits Limits;
  Limits.MaxNodes = 200000;
  Limits.MaxDepth = 64;
  Limits.MaxObjects = 20000;
  W->setLimits(Limits);

  Mark("profile");
  if (!W->collectProfile(2 + R.below(4), Err)) {
    ++O.ProfileTraps;
    Mark(std::string("profile-trapped=") + trapKindName(W->lastTrap().Kind));
    // Keep going: Selective must degrade on the empty profile.
  }

  // One in ten iterations round-trips the collected profile through the
  // serializer with byte corruption on the way back in.
  if (Mode == 3) {
    Mark("corrupt-db");
    ProfileDb Db;
    Db.forProgram("fuzz").merge(W->profile());
    std::string Text = fuzz::mutateBytes(Db.serialize(), R, 1 + R.below(6));
    ProfileDb Loaded;
    Diagnostics Diags;
    if (Loaded.deserialize(Text, Diags)) {
      Loaded.validate("fuzz", W->program(), Diags);
      ++O.ProfileCorruptAccepts;
    } else {
      ++O.ProfileCorruptRejects;
    }
  }

  static const Config Configs[] = {Config::Base, Config::CHA,
                                   Config::Selective};
  Config C = Configs[R.below(3)];
  Mark(std::string("run config=") + configName(C));
  std::optional<ConfigResult> CR =
      W->runConfig(C, 2 + R.below(6), Err, SelectiveOptions{});
  if (CR) {
    ++O.Completed;
    Mark("completed");
  } else {
    ++O.RunTraps;
    Mark(std::string("run-trapped=") + trapKindName(W->lastTrap().Kind));
  }
  if (SO.Failpoints && failpoint::totalHits() != HitsBefore)
    ++O.InjectedFailures;
}

/// The iteration loop of one worker.  Worker \p Index executes iterations
/// where I % Jobs == Index, drawing every seed from the stream so the seed
/// set matches a sequential run exactly.
Outcomes workerLoop(const StressOptions &SO, unsigned Index) {
  Outcomes O;
  fuzz::Rng SeedStream(SO.Seed);
  auto Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I != SO.Iterations; ++I) {
    uint64_t IterSeed = SeedStream.next();
    if (I % SO.Jobs != Index)
      continue;
    if (SO.MaxSeconds &&
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - Start)
                .count() >= static_cast<int64_t>(SO.MaxSeconds))
      break;
    if (SO.Verbose)
      std::cerr << "-- iter " << I << " seed " << IterSeed << '\n';
    runIteration(IterSeed, SO, O);
  }
  failpoint::disarmAll();
  return O;
}

std::string statusPath(unsigned Index) {
  return "/tmp/mica-stress-" + std::to_string(getpid()) + "-" +
         std::to_string(Index) + ".status";
}

/// Serializes a worker's final tallies into its status file; the "done "
/// prefix distinguishes a clean exit from a crash checkpoint.
void writeDone(const Outcomes &O) {
  statusWrite("done " + std::to_string(O.LoadRejects) + ' ' +
              std::to_string(O.ProfileTraps) + ' ' +
              std::to_string(O.RunTraps) + ' ' +
              std::to_string(O.ProfileCorruptRejects) + ' ' +
              std::to_string(O.ProfileCorruptAccepts) + ' ' +
              std::to_string(O.InjectedFailures) + ' ' +
              std::to_string(O.Completed) + ' ' +
              std::to_string(O.Iterations) + ' ' +
              std::to_string(O.BcFallbacks) + ' ' +
              std::to_string(O.Mismatches) + ' ' +
              std::to_string(O.BudgetReruns) + '\n');
}

bool parseDone(const std::string &Text, Outcomes &O) {
  if (Text.rfind("done ", 0) != 0)
    return false;
  std::istringstream IS(Text.substr(5));
  return static_cast<bool>(IS >> O.LoadRejects >> O.ProfileTraps >>
                           O.RunTraps >> O.ProfileCorruptRejects >>
                           O.ProfileCorruptAccepts >> O.InjectedFailures >>
                           O.Completed >> O.Iterations >> O.BcFallbacks >>
                           O.Mismatches >> O.BudgetReruns);
}

std::string readAll(const std::string &Path) {
  std::string Out;
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return Out;
}

/// Parses a crash checkpoint ("seed=<S> <marker> <marker>...") and prints
/// the one-command repro line.
void reportCrash(const StressOptions &SO, unsigned Index, int Signal,
                 const std::string &Checkpoint) {
  std::cerr << "mica-stress: worker " << Index << " died with signal "
            << Signal << '\n';
  std::string Line = Checkpoint.substr(0, Checkpoint.find('\n'));
  if (Line.rfind("seed=", 0) == 0) {
    size_t Sp = Line.find(' ');
    std::string Seed = Line.substr(5, Sp == std::string::npos ? Sp : Sp - 5);
    std::cerr << "  failing iteration seed: " << Seed << '\n'
              << "  mutator trace: "
              << (Sp == std::string::npos ? "(none)" : Line.substr(Sp + 1))
              << '\n'
              << "  repro: mica-stress --iter-seed " << Seed
              << (SO.Failpoints ? " --failpoints" : "")
              << (SO.Differential ? " --differential" : "") << '\n';
  } else {
    std::cerr << "  no checkpoint recorded (crash before first iteration)\n";
  }
}

} // namespace

int main(int Argc, char **Argv) {
  StressOptions SO;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NextValue = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value after " + A).c_str());
      return Argv[++I];
    };
    if (A == "--seed")
      SO.Seed = parseU64(NextValue(), "--seed");
    else if (A == "--iterations")
      SO.Iterations = parseU64(NextValue(), "--iterations");
    else if (A == "--jobs") {
      SO.Jobs = static_cast<unsigned>(parseU64(NextValue(), "--jobs"));
      if (SO.Jobs == 0 || SO.Jobs > 256)
        usage("--jobs must be between 1 and 256");
    } else if (A == "--failpoints")
      SO.Failpoints = true;
    else if (A == "--max-seconds")
      SO.MaxSeconds = parseU64(NextValue(), "--max-seconds");
    else if (A == "--iter-seed") {
      SO.HaveIterSeed = true;
      SO.IterSeed = parseU64(NextValue(), "--iter-seed");
    } else if (A == "--verbose")
      SO.Verbose = true;
    else if (A == "--differential")
      SO.Differential = true;
    else if (A == "--hierarchy-classes") {
      SO.HierarchyClasses = static_cast<unsigned>(
          parseU64(NextValue(), "--hierarchy-classes"));
      if (SO.HierarchyClasses < 2 || SO.HierarchyClasses > 100000)
        usage("--hierarchy-classes must be between 2 and 100000");
    } else
      usage(("unknown option " + A).c_str());
  }

  // Repro mode: exactly one iteration, in-process, chatty — nothing
  // between a debugger and the crash being reproduced.
  if (SO.HaveIterSeed) {
    StressOptions One = SO;
    One.Verbose = true;
    Outcomes O;
    runIteration(SO.IterSeed, One, O);
    std::cout << "mica-stress: iteration seed " << SO.IterSeed
              << " completed\n";
    return 0;
  }

  // Fork the workers; each gets a status file for crash checkpoints.
  std::vector<pid_t> Pids(SO.Jobs, -1);
  for (unsigned K = 0; K != SO.Jobs; ++K) {
    std::string Path = statusPath(K);
    int Fd = open(Path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0600);
    if (Fd < 0) {
      std::cerr << "mica-stress: cannot create " << Path << ": "
                << std::strerror(errno) << '\n';
      return 2;
    }
    std::cout.flush();
    std::cerr.flush();
    pid_t Pid = fork();
    if (Pid < 0) {
      std::cerr << "mica-stress: fork failed: " << std::strerror(errno)
                << '\n';
      return 2;
    }
    if (Pid == 0) {
      StatusFd = Fd;
      Outcomes O = workerLoop(SO, K);
      writeDone(O);
      std::cout.flush();
      std::cerr.flush();
      _exit(0);
    }
    close(Fd);
    Pids[K] = Pid;
  }

  // Reap all workers; a signal death means the no-crash invariant broke,
  // so recover the checkpoint and print the repro line.
  Outcomes Total;
  bool Crashed = false;
  for (unsigned K = 0; K != SO.Jobs; ++K) {
    int Status = 0;
    if (waitpid(Pids[K], &Status, 0) < 0)
      continue;
    std::string Text = readAll(statusPath(K));
    (void)unlink(statusPath(K).c_str());
    if (WIFSIGNALED(Status)) {
      Crashed = true;
      reportCrash(SO, K, WTERMSIG(Status), Text);
      continue;
    }
    Outcomes O;
    if (WIFEXITED(Status) && WEXITSTATUS(Status) == 0 && parseDone(Text, O)) {
      Total.add(O);
    } else {
      Crashed = true;
      std::cerr << "mica-stress: worker " << K << " exited abnormally (code "
                << (WIFEXITED(Status) ? WEXITSTATUS(Status) : -1) << ")\n";
    }
  }

  std::cout << "mica-stress: " << Total.Iterations << " iteration(s), seed "
            << SO.Seed << ", jobs " << SO.Jobs
            << "\n  load rejects:        " << Total.LoadRejects
            << "\n  profile traps:       " << Total.ProfileTraps
            << "\n  run traps:           " << Total.RunTraps
            << "\n  corrupt db rejected: " << Total.ProfileCorruptRejects
            << "\n  corrupt db accepted: " << Total.ProfileCorruptAccepts
            << "\n  injected failures:   " << Total.InjectedFailures
            << "\n  completed runs:      " << Total.Completed << '\n';
  if (SO.Differential)
    std::cout << "  bytecode fallbacks:  " << Total.BcFallbacks
              << "\n  budget reruns:       " << Total.BudgetReruns
              << "\n  tier mismatches:     " << Total.Mismatches << '\n';
  if (Total.Mismatches)
    std::cerr << "mica-stress: " << Total.Mismatches
              << " tier mismatch(es) — the bytecode tier diverged\n";
  return (Crashed || Total.Mismatches) ? 1 : 0;
}
