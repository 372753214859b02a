//===- perfbench/harness.cpp - Workloads, oracle and raw samples ------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload in this process and prints, as the last
/// line of stdout, a JSON document of raw samples: per-class job
/// latencies, set-up times, the deterministic Table 3 / Fig 5 / Fig 6
/// quantities, peak memory and (with --trace 1) per-layer sums.  Every
/// job's output and RunStats are checked against a reference; any
/// mismatch counts as a failed job and makes the exit status 1.
///
///   perfbench --workload oneshot|serve|megamorphic|compile --seed N
///             --seconds S --trace 0|1 --root DIR --scratch DIR
///
/// See NOTES.md for why each workload exists.
///
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "driver/Serve.h"
#include "driver/Snapshot.h"
#include "fuzz/ProgramGen.h"
#include "profile/ProfileDb.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

using namespace selspec;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// The four Table 2 programs with the benchmark's inputs.  They are
/// smaller than the paper's test inputs so that a one-shot job takes tens
/// of milliseconds while the profile run plus the measured run still take
/// most of it (NOTES.md); serve inputs make a job a few milliseconds.
struct Table2Program {
  const char *Name;
  std::vector<const char *> Files;
  int64_t Train;
  int64_t OneshotInput;
  int64_t ServeInput;
};

const std::vector<Table2Program> &table2() {
  static const std::vector<Table2Program> Programs = {
      {"richards", {"richards.mica"}, 25, 35, 8},
      {"instsched", {"instsched.mica"}, 4, 5, 2},
      {"typechecker", {"minilang.mica", "typechecker.mica"}, 50, 70, 8},
      {"compiler", {"minilang.mica", "compiler.mica"}, 45, 60, 8},
  };
  return Programs;
}

/// The synthesized megamorphic hierarchy (ROADMAP hierarchy-scale item):
/// 10k classes, 32 method-bearing leaves cycled through 4 generics.
constexpr unsigned HierClasses = 10000;
constexpr unsigned HierLeaves = 32;
constexpr unsigned HierGenerics = 4;
constexpr int64_t HierTrain = 2000;
constexpr int64_t HierInput = 20000;

/// The checksum `main(N)` of the synthesized program prints, derived from
/// the generator's documented construction rather than by running it:
/// iteration i adds g*K + ((i+g) mod K) + 1 for every generic g.
std::string hierarchyChecksum(int64_t N) {
  int64_t Sum = 0;
  for (int64_t I = 0; I != N; ++I)
    for (int64_t G = 0; G != HierGenerics; ++G)
      Sum += G * HierLeaves + (I + G) % HierLeaves + 1;
  return std::to_string(Sum) + "\n";
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream IS(Path);
  if (!IS)
    return false;
  std::ostringstream Buf;
  Buf << IS.rdbuf();
  Out = Buf.str();
  return true;
}

//===----------------------------------------------------------------------===//
// Command line and environment
//===----------------------------------------------------------------------===//

enum class Workload : uint8_t { Oneshot, Serve, Megamorphic, Compile };

struct Args {
  Workload W = Workload::Oneshot;
  std::string WorkloadName;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root;
  std::string Scratch;
};

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "perfbench: " << Why
            << "\nusage: perfbench --workload oneshot|serve|megamorphic|"
               "compile --seed N --seconds S --trace 0|1 --root DIR "
               "--scratch DIR\n";
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Key);
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Key == "--workload") {
      HaveWorkload = true;
      A.WorkloadName = Val;
      if (Val == "oneshot")
        A.W = Workload::Oneshot;
      else if (Val == "serve")
        A.W = Workload::Serve;
      else if (Val == "megamorphic")
        A.W = Workload::Megamorphic;
      else if (Val == "compile")
        A.W = Workload::Compile;
      else
        usage("unknown workload '" + Val + "'");
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), &End);
      if (!(A.Seconds > 0))
        usage("--seconds must be positive");
    } else if (Key == "--trace") {
      if (Val != "0" && Val != "1")
        usage("--trace takes 0 or 1");
      A.Trace = Val == "1";
    } else if (Key == "--root") {
      A.Root = Val;
    } else if (Key == "--scratch") {
      A.Scratch = Val;
    } else {
      usage("unknown option " + Key);
    }
    if (End && *End != '\0')
      usage("bad value '" + Val + "' for " + Key);
  }
  if (!HaveWorkload || A.Root.empty() || A.Scratch.empty())
    usage("--workload, --root and --scratch are required");
  return A;
}

/// Each of these variables makes the library run a different program
/// (injected faults, audited inline caches, another byte budget or tier),
/// so a run under any of them would not measure the code as shipped.
void refuseAlteringEnvironment() {
  for (const char *Var : {"SELSPEC_FAILPOINTS", "SELSPEC_IC_AUDIT",
                          "SELSPEC_MAX_BYTES", "SELSPEC_TIER"})
    if (std::getenv(Var)) {
      std::cerr << "perfbench: refusing to run with " << Var
                << " set: it changes the program being measured\n";
      std::exit(2);
    }
}

unsigned usableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

double peakRssMb() {
  std::ifstream IS("/proc/self/status");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

//===----------------------------------------------------------------------===//
// Job classes and their references
//===----------------------------------------------------------------------===//

/// One (program, configuration) pair: what a served or one-shot job runs,
/// and what its output and counters must be.
struct Target {
  size_t Prog = 0;
  Config Cfg = Config::Selective;
  ProfileSource Profile = ProfileSource::None;
  std::string Name;
  /// Base configuration on the AST tier: the semantic oracle.
  std::string BaseOutput;
  /// Single-threaded Workbench run of this pair.
  RunStats RefStats;
  uint64_t RefCodeSize = 0;
  uint64_t RefBytecodeBytes = 0;
  unsigned RefRoutines = 0;
};

/// Checked jobs and their failures.  A job may raise several errors
/// (say, wrong output and wrong code size) but fails once.
struct Failures {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Errors = 0;
  std::vector<std::string> Messages;

  void fail(const std::string &Msg) {
    ++Errors;
    if (Messages.size() < 8)
      Messages.push_back(Msg);
    std::cerr << "perfbench: FAILED: " + Msg + "\n";
  }
  /// Counts one attempted job, which failed if errors were raised since
  /// \p ErrorsBefore; returns whether it passed.
  bool count(uint64_t ErrorsBefore) {
    ++Attempted;
    if (Errors == ErrorsBefore)
      return true;
    ++Failed;
    return false;
  }
};

/// Everything one workload needs.
struct Bench {
  Args A;
  std::vector<ProgramSpec> Programs;
  std::vector<Target> Targets;
  /// Latency classes: targets for the serving and one-shot workloads,
  /// programs for compile (one compile job builds both configurations).
  std::vector<std::string> ClassNames;
  std::string DbPath;
  Failures F;
  LayerTrace Layers;
  std::vector<double> SetupSeconds;
  /// Untraced (and, with --trace 1, traced) per-class latencies in ms.
  std::vector<std::vector<double>> Latency, TracedLatency;
  double TimedWallSeconds = 0;
  uint64_t OkJobs = 0;
  /// Serving workloads: the snapshots set-up built, per target.
  std::vector<std::shared_ptr<const CompiledSnapshot>> Snapshots;
};

std::shared_ptr<Workbench> newWorkbench(const ProgramSpec &P,
                                        std::string &Err) {
  std::shared_ptr<Workbench> W = Workbench::fromSources(P.Sources, Err);
  if (!W)
    return nullptr;
  W->setTier(ExecTier::Bytecode);
  W->setLimits(ResourceLimits());
  return W;
}

/// Workbench with the profile \p Profile asks for (micad builds a fresh
/// one per snapshot, profiling only for Selective).
std::shared_ptr<Workbench> profiledWorkbench(const Bench &B,
                                             const ProgramSpec &P,
                                             ProfileSource Profile,
                                             std::string &Err) {
  std::shared_ptr<Workbench> W = newWorkbench(P, Err);
  if (!W)
    return nullptr;
  if (Profile == ProfileSource::Run && !W->collectProfile(P.Train, Err))
    return nullptr;
  if (Profile == ProfileSource::Database) {
    Diagnostics D;
    if (!W->loadProfileDb(B.DbPath, P.Name, D)) {
      Err = D.toString();
      return nullptr;
    }
  }
  return W;
}

/// The input the jobs of \p T run (compile runs its snapshots only to
/// check them, on the serve input).
int64_t jobInput(const Bench &B, const Target &T) {
  return B.Programs[T.Prog].Input;
}

bool sameBuild(const CompiledSnapshot &S, const Target &T) {
  return S.buildInfo().CodeSize == T.RefCodeSize &&
         S.buildInfo().CompiledRoutines == T.RefRoutines && S.bytecode() &&
         S.bytecode()->CodeBytes == T.RefBytecodeBytes;
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// Reads the Table 2 sources (stdlib first, as micac does).
bool loadTable2(Bench &B, std::string &Err) {
  std::vector<ProgramSpec> Programs;
  std::string Stdlib;
  if (!readFile(B.A.Root + "/mica/stdlib.mica", Stdlib)) {
    Err = "cannot read " + B.A.Root + "/mica/stdlib.mica";
    return false;
  }
  bool Serving = B.A.W != Workload::Oneshot;
  for (const Table2Program &T : table2()) {
    ProgramSpec P;
    P.Name = T.Name;
    P.Train = T.Train;
    P.Input = Serving ? T.ServeInput : T.OneshotInput;
    P.Sources.push_back(Stdlib);
    for (const char *File : T.Files) {
      std::string Src;
      if (!readFile(B.A.Root + "/mica/" + File, Src)) {
        Err = std::string("cannot read mica/") + File;
        return false;
      }
      P.Sources.push_back(std::move(Src));
    }
    Programs.push_back(std::move(P));
  }
  // Set-up re-reads the sources; the synthesized program stays.
  for (ProgramSpec &P : B.Programs)
    if (!P.ExpectedOutput.empty())
      Programs.push_back(std::move(P));
  B.Programs = std::move(Programs);
  return true;
}

ProgramSpec hierarchyProgram(uint64_t Seed) {
  fuzz::HierarchySpec Spec;
  Spec.Classes = HierClasses;
  Spec.Depth = 12;
  Spec.Fanout = 8;
  Spec.MethodLeaves = HierLeaves;
  Spec.Generics = HierGenerics;
  Spec.Seed = Seed;
  ProgramSpec P;
  P.Name = "hierarchy";
  P.Sources.push_back(fuzz::generateHierarchyProgram(Spec));
  P.Train = HierTrain;
  P.Input = HierInput;
  P.ExpectedOutput = hierarchyChecksum(HierInput);
  return P;
}

/// Builds one snapshot per target the way micad's thread mode does.
bool buildServingSnapshots(Bench &B, LayerTrace *T, std::string &Err) {
  std::vector<std::shared_ptr<const CompiledSnapshot>> Snaps;
  for (const Target &Tg : B.Targets) {
    std::shared_ptr<Workbench> W =
        profiledWorkbench(B, B.Programs[Tg.Prog], Tg.Profile, Err);
    if (!W)
      return false;
    uint64_t Start = nowNs();
    std::shared_ptr<const CompiledSnapshot> S =
        W->buildSnapshot(Tg.Cfg, Err, {}, {}, W);
    if (T)
      T->addSpan("driver.snapshot_build_ms", Start);
    if (!S)
      return false;
    Snaps.push_back(std::move(S));
  }
  B.Snapshots = std::move(Snaps);
  return true;
}

/// Profiles every program and writes the ProfileDb the compile jobs read.
bool writeProfileDb(Bench &B, std::string &Err) {
  ProfileDb Db;
  for (const ProgramSpec &P : B.Programs) {
    std::shared_ptr<Workbench> W =
        profiledWorkbench(B, P, ProfileSource::Run, Err);
    if (!W)
      return false;
    Db.forProgram(P.Name).merge(W->profile());
  }
  Diagnostics D;
  if (!Db.saveToFile(B.DbPath, D)) {
    Err = D.toString();
    return false;
  }
  return true;
}

/// One set-up of the workload: what must happen before it can take jobs.
bool setupOnce(Bench &B, std::string &Err) {
  switch (B.A.W) {
  case Workload::Oneshot:
    return loadTable2(B, Err);
  case Workload::Serve:
    return loadTable2(B, Err) && buildServingSnapshots(B, nullptr, Err);
  case Workload::Megamorphic:
    return buildServingSnapshots(B, nullptr, Err);
  case Workload::Compile:
    return loadTable2(B, Err) && writeProfileDb(B, Err);
  }
  return false;
}

/// Set-up is timed in blocks spread over the whole run: one before the
/// job loop, then one after each further second of it.  The host's speed
/// drifts in phases of 10-20 s, in which a set-up of 0.1 s takes up to 1.6
/// times as long; set-ups repeated in one window before the loop follow
/// the phase of that window, while these sample the same phases as the
/// run's jobs (NOTES.md).
constexpr uint64_t SetupEveryNs = 1'000'000'000;

/// One block: repeats set-up until the block has taken 10 ms, at least
/// once, so a set-up of microseconds is timed many times.  Adds the
/// block's length to \p Start, so the job loop that began at \p Start
/// leaves set-up out of its budget and wall time.
bool setupBlock(Bench &B, uint64_t &Start, std::string &Err) {
  uint64_t Began = nowNs();
  do {
    uint64_t RepStart = nowNs();
    if (!setupOnce(B, Err))
      return false;
    B.SetupSeconds.push_back(double(nowNs() - RepStart) / 1e9);
  } while (nowNs() - Began < 10'000'000);
  Start += nowNs() - Began;
  return true;
}

/// When the job loop that began at \p Start is due its next set-up block.
struct SetupSchedule {
  uint64_t NextNs = SetupEveryNs;
  bool due(uint64_t Start) {
    if (nowNs() - Start < NextNs)
      return false;
    NextNs += SetupEveryNs;
    return true;
  }
};

void defineTargets(Bench &B) {
  auto Add = [&](size_t Prog, Config C, ProfileSource S) {
    Target T;
    T.Prog = Prog;
    T.Cfg = C;
    T.Profile = S;
    T.Name = B.Programs[Prog].Name + "/" + configName(C);
    B.Targets.push_back(std::move(T));
  };
  for (size_t I = 0; I != B.Programs.size(); ++I) {
    switch (B.A.W) {
    case Workload::Oneshot:
      Add(I, Config::Selective, ProfileSource::Run);
      break;
    case Workload::Serve:
    case Workload::Megamorphic:
      Add(I, Config::CHA, ProfileSource::None);
      Add(I, Config::Selective, ProfileSource::Run);
      break;
    case Workload::Compile:
      Add(I, Config::CHA, ProfileSource::Database);
      Add(I, Config::Selective, ProfileSource::Database);
      break;
    }
  }
  if (B.A.W == Workload::Compile)
    for (const ProgramSpec &P : B.Programs)
      B.ClassNames.push_back(P.Name);
  else
    for (const Target &T : B.Targets)
      B.ClassNames.push_back(T.Name);
  B.Latency.assign(B.ClassNames.size(), {});
  B.TracedLatency.assign(B.ClassNames.size(), {});
}

//===----------------------------------------------------------------------===//
// Reference oracle (outside the set-up timer)
//===----------------------------------------------------------------------===//

bool computeReferences(Bench &B, std::string &Err) {
  std::vector<std::string> BaseOutputs;
  for (const ProgramSpec &P : B.Programs) {
    std::shared_ptr<Workbench> W = newWorkbench(P, Err);
    if (!W)
      return false;
    W->setTier(ExecTier::Ast);
    std::optional<ConfigResult> R = W->runConfig(Config::Base, P.Input, Err);
    if (!R)
      return false;
    uint64_t Errors = B.F.Errors;
    if (!P.ExpectedOutput.empty() && R->Output != P.ExpectedOutput) {
      B.F.fail(P.Name + ": Base output '" + R->Output +
               "' differs from the synthesized checksum '" +
               P.ExpectedOutput + "'");
    }
    B.F.count(Errors);
    BaseOutputs.push_back(R->Output);
  }
  for (Target &T : B.Targets) {
    const ProgramSpec &P = B.Programs[T.Prog];
    T.BaseOutput = BaseOutputs[T.Prog];
    std::shared_ptr<Workbench> W = profiledWorkbench(B, P, T.Profile, Err);
    if (!W)
      return false;
    std::shared_ptr<const CompiledSnapshot> S = W->buildSnapshot(T.Cfg, Err);
    if (!S)
      return false;
    CompiledSnapshot::JobResult J = S->run(jobInput(B, T));
    if (!J.Ok) {
      Err = T.Name + " reference run failed: " + J.Error;
      return false;
    }
    uint64_t Errors = B.F.Errors;
    if (J.R.Output != T.BaseOutput)
      B.F.fail(T.Name + ": output differs from Base on the AST tier");
    B.F.count(Errors);
    T.RefStats = J.R.Run;
    T.RefCodeSize = S->buildInfo().CodeSize;
    T.RefRoutines = S->buildInfo().CompiledRoutines;
    T.RefBytecodeBytes = S->bytecode() ? S->bytecode()->CodeBytes : 0;
  }
  return true;
}

void checkRun(Failures &F, const Target &T, const std::string &Output,
              const RunStats &Stats, const char *What) {
  if (Output != T.BaseOutput)
    F.fail(T.Name + " (" + What + "): output differs from Base");
  else if (!sameRunStats(Stats, T.RefStats))
    F.fail(T.Name + " (" + What +
           "): RunStats differ from the single-threaded reference");
}

//===----------------------------------------------------------------------===//
// Job schedule
//===----------------------------------------------------------------------===//

/// Seeded order of job classes: shuffled rounds in which every class
/// appears once, so classes stay balanced whatever the run length.
class Schedule {
public:
  Schedule(size_t Classes, uint64_t Seed) : N(Classes), R(Seed) {}
  size_t next() {
    if (Pos == Round.size()) {
      Round.resize(N);
      for (size_t I = 0; I != N; ++I)
        Round[I] = I;
      for (size_t I = N; I > 1; --I)
        std::swap(Round[I - 1], Round[R.below(static_cast<uint32_t>(I))]);
      Pos = 0;
    }
    return Round[Pos++];
  }

private:
  size_t N;
  fuzz::Rng R;
  std::vector<size_t> Round;
  size_t Pos = 0;
};

/// Stop rule shared by every loop: run for the time budget and until each
/// class has enough samples, but never past four budgets.  p90 needs ten
/// samples beyond it (100 in all); a traced run reports only p50, which
/// needs one chunk of 21 (stats.py), for each kind of job.
bool keepGoing(const Bench &B, uint64_t Start) {
  double Elapsed = double(nowNs() - Start) / 1e9;
  if (Elapsed > 4 * B.A.Seconds)
    return false;
  if (Elapsed < B.A.Seconds)
    return true;
  const size_t MinSamples = B.A.Trace ? 30 : 110;
  for (size_t C = 0; C != B.ClassNames.size(); ++C)
    if (B.Latency[C].size() < MinSamples ||
        (B.A.Trace && B.TracedLatency[C].size() < MinSamples))
      return true;
  return false;
}

/// With --trace 1 every other job is traced, so traced and untraced jobs
/// see the same host conditions and their latency ratio is the tracing
/// cost; each kind draws its classes from its own balanced schedule.
struct JobPicker {
  JobPicker(const Bench &B, size_t Classes)
      : Tracing(B.A.Trace), Orders{Schedule(Classes, B.A.Seed),
                                   Schedule(Classes, ~B.A.Seed)} {}
  /// Class of the next job; \p Traced says whether to trace it.
  size_t next(bool &Traced) {
    Traced = Tracing && (N++ % 2 == 1);
    return Orders[Traced].next();
  }

private:
  bool Tracing;
  Schedule Orders[2];
  uint64_t N = 0;
};

//===----------------------------------------------------------------------===//
// Sequential loop: oneshot and compile
//===----------------------------------------------------------------------===//

/// `micac run`: source text to output under Selective.
bool oneshotJob(Bench &B, const Target &T, std::string &Err) {
  const ProgramSpec &P = B.Programs[T.Prog];
  std::shared_ptr<Workbench> W = profiledWorkbench(B, P, T.Profile, Err);
  if (!W)
    return false;
  std::optional<ConfigResult> R = W->runConfig(T.Cfg, P.Input, Err);
  if (!R)
    return false;
  checkRun(B.F, T, R->Output, R->Run, "job");
  if (R->CodeSize != T.RefCodeSize)
    B.F.fail(T.Name + ": code size differs from the reference");
  return true;
}

/// Compile only: source text + ProfileDb to CHA and Selective snapshots.
bool compileJob(Bench &B, size_t Prog, std::string &Err) {
  std::shared_ptr<Workbench> W =
      profiledWorkbench(B, B.Programs[Prog], ProfileSource::Database, Err);
  if (!W)
    return false;
  for (const Target &T : B.Targets) {
    if (T.Prog != Prog)
      continue;
    std::shared_ptr<const CompiledSnapshot> S = W->buildSnapshot(T.Cfg, Err);
    if (!S)
      return false;
    if (!sameBuild(*S, T))
      B.F.fail(T.Name + ": compiled code differs from the reference build");
  }
  return true;
}

/// Runs \p T through the layer-by-layer pipeline (a traced one-shot job)
/// and checks its run and code size against the untraced reference.
bool tracedTargetJob(Bench &B, const Target &T, std::string &Err) {
  std::vector<TracedBuildInfo> Builds;
  std::vector<TracedRun> Runs;
  if (!tracedPipeline(B.Programs[T.Prog], T.Profile, B.DbPath, {T.Cfg},
                      jobInput(B, T), B.Layers, Builds, Runs, Err))
    return false;
  if (!Runs[0].Ok) {
    Err = T.Name + " traced run failed: " + Runs[0].Error;
    return false;
  }
  checkRun(B.F, T, Runs[0].Output, Runs[0].Stats, "traced pipeline");
  if (Builds[0].CodeSize != T.RefCodeSize)
    B.F.fail(T.Name + ": traced code size differs from the Workbench's");
  return true;
}

bool tracedCompileJob(Bench &B, size_t Prog, std::string &Err) {
  std::vector<Config> Configs;
  std::vector<const Target *> Ts;
  for (const Target &T : B.Targets)
    if (T.Prog == Prog) {
      Configs.push_back(T.Cfg);
      Ts.push_back(&T);
    }
  std::vector<TracedBuildInfo> Builds;
  std::vector<TracedRun> Runs;
  if (!tracedPipeline(B.Programs[Prog], ProfileSource::Database, B.DbPath,
                      Configs, /*RunInput=*/-1, B.Layers, Builds, Runs, Err))
    return false;
  for (size_t I = 0; I != Ts.size(); ++I)
    if (Builds[I].CodeSize != Ts[I]->RefCodeSize ||
        Builds[I].BytecodeBytes != Ts[I]->RefBytecodeBytes)
      B.F.fail(Ts[I]->Name + ": traced build differs from the Workbench's");
  return true;
}

/// One job at a time, as successive `micac` invocations would run them.
bool sequentialLoop(Bench &B, std::string &Err) {
  JobPicker Pick(B, B.ClassNames.size());
  SetupSchedule Setups;
  uint64_t Start = nowNs();
  while (keepGoing(B, Start)) {
    if (Setups.due(Start) && !setupBlock(B, Start, Err))
      return false;
    bool Traced;
    size_t C = Pick.next(Traced);
    uint64_t Errors = B.F.Errors;
    uint64_t JobStart = nowNs();
    bool Ok;
    if (B.A.W == Workload::Oneshot)
      Ok = Traced ? tracedTargetJob(B, B.Targets[C], Err)
                  : oneshotJob(B, B.Targets[C], Err);
    else
      Ok = Traced ? tracedCompileJob(B, C, Err) : compileJob(B, C, Err);
    double Ms = double(nowNs() - JobStart) / 1e6;
    if (!Ok) {
      B.F.fail(B.ClassNames[C] + ": " + Err);
      B.F.count(Errors);
      return false;
    }
    (Traced ? B.TracedLatency : B.Latency)[C].push_back(Ms);
    if (B.F.count(Errors) && !Traced)
      ++B.OkJobs;
  }
  B.TimedWallSeconds = double(nowNs() - Start) / 1e9;
  return true;
}

//===----------------------------------------------------------------------===//
// Closed serving loop: serve and megamorphic
//===----------------------------------------------------------------------===//

/// A closed loop of `Clients` clients driven by this (the generator)
/// thread against a ServeEngine with as many workers: each completion
/// releases its client's next submission.  Latency runs from just before
/// submit() to the completion callback.  Half the CPUs serve: on a shared
/// virtual machine the spare ones absorb host stalls that otherwise land
/// in the tail of every busy worker (NOTES.md).
bool servingLoop(Bench &B, std::string &Err) {
  const unsigned Clients = std::max(1u, usableCpus() / 2);

  struct Done {
    ServeEngine::Completion C;
    uint64_t At;
  };
  std::mutex M;
  std::condition_variable CV;
  std::deque<Done> Completed;

  ServeEngine::Options O;
  O.Threads = Clients;
  ServeEngine Engine(O, [&](ServeEngine::Completion &&C) {
    uint64_t At = nowNs();
    std::lock_guard<std::mutex> Lock(M);
    Completed.push_back({std::move(C), At});
    CV.notify_one();
  });

  JobPicker Pick(B, B.Targets.size());
  std::vector<uint64_t> SubmittedAt;
  std::vector<size_t> TargetOf;
  std::vector<bool> TracedJob;
  auto Submit = [&]() {
    bool Traced;
    size_t T = Pick.next(Traced);
    ServeEngine::Job J;
    J.Id = std::to_string(SubmittedAt.size());
    J.Snapshot = B.Snapshots[T];
    J.Input = jobInput(B, B.Targets[T]);
    // micad's thread-mode job options.
    J.DeadlineMs = 10000;
    J.Limits = ResourceLimits();
    J.CaptureOutput = true;
    J.CollectMetricsDelta = true;
    SubmittedAt.push_back(nowNs());
    TargetOf.push_back(T);
    TracedJob.push_back(Traced);
    return Engine.submit(std::move(J)) == ServeEngine::Admit::Accepted;
  };

  uint64_t Start = nowNs();
  size_t Outstanding = 0;
  bool Submitting = true;
  auto Refill = [&]() {
    while (Submitting && Outstanding != Clients) {
      if (!Submit()) {
        Err = "job refused at admission";
        return false;
      }
      ++Outstanding;
    }
    return true;
  };
  if (!Refill())
    return false;
  SetupSchedule Setups;
  bool SetupDue = false;
  uint64_t LastDone = Start;
  while (Outstanding != 0) {
    Done D;
    {
      std::unique_lock<std::mutex> Lock(M);
      CV.wait(Lock, [&] { return !Completed.empty(); });
      D = std::move(Completed.front());
      Completed.pop_front();
    }
    --Outstanding;
    LastDone = D.At;
    size_t Idx = static_cast<size_t>(std::stoull(D.C.TheJob.Id));
    const Target &T = B.Targets[TargetOf[Idx]];
    double Ms = double(D.At - SubmittedAt[Idx]) / 1e6;
    uint64_t Errors = B.F.Errors;
    if (!D.C.Result.Ok)
      B.F.fail(T.Name + ": served job failed: " + D.C.Result.Error);
    else
      checkRun(B.F, T, D.C.Result.R.Output, D.C.Result.R.Run, "served job");
    bool Traced = TracedJob[Idx];
    (Traced ? B.TracedLatency : B.Latency)[TargetOf[Idx]].push_back(Ms);
    if (B.F.count(Errors) && !Traced)
      ++B.OkJobs;
    if (Traced) {
      B.Layers.add("driver.run_ms", double(D.C.RunNanos) / 1e6);
      B.Layers.add("driver.queue_wait_ms", double(D.C.QueueNanos) / 1e6);
      std::map<std::string, uint64_t> Delta(D.C.Result.MetricsDelta.begin(),
                                            D.C.Result.MetricsDelta.end());
      B.Layers.add("obs.run_ns", double(D.C.RunNanos));
      B.Layers.add("obs.dispatches",
                   double(Delta["interp.dynamic_dispatches"] +
                          Delta["interp.version_selects"]));
      B.Layers.add("obs.nodes", double(Delta["interp.nodes_evaluated"]));
      B.Layers.add("obs.allocs", double(Delta["interp.allocations"]));
      B.Layers.add("obs.ic_hits", double(Delta["bytecode.ic_hits"]));
      B.Layers.add("obs.ic_misses", double(Delta["bytecode.ic_misses"]));
      B.Layers.add("obs.pic_hits", double(Delta["dispatcher.pic_hits"]));
      B.Layers.add("obs.memo_hits", double(Delta["dispatcher.memo_hits"]));
      B.Layers.add("obs.full_lookups",
                   double(Delta["dispatcher.full_lookups"]));
    }
    if (Submitting && !keepGoing(B, Start))
      Submitting = false;
    // A set-up block waits until the in-flight jobs are done, so that no
    // job's latency includes it.
    SetupDue = Submitting && (SetupDue || Setups.due(Start));
    if (SetupDue && Outstanding != 0)
      continue;
    if (SetupDue) {
      SetupDue = false;
      if (!setupBlock(B, Start, Err))
        return false;
    }
    if (!Refill())
      return false;
  }
  Engine.shutdown(false);
  B.TimedWallSeconds = double(LastDone - Start) / 1e9;
  return true;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// Runs the layer-by-layer pipeline once per target and checks it against
/// the untraced references, then builds each target's snapshot through the
/// Workbench (timed) and serves one job on it through a one-worker engine
/// for the driver layer's run and queue times.
bool layerProbe(Bench &B, std::string &Err) {
  for (const Target &T : B.Targets) {
    uint64_t Errors = B.F.Errors;
    if (!tracedTargetJob(B, T, Err))
      return false;
    B.F.count(Errors);
  }
  // Compile jobs read their profiles from the database; the profile runs
  // that wrote it happen in set-up, so trace those here.
  if (B.A.W == Workload::Compile)
    for (const ProgramSpec &P : B.Programs) {
      std::vector<TracedBuildInfo> Builds;
      std::vector<TracedRun> Runs;
      if (!tracedPipeline(P, ProfileSource::Run, "", {}, -1, B.Layers, Builds,
                          Runs, Err))
        return false;
    }
  if (!buildServingSnapshots(B, &B.Layers, Err))
    return false;
  // One job at a time, so the queue wait is the engine's hand-off cost
  // rather than the previous probe job's run.
  std::mutex M;
  std::condition_variable CV;
  std::vector<ServeEngine::Completion> Done;
  {
    ServeEngine::Options O;
    O.Threads = 1;
    ServeEngine Engine(O, [&](ServeEngine::Completion &&C) {
      std::lock_guard<std::mutex> Lock(M);
      Done.push_back(std::move(C));
      CV.notify_one();
    });
    for (size_t I = 0; I != B.Targets.size(); ++I) {
      ServeEngine::Job J;
      J.Id = std::to_string(I);
      J.Snapshot = B.Snapshots[I];
      J.Input = jobInput(B, B.Targets[I]);
      J.Limits = ResourceLimits();
      if (Engine.submit(std::move(J)) != ServeEngine::Admit::Accepted) {
        Err = "probe job refused at admission";
        return false;
      }
      std::unique_lock<std::mutex> Lock(M);
      CV.wait(Lock, [&] { return Done.size() == I + 1; });
    }
  }
  for (ServeEngine::Completion &C : Done) {
    const Target &T = B.Targets[std::stoul(C.TheJob.Id)];
    uint64_t Errors = B.F.Errors;
    if (!C.Result.Ok)
      B.F.fail(T.Name + ": probe job failed: " + C.Result.Error);
    else
      checkRun(B.F, T, C.Result.R.Output, C.Result.R.Run, "probe job");
    B.F.count(Errors);
    if (B.A.W == Workload::Oneshot || B.A.W == Workload::Compile) {
      B.Layers.add("driver.run_ms", double(C.RunNanos) / 1e6);
      B.Layers.add("driver.queue_wait_ms", double(C.QueueNanos) / 1e6);
    }
  }
  // Serving workloads keep serving the probe's snapshots; the others
  // do not need them any more.
  if (B.A.W == Workload::Oneshot || B.A.W == Workload::Compile)
    B.Snapshots.clear();
  return true;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonList(const std::vector<double> &Vs) {
  std::string Out = "[";
  for (size_t I = 0; I != Vs.size(); ++I) {
    if (I)
      Out += ',';
    Out += jsonNumber(Vs[I]);
  }
  return Out + "]";
}

std::string jsonSamples(const Bench &B,
                        const std::vector<std::vector<double>> &Lat) {
  std::string Out = "{";
  for (size_t I = 0; I != B.ClassNames.size(); ++I) {
    if (I)
      Out += ',';
    Out += jsonString(B.ClassNames[I]) + ":" + jsonList(Lat[I]);
  }
  return Out + "}";
}

void printDocument(const Bench &B) {
  std::string Out = "{\"workload\":" + jsonString(B.A.WorkloadName);
  Out += ",\"seed\":" + std::to_string(B.A.Seed);
  Out += ",\"trace\":" + std::string(B.A.Trace ? "1" : "0");
  Out += ",\"attempted\":" + std::to_string(B.F.Attempted);
  Out += ",\"failed\":" + std::to_string(B.F.Failed);
  Out += ",\"errors\":[";
  for (size_t I = 0; I != B.F.Messages.size(); ++I) {
    if (I)
      Out += ',';
    Out += jsonString(B.F.Messages[I]);
  }
  Out += "],\"setup_s\":" + jsonList(B.SetupSeconds);
  Out += ",\"timed_wall_s\":" + jsonNumber(B.TimedWallSeconds);
  Out += ",\"ok_jobs\":" + std::to_string(B.OkJobs);
  Out += ",\"peak_rss_mb\":" + jsonNumber(peakRssMb());
  Out += ",\"latency_ms\":" + jsonSamples(B, B.Latency);
  if (B.A.Trace)
    Out += ",\"traced_latency_ms\":" + jsonSamples(B, B.TracedLatency);
  Out += ",\"snapshots\":{";
  for (size_t I = 0; I != B.Targets.size(); ++I) {
    const Target &T = B.Targets[I];
    if (I)
      Out += ',';
    Out += jsonString(T.Name) + ":{\"cycles\":" +
           std::to_string(T.RefStats.Cycles) +
           ",\"dispatches\":" + std::to_string(T.RefStats.totalDispatches()) +
           ",\"code_size\":" + std::to_string(T.RefBytecodeBytes) + "}";
  }
  Out += "},\"layers\":{";
  bool First = true;
  for (const auto &[Name, E] : B.Layers.entries()) {
    if (!First)
      Out += ',';
    Out += jsonString(Name) + ":[" + jsonNumber(E.Sum) + "," +
           std::to_string(E.Count) + "]";
    First = false;
  }
  Out += "}}";
  std::cout << Out << std::endl;
}

int runBench(Bench &B) {
  std::string Err;
  if (B.A.W == Workload::Megamorphic)
    B.Programs.push_back(hierarchyProgram(B.A.Seed));
  if (B.A.W == Workload::Compile) {
    B.Programs.push_back(hierarchyProgram(B.A.Seed));
    B.DbPath = B.A.Scratch + "/profile-" + std::to_string(getpid()) + ".db";
  }
  auto Abort = [&](const std::string &What) {
    std::cerr << "perfbench: " << What << ": " << Err << '\n';
    return 1;
  };
  // The program list (and a first read of the sources) exists before
  // set-up is timed; each timed set-up then re-reads what it needs.
  if (B.A.W != Workload::Megamorphic && !loadTable2(B, Err))
    return Abort("cannot load the Table 2 programs");
  defineTargets(B);
  uint64_t Unused = 0;
  if (!setupBlock(B, Unused, Err))
    return Abort("set-up failed");
  if (!computeReferences(B, Err))
    return Abort("reference computation failed");

  if (B.A.Trace && !layerProbe(B, Err))
    return Abort("layer probe failed");
  bool Serving = B.A.W == Workload::Serve || B.A.W == Workload::Megamorphic;
  if (!(Serving ? servingLoop(B, Err) : sequentialLoop(B, Err)))
    return Abort("job loop failed");
  if (!B.DbPath.empty()) {
    std::remove(B.DbPath.c_str());
    std::remove((B.DbPath + ".bak").c_str());
  }
  printDocument(B);
  return B.F.Failed == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  refuseAlteringEnvironment();
  Bench B;
  B.A = parseArgs(Argc, Argv);
  return runBench(B);
}
