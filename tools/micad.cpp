//===- tools/micad.cpp - Supervised Mica batch server -----------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-running batch front end for the pipeline, built for resilience
/// experiments: jobs arrive as newline-delimited requests, each job runs
/// in a forked worker process under a watchdog — or, with --threads, on an
/// in-process thread pool over shared CompiledSnapshots — and the server
/// emits one JSON result line per job no matter how the job dies.
///
///   micad [jobs-file] [options]          (reads stdin when no file given)
///
/// Job request lines are whitespace-separated key=value pairs; blank lines
/// and '#' comments are skipped:
///
///   id=r1 src=richards.mica config=cha input=3
///   id=r2 src=richards.mica config=base input=2000 deadline-ms=100 retries=0
///   id=r3 src=richards.mica config=cha input=3 retries=1
///         inject=interp.frame-acquire=crash   (one line in practice)
///
/// Keys: src (required), id, config (base|cust|cust-mm|cha|selective),
/// input, profile-input, deadline-ms, retries, inject (SELSPEC_FAILPOINTS
/// syntax, armed in the worker on the FIRST attempt only — injected faults
/// model transient failures), max-depth, max-nodes, max-objects,
/// max-bytes (per-job modeled-byte budget; the server default comes from
/// --max-bytes or the SELSPEC_MAX_BYTES environment variable).
///
/// Supervision: the worker runs the whole pipeline in-process with the
/// job's resource guards and a cooperative deadline token; the parent
/// polls waitpid(WNOHANG) and SIGKILLs a worker that overruns its
/// deadline by --grace-ms (the cooperative path normally exits 23 first).
/// Crashed (signalled) and timed-out workers are retried with exponential
/// backoff plus deterministic jitter until the job's retry budget is
/// spent; deterministic failures (traps, diagnostics) are never retried.
///
/// Each job produces one JSON line on stdout:
///
///   {"id":"r2","src":"richards.mica","config":"base","outcome":"timeout",
///    "attempts":1,"retries_used":0,"exit":23,"wall_ms":104}
///
/// outcome is one of: "ok", "retried(n)" (ok after n retries),
/// "trap:<kind>", "timeout", "cancelled" (shutdown drained the job before
/// it ran), "shed" (admission control refused the job under overload; see
/// --shed below), "gave-up".  Signalled workers also report "signal":N.
/// Workers that exited (rather than being killed) also report
/// "metrics":{...} — in fork isolation the worker's own counter registry
/// (dispatcher.*, interp.*, ...) shipped back over a pipe; in thread
/// isolation the job's exact per-counter deltas against the shared
/// registry (they sum to the process-wide totals).  micad exits 0 once
/// every request produced a result line (outcomes carry the per-job
/// verdicts) and 2 on usage/input errors, so supervising it composes.
///
/// Isolation: --isolation=fork (default) is the crash-proof path above.
/// --threads=N (implies --isolation=thread unless overridden) serves jobs
/// from an in-process pool instead: each distinct (src, config, profile)
/// is compiled once into an immutable CompiledSnapshot (driver/Snapshot.h)
/// and shared by every worker thread; per-job deadlines stay cooperative
/// (CancelToken polled at the interpreter's charge cadence) but cover the
/// run only — the compile/profile happens once per snapshot key, outside
/// any single job's deadline (fork isolation times the whole worker,
/// compile included).  Jobs with
/// inject= always take the fork path — failpoints are process-global and
/// must not poison pooled neighbours.  Thread isolation never retries: in
/// one process, failures are deterministic.
///
/// Shutdown: SIGTERM/SIGINT drain gracefully — stop accepting requests,
/// cancel in-flight jobs cooperatively (fork isolation: SIGKILL the
/// worker), report still-queued jobs as "cancelled", flush --metrics-json,
/// exit 0.
///
/// Profiles: a Selective job is specialized from an offline profile run
/// of its program at profile-input (Workbench::collectProfile) — once per
/// snapshot in thread isolation, once per job in fork isolation.  Serving
/// never respecializes.  micad arms SELSPEC_FAILPOINTS at startup, so
/// soaks can arm failpoints process-wide without per-job inject=; an
/// unknown failpoint name stops the server at startup (exit 2).
///
/// Overload resilience (thread isolation; DESIGN.md section 12): --shed
/// turns on deadline-aware admission — a job whose estimated queue wait
/// already exceeds its deadline is refused up front with outcome "shed"
/// instead of timing out after burning a pool slot — and
/// --max-submit-wait-ms bounds how long a full queue backpressures the
/// accept loop before shedding.  Sustained queue/memory pressure also
/// drives a brown-out ladder (driver/Overload.h) that degrades new
/// Selective snapshot builds to CHA, recovering as pressure clears.  A
/// source whose jobs repeatedly trap on resource guards or injected
/// faults is quarantined (driver/Quarantine.h): its later jobs reroute to
/// the crash-proof fork path (counted by serve.quarantined) so one poison
/// input cannot destabilize the shared pool; the first rerouted job that
/// completes OK returns the source to the pool.
///
/// Options:
///   --default-deadline-ms N   deadline for jobs that set none   [10000]
///   --default-retries N       retry budget default (fork)       [1]
///   --grace-ms N              SIGKILL lag past the deadline     [500]
///   --max-line-bytes N        reject longer request lines       [65536]
///   --max-bytes N             modeled-byte budget default for jobs that
///                             set no max-bytes= (SELSPEC_MAX_BYTES)
///   --threads N               in-process pool width             [1]
///   --isolation thread|fork   job isolation mechanism           [fork]
///   --queue-capacity N        thread-mode submit backpressure   [4*threads]
///   --shed                    deadline-aware admission control  [off]
///   --max-submit-wait-ms N    shed after waiting this long on a full
///                             queue (-1 = block indefinitely)   [-1]
///   --brownout-mem-bytes N    modeled live bytes driving the brown-out
///                             ladder's memory signal            [0=off]
///   --metrics-json FILE       write the server's counter registry on exit
///
//===----------------------------------------------------------------------===//

#include "driver/Overload.h"
#include "driver/Pipeline.h"
#include "driver/Quarantine.h"
#include "driver/Serve.h"
#include "driver/Snapshot.h"
#include "interp/RuntimeTrap.h"
#include "support/FailPoint.h"
#include "support/MemoryBudget.h"
#include "support/Metrics.h"

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace selspec;

namespace {

enum class Isolation { Fork, Thread };

struct ServerOptions {
  std::string JobsPath; // empty = stdin
  int64_t DefaultDeadlineMs = 10000;
  int DefaultRetries = 1;
  int64_t GraceMs = 500;
  size_t MaxLineBytes = 65536;
  uint64_t DefaultMaxBytes = ResourceLimits().MaxBytes;
  unsigned Threads = 1;
  Isolation Iso = Isolation::Fork;
  size_t QueueCapacity = 0; // 0 = 4 * Threads
  bool Shed = false;
  int64_t MaxSubmitWaitMs = -1;
  uint64_t BrownoutMemBytes = 0;
  std::string MetricsJsonPath;
};

/// SIGTERM/SIGINT request a graceful drain.  sig_atomic_t flag only in
/// the handler; everything else happens on the main thread afterwards.
volatile sig_atomic_t ShutdownRequested = 0;

void onShutdownSignal(int) { ShutdownRequested = 1; }

void installShutdownHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onShutdownSignal;
  sigemptyset(&SA.sa_mask);
  // No SA_RESTART: a blocking read on the request stream returns EINTR so
  // the accept loop observes the flag instead of wedging on a quiet tty.
  SA.sa_flags = 0;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
}

// Supervision tallies, exported by --metrics-json.  Parent-side only:
// each worker's own counters travel back over the metrics pipe and are
// embedded per job, never merged into the parent registry.
metrics::Counter CtrJobs("micad.jobs");
metrics::Counter CtrOk("micad.ok");
metrics::Counter CtrRetried("micad.retried");
metrics::Counter CtrRetries("micad.retries");
metrics::Counter CtrTimeout("micad.timeout");
metrics::Counter CtrTrap("micad.trap");
metrics::Counter CtrGaveUp("micad.gave_up");
metrics::Counter CtrRejected("micad.rejected");
metrics::Counter CtrCancelled("micad.cancelled");
metrics::Counter CtrShed("micad.shed");
metrics::Counter CtrQuarantined("serve.quarantined");
metrics::Counter CtrDegradedBuilds("serve.degraded_builds");

struct Job {
  std::string Id;
  std::string Src;
  Config Configuration = Config::Selective;
  int64_t Input = 10;
  int64_t ProfileInput = -1;
  int64_t DeadlineMs = -1; // -1 = server default
  int Retries = -1;        // -1 = server default
  int64_t MaxBytes = -1;   // -1 = server default (--max-bytes / env)
  std::string Inject;
  ResourceLimits Limits;
};

[[noreturn]] void usage(const char *Message = nullptr) {
  if (Message)
    std::cerr << "micad: " << Message << "\n\n";
  std::cerr << "usage: micad [jobs-file] [--default-deadline-ms N]\n"
               "             [--default-retries N] [--grace-ms N]\n"
               "             [--max-line-bytes N] [--max-bytes N]\n"
               "             [--metrics-json FILE]\n"
               "             [--threads N] [--isolation thread|fork]\n"
               "             [--queue-capacity N] [--shed]\n"
               "             [--max-submit-wait-ms N] [--brownout-mem-bytes N]\n"
               "jobs are key=value lines: src= id= config= input= "
               "profile-input=\n"
               "  deadline-ms= retries= inject= max-depth= max-nodes= "
               "max-objects= max-bytes=\n";
  std::exit(2);
}

template <typename T> bool parseInt(const std::string &Text, T &Out) {
  auto [Ptr, Ec] =
      std::from_chars(Text.data(), Text.data() + Text.size(), Out);
  return Ec == std::errc() && Ptr == Text.data() + Text.size();
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

/// Parses one request line.  False + message when the line is malformed —
/// the job is then reported as rejected without forking anything.
bool parseJob(const std::string &Line, Job &J, std::string &ErrorOut) {
  std::istringstream IS(Line);
  std::string Tok;
  while (IS >> Tok) {
    size_t Eq = Tok.find('=');
    if (Eq == std::string::npos || Eq == 0) {
      ErrorOut = "malformed token '" + Tok + "' (want key=value)";
      return false;
    }
    std::string Key = Tok.substr(0, Eq);
    std::string Val = Tok.substr(Eq + 1);
    bool Ok = true;
    if (Key == "id") J.Id = Val;
    else if (Key == "src") J.Src = Val;
    else if (Key == "config") Ok = parseConfig(Val, J.Configuration);
    else if (Key == "input") Ok = parseInt(Val, J.Input);
    else if (Key == "profile-input") Ok = parseInt(Val, J.ProfileInput);
    else if (Key == "deadline-ms") Ok = parseInt(Val, J.DeadlineMs);
    else if (Key == "retries") Ok = parseInt(Val, J.Retries);
    else if (Key == "inject") J.Inject = Val; // validated in the worker
    else if (Key == "max-depth") Ok = parseInt(Val, J.Limits.MaxDepth);
    else if (Key == "max-nodes") Ok = parseInt(Val, J.Limits.MaxNodes);
    else if (Key == "max-objects") Ok = parseInt(Val, J.Limits.MaxObjects);
    else if (Key == "max-bytes") Ok = parseInt(Val, J.MaxBytes) && J.MaxBytes >= 0;
    else {
      ErrorOut = "unknown key '" + Key + "'";
      return false;
    }
    if (!Ok) {
      ErrorOut = "bad value for '" + Key + "': '" + Val + "'";
      return false;
    }
  }
  if (J.Src.empty()) {
    ErrorOut = "missing src=";
    return false;
  }
  if (J.ProfileInput < 0)
    J.ProfileInput = J.Input;
  return true;
}

/// Runs one attempt of \p J to completion inside the forked worker.
/// Returns the process exit code: 0 ok, trap codes for runtime failures
/// (23 = cooperative deadline), 1 diagnostics, 2 bad inject spec.
int runJobInWorker(const Job &J, bool ArmInject) {
  if (ArmInject && !J.Inject.empty()) {
    std::string E;
    if (!failpoint::configure(J.Inject, E)) {
      std::cerr << "micad worker: " << E << '\n';
      return 2;
    }
  }
  CancelToken Tok;
  if (J.DeadlineMs > 0)
    Tok.setDeadline(Deadline::afterMillis(J.DeadlineMs));

  std::string Err;
  std::unique_ptr<Workbench> W =
      Workbench::fromFiles({J.Src}, Err, /*WithStdlib=*/true, &Tok);
  if (!W) {
    std::cerr << "micad worker: " << Err << '\n';
    return Tok.stopRequested() ? trapExitCode(TrapKind::DeadlineExceeded) : 1;
  }
  W->setLimits(J.Limits);

  if (J.Configuration == Config::Selective &&
      !W->collectProfile(J.ProfileInput, Err)) {
    std::cerr << "micad worker: " << Err << '\n';
    return W->lastTrap().isTrap() ? trapExitCode(W->lastTrap().Kind) : 1;
  }
  std::optional<ConfigResult> R =
      W->runConfig(J.Configuration, J.Input, Err);
  std::string DiagText = W->diagnostics().toString();
  if (!DiagText.empty())
    std::cerr << DiagText;
  if (!R) {
    std::cerr << "micad worker: " << Err << '\n';
    return W->lastTrap().isTrap() ? trapExitCode(W->lastTrap().Kind) : 1;
  }
  return 0;
}

/// How one worker attempt ended, as observed by the supervisor.
struct AttemptResult {
  enum Kind {
    Ok,
    Trap,
    SoftTimeout,
    HardTimeout,
    Crash,
    Rejected,
    Cancelled ///< server shutdown interrupted the attempt; final.
  } K = Ok;
  int ExitCode = 0;
  int Signal = 0;
  TrapKind TheTrap = TrapKind::None;
  int64_t WallMs = 0;
  /// The worker's own counter registry as a compact JSON object, read off
  /// the metrics pipe; empty when the worker died before writing it (or
  /// wrote a torn payload).
  std::string MetricsJson;
  bool retryable() const {
    return K == SoftTimeout || K == HardTimeout || K == Crash;
  }
};

int64_t nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Forks a worker for one attempt and supervises it: polls
/// waitpid(WNOHANG) and SIGKILLs the child once it overruns the job
/// deadline by the grace period.
AttemptResult superviseAttempt(const Job &J, bool ArmInject,
                               const ServerOptions &O) {
  AttemptResult R;
  std::cout.flush();
  std::cerr.flush();
  // The worker reports its counter registry back over a pipe; the whole
  // payload is a few hundred bytes, far below the pipe buffer, so the
  // single write before _exit never blocks and the parent can read it
  // after reaping.  A failed pipe() just loses the metrics, not the job.
  int MetricsPipe[2] = {-1, -1};
  if (pipe(MetricsPipe) != 0)
    MetricsPipe[0] = MetricsPipe[1] = -1;
  pid_t Pid = fork();
  if (Pid < 0) {
    std::cerr << "micad: fork failed: " << std::strerror(errno) << '\n';
    if (MetricsPipe[0] >= 0) {
      close(MetricsPipe[0]);
      close(MetricsPipe[1]);
    }
    R.K = AttemptResult::Crash;
    return R;
  }
  if (Pid == 0) {
    if (MetricsPipe[0] >= 0)
      close(MetricsPipe[0]);
    // Zero the inherited registry so the exported metrics are this job's
    // alone, not the parent's supervision tallies.
    metrics::resetAll();
    int Code = runJobInWorker(J, ArmInject);
    std::cout.flush();
    std::cerr.flush();
    if (MetricsPipe[1] >= 0) {
      std::string M = metrics::toJsonCompact();
      ssize_t Unused = write(MetricsPipe[1], M.data(), M.size());
      (void)Unused;
      close(MetricsPipe[1]);
    }
    // _exit: the worker shares the parent's stdio/atexit state and must
    // not run global destructors or flush inherited buffers twice.
    _exit(Code);
  }
  if (MetricsPipe[1] >= 0)
    close(MetricsPipe[1]);
  // Drains the worker's metrics payload once it exited; validated as a
  // brace-delimited object so a worker killed mid-write embeds nothing.
  auto collectWorkerMetrics = [&] {
    if (MetricsPipe[0] < 0)
      return;
    std::string Buf;
    char Chunk[4096];
    ssize_t N;
    while ((N = read(MetricsPipe[0], Chunk, sizeof(Chunk))) > 0 &&
           Buf.size() < 65536)
      Buf.append(Chunk, static_cast<size_t>(N));
    close(MetricsPipe[0]);
    MetricsPipe[0] = -1;
    if (Buf.size() >= 2 && Buf.front() == '{' && Buf.back() == '}')
      R.MetricsJson = std::move(Buf);
  };

  int64_t Start = nowMs();
  int64_t KillAfter = J.DeadlineMs > 0 ? J.DeadlineMs + O.GraceMs : -1;
  bool SentKill = false;
  bool KilledByShutdown = false;
  for (;;) {
    int Status = 0;
    pid_t Got = waitpid(Pid, &Status, WNOHANG);
    if (Got < 0) {
      if (errno == EINTR)
        continue;
      std::cerr << "micad: waitpid failed: " << std::strerror(errno) << '\n';
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
      if (MetricsPipe[0] >= 0)
        close(MetricsPipe[0]);
      R.K = AttemptResult::Crash;
      return R;
    }
    if (Got == Pid) {
      R.WallMs = nowMs() - Start;
      collectWorkerMetrics();
      if (WIFSIGNALED(Status)) {
        R.Signal = WTERMSIG(Status);
        R.K = KilledByShutdown
                  ? AttemptResult::Cancelled
                  : (SentKill ? AttemptResult::HardTimeout
                              : AttemptResult::Crash);
        return R;
      }
      R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : 70;
      if (R.ExitCode == 0) {
        R.K = AttemptResult::Ok;
      } else if (R.ExitCode == trapExitCode(TrapKind::DeadlineExceeded)) {
        R.K = AttemptResult::SoftTimeout;
        R.TheTrap = TrapKind::DeadlineExceeded;
      } else if (trapKindForExitCode(R.ExitCode) != TrapKind::None) {
        R.K = AttemptResult::Trap;
        R.TheTrap = trapKindForExitCode(R.ExitCode);
      } else {
        R.K = AttemptResult::Rejected; // diagnostics / bad job, final
      }
      return R;
    }
    // Graceful drain: an in-flight fork-mode attempt cannot be asked
    // politely (the deadline token lives in the child), so shutdown
    // kills it and reports the job cancelled.
    if (ShutdownRequested && !SentKill) {
      kill(Pid, SIGKILL);
      SentKill = true;
      KilledByShutdown = true;
    }
    if (KillAfter >= 0 && !SentKill && nowMs() - Start >= KillAfter) {
      kill(Pid, SIGKILL);
      SentKill = true;
    }
    usleep(2000);
  }
}

/// Deterministic per-(job, attempt) jitter so reruns back off identically.
int64_t backoffMs(const std::string &Id, int Attempt) {
  uint64_t H = 1469598103934665603ull;
  for (char C : Id)
    H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ull;
  H = (H ^ static_cast<uint64_t>(Attempt)) * 1099511628211ull;
  int64_t Base = 50ll << (Attempt < 6 ? Attempt : 6); // cap the exponent
  return Base + static_cast<int64_t>(H % 64);
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\', Out += C;
    else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else
      Out += C;
  }
  return Out;
}

/// Emits the one JSON result line for a finished job.
void emitResult(const Job &J, const std::string &Outcome, int Attempts,
                const AttemptResult &Last) {
  std::cout << "{\"id\":\"" << jsonEscape(J.Id) << "\",\"src\":\""
            << jsonEscape(J.Src) << "\",\"config\":\""
            << configName(J.Configuration) << "\",\"outcome\":\"" << Outcome
            << "\",\"attempts\":" << Attempts
            << ",\"retries_used\":" << (Attempts > 0 ? Attempts - 1 : 0)
            << ",\"exit\":" << Last.ExitCode;
  if (Last.Signal)
    std::cout << ",\"signal\":" << Last.Signal;
  std::cout << ",\"wall_ms\":" << Last.WallMs;
  // The worker's own counters (dispatcher.*, interp.*, ...), embedded
  // raw: collectWorkerMetrics already validated the payload shape.
  if (!Last.MetricsJson.empty())
    std::cout << ",\"metrics\":" << Last.MetricsJson;
  std::cout << "}" << std::endl;
}

/// Runs one job to a final outcome, retrying transient failures.  Returns
/// true when the outcome is ok or retried(n).
bool runJob(Job J, const ServerOptions &O, size_t LineNo) {
  if (J.Id.empty())
    J.Id = "line-" + std::to_string(LineNo);
  if (J.DeadlineMs < 0)
    J.DeadlineMs = O.DefaultDeadlineMs;
  if (J.Retries < 0)
    J.Retries = O.DefaultRetries;
  J.Limits.MaxBytes =
      J.MaxBytes >= 0 ? static_cast<uint64_t>(J.MaxBytes) : O.DefaultMaxBytes;

  CtrJobs.add();
  AttemptResult Last;
  int Attempts = 0;
  for (;;) {
    ++Attempts;
    // Injected faults model transient failures: armed on the first
    // attempt only, so a retry demonstrates recovery.
    Last = superviseAttempt(J, /*ArmInject=*/Attempts == 1, O);
    if (Last.K == AttemptResult::Ok) {
      CtrOk.add();
      if (Attempts > 1)
        CtrRetried.add();
      CtrRetries.add(static_cast<uint64_t>(Attempts - 1));
      emitResult(J, Attempts == 1
                        ? "ok"
                        : "retried(" + std::to_string(Attempts - 1) + ")",
                 Attempts, Last);
      return true;
    }
    if (!Last.retryable() || Attempts > J.Retries)
      break;
    usleep(static_cast<useconds_t>(backoffMs(J.Id, Attempts) * 1000));
  }
  CtrRetries.add(static_cast<uint64_t>(Attempts - 1));

  std::string Outcome;
  switch (Last.K) {
  case AttemptResult::Trap:
    CtrTrap.add();
    Outcome = std::string("trap:") + trapKindName(Last.TheTrap);
    break;
  case AttemptResult::SoftTimeout:
  case AttemptResult::HardTimeout:
    CtrTimeout.add();
    Outcome = "timeout";
    break;
  case AttemptResult::Cancelled:
    CtrCancelled.add();
    Outcome = "cancelled";
    break;
  default:
    CtrGaveUp.add();
    Outcome = "gave-up";
    break;
  }
  emitResult(J, Outcome, Attempts, Last);
  return false;
}

/// Renders a job's per-counter metrics delta as a compact JSON object,
/// shape-compatible with the fork path's worker-registry payload.
std::string deltaJson(
    const std::vector<std::pair<std::string, uint64_t>> &Delta) {
  if (Delta.empty())
    return std::string();
  std::string Out = "{";
  bool First = true;
  for (const auto &[Name, Value] : Delta) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += jsonEscape(Name);
    Out += "\":";
    Out += std::to_string(Value);
  }
  Out += '}';
  return Out;
}

/// In-process serving: a snapshot cache plus a ServeEngine whose
/// completions are rendered as the same JSON result lines the fork path
/// emits.  One instance per server process; dispatch() runs on the accept
/// thread, emit() on worker threads (serialized by the engine).
class ThreadServer {
public:
  explicit ThreadServer(const ServerOptions &O)
      : Engine(engineOptions(O),
               [this](ServeEngine::Completion &&Cmp) { emit(std::move(Cmp)); }) {}

  /// Compiles (or reuses) the job's snapshot and enqueues it.  Builds run
  /// on the accept thread: they are cached, and serializing them keeps
  /// the pool for measured runs only.
  void dispatch(Job J, const ServerOptions &O, size_t LineNo) {
    // Crash quarantine: a source whose jobs repeatedly trapped on guards
    // or injected faults reroutes to fork isolation, exactly like inject=
    // jobs — its failure mode is proven, so it pays for its own isolation
    // instead of sharing the pool.  runJob re-applies the defaults.  A
    // rerouted job that completes OK releases the source back to the pool.
    if (Quar.isQuarantined(J.Src)) {
      CtrQuarantined.add();
      std::string Src = J.Src;
      if (runJob(std::move(J), O, LineNo))
        Quar.release(Src);
      return;
    }
    if (J.Id.empty())
      J.Id = "line-" + std::to_string(LineNo);
    if (J.DeadlineMs < 0)
      J.DeadlineMs = O.DefaultDeadlineMs;
    J.Limits.MaxBytes =
        J.MaxBytes >= 0 ? static_cast<uint64_t>(J.MaxBytes) : O.DefaultMaxBytes;
    CtrJobs.add();

    std::string Err;
    std::shared_ptr<const CompiledSnapshot> Snap = snapshotFor(J, Err);
    if (!Snap) {
      std::cerr << "micad: job '" << J.Id << "': " << Err << '\n';
      CtrGaveUp.add();
      AttemptResult R;
      R.K = AttemptResult::Rejected;
      R.ExitCode = 1;
      emitResult(J, "gave-up", 1, R);
      return;
    }

    ServeEngine::Job SJ;
    SJ.Id = std::to_string(NextTicket);
    SJ.Snapshot = std::move(Snap);
    SJ.Input = J.Input;
    SJ.DeadlineMs = J.DeadlineMs;
    SJ.Limits = J.Limits;
    SJ.CollectMetricsDelta = true;
    uint64_t Ticket = NextTicket++;
    {
      std::lock_guard<std::mutex> Lock(PendingM);
      Pending.emplace(Ticket, std::move(J));
    }
    ServeEngine::Admit A = Engine.submit(std::move(SJ));
    if (A == ServeEngine::Admit::Accepted)
      return;
    // Refused at admission: reclaim the pending entry and give the job a
    // definite outcome anyway.
    Job Dropped;
    {
      std::lock_guard<std::mutex> Lock(PendingM);
      auto It = Pending.find(Ticket);
      if (It == Pending.end())
        return;
      Dropped = std::move(It->second);
      Pending.erase(It);
    }
    AttemptResult R;
    if (A == ServeEngine::Admit::Shed) {
      CtrShed.add();
      R.K = AttemptResult::Rejected;
      emitResult(Dropped, "shed", 0, R);
    } else {
      CtrCancelled.add();
      R.K = AttemptResult::Cancelled;
      emitResult(Dropped, "cancelled", 0, R);
    }
  }

  /// Graceful drain: stop admission, cooperatively cancel in-flight jobs
  /// when a shutdown signal asked for it, report still-queued jobs as
  /// cancelled, join the pool.
  void shutdown() {
    if (ShutdownRequested)
      Engine.cancelInFlight();
    Engine.shutdown(/*CancelQueued=*/ShutdownRequested != 0);
  }

private:
  static ServeEngine::Options engineOptions(const ServerOptions &O) {
    ServeEngine::Options EO;
    EO.Threads = O.Threads;
    EO.QueueCapacity =
        O.QueueCapacity ? O.QueueCapacity : static_cast<size_t>(O.Threads) * 4;
    EO.DeadlineAwareAdmission = O.Shed;
    EO.MaxSubmitWaitMs = O.MaxSubmitWaitMs;
    return EO;
  }

  std::shared_ptr<const CompiledSnapshot> snapshotFor(const Job &J,
                                                      std::string &Err) {
    // Brown-out: a Selective job arriving while the ladder sits at
    // cha-only gets the CHA snapshot instead — keyed as CHA, so it shares
    // the artifact with genuine CHA jobs and a later Selective request
    // after recovery builds the real thing fresh.
    Config EffCfg = J.Configuration;
    if (EffCfg == Config::Selective && overload::degradeToCha())
      EffCfg = Config::CHA;
    std::string Key = SnapshotCache::makeKey(
        {J.Src}, EffCfg, defaultTier(), std::to_string(J.ProfileInput));
    return Cache.getOrBuild(
        Key,
        [&](std::string &E) -> std::shared_ptr<const CompiledSnapshot> {
          if (EffCfg != J.Configuration)
            CtrDegradedBuilds.add();
          std::shared_ptr<Workbench> WB = Workbench::fromFiles({J.Src}, E);
          if (!WB)
            return nullptr;
          WB->setLimits(J.Limits);
          if (EffCfg == Config::Selective &&
              !WB->collectProfile(J.ProfileInput, E))
            return nullptr;
          // The snapshot keeps its workbench alive (profile, AST) for as
          // long as any thread still runs jobs against it.
          std::shared_ptr<const CompiledSnapshot> S =
              WB->buildSnapshot(EffCfg, E, {}, {}, WB);
          std::string D = WB->diagnostics().toString();
          if (!D.empty())
            std::cerr << D;
          return S;
        },
        Err);
  }

  /// Renders one completion as its JSON result line.
  void emit(ServeEngine::Completion &&Cmp) {
    Job J;
    {
      std::lock_guard<std::mutex> Lock(PendingM);
      uint64_t Ticket = std::strtoull(Cmp.TheJob.Id.c_str(), nullptr, 10);
      auto It = Pending.find(Ticket);
      if (It == Pending.end())
        return; // can't happen: every submit registered a ticket
      J = std::move(It->second);
      Pending.erase(It);
    }
    if (Cmp.Cancelled) {
      CtrCancelled.add();
      AttemptResult R;
      R.K = AttemptResult::Cancelled;
      emitResult(J, "cancelled", 0, R);
      return;
    }
    const CompiledSnapshot::JobResult &JR = Cmp.Result;
    AttemptResult R;
    R.WallMs = static_cast<int64_t>(Cmp.RunNanos / 1000000);
    R.MetricsJson = deltaJson(JR.MetricsDelta);
    if (JR.Ok) {
      CtrOk.add();
      emitResult(J, "ok", 1, R);
      return;
    }
    std::cerr << "micad: job '" << J.Id << "': " << JR.Error << '\n';
    if (JR.Trap.Kind == TrapKind::DeadlineExceeded) {
      CtrTimeout.add();
      R.K = AttemptResult::SoftTimeout;
      R.TheTrap = TrapKind::DeadlineExceeded;
      R.ExitCode = trapExitCode(TrapKind::DeadlineExceeded);
      emitResult(J, "timeout", 1, R);
    } else if (JR.Trap.isTrap()) {
      CtrTrap.add();
      if (Quar.recordTrap(J.Src, JR.Trap.Kind))
        std::cerr << "micad: quarantining '" << J.Src << "' after repeated "
                  << trapKindName(JR.Trap.Kind)
                  << " traps; its jobs now take the fork path\n";
      R.K = AttemptResult::Trap;
      R.TheTrap = JR.Trap.Kind;
      R.ExitCode = trapExitCode(JR.Trap.Kind);
      emitResult(J, std::string("trap:") + trapKindName(JR.Trap.Kind), 1,
                 R);
    } else {
      CtrGaveUp.add();
      R.K = AttemptResult::Rejected;
      R.ExitCode = 1;
      emitResult(J, "gave-up", 1, R);
    }
  }

  SnapshotCache Cache;
  std::mutex PendingM;
  /// What dispatch() knew about each submitted job, rejoined at completion.
  std::unordered_map<uint64_t, Job> Pending;
  uint64_t NextTicket = 1;
  CrashQuarantine Quar;
  ServeEngine Engine; // last: its threads may call emit() immediately
};

ServerOptions parseArgs(int Argc, char **Argv) {
  ServerOptions O;
  // Environment default for the per-job byte budget; --max-bytes and the
  // per-job max-bytes= key override it in that order.
  O.DefaultMaxBytes = membudget::maxBytesFromEnv(O.DefaultMaxBytes);
  bool IsolationExplicit = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    // Accept both `--flag value` and `--flag=value`.
    std::string Inline;
    bool HasInline = false;
    if (A.size() > 2 && A[0] == '-' && A[1] == '-') {
      size_t Eq = A.find('=');
      if (Eq != std::string::npos) {
        Inline = A.substr(Eq + 1);
        HasInline = true;
        A = A.substr(0, Eq);
      }
    }
    auto NextValue = [&]() -> std::string {
      if (HasInline)
        return Inline;
      if (I + 1 >= Argc)
        usage(("missing value after " + A).c_str());
      return Argv[++I];
    };
    auto NextInt = [&](const char *Flag) {
      int64_t V = 0;
      if (!parseInt(NextValue(), V) || V < 0)
        usage((std::string("bad value for ") + Flag).c_str());
      return V;
    };
    if (A == "--default-deadline-ms")
      O.DefaultDeadlineMs = NextInt("--default-deadline-ms");
    else if (A == "--default-retries")
      O.DefaultRetries = static_cast<int>(NextInt("--default-retries"));
    else if (A == "--grace-ms")
      O.GraceMs = NextInt("--grace-ms");
    else if (A == "--max-line-bytes")
      O.MaxLineBytes = static_cast<size_t>(NextInt("--max-line-bytes"));
    else if (A == "--max-bytes")
      O.DefaultMaxBytes = static_cast<uint64_t>(NextInt("--max-bytes"));
    else if (A == "--shed")
      O.Shed = true;
    else if (A == "--max-submit-wait-ms")
      O.MaxSubmitWaitMs = NextInt("--max-submit-wait-ms");
    else if (A == "--brownout-mem-bytes")
      O.BrownoutMemBytes = static_cast<uint64_t>(NextInt("--brownout-mem-bytes"));
    else if (A == "--threads") {
      O.Threads = static_cast<unsigned>(NextInt("--threads"));
      if (O.Threads < 1)
        O.Threads = 1;
      if (!IsolationExplicit)
        O.Iso = Isolation::Thread;
    } else if (A == "--isolation") {
      std::string V = NextValue();
      if (V == "thread")
        O.Iso = Isolation::Thread;
      else if (V == "fork")
        O.Iso = Isolation::Fork;
      else
        usage("bad value for --isolation (want thread|fork)");
      IsolationExplicit = true;
    } else if (A == "--queue-capacity")
      O.QueueCapacity = static_cast<size_t>(NextInt("--queue-capacity"));
    else if (A == "--metrics-json")
      O.MetricsJsonPath = NextValue();
    else if (!A.empty() && A[0] == '-')
      usage(("unknown option " + A).c_str());
    else if (O.JobsPath.empty())
      O.JobsPath = A;
    else
      usage("more than one jobs file");
  }
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  ServerOptions O = parseArgs(Argc, Argv);

  // Install the brown-out policy before any serving machinery observes
  // pressure; servers log transitions (one line each, rare by design).
  {
    overload::Policy OP;
    OP.MemHighBytes = O.BrownoutMemBytes;
    OP.LogTransitions = true;
    overload::setPolicy(OP);
  }

  // A worker's death must never take the server with it.
  signal(SIGPIPE, SIG_IGN);
  installShutdownHandlers();

  // Arm process-wide failpoints from the environment (per-job inject=
  // still forks).
  {
    std::string FpErr;
    if (!failpoint::armFromEnv(FpErr)) {
      std::cerr << "micad: SELSPEC_FAILPOINTS: " << FpErr << '\n';
      return 2;
    }
  }

  std::ifstream FileIn;
  if (!O.JobsPath.empty()) {
    FileIn.open(O.JobsPath);
    if (!FileIn) {
      std::cerr << "micad: cannot read '" << O.JobsPath << "'\n";
      return 2;
    }
  }
  std::istream &In = O.JobsPath.empty() ? std::cin : FileIn;

  std::unique_ptr<ThreadServer> TS;
  if (O.Iso == Isolation::Thread)
    TS = std::make_unique<ThreadServer>(O);

  size_t LineNo = 0;
  std::string Line;
  while (!ShutdownRequested && std::getline(In, Line)) {
    ++LineNo;
    size_t Start = Line.find_first_not_of(" \t");
    if (Start == std::string::npos || Line[Start] == '#')
      continue;
    Job J;
    std::string Err;
    if (Line.size() > O.MaxLineBytes)
      Err = "request line exceeds --max-line-bytes";
    if (Err.empty() && !parseJob(Line, J, Err))
      Err = "bad request: " + Err;
    if (!Err.empty()) {
      if (J.Id.empty())
        J.Id = "line-" + std::to_string(LineNo);
      std::cerr << "micad: line " << LineNo << ": " << Err << '\n';
      CtrJobs.add();
      CtrRejected.add();
      AttemptResult Rej;
      Rej.K = AttemptResult::Rejected;
      Rej.ExitCode = 2;
      emitResult(J, "gave-up", 0, Rej);
      continue;
    }
    // inject= jobs always take the fork path: failpoints are armed
    // process-globally and must not poison pooled neighbours.
    if (TS && J.Inject.empty())
      TS->dispatch(std::move(J), O, LineNo);
    else
      runJob(std::move(J), O, LineNo);
  }
  // Graceful drain (normal EOF or SIGTERM/SIGINT): stop accepting, let
  // in-flight work finish or cancel by its deadline, report the rest
  // cancelled, flush metrics, exit 0.
  if (TS)
    TS->shutdown();
  if (!O.MetricsJsonPath.empty()) {
    std::string Err;
    if (!metrics::writeJsonFile(O.MetricsJsonPath, Err))
      std::cerr << "micad: " << Err << '\n';
  }
  return 0;
}
