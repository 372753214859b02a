//===- driver/Pipeline.h - End-to-end experiment pipeline ------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ties the whole system together for the benchmarks, examples and tests:
///
///   load Mica sources -> resolve -> CHA analyses -> profile run (Base)
///   -> plan(config) -> optimize -> measured run -> metrics
///
/// A Workbench holds one program with its analyses and profile so that the
/// five Table 1 configurations can be compared on identical inputs.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_DRIVER_PIPELINE_H
#define SELSPEC_DRIVER_PIPELINE_H

#include "analysis/ApplicableClasses.h"
#include "analysis/PassThroughArgs.h"
#include "driver/Tier.h"
#include "interp/RuntimeCore.h"
#include "opt/Optimizer.h"
#include "profile/CallGraph.h"
#include "specialize/Strategies.h"
#include "support/Deadline.h"
#include "support/Diagnostics.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace selspec {

class CompiledSnapshot;

/// Everything a bench row needs about one (config, input) execution.
struct ConfigResult {
  Config Configuration = Config::Base;
  /// Tier the measured run actually executed on (the requested tier, or
  /// Ast after a bytecode-compilation fallback).  RunStats are tier-
  /// independent by construction; WallNanos is not.
  ExecTier Tier = ExecTier::Ast;
  /// Execution counters of the measured run.
  RunStats Run;
  /// Wall-clock time of the measured run (interpreter dispatch included),
  /// as opposed to the modeled Run.Cycles.
  uint64_t WallNanos = 0;
  /// Figure 6 numbers.
  unsigned CompiledRoutines = 0; ///< static system: all generated versions
  unsigned InvokedRoutines = 0;  ///< dynamic system: invoked versions only
  uint64_t CodeSize = 0;
  /// Optimizer site statistics.
  Optimizer::Stats Opt;
  /// Selective-only: specializer statistics.
  std::optional<SelectiveSpecializer::Stats> Specializer;
  /// Program output of the measured run (for output-equivalence checks).
  std::string Output;
  /// Trap kind of the measured run; None for a completed run.  Present so
  /// downstream consumers (benches) can assert completeness explicitly.
  TrapKind Trap = TrapKind::None;
};

class Workbench {
public:
  /// Loads and resolves a program.  \p Files are resolved against
  /// SELSPEC_MICA_DIR when relative; the standard library is prepended
  /// unless \p WithStdlib is false.  Null + message in \p ErrorOut on
  /// failure.
  static std::unique_ptr<Workbench>
  fromFiles(const std::vector<std::string> &Files, std::string &ErrorOut,
            bool WithStdlib = true, const CancelToken *Cancel = nullptr);

  /// Same, from in-memory sources (tests, examples).
  static std::unique_ptr<Workbench>
  fromSources(const std::vector<std::string> &Sources, std::string &ErrorOut,
              bool WithStdlib = false, const CancelToken *Cancel = nullptr);

  /// Runs a Base snapshot on `main(Input)` collecting the weighted call
  /// graph, kept also when the run traps.  May be called several times
  /// (profiles merge).
  bool collectProfile(int64_t Input, std::string &ErrorOut);

  /// Compiles under \p C and runs `main(Input)`.  Implemented as
  /// buildSnapshot() + runSnapshot(): the single-shot path is a
  /// degenerate serve of one job.
  std::optional<ConfigResult>
  runConfig(Config C, int64_t Input, std::string &ErrorOut,
            const SelectiveOptions &Sel = {},
            const OptimizerOptions &OptOpts = {},
            const CostModel &Costs = {});

  /// Runs one measured job of `main(Input)` against \p Snap (the "run"
  /// phase); a failure lands in \p ErrorOut and lastTrap().
  std::optional<ConfigResult> runSnapshot(const CompiledSnapshot &Snap,
                                          int64_t Input, std::string &ErrorOut,
                                          const CostModel &Costs = {});

  /// Compiles under \p C into an immutable, shareable CompiledSnapshot
  /// (driver/Snapshot.h) that any number of threads can run() jobs
  /// against concurrently.  Null when a phase gate stopped compilation
  /// (armed failpoint or expired deadline) — reason in \p ErrorOut /
  /// diagnostics() / lastTrap().  Pass this workbench's own shared_ptr as
  /// \p Keep to let the snapshot outlive the caller (serving); with a
  /// null \p Keep the workbench must outlive the snapshot.
  std::shared_ptr<const CompiledSnapshot>
  buildSnapshot(Config C, std::string &ErrorOut,
                const SelectiveOptions &Sel = {},
                const OptimizerOptions &OptOpts = {},
                std::shared_ptr<Workbench> Keep = nullptr);

  /// Same, compiling \p Directives as given (a replayed directives file,
  /// Section 4) instead of planning a configuration.
  std::shared_ptr<const CompiledSnapshot>
  buildSnapshot(const SpecializationPlan &Directives, std::string &ErrorOut,
                const OptimizerOptions &OptOpts = {},
                std::shared_ptr<Workbench> Keep = nullptr);

  /// Compiles under \p C without running (plan/code-space studies).
  /// Null when a phase gate stopped compilation (armed failpoint or an
  /// expired deadline) — the reason is in diagnostics()/lastTrap().
  std::unique_ptr<CompiledProgram>
  compileOnly(Config C, const SelectiveOptions &Sel = {},
              const OptimizerOptions &OptOpts = {});

  /// Loads the profile database at \p Path and merges the graph recorded
  /// under \p Key into this workbench's profile, validating every arc
  /// against the resolved program first.  Unreadable or malformed files
  /// fail (errors in \p Diags); stale arcs are dropped with warnings and a
  /// missing \p Key entry only warns — both leave a smaller (possibly
  /// empty) profile, which Selective then degrades on gracefully.
  bool loadProfileDb(const std::string &Path, const std::string &Key,
                     Diagnostics &Diags);

  /// Resource guards applied to every profile and measured run.
  void setLimits(const ResourceLimits &L) { Limits = L; }
  const ResourceLimits &limits() const { return Limits; }

  /// Execution tier for profile and measured runs.  Defaults to
  /// defaultTier() (bytecode, unless SELSPEC_TIER overrides).  When the
  /// bytecode compiler cannot lower the program, buildSnapshot falls back
  /// to the AST tier with a warning in diagnostics().
  void setTier(ExecTier T) { Tier = T; }
  ExecTier tier() const { return Tier; }

  /// Cooperative stop signal checked at every phase boundary and polled
  /// inside the interpreter; an expired deadline fails the current phase
  /// with TrapKind::DeadlineExceeded instead of wedging the process.
  /// The token must outlive the workbench's use of it.
  void setCancelToken(const CancelToken *T) { Cancel = T; }
  const CancelToken *cancelToken() const { return Cancel; }

  /// Structured failure of the most recent failed run (profile or
  /// measured); Kind == None when the last run succeeded.
  const RuntimeTrap &lastTrap() const { return LastTrap; }

  /// Warnings accumulated by planning (e.g. Selective degrading to CHA
  /// without a usable profile).  Callers may render and clear.
  Diagnostics &diagnostics() { return Diags; }

  Program &program() { return *P; }
  const ApplicableClassesAnalysis &applicableClasses() const { return *AC; }
  const PassThroughAnalysis &passThrough() const { return *PT; }
  CallGraph &profile() { return Profile; }
  bool hasProfile() const { return !Profile.empty(); }

  /// Source line count (Table 2).
  unsigned sourceLines() const { return SourceLines; }

  /// Reads a Mica file (resolving relative paths against
  /// SELSPEC_MICA_DIR); empty optional on I/O failure.
  static std::optional<std::string> readMicaFile(const std::string &Name);

private:
  Workbench() = default;
  bool init(const std::vector<std::string> &Sources, std::string &ErrorOut);
  /// Phase-boundary gate: fails with a Diagnostic when the named
  /// failpoint is armed, or with a DeadlineExceeded LastTrap when the
  /// cancel token asks to stop before \p Phase begins.
  bool phaseGate(const char *FailpointName, const char *Phase,
                 std::string &ErrorOut);
  /// The one compile step behind compileOnly and buildSnapshot: plans \p C
  /// unless \p Directives are given, optimizes, and with \p Lower picks
  /// the tier.  Null when a phase gate stops it.
  std::shared_ptr<CompiledSnapshot>
  compile(Config C, const SpecializationPlan *Directives,
          const SelectiveOptions &Sel, const OptimizerOptions &OptOpts,
          bool Lower, std::string &ErrorOut,
          std::shared_ptr<Workbench> Keep = nullptr);

  std::unique_ptr<Program> P;
  std::unique_ptr<ApplicableClassesAnalysis> AC;
  std::unique_ptr<PassThroughAnalysis> PT;
  CallGraph Profile;
  ResourceLimits Limits;
  ExecTier Tier = defaultTier();
  const CancelToken *Cancel = nullptr;
  RuntimeTrap LastTrap;
  Diagnostics Diags;
  unsigned SourceLines = 0;
};

} // namespace selspec

#endif // SELSPEC_DRIVER_PIPELINE_H
