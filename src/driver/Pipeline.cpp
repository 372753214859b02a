//===- driver/Pipeline.cpp - End-to-end experiment pipeline ----------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "driver/Snapshot.h"
#include "profile/ProfileDb.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/TraceEmitter.h"

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace selspec;

#ifndef SELSPEC_MICA_DIR
#define SELSPEC_MICA_DIR "mica"
#endif

std::optional<std::string>
Workbench::readMicaFile(const std::string &Name) {
  std::string Path = Name;
  if (!Path.empty() && Path[0] != '/')
    Path = std::string(SELSPEC_MICA_DIR) + "/" + Path;
  std::ifstream IS(Path);
  if (!IS)
    return std::nullopt;
  std::ostringstream Buf;
  Buf << IS.rdbuf();
  return Buf.str();
}

bool Workbench::phaseGate(const char *FailpointName, const char *Phase,
                          std::string &ErrorOut) {
  if (failpoint::anyArmed() && failpoint::triggered(FailpointName)) {
    ErrorOut = failpoint::failureMessage(FailpointName);
    LastTrap.reset();
    Diags.error(SourceLoc(), ErrorOut);
    return false;
  }
  if (Cancel && Cancel->stopRequested()) {
    metrics::named("deadline.expired").add();
    LastTrap.reset();
    LastTrap.Kind = TrapKind::DeadlineExceeded;
    LastTrap.Message = Cancel->reason() + " (before " + Phase + ")";
    ErrorOut = LastTrap.Message;
    return false;
  }
  return true;
}

bool Workbench::init(const std::vector<std::string> &Sources,
                     std::string &ErrorOut) {
  P = std::make_unique<Program>();
  P->addBuiltins();
  Diagnostics Diags;
  {
    TraceEmitter::Scope Timing("parse");
    for (const std::string &Src : Sources) {
      SourceLines += static_cast<unsigned>(
          std::count(Src.begin(), Src.end(), '\n'));
      if (!P->addSource(Src, Diags)) {
        ErrorOut = Diags.toString();
        return false;
      }
    }
  }
  if (!phaseGate("pipeline.parse", "resolve", ErrorOut))
    return false;
  {
    TraceEmitter::Scope Timing("resolve");
    if (!P->resolve(Diags)) {
      ErrorOut = Diags.toString();
      return false;
    }
  }
  if (!phaseGate("pipeline.resolve", "cha", ErrorOut))
    return false;
  {
    TraceEmitter::Scope Timing("cha");
    AC = std::make_unique<ApplicableClassesAnalysis>(*P);
    PT = std::make_unique<PassThroughAnalysis>(*P);
  }
  if (!phaseGate("pipeline.cha", "planning", ErrorOut))
    return false;
  return true;
}

std::unique_ptr<Workbench>
Workbench::fromSources(const std::vector<std::string> &Sources,
                       std::string &ErrorOut, bool WithStdlib,
                       const CancelToken *Cancel) {
  std::vector<std::string> All;
  if (WithStdlib) {
    std::optional<std::string> Stdlib = readMicaFile("stdlib.mica");
    if (!Stdlib) {
      ErrorOut = "cannot read stdlib.mica from " SELSPEC_MICA_DIR;
      return nullptr;
    }
    All.push_back(std::move(*Stdlib));
  }
  for (const std::string &S : Sources)
    All.push_back(S);

  auto W = std::unique_ptr<Workbench>(new Workbench());
  W->Cancel = Cancel;
  if (!W->init(All, ErrorOut))
    return nullptr;
  return W;
}

std::unique_ptr<Workbench>
Workbench::fromFiles(const std::vector<std::string> &Files,
                     std::string &ErrorOut, bool WithStdlib,
                     const CancelToken *Cancel) {
  std::vector<std::string> Sources;
  for (const std::string &F : Files) {
    std::optional<std::string> Src = readMicaFile(F);
    if (!Src) {
      ErrorOut = "cannot read Mica file '" + F + "'";
      return nullptr;
    }
    Sources.push_back(std::move(*Src));
  }
  return fromSources(Sources, ErrorOut, WithStdlib, Cancel);
}

bool Workbench::loadProfileDb(const std::string &Path, const std::string &Key,
                              Diagnostics &DiagsOut) {
  ProfileDb Db;
  if (!Db.loadFromFile(Path, DiagsOut))
    return false;
  if (!Db.hasProgram(Key)) {
    DiagsOut.warning(SourceLoc(), "profile db '" + Path +
                                      "' has no entry for program '" + Key +
                                      "'");
    return true;
  }
  Db.validate(Key, *P, DiagsOut);
  Profile.merge(Db.forProgram(Key));
  return true;
}

bool Workbench::collectProfile(int64_t Input, std::string &ErrorOut) {
  // Profiles are gathered from the Base-compiled ("instrumented")
  // executable, with arcs recorded at statically-bound sites too.
  std::shared_ptr<const CompiledSnapshot> Snap =
      buildSnapshot(Config::Base, ErrorOut);
  if (!Snap) {
    ErrorOut = LastTrap.Kind != TrapKind::None ? LastTrap.Message
                                               : Diags.toString();
    return false;
  }
  if (!phaseGate("pipeline.profile-run", "profile run", ErrorOut))
    return false;
  CompiledSnapshot::JobOptions JO;
  JO.Limits = Limits;
  JO.Cancel = Cancel;
  JO.CaptureOutput = false;
  JO.CollectArcs = true;
  TraceEmitter::Scope Timing("profile");
  CompiledSnapshot::JobResult J = Snap->run(Input, JO);
  // A run stopped by a trap keeps the arcs it recorded before the trap.
  Profile.merge(J.Arcs);
  if (!J.Ok) {
    LastTrap = J.Trap;
    ErrorOut = "profile run failed: " + J.Error;
    return false;
  }
  LastTrap.reset();
  return true;
}

std::unique_ptr<CompiledProgram>
Workbench::compileOnly(Config C, const SelectiveOptions &Sel,
                       const OptimizerOptions &OptOpts) {
  std::string GateError;
  std::shared_ptr<CompiledSnapshot> Snap =
      compile(C, nullptr, Sel, OptOpts, /*Lower=*/false, GateError);
  return Snap ? std::move(Snap->CP) : nullptr;
}

std::optional<ConfigResult>
Workbench::runConfig(Config C, int64_t Input, std::string &ErrorOut,
                     const SelectiveOptions &Sel,
                     const OptimizerOptions &OptOpts,
                     const CostModel &Costs) {
  std::shared_ptr<const CompiledSnapshot> Snap =
      buildSnapshot(C, ErrorOut, Sel, OptOpts);
  return Snap ? runSnapshot(*Snap, Input, ErrorOut, Costs) : std::nullopt;
}

std::optional<ConfigResult>
Workbench::runSnapshot(const CompiledSnapshot &Snap, int64_t Input,
                       std::string &ErrorOut, const CostModel &Costs) {
  if (!phaseGate("pipeline.measured-run", "measured run", ErrorOut))
    return std::nullopt;

  CompiledSnapshot::JobOptions JO;
  JO.Limits = Limits;
  JO.Cancel = Cancel;
  JO.Costs = Costs;
  TraceEmitter::Scope Timing("run");
  CompiledSnapshot::JobResult J = Snap.run(Input, JO);
  if (!J.Ok) {
    LastTrap = J.Trap;
    ErrorOut = std::string(configName(Snap.configuration())) +
               " run failed: " + J.Error;
    return std::nullopt;
  }
  LastTrap.reset();
  return std::move(J.R);
}
