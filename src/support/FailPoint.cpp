//===- support/FailPoint.cpp - Deterministic fault injection ---------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"

#include "support/Metrics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace selspec;
using namespace selspec::failpoint;

namespace {

/// The catalog.  Order is stable (tests iterate it); names follow
/// "<subsystem>.<step>".
constexpr const char *Names[] = {
    "pipeline.parse",         ///< Workbench::init, after parsing
    "pipeline.resolve",       ///< Workbench::init, after resolution
    "pipeline.cha",           ///< Workbench::init, after the CHA analyses
    "pipeline.profile-run",   ///< Workbench::collectProfile entry
    "pipeline.plan",          ///< before makePlan
    "pipeline.optimize",      ///< before Optimizer::compile
    "pipeline.measured-run",  ///< before the measured interpreter run
    "interp.frame-acquire",   ///< activation-frame allocation (FramePool)
    "dispatch.table-build",   ///< DispatchTable construction
    "profiledb.load.open",    ///< ProfileDb::loadFromFile open
    "profiledb.load.header",  ///< ProfileDb header/checksum verification
    "profiledb.save.open",    ///< ProfileDb::saveToFile temp-file open
    "profiledb.save.write",   ///< mid-write (leaves a torn temp file)
    "profiledb.save.sync",    ///< after write, before fsync completes
    "profiledb.save.backup",  ///< before rotating current -> .bak
    "profiledb.save.rename",  ///< before renaming temp -> current
};
constexpr size_t NumNames = sizeof(Names) / sizeof(Names[0]);

std::atomic<Action> Armed[NumNames];
std::atomic<unsigned> NumArmed{0};
std::atomic<uint64_t> Hits{0};

metrics::Counter CtrHits("failpoint.hits");

int indexOf(const std::string &Name) {
  for (size_t I = 0; I != NumNames; ++I)
    if (Name == Names[I])
      return static_cast<int>(I);
  return -1;
}

} // namespace

const std::vector<const char *> &selspec::failpoint::allNames() {
  static const std::vector<const char *> All(Names, Names + NumNames);
  return All;
}

bool selspec::failpoint::anyArmed() {
  return NumArmed.load(std::memory_order_relaxed) != 0;
}

uint64_t selspec::failpoint::totalHits() {
  return Hits.load(std::memory_order_relaxed);
}

void selspec::failpoint::disarmAll() {
  for (size_t I = 0; I != NumNames; ++I)
    Armed[I].store(Action::Off, std::memory_order_relaxed);
  NumArmed.store(0, std::memory_order_relaxed);
  Hits.store(0, std::memory_order_relaxed);
}

bool selspec::failpoint::configure(const std::string &Spec,
                                   std::string &ErrorOut) {
  // Parse fully before arming anything, so a bad spec arms nothing.
  std::vector<std::pair<int, Action>> Parsed;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Pair = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Pair.empty())
      continue;
    size_t Eq = Pair.find('=');
    if (Eq == std::string::npos) {
      ErrorOut = "failpoint '" + Pair + "': expected name=action";
      return false;
    }
    std::string Name = Pair.substr(0, Eq);
    std::string ActionName = Pair.substr(Eq + 1);
    int Idx = indexOf(Name);
    if (Idx < 0) {
      // List every valid site so a chaos config's typo is immediately
      // actionable instead of a guessing game.
      ErrorOut = "unknown failpoint '" + Name + "'; valid sites:";
      for (size_t I = 0; I != NumNames; ++I)
        ErrorOut += std::string(I ? ", " : " ") + Names[I];
      return false;
    }
    Action A;
    if (ActionName == "fail")
      A = Action::Fail;
    else if (ActionName == "crash")
      A = Action::Crash;
    else {
      ErrorOut = "failpoint '" + Name + "': unknown action '" + ActionName +
                 "' (expected fail or crash)";
      return false;
    }
    Parsed.emplace_back(Idx, A);
  }
  unsigned Count = 0;
  for (auto [Idx, A] : Parsed) {
    Armed[Idx].store(A, std::memory_order_relaxed);
    ++Count;
  }
  if (Count)
    NumArmed.fetch_add(Count, std::memory_order_relaxed);
  return true;
}

bool selspec::failpoint::armFromEnv(std::string &ErrorOut) {
  const char *Env = std::getenv("SELSPEC_FAILPOINTS");
  if (!Env || !*Env)
    return true;
  return configure(Env, ErrorOut);
}

bool selspec::failpoint::triggered(const char *Name) {
  if (!anyArmed())
    return false;
  int Idx = indexOf(Name);
  if (Idx < 0)
    return false;
  Action A = Armed[Idx].load(std::memory_order_relaxed);
  if (A == Action::Off)
    return false;
  Hits.fetch_add(1, std::memory_order_relaxed);
  CtrHits.add();
  if (A == Action::Crash) {
    std::fprintf(stderr, "failpoint '%s': crashing (injected)\n", Name);
    std::fflush(stderr);
    std::abort();
  }
  return true;
}

std::string selspec::failpoint::failureMessage(const char *Name) {
  return std::string("injected failure at failpoint '") + Name + "'";
}
