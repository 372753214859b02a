//===- profile/ProfileDb.cpp - Persistent profile database -----------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileDb.h"

#include "hierarchy/Program.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/TraceEmitter.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace selspec;

namespace {

/// FNV-1a 64-bit; the on-disk checksum of the record body.  Not
/// cryptographic — it only needs to catch torn writes and bit rot.
uint64_t fnv1a64(const std::string &Bytes) {
  uint64_t H = UINT64_C(1469598103934665603);
  for (unsigned char Ch : Bytes) {
    H ^= Ch;
    H *= UINT64_C(1099511628211);
  }
  return H;
}

std::string toHex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

metrics::Counter CtrLoads("profiledb.loads");
metrics::Counter CtrLoadFailures("profiledb.load_failures");
metrics::Counter CtrLoadRecoveries("profiledb.load_recoveries");
metrics::Counter CtrSaves("profiledb.saves");
metrics::Counter CtrSaveFailures("profiledb.save_failures");
metrics::Counter CtrArcsDropped("profiledb.arcs_dropped");

} // namespace

/// The record body shared by both format versions (everything after the
/// header line).
static std::string serializeBody(const std::map<std::string, CallGraph> &Gs) {
  std::ostringstream OS;
  for (const auto &[Name, Graph] : Gs) {
    std::vector<Arc> Arcs = Graph.arcs();
    OS << "program " << Name << ' ' << Arcs.size() << '\n';
    for (const Arc &A : Arcs)
      OS << "arc " << A.Site.value() << ' ' << A.Caller.value() << ' '
         << A.Callee.value() << ' ' << A.Weight << '\n';
  }
  return OS.str();
}

std::string ProfileDb::serialize() const {
  return "selspec-profile v1\n" + serializeBody(Graphs);
}

namespace {

/// Parses a non-negative decimal integer that fits \p Out; rejects signs,
/// junk suffixes and overflow (so a bit-flipped digit string never wraps
/// into a silently different id).
bool parseUInt(const std::string &Tok, uint64_t Max, uint64_t &Out) {
  if (Tok.empty())
    return false;
  uint64_t V = 0;
  for (char Ch : Tok) {
    if (Ch < '0' || Ch > '9')
      return false;
    uint64_t Digit = static_cast<uint64_t>(Ch - '0');
    if (V > (Max - Digit) / 10)
      return false;
    V = V * 10 + Digit;
  }
  Out = V;
  return true;
}

} // namespace

bool ProfileDb::deserialize(const std::string &Text, Diagnostics &Diags) {
  std::istringstream IS(Text);
  std::string Line;
  unsigned LineNo = 0;
  auto reject = [&](const std::string &Why) {
    Diags.error(SourceLoc{LineNo, 1}, "profile line " +
                                          std::to_string(LineNo) + ": " + Why);
    return false;
  };

  if (!std::getline(IS, Line)) {
    LineNo = 1;
    return reject("empty input, expected 'selspec-profile v1' or "
                  "'selspec-profile v2' header");
  }
  ++LineNo;
  if (Line != "selspec-profile v1") {
    // v2: "selspec-profile v2 gen <N> sum <16-hex>", checksummed body.
    std::istringstream HS(Line);
    std::string Magic, Ver, GenWord, GenTok, SumWord, SumTok, Extra;
    if (!(HS >> Magic >> Ver >> GenWord >> GenTok >> SumWord >> SumTok) ||
        Magic != "selspec-profile" || Ver != "v2" || GenWord != "gen" ||
        SumWord != "sum" || (HS >> Extra))
      return reject("bad header '" + Line + "', expected 'selspec-profile "
                    "v1' or 'selspec-profile v2 gen <N> sum <hex>'");
    uint64_t Gen = 0;
    if (!parseUInt(GenTok, UINT64_MAX, Gen))
      return reject("bad generation '" + GenTok + "' in v2 header");
    uint64_t Sum = 0;
    if (SumTok.size() != 16)
      return reject("bad checksum '" + SumTok + "' in v2 header");
    for (char Ch : SumTok) {
      int Digit = Ch >= '0' && Ch <= '9'   ? Ch - '0'
                  : Ch >= 'a' && Ch <= 'f' ? Ch - 'a' + 10
                                           : -1;
      if (Digit < 0)
        return reject("bad checksum '" + SumTok + "' in v2 header");
      Sum = (Sum << 4) | static_cast<uint64_t>(Digit);
    }
    if (failpoint::anyArmed() && failpoint::triggered("profiledb.load.header"))
      return reject(failpoint::failureMessage("profiledb.load.header"));
    size_t BodyStart = Text.find('\n');
    std::string Body =
        BodyStart == std::string::npos ? "" : Text.substr(BodyStart + 1);
    if (fnv1a64(Body) != Sum)
      return reject("checksum mismatch (torn or corrupted file)");
    if (Gen > Generation)
      Generation = Gen;
  }

  CallGraph *Current = nullptr;
  size_t DeclaredArcs = 0, SeenArcs = 0;
  std::string CurrentName;
  auto checkArcCount = [&] {
    if (Current && SeenArcs != DeclaredArcs)
      return reject("program '" + CurrentName + "' declares " +
                    std::to_string(DeclaredArcs) + " arc(s) but " +
                    std::to_string(SeenArcs) + " follow (truncated?)");
    return true;
  };

  while (std::getline(IS, Line)) {
    ++LineNo;
    std::istringstream LS(Line);
    std::string Word;
    if (!(LS >> Word))
      continue; // blank line
    if (Word == "program") {
      if (!checkArcCount())
        return false;
      std::string Name, Count;
      uint64_t N = 0;
      if (!(LS >> Name >> Count) || !parseUInt(Count, SIZE_MAX, N))
        return reject("malformed program record, expected "
                      "'program <name> <num-arcs>'");
      if (LS >> Word)
        return reject("trailing junk '" + Word + "' after program record");
      Current = &Graphs[Name];
      CurrentName = Name;
      DeclaredArcs = static_cast<size_t>(N);
      SeenArcs = 0;
      continue;
    }
    if (Word == "arc") {
      if (!Current)
        return reject("arc record before any program record");
      std::string T[4];
      uint64_t Site = 0, Caller = 0, Callee = 0, Weight = 0;
      if (!(LS >> T[0] >> T[1] >> T[2] >> T[3]) ||
          !parseUInt(T[0], UINT32_MAX, Site) ||
          !parseUInt(T[1], UINT32_MAX, Caller) ||
          !parseUInt(T[2], UINT32_MAX, Callee) ||
          !parseUInt(T[3], UINT64_MAX, Weight))
        return reject("malformed arc record, expected "
                      "'arc <site> <caller> <callee> <weight>'");
      if (LS >> Word)
        return reject("trailing junk '" + Word + "' after arc record");
      Current->addHits(CallSiteId(static_cast<uint32_t>(Site)),
                       MethodId(static_cast<uint32_t>(Caller)),
                       MethodId(static_cast<uint32_t>(Callee)), Weight);
      ++SeenArcs;
      continue;
    }
    return reject("unknown record '" + Word + "'");
  }
  return checkArcCount();
}

size_t ProfileDb::validate(const std::string &ProgramName, const Program &P,
                           Diagnostics &Diags) {
  auto It = Graphs.find(ProgramName);
  if (It == Graphs.end())
    return 0;
  CallGraph &G = It->second;

  std::vector<Arc> Kept;
  size_t Dropped = 0;
  for (const Arc &A : G.arcs()) {
    std::string Why;
    if (A.Site.value() >= P.numCallSites())
      Why = "site id " + std::to_string(A.Site.value()) + " out of range";
    else if (A.Caller.value() >= P.numMethods())
      Why = "caller id " + std::to_string(A.Caller.value()) + " out of range";
    else if (A.Callee.value() >= P.numMethods())
      Why = "callee id " + std::to_string(A.Callee.value()) + " out of range";
    else if (P.callSite(A.Site).Owner != A.Caller)
      Why = "caller does not own site " + std::to_string(A.Site.value());
    else if (P.method(A.Callee).Generic != P.callSite(A.Site).Send->Generic)
      Why = "callee is not a method of site " +
            std::to_string(A.Site.value()) + "'s generic";
    if (Why.empty()) {
      Kept.push_back(A);
      continue;
    }
    ++Dropped;
    Diags.warning(SourceLoc(), "profile for '" + ProgramName +
                                   "': dropping arc (" + Why + ")");
  }
  if (Dropped) {
    CtrArcsDropped.add(Dropped);
    G.clear();
    for (const Arc &A : Kept)
      G.addHits(A.Site, A.Caller, A.Callee, A.Weight);
  }
  return Dropped;
}

/// Generation recorded in the v2 header of \p Path; 0 for v1, missing, or
/// unreadable files (the next save then writes generation 1).
static uint64_t peekGeneration(const std::string &Path) {
  std::ifstream IS(Path);
  if (!IS)
    return 0;
  std::string Line;
  if (!std::getline(IS, Line))
    return 0;
  std::istringstream HS(Line);
  std::string Magic, Ver, GenWord, GenTok;
  if (!(HS >> Magic >> Ver >> GenWord >> GenTok) ||
      Magic != "selspec-profile" || Ver != "v2" || GenWord != "gen")
    return 0;
  uint64_t Gen = 0;
  if (!parseUInt(GenTok, UINT64_MAX, Gen))
    return 0;
  return Gen;
}

namespace {
/// Books the save's outcome exactly once whichever of the many error
/// returns is taken: Ok stays false unless the happy path flips it.
struct SaveOutcome {
  bool Ok = false;
  ~SaveOutcome() { (Ok ? CtrSaves : CtrSaveFailures).add(); }
};
} // namespace

bool ProfileDb::saveToFile(const std::string &Path,
                           Diagnostics &Diags) const {
  TraceEmitter::Scope Timing("profiledb.save");
  SaveOutcome Outcome;
  // Crash-safe sequence: temp write -> fsync -> rotate old -> rename.
  // Each failpoint returns immediately, leaving exactly the disk state a
  // crash at that step would leave (the torn-write tests depend on it).
  auto stepFailed = [&](const char *Step) {
    if (failpoint::anyArmed() && failpoint::triggered(Step)) {
      Diags.error(SourceLoc(), failpoint::failureMessage(Step) +
                                   " while saving profile db '" + Path + "'");
      return true;
    }
    return false;
  };
  auto osError = [&](const std::string &What) {
    Diags.error(SourceLoc(), What + " profile db '" + Path +
                                 "': " + std::strerror(errno));
    return false;
  };

  uint64_t PrevGen = peekGeneration(Path);
  if (!PrevGen)
    PrevGen = peekGeneration(Path + ".bak");
  std::string Body = serializeBody(Graphs);
  std::string Full = "selspec-profile v2 gen " + std::to_string(PrevGen + 1) +
                     " sum " + toHex16(fnv1a64(Body)) + "\n" + Body;

  std::string Tmp = Path + ".tmp";
  if (stepFailed("profiledb.save.open"))
    return false;
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return osError("cannot open temp file for");
  if (failpoint::anyArmed() && failpoint::triggered("profiledb.save.write")) {
    // Simulated crash mid-write: leave a genuinely torn temp file.
    std::fwrite(Full.data(), 1, Full.size() / 2, F);
    std::fclose(F);
    Diags.error(SourceLoc(),
                failpoint::failureMessage("profiledb.save.write") +
                    " while saving profile db '" + Path + "'");
    return false;
  }
  if (std::fwrite(Full.data(), 1, Full.size(), F) != Full.size()) {
    std::fclose(F);
    return osError("error writing");
  }
  if (failpoint::anyArmed() && failpoint::triggered("profiledb.save.sync")) {
    std::fclose(F);
    Diags.error(SourceLoc(), failpoint::failureMessage("profiledb.save.sync") +
                                 " while saving profile db '" + Path + "'");
    return false;
  }
  if (std::fflush(F) != 0) {
    std::fclose(F);
    return osError("error flushing");
  }
#if defined(__unix__) || defined(__APPLE__)
  if (::fsync(::fileno(F)) != 0) {
    std::fclose(F);
    return osError("error syncing");
  }
#endif
  if (std::fclose(F) != 0)
    return osError("error closing");

  if (stepFailed("profiledb.save.backup"))
    return false;
  // Rotate the previous generation aside; a missing current file is fine
  // (first save), any other rotation error is not.
  if (std::rename(Path.c_str(), (Path + ".bak").c_str()) != 0 &&
      errno != ENOENT)
    return osError("cannot rotate previous");
  if (stepFailed("profiledb.save.rename"))
    return false;
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0)
    return osError("cannot rename temp into");
  Outcome.Ok = true;
  return true;
}

bool ProfileDb::loadOneFile(const std::string &Path, Diagnostics &Diags) {
  std::ifstream IS(Path);
  if (!IS) {
    Diags.error(SourceLoc(), "cannot read profile db '" + Path +
                                 "': " + std::strerror(errno));
    return false;
  }
  std::ostringstream Buf;
  Buf << IS.rdbuf();
  // Parse into a scratch db first: deserialize leaves partial content
  // merged on failure, and a torn primary must not pollute this db
  // before the backup fallback runs.
  ProfileDb Scratch;
  if (!Scratch.deserialize(Buf.str(), Diags))
    return false;
  for (auto &[Name, Graph] : Scratch.Graphs)
    Graphs[Name].merge(Graph);
  if (Scratch.Generation > Generation)
    Generation = Scratch.Generation;
  return true;
}

bool ProfileDb::loadFromFile(const std::string &Path, Diagnostics &Diags) {
  TraceEmitter::Scope Timing("profiledb.load");
  Diagnostics Primary;
  bool PrimaryOk = false;
  if (failpoint::anyArmed() && failpoint::triggered("profiledb.load.open"))
    Primary.error(SourceLoc(),
                  failpoint::failureMessage("profiledb.load.open") +
                      " while loading profile db '" + Path + "'");
  else
    PrimaryOk = loadOneFile(Path, Primary);
  if (PrimaryOk) {
    CtrLoads.add();
    return true;
  }

  // Primary missing, torn, or corrupt: fall back to the last good
  // generation the crash-safe saver rotated aside.
  Diagnostics Backup;
  if (loadOneFile(Path + ".bak", Backup)) {
    CtrLoads.add();
    CtrLoadRecoveries.add();
    for (const Diagnostic &D : Primary.all())
      Diags.warning(D.Loc, D.Message);
    Diags.warning(SourceLoc(),
                  "profile db '" + Path + "' is unreadable or corrupt; "
                  "recovered generation " + std::to_string(Generation) +
                      " from '" + Path + ".bak'");
    return true;
  }
  CtrLoadFailures.add();
  for (const Diagnostic &D : Primary.all())
    Diags.error(D.Loc, D.Message);
  return false;
}
