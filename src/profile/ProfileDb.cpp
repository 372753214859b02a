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
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace selspec;

namespace {

/// FNV-1a 64-bit; the on-disk checksum of the record body.  Not
/// cryptographic — it only needs to catch torn writes and bit rot.
uint64_t fnv1a64(std::string_view Bytes) {
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
bool parseUInt(std::string_view Tok, uint64_t Max, uint64_t &Out) {
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

/// The whitespace-separated words of one line, as `>>` into a string
/// splits them in the C locale; next() is empty once none is left.
class Words {
public:
  explicit Words(std::string_view Line) : Rest(Line) {}

  std::string_view next() {
    size_t Begin = 0;
    while (Begin != Rest.size() && isSpace(Rest[Begin]))
      ++Begin;
    size_t End = Begin;
    while (End != Rest.size() && !isSpace(Rest[End]))
      ++End;
    std::string_view Word = Rest.substr(Begin, End - Begin);
    Rest.remove_prefix(End);
    return Word;
  }

private:
  static bool isSpace(char Ch) {
    return Ch == ' ' || Ch == '\t' || Ch == '\n' || Ch == '\v' ||
           Ch == '\f' || Ch == '\r';
  }

  std::string_view Rest;
};

} // namespace

bool ProfileDb::deserialize(const std::string &Text, Diagnostics &Diags) {
  // Lines as std::getline splits them: a final newline ends the last line
  // rather than starting an empty one.
  const std::string_view All(Text);
  size_t Pos = 0;
  std::string_view Line;
  unsigned LineNo = 0;
  auto nextLine = [&] {
    if (Pos == All.size())
      return false;
    size_t End = All.find('\n', Pos);
    if (End == std::string_view::npos)
      End = All.size();
    Line = All.substr(Pos, End - Pos);
    Pos = End == All.size() ? End : End + 1;
    ++LineNo;
    return true;
  };
  auto reject = [&](const std::string &Why) {
    Diags.error(SourceLoc{LineNo, 1}, "profile line " +
                                          std::to_string(LineNo) + ": " + Why);
    return false;
  };
  auto quoted = [](std::string_view Word) {
    return "'" + std::string(Word) + "'";
  };

  if (!nextLine()) {
    LineNo = 1;
    return reject("empty input, expected 'selspec-profile v1' or "
                  "'selspec-profile v2' header");
  }
  uint64_t Gen = 0;
  if (Line != "selspec-profile v1") {
    // v2: "selspec-profile v2 gen <N> sum <16-hex>", checksummed body.
    Words W(Line);
    std::string_view Magic = W.next(), Ver = W.next(), GenWord = W.next(),
                     GenTok = W.next(), SumWord = W.next(), SumTok = W.next();
    if (SumTok.empty() || Magic != "selspec-profile" || Ver != "v2" ||
        GenWord != "gen" || SumWord != "sum" || !W.next().empty())
      return reject("bad header " + quoted(Line) +
                    ", expected 'selspec-profile v1' or 'selspec-profile "
                    "v2 gen <N> sum <hex>'");
    if (!parseUInt(GenTok, UINT64_MAX, Gen))
      return reject("bad generation " + quoted(GenTok) + " in v2 header");
    uint64_t Sum = 0;
    if (SumTok.size() != 16)
      return reject("bad checksum " + quoted(SumTok) + " in v2 header");
    for (char Ch : SumTok) {
      int Digit = Ch >= '0' && Ch <= '9'   ? Ch - '0'
                  : Ch >= 'a' && Ch <= 'f' ? Ch - 'a' + 10
                                           : -1;
      if (Digit < 0)
        return reject("bad checksum " + quoted(SumTok) + " in v2 header");
      Sum = (Sum << 4) | static_cast<uint64_t>(Digit);
    }
    if (failpoint::anyArmed() && failpoint::triggered("profiledb.load.header"))
      return reject(failpoint::failureMessage("profiledb.load.header"));
    if (fnv1a64(All.substr(Pos)) != Sum)
      return reject("checksum mismatch (torn or corrupted file)");
  }

  // Records land in Parsed and reach Graphs only once the whole text has
  // parsed, so a rejected input leaves the database as it was.
  std::map<std::string, CallGraph> Parsed;
  CallGraph *Current = nullptr;
  size_t DeclaredArcs = 0, SeenArcs = 0;
  std::string_view CurrentName;
  auto checkArcCount = [&] {
    if (Current && SeenArcs != DeclaredArcs)
      return reject("program " + quoted(CurrentName) + " declares " +
                    std::to_string(DeclaredArcs) + " arc(s) but " +
                    std::to_string(SeenArcs) + " follow (truncated?)");
    return true;
  };

  while (nextLine()) {
    Words W(Line);
    std::string_view Word = W.next();
    if (Word.empty())
      continue; // blank line
    if (Word == "program") {
      if (!checkArcCount())
        return false;
      std::string_view Name = W.next(), Count = W.next();
      uint64_t N = 0;
      if (Count.empty() || !parseUInt(Count, SIZE_MAX, N))
        return reject("malformed program record, expected "
                      "'program <name> <num-arcs>'");
      if (std::string_view Junk = W.next(); !Junk.empty())
        return reject("trailing junk " + quoted(Junk) +
                      " after program record");
      Current = &Parsed[std::string(Name)];
      CurrentName = Name;
      DeclaredArcs = static_cast<size_t>(N);
      SeenArcs = 0;
      continue;
    }
    if (Word == "arc") {
      if (!Current)
        return reject("arc record before any program record");
      uint64_t Site = 0, Caller = 0, Callee = 0, Weight = 0;
      if (!parseUInt(W.next(), UINT32_MAX, Site) ||
          !parseUInt(W.next(), UINT32_MAX, Caller) ||
          !parseUInt(W.next(), UINT32_MAX, Callee) ||
          !parseUInt(W.next(), UINT64_MAX, Weight))
        return reject("malformed arc record, expected "
                      "'arc <site> <caller> <callee> <weight>'");
      if (std::string_view Junk = W.next(); !Junk.empty())
        return reject("trailing junk " + quoted(Junk) + " after arc record");
      Current->addHits(CallSiteId(static_cast<uint32_t>(Site)),
                       MethodId(static_cast<uint32_t>(Caller)),
                       MethodId(static_cast<uint32_t>(Callee)), Weight);
      ++SeenArcs;
      continue;
    }
    return reject("unknown record " + quoted(Word));
  }
  if (!checkArcCount())
    return false;

  if (Graphs.empty()) {
    Graphs = std::move(Parsed);
  } else {
    for (auto &[Name, Graph] : Parsed)
      Graphs[Name].merge(Graph);
  }
  if (Gen > Generation)
    Generation = Gen;
  return true;
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
  std::string Line;
  if (!IS || !std::getline(IS, Line))
    return 0;
  Words W(Line);
  uint64_t Gen = 0;
  if (W.next() != "selspec-profile" || W.next() != "v2" ||
      W.next() != "gen" || !parseUInt(W.next(), UINT64_MAX, Gen))
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
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Diags.error(SourceLoc(), "cannot read profile db '" + Path +
                                 "': " + std::strerror(errno));
    return false;
  }
  // A read error (say, on a directory) leaves what was read, which
  // deserialize then rejects.
  std::string Text;
  char Buf[1 << 16];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) != 0;)
    Text.append(Buf, N);
  std::fclose(F);
  return deserialize(Text, Diags);
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
