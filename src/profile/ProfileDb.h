//===- profile/ProfileDb.h - Persistent profile database -------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.7.2: "our compiler maintains a persistent internal database of
/// profile information that is consulted transparently during
/// compilations."  This is that database: call graphs keyed by a program
/// name, saved to and loaded from a simple line-oriented text format so
/// profiles can be gathered rarely and reused across many compiles.
///
/// In-memory interchange format (serialize/deserialize, v1):
///   selspec-profile v1
///   program <name> <num-arcs>
///   arc <site> <caller> <callee> <weight>
///   ...
///
/// On-disk format (saveToFile, v2) adds a generation counter and a
/// checksum so a torn or bit-rotted file is detected instead of parsed:
///   selspec-profile v2 gen <N> sum <16-hex fnv1a-64 of the body>
///   program ...
/// deserialize() accepts both versions.
///
/// Persistence is crash-safe: saveToFile writes `<path>.tmp`, fsyncs,
/// rotates the previous file to `<path>.bak`, and atomically renames the
/// temp into place — a writer killed at any instant leaves either the
/// previous generation at <path> or (between the two renames) at
/// <path>.bak.  loadFromFile falls back to <path>.bak with a warning when
/// <path> is missing, torn, or corrupt, so a long-running service always
/// recovers the last good generation.  Every step carries a
/// `profiledb.save.*` / `profiledb.load.*` failpoint
/// (support/FailPoint.h) that reproduces the exact on-disk state a crash
/// at that step would leave.
///
/// Profiles are untrusted input: they may be truncated, corrupted, or
/// recorded against an older build of the program.  Parsing therefore
/// reports line-numbered diagnostics instead of a bare bool, and validate()
/// cross-checks every arc's ids against a resolved Program so stale data
/// degrades to "no profile" rather than feeding garbage ids into the
/// specializer.
///
/// Loading is one read of the file and one pass over it: lines and words
/// are string_views into the text, and since serialize() lists each
/// program's arcs in CallGraph order, every parsed arc is appended to its
/// graph.  A parse that succeeds moves its graphs into an empty database
/// (the common case: a compile loading one profile) and merges them into
/// a non-empty one.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_PROFILE_PROFILEDB_H
#define SELSPEC_PROFILE_PROFILEDB_H

#include "profile/CallGraph.h"
#include "support/Diagnostics.h"

#include <map>
#include <string>

namespace selspec {

class Program;

class ProfileDb {
public:
  /// Returns the profile for \p ProgramName, creating an empty one.
  CallGraph &forProgram(const std::string &ProgramName) {
    return Graphs[ProgramName];
  }

  bool hasProgram(const std::string &ProgramName) const {
    return Graphs.count(ProgramName) != 0;
  }

  /// Serializes the whole database.
  std::string serialize() const;

  /// Parses \p Text, merging into this database.  Returns false on
  /// malformed input, explaining the rejection with its 1-based line
  /// number in \p Diags and leaving the database as it was.
  bool deserialize(const std::string &Text, Diagnostics &Diags);
  bool deserialize(const std::string &Text) {
    Diagnostics Ignored;
    return deserialize(Text, Ignored);
  }

  /// Checks every arc of \p ProgramName's graph against \p P: the site and
  /// method ids must be in range, the caller must own the site, and the
  /// callee must be a method of the site's generic.  Invalid arcs are
  /// dropped with a warning; returns the number dropped (0 = profile is
  /// consistent with this build of the program).
  size_t validate(const std::string &ProgramName, const Program &P,
                  Diagnostics &Diags);

  /// Crash-safe save: write-temp + fsync + backup rotation + atomic
  /// rename, with a v2 checksummed header whose generation is one more
  /// than the generation currently at \p Path.  On failure the step and
  /// the OS reason (errno) land in \p Diags and the previous generation
  /// remains loadable.
  bool saveToFile(const std::string &Path, Diagnostics &Diags) const;

  /// Loads \p Path, falling back to `<path>.bak` (with a warning) when
  /// the primary file is missing, torn, or fails its checksum.  Returns
  /// false with errors in \p Diags only when no generation is loadable.
  bool loadFromFile(const std::string &Path, Diagnostics &Diags);

  /// The highest generation of the v2 headers deserialized so far (0
  /// before any load, and for v1 inputs).
  uint64_t generation() const { return Generation; }
  bool saveToFile(const std::string &Path) const {
    Diagnostics Ignored;
    return saveToFile(Path, Ignored);
  }
  bool loadFromFile(const std::string &Path) {
    Diagnostics Ignored;
    return loadFromFile(Path, Ignored);
  }

  size_t numPrograms() const { return Graphs.size(); }

private:
  /// Reads \p Path and deserializes it, which changes *this only on full
  /// success, so a torn primary cannot leave half its arcs behind before
  /// the backup is tried.
  bool loadOneFile(const std::string &Path, Diagnostics &Diags);

  std::map<std::string, CallGraph> Graphs;
  uint64_t Generation = 0;
};

} // namespace selspec

#endif // SELSPEC_PROFILE_PROFILEDB_H
