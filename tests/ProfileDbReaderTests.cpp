//===- tests/ProfileDbReaderTests.cpp - The profile-DB reader, pinned ------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A table of ProfileDb::deserialize inputs with the exact diagnostic each
/// one gives (text and line number), and the inputs the reader accepts.
/// Profiles are untrusted input that users read diagnostics about, so the
/// reader's wording and line numbers are part of its contract.
///
//===----------------------------------------------------------------------===//

#include "profile/ProfileDb.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace selspec;

namespace {

std::string fnv1a64Hex(const std::string &Bytes) {
  uint64_t H = UINT64_C(1469598103934665603);
  for (unsigned char Ch : Bytes) {
    H ^= Ch;
    H *= UINT64_C(1099511628211);
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// A v2 document: a header whose checksum matches \p Body.
std::string v2(const std::string &Body, uint64_t Gen = 1,
               const std::string &HeaderEnd = "\n") {
  return "selspec-profile v2 gen " + std::to_string(Gen) + " sum " +
         fnv1a64Hex(Body) + HeaderEnd + Body;
}

const std::string V1 = "selspec-profile v1\n";
const std::string BadHeaderTail =
    "', expected 'selspec-profile v1' or 'selspec-profile v2 gen <N> sum "
    "<hex>'";
const std::string MalformedProgram =
    "malformed program record, expected 'program <name> <num-arcs>'";
const std::string MalformedArc =
    "malformed arc record, expected 'arc <site> <caller> <callee> <weight>'";

struct Rejection {
  const char *Name;
  std::string Text;
  unsigned Line;
  std::string Why; ///< The message after "profile line N: ".
};

std::vector<Rejection> rejections() {
  return {
      {"empty input", "", 1,
       "empty input, expected 'selspec-profile v1' or 'selspec-profile v2' "
       "header"},
      {"bad header", "selspec-profile v3\n", 1,
       "bad header 'selspec-profile v3" + BadHeaderTail},
      {"bare newline", "\n\n\n", 1, "bad header '" + BadHeaderTail},
      {"v1 header with CR", "selspec-profile v1\r\nprogram p 0\n", 1,
       "bad header 'selspec-profile v1\r" + BadHeaderTail},
      {"v2 header with extra word",
       "selspec-profile v2 gen 1 sum 0000000000000000 x\n", 1,
       "bad header 'selspec-profile v2 gen 1 sum 0000000000000000 x" +
           BadHeaderTail},
      {"v2 header missing sum", "selspec-profile v2 gen 1\n", 1,
       "bad header 'selspec-profile v2 gen 1" + BadHeaderTail},
      {"bad generation", "selspec-profile v2 gen 12x sum 0000000000000000\n",
       1, "bad generation '12x' in v2 header"},
      {"generation past UINT64_MAX",
       "selspec-profile v2 gen 18446744073709551616 sum 0000000000000000\n", 1,
       "bad generation '18446744073709551616' in v2 header"},
      {"checksum with non-hex digits",
       "selspec-profile v2 gen 1 sum 00000000000000zz\n", 1,
       "bad checksum '00000000000000zz' in v2 header"},
      {"checksum with upper-case digits",
       "selspec-profile v2 gen 1 sum 00000000000000AB\n", 1,
       "bad checksum '00000000000000AB' in v2 header"},
      {"checksum too short", "selspec-profile v2 gen 1 sum abc\n", 1,
       "bad checksum 'abc' in v2 header"},
      {"checksum mismatch",
       "selspec-profile v2 gen 1 sum " + fnv1a64Hex("program p 0\n") +
           "\nprogram q 0\n",
       1, "checksum mismatch (torn or corrupted file)"},
      {"program without count", V1 + "program p\n", 2, MalformedProgram},
      {"program with negative count", V1 + "program p -1\n", 2,
       MalformedProgram},
      {"program with junk count", V1 + "program p 1x\n", 2, MalformedProgram},
      {"program junk", V1 + "program p 0 extra\n", 2,
       "trailing junk 'extra' after program record"},
      {"arc before program", V1 + "arc 1 2 3 4\n", 2,
       "arc record before any program record"},
      {"arc with three fields", V1 + "program p 1\narc 1 2 3\n", 3,
       MalformedArc},
      {"arc with a word", V1 + "program p 1\narc 0 zero 1 10\n", 3,
       MalformedArc},
      {"arc with a sign", V1 + "program p 1\narc +0 0 1 10\n", 3,
       MalformedArc},
      {"arc junk", V1 + "program p 1\narc 1 2 3 4 5\n", 3,
       "trailing junk '5' after arc record"},
      {"unknown record", V1 + "program p 0\n\nbogus 1\n", 4,
       "unknown record 'bogus'"},
      {"count mismatch at end", V1 + "program p 2\narc 0 1 2 3\n", 3,
       "program 'p' declares 2 arc(s) but 1 follow (truncated?)"},
      {"count mismatch at next program",
       V1 + "program p 0\narc 0 1 2 3\n\nprogram q 0\n", 5,
       "program 'p' declares 0 arc(s) but 1 follow (truncated?)"},
      {"count mismatch after blank tail", V1 + "program p 1\n\n\n", 4,
       "program 'p' declares 1 arc(s) but 0 follow (truncated?)"},
      {"site past UINT32_MAX", V1 + "program p 1\narc 4294967296 0 1 1\n", 3,
       MalformedArc},
      {"caller past UINT32_MAX", V1 + "program p 1\narc 0 4294967296 1 1\n",
       3, MalformedArc},
      {"callee past UINT32_MAX", V1 + "program p 1\narc 0 0 4294967296 1\n",
       3, MalformedArc},
      {"weight past UINT64_MAX",
       V1 + "program p 1\narc 0 0 1 18446744073709551616\n", 3, MalformedArc},
      {"error inside a v2 body", v2("program p 1\narc 0 0 1 1 1\n"), 3,
       "trailing junk '1' after arc record"},
  };
}

} // namespace

TEST(ProfileDbReader, EachRejectionHasItsExactDiagnostic) {
  for (const Rejection &R : rejections()) {
    SCOPED_TRACE(R.Name);
    ProfileDb Db;
    Diagnostics Diags;
    EXPECT_FALSE(Db.deserialize(R.Text, Diags));
    ASSERT_EQ(Diags.all().size(), 1u) << Diags.toString();
    const Diagnostic &D = Diags.all()[0];
    EXPECT_EQ(D.Sev, Diagnostic::Severity::Error);
    EXPECT_EQ(D.Loc.Line, R.Line);
    EXPECT_EQ(D.Loc.Col, 1u);
    EXPECT_EQ(D.Message,
              "profile line " + std::to_string(R.Line) + ": " + R.Why);
  }
}

namespace {

/// Parses \p Text, which must be accepted without any diagnostic.
ProfileDb accept(const std::string &Text) {
  ProfileDb Db;
  Diagnostics Diags;
  EXPECT_TRUE(Db.deserialize(Text, Diags)) << Diags.toString();
  EXPECT_TRUE(Diags.all().empty()) << Diags.toString();
  return Db;
}

} // namespace

TEST(ProfileDbReader, AcceptsBlankLinesTabsAndMissingFinalNewline) {
  ProfileDb Db = accept(V1 + "\n   \nprogram\tp\t2\n\n"
                             "arc\t1 2\t3  40\n \t\n"
                             "  arc 0 2 5 7");
  EXPECT_EQ(Db.serialize(), V1 + "program p 2\n"
                                 "arc 0 2 5 7\n"
                                 "arc 1 2 3 40\n");
}

TEST(ProfileDbReader, AcceptsCrlfLineEnds) {
  ProfileDb Body = accept(V1 + "program p 1\r\narc 3 1 2 9\r\n\r\n");
  EXPECT_EQ(Body.serialize(), V1 + "program p 1\narc 3 1 2 9\n");

  // A v2 header may end in CR as well; the checksum covers the body's CRs.
  ProfileDb Whole =
      accept(v2("program p 1\r\narc 3 1 2 9\r\n", 4, "\r\n"));
  EXPECT_EQ(Whole.generation(), 4u);
  EXPECT_EQ(Whole.serialize(), V1 + "program p 1\narc 3 1 2 9\n");
}

TEST(ProfileDbReader, TwoRecordsForOneProgramMerge) {
  ProfileDb Db = accept(V1 + "program p 2\n"
                             "arc 5 1 2 3\n"
                             "arc 0 1 7 1\n"
                             "program q 0\n"
                             "program p 2\n"
                             "arc 5 1 2 4\n"
                             "arc 2 0 9 6\n");
  EXPECT_EQ(Db.numPrograms(), 2u);
  EXPECT_EQ(Db.serialize(), V1 + "program p 3\n"
                                 "arc 0 1 7 1\n"
                                 "arc 2 0 9 6\n"
                                 "arc 5 1 2 7\n"
                                 "program q 0\n");
}

TEST(ProfileDbReader, AcceptsBoundaryValuesAndZeroWeights) {
  ProfileDb Db = accept(V1 + "program p 3\n"
                             "arc 4294967294 4294967294 4294967294 "
                             "18446744073709551615\n"
                             "arc 0 0 0 0\n"
                             "arc 0 0 0 0\n");
  EXPECT_EQ(Db.serialize(), V1 + "program p 2\n"
                                 "arc 0 0 0 0\n"
                                 "arc 4294967294 4294967294 4294967294 "
                                 "18446744073709551615\n");
}

TEST(ProfileDbReader, V2HeaderSetsTheGeneration) {
  ProfileDb Db = accept(v2("program p 1\narc 0 1 2 3\n", 12));
  EXPECT_EQ(Db.generation(), 12u);
  EXPECT_EQ(Db.serialize(), V1 + "program p 1\narc 0 1 2 3\n");
  EXPECT_EQ(accept(V1).generation(), 0u);
  EXPECT_EQ(accept(v2("", 3)).numPrograms(), 0u);
}
