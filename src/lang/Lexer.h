//===- lang/Lexer.h - Mica lexer -------------------------------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for Mica.  Comments run from "//" to end of line.
///
/// The lexer reads the source in place: a token carries a view of its
/// identifier text into the source, not a copy, and characters are
/// classified with a table that gives the "C"-locale answers.  Only
/// string literals with their escapes decoded are stored, in the lexer's
/// string table.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_LANG_LEXER_H
#define SELSPEC_LANG_LEXER_H

#include "lang/Token.h"
#include "support/Diagnostics.h"

#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace selspec {

class Lexer {
public:
  /// \p Source is not copied: it must outlive the tokens, and so must the
  /// Lexer, which holds the decoded string literals.
  Lexer(std::string_view Source, Diagnostics &Diags);

  /// Lexes the whole input.  The returned vector always ends with an Eof
  /// token; on error, diagnostics are emitted and offending characters are
  /// skipped so parsing can still be attempted.  Every lexer diagnostic is
  /// emitted here, before the parser emits any.
  std::vector<Token> lexAll();

private:
  Token next();
  char peek(unsigned Ahead = 0) const;
  char advance();
  bool match(char C);
  SourceLoc loc() const { return SourceLoc(Line, Col); }

  std::string_view Src;
  Diagnostics &Diags;
  /// Decoded string-literal text.  A deque never moves its elements, so
  /// the tokens' views into it stay valid as literals are added.
  std::deque<std::string> Strings;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;
};

} // namespace selspec

#endif // SELSPEC_LANG_LEXER_H
