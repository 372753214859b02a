//===- lang/Token.h - Mica tokens ------------------------------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds for the Mica language, the small dynamically-typed
/// object-oriented language (classes, multi-methods, closures) that stands
/// in for Cecil in this reproduction.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_LANG_TOKEN_H
#define SELSPEC_LANG_TOKEN_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <string_view>
#include <type_traits>

namespace selspec {

enum class TokenKind : uint8_t {
  Eof,
  Ident,
  IntLit,
  StrLit,

  // Keywords.
  KwClass,
  KwIsa,
  KwSlot,
  KwMethod,
  KwLet,
  KwReturn,
  KwIf,
  KwElse,
  KwWhile,
  KwNew,
  KwFn,
  KwTrue,
  KwFalse,
  KwNil,

  // Punctuation and operators.
  LParen,
  RParen,
  LBrace,
  RBrace,
  Comma,
  Semi,
  Dot,
  At,
  Assign,   // :=
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  EqEq,
  BangEq,
  Less,
  LessEq,
  Greater,
  GreaterEq,
  AmpAmp,
  PipePipe,
  Bang,
};

/// Returns a human-readable spelling for diagnostics ("':='", "identifier").
const char *tokenKindName(TokenKind K);

/// One token: 32 bytes, copied by value.  No token owns memory.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  SourceLoc Loc;
  union {
    /// Identifier text, a view into the lexed source; or string-literal
    /// text after escape decoding, a view into the lexer's string table.
    /// Either stays valid while the source and the Lexer live.
    std::string_view Text{};
    /// Integer literal value.
    int64_t IntValue;
  };
};

static_assert(sizeof(Token) <= 32 && std::is_trivially_copyable_v<Token>,
              "tokens are small values");

} // namespace selspec

#endif // SELSPEC_LANG_TOKEN_H
