//===- tests/LexerTests.cpp - Mica lexer -----------------------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

using namespace selspec;

namespace {

/// Lexes a source and keeps it, the diagnostics and the lexer alive for as
/// long as the tokens: identifier and string-literal text points into them.
/// Neither copyable nor movable, since the lexer refers to its neighbours.
struct Lexed {
  Lexed(std::string S, bool ExpectErrors)
      : Src(std::move(S)), L(Src, Diags), Toks(L.lexAll()) {
    EXPECT_EQ(Diags.hasErrors(), ExpectErrors) << Diags.toString();
  }
  Lexed(const Lexed &) = delete;
  Lexed &operator=(const Lexed &) = delete;

  std::string Src;
  Diagnostics Diags;
  Lexer L;
  std::vector<Token> Toks;
};

/// Lexes \p Src and checks whether it reported errors.
Lexed lex(const std::string &Src, bool ExpectErrors = false) {
  return Lexed(Src, ExpectErrors);
}

std::vector<TokenKind> kinds(const std::vector<Token> &Toks) {
  std::vector<TokenKind> Out;
  for (const Token &T : Toks)
    Out.push_back(T.Kind);
  return Out;
}

/// "kind line:col" per token, with an identifier's or string's text in
/// brackets and an integer's value after '=', separated by " | ".
std::string render(const std::vector<Token> &Toks) {
  std::string Out;
  for (const Token &T : Toks) {
    if (!Out.empty())
      Out += " | ";
    Out += tokenKindName(T.Kind);
    Out += ' ' + std::to_string(T.Loc.Line) + ':' + std::to_string(T.Loc.Col);
    if (T.Kind == TokenKind::Ident || T.Kind == TokenKind::StrLit)
      Out += " [" + std::string(T.Text) + ']';
    else if (T.Kind == TokenKind::IntLit)
      Out += " =" + std::to_string(T.IntValue);
  }
  return Out;
}

} // namespace

TEST(Lexer, EmptyInput) {
  Lexed X = lex("");
  ASSERT_EQ(X.Toks.size(), 1u);
  EXPECT_EQ(X.Toks[0].Kind, TokenKind::Eof);
}

TEST(Lexer, KeywordsAndIdents) {
  Lexed X = lex("class isa slot method let return if else while new fn true "
                "false nil foo _bar b42");
  const std::vector<Token> &T = X.Toks;
  std::vector<TokenKind> K = kinds(T);
  std::vector<TokenKind> Expected = {
      TokenKind::KwClass, TokenKind::KwIsa,   TokenKind::KwSlot,
      TokenKind::KwMethod, TokenKind::KwLet,  TokenKind::KwReturn,
      TokenKind::KwIf,    TokenKind::KwElse,  TokenKind::KwWhile,
      TokenKind::KwNew,   TokenKind::KwFn,    TokenKind::KwTrue,
      TokenKind::KwFalse, TokenKind::KwNil,   TokenKind::Ident,
      TokenKind::Ident,   TokenKind::Ident,   TokenKind::Eof};
  EXPECT_EQ(K, Expected);
  EXPECT_EQ(T[14].Text, "foo");
  EXPECT_EQ(T[15].Text, "_bar");
  EXPECT_EQ(T[16].Text, "b42");
}

TEST(Lexer, IntegerLiterals) {
  Lexed X = lex("0 7 1234567");
  const std::vector<Token> &T = X.Toks;
  ASSERT_EQ(T.size(), 4u);
  EXPECT_EQ(T[0].IntValue, 0);
  EXPECT_EQ(T[1].IntValue, 7);
  EXPECT_EQ(T[2].IntValue, 1234567);
}

TEST(Lexer, StringLiteralsWithEscapes) {
  Lexed X = lex(R"("hello" "a\nb" "q\"q" "back\\slash")");
  const std::vector<Token> &T = X.Toks;
  ASSERT_EQ(T.size(), 5u);
  EXPECT_EQ(T[0].Text, "hello");
  EXPECT_EQ(T[1].Text, "a\nb");
  EXPECT_EQ(T[2].Text, "q\"q");
  EXPECT_EQ(T[3].Text, "back\\slash");
}

TEST(Lexer, OperatorsAndPunctuation) {
  Lexed X = lex("( ) { } , ; . @ := + - * / % == != < <= > >= && || !");
  std::vector<TokenKind> K = kinds(X.Toks);
  std::vector<TokenKind> Expected = {
      TokenKind::LParen,  TokenKind::RParen,    TokenKind::LBrace,
      TokenKind::RBrace,  TokenKind::Comma,     TokenKind::Semi,
      TokenKind::Dot,     TokenKind::At,        TokenKind::Assign,
      TokenKind::Plus,    TokenKind::Minus,     TokenKind::Star,
      TokenKind::Slash,   TokenKind::Percent,   TokenKind::EqEq,
      TokenKind::BangEq,  TokenKind::Less,      TokenKind::LessEq,
      TokenKind::Greater, TokenKind::GreaterEq, TokenKind::AmpAmp,
      TokenKind::PipePipe, TokenKind::Bang,     TokenKind::Eof};
  EXPECT_EQ(K, Expected);
}

TEST(Lexer, CommentsSkipped) {
  Lexed X = lex("a // comment until eol\nb // another");
  const std::vector<Token> &T = X.Toks;
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[0].Text, "a");
  EXPECT_EQ(T[1].Text, "b");
}

TEST(Lexer, LineAndColumnTracking) {
  Lexed X = lex("ab\n  cd");
  const std::vector<Token> &T = X.Toks;
  EXPECT_EQ(T[0].Loc.Line, 1u);
  EXPECT_EQ(T[0].Loc.Col, 1u);
  EXPECT_EQ(T[1].Loc.Line, 2u);
  EXPECT_EQ(T[1].Loc.Col, 3u);
}

TEST(Lexer, ErrorsReportedAndRecovered) {
  lex("a ? b", /*ExpectErrors=*/true);       // unknown char
  lex("\"unterminated", /*ExpectErrors=*/true);
  lex("a : b", /*ExpectErrors=*/true);       // ':' without '='
  lex("a = b", /*ExpectErrors=*/true);       // '=' instead of ':=' or '=='
  lex("a & b", /*ExpectErrors=*/true);
  lex("a | b", /*ExpectErrors=*/true);
}

//===----------------------------------------------------------------------===//
// Pinned behaviour: exact tokens, locations and diagnostics on inputs at
// the edges of the character classes, line endings and literal forms.
//===----------------------------------------------------------------------===//

TEST(LexerPinned, LongIdentifiersWithDigitsAndUnderscores) {
  Lexed X = lex("a_very_long_identifier_name_42 x9_y _ __init__ Q0123456789abcdefghij");
  EXPECT_EQ(render(X.Toks),
            "identifier 1:1 [a_very_long_identifier_name_42] | "
            "identifier 1:32 [x9_y] | identifier 1:37 [_] | "
            "identifier 1:39 [__init__] | "
            "identifier 1:48 [Q0123456789abcdefghij] | end of input 1:69");
}

TEST(LexerPinned, KeywordPrefixesAndExtensionsAreIdentifiers) {
  Lexed X = lex("classy iff nils _new newer fnx isa_ Class IF els trues");
  EXPECT_EQ(render(X.Toks),
            "identifier 1:1 [classy] | identifier 1:8 [iff] | "
            "identifier 1:12 [nils] | identifier 1:17 [_new] | "
            "identifier 1:22 [newer] | identifier 1:28 [fnx] | "
            "identifier 1:32 [isa_] | identifier 1:37 [Class] | "
            "identifier 1:43 [IF] | identifier 1:46 [els] | "
            "identifier 1:50 [trues] | end of input 1:55");
}

TEST(LexerPinned, CrLfLineEndingsAndTabs) {
  // '\r' is whitespace that advances the column; '\t' counts as one column.
  Lexed X = lex("a\r\n\tb\r\nc\rd\t\te");
  EXPECT_EQ(render(X.Toks),
            "identifier 1:1 [a] | identifier 2:2 [b] | "
            "identifier 3:1 [c] | identifier 3:3 [d] | "
            "identifier 3:6 [e] | end of input 3:7");
}

TEST(LexerPinned, LineCommentAtEofWithoutNewline) {
  Lexed X = lex("a // trailing comment");
  EXPECT_EQ(render(X.Toks), "identifier 1:1 [a] | end of input 1:22");
  Lexed Y = lex("//");
  EXPECT_EQ(render(Y.Toks), "end of input 1:3");
  // A lone '/' before EOF is the division operator.
  Lexed Z = lex("a /");
  EXPECT_EQ(render(Z.Toks), "identifier 1:1 [a] | '/' 1:3 | end of input 1:4");
}

TEST(LexerPinned, UnterminatedString) {
  Lexed X = lex("x \"abc\ndef", /*ExpectErrors=*/true);
  EXPECT_EQ(render(X.Toks), "identifier 1:1 [x] | string literal 1:3 "
                            "[abc\ndef] | end of input 2:4");
  EXPECT_EQ(X.Diags.toString(), "1:3: error: unterminated string literal\n");
}

TEST(LexerPinned, BackslashAtEof) {
  // The escape reads one character past the end, which lexes as NUL.
  Lexed X = lex("\"ab\\", /*ExpectErrors=*/true);
  EXPECT_EQ(render(X.Toks), "string literal 1:1 [ab] | end of input 1:6");
  EXPECT_EQ(X.Diags.toString(),
            std::string("1:6: error: unknown escape '\\") + '\0' +
                "'\n1:1: error: unterminated string literal\n");
}

TEST(LexerPinned, UnknownEscapeIsDroppedAndLexingContinues) {
  Lexed X = lex("\"a\\qb\" c", /*ExpectErrors=*/true);
  EXPECT_EQ(render(X.Toks),
            "string literal 1:1 [ab] | identifier 1:8 [c] | end of input 1:9");
  EXPECT_EQ(X.Diags.toString(), "1:5: error: unknown escape '\\q'\n");
}

TEST(LexerPinned, HighBytesAreUnexpectedCharacters) {
  // "C"-locale classification: bytes >= 0x80 are neither letters nor digits.
  Lexed X = lex("a\xC3\xA9z \xFF", /*ExpectErrors=*/true);
  EXPECT_EQ(render(X.Toks),
            "identifier 1:1 [a] | identifier 1:4 [z] | end of input 1:7");
  EXPECT_EQ(X.Diags.toString(),
            "1:2: error: unexpected character '\xC3'\n"
            "1:3: error: unexpected character '\xA9'\n"
            "1:6: error: unexpected character '\xFF'\n");
}

TEST(LexerPinned, EmbeddedNulEndsCommentsAndStrings) {
  using namespace std::string_literals;
  Lexed X = lex("a\0b // c\0d \"e\0f\""s, /*ExpectErrors=*/true);
  EXPECT_EQ(render(X.Toks),
            "identifier 1:1 [a] | identifier 1:3 [b] | identifier 1:10 [d] | "
            "string literal 1:12 [e] | identifier 1:15 [f] | "
            "string literal 1:16 [] | end of input 1:17");
  EXPECT_EQ(X.Diags.toString(),
            "1:2: error: unexpected character '\0'\n"
            "1:9: error: unexpected character '\0'\n"
            "1:12: error: unterminated string literal\n"
            "1:14: error: unexpected character '\0'\n"
            "1:16: error: unterminated string literal\n"s);
}

TEST(LexerPinned, IntegerOverflowBoundary) {
  Lexed X = lex("9223372036854775807 9223372036854775808 "
                "99999999999999999999999 007",
                /*ExpectErrors=*/true);
  EXPECT_EQ(render(X.Toks),
            "integer literal 1:1 =9223372036854775807 | "
            "integer literal 1:21 =9223372036854775807 | "
            "integer literal 1:41 =9223372036854775807 | "
            "integer literal 1:65 =7 | end of input 1:68");
  EXPECT_EQ(X.Diags.toString(), "1:21: error: integer literal too large\n"
                                "1:41: error: integer literal too large\n");
}

TEST(LexerPinned, DigitsThenLettersSplitIntoTwoTokens) {
  Lexed X = lex("12ab");
  EXPECT_EQ(render(X.Toks),
            "integer literal 1:1 =12 | identifier 1:3 [ab] | end of input 1:5");
}

TEST(LexerPinned, LoneOperatorCharactersAreSkippedWithOneDiagnosticEach) {
  Lexed X = lex("a : = & | # b", /*ExpectErrors=*/true);
  EXPECT_EQ(render(X.Toks),
            "identifier 1:1 [a] | identifier 1:13 [b] | end of input 1:14");
  EXPECT_EQ(X.Diags.toString(),
            "1:3: error: expected '=' after ':'\n"
            "1:5: error: expected '==' (assignment is ':=')\n"
            "1:7: error: expected '&&'\n"
            "1:9: error: expected '||'\n"
            "1:11: error: unexpected character '#'\n");
}

TEST(LexerPinned, LexerDiagnosticsComeBeforeParserDiagnostics) {
  // The parse error (a missing class name on line 1) is earlier in the
  // file than the lexer error (line 2), but the whole file is lexed first.
  SymbolTable Syms;
  Diagnostics Diags;
  Module M;
  EXPECT_FALSE(Parser::parseSource("class ;\nmethod m() { ? }", Syms, Diags, M));
  EXPECT_EQ(Diags.toString(),
            "2:14: error: unexpected character '?'\n"
            "1:7: error: expected class name\n");
}

//===----------------------------------------------------------------------===//
// Error recovery is iterative: a long run of bad characters gives one
// diagnostic per character, not one native stack frame per character.
//===----------------------------------------------------------------------===//

TEST(LexerRecovery, HundredThousandBadCharactersOfEachKind) {
  struct Case {
    const char *Unit; ///< repeated 100,000 times
    const char *Message;
  };
  const Case Cases[] = {
      {"#", "unexpected character '#'"},
      {":", "expected '=' after ':'"},
      {"= ", "expected '==' (assignment is ':=')"},
      {"& ", "expected '&&'"},
      {"| ", "expected '||'"},
  };
  const unsigned Count = 100000;
  for (const Case &C : Cases) {
    std::string Src;
    for (unsigned I = 0; I != Count; ++I)
      Src += C.Unit;
    Src += "x";
    Lexed X = lex(Src, /*ExpectErrors=*/true);
    ASSERT_EQ(X.Toks.size(), 2u) << C.Unit;
    EXPECT_EQ(X.Toks[0].Kind, TokenKind::Ident);
    EXPECT_EQ(X.Toks[0].Loc.Col, Src.size());
    ASSERT_EQ(X.Diags.all().size(), Count) << C.Unit;
    EXPECT_EQ(X.Diags.all().front().Message, C.Message);
    EXPECT_EQ(X.Diags.all().back().Message, C.Message);
    EXPECT_EQ(X.Diags.all().back().Loc.Col, Src.size() - std::strlen(C.Unit));
  }
}
