//===- lang/Lexer.cpp - Mica lexer ----------------------------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <array>
#include <cstdint>

using namespace selspec;

const char *selspec::tokenKindName(TokenKind K) {
  switch (K) {
  case TokenKind::Eof: return "end of input";
  case TokenKind::Ident: return "identifier";
  case TokenKind::IntLit: return "integer literal";
  case TokenKind::StrLit: return "string literal";
  case TokenKind::KwClass: return "'class'";
  case TokenKind::KwIsa: return "'isa'";
  case TokenKind::KwSlot: return "'slot'";
  case TokenKind::KwMethod: return "'method'";
  case TokenKind::KwLet: return "'let'";
  case TokenKind::KwReturn: return "'return'";
  case TokenKind::KwIf: return "'if'";
  case TokenKind::KwElse: return "'else'";
  case TokenKind::KwWhile: return "'while'";
  case TokenKind::KwNew: return "'new'";
  case TokenKind::KwFn: return "'fn'";
  case TokenKind::KwTrue: return "'true'";
  case TokenKind::KwFalse: return "'false'";
  case TokenKind::KwNil: return "'nil'";
  case TokenKind::LParen: return "'('";
  case TokenKind::RParen: return "')'";
  case TokenKind::LBrace: return "'{'";
  case TokenKind::RBrace: return "'}'";
  case TokenKind::Comma: return "','";
  case TokenKind::Semi: return "';'";
  case TokenKind::Dot: return "'.'";
  case TokenKind::At: return "'@'";
  case TokenKind::Assign: return "':='";
  case TokenKind::Plus: return "'+'";
  case TokenKind::Minus: return "'-'";
  case TokenKind::Star: return "'*'";
  case TokenKind::Slash: return "'/'";
  case TokenKind::Percent: return "'%'";
  case TokenKind::EqEq: return "'=='";
  case TokenKind::BangEq: return "'!='";
  case TokenKind::Less: return "'<'";
  case TokenKind::LessEq: return "'<='";
  case TokenKind::Greater: return "'>'";
  case TokenKind::GreaterEq: return "'>='";
  case TokenKind::AmpAmp: return "'&&'";
  case TokenKind::PipePipe: return "'||'";
  case TokenKind::Bang: return "'!'";
  }
  return "token";
}

namespace {

enum CharClass : uint8_t { IdentStart = 1, IdentChar = 2, Digit = 4 };

/// The class bits of every byte: exactly the "C" locale's isalpha (with
/// '_' added) for IdentStart, isalnum (with '_') for IdentChar and
/// isdigit for Digit.  Bytes >= 0x80 are in no class.
constexpr std::array<uint8_t, 256> makeCharClasses() {
  std::array<uint8_t, 256> T{};
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = IdentStart | IdentChar;
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] = IdentStart | IdentChar;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = IdentChar | Digit;
  T['_'] = IdentStart | IdentChar;
  return T;
}

constexpr std::array<uint8_t, 256> CharClasses = makeCharClasses();

bool inClass(char C, CharClass Class) {
  return CharClasses[static_cast<unsigned char>(C)] & Class;
}

/// The keyword spelled \p S, or Ident.
TokenKind keywordKind(std::string_view S) {
  switch (S[0]) {
  case 'c': return S == "class" ? TokenKind::KwClass : TokenKind::Ident;
  case 'e': return S == "else" ? TokenKind::KwElse : TokenKind::Ident;
  case 'f':
    if (S == "fn")
      return TokenKind::KwFn;
    return S == "false" ? TokenKind::KwFalse : TokenKind::Ident;
  case 'i':
    if (S == "if")
      return TokenKind::KwIf;
    return S == "isa" ? TokenKind::KwIsa : TokenKind::Ident;
  case 'l': return S == "let" ? TokenKind::KwLet : TokenKind::Ident;
  case 'm': return S == "method" ? TokenKind::KwMethod : TokenKind::Ident;
  case 'n':
    if (S == "new")
      return TokenKind::KwNew;
    return S == "nil" ? TokenKind::KwNil : TokenKind::Ident;
  case 'r': return S == "return" ? TokenKind::KwReturn : TokenKind::Ident;
  case 's': return S == "slot" ? TokenKind::KwSlot : TokenKind::Ident;
  case 't': return S == "true" ? TokenKind::KwTrue : TokenKind::Ident;
  case 'w': return S == "while" ? TokenKind::KwWhile : TokenKind::Ident;
  default: return TokenKind::Ident;
  }
}

} // namespace

Lexer::Lexer(std::string_view Source, Diagnostics &Diags)
    : Src(Source), Diags(Diags) {}

char Lexer::peek(unsigned Ahead) const {
  return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
}

/// Past the end (only a backslash at EOF reads there) this yields NUL and
/// still moves one column on.
char Lexer::advance() {
  char C = peek();
  ++Pos;
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

bool Lexer::match(char C) {
  if (peek() != C)
    return false;
  advance();
  return true;
}

Token Lexer::next() {
  // One token per iteration: a bad character is reported and skipped by
  // going round again, so a long run of them costs no native stack.
  for (;;) {
    // Skip whitespace and comments.
    for (;;) {
      char C = peek();
      if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (peek() != '\n' && peek() != '\0')
          advance();
        continue;
      }
      break;
    }

    Token T;
    T.Loc = loc();
    if (Pos >= Src.size()) {
      T.Kind = TokenKind::Eof;
      return T;
    }

    if (inClass(Src[Pos], IdentStart)) {
      size_t End = Pos + 1;
      while (End < Src.size() && inClass(Src[End], IdentChar))
        ++End;
      std::string_view Text = Src.substr(Pos, End - Pos);
      Col += static_cast<uint32_t>(End - Pos);
      Pos = End;
      T.Kind = keywordKind(Text);
      if (T.Kind == TokenKind::Ident)
        T.Text = Text;
      return T;
    }

    char C = advance();
    if (inClass(C, Digit)) {
      // Unsigned accumulation with an explicit bound: a literal past
      // INT64_MAX is a diagnostic, never signed-overflow UB.
      uint64_t V = static_cast<uint64_t>(C - '0');
      bool Overflow = false;
      while (inClass(peek(), Digit)) {
        uint64_t D = static_cast<uint64_t>(advance() - '0');
        if (V > (static_cast<uint64_t>(INT64_MAX) - D) / 10) {
          Overflow = true;
          continue; // keep consuming digits, report once at the end
        }
        V = V * 10 + D;
      }
      if (Overflow) {
        Diags.error(T.Loc, "integer literal too large");
        V = static_cast<uint64_t>(INT64_MAX);
      }
      T.Kind = TokenKind::IntLit;
      T.IntValue = static_cast<int64_t>(V);
      return T;
    }

    switch (C) {
    case '"': {
      std::string &Text = Strings.emplace_back();
      while (peek() != '"' && peek() != '\0') {
        char D = advance();
        if (D == '\\') {
          char E = advance();
          switch (E) {
          case 'n': Text += '\n'; break;
          case 't': Text += '\t'; break;
          case '\\': Text += '\\'; break;
          case '"': Text += '"'; break;
          default:
            Diags.error(loc(), std::string("unknown escape '\\") + E + "'");
            break;
          }
        } else {
          Text += D;
        }
      }
      if (!match('"'))
        Diags.error(T.Loc, "unterminated string literal");
      T.Kind = TokenKind::StrLit;
      T.Text = Text;
      return T;
    }
    case '(': T.Kind = TokenKind::LParen; return T;
    case ')': T.Kind = TokenKind::RParen; return T;
    case '{': T.Kind = TokenKind::LBrace; return T;
    case '}': T.Kind = TokenKind::RBrace; return T;
    case ',': T.Kind = TokenKind::Comma; return T;
    case ';': T.Kind = TokenKind::Semi; return T;
    case '.': T.Kind = TokenKind::Dot; return T;
    case '@': T.Kind = TokenKind::At; return T;
    case ':':
      if (match('=')) {
        T.Kind = TokenKind::Assign;
        return T;
      }
      Diags.error(T.Loc, "expected '=' after ':'");
      continue;
    case '+': T.Kind = TokenKind::Plus; return T;
    case '-': T.Kind = TokenKind::Minus; return T;
    case '*': T.Kind = TokenKind::Star; return T;
    case '/': T.Kind = TokenKind::Slash; return T;
    case '%': T.Kind = TokenKind::Percent; return T;
    case '=':
      if (match('=')) {
        T.Kind = TokenKind::EqEq;
        return T;
      }
      Diags.error(T.Loc, "expected '==' (assignment is ':=')");
      continue;
    case '!':
      T.Kind = match('=') ? TokenKind::BangEq : TokenKind::Bang;
      return T;
    case '<':
      T.Kind = match('=') ? TokenKind::LessEq : TokenKind::Less;
      return T;
    case '>':
      T.Kind = match('=') ? TokenKind::GreaterEq : TokenKind::Greater;
      return T;
    case '&':
      if (match('&')) {
        T.Kind = TokenKind::AmpAmp;
        return T;
      }
      Diags.error(T.Loc, "expected '&&'");
      continue;
    case '|':
      if (match('|')) {
        T.Kind = TokenKind::PipePipe;
        return T;
      }
      Diags.error(T.Loc, "expected '||'");
      continue;
    default:
      Diags.error(T.Loc, std::string("unexpected character '") + C + "'");
      continue;
    }
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Out;
  // Mica source runs about four bytes per token; reserving that once
  // spares the vector's regrowth copies.
  Out.reserve(Src.size() / 4 + 1);
  for (;;) {
    Out.push_back(next());
    if (Out.back().Kind == TokenKind::Eof)
      return Out;
  }
}
