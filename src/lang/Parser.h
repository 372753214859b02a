//===- lang/Parser.h - Mica parser -----------------------------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for Mica.
///
/// Grammar sketch:
/// \code
///   program    := (classDecl | methodDecl)*
///   classDecl  := 'class' ID ('isa' ID (',' ID)*)? ('{' ('slot' ID ';')* '}')? ';'?
///   methodDecl := 'method' ID '(' (param (',' param)*)? ')' block
///   param      := ID ('@' ID)?
///   block      := '{' stmt* '}'
///   stmt       := 'let' ID ':=' expr ';' | 'return' expr? ';'
///              | 'if' '(' expr ')' block ('else' (block|ifstmt))?
///              | 'while' '(' expr ')' block | expr ';'
///   expr       := assignment with the usual operator precedence; binary
///                 operators desugar to message sends ('a + b' = '+'(a, b)),
///                 '&&'/'||' desugar to 'if', '!'/'-' to 'not'/'neg' sends.
///   postfix    := primary ('.' ID ('(' args ')')? | '(' args ')')*
///                 -- 'e.m(args)' is a send with e as the receiver,
///                    'e.s' is a slot access, 'e(args)' a closure call.
///   primary    := literals | ID ('(' args ')')? | 'new' ID ('{' inits '}')?
///              | 'fn' '(' IDs ')' block | '(' expr ')'
/// \endcode
///
/// Whether `f(x)` is a message send or a closure call depends on whether
/// `f` is lexically bound; the parser always emits a SendExpr and the
/// Resolver rewrites bound names into ClosureCallExprs.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_LANG_PARSER_H
#define SELSPEC_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Lexer.h"
#include "support/Diagnostics.h"

namespace selspec {

class Parser {
public:
  Parser(std::vector<Token> Tokens, SymbolTable &Symbols, Diagnostics &Diags);

  /// Parses a whole module.  Emits diagnostics and recovers at declaration
  /// boundaries; check Diags.hasErrors() before using the result.
  Module parseModule();

  /// Convenience: lex + parse \p Source into \p M, appending declarations.
  static bool parseSource(const std::string &Source, SymbolTable &Symbols,
                          Diagnostics &Diags, Module &M);

private:
  const Token &peek(unsigned Ahead = 0) const;
  const Token &advance();
  bool check(TokenKind K) const { return peek().Kind == K; }
  bool accept(TokenKind K);
  bool expect(TokenKind K, const char *Context);
  Symbol internIdent(const Token &T) { return Symbols.intern(T.Text); }
  void syncToDecl();

  /// True once expression/statement nesting exceeds MaxDepth.  The parser
  /// is recursive-descent, so unbounded nesting ("((((…", "!!!!…", deeply
  /// nested blocks) would otherwise exhaust the native stack; on overflow
  /// one error is emitted and the rest of the input is drained.
  bool atDepthLimit(SourceLoc Loc);

  ClassDecl parseClassDecl();
  MethodDecl parseMethodDecl();
  ExprPtr parseBlock();
  ExprPtr parseStmt();
  ExprPtr parseStmtInner();
  ExprPtr parseIfStmt();
  ExprPtr parseExpr();
  ExprPtr parseAssignment();
  ExprPtr parseOr();
  ExprPtr parseAnd();
  ExprPtr parseComparison();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parseUnary();
  ExprPtr parseUnaryInner();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();
  std::vector<ExprPtr> parseArgs();

  /// Builds a send `Generic(Args...)`.
  ExprPtr makeSend(std::string_view Generic, std::vector<ExprPtr> Args,
                   SourceLoc Loc);

  std::vector<Token> Tokens;
  size_t Pos = 0;
  SymbolTable &Symbols;
  Diagnostics &Diags;
  /// Current recursion depth across parseStmt/parseExpr/parseUnary.
  unsigned Depth = 0;
  bool DepthOverflow = false;
  static constexpr unsigned MaxDepth = 256;
};

} // namespace selspec

#endif // SELSPEC_LANG_PARSER_H
