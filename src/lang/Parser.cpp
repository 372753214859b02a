//===- lang/Parser.cpp - Mica parser ---------------------------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

using namespace selspec;

Parser::Parser(std::vector<Token> Tokens, SymbolTable &Symbols,
               Diagnostics &Diags)
    : Tokens(std::move(Tokens)), Symbols(Symbols), Diags(Diags) {
  assert(!this->Tokens.empty() &&
         this->Tokens.back().Kind == TokenKind::Eof &&
         "token stream must end with Eof");
}

const Token &Parser::peek(unsigned Ahead) const {
  size_t I = Pos + Ahead;
  if (I >= Tokens.size())
    I = Tokens.size() - 1;
  return Tokens[I];
}

const Token &Parser::advance() {
  const Token &T = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::accept(TokenKind K) {
  if (!check(K))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (accept(K))
    return true;
  Diags.error(peek().Loc, std::string("expected ") + tokenKindName(K) +
                              " " + Context + ", found " +
                              tokenKindName(peek().Kind));
  return false;
}

void Parser::syncToDecl() {
  while (!check(TokenKind::Eof) && !check(TokenKind::KwClass) &&
         !check(TokenKind::KwMethod))
    advance();
}

bool Parser::atDepthLimit(SourceLoc Loc) {
  if (Depth < MaxDepth)
    return false;
  if (!DepthOverflow) {
    DepthOverflow = true;
    Diags.error(Loc, "expression or statement nesting too deep (limit " +
                         std::to_string(MaxDepth) + ")");
    // No useful recovery exists this deep in a pathological input; drain
    // so every pending recursive frame unwinds immediately at Eof.
    while (!check(TokenKind::Eof))
      advance();
  }
  return true;
}

Module Parser::parseModule() {
  Module M;
  while (!check(TokenKind::Eof)) {
    if (check(TokenKind::KwClass)) {
      M.Classes.push_back(parseClassDecl());
    } else if (check(TokenKind::KwMethod)) {
      M.Methods.push_back(parseMethodDecl());
    } else {
      Diags.error(peek().Loc,
                  std::string("expected 'class' or 'method', found ") +
                      tokenKindName(peek().Kind));
      syncToDecl();
    }
  }
  return M;
}

bool Parser::parseSource(const std::string &Source, SymbolTable &Symbols,
                         Diagnostics &Diags, Module &M) {
  Lexer L(Source, Diags);
  Parser P(L.lexAll(), Symbols, Diags);
  Module Parsed = P.parseModule();
  for (auto &C : Parsed.Classes)
    M.Classes.push_back(std::move(C));
  for (auto &F : Parsed.Methods)
    M.Methods.push_back(std::move(F));
  return !Diags.hasErrors();
}

ClassDecl Parser::parseClassDecl() {
  ClassDecl D;
  D.Loc = peek().Loc;
  expect(TokenKind::KwClass, "to start class declaration");
  if (check(TokenKind::Ident))
    D.Name = internIdent(advance());
  else
    Diags.error(peek().Loc, "expected class name");

  if (accept(TokenKind::KwIsa)) {
    do {
      if (check(TokenKind::Ident))
        D.Parents.push_back(internIdent(advance()));
      else {
        Diags.error(peek().Loc, "expected parent class name");
        break;
      }
    } while (accept(TokenKind::Comma));
  }

  if (accept(TokenKind::LBrace)) {
    while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
      if (!expect(TokenKind::KwSlot, "in class body"))
        break;
      if (check(TokenKind::Ident))
        D.Slots.push_back(internIdent(advance()));
      else
        Diags.error(peek().Loc, "expected slot name");
      expect(TokenKind::Semi, "after slot declaration");
    }
    expect(TokenKind::RBrace, "to close class body");
  }
  accept(TokenKind::Semi);
  return D;
}

MethodDecl Parser::parseMethodDecl() {
  MethodDecl D;
  D.Loc = peek().Loc;
  expect(TokenKind::KwMethod, "to start method declaration");
  if (check(TokenKind::Ident))
    D.Name = internIdent(advance());
  else
    Diags.error(peek().Loc, "expected method name");

  expect(TokenKind::LParen, "after method name");
  if (!check(TokenKind::RParen)) {
    do {
      ParamDecl P;
      P.Loc = peek().Loc;
      if (check(TokenKind::Ident))
        P.Name = internIdent(advance());
      else
        Diags.error(peek().Loc, "expected parameter name");
      if (accept(TokenKind::At)) {
        if (check(TokenKind::Ident))
          P.SpecializerName = internIdent(advance());
        else
          Diags.error(peek().Loc, "expected specializer class after '@'");
      }
      D.Params.push_back(P);
    } while (accept(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "to close parameter list");
  D.Body = parseBlock();
  return D;
}

ExprPtr Parser::parseBlock() {
  SourceLoc Loc = peek().Loc;
  expect(TokenKind::LBrace, "to open block");
  std::vector<ExprPtr> Elems;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof))
    Elems.push_back(parseStmt());
  expect(TokenKind::RBrace, "to close block");
  return std::make_unique<SeqExpr>(std::move(Elems), Loc);
}

// Guarded like parseStmt: "else if" chains recurse here directly, so a
// long flat chain is as dangerous as deep nesting.
ExprPtr Parser::parseIfStmt() {
  SourceLoc Loc = peek().Loc;
  if (atDepthLimit(Loc))
    return std::make_unique<NilLitExpr>(Loc);
  ++Depth;
  expect(TokenKind::KwIf, "to start if");
  expect(TokenKind::LParen, "after 'if'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after if condition");
  ExprPtr Then = parseBlock();
  ExprPtr Else;
  if (accept(TokenKind::KwElse)) {
    if (check(TokenKind::KwIf))
      Else = parseIfStmt();
    else
      Else = parseBlock();
  }
  --Depth;
  return std::make_unique<IfExpr>(std::move(Cond), std::move(Then),
                                  std::move(Else), Loc);
}

ExprPtr Parser::parseStmt() {
  SourceLoc Loc = peek().Loc;
  if (atDepthLimit(Loc))
    return std::make_unique<NilLitExpr>(Loc);
  ++Depth;
  ExprPtr S = parseStmtInner();
  --Depth;
  return S;
}

ExprPtr Parser::parseStmtInner() {
  SourceLoc Loc = peek().Loc;
  if (accept(TokenKind::KwLet)) {
    Symbol Name;
    if (check(TokenKind::Ident))
      Name = internIdent(advance());
    else
      Diags.error(peek().Loc, "expected variable name after 'let'");
    expect(TokenKind::Assign, "in let binding");
    ExprPtr Init = parseExpr();
    expect(TokenKind::Semi, "after let binding");
    return std::make_unique<LetExpr>(Name, std::move(Init), Loc);
  }
  if (accept(TokenKind::KwReturn)) {
    ExprPtr Value;
    if (!check(TokenKind::Semi))
      Value = parseExpr();
    expect(TokenKind::Semi, "after return");
    return std::make_unique<ReturnExpr>(std::move(Value), Loc);
  }
  if (check(TokenKind::KwIf))
    return parseIfStmt();
  if (accept(TokenKind::KwWhile)) {
    expect(TokenKind::LParen, "after 'while'");
    ExprPtr Cond = parseExpr();
    expect(TokenKind::RParen, "after while condition");
    ExprPtr Body = parseBlock();
    return std::make_unique<WhileExpr>(std::move(Cond), std::move(Body), Loc);
  }
  ExprPtr E = parseExpr();
  expect(TokenKind::Semi, "after expression statement");
  return E;
}

ExprPtr Parser::parseExpr() {
  if (atDepthLimit(peek().Loc))
    return std::make_unique<NilLitExpr>(peek().Loc);
  ++Depth;
  ExprPtr E = parseAssignment();
  --Depth;
  return E;
}

ExprPtr Parser::parseAssignment() {
  ExprPtr Lhs = parseOr();
  if (!check(TokenKind::Assign))
    return Lhs;
  SourceLoc Loc = advance().Loc;
  ExprPtr Rhs = parseAssignment();
  if (auto *V = dyn_cast<VarRefExpr>(Lhs.get()))
    return std::make_unique<AssignVarExpr>(V->Name, std::move(Rhs), Loc);
  if (isa<SlotGetExpr>(Lhs.get())) {
    auto *S = cast<SlotGetExpr>(Lhs.get());
    return std::make_unique<SlotSetExpr>(std::move(S->Object), S->SlotName,
                                         std::move(Rhs), Loc);
  }
  Diags.error(Loc, "assignment target must be a variable or a slot");
  return Lhs;
}

ExprPtr Parser::makeSend(std::string_view Generic, std::vector<ExprPtr> Args,
                         SourceLoc Loc) {
  auto S = std::make_unique<SendExpr>(Symbols.intern(Generic),
                                      std::move(Args), Loc);
  S->DefinitelySend = true;
  return S;
}

ExprPtr Parser::parseOr() {
  ExprPtr Lhs = parseAnd();
  while (check(TokenKind::PipePipe)) {
    SourceLoc Loc = advance().Loc;
    ExprPtr Rhs = parseAnd();
    // a || b  ==>  if (a) { true } else { b }
    Lhs = std::make_unique<IfExpr>(
        std::move(Lhs), std::make_unique<BoolLitExpr>(true, Loc),
        std::move(Rhs), Loc);
  }
  return Lhs;
}

ExprPtr Parser::parseAnd() {
  ExprPtr Lhs = parseComparison();
  while (check(TokenKind::AmpAmp)) {
    SourceLoc Loc = advance().Loc;
    ExprPtr Rhs = parseComparison();
    // a && b  ==>  if (a) { b } else { false }
    Lhs = std::make_unique<IfExpr>(
        std::move(Lhs), std::move(Rhs),
        std::make_unique<BoolLitExpr>(false, Loc), Loc);
  }
  return Lhs;
}

ExprPtr Parser::parseComparison() {
  ExprPtr Lhs = parseAdditive();
  const char *Generic = nullptr;
  switch (peek().Kind) {
  case TokenKind::EqEq: Generic = "=="; break;
  case TokenKind::BangEq: Generic = "!="; break;
  case TokenKind::Less: Generic = "<"; break;
  case TokenKind::LessEq: Generic = "<="; break;
  case TokenKind::Greater: Generic = ">"; break;
  case TokenKind::GreaterEq: Generic = ">="; break;
  default: return Lhs;
  }
  SourceLoc Loc = advance().Loc;
  ExprPtr Rhs = parseAdditive();
  std::vector<ExprPtr> Args;
  Args.push_back(std::move(Lhs));
  Args.push_back(std::move(Rhs));
  return makeSend(Generic, std::move(Args), Loc);
}

ExprPtr Parser::parseAdditive() {
  ExprPtr Lhs = parseMultiplicative();
  while (check(TokenKind::Plus) || check(TokenKind::Minus)) {
    const char *Generic = check(TokenKind::Plus) ? "+" : "-";
    SourceLoc Loc = advance().Loc;
    ExprPtr Rhs = parseMultiplicative();
    std::vector<ExprPtr> Args;
    Args.push_back(std::move(Lhs));
    Args.push_back(std::move(Rhs));
    Lhs = makeSend(Generic, std::move(Args), Loc);
  }
  return Lhs;
}

ExprPtr Parser::parseMultiplicative() {
  ExprPtr Lhs = parseUnary();
  while (check(TokenKind::Star) || check(TokenKind::Slash) ||
         check(TokenKind::Percent)) {
    const char *Generic = check(TokenKind::Star)    ? "*"
                          : check(TokenKind::Slash) ? "/"
                                                    : "%";
    SourceLoc Loc = advance().Loc;
    ExprPtr Rhs = parseUnary();
    std::vector<ExprPtr> Args;
    Args.push_back(std::move(Lhs));
    Args.push_back(std::move(Rhs));
    Lhs = makeSend(Generic, std::move(Args), Loc);
  }
  return Lhs;
}

ExprPtr Parser::parseUnary() {
  if (atDepthLimit(peek().Loc))
    return std::make_unique<NilLitExpr>(peek().Loc);
  ++Depth;
  ExprPtr E = parseUnaryInner();
  --Depth;
  return E;
}

ExprPtr Parser::parseUnaryInner() {
  if (check(TokenKind::Bang)) {
    SourceLoc Loc = advance().Loc;
    std::vector<ExprPtr> Args;
    Args.push_back(parseUnary());
    return makeSend("not", std::move(Args), Loc);
  }
  if (check(TokenKind::Minus)) {
    SourceLoc Loc = advance().Loc;
    // Fold negative integer literals directly.
    if (check(TokenKind::IntLit)) {
      const Token &T = advance();
      return std::make_unique<IntLitExpr>(-T.IntValue, Loc);
    }
    std::vector<ExprPtr> Args;
    Args.push_back(parseUnary());
    return makeSend("neg", std::move(Args), Loc);
  }
  return parsePostfix();
}

std::vector<ExprPtr> Parser::parseArgs() {
  std::vector<ExprPtr> Args;
  expect(TokenKind::LParen, "to open argument list");
  if (!check(TokenKind::RParen)) {
    do
      Args.push_back(parseExpr());
    while (accept(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "to close argument list");
  return Args;
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  for (;;) {
    if (check(TokenKind::Dot)) {
      SourceLoc Loc = advance().Loc;
      if (!check(TokenKind::Ident)) {
        Diags.error(peek().Loc, "expected member name after '.'");
        return E;
      }
      Symbol Name = internIdent(advance());
      if (check(TokenKind::LParen)) {
        // e.m(args) — a send with e as the receiver (first argument).
        std::vector<ExprPtr> Args = parseArgs();
        std::vector<ExprPtr> All;
        All.push_back(std::move(E));
        for (auto &A : Args)
          All.push_back(std::move(A));
        auto S = std::make_unique<SendExpr>(Name, std::move(All), Loc);
        S->DefinitelySend = true;
        E = std::move(S);
      } else {
        E = std::make_unique<SlotGetExpr>(std::move(E), Name, Loc);
      }
      continue;
    }
    if (check(TokenKind::LParen)) {
      // e(args) — a closure call on a computed callee.  (Bare-identifier
      // calls were already consumed inside parsePrimary.)
      SourceLoc Loc = peek().Loc;
      std::vector<ExprPtr> Args = parseArgs();
      E = std::make_unique<ClosureCallExpr>(std::move(E), std::move(Args),
                                            Loc);
      continue;
    }
    return E;
  }
}

ExprPtr Parser::parsePrimary() {
  SourceLoc Loc = peek().Loc;
  switch (peek().Kind) {
  case TokenKind::IntLit:
    return std::make_unique<IntLitExpr>(advance().IntValue, Loc);
  case TokenKind::StrLit:
    return std::make_unique<StrLitExpr>(std::string(advance().Text), Loc);
  case TokenKind::KwTrue:
    advance();
    return std::make_unique<BoolLitExpr>(true, Loc);
  case TokenKind::KwFalse:
    advance();
    return std::make_unique<BoolLitExpr>(false, Loc);
  case TokenKind::KwNil:
    advance();
    return std::make_unique<NilLitExpr>(Loc);
  case TokenKind::Ident: {
    Symbol Name = internIdent(advance());
    if (check(TokenKind::LParen)) {
      // f(args): a send unless `f` is lexically bound; the Resolver
      // rewrites bound names into closure calls.
      std::vector<ExprPtr> Args = parseArgs();
      return std::make_unique<SendExpr>(Name, std::move(Args), Loc);
    }
    return std::make_unique<VarRefExpr>(Name, Loc);
  }
  case TokenKind::KwNew: {
    advance();
    Symbol ClassName;
    if (check(TokenKind::Ident))
      ClassName = internIdent(advance());
    else
      Diags.error(peek().Loc, "expected class name after 'new'");
    std::vector<std::pair<Symbol, ExprPtr>> Inits;
    if (accept(TokenKind::LBrace)) {
      if (!check(TokenKind::RBrace)) {
        do {
          Symbol SlotName;
          if (check(TokenKind::Ident))
            SlotName = internIdent(advance());
          else
            Diags.error(peek().Loc, "expected slot name in initializer");
          expect(TokenKind::Assign, "in slot initializer");
          Inits.emplace_back(SlotName, parseExpr());
        } while (accept(TokenKind::Comma));
      }
      expect(TokenKind::RBrace, "to close initializer list");
    }
    return std::make_unique<NewExpr>(ClassName, std::move(Inits), Loc);
  }
  case TokenKind::KwFn: {
    advance();
    expect(TokenKind::LParen, "after 'fn'");
    std::vector<Symbol> Params;
    if (!check(TokenKind::RParen)) {
      do {
        if (check(TokenKind::Ident))
          Params.push_back(internIdent(advance()));
        else {
          Diags.error(peek().Loc, "expected closure parameter name");
          break;
        }
      } while (accept(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "to close closure parameters");
    ExprPtr Body = parseBlock();
    return std::make_unique<ClosureLitExpr>(std::move(Params),
                                            std::move(Body), Loc);
  }
  case TokenKind::LParen: {
    advance();
    ExprPtr E = parseExpr();
    expect(TokenKind::RParen, "to close parenthesized expression");
    return E;
  }
  default:
    Diags.error(Loc, std::string("expected expression, found ") +
                         tokenKindName(peek().Kind));
    advance();
    return std::make_unique<NilLitExpr>(Loc);
  }
}
