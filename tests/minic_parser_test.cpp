//===-- tests/minic_parser_test.cpp - Lexer and parser tests --------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "minic/Lexer.h"
#include "minic/Parser.h"

#include <gtest/gtest.h>

using namespace sharc;
using namespace sharc::minic;

namespace {

struct ParseResult {
  SourceManager SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<Program> Prog;
};

std::unique_ptr<ParseResult> parse(const std::string &Source) {
  auto Result = std::make_unique<ParseResult>();
  FileId File = Result->SM.addBuffer("test.mc", Source);
  Result->Diags = std::make_unique<DiagnosticEngine>(Result->SM);
  Parser P(Result->SM, File, *Result->Diags);
  Result->Prog = P.parseProgram();
  return Result;
}

std::vector<Token> lexAll(const std::string &Source) {
  // Keep the SourceManagers alive for the whole test binary: tokens hold
  // string_views into their buffers.
  static std::vector<std::unique_ptr<SourceManager>> KeepAlive;
  KeepAlive.push_back(std::make_unique<SourceManager>());
  SourceManager &SM = *KeepAlive.back();
  FileId File = SM.addBuffer("test.mc", Source);
  DiagnosticEngine Diags(SM);
  Lexer Lex(SM, File, Diags);
  std::vector<Token> Tokens;
  while (true) {
    Token T = Lex.next();
    Tokens.push_back(T);
    if (T.Kind == TokenKind::Eof)
      break;
  }
  return Tokens;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LexerTest, QualifierKeywords) {
  auto Tokens = lexAll("private readonly locked racy dynamic");
  ASSERT_EQ(Tokens.size(), 6u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::KwPrivate);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::KwReadonly);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::KwLocked);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::KwRacy);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::KwDynamic);
}

TEST(LexerTest, OperatorsAndPunctuation) {
  auto Tokens = lexAll("-> != == <= >= && || = < >");
  std::vector<TokenKind> Expected = {
      TokenKind::Arrow,    TokenKind::NotEq,   TokenKind::EqEq,
      TokenKind::LessEq,   TokenKind::GreaterEq, TokenKind::AmpAmp,
      TokenKind::PipePipe, TokenKind::Assign,  TokenKind::Less,
      TokenKind::Greater,  TokenKind::Eof};
  ASSERT_EQ(Tokens.size(), Expected.size());
  for (size_t I = 0; I != Expected.size(); ++I)
    EXPECT_EQ(Tokens[I].Kind, Expected[I]) << "token " << I;
}

TEST(LexerTest, CommentsAreSkipped) {
  auto Tokens = lexAll("a // to eol\n /* block\n comment */ b");
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "a");
  EXPECT_EQ(Tokens[1].Text, "b");
  EXPECT_EQ(Tokens[1].Loc.Line, 3u);
}

TEST(LexerTest, LiteralsCarryValues) {
  auto Tokens = lexAll("42 'x' '\\n' \"hi\\n\"");
  EXPECT_EQ(Tokens[0].IntValue, 42);
  EXPECT_EQ(Tokens[1].IntValue, 'x');
  EXPECT_EQ(Tokens[2].IntValue, '\n');
  EXPECT_EQ(Tokens[3].Kind, TokenKind::StringLiteral);
}

TEST(LexerTest, TracksLineAndColumn) {
  auto Tokens = lexAll("a\n  b");
  EXPECT_EQ(Tokens[0].Loc.Line, 1u);
  EXPECT_EQ(Tokens[0].Loc.Col, 1u);
  EXPECT_EQ(Tokens[1].Loc.Line, 2u);
  EXPECT_EQ(Tokens[1].Loc.Col, 3u);
}

//===----------------------------------------------------------------------===//
// Parser: declarations and types
//===----------------------------------------------------------------------===//

TEST(ParserTest, GlobalVariableWithQualifiers) {
  auto R = parse("int dynamic * private p;");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
  ASSERT_EQ(R->Prog->Globals.size(), 1u);
  VarDecl *P = R->Prog->Globals[0];
  EXPECT_EQ(P->Name, "p");
  ASSERT_EQ(P->DeclType->Kind, TypeKind::Pointer);
  EXPECT_EQ(P->DeclType->Q.M, Mode::Private);
  EXPECT_EQ(P->DeclType->Pointee->Kind, TypeKind::Int);
  EXPECT_EQ(P->DeclType->Pointee->Q.M, Mode::Dynamic);
}

TEST(ParserTest, StructWithLockedField) {
  auto R = parse("struct stage {\n"
                 "  mutex racy * readonly mut;\n"
                 "  char locked(mut) * locked(mut) sdata;\n"
                 "};\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
  StructDecl *S = R->Prog->findStruct("stage");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->Fields.size(), 2u);
  VarDecl *Sdata = S->findField("sdata");
  ASSERT_NE(Sdata, nullptr);
  EXPECT_EQ(Sdata->DeclType->Q.M, Mode::Locked);
  // The lock expression resolves to the sibling field.
  auto *LockName = dyn_cast<NameExpr>(Sdata->DeclType->Q.LockExpr);
  ASSERT_NE(LockName, nullptr);
  EXPECT_EQ(LockName->Var, S->findField("mut"));
  EXPECT_EQ(Sdata->DeclType->Pointee->Q.M, Mode::Locked);
}

TEST(ParserTest, TypedefStructAlias) {
  auto R = parse("typedef struct stage { int x; } stage_t;\n"
                 "stage_t * g;\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
  VarDecl *G = R->Prog->findGlobal("g");
  ASSERT_NE(G, nullptr);
  ASSERT_EQ(G->DeclType->Kind, TypeKind::Pointer);
  EXPECT_EQ(G->DeclType->Pointee->Kind, TypeKind::Struct);
  EXPECT_EQ(G->DeclType->Pointee->Struct, R->Prog->findStruct("stage"));
}

TEST(ParserTest, FunctionPointerField) {
  auto R = parse("struct stage {\n"
                 "  void (*fun)(char private * fdata);\n"
                 "};\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
  StructDecl *S = R->Prog->findStruct("stage");
  VarDecl *Fun = S->findField("fun");
  ASSERT_NE(Fun, nullptr);
  ASSERT_EQ(Fun->DeclType->Kind, TypeKind::Pointer);
  ASSERT_EQ(Fun->DeclType->Pointee->Kind, TypeKind::Func);
  ASSERT_EQ(Fun->DeclType->Pointee->Params.size(), 1u);
  TypeNode *Param = Fun->DeclType->Pointee->Params[0];
  ASSERT_EQ(Param->Kind, TypeKind::Pointer);
  EXPECT_EQ(Param->Pointee->Q.M, Mode::Private);
}

TEST(ParserTest, FunctionWithBodyAndLocals) {
  auto R = parse("int add(int a, int b) {\n"
                 "  int result;\n"
                 "  result = a + b;\n"
                 "  return result;\n"
                 "}\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
  FuncDecl *F = R->Prog->findFunc("add");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Params.size(), 2u);
  ASSERT_NE(F->Body, nullptr);
  EXPECT_EQ(F->Body->Body.size(), 3u);
}

TEST(ParserTest, ForwardFunctionReferenceResolves) {
  auto R = parse("void caller(void) { callee(); }\n"
                 "void callee(void) { }\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
}

TEST(ParserTest, SpawnResolvesThreadFunction) {
  auto R = parse("void worker(void dynamic * d) { }\n"
                 "void main_fn(void) {\n"
                 "  spawn worker(null);\n"
                 "}\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
  FuncDecl *Main = R->Prog->findFunc("main_fn");
  auto *Block = Main->Body;
  ASSERT_EQ(Block->Body.size(), 1u);
  auto *Spawn = dyn_cast<SpawnStmt>(Block->Body[0]);
  ASSERT_NE(Spawn, nullptr);
  EXPECT_EQ(Spawn->Callee, R->Prog->findFunc("worker"));
}

TEST(ParserTest, ScastExpression) {
  auto R = parse("void f(void) {\n"
                 "  char private * l;\n"
                 "  char dynamic * d;\n"
                 "  l = SCAST(char private *, d);\n"
                 "}\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
}

TEST(ParserTest, NewAndFree) {
  auto R = parse("void f(void) {\n"
                 "  int * p;\n"
                 "  p = new int[10];\n"
                 "  free(p);\n"
                 "}\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
}

TEST(ParserTest, UndeclaredIdentifierIsError) {
  auto R = parse("void f(void) { x = 1; }\n");
  EXPECT_TRUE(R->Diags->hasErrors());
  EXPECT_TRUE(R->Diags->containsMessage("undeclared identifier 'x'"));
}

TEST(ParserTest, UndefinedStructIsError) {
  auto R = parse("struct nothere * g;\n");
  EXPECT_TRUE(R->Diags->hasErrors());
  EXPECT_TRUE(R->Diags->containsMessage("never defined"));
}

TEST(ParserTest, DuplicateQualifierIsError) {
  auto R = parse("int private dynamic x;\n");
  EXPECT_TRUE(R->Diags->hasErrors());
  EXPECT_TRUE(R->Diags->containsMessage("multiple sharing qualifiers"));
}

TEST(ParserTest, BuiltinsAreAvailable) {
  auto R = parse("mutex racy * m;\n"
                 "void f(void) { mutex_lock(m); mutex_unlock(m); }\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
  FuncDecl *Lock = R->Prog->findFunc("mutex_lock");
  ASSERT_NE(Lock, nullptr);
  EXPECT_TRUE(Lock->IsBuiltin);
  ASSERT_EQ(Lock->Summaries.size(), 1u);
  EXPECT_TRUE(Lock->Summaries[0].ReadsPointee);
  EXPECT_TRUE(Lock->Summaries[0].WritesPointee);
}

TEST(ParserTest, PipelineExampleParses) {
  // Figure 1 of the paper, adapted to MiniC syntax.
  auto R = parse(
      "typedef struct stage {\n"
      "  struct stage * next;\n"
      "  cond racy * cv;\n"
      "  mutex racy * readonly mut;\n"
      "  char locked(mut) * locked(mut) sdata;\n"
      "  void (*fun)(char private * fdata);\n"
      "} stage_t;\n"
      "\n"
      "int notDone;\n"
      "\n"
      "void thrFunc(void dynamic * d) {\n"
      "  stage_t dynamic * S;\n"
      "  stage_t dynamic * nextS;\n"
      "  char private * ldata;\n"
      "  S = SCAST(stage_t dynamic *, d);\n"
      "  nextS = S->next;\n"
      "  while (notDone) {\n"
      "    mutex_lock(S->mut);\n"
      "    while (S->sdata == null)\n"
      "      cond_wait(S->cv, S->mut);\n"
      "    ldata = SCAST(char private *, S->sdata);\n"
      "    cond_signal(S->cv);\n"
      "    mutex_unlock(S->mut);\n"
      "    S->fun(ldata);\n"
      "    if (nextS != null) {\n"
      "      mutex_lock(nextS->mut);\n"
      "      while (nextS->sdata != null)\n"
      "        cond_wait(nextS->cv, nextS->mut);\n"
      "      nextS->sdata = SCAST(char locked(nextS->mut) *, ldata);\n"
      "      cond_signal(nextS->cv);\n"
      "      mutex_unlock(nextS->mut);\n"
      "    }\n"
      "  }\n"
      "}\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
  StructDecl *Stage = R->Prog->findStruct("stage");
  ASSERT_NE(Stage, nullptr);
  EXPECT_EQ(Stage->Fields.size(), 5u);
  EXPECT_NE(R->Prog->findFunc("thrFunc"), nullptr);
}

TEST(ParserTest, TypeToStringRendersQualifiers) {
  auto R = parse("char dynamic * private p;");
  ASSERT_FALSE(R->Diags->hasErrors());
  std::string S = typeToString(R->Prog->Globals[0]->DeclType);
  EXPECT_EQ(S, "char dynamic *private");
}

TEST(ParserTest, OperatorPrecedence) {
  auto R = parse("int g;\n"
                 "void f(void) { g = 1 + 2 * 3 == 7 && 1 < 2; }\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
  // g = ((1 + (2*3)) == 7) && (1 < 2)
  FuncDecl *F = R->Prog->findFunc("f");
  auto *ES = dyn_cast<ExprStmt>(F->Body->Body[0]);
  ASSERT_NE(ES, nullptr);
  auto *Assign = dyn_cast<AssignExpr>(ES->E);
  ASSERT_NE(Assign, nullptr);
  auto *And = dyn_cast<BinaryExpr>(Assign->Rhs);
  ASSERT_NE(And, nullptr);
  EXPECT_EQ(And->Op, BinaryOp::And);
}

TEST(ParserTest, SpellingRoundTrip) {
  auto R = parse("struct s { int x; };\n"
                 "void f(struct s * p) { p->x = p->x + 1; }\n");
  ASSERT_FALSE(R->Diags->hasErrors()) << R->Diags->render();
  FuncDecl *F = R->Prog->findFunc("f");
  auto *ES = dyn_cast<ExprStmt>(F->Body->Body[0]);
  EXPECT_EQ(ES->E->spelling(), "p->x = p->x + 1");
}
