//===-- tests/interp_lang_test.cpp - Language feature coverage ------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Broader MiniC language coverage through the full pipeline: function
/// pointers (the paper's `S->fun(ldata)` indirect call), nested structs,
/// arrays inside structs, break/continue nesting, readonly string
/// literals, sizeof, short-circuit evaluation, recursion depth, and error
/// recovery behaviour of the parser.
///
//===----------------------------------------------------------------------===//

#include "analysis/SharingAnalysis.h"
#include "checker/Checker.h"
#include "interp/Interp.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"

#include <gtest/gtest.h>

using namespace sharc;
using namespace sharc::minic;
using namespace sharc::interp;

namespace {

struct Compiled {
  SourceManager SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<Program> Prog;
  std::unique_ptr<checker::Checker> Check;
  std::unique_ptr<Interp> Interpreter;
  bool Ok = false;
};

std::unique_ptr<Compiled> compile(const std::string &Source) {
  auto R = std::make_unique<Compiled>();
  FileId File = R->SM.addBuffer("test.mc", Source);
  R->Diags = std::make_unique<DiagnosticEngine>(R->SM);
  Parser P(R->SM, File, *R->Diags);
  R->Prog = P.parseProgram();
  if (R->Diags->hasErrors())
    return R;
  ExprTyper Typer(*R->Prog, *R->Diags);
  if (!Typer.run())
    return R;
  analysis::SharingAnalysis SA(*R->Prog, *R->Diags);
  if (!SA.run())
    return R;
  R->Check = std::make_unique<checker::Checker>(*R->Prog, *R->Diags);
  if (!R->Check->run())
    return R;
  R->Interpreter =
      std::make_unique<Interp>(*R->Prog, R->Check->getInstrumentation());
  R->Ok = true;
  return R;
}

std::string runOutput(Compiled &C, uint64_t Seed = 1) {
  InterpOptions Options;
  Options.Seed = Seed;
  InterpResult R = C.Interpreter->run(Options);
  EXPECT_TRUE(R.Completed);
  for (const Violation &V : R.Violations)
    ADD_FAILURE() << V.format("test.mc");
  return R.Output;
}

} // namespace

TEST(LangTest, FunctionPointerFieldDispatch) {
  // The paper's `S->fun(ldata)`: an indirect call through a struct field.
  auto C = compile(
      "struct handler { void (*fn)(int x); };\n"
      "void double_it(int x) { print_int(x * 2); }\n"
      "void triple_it(int x) { print_int(x * 3); }\n"
      "void main(void) {\n"
      "  struct handler private * h;\n"
      "  h = new struct handler;\n"
      "  h->fn = double_it;\n"
      "  h->fn(21);\n"
      "  h->fn = triple_it;\n"
      "  h->fn(7);\n"
      "  free(h);\n"
      "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "42\n21\n");
}

TEST(LangTest, NestedStructsAndFieldOffsets) {
  auto C = compile("struct inner { int a; int b; };\n"
                   "struct outer { int x; struct inner mid; int y; };\n"
                   "void main(void) {\n"
                   "  struct outer private * o;\n"
                   "  o = new struct outer;\n"
                   "  o->x = 1;\n"
                   "  o->mid.a = 2;\n"
                   "  o->mid.b = 3;\n"
                   "  o->y = 4;\n"
                   "  print_int(o->x + o->mid.a * 10 + o->mid.b * 100 +\n"
                   "            o->y * 1000);\n"
                   "  free(o);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "4321\n");
}

TEST(LangTest, ArrayFieldInsideStruct) {
  auto C = compile("struct buf { int len; int data[4]; int tail; };\n"
                   "void main(void) {\n"
                   "  struct buf private * b;\n"
                   "  int i;\n"
                   "  b = new struct buf;\n"
                   "  b->len = 4;\n"
                   "  i = 0;\n"
                   "  while (i < 4) { b->data[i] = i + 1; i = i + 1; }\n"
                   "  b->tail = 9;\n"
                   "  print_int(b->data[0] + b->data[3] * 10 + b->tail * 100);\n"
                   "  free(b);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "941\n");
}

TEST(LangTest, LocalFixedArrays) {
  auto C = compile("void main(void) {\n"
                   "  int scratch[8];\n"
                   "  int i;\n"
                   "  int sum;\n"
                   "  i = 0;\n"
                   "  while (i < 8) { scratch[i] = i * i; i = i + 1; }\n"
                   "  sum = 0;\n"
                   "  i = 0;\n"
                   "  while (i < 8) { sum = sum + scratch[i]; i = i + 1; }\n"
                   "  print_int(sum);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "140\n");
}

TEST(LangTest, BreakAndContinueInNestedLoops) {
  auto C = compile("void main(void) {\n"
                   "  int i;\n"
                   "  int j;\n"
                   "  int hits;\n"
                   "  hits = 0;\n"
                   "  i = 0;\n"
                   "  while (i < 5) {\n"
                   "    i = i + 1;\n"
                   "    if (i == 2) continue;\n" // skip i==2 entirely
                   "    j = 0;\n"
                   "    while (j < 5) {\n"
                   "      j = j + 1;\n"
                   "      if (j == 3) break;\n" // inner break only
                   "      hits = hits + 1;\n"
                   "    }\n"
                   "  }\n"
                   "  print_int(hits);\n" // 4 outer iterations x 2 inner hits
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "8\n");
}

TEST(LangTest, ShortCircuitEvaluationSkipsSideConditions) {
  // Null-pointer deref guarded by &&: short-circuit must protect it.
  auto C = compile("void main(void) {\n"
                   "  int private * p;\n"
                   "  if (p != null && *p == 1)\n"
                   "    print_int(1);\n"
                   "  else\n"
                   "    print_int(0);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "0\n");
}

TEST(LangTest, SizeofCountsCells) {
  auto C = compile("struct pair { int a; int b; };\n"
                   "void main(void) {\n"
                   "  print_int(sizeof(int));\n"
                   "  print_int(sizeof(struct pair));\n"
                   "  print_int(sizeof(int *));\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "1\n2\n1\n");
}

TEST(LangTest, StringLiteralsAreReadonlyAndPrintable) {
  auto C = compile("void greet(char readonly * msg) { print_str(msg); }\n"
                   "void main(void) {\n"
                   "  greet(\"hello\");\n"
                   "  greet(\"world\");\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "hello\nworld\n");
}

TEST(LangTest, DeepRecursionWorks) {
  auto C = compile("int sum_to(int n) {\n"
                   "  int rest;\n"
                   "  if (n == 0) return 0;\n"
                   "  rest = sum_to(n - 1);\n"
                   "  return n + rest;\n"
                   "}\n"
                   "void main(void) { int r; r = sum_to(200); print_int(r); }\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "20100\n");
}

TEST(LangTest, NegativeNumbersAndRemainder) {
  auto C = compile("void main(void) {\n"
                   "  print_int(-7 / 2);\n"
                   "  print_int(-7 % 2);\n"
                   "  print_int(0 - 3 * -4);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "-3\n-1\n12\n");
}

TEST(LangTest, DivisionByZeroIsRuntimeError) {
  auto C = compile("void main(void) {\n"
                   "  int z;\n"
                   "  z = 0;\n"
                   "  print_int(1 / z);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = C->Interpreter->run(InterpOptions());
  EXPECT_FALSE(R.Completed);
  EXPECT_GE(R.count(Violation::Kind::RuntimeError), 1u);
}

namespace {

// A program that must stop with one runtime error whose detail starts
// with \p Detail: an access outside the allocated cells or an allocation
// past the interpreter's cell limit is reported, never a host crash.
void expectRuntimeError(const char *Source, const std::string &Detail) {
  auto C = compile(Source);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = C->Interpreter->run(InterpOptions());
  EXPECT_FALSE(R.Completed);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].K, Violation::Kind::RuntimeError);
  EXPECT_EQ(R.Violations[0].Detail.rfind(Detail, 0), 0u)
      << R.Violations[0].Detail;
}

} // namespace

TEST(LangTest, IndexPastMemoryIsRuntimeError) {
  expectRuntimeError("int g[4];\n"
                     "void main(void) {\n"
                     "  g[100000000] = 1;\n"
                     "}\n",
                     "out-of-bounds access");
}

TEST(LangTest, PointerPastMemoryIsRuntimeError) {
  expectRuntimeError("void main(void) {\n"
                     "  int private * p;\n"
                     "  p = new int;\n"
                     "  p = p + 5000000;\n"
                     "  *p = 3;\n"
                     "}\n",
                     "out-of-bounds access");
}

TEST(LangTest, NewPastTheMemoryLimitIsRuntimeError) {
  expectRuntimeError("void main(void) {\n"
                     "  int private * p;\n"
                     "  p = new int[100000000000];\n"
                     "  *p = 1;\n"
                     "}\n",
                     "allocation past the interpreter's limit");
}

TEST(LangTest, GlobalPastTheMemoryLimitEndsTheRunAtStart) {
  expectRuntimeError("int g[100000000000];\n"
                     "void main(void) {\n"
                     "  g[0] = 1;\n"
                     "}\n",
                     "global 'g' is past the interpreter's limit");
}

// main and 62 workers that spin until main lets them go: the last spawn
// is one thread past the limit, so that thread fails at birth and the
// run, though every other thread finishes, does not complete.
TEST(LangTest, SpawnPastTheThreadLimitFailsThatThread) {
  std::string Source = "int racy go;\n"
                       "void w(void) {\n"
                       "  while (go == 0) { }\n"
                       "}\n"
                       "void main(void) {\n";
  for (int I = 0; I != 62; ++I)
    Source += "  spawn w();\n";
  Source += "  go = 1;\n"
            "}\n";
  auto C = compile(Source);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = C->Interpreter->run(InterpOptions());
  EXPECT_FALSE(R.Completed);
  EXPECT_FALSE(R.Deadlocked);
  EXPECT_FALSE(R.OutOfSteps);
  EXPECT_EQ(R.Stats.ThreadsSpawned, 63u);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].Detail, "thread limit (62 concurrent) exceeded");
}

TEST(LangTest, AddressOfLocalAndDerefAssignment) {
  auto C = compile("void bump(int private * p) { *p = *p + 1; }\n"
                   "void main(void) {\n"
                   "  int x;\n"
                   "  x = 41;\n"
                   "  bump(&x);\n"
                   "  print_int(x);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "42\n");
}

TEST(LangTest, ParserRecoversAndReportsMultipleErrors) {
  SourceManager SM;
  FileId File = SM.addBuffer("bad.mc", "int ;\n"
                                       "void f(void) { x = ; }\n"
                                       "void g(void) { return 1; }\n");
  DiagnosticEngine Diags(SM);
  Parser P(SM, File, Diags);
  auto Prog = P.parseProgram();
  EXPECT_GE(Diags.getNumErrors(), 2u);
  // g still parsed despite earlier errors.
  EXPECT_NE(Prog->findFunc("g"), nullptr);
}

TEST(LangTest, UseAfterFreeOfDoubleFreeIsReported) {
  auto C = compile("void main(void) {\n"
                   "  int private * p;\n"
                   "  p = new int;\n"
                   "  free(p);\n"
                   "  free(p);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = C->Interpreter->run(InterpOptions());
  EXPECT_GE(R.count(Violation::Kind::RuntimeError), 1u);
}

TEST(LangTest, GlobalArraysAreSharedWhenThreadTouched) {
  auto C = compile("int table[8];\n"
                   "int racy done;\n"
                   "void filler(void) {\n"
                   "  int i;\n"
                   "  i = 0;\n"
                   "  while (i < 8) { table[i] = i; i = i + 1; }\n"
                   "  done = 1;\n"
                   "}\n"
                   "void main(void) {\n"
                   "  spawn filler();\n"
                   "  while (done == 0) { }\n"
                   "  print_int(table[7]);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  // table is inferred dynamic (touched by the thread); main reads after
  // the racy flag flips but while filler may still be live: the accesses
  // are checked, and the read may legitimately conflict in some schedules
  // (no annotation declared the handoff) -- we only require execution and
  // checking, not cleanliness.
  InterpOptions Options;
  InterpResult R = C->Interpreter->run(Options);
  EXPECT_TRUE(R.Completed || R.hasConflicts());
  EXPECT_NE(R.Output.find("7"), std::string::npos);
  EXPECT_GT(R.Stats.DynamicChecks, 8u);
}

TEST(LangTest, FullFigure1PipelineWithFunctionPointers) {
  // The paper's Figure 1, complete: two chained stages, each with its own
  // processing function installed in the `fun` field, buffers handed
  // down the chain with the two sharing casts, terminated by a rounds
  // counter instead of the paper's elided notDone protocol.
  auto C = compile(
      "typedef struct stage {\n"
      "  struct stage * next;\n"
      "  cond * cv;\n"
      "  mutex * mut;\n"
      "  char locked(mut) * locked(mut) sdata;\n"
      "  void (*fun)(char private * fdata);\n"
      "} stage_t;\n"
      "\n"
      "void add_one(char private * fdata) { *fdata = *fdata + 1; }\n"
      "void add_ten(char private * fdata) { *fdata = *fdata + 10; }\n"
      "\n"
      "void thrFunc(void * d) {\n"
      "  stage_t * S;\n"
      "  stage_t * nextS;\n"
      "  char private * ldata;\n"
      "  int rounds;\n"
      "  S = d;\n"
      "  nextS = S->next;\n"
      "  rounds = 0;\n"
      "  while (rounds < 3) {\n"
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
      "    } else {\n"
      "      print_int(*ldata);\n"
      "      free(ldata);\n"
      "    }\n"
      "    rounds = rounds + 1;\n"
      "  }\n"
      "}\n"
      "\n"
      "stage_t dynamic * make_stage(stage_t dynamic * next_stage,\n"
      "                              int which) {\n"
      "  stage_t private * st;\n"
      "  stage_t dynamic * shared;\n"
      "  st = new stage_t;\n"
      "  st->mut = new mutex;\n"
      "  st->cv = new cond;\n"
      "  st->next = next_stage;\n"
      "  // Install the processing function while the stage is private --\n"
      "  // writing the (instance-qualified) fun field after publication\n"
      "  // would itself be flagged as sharing.\n"
      "  if (which == 1) st->fun = add_one; else st->fun = add_ten;\n"
      "  shared = SCAST(stage_t dynamic *, st);\n"
      "  return shared;\n"
      "}\n"
      "\n"
      "void main(void) {\n"
      "  stage_t dynamic * s2;\n"
      "  stage_t dynamic * s1;\n"
      "  char private * buf;\n"
      "  int i;\n"
      "  s2 = make_stage(null, 2);\n"
      "  s1 = make_stage(s2, 1);\n"
      "  spawn thrFunc(s1);\n"
      "  spawn thrFunc(s2);\n"
      "  i = 0;\n"
      "  while (i < 3) {\n"
      "    buf = new char;\n"
      "    *buf = 60 + i;\n"
      "    mutex_lock(s1->mut);\n"
      "    while (s1->sdata != null)\n"
      "      cond_wait(s1->cv, s1->mut);\n"
      "    s1->sdata = SCAST(char locked(s1->mut) *, buf);\n"
      "    cond_signal(s1->cv);\n"
      "    mutex_unlock(s1->mut);\n"
      "    i = i + 1;\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    InterpOptions Options;
    Options.Seed = Seed;
    InterpResult R = C->Interpreter->run(Options);
    EXPECT_TRUE(R.Completed) << "seed " << Seed;
    // Each buffer gains +1 at stage 1 and +10 at stage 2.
    EXPECT_EQ(R.Output, "71\n72\n73\n") << "seed " << Seed;
    for (const Violation &V : R.Violations)
      ADD_FAILURE() << "seed " << Seed << ": " << V.format("test.mc");
  }
}

TEST(ForLoopTest, BasicCountingLoop) {
  auto C = compile("void main(void) {\n"
                   "  int sum;\n"
                   "  sum = 0;\n"
                   "  for (int i = 0; i < 10; i = i + 1)\n"
                   "    sum = sum + i;\n"
                   "  print_int(sum);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "45\n");
}

TEST(ForLoopTest, ContinueRunsTheStep) {
  // The difference between a real for statement and the naive
  // while-desugaring: continue must still execute the step.
  auto C = compile("void main(void) {\n"
                   "  int hits;\n"
                   "  hits = 0;\n"
                   "  for (int i = 0; i < 10; i = i + 1) {\n"
                   "    if (i % 2 == 0) continue;\n"
                   "    hits = hits + 1;\n"
                   "  }\n"
                   "  print_int(hits);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "5\n");
}

TEST(ForLoopTest, BreakLeavesOnlyTheInnerLoop) {
  auto C = compile("void main(void) {\n"
                   "  int total;\n"
                   "  total = 0;\n"
                   "  for (int i = 0; i < 3; i = i + 1)\n"
                   "    for (int j = 0; j < 10; j = j + 1) {\n"
                   "      if (j == 2) break;\n"
                   "      total = total + 1;\n"
                   "    }\n"
                   "  print_int(total);\n" // 3 outer x 2 inner
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "6\n");
}

TEST(ForLoopTest, EmptyHeaderClausesWork) {
  auto C = compile("void main(void) {\n"
                   "  int i;\n"
                   "  i = 0;\n"
                   "  for (; ; ) {\n"
                   "    if (i >= 4) break;\n"
                   "    i = i + 1;\n"
                   "  }\n"
                   "  print_int(i);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "4\n");
}

TEST(ForLoopTest, ExpressionInitializer) {
  auto C = compile("void main(void) {\n"
                   "  int i;\n"
                   "  int sum;\n"
                   "  sum = 0;\n"
                   "  for (i = 5; i > 0; i = i - 1)\n"
                   "    sum = sum + i;\n"
                   "  print_int(sum);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "15\n");
}

TEST(ForLoopTest, MixesWithWhileAndNestedContinue) {
  auto C = compile("void main(void) {\n"
                   "  int count;\n"
                   "  int i;\n"
                   "  count = 0;\n"
                   "  i = 0;\n"
                   "  while (i < 2) {\n"
                   "    for (int j = 0; j < 6; j = j + 1) {\n"
                   "      if (j % 3 != 0) continue;\n"
                   "      count = count + 1;\n"
                   "    }\n"
                   "    i = i + 1;\n"
                   "  }\n"
                   "  print_int(count);\n" // 2 x {0,3} = 4
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  EXPECT_EQ(runOutput(*C), "4\n");
}

TEST(ForLoopTest, DynamicAccessesInsideForAreChecked) {
  auto C = compile("int counter;\n"
                   "void worker(void) {\n"
                   "  for (int i = 0; i < 5; i = i + 1)\n"
                   "    counter = counter + 1;\n"
                   "}\n"
                   "void main(void) { spawn worker(); }\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = C->Interpreter->run(InterpOptions());
  EXPECT_TRUE(R.Completed);
  EXPECT_GE(R.Stats.DynamicChecks, 10u); // 5 reads + 5 writes
}
