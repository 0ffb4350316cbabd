//===-- tests/interp_test.cpp - Operational semantics tests ---------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the Figure 5/6 interpreter: sequential execution, threading and
/// synchronization, the dynamic checks, sharing casts with heap-inspected
/// oneref, and the end-to-end pipeline example.
///
//===----------------------------------------------------------------------===//

#include "analysis/SharingAnalysis.h"
#include "checker/Checker.h"
#include "interp/Interp.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <new>

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

InterpResult runSeed(Compiled &C, uint64_t Seed,
                     const std::string &Entry = "main") {
  InterpOptions Options;
  Options.Seed = Seed;
  Options.EntryPoint = Entry;
  return C.Interpreter->run(Options);
}

} // namespace

//===----------------------------------------------------------------------===//
// Sequential execution
//===----------------------------------------------------------------------===//

TEST(InterpSequentialTest, ArithmeticAndPrint) {
  auto C = compile("void main(void) {\n"
                   "  int x;\n"
                   "  x = 6 * 7;\n"
                   "  print_int(x);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Output, "42\n");
  EXPECT_TRUE(R.Violations.empty());
}

TEST(InterpSequentialTest, WhileLoopAndBreak) {
  auto C = compile("void main(void) {\n"
                   "  int i;\n"
                   "  int sum;\n"
                   "  i = 0;\n"
                   "  sum = 0;\n"
                   "  while (1) {\n"
                   "    if (i >= 5) break;\n"
                   "    sum = sum + i;\n"
                   "    i = i + 1;\n"
                   "  }\n"
                   "  print_int(sum);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Output, "10\n");
}

TEST(InterpSequentialTest, FunctionCallsAndReturnValues) {
  auto C = compile("int square(int x) { return x * x; }\n"
                   "void main(void) {\n"
                   "  int y;\n"
                   "  y = square(9);\n"
                   "  print_int(y);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Output, "81\n");
}

TEST(InterpSequentialTest, RecursionWorks) {
  auto C = compile("int fib(int n) {\n"
                   "  int a;\n"
                   "  int b;\n"
                   "  if (n < 2) return n;\n"
                   "  a = fib(n - 1);\n"
                   "  b = fib(n - 2);\n"
                   "  return a + b;\n"
                   "}\n"
                   "void main(void) { int r; r = fib(10); print_int(r); }\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Output, "55\n");
}

TEST(InterpSequentialTest, StructsAndPointers) {
  auto C = compile("struct point { int x; int y; };\n"
                   "void main(void) {\n"
                   "  struct point private * p;\n"
                   "  p = new struct point;\n"
                   "  p->x = 3;\n"
                   "  p->y = 4;\n"
                   "  print_int(p->x * p->x + p->y * p->y);\n"
                   "  free(p);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Output, "25\n");
}

TEST(InterpSequentialTest, ArraysViaPointerArithmetic) {
  auto C = compile("void main(void) {\n"
                   "  int private * buf;\n"
                   "  int i;\n"
                   "  int sum;\n"
                   "  buf = new int[10];\n"
                   "  i = 0;\n"
                   "  while (i < 10) { buf[i] = i * i; i = i + 1; }\n"
                   "  sum = 0;\n"
                   "  i = 0;\n"
                   "  while (i < 10) { sum = sum + buf[i]; i = i + 1; }\n"
                   "  print_int(sum);\n"
                   "  free(buf);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Output, "285\n");
}

TEST(InterpSequentialTest, NullDereferenceFails) {
  auto C = compile("void main(void) {\n"
                   "  int private * p;\n"
                   "  int x;\n"
                   "  x = *p;\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_FALSE(R.Completed);
  EXPECT_EQ(R.count(Violation::Kind::RuntimeError), 1u);
}

TEST(InterpSequentialTest, StringLiteralsPrint) {
  auto C = compile("void main(void) { print_str(\"hello sharc\"); }\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_EQ(R.Output, "hello sharc\n");
}

//===----------------------------------------------------------------------===//
// Threads and synchronization
//===----------------------------------------------------------------------===//

TEST(InterpThreadTest, RacyWriteIsDetected) {
  auto C = compile("int counter;\n"
                   "void worker(void) { counter = counter + 1; }\n"
                   "void main(void) {\n"
                   "  spawn worker();\n"
                   "  counter = counter + 1;\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  // Across seeds, some schedule must expose the conflict: both threads
  // overlap (spawned before main's increment), so the reader/writer sets
  // intersect in every run.
  unsigned Detected = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    InterpResult R = runSeed(*C, Seed);
    if (R.hasConflicts())
      ++Detected;
  }
  EXPECT_GT(Detected, 0u);
}

TEST(InterpThreadTest, LockedCounterRunsClean) {
  // Global lock idiom: a static mutex object named by address, as in C's
  // `pthread_mutex_t m; ... locked(&m)`.
  auto C = compile("mutex m;\n"
                   "int locked(&m) counter;\n"
                   "void worker(void) {\n"
                   "  mutex_lock(&m);\n"
                   "  counter = counter + 1;\n"
                   "  mutex_unlock(&m);\n"
                   "}\n"
                   "void main(void) {\n"
                   "  spawn worker();\n"
                   "  spawn worker();\n"
                   "  mutex_lock(&m);\n"
                   "  counter = counter + 1;\n"
                   "  mutex_unlock(&m);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    InterpResult R = runSeed(*C, Seed);
    EXPECT_TRUE(R.Completed) << "seed " << Seed;
    EXPECT_TRUE(R.Violations.empty())
        << "seed " << Seed << ": " << R.Violations[0].format("test.mc");
  }
}

TEST(InterpThreadTest, UnlockedAccessToLockedCellIsViolation) {
  auto C = compile("mutex m;\n"
                   "int locked(&m) counter;\n"
                   "void worker(void) {\n"
                   "  counter = 1;\n" // no lock held
                   "}\n"
                   "void main(void) {\n"
                   "  spawn worker();\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_GE(R.count(Violation::Kind::LockViolation), 1u);
}

TEST(InterpThreadTest, NonOverlappingThreadsDoNotConflict) {
  // Thread exit clears access bits: threads whose executions do not
  // overlap may touch the same dynamic cell ("SharC does not consider it
  // a race for two threads to access the same location if their
  // execution does not overlap"). A deterministic schedule is forced by
  // making main wait for the worker through an intentionally racy flag.
  auto C = compile("int cell;\n"
                   "int racy flag;\n"
                   "void writerA(void) { cell = 1; flag = 1; }\n"
                   "void main(void) {\n"
                   "  spawn writerA();\n"
                   "  while (flag == 0) { }\n"
                   "  while (cell == 0) { }\n" // worker may still be live here
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  // Note: main reads `cell` only after flag is set, but the worker may
  // not have exited yet, so a read conflict is legitimately possible in
  // some schedules; with FailStop off we only require completion.
  InterpResult R = runSeed(*C, 3);
  EXPECT_TRUE(R.Completed);
}

TEST(InterpThreadTest, CondVarPingPong) {
  auto C = compile(
      "mutex m;\n"
      "cond cv;\n"
      "int locked(&m) ready;\n"
      "int locked(&m) data;\n"
      "void consumer(void) {\n"
      "  mutex_lock(&m);\n"
      "  while (ready == 0)\n"
      "    cond_wait(&cv, &m);\n"
      "  print_int(data);\n"
      "  mutex_unlock(&m);\n"
      "}\n"
      "void main(void) {\n"
      "  spawn consumer();\n"
      "  mutex_lock(&m);\n"
      "  data = 99;\n"
      "  ready = 1;\n"
      "  cond_signal(&cv);\n"
      "  mutex_unlock(&m);\n"
      "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    InterpResult R = runSeed(*C, Seed);
    EXPECT_TRUE(R.Completed) << "seed " << Seed;
    EXPECT_EQ(R.Output, "99\n") << "seed " << Seed;
    EXPECT_TRUE(R.Violations.empty()) << "seed " << Seed;
  }
}

TEST(InterpThreadTest, DeadlockIsDetected) {
  auto C = compile("mutex m;\n"
                   "cond cv;\n"
                   "void main(void) {\n"
                   "  mutex_lock(&m);\n"
                   "  cond_wait(&cv, &m);\n" // nobody will ever signal
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_TRUE(R.Deadlocked);
}

//===----------------------------------------------------------------------===//
// Sharing casts
//===----------------------------------------------------------------------===//

TEST(InterpCastTest, SoleReferenceCastSucceedsAndNullsSource) {
  auto C = compile("void main(void) {\n"
                   "  int dynamic * d;\n"
                   "  int private * p;\n"
                   "  d = new int;\n"
                   "  *d = 5;\n"
                   "  p = SCAST(int private *, d);\n"
                   "  print_int(*p);\n"
                   "  if (d == null) print_int(1); else print_int(0);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Output, "5\n1\n");
  EXPECT_TRUE(R.Violations.empty()) << R.Violations[0].format("t");
}

TEST(InterpCastTest, SecondReferenceMakesCastFail) {
  auto C = compile("int dynamic * dynamic g;\n"
                   "void keeper(void) { }\n"
                   "void main(void) {\n"
                   "  int dynamic * d;\n"
                   "  int private * p;\n"
                   "  spawn keeper();\n" // make g thread-touched
                   "  d = new int;\n"
                   "  g = d;\n" // second reference lives in the global
                   "  p = SCAST(int private *, d);\n"
                   "}\n");
  // keeper must mention g for seeding; rewrite inline below instead.
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_EQ(R.count(Violation::Kind::CastError), 1u);
}

TEST(InterpCastTest, CastClearsAccessHistory) {
  // After an ownership transfer via SCAST, a new thread may access the
  // object without conflicting with the old owner's accesses.
  auto C = compile(
      "int dynamic * racy mailbox;\n"
      "void consumer(void) {\n"
      "  int private * mine;\n"
      "  while (mailbox == null) { }\n"
      "  mine = SCAST(int private *, mailbox);\n"
      "  print_int(*mine);\n"
      "  free(mine);\n"
      "}\n"
      "void main(void) {\n"
      "  int dynamic * d;\n"
      "  d = new int;\n"
      "  *d = 123;\n"
      "  spawn consumer();\n"
      "  mailbox = SCAST(int dynamic *, d);\n"
      "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    InterpResult R = runSeed(*C, Seed);
    EXPECT_TRUE(R.Completed) << "seed " << Seed;
    EXPECT_EQ(R.Output, "123\n") << "seed " << Seed;
    EXPECT_EQ(R.count(Violation::Kind::ReadConflict), 0u) << "seed " << Seed;
    EXPECT_EQ(R.count(Violation::Kind::WriteConflict), 0u) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Soundness property: schedule fuzzing
//===----------------------------------------------------------------------===//

namespace {

const char *RacyProgram =
    "int dynamic * racy shared_buf;\n"
    "void worker(void) {\n"
    "  while (shared_buf == null) { }\n"
    "  *shared_buf = 2;\n" // races with main's accesses
    "}\n"
    "void main(void) {\n"
    "  int dynamic * d;\n"
    "  d = new int;\n"
    "  *d = 1;\n"
    "  spawn worker();\n"
    "  shared_buf = d;\n"
    "  while (*d != 2) { }\n" // overlapping reads: the race must be seen
    "}\n";

const char *SafeProgram =
    "int dynamic * racy mailbox;\n"
    "void worker(void) {\n"
    "  int private * mine;\n"
    "  while (mailbox == null) { }\n"
    "  mine = SCAST(int private *, mailbox);\n"
    "  *mine = *mine + 1;\n"
    "  print_int(*mine);\n"
    "}\n"
    "void main(void) {\n"
    "  int dynamic * d;\n"
    "  d = new int;\n"
    "  *d = 10;\n"
    "  spawn worker();\n"
    "  mailbox = SCAST(int dynamic *, d);\n"
    "}\n";

} // namespace

class ScheduleSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScheduleSweepTest, RacyProgramAlwaysFlagged) {
  auto C = compile(RacyProgram);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, GetParam());
  // The two writes overlap in every schedule (main waits for the worker's
  // value), so the race must be flagged regardless of interleaving.
  EXPECT_TRUE(R.hasConflicts()) << "seed " << GetParam();
}

TEST_P(ScheduleSweepTest, SafeProgramNeverFlagged) {
  auto C = compile(SafeProgram);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, GetParam());
  EXPECT_TRUE(R.Completed) << "seed " << GetParam();
  EXPECT_TRUE(R.Violations.empty())
      << "seed " << GetParam() << ": "
      << R.Violations[0].format("test.mc");
  EXPECT_EQ(R.Output, "11\n");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleSweepTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u));

//===----------------------------------------------------------------------===//
// The paper's pipeline, end to end
//===----------------------------------------------------------------------===//

TEST(InterpPipelineTest, AnnotatedPipelineRunsClean) {
  // The paper's Section 2.1 pipeline: a stage struct is initialized while
  // private, published to dynamic with a sharing cast, and buffers are
  // handed from producer to consumer with SCASTs through the locked
  // sdata field.
  auto C = compile(
      "typedef struct stage {\n"
      "  mutex * mut;\n"
      "  cond * cv;\n"
      "  char locked(mut) * locked(mut) sdata;\n"
      "} stage_t;\n"
      "void consumer(void * arg) {\n"
      "  stage_t * S;\n"
      "  char private * ldata;\n"
      "  int done;\n"
      "  done = 0;\n"
      "  S = arg;\n"
      "  while (done < 3) {\n"
      "    mutex_lock(S->mut);\n"
      "    while (S->sdata == null)\n"
      "      cond_wait(S->cv, S->mut);\n"
      "    ldata = SCAST(char private *, S->sdata);\n"
      "    cond_signal(S->cv);\n"
      "    mutex_unlock(S->mut);\n"
      "    print_int(*ldata);\n"
      "    free(ldata);\n"
      "    done = done + 1;\n"
      "  }\n"
      "}\n"
      "void main(void) {\n"
      "  stage_t private * init;\n"
      "  stage_t * S;\n"
      "  char private * buf;\n"
      "  int i;\n"
      "  init = new stage_t;\n"
      "  init->mut = new mutex;\n" // readonly field of a private struct
      "  init->cv = new cond;\n"
      "  S = SCAST(stage_t dynamic *, init);\n"
      "  spawn consumer(S);\n"
      "  i = 0;\n"
      "  while (i < 3) {\n"
      "    buf = new char;\n"
      "    *buf = 65 + i;\n"
      "    mutex_lock(S->mut);\n"
      "    while (S->sdata != null)\n"
      "      cond_wait(S->cv, S->mut);\n"
      "    S->sdata = SCAST(char locked(S->mut) *, buf);\n"
      "    cond_signal(S->cv);\n"
      "    mutex_unlock(S->mut);\n"
      "    i = i + 1;\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    InterpResult R = runSeed(*C, Seed);
    EXPECT_TRUE(R.Completed) << "seed " << Seed;
    EXPECT_EQ(R.Output, "65\n66\n67\n") << "seed " << Seed;
    for (const Violation &V : R.Violations)
      ADD_FAILURE() << "seed " << Seed << ": " << V.format("test.mc");
  }

}

TEST(InterpPipelineTest, UnannotatedPipelineReportsSharing) {
  // Without annotations the buffer handoff is seen as illegal sharing:
  // the consumer reads cells the producer wrote, and the sdata field is
  // checked dynamically rather than as a locked cell.
  auto C = compile(
      "typedef struct stage {\n"
      "  mutex * mut;\n"
      "  cond * cv;\n"
      "  char * sdata;\n"
      "} stage_t;\n"
      "void consumer(void * arg) {\n"
      "  stage_t * S;\n"
      "  S = arg;\n"
      "  mutex_lock(S->mut);\n"
      "  while (S->sdata == null)\n"
      "    cond_wait(S->cv, S->mut);\n"
      "  print_int(*(S->sdata));\n"
      "  mutex_unlock(S->mut);\n"
      "}\n"
      "void main(void) {\n"
      "  stage_t dynamic * S;\n"
      "  char dynamic * buf;\n"
      "  int v;\n"
      "  S = new stage_t;\n"
      "  S->mut = new mutex;\n"
      "  S->cv = new cond;\n"
      "  buf = new char;\n"
      "  *buf = 88;\n"
      "  spawn consumer(S);\n"
      "  mutex_lock(S->mut);\n"
      "  S->sdata = buf;\n"
      "  cond_signal(S->cv);\n"
      "  mutex_unlock(S->mut);\n"
      "  v = *buf;\n" // keep an overlapping access to the buffer
      "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  unsigned Flagged = 0;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    InterpResult R = runSeed(*C, Seed);
    if (R.hasConflicts())
      ++Flagged;
  }
  EXPECT_GT(Flagged, 0u);
}

TEST(InterpStatsTest, DynamicCheckAndAccessCounters) {
  auto C = compile("int counter;\n"
                   "void worker(void) { counter = counter + 1; }\n"
                   "void main(void) { spawn worker(); }\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = runSeed(*C, 1);
  EXPECT_TRUE(R.Completed);
  EXPECT_GE(R.Stats.DynamicChecks, 2u); // one read + one write of counter
  EXPECT_GE(R.Stats.TotalAccesses, R.Stats.DynamicChecks);
  EXPECT_EQ(R.Stats.ThreadsSpawned, 2u); // main + worker
}

TEST(InterpDeterminismTest, SameSeedSameRun) {
  auto C = compile(SafeProgram);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult A = runSeed(*C, 42);
  InterpResult B = runSeed(*C, 42);
  EXPECT_EQ(A.Stats.Steps, B.Stats.Steps);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Violations.size(), B.Violations.size());
}

TEST(InterpFailStopTest, FailedThreadBlocksAtViolation) {
  auto C = compile("mutex m;\n"
                   "int locked(&m) cell;\n"
                   "void worker(void) {\n"
                   "  cell = 1;\n"     // violation: no lock
                   "  print_int(9);\n" // must not run under FailStop
                   "}\n"
                   "void main(void) { spawn worker(); }\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpOptions Options;
  Options.Seed = 1;
  Options.FailStop = true;
  InterpResult R = C->Interpreter->run(Options);
  EXPECT_GE(R.count(Violation::Kind::LockViolation), 1u);
  EXPECT_EQ(R.Output.find("9"), std::string::npos);
}

TEST(InterpDeterminismTest, TraceDoesNotDependOnHeapLayout) {
  // A frame's pointer locals die with it, and each clear is a traced
  // PtrStore. The trace must be a function of the program and the seed
  // alone, not of where the host allocator placed the AST: compile the
  // same source under several heap layouts and compare the traces.
  const char *Source = "void f(void) {\n"
                       "  int *a;\n"
                       "  int *b;\n"
                       "  int *c;\n"
                       "  int *d;\n"
                       "  a = new int;\n"
                       "  d = a;\n"
                       "  b = a;\n"
                       "  c = a;\n"
                       "}\n"
                       "void main(void) { f(); }\n";
  // Each layout frees N blocks the size of a declaration just before
  // parsing, in address order or reversed, so the parser's declarations
  // reuse them in a different order.
  struct Layout {
    size_t Blocks;
    bool Reverse;
  };
  const Layout Layouts[] = {{0, false}, {1, false}, {4, false},
                            {4, true},  {16, false}, {16, true}};
  std::vector<std::unique_ptr<Compiled>> Keep;
  std::vector<std::vector<TraceEvent>> Traces;
  for (const Layout &L : Layouts) {
    std::vector<void *> Holes;
    for (size_t I = 0; I != L.Blocks; ++I)
      Holes.push_back(::operator new(sizeof(VarDecl)));
    std::sort(Holes.begin(), Holes.end());
    if (L.Reverse)
      std::reverse(Holes.begin(), Holes.end());
    for (void *P : Holes)
      ::operator delete(P);
    Keep.push_back(compile(Source));
    ASSERT_TRUE(Keep.back()->Ok) << Keep.back()->Diags->render();
    InterpOptions Options;
    Options.Seed = 5;
    Traces.emplace_back();
    Options.Trace = &Traces.back();
    Keep.back()->Interpreter->run(Options);
  }
  size_t Clears = 0;
  for (const TraceEvent &Ev : Traces.front())
    Clears += Ev.K == TraceEvent::Kind::PtrStore && Ev.Value == 0;
  EXPECT_GE(Clears, 4u) << "frame death should clear a, b, c and d";
  for (size_t I = 1; I != Traces.size(); ++I)
    EXPECT_TRUE(Traces[I] == Traces.front())
        << "layout " << I << " produced a different trace";
}
