//===-- tests/minic_rwlock_test.cpp - rwlocked mode in MiniC --------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the rwlocked sharing mode in the MiniC pipeline
/// (the Section 7 "more support for locks" extension): parsing, lock-var
/// readonly enforcement, instrumentation kinds, and runtime semantics
/// (shared holds license reads, only exclusive holds license writes,
/// readers run concurrently, writers exclude). The interpreter's lock
/// builtins are pinned here too: exclusive acquires wait for shared
/// holders whichever builtin takes them, each misuse error, the deadlock
/// report, and lock profile records.
///
//===----------------------------------------------------------------------===//

#include "analysis/SharingAnalysis.h"
#include "checker/Checker.h"
#include "interp/Interp.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"
#include "obs/Sink.h"

#include <gtest/gtest.h>

using namespace sharc;
using namespace sharc::minic;
using namespace sharc::interp;
using sharc::checker::AccessCheck;

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

} // namespace

TEST(RwLockParseTest, QualifierParsesWithLockExpr) {
  auto C = compile("mutex m;\n"
                   "int rwlocked(&m) table;\n"
                   "void main(void) { }\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  VarDecl *Table = C->Prog->findGlobal("table");
  ASSERT_NE(Table, nullptr);
  EXPECT_EQ(Table->DeclType->Q.M, Mode::RwLocked);
  EXPECT_EQ(typeToString(Table->DeclType), "int rwlocked(&m)");
}

TEST(RwLockParseTest, FieldLockMustBeReadonly) {
  auto C = compile("struct t {\n"
                   "  mutex racy * racy mut;\n"
                   "  int rwlocked(mut) data;\n"
                   "};\n"
                   "void main(void) { }\n");
  EXPECT_FALSE(C->Ok);
  EXPECT_TRUE(C->Diags->containsMessage("must be readonly"));
}

TEST(RwLockCheckTest, ReadsGetSharedChecksWritesGetExclusive) {
  auto C = compile("mutex m;\n"
                   "int rwlocked(&m) table;\n"
                   "void worker(void) {\n"
                   "  int v;\n"
                   "  rwlock_rdlock(&m);\n"
                   "  v = table;\n"
                   "  rwlock_rdunlock(&m);\n"
                   "  rwlock_wrlock(&m);\n"
                   "  table = v + 1;\n"
                   "  rwlock_wrunlock(&m);\n"
                   "}\n"
                   "void main(void) { spawn worker(); }\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  const auto &Instr = C->Check->getInstrumentation();
  EXPECT_GE(Instr.countKind(AccessCheck::Kind::LockShared), 1u);
  EXPECT_GE(Instr.countKind(AccessCheck::Kind::Lock), 1u);
}

TEST(RwLockRunTest, DisciplinedReadersAndWriterRunClean) {
  auto C = compile("mutex m;\n"
                   "int rwlocked(&m) table;\n"
                   "int racy done;\n"
                   "void reader(void) {\n"
                   "  int v;\n"
                   "  int i;\n"
                   "  i = 0;\n"
                   "  while (i < 20) {\n"
                   "    rwlock_rdlock(&m);\n"
                   "    v = table;\n"
                   "    rwlock_rdunlock(&m);\n"
                   "    i = i + 1;\n"
                   "  }\n"
                   "  done = done + 1;\n"
                   "}\n"
                   "void main(void) {\n"
                   "  spawn reader();\n"
                   "  spawn reader();\n"
                   "  rwlock_wrlock(&m);\n"
                   "  table = 42;\n"
                   "  rwlock_wrunlock(&m);\n"
                   "  while (done < 2) { }\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    InterpOptions Options;
    Options.Seed = Seed;
    InterpResult R = C->Interpreter->run(Options);
    EXPECT_TRUE(R.Completed) << "seed " << Seed;
    EXPECT_TRUE(R.Violations.empty())
        << "seed " << Seed << ": " << R.Violations[0].format("test.mc");
  }
}

TEST(RwLockRunTest, WriteUnderSharedHoldIsViolation) {
  auto C = compile("mutex m;\n"
                   "int rwlocked(&m) table;\n"
                   "void main(void) {\n"
                   "  rwlock_rdlock(&m);\n"
                   "  table = 1;\n" // shared hold does not license writes
                   "  rwlock_rdunlock(&m);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = C->Interpreter->run(InterpOptions());
  EXPECT_GE(R.count(Violation::Kind::LockViolation), 1u);
}

TEST(RwLockRunTest, ReadUnderExclusiveHoldIsAllowed) {
  auto C = compile("mutex m;\n"
                   "int rwlocked(&m) table;\n"
                   "void main(void) {\n"
                   "  int v;\n"
                   "  rwlock_wrlock(&m);\n"
                   "  table = 3;\n"
                   "  v = table;\n"
                   "  rwlock_wrunlock(&m);\n"
                   "  print_int(v);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = C->Interpreter->run(InterpOptions());
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Output, "3\n");
  EXPECT_TRUE(R.Violations.empty());
}

TEST(RwLockRunTest, UnlockedReadIsViolation) {
  auto C = compile("mutex m;\n"
                   "int rwlocked(&m) table;\n"
                   "void main(void) {\n"
                   "  int v;\n"
                   "  v = table;\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  InterpResult R = C->Interpreter->run(InterpOptions());
  EXPECT_GE(R.count(Violation::Kind::LockViolation), 1u);
}

TEST(RwLockRunTest, WritersExcludeEachOther) {
  // Two writer threads incrementing under the exclusive hold: the final
  // value proves mutual exclusion (no lost updates under any schedule).
  auto C = compile("mutex m;\n"
                   "int rwlocked(&m) counter;\n"
                   "int racy done;\n"
                   "void writer(void) {\n"
                   "  int i;\n"
                   "  i = 0;\n"
                   "  while (i < 25) {\n"
                   "    rwlock_wrlock(&m);\n"
                   "    counter = counter + 1;\n"
                   "    rwlock_wrunlock(&m);\n"
                   "    i = i + 1;\n"
                   "  }\n"
                   "  done = done + 1;\n"
                   "}\n"
                   "void main(void) {\n"
                   "  spawn writer();\n"
                   "  spawn writer();\n"
                   "  while (done < 2) { }\n"
                   "  rwlock_rdlock(&m);\n"
                   "  print_int(counter);\n"
                   "  rwlock_rdunlock(&m);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    InterpOptions Options;
    Options.Seed = Seed;
    InterpResult R = C->Interpreter->run(Options);
    EXPECT_TRUE(R.Completed) << "seed " << Seed;
    EXPECT_EQ(R.Output, "50\n") << "seed " << Seed;
    EXPECT_TRUE(R.Violations.empty()) << "seed " << Seed;
  }
}

TEST(RwLockRunTest, MutexLockWaitsForSharedHolders) {
  // mutex_lock and rwlock_rdlock take the same lock: the writer's
  // exclusive acquire must wait until main's shared hold ends, so main
  // reads the same table value on both sides of its busy loop.
  auto C = compile("mutex m;\n"
                   "int rwlocked(&m) table;\n"
                   "void writer(void) {\n"
                   "  mutex_lock(&m);\n"
                   "  table = table + 1;\n"
                   "  mutex_unlock(&m);\n"
                   "}\n"
                   "void main(void) {\n"
                   "  int before; int after; int i;\n"
                   "  rwlock_rdlock(&m);\n"
                   "  spawn writer();\n"
                   "  before = table;\n"
                   "  i = 0;\n"
                   "  while (i < 50) { i = i + 1; }\n"
                   "  after = table;\n"
                   "  rwlock_rdunlock(&m);\n"
                   "  print_int(after - before);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    InterpOptions Options;
    Options.Seed = Seed;
    InterpResult R = C->Interpreter->run(Options);
    EXPECT_TRUE(R.Completed) << "seed " << Seed;
    EXPECT_EQ(R.Output, "0\n") << "seed " << Seed;
    EXPECT_TRUE(R.Violations.empty()) << "seed " << Seed;
  }
}

TEST(RwLockRunTest, CondWaitReacquireWaitsForSharedHolders) {
  // The waiter's wake-up reacquires m exclusively, so its write must
  // wait until main's shared hold ends.
  auto C = compile("mutex m;\n"
                   "cond cv;\n"
                   "int rwlocked(&m) table;\n"
                   "int racy waiting;\n"
                   "void waiter(void) {\n"
                   "  mutex_lock(&m);\n"
                   "  waiting = 1;\n"
                   "  cond_wait(&cv, &m);\n"
                   "  table = table + 1;\n"
                   "  mutex_unlock(&m);\n"
                   "}\n"
                   "void main(void) {\n"
                   "  int before; int after; int i;\n"
                   "  spawn waiter();\n"
                   "  while (waiting == 0) { }\n"
                   "  rwlock_rdlock(&m);\n"
                   "  cond_signal(&cv);\n"
                   "  before = table;\n"
                   "  i = 0;\n"
                   "  while (i < 50) { i = i + 1; }\n"
                   "  after = table;\n"
                   "  rwlock_rdunlock(&m);\n"
                   "  print_int(after - before);\n"
                   "}\n");
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    InterpOptions Options;
    Options.Seed = Seed;
    InterpResult R = C->Interpreter->run(Options);
    EXPECT_TRUE(R.Completed) << "seed " << Seed;
    EXPECT_EQ(R.Output, "0\n") << "seed " << Seed;
    EXPECT_TRUE(R.Violations.empty()) << "seed " << Seed;
  }
}

TEST(LockMisuseTest, EachMisuseFailsTheMisusingThread) {
  // The worker (tid 2) misuses lock m (cell 1); the error names it and
  // stops it before its print.
  struct Case {
    const char *MainPrefix;
    const char *WorkerBody;
    const char *Detail;
  };
  const Case Cases[] = {
      {"", "mutex_lock(&m);\n  mutex_lock(&m);",
       "recursive lock acquisition"},
      {"", "mutex_unlock(&m);", "unlock of a mutex not held by this thread"},
      {"mutex_lock(&m);\n  ", "mutex_unlock(&m);",
       "unlock of a mutex not held by this thread"},
      {"", "rwlock_rdlock(&m);\n  mutex_unlock(&m);",
       "unlock of a mutex not held by this thread"},
      {"", "cond_wait(&cv, &m);", "cond_wait without holding the mutex"},
      {"", "rwlock_rdlock(&m);\n  cond_wait(&cv, &m);",
       "cond_wait without holding the mutex"},
      {"", "rwlock_rdunlock(&m);", "rwlock_rdunlock without a shared hold"},
      {"", "rwlock_wrlock(&m);\n  rwlock_rdunlock(&m);",
       "rwlock_rdunlock without a shared hold"},
      {"", "rwlock_wrunlock(&m);",
       "rwlock_wrunlock without the exclusive hold"},
      {"", "rwlock_rdlock(&m);\n  rwlock_wrunlock(&m);",
       "rwlock_wrunlock without the exclusive hold"},
  };
  for (const Case &K : Cases) {
    std::string Source = std::string("mutex m;\n"
                                     "cond cv;\n"
                                     "void worker(void) {\n  ") +
                         K.WorkerBody +
                         "\n  print_int(1);\n"
                         "}\n"
                         "void main(void) {\n  " +
                         K.MainPrefix + "spawn worker();\n}\n";
    auto C = compile(Source);
    ASSERT_TRUE(C->Ok) << C->Diags->render();
    InterpResult R = C->Interpreter->run(InterpOptions());
    EXPECT_FALSE(R.Completed) << Source;
    EXPECT_FALSE(R.Deadlocked) << Source;
    EXPECT_EQ(R.Output, "") << Source;
    ASSERT_EQ(R.Violations.size(), 1u) << Source;
    const Violation &V = R.Violations[0];
    EXPECT_EQ(V.K, Violation::Kind::RuntimeError) << Source;
    EXPECT_EQ(V.Detail, K.Detail) << Source;
    EXPECT_EQ(V.WhoTid, 2u) << Source;
    EXPECT_EQ(V.Address, 1u) << Source;
  }
}

TEST(LockDeadlockTest, ReportNamesEachWaiterAndTheHolder) {
  // Globals take cells in order: m is 1, n is 2, cv is 3. A lock held
  // only in shared mode has no owner, and the report says tid 0.
  struct Case {
    const char *Worker;
    const char *Main;
    const char *Detail;
  };
  const Case Cases[] = {
      {"mutex_lock(&m);",
       "mutex_lock(&m);\n  spawn worker();\n"
       "  mutex_lock(&n);\n  cond_wait(&cv, &n);",
       "deadlock: all live threads are blocked; tid 1 waits on cond 3; "
       "tid 2 waits on lock 1 held by tid 1"},
      {"rwlock_wrlock(&m);",
       "rwlock_rdlock(&m);\n  spawn worker();\n"
       "  mutex_lock(&n);\n  cond_wait(&cv, &n);",
       "deadlock: all live threads are blocked; tid 1 waits on cond 3; "
       "tid 2 waits on lock 1 held by tid 0"},
      {"", "rwlock_wrlock(&m);\n  rwlock_wrlock(&m);",
       "deadlock: all live threads are blocked; "
       "tid 1 waits on lock 1 held by tid 1"},
  };
  for (const Case &K : Cases) {
    std::string Source = std::string("mutex m;\n"
                                     "mutex n;\n"
                                     "cond cv;\n"
                                     "void worker(void) {\n  ") +
                         K.Worker +
                         "\n}\n"
                         "void main(void) {\n  " +
                         K.Main + "\n}\n";
    auto C = compile(Source);
    ASSERT_TRUE(C->Ok) << C->Diags->render();
    for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
      InterpOptions Options;
      Options.Seed = Seed;
      InterpResult R = C->Interpreter->run(Options);
      EXPECT_TRUE(R.Deadlocked) << Source << "seed " << Seed;
      ASSERT_EQ(R.Violations.size(), 1u) << Source << "seed " << Seed;
      EXPECT_EQ(R.Violations[0].K, Violation::Kind::RuntimeError);
      EXPECT_EQ(R.Violations[0].Detail, K.Detail)
          << Source << "seed " << Seed;
    }
  }
}

TEST(LockOwnerTest, AThreadGivenAnExitedHoldersTidDoesNotOwnItsLock) {
  // a() exits holding m. On most seeds it has exited before main spawns
  // b(), which is then given a()'s tid 2; on the others b() gets tid 3.
  // Either way m still belongs to a(): b()'s mutex_lock blocks until the
  // run deadlocks, and b()'s mutex_unlock is a misuse.
  struct Case {
    const char *B;
    bool Deadlocks;
    const char *Details[2]; ///< When b() has tid 2, and when it has tid 3.
  };
  const Case Cases[] = {
      {"mutex_lock(&m); print_int(2); mutex_unlock(&m);",
       true,
       {"deadlock: all live threads are blocked; "
        "tid 2 waits on lock 1 held by tid 2 (exited)",
        "deadlock: all live threads are blocked; "
        "tid 3 waits on lock 1 held by tid 2 (exited)"}},
      {"mutex_unlock(&m); print_int(2);",
       false,
       {"unlock of a mutex not held by this thread",
        "unlock of a mutex not held by this thread"}},
  };
  for (const Case &K : Cases) {
    std::string Source =
        std::string("mutex m;\n"
                    "int racy done;\n"
                    "void a(void) { mutex_lock(&m); done = 1; }\n"
                    "void b(void) { ") +
        K.B +
        " }\n"
        "void main(void) { spawn a(); while (done == 0) { } spawn b(); }\n";
    auto C = compile(Source);
    ASSERT_TRUE(C->Ok) << C->Diags->render();
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      InterpOptions Options;
      Options.Seed = Seed;
      InterpResult R = C->Interpreter->run(Options);
      EXPECT_EQ(R.Deadlocked, K.Deadlocks) << Source << "seed " << Seed;
      EXPECT_EQ(R.Output, "") << Source << "seed " << Seed;
      ASSERT_EQ(R.Violations.size(), 1u) << Source << "seed " << Seed;
      const Violation &V = R.Violations[0];
      EXPECT_EQ(V.K, Violation::Kind::RuntimeError);
      EXPECT_TRUE(V.Detail == K.Details[0] || V.Detail == K.Details[1])
          << Source << "seed " << Seed << ": " << V.Detail;
    }
  }
}

TEST(LockProfileTest, ContendedRunRecordsArePinned) {
  // Mutex contention, a cond_wait whose wake-up reacquire counts under
  // the cond_wait's line, and rwlock holds in both modes. Wait and hold
  // times are scheduler steps.
  auto C = compile("mutex m;\n"                       // 1
                   "mutex q;\n"                       // 2
                   "cond cv;\n"                       // 3
                   "int locked(&m) counter;\n"        // 4
                   "int locked(&m) ready;\n"          // 5
                   "int rwlocked(&q) table;\n"        // 6
                   "void waiter(void) {\n"            // 7
                   "  mutex_lock(&m);\n"              // 8
                   "  while (ready == 0)\n"           // 9
                   "    cond_wait(&cv, &m);\n"        // 10
                   "  mutex_unlock(&m);\n"            // 11
                   "}\n"                              // 12
                   "void worker(void) {\n"            // 13
                   "  int v;\n"                       // 14
                   "  mutex_lock(&m);\n"              // 15
                   "  counter = counter + 1;\n"       // 16
                   "  mutex_unlock(&m);\n"            // 17
                   "  rwlock_rdlock(&q);\n"           // 18
                   "  v = table;\n"                   // 19
                   "  rwlock_rdunlock(&q);\n"         // 20
                   "}\n"                              // 21
                   "void main(void) {\n"              // 22
                   "  spawn waiter();\n"              // 23
                   "  spawn worker();\n"              // 24
                   "  spawn worker();\n"              // 25
                   "  rwlock_wrlock(&q);\n"           // 26
                   "  table = 7;\n"                   // 27
                   "  rwlock_wrunlock(&q);\n"         // 28
                   "  mutex_lock(&m);\n"              // 29
                   "  ready = 1;\n"                   // 30
                   "  cond_signal(&cv);\n"            // 31
                   "  mutex_unlock(&m);\n"            // 32
                   "}\n");                            // 33
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  obs::VectorSink Sink;
  InterpOptions Options;
  Options.Seed = 33;
  Options.Sink = &Sink;
  Options.Profile = true;
  Options.SourceName = "test.mc";
  InterpResult R = C->Interpreter->run(Options);
  ASSERT_TRUE(R.Completed);
  std::vector<std::string> Got;
  for (const obs::LockProfileRecord &L : Sink.Locks) {
    EXPECT_EQ(L.File, "test.mc");
    Got.push_back("tid " + std::to_string(L.Tid) + " lock " +
                  std::to_string(L.Lock) + " line " + std::to_string(L.Line) +
                  ": acquires " + std::to_string(L.Acquires) + " contended " +
                  std::to_string(L.Contended) + " wait " +
                  std::to_string(L.WaitCycles) + " hold " +
                  std::to_string(L.HoldCycles));
  }
  const std::vector<std::string> Want = {
      "tid 1 lock 1 line 29: acquires 1 contended 1 wait 9 hold 9",
      "tid 1 lock 2 line 26: acquires 1 contended 0 wait 0 hold 16",
      "tid 2 lock 1 line 8: acquires 1 contended 0 wait 0 hold 18",
      "tid 2 lock 1 line 10: acquires 1 contended 1 wait 3 hold 7",
      "tid 3 lock 1 line 15: acquires 1 contended 1 wait 8 hold 6",
      "tid 3 lock 2 line 18: acquires 1 contended 1 wait 6 hold 9",
      "tid 4 lock 1 line 15: acquires 1 contended 0 wait 0 hold 11",
      "tid 4 lock 2 line 18: acquires 1 contended 0 wait 0 hold 18",
  };
  EXPECT_EQ(Got, Want);
}
