//===-- tests/explore_test.cpp - Schedule exploration tests ---------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Litmus tests for sharc-explore (DESIGN.md §14): exact verdict sets
/// across ALL interleavings of small programs, exact schedule counts
/// with and without DPOR, and the witness round-trip (a violating
/// schedule serialized, parsed back, and replayed bit-exactly —
/// with truncated and corrupt witnesses rejected, never guessed at).
///
//===----------------------------------------------------------------------===//

#include "analysis/SharingAnalysis.h"
#include "checker/Checker.h"
#include "fuzz/ProgramGen.h"
#include "interp/Explore.h"
#include "interp/Interp.h"
#include "interp/Schedule.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace sharc;
using namespace sharc::minic;
using namespace sharc::interp;

namespace {

struct Compiled {
  SourceManager SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<Program> Prog;
  std::unique_ptr<checker::Checker> Check;
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
  R->Ok = true;
  return R;
}

ExploreResult exploreSrc(Compiled &C, const ExploreOptions &Opts) {
  return explore(*C.Prog, C.Check->getInstrumentation(), Opts);
}

ExploreOptions fullEnum() {
  ExploreOptions O;
  O.UseDpor = false;
  return O;
}

constexpr uint32_t maskOf(Violation::Kind K) {
  return 1u << static_cast<unsigned>(K);
}

std::string verdictList(const ExploreResult &R) {
  std::string Out;
  for (const ExploreVerdict &V : R.Verdicts) {
    if (!Out.empty())
      Out += ", ";
    Out += V.describe();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Litmus programs
//===----------------------------------------------------------------------===//

// Two unguarded writes to the same inferred-dynamic global. The
// verdict depends on whether the two threads' access windows overlap:
// if the worker runs to completion before main's write (or vice
// versa), its exit erases its access bits and the write pair is
// paper-legal; interleaved windows are a write conflict.
const char *RacingWrites = "int g;\n"
                           "void w(void) {\n"
                           "  g = 1;\n"
                           "}\n"
                           "void main(void) {\n"
                           "  spawn w();\n"
                           "  g = 2;\n"
                           "}\n";

// The same counter, lock-protected: checker-proven race-free, so every
// interleaving must be clean.
const char *LockedCounter = "mutex m;\n"
                            "int locked(&m) c;\n"
                            "void w(void) {\n"
                            "  mutex_lock(&m);\n"
                            "  c = c + 1;\n"
                            "  mutex_unlock(&m);\n"
                            "}\n"
                            "void main(void) {\n"
                            "  spawn w();\n"
                            "  mutex_lock(&m);\n"
                            "  c = c + 1;\n"
                            "  mutex_unlock(&m);\n"
                            "}\n";

// Readonly after cast-drain: the alias is nulled before the cast, so
// the SCAST sees a sole reference in every interleaving; the now
// readonly buffer is published through a locked pointer cell and three
// threads read it concurrently without a single conflict.
const char *ReadonlyAfterDrain = "mutex m;\n"
                                 "int readonly * locked(&m) rp;\n"
                                 "void reader(void) {\n"
                                 "  int readonly * p;\n"
                                 "  mutex_lock(&m);\n"
                                 "  p = rp;\n"
                                 "  mutex_unlock(&m);\n"
                                 "  print_int(*p);\n"
                                 "}\n"
                                 "void main(void) {\n"
                                 "  int dynamic * dp;\n"
                                 "  int dynamic * alias;\n"
                                 "  int readonly * p;\n"
                                 "  dp = new int;\n"
                                 "  *dp = 7;\n"
                                 "  alias = dp;\n"
                                 "  alias = null;\n"
                                 "  mutex_lock(&m);\n"
                                 "  rp = SCAST(int readonly *, dp);\n"
                                 "  mutex_unlock(&m);\n"
                                 "  spawn reader();\n"
                                 "  spawn reader();\n"
                                 "  mutex_lock(&m);\n"
                                 "  p = rp;\n"
                                 "  mutex_unlock(&m);\n"
                                 "  print_int(*p);\n"
                                 "}\n";

// Message-pass handoff under a mutex + condition variable: the
// predicate loop makes the handoff clean in every interleaving
// (a signal sent before the consumer waits is not lost — the consumer
// rechecks `ready` under the lock).
const char *MessagePass = "mutex m;\n"
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
                          "}\n";

// Two waiters on one condition: when both are parked, each signal has
// a genuine CondSignalPick choice, and both wake orders must be clean.
const char *TwoWaiters = "mutex m;\n"
                         "cond cv;\n"
                         "int locked(&m) ready;\n"
                         "void consumer(void) {\n"
                         "  mutex_lock(&m);\n"
                         "  while (ready == 0)\n"
                         "    cond_wait(&cv, &m);\n"
                         "  ready = ready - 1;\n"
                         "  mutex_unlock(&m);\n"
                         "}\n"
                         "void main(void) {\n"
                         "  spawn consumer();\n"
                         "  spawn consumer();\n"
                         "  mutex_lock(&m);\n"
                         "  ready = 2;\n"
                         "  cond_signal(&cv);\n"
                         "  cond_signal(&cv);\n"
                         "  mutex_unlock(&m);\n"
                         "}\n";

// Independent threads: empty workers share nothing with main, so all
// interleavings are Mazurkiewicz-equivalent and DPOR needs one run.
const char *OneIndependentWorker = "void w(void) { }\n"
                                   "void main(void) {\n"
                                   "  spawn w();\n"
                                   "}\n";

const char *TwoIndependentWorkers = "void w(void) { }\n"
                                    "void main(void) {\n"
                                    "  spawn w();\n"
                                    "  spawn w();\n"
                                    "}\n";

// Main reads g and then writes it. Where the worker reads g before main
// does and exits after main's write, the write's most recent conflicting
// step by another thread is the worker's read, which lies behind main's
// own later read of g; read/read is no conflict, so only the write can
// seed the backtrack point there.
const char *ConflictBehindOwnAccess = "int g;\n"
                                      "void w(void) {\n"
                                      "  int x;\n"
                                      "  x = g;\n"
                                      "}\n"
                                      "void main(void) {\n"
                                      "  int y;\n"
                                      "  spawn w();\n"
                                      "  y = g;\n"
                                      "  g = 1;\n"
                                      "}\n";

// The worker writes a cell main never touches; main's sharing cast
// scans the heap for other references, which depends on every write.
// That is the only dependence between the two threads.
const char *ScanAgainstUnrelatedWrite = "int h;\n"
                                        "void w(void) {\n"
                                        "  h = 1;\n"
                                        "}\n"
                                        "void main(void) {\n"
                                        "  int dynamic * p;\n"
                                        "  int readonly * r;\n"
                                        "  p = new int;\n"
                                        "  spawn w();\n"
                                        "  r = SCAST(int readonly *, p);\n"
                                        "}\n";

//===----------------------------------------------------------------------===//
// Verdict sets across ALL interleavings
//===----------------------------------------------------------------------===//

TEST(ExploreLitmusTest, RacingWritesFindBothVerdicts) {
  auto C = compile(RacingWrites);
  ASSERT_TRUE(C->Ok) << C->Diags->render();

  ExploreResult Full = exploreSrc(*C, fullEnum());
  ExploreResult Dpor = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(Full.complete());
  ASSERT_TRUE(Dpor.complete());

  // The reduced search must observe exactly the full verdict set.
  EXPECT_EQ(Full.Verdicts.size(), 2u) << verdictList(Full);
  ASSERT_EQ(Dpor.Verdicts.size(), Full.Verdicts.size())
      << "dpor: " << verdictList(Dpor) << " full: " << verdictList(Full);
  for (const ExploreVerdict &V : Full.Verdicts)
    EXPECT_TRUE(Dpor.verdictSeen(V)) << V.describe();

  ExploreVerdict Clean;
  Clean.Completed = true;
  ExploreVerdict Conflict;
  Conflict.KindsMask = maskOf(Violation::Kind::WriteConflict);
  Conflict.Completed = true;
  EXPECT_TRUE(Full.verdictSeen(Clean));
  EXPECT_TRUE(Full.verdictSeen(Conflict));

  // The violating class carries a non-empty replayable witness.
  ASSERT_TRUE(Dpor.anyViolation());
  EXPECT_FALSE(Dpor.Witnesses.front().second.Choices.empty());
  EXPECT_FALSE(Dpor.FirstViolation.Violations.empty());

  // Reduction may only shrink the search.
  EXPECT_LT(Dpor.Stats.Runs, Full.Stats.Runs);
}

TEST(ExploreLitmusTest, LockedCounterCleanInAllInterleavings) {
  auto C = compile(LockedCounter);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  for (const ExploreOptions &O : {fullEnum(), ExploreOptions()}) {
    ExploreResult R = exploreSrc(*C, O);
    ASSERT_TRUE(R.complete());
    ASSERT_EQ(R.Verdicts.size(), 1u) << verdictList(R);
    EXPECT_TRUE(R.Verdicts.front().clean());
    EXPECT_TRUE(R.Verdicts.front().Completed);
    EXPECT_FALSE(R.anyViolation());
  }
}

TEST(ExploreLitmusTest, ReadonlyAfterCastDrainClean) {
  auto C = compile(ReadonlyAfterDrain);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreResult R = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(R.complete());
  ASSERT_EQ(R.Verdicts.size(), 1u) << verdictList(R);
  EXPECT_TRUE(R.Verdicts.front().clean());
  EXPECT_TRUE(R.Verdicts.front().Completed);
}

TEST(ExploreLitmusTest, MessagePassHandoffClean) {
  auto C = compile(MessagePass);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreResult R = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(R.complete());
  ASSERT_EQ(R.Verdicts.size(), 1u) << verdictList(R);
  EXPECT_TRUE(R.Verdicts.front().clean());
  EXPECT_TRUE(R.Verdicts.front().Completed);
}

TEST(ExploreLitmusTest, TwoWaitersEveryWakeOrderClean) {
  auto C = compile(TwoWaiters);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreResult R = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(R.complete());
  ASSERT_EQ(R.Verdicts.size(), 1u) << verdictList(R);
  EXPECT_TRUE(R.Verdicts.front().clean());
  EXPECT_TRUE(R.Verdicts.front().Completed);
}

//===----------------------------------------------------------------------===//
// Exact schedule counts
//===----------------------------------------------------------------------===//

TEST(ExploreCountTest, OneIndependentWorkerExactCounts) {
  auto C = compile(OneIndependentWorker);
  ASSERT_TRUE(C->Ok) << C->Diags->render();

  ExploreResult Full = exploreSrc(*C, fullEnum());
  ASSERT_TRUE(Full.complete());
  // Main takes 5 steps with the spawn as its 3rd, the empty worker 3;
  // the interleavings are the ways to merge the worker's 3 steps into
  // main's remaining 2: C(5,2) = 10 (total depth 8, as the DPOR run's
  // MaxDepth confirms below).
  EXPECT_EQ(Full.Stats.Runs, 10u);
  EXPECT_EQ(Full.Stats.MaxDepth, 8u);

  ExploreResult Dpor = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(Dpor.complete());
  EXPECT_EQ(Dpor.Stats.Runs, 1u);
  EXPECT_EQ(Dpor.Verdicts.size(), 1u);
  EXPECT_TRUE(Dpor.Verdicts.front().clean());
}

TEST(ExploreCountTest, TwoIndependentWorkersDporPrunesHalf) {
  auto C = compile(TwoIndependentWorkers);
  ASSERT_TRUE(C->Ok) << C->Diags->render();

  ExploreResult Full = exploreSrc(*C, fullEnum());
  ASSERT_TRUE(Full.complete());
  // Main takes 7 steps with the spawns as its 3rd and 5th, each worker
  // 3. Ignoring the fixed prefix, that is the 10!/(4!3!3!) = 4200
  // merges of {4 main, 3+3 worker} steps, of which the fraction with
  // both of main's first two remaining steps before the second
  // worker's first step — (4/7)*(3/6) = 2/7 — respects the second
  // spawn: 4200 * 2/7 = 1200.
  EXPECT_EQ(Full.Stats.Runs, 1200u);

  ExploreResult Dpor = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(Dpor.complete());
  EXPECT_EQ(Dpor.Stats.Runs, 1u);

  // Both searches agree on the (single, clean) verdict class.
  ASSERT_EQ(Full.Verdicts.size(), 1u) << verdictList(Full);
  ASSERT_EQ(Dpor.Verdicts.size(), 1u) << verdictList(Dpor);
  EXPECT_TRUE(Full.Verdicts.front() == Dpor.Verdicts.front());

  // The issue's acceptance bar: DPOR prunes at least half of the naive
  // interleavings on the independent-threads litmus.
  EXPECT_GE(Full.Stats.Runs, 2 * Dpor.Stats.Runs);
}

TEST(ExploreCountTest, RacingWritesExactDporCount) {
  auto C = compile(RacingWrites);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreResult Dpor = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(Dpor.complete());
  // Pinned: a regression in the backtrack-set or sleep-set logic moves
  // this number before it breaks a verdict.
  EXPECT_EQ(Dpor.Stats.Runs, 6u);
}

TEST(ExploreCountTest, ConflictBehindOwnLaterAccessExactDporCount) {
  auto C = compile(ConflictBehindOwnAccess);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreResult Dpor = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(Dpor.complete());
  EXPECT_EQ(Dpor.Stats.Runs, 7u);
}

TEST(ExploreCountTest, ScanAgainstUnrelatedWriteExactDporCount) {
  auto C = compile(ScanAgainstUnrelatedWrite);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreResult Dpor = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(Dpor.complete());
  EXPECT_EQ(Dpor.Stats.Runs, 3u);
  ASSERT_EQ(Dpor.Verdicts.size(), 1u) << verdictList(Dpor);
  EXPECT_TRUE(Dpor.Verdicts.front().clean());
}

// 200 small generated programs under perfbench's `explore` budgets. The
// sums, the deepest schedule and the digest of every program's verdict
// classes pin the whole exploration, so any change to which schedules
// DPOR runs shows here even where no single litmus count moves.
TEST(ExploreCountTest, GeneratedCorpusCountsArePinned) {
  ExploreOptions O;
  O.MaxRuns = 64;
  O.MaxStepsPerRun = 512;
  O.MaxTotalSteps = 4096;
  ExploreStats Sum;
  uint64_t Explored = 0, Digest = 14695981039346656037ull; // FNV-1a
  auto Mix = [&](const std::string &S) {
    for (unsigned char Ch : S + ';')
      Digest = (Digest ^ Ch) * 1099511628211ull;
  };
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    auto C = compile(fuzz::generateProgram(Seed, fuzz::GenSize::Small));
    Mix(std::to_string(Seed));
    if (!C->Ok)
      continue;
    ExploreResult R = exploreSrc(*C, O);
    ++Explored;
    Sum.Runs += R.Stats.Runs;
    Sum.SleepBlocked += R.Stats.SleepBlocked;
    Sum.BoundedRuns += R.Stats.BoundedRuns;
    Sum.BranchesPruned += R.Stats.BranchesPruned;
    Sum.StepsTotal += R.Stats.StepsTotal;
    Sum.MaxDepth = std::max(Sum.MaxDepth, R.Stats.MaxDepth);
    Mix(verdictList(R) + (R.complete() ? "+complete" : ""));
  }
  EXPECT_EQ(Explored, 200u);
  EXPECT_EQ(Sum.Runs, 2170u);
  EXPECT_EQ(Sum.SleepBlocked, 192u);
  EXPECT_EQ(Sum.BoundedRuns, 0u);
  EXPECT_EQ(Sum.BranchesPruned, 38053u);
  EXPECT_EQ(Sum.StepsTotal, 259360u);
  EXPECT_EQ(Sum.MaxDepth, 512u);
  EXPECT_EQ(Digest, 8521226450469734832ull);
}

// Every shipped example and explore fixture, at 20 schedules under the
// default per-schedule step cap. They cover what the generated corpus
// does not: 65,536-step schedules, cond-var wake picks, rwlocks and
// casts. A new program under either directory needs a row here.
TEST(ExploreCountTest, ShippedProgramsCountsArePinned) {
  struct Pin {
    const char *Name;
    uint64_t Runs, SleepBlocked, BranchesPruned, StepsTotal, MaxDepth;
    const char *Verdicts;
  };
  const Pin Pins[] = {
      {"bank_transfer.mc", 1, 0, 130956, 65536, 65536, "+out-of-steps"},
      {"explore_indep.mc", 1, 0, 9, 13, 13, "clean"},
      {"explore_locked.mc", 4, 1, 30, 91, 21, "clean"},
      {"explore_race.mc", 6, 0, 10, 72, 12, "clean, write-conflict"},
      {"locked_counter.mc", 1, 0, 131064, 65536, 65536, "+out-of-steps"},
      {"pfscan_mini.mc", 15, 5, 1809062, 1009275, 65541, "+out-of-steps"},
      {"pipeline_annotated.mc", 19, 1, 174, 4417, 226, "clean"},
      {"pipeline_unannotated.mc", 19, 1, 65, 949, 52,
       "clean, read-conflict, read-conflict+write-conflict"},
      {"prof_tuning.mc", 17, 3, 17106, 62469, 3131, "clean"},
      {"prof_tuning_tuned.mc", 17, 3, 17106, 62469, 3131, "clean"},
      {"race_demo.mc", 1, 0, 65531, 65536, 65536, "+out-of-steps"},
      {"readers_writers.mc", 1, 0, 196593, 65536, 65536, "+out-of-steps"},
  };
  std::vector<std::filesystem::path> Files;
  auto Collect = [&Files](const char *Dir, const std::string &Prefix) {
    for (const auto &E : std::filesystem::directory_iterator(Dir))
      if (E.path().extension() == ".mc" &&
          E.path().filename().string().rfind(Prefix, 0) == 0)
        Files.push_back(E.path());
  };
  Collect(SHARC_EXAMPLES_DIR, "");
  Collect(SHARC_FIXTURES_DIR, "explore_");
  std::sort(Files.begin(), Files.end(), [](const auto &A, const auto &B) {
    return A.filename() < B.filename();
  });
  ASSERT_EQ(Files.size(), std::size(Pins));

  ExploreOptions O;
  O.MaxRuns = 20;
  for (size_t I = 0; I != Files.size(); ++I) {
    const Pin &P = Pins[I];
    ASSERT_EQ(Files[I].filename().string(), P.Name);
    std::ifstream In(Files[I]);
    std::stringstream Source;
    Source << In.rdbuf();
    auto C = compile(Source.str());
    ASSERT_TRUE(C->Ok) << P.Name << ": " << C->Diags->render();
    ExploreResult R = exploreSrc(*C, O);
    EXPECT_FALSE(R.Stats.InternalError) << P.Name;
    EXPECT_EQ(R.Stats.Runs, P.Runs) << P.Name;
    EXPECT_EQ(R.Stats.SleepBlocked, P.SleepBlocked) << P.Name;
    EXPECT_EQ(R.Stats.BranchesPruned, P.BranchesPruned) << P.Name;
    EXPECT_EQ(R.Stats.StepsTotal, P.StepsTotal) << P.Name;
    EXPECT_EQ(R.Stats.MaxDepth, P.MaxDepth) << P.Name;
    EXPECT_EQ(verdictList(R), P.Verdicts) << P.Name;
  }
}

// main and 61 workers, as many live threads as a run allows: the
// workers spin on a flag main sets last, so the choice points from the
// last spawn until main exits offer 62 threads, the widest offer a
// Node's Done and Backtrack masks hold.
TEST(ExploreCountTest, SixtyTwoLiveThreadsCountsArePinned) {
  std::string Source = "int racy go;\n"
                       "void w(void) {\n"
                       "  while (go == 0) { }\n"
                       "}\n"
                       "void main(void) {\n";
  for (int I = 0; I != 61; ++I)
    Source += "  spawn w();\n";
  Source += "  go = 1;\n"
            "}\n";
  auto C = compile(Source);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreOptions O;
  O.MaxRuns = 8;
  ExploreResult R = exploreSrc(*C, O);
  EXPECT_FALSE(R.Stats.InternalError);
  EXPECT_EQ(R.Stats.Runs, 8u);
  EXPECT_EQ(R.Stats.SleepBlocked, 0u);
  EXPECT_EQ(R.Stats.BranchesPruned, 88396u);
  EXPECT_EQ(R.Stats.StepsTotal, 4028u);
  EXPECT_EQ(R.Stats.MaxDepth, 514u);
  EXPECT_EQ(verdictList(R), "clean");
}

//===----------------------------------------------------------------------===//
// Budgets and bounds degrade loudly
//===----------------------------------------------------------------------===//

TEST(ExploreBudgetTest, RunBudgetExhaustionIsFlagged) {
  auto C = compile(RacingWrites);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreOptions O = fullEnum();
  O.MaxRuns = 3;
  ExploreResult R = exploreSrc(*C, O);
  EXPECT_TRUE(R.Stats.BudgetExhausted);
  EXPECT_FALSE(R.complete());
}

TEST(ExploreBudgetTest, StepTruncationForfeitsCompleteness) {
  auto C = compile(LockedCounter);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreOptions O;
  O.MaxStepsPerRun = 4; // every schedule is cut mid-flight
  ExploreResult R = exploreSrc(*C, O);
  EXPECT_TRUE(R.Stats.BudgetExhausted);
  EXPECT_FALSE(R.complete());
  // Truncation must not masquerade as a violation either.
  EXPECT_FALSE(R.anyViolation());
}

TEST(ExploreBudgetTest, PreemptionBoundIsLoudAndSound) {
  auto C = compile(RacingWrites);
  ASSERT_TRUE(C->Ok) << C->Diags->render();

  ExploreOptions Bounded;
  Bounded.PreemptionBound = 0;
  ExploreResult R = exploreSrc(*C, Bounded);
  // The bound cut branches, and says so.
  EXPECT_TRUE(R.Stats.BoundHit);
  EXPECT_FALSE(R.complete());
  EXPECT_GT(R.Stats.PreemptPruned, 0u);

  // A generous bound changes nothing.
  ExploreOptions Loose;
  Loose.PreemptionBound = 64;
  ExploreResult L = exploreSrc(*C, Loose);
  EXPECT_TRUE(L.complete());
  EXPECT_EQ(L.Verdicts.size(), 2u) << verdictList(L);
}

//===----------------------------------------------------------------------===//
// Witness round-trip
//===----------------------------------------------------------------------===//

TEST(ExploreWitnessTest, SerializeParseRoundTrip) {
  auto C = compile(RacingWrites);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreResult R = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(R.anyViolation());
  const Witness &W = R.Witnesses.front().second;

  std::string Text = W.serialize();
  Witness Parsed;
  std::string Error;
  ASSERT_TRUE(Parsed.parse(Text, Error)) << Error;
  ASSERT_EQ(Parsed.Choices.size(), W.Choices.size());
  for (size_t I = 0; I != W.Choices.size(); ++I) {
    EXPECT_EQ(Parsed.Choices[I].Kind, W.Choices[I].Kind);
    EXPECT_EQ(Parsed.Choices[I].Tid, W.Choices[I].Tid);
    EXPECT_EQ(Parsed.Choices[I].NumOptions, W.Choices[I].NumOptions);
  }
  // Serialization is a fixpoint.
  EXPECT_EQ(Parsed.serialize(), Text);
}

TEST(ExploreWitnessTest, ReplayReproducesTheViolatingClass) {
  auto C = compile(RacingWrites);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreResult R = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(R.anyViolation());
  const ExploreVerdict &Class = R.Witnesses.front().first;
  const Witness &W = R.Witnesses.front().second;

  // Parse the serialized text (the exact artifact --witness-out
  // writes), replay it, and demand the identical verdict class.
  Witness Parsed;
  std::string Error;
  ASSERT_TRUE(Parsed.parse(W.serialize(), Error)) << Error;
  ReplaySchedule RS(Parsed);
  Interp I(*C->Prog, C->Check->getInstrumentation());
  InterpOptions IO;
  IO.Sched = &RS;
  InterpResult Run = I.run(IO);

  EXPECT_FALSE(RS.diverged()) << RS.divergence();
  EXPECT_TRUE(RS.complete());
  EXPECT_FALSE(Run.ScheduleAborted);
  EXPECT_TRUE(classifyResult(Run) == Class)
      << classifyResult(Run).describe() << " vs " << Class.describe();
}

TEST(ExploreWitnessTest, TruncatedWitnessRejected) {
  auto C = compile(RacingWrites);
  ASSERT_TRUE(C->Ok) << C->Diags->render();
  ExploreResult R = exploreSrc(*C, ExploreOptions());
  ASSERT_TRUE(R.anyViolation());
  std::string Text = R.Witnesses.front().second.serialize();

  // Dropping the trailing "end" line (a torn write) must fail parse.
  std::string NoEnd = Text.substr(0, Text.rfind("end"));
  Witness W1;
  std::string Error;
  EXPECT_FALSE(W1.parse(NoEnd, Error));
  EXPECT_FALSE(Error.empty());

  // Cutting the choice list short must fail parse.
  size_t Half = Text.size() / 2;
  Witness W2;
  EXPECT_FALSE(W2.parse(Text.substr(0, Half), Error));
}

TEST(ExploreWitnessTest, CorruptWitnessRejected) {
  Witness W;
  std::string Error;
  EXPECT_FALSE(W.parse("", Error));
  EXPECT_FALSE(W.parse("not-a-witness\n", Error));
  EXPECT_FALSE(W.parse("sharc-witness-v1\nchoices zero\nend\n", Error));
  EXPECT_FALSE(
      W.parse("sharc-witness-v1\nchoices 1\nx 1 2\nend\n", Error));
  EXPECT_FALSE(W.parse("sharc-witness-v1\nchoices 2\nt 1 1\nend\n", Error));
}

TEST(ExploreWitnessTest, ReplayAgainstWrongProgramDiverges) {
  auto Racy = compile(RacingWrites);
  auto Locked = compile(LockedCounter);
  ASSERT_TRUE(Racy->Ok);
  ASSERT_TRUE(Locked->Ok);
  ExploreResult R = exploreSrc(*Racy, ExploreOptions());
  ASSERT_TRUE(R.anyViolation());

  ReplaySchedule RS(R.Witnesses.front().second);
  Interp I(*Locked->Prog, Locked->Check->getInstrumentation());
  InterpOptions IO;
  IO.Sched = &RS;
  InterpResult Run = I.run(IO);
  EXPECT_TRUE(RS.diverged() || Run.ScheduleAborted);
}

} // namespace
