//===-- tests/fuzz_test.cpp - sharc-fuzz subsystem unit tests -------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the differential fuzzing subsystem: the generator's
/// determinism and static-validity contract, the oracle pipeline on
/// handwritten and generated programs, digest stability, and the
/// minimizer's shrinking behaviour.
///
//===----------------------------------------------------------------------===//

#include "analysis/SharingAnalysis.h"
#include "fuzz/Minimizer.h"
#include "fuzz/Oracle.h"
#include "fuzz/ProgramGen.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"

#include <gtest/gtest.h>

using namespace sharc;
using namespace sharc::fuzz;

namespace {

/// Parse + type + infer; returns a diagnostic rendering on failure.
std::string frontEndErrors(const std::string &Source) {
  SourceManager SM;
  FileId File = SM.addBuffer("t.mc", Source);
  DiagnosticEngine Diags(SM);
  minic::Parser P(SM, File, Diags);
  auto Prog = P.parseProgram();
  if (Diags.hasErrors())
    return Diags.render();
  minic::ExprTyper Typer(*Prog, Diags);
  if (!Typer.run())
    return Diags.render();
  analysis::SharingAnalysis SA(*Prog, Diags);
  if (!SA.run())
    return Diags.render();
  return "";
}

const char *LockedCounter = "mutex m;\n"
                            "int locked(&m) counter;\n"
                            "int racy done;\n"
                            "void worker(void) {\n"
                            "  mutex_lock(&m);\n"
                            "  counter = counter + 1;\n"
                            "  mutex_unlock(&m);\n"
                            "  done = done + 1;\n"
                            "}\n"
                            "void main(void) {\n"
                            "  spawn worker();\n"
                            "  spawn worker();\n"
                            "  while (done < 2) { }\n"
                            "  mutex_lock(&m);\n"
                            "  print_int(counter);\n"
                            "  mutex_unlock(&m);\n"
                            "}\n";

TEST(ProgramGenTest, DeterministicPerSeed) {
  EXPECT_EQ(generateProgram(123), generateProgram(123));
  EXPECT_EQ(generateProgram(1), generateProgram(1));
}

TEST(ProgramGenTest, SeedsDiverge) {
  // Not every pair differs in principle, but these must: a generator
  // ignoring its seed would defeat the whole campaign.
  EXPECT_NE(generateProgram(1), generateProgram(2));
  EXPECT_NE(generateProgram(100), generateProgram(101));
}

TEST(ProgramGenTest, GeneratedProgramsAreStaticallyValid) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    std::string Source = generateProgram(Seed * 0x9E3779B97F4A7C15ull + Seed);
    std::string Errors = frontEndErrors(Source);
    EXPECT_EQ(Errors, "") << "seed " << Seed << ":\n" << Source;
  }
}

TEST(ProgramGenTest, ExercisesTheLanguage) {
  // Across a modest seed range the generator must hit every major
  // feature the oracles exist to cross-check.
  std::string All;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    All += generateProgram(Seed);
  EXPECT_NE(All.find("spawn "), std::string::npos);
  EXPECT_NE(All.find("mutex_lock"), std::string::npos);
  EXPECT_NE(All.find("rwlock_rdlock"), std::string::npos);
  EXPECT_NE(All.find("cond_wait"), std::string::npos);
  EXPECT_NE(All.find("SCAST"), std::string::npos);
  EXPECT_NE(All.find("racy"), std::string::npos);
  EXPECT_NE(All.find("locked("), std::string::npos);
  EXPECT_NE(All.find("rwlocked("), std::string::npos);
  EXPECT_NE(All.find("readonly"), std::string::npos);
  EXPECT_NE(All.find("dynamic"), std::string::npos);
  EXPECT_NE(All.find("struct "), std::string::npos);
}

TEST(OracleTest, CleanOnHandwrittenProgram) {
  OracleConfig Cfg;
  Cfg.Schedules = 3;
  OracleOutcome Out = runOracles(LockedCounter, Cfg);
  EXPECT_FALSE(Out.failed()) << failureKindName(Out.Failure) << ": "
                             << Out.Detail;
  EXPECT_FALSE(Out.AnalysisRejected);
  EXPECT_FALSE(Out.CheckerRejected);
  EXPECT_EQ(Out.SchedulesRun, 3u);
  EXPECT_EQ(Out.TraceSkips, 0u);
}

TEST(OracleTest, CleanOnGeneratedPrograms) {
  OracleConfig Cfg;
  Cfg.Schedules = 2;
  for (uint64_t Seed : {7ull, 99ull, 1234ull}) {
    OracleOutcome Out = runOracles(generateProgram(Seed), Cfg);
    EXPECT_FALSE(Out.failed())
        << "seed " << Seed << " " << failureKindName(Out.Failure) << ": "
        << Out.Detail;
  }
}

TEST(OracleTest, DigestIsDeterministic) {
  OracleConfig Cfg;
  Cfg.Schedules = 2;
  OracleOutcome A = runOracles(LockedCounter, Cfg);
  OracleOutcome B = runOracles(LockedCounter, Cfg);
  EXPECT_EQ(A.Digest, B.Digest);
  EXPECT_NE(A.Digest, 0u);
  // A different schedule sweep must (in practice) digest differently.
  Cfg.Seed = 55;
  OracleOutcome C = runOracles(LockedCounter, Cfg);
  EXPECT_NE(A.Digest, C.Digest);
}

TEST(OracleTest, TidsPastTheDetectorSlotsAreATraceSkip) {
  // Seventy workers, one at a time: trace tids are never reused, so the
  // trace names more threads than the race detectors have slots.
  const char *ManyThreads = "int racy done;\n"
                            "void worker(void) { done = done + 1; }\n"
                            "void main(void) {\n"
                            "  int i;\n"
                            "  i = 0;\n"
                            "  while (i < 70) {\n"
                            "    spawn worker();\n"
                            "    i = i + 1;\n"
                            "    while (done < i) { }\n"
                            "  }\n"
                            "}\n";
  OracleConfig Cfg;
  Cfg.Schedules = 1;
  OracleOutcome Out = runOracles(ManyThreads, Cfg);
  EXPECT_FALSE(Out.failed()) << failureKindName(Out.Failure) << ": "
                             << Out.Detail;
  EXPECT_EQ(Out.SchedulesRun, 1u);
  EXPECT_EQ(Out.TraceSkips, 1u);
}

TEST(OracleTest, ParseErrorIsAFailure) {
  OracleConfig Cfg;
  OracleOutcome Out = runOracles("void main(void) { x = 1; }", Cfg);
  EXPECT_TRUE(Out.failed());
  EXPECT_TRUE(Out.Failure == FailureKind::ParseError ||
              Out.Failure == FailureKind::TypeError)
      << failureKindName(Out.Failure);
}

TEST(StripPolyMarkersTest, RewritesPrinterOnlySyntax) {
  EXPECT_EQ(stripPolyMarkers("struct s(q) { int *q p; };"),
            "struct s { int * p; };");
  EXPECT_EQ(stripPolyMarkers("int x;"), "int x;");
}

TEST(MinimizerTest, ShrinksWhilePreservingThePredicate) {
  // The "failure" is simply containing the marker statement; the
  // minimizer should strip everything else that can go.
  std::string Source = "int racy g0;\n"
                       "int racy g1;\n"
                       "int racy g2;\n"
                       "struct pair { int a; int b; };\n"
                       "void helper(void) {\n"
                       "  g1 = 4;\n"
                       "}\n"
                       "void main(void) {\n"
                       "  int t0;\n"
                       "  t0 = 1;\n"
                       "  g2 = t0 + 2;\n"
                       "  g0 = 7;\n"
                       "  print_int(g2);\n"
                       "}\n";
  auto StillFails = [](const std::string &C) {
    return C.find("g0 = 7") != std::string::npos &&
           frontEndErrors(C).empty();
  };
  ASSERT_TRUE(StillFails(Source));
  std::string Min = minimizeSource(Source, StillFails);
  EXPECT_TRUE(StillFails(Min)) << Min;
  EXPECT_LT(Min.size(), Source.size()) << Min;
  // Everything deletable must be gone.
  EXPECT_EQ(Min.find("helper"), std::string::npos) << Min;
  EXPECT_EQ(Min.find("struct pair"), std::string::npos) << Min;
  EXPECT_EQ(Min.find("g1"), std::string::npos) << Min;
}

TEST(MinimizerTest, ReturnsInputWhenNothingShrinks) {
  std::string Source = "void main(void) { }\n";
  auto StillFails = [&](const std::string &C) { return C == Source; };
  EXPECT_EQ(minimizeSource(Source, StillFails), Source);
}

} // namespace
