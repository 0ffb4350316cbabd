//===-- driver/sharcc.cpp - The SharC compiler driver ---------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sharcc: parse a MiniC program, infer sharing-mode annotations, check
/// the program statically, instrument it, and (optionally) run it under
/// the checked interpreter.
///
///   sharcc file.mc                 check and run
///   sharcc --infer file.mc         print inferred annotations (Figure 2)
///   sharcc --check file.mc         static checking only
///   sharcc --run file.mc           run (after checking)
///   sharcc --explore[=B] file.mc   enumerate schedules (sharc-explore)
///   options: --seed N --fail-stop --entry NAME --max-steps N --quiet
///            --trace-out FILE --metrics-out FILE --profile
///            --on-violation abort|continue|quarantine
///            --explore-budget N --witness-out FILE
///            --replay-witness FILE
///
/// Exit status (pinned by tests/exit_codes.sh and tests/explore_cli.sh):
///   0  clean — including completed runs whose violations were permitted
///      by --on-violation=continue/quarantine, and explorations that
///      enumerated every inequivalent schedule without a violation
///   1  static errors, or runtime violations under the (default) abort
///      policy, or a run that deadlocked / ran out of steps, or any
///      violating interleaving found by --explore
///   2  usage (malformed flags, SHARC_POLICY, or a witness that fails
///      to parse / diverges from the program) and output I/O errors
///   3  internal errors and injected faults (SHARC_FAULT)
///   4  --explore gave up (schedule/step budget exhausted, or the
///      preemption bound cut branches) without finding a violation:
///      inconclusive, never silently reported as clean
///
//===----------------------------------------------------------------------===//

#include "analysis/SharingAnalysis.h"
#include "checker/Checker.h"
#include "interp/Explore.h"
#include "interp/Interp.h"
#include "interp/Schedule.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"
#include "minic/Printer.h"
#include "obs/Json.h"
#include "obs/MetricsJson.h"
#include "obs/TraceFile.h"
#include "rt/Guard.h"
#include "rt/LiveStats.h"
#include "rt/StatsServer.h"
#include "support/NumericArg.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

using namespace sharc;

namespace {

struct DriverOptions {
  std::string InputPath;
  bool Infer = false;
  bool CheckOnly = false;
  bool Run = false;
  bool Quiet = false;
  std::string TraceOut;   ///< --trace-out: binary .strc event trace.
  std::string MetricsOut; ///< --metrics-out: sharc-metrics-v1 JSON.
  std::string StatsAddr;  ///< --stats-addr: HOST:PORT live endpoint.
  uint64_t StatsLingerMs = 0;   ///< --stats-linger-ms: serve after run.
  uint64_t StatsPollSteps = 1024; ///< --stats-poll-steps: publish rate.
  bool MaxStepsSet = false;     ///< --max-steps given explicitly.
  bool Explore = false;         ///< --explore: enumerate schedules.
  uint64_t ExploreBound = ~0ull; ///< --explore=B preemption bound.
  uint64_t ExploreBudget = 1u << 16; ///< --explore-budget: executions.
  std::string WitnessOut;     ///< --witness-out: first violating witness.
  std::string ReplayWitness;  ///< --replay-witness: replay this file.
  interp::InterpOptions Interp;
};

void printUsage(std::FILE *To) {
  std::fprintf(
      To,
      "usage: sharcc [--infer|--check|--run] [--seed N] [--fail-stop]\n"
      "              [--entry NAME] [--max-steps N] [--quiet]\n"
      "              [--trace-out FILE] [--metrics-out FILE] [--profile]\n"
      "              [--on-violation abort|continue|quarantine]\n"
      "              [--stats-addr HOST:PORT] [--stats-linger-ms N]\n"
      "              [--stats-poll-steps N]\n"
      "              [--explore[=B]] [--explore-budget N]\n"
      "              [--witness-out FILE] [--replay-witness FILE]\n"
      "              file.mc\n"
      "\n"
      "modes (default: --run):\n"
      "  --infer            print the program with inferred annotations\n"
      "  --check            static checking only\n"
      "  --run              run under the checked interpreter\n"
      "\n"
      "exploration (sharc-explore):\n"
      "  --explore[=B]      enumerate every inequivalent thread schedule\n"
      "                     (DPOR + sleep sets); with =B, allow at most B\n"
      "                     preemptions per schedule (bounded search is\n"
      "                     incomplete and flagged loudly)\n"
      "  --explore-budget N give up after N executions (default 65536);\n"
      "                     exhaustion exits 4, never a silent 0\n"
      "  --witness-out FILE write the first violating schedule as a\n"
      "                     replayable witness (requires --explore)\n"
      "  --replay-witness F re-run the exact schedule recorded in F;\n"
      "                     a witness that fails to parse or diverges\n"
      "                     from the program exits 2\n"
      "\n"
      "run options:\n"
      "  --seed N           scheduler seed (default 1)\n"
      "  --max-steps N      step budget before reporting livelock\n"
      "  --fail-stop        stop a thread at its first violation\n"
      "  --entry NAME       entry function (default main)\n"
      "  --quiet            suppress the summary line\n"
      "  --on-violation P   what a sharing violation does (default abort):\n"
      "                     abort      stop the run at the first violation\n"
      "                     continue   record (dedup + cap) and keep going\n"
      "                     quarantine continue, and demote the offending\n"
      "                                location so it stops re-firing\n"
      "                     (the SHARC_POLICY env var sets the default;\n"
      "                     the flag wins)\n"
      "  --trace-out FILE   record the run as a binary .strc event trace\n"
      "                     (analyze with sharc-trace); flushed with an\n"
      "                     abnormal-end record if the run dies\n"
      "  --metrics-out FILE write run statistics as sharc-metrics-v1 JSON\n"
      "  --profile          record per-site check costs and lock\n"
      "                     contention into the trace (requires\n"
      "                     --trace-out; analyze with sharc-trace profile)\n"
      "  --stats-addr A     serve live Prometheus metrics (/metrics) and\n"
      "                     a JSON health document (/health) on HOST:PORT\n"
      "                     while the run is in flight (sharc-live; port\n"
      "                     0 picks a free port, printed on stderr)\n"
      "  --stats-linger-ms N keep serving N ms after the run finishes so\n"
      "                     a scraper can read the final counters\n"
      "  --stats-poll-steps N publish a fresh snapshot every N scheduler\n"
      "                     steps (default 1024; 0 = every step)\n"
      "\n"
      "environment: SHARC_POLICY=abort|continue|quarantine sets the\n"
      "default violation policy; SHARC_STATS_ADDR=HOST:PORT arms the\n"
      "stats endpoint (--stats-addr wins); SHARC_FAULT=oom:N,thread-reg,\n"
      "torn-write:K,lock-timeout,crash:N injects rare failures (tests).\n"
      "\n"
      "exit status: 0 clean (violations permitted by continue/quarantine\n"
      "included); 1 static errors or violations under the abort policy;\n"
      "2 usage or output I/O errors; 3 internal or fault-injected errors;\n"
      "4 exploration gave up (budget/bound) without finding a violation\n");
}

bool parseU64Arg(const char *Flag, const char *Text, uint64_t &Out) {
  return parseFlagU64("sharcc", Flag, Text, Out);
}

/// 0 = parsed; 1 = parsed and exit 0 requested (--help); 2 = usage error.
int parseArgs(int Argc, char **Argv, DriverOptions &Options) {
  // The paper's fail-fast semantics is sharcc's default; SHARC_POLICY
  // overrides it, an explicit --on-violation overrides both.
  Options.Interp.Guard.OnViolation = guard::Policy::Abort;
  if (const char *Env = std::getenv("SHARC_POLICY")) {
    if (!guard::parsePolicy(Env, Options.Interp.Guard.OnViolation)) {
      std::fprintf(stderr,
                   "sharcc: SHARC_POLICY must be abort, continue, or "
                   "quarantine; got '%s'\n",
                   Env);
      return 2;
    }
  }
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    const char *Value = nullptr;
    if (Arg == "--help" || Arg == "-h") {
      printUsage(stdout);
      return 1;
    } else if (matchValueFlag("--on-violation", Argc, Argv, I, Value)) {
      if (!Value) {
        std::fprintf(stderr, "sharcc: --on-violation needs a policy\n");
        return 2;
      }
      if (!guard::parsePolicy(Value, Options.Interp.Guard.OnViolation)) {
        std::fprintf(stderr,
                     "sharcc: --on-violation must be abort, continue, or "
                     "quarantine; got '%s'\n",
                     Value);
        return 2;
      }
    } else if (Arg == "--infer") {
      Options.Infer = true;
    } else if (Arg == "--check") {
      Options.CheckOnly = true;
    } else if (Arg == "--run") {
      Options.Run = true;
    } else if (Arg == "--fail-stop") {
      Options.Interp.FailStop = true;
    } else if (Arg == "--quiet") {
      Options.Quiet = true;
    } else if (Arg == "--profile") {
      Options.Interp.Profile = true;
    } else if (matchValueFlag("--seed", Argc, Argv, I, Value)) {
      if (!Value) {
        std::fprintf(stderr, "sharcc: --seed needs a value\n");
        return 2;
      }
      if (!parseU64Arg("--seed", Value, Options.Interp.Seed))
        return 2;
    } else if (matchValueFlag("--max-steps", Argc, Argv, I, Value)) {
      if (!Value) {
        std::fprintf(stderr, "sharcc: --max-steps needs a value\n");
        return 2;
      }
      if (!parseU64Arg("--max-steps", Value, Options.Interp.MaxSteps))
        return 2;
      Options.MaxStepsSet = true;
    } else if (matchValueFlag("--entry", Argc, Argv, I, Value)) {
      if (!Value) {
        std::fprintf(stderr, "sharcc: --entry needs a value\n");
        return 2;
      }
      Options.Interp.EntryPoint = Value;
    } else if (matchValueFlag("--trace-out", Argc, Argv, I, Value)) {
      if (!Value || !*Value) {
        std::fprintf(stderr, "sharcc: --trace-out needs a file\n");
        return 2;
      }
      Options.TraceOut = Value;
    } else if (matchValueFlag("--metrics-out", Argc, Argv, I, Value)) {
      if (!Value || !*Value) {
        std::fprintf(stderr, "sharcc: --metrics-out needs a file\n");
        return 2;
      }
      Options.MetricsOut = Value;
    } else if (matchValueFlag("--stats-addr", Argc, Argv, I, Value)) {
      if (!Value || !*Value) {
        std::fprintf(stderr, "sharcc: --stats-addr needs HOST:PORT\n");
        return 2;
      }
      Options.StatsAddr = Value;
    } else if (matchValueFlag("--stats-linger-ms", Argc, Argv, I, Value)) {
      if (!Value) {
        std::fprintf(stderr, "sharcc: --stats-linger-ms needs a value\n");
        return 2;
      }
      if (!parseU64Arg("--stats-linger-ms", Value, Options.StatsLingerMs))
        return 2;
    } else if (matchValueFlag("--stats-poll-steps", Argc, Argv, I, Value)) {
      if (!Value) {
        std::fprintf(stderr, "sharcc: --stats-poll-steps needs a value\n");
        return 2;
      }
      if (!parseU64Arg("--stats-poll-steps", Value, Options.StatsPollSteps))
        return 2;
    } else if (Arg == "--explore") {
      Options.Explore = true;
    } else if (Arg.rfind("--explore=", 0) == 0) {
      // --explore=B: value attached only; "--explore B" would swallow
      // the input file, so the separate-argument spelling is not
      // offered for this flag.
      Options.Explore = true;
      if (!parseU64Arg("--explore", Arg.c_str() + std::strlen("--explore="),
                       Options.ExploreBound))
        return 2;
    } else if (matchValueFlag("--explore-budget", Argc, Argv, I, Value)) {
      if (!Value) {
        std::fprintf(stderr, "sharcc: --explore-budget needs a value\n");
        return 2;
      }
      if (!parseU64Arg("--explore-budget", Value, Options.ExploreBudget))
        return 2;
      if (Options.ExploreBudget == 0) {
        std::fprintf(stderr, "sharcc: --explore-budget must be nonzero\n");
        return 2;
      }
    } else if (matchValueFlag("--witness-out", Argc, Argv, I, Value)) {
      if (!Value || !*Value) {
        std::fprintf(stderr, "sharcc: --witness-out needs a file\n");
        return 2;
      }
      Options.WitnessOut = Value;
    } else if (matchValueFlag("--replay-witness", Argc, Argv, I, Value)) {
      if (!Value || !*Value) {
        std::fprintf(stderr, "sharcc: --replay-witness needs a file\n");
        return 2;
      }
      Options.ReplayWitness = Value;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "sharcc: unknown option '%s'\n", Arg.c_str());
      return 2;
    } else if (Options.InputPath.empty()) {
      Options.InputPath = Arg;
    } else {
      std::fprintf(stderr, "sharcc: multiple input files\n");
      return 2;
    }
  }
  if (Options.InputPath.empty()) {
    std::fprintf(stderr, "sharcc: no input file\n");
    return 2;
  }
  if (!Options.Infer && !Options.CheckOnly && !Options.Run)
    Options.Run = true; // default: check and run
  if ((Options.Infer || Options.CheckOnly) &&
      (!Options.TraceOut.empty() || !Options.MetricsOut.empty())) {
    std::fprintf(stderr,
                 "sharcc: --trace-out/--metrics-out require a run mode\n");
    return 2;
  }
  if ((Options.Infer || Options.CheckOnly) && !Options.StatsAddr.empty()) {
    std::fprintf(stderr, "sharcc: --stats-addr requires a run mode\n");
    return 2;
  }
  if (Options.Interp.Profile &&
      (Options.Infer || Options.CheckOnly || Options.TraceOut.empty())) {
    std::fprintf(stderr,
                 "sharcc: --profile requires a run mode and --trace-out\n");
    return 2;
  }
  if (Options.Explore && (Options.Infer || Options.CheckOnly)) {
    std::fprintf(stderr, "sharcc: --explore requires a run mode\n");
    return 2;
  }
  if (Options.Explore &&
      (!Options.TraceOut.empty() || Options.Interp.Profile ||
       !Options.StatsAddr.empty())) {
    std::fprintf(stderr,
                 "sharcc: --explore is incompatible with --trace-out, "
                 "--profile, and --stats-addr\n");
    return 2;
  }
  if (Options.Explore && !Options.ReplayWitness.empty()) {
    std::fprintf(stderr,
                 "sharcc: --explore and --replay-witness are exclusive\n");
    return 2;
  }
  if (!Options.WitnessOut.empty() && !Options.Explore) {
    std::fprintf(stderr, "sharcc: --witness-out requires --explore\n");
    return 2;
  }
  if (!Options.ReplayWitness.empty() &&
      (Options.Infer || Options.CheckOnly)) {
    std::fprintf(stderr, "sharcc: --replay-witness requires a run mode\n");
    return 2;
  }
  return 0;
}

/// Writes the sharc-metrics-v1 document for a completed run.
std::string renderMetrics(const DriverOptions &Options,
                          const interp::InterpResult &Result) {
  using interp::Violation;
  obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("sharc-metrics-v1");
  W.key("source");
  W.value(Options.InputPath);
  W.key("seed");
  W.value(Options.Interp.Seed);
  W.key("entry");
  W.value(Options.Interp.EntryPoint);
  W.key("fail_stop");
  W.value(Options.Interp.FailStop);
  W.key("completed");
  W.value(Result.Completed);
  W.key("deadlocked");
  W.value(Result.Deadlocked);
  W.key("out_of_steps");
  W.value(Result.OutOfSteps);
  W.key("steps");
  W.value(Result.Stats.Steps);
  W.key("threads_spawned");
  W.value(Result.Stats.ThreadsSpawned);
  W.key("accesses");
  W.value(Result.Stats.TotalAccesses);
  W.key("reads");
  W.value(Result.Stats.Reads);
  W.key("writes");
  W.value(Result.Stats.Writes);
  W.key("dynamic_checks");
  W.value(Result.Stats.DynamicChecks);
  W.key("lock_checks");
  W.value(Result.Stats.LockChecks);
  W.key("sharing_casts");
  W.value(Result.Stats.SharingCasts);
  W.key("violations");
  W.beginObject();
  W.key("total");
  W.value(static_cast<uint64_t>(Result.Violations.size()));
  W.key("read_conflicts");
  W.value(Result.count(Violation::Kind::ReadConflict));
  W.key("write_conflicts");
  W.value(Result.count(Violation::Kind::WriteConflict));
  W.key("lock_violations");
  W.value(Result.count(Violation::Kind::LockViolation));
  W.key("cast_errors");
  W.value(Result.count(Violation::Kind::CastError));
  W.key("runtime_errors");
  W.value(Result.count(Violation::Kind::RuntimeError));
  W.endObject();
  W.key("stats");
  appendStatsJson(W, interp::toStatsSnapshot(Result));
  W.endObject();
  std::string Out = W.take();
  Out.push_back('\n');
  return Out;
}

bool writeTextFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  if (std::fclose(F) != 0)
    Ok = false;
  return Ok;
}

bool readTextFile(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = std::ferror(F) == 0;
  std::fclose(F);
  return Ok;
}

/// Runs `--explore`: enumerate schedules, report the verdict classes,
/// write the witness/metrics artifacts, and map the outcome onto the
/// exit-code contract (0 complete+clean, 1 violation, 2 I/O, 3
/// internal, 4 gave up empty-handed).
int runExplore(const DriverOptions &Options, minic::Program &Prog,
               const checker::Checker &Check, const std::string &FileName) {
  interp::ExploreOptions EO;
  EO.PreemptionBound = static_cast<unsigned>(
      std::min<uint64_t>(Options.ExploreBound, ~0u));
  EO.MaxRuns = Options.ExploreBudget;
  // The interpreter's generous default step budget is meant for one
  // run; cap each explored schedule unless --max-steps asked otherwise.
  if (Options.MaxStepsSet)
    EO.MaxStepsPerRun = Options.Interp.MaxSteps;
  EO.EntryPoint = Options.Interp.EntryPoint;

  auto Start = std::chrono::steady_clock::now();
  interp::ExploreResult ER =
      interp::explore(Prog, Check.getInstrumentation(), EO);
  obs::ExploreCounters C;
  C.WallSeconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  C.SchedulesRun = ER.Stats.Runs;
  C.SleepPruned = ER.Stats.SleepBlocked;
  C.BoundedRuns = ER.Stats.BoundedRuns;
  C.DporPruned = ER.Stats.BranchesPruned;
  C.PreemptPruned = ER.Stats.PreemptPruned;
  C.StepsTotal = ER.Stats.StepsTotal;
  C.MaxDepth = ER.Stats.MaxDepth;
  C.VerdictClasses = ER.Verdicts.size();
  C.ViolatingClasses = ER.Witnesses.size();
  C.BoundHit = ER.Stats.BoundHit;
  C.BudgetExhausted = ER.Stats.BudgetExhausted;
  C.Complete = ER.complete();

  if (ER.anyViolation()) {
    std::printf("%s", ER.FirstViolation.Output.c_str());
    for (const interp::Violation &V : ER.FirstViolation.Violations)
      std::fprintf(stderr, "%s", V.format(FileName).c_str());
  }

  if (!Options.WitnessOut.empty()) {
    if (ER.anyViolation()) {
      if (!writeTextFile(Options.WitnessOut,
                         ER.Witnesses.front().second.serialize())) {
        std::fprintf(stderr, "sharcc: cannot write '%s'\n",
                     Options.WitnessOut.c_str());
        return 2;
      }
    } else if (!Options.Quiet) {
      std::fprintf(stderr,
                   "sharcc: explore: no violating schedule; '%s' not "
                   "written\n",
                   Options.WitnessOut.c_str());
    }
  }

  if (!Options.MetricsOut.empty()) {
    if (!writeTextFile(Options.MetricsOut, obs::exploreToJson(C))) {
      std::fprintf(stderr, "sharcc: cannot write '%s'\n",
                   Options.MetricsOut.c_str());
      return 2;
    }
  }

  if (!Options.Quiet) {
    std::string Verdicts;
    for (const interp::ExploreVerdict &V : ER.Verdicts) {
      if (!Verdicts.empty())
        Verdicts += ", ";
      Verdicts += V.describe();
    }
    std::fprintf(
        stderr,
        "sharcc: explore: %llu schedules (%llu sleep-set cut, %llu "
        "bound cut), %llu branches pruned, max depth %llu, %llu steps, "
        "%.1f schedules/s\n",
        static_cast<unsigned long long>(ER.Stats.Runs),
        static_cast<unsigned long long>(ER.Stats.SleepBlocked),
        static_cast<unsigned long long>(ER.Stats.BoundedRuns),
        static_cast<unsigned long long>(ER.Stats.BranchesPruned),
        static_cast<unsigned long long>(ER.Stats.MaxDepth),
        static_cast<unsigned long long>(ER.Stats.StepsTotal),
        obs::schedulesPerSecond(C));
    std::fprintf(stderr, "sharcc: explore: verdicts: %s\n",
                 Verdicts.empty() ? "(none)" : Verdicts.c_str());
  }

  // Incompleteness is never silent: these lines print even under
  // --quiet, and the exit code stays distinct from "clean".
  if (ER.Stats.InternalError && !ER.anyViolation()) {
    std::fprintf(stderr,
                 "sharcc: explore: internal error: a replayed prefix "
                 "diverged; results are not trustworthy\n");
    return 3;
  }
  if (!ER.complete())
    std::fprintf(stderr,
                 "sharcc: explore: WARNING: exploration incomplete (%s); "
                 "the absence of violations proves nothing\n",
                 ER.Stats.InternalError ? "internal divergence"
                 : ER.Stats.BudgetExhausted
                     ? "schedule/step budget exhausted"
                     : "preemption bound cut branches");

  if (ER.anyViolation())
    return 1;
  return ER.complete() ? 0 : 4;
}

// Crash-safe tracing: while a traced run is in flight these point at the
// live writer, and the registered crash hook appends an abnormal-end
// record and flushes the buffer to disk, so `sharc-trace summarize`
// reconstructs the dying run instead of reporting a truncated file.
obs::TraceWriter *LiveTrace = nullptr;
std::string LiveTracePath;
uint8_t LivePolicy = 0;

void crashFlushTrace(int Signal, void *) {
  if (!LiveTrace || LiveTracePath.empty())
    return;
  LiveTrace->finishAbnormal(static_cast<uint32_t>(Signal), LivePolicy);
  std::string IgnoredError;
  LiveTrace->writeToFile(LiveTracePath, IgnoredError);
}

} // namespace

int main(int Argc, char **Argv) {
  DriverOptions Options;
  switch (parseArgs(Argc, Argv, Options)) {
  case 0:
    break;
  case 1:
    return 0; // --help
  default:
    printUsage(stderr);
    return 2;
  }

  SourceManager SM;
  std::string Error;
  FileId File = SM.addFile(Options.InputPath, Error);
  if (File == InvalidFileId) {
    std::fprintf(stderr, "sharcc: %s\n", Error.c_str());
    return 2;
  }

  DiagnosticEngine Diags(SM);
  minic::Parser Parser(SM, File, Diags);
  auto Prog = Parser.parseProgram();
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 1;
  }

  minic::ExprTyper Typer(*Prog, Diags);
  if (!Typer.run()) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 1;
  }

  analysis::SharingAnalysis Analysis(*Prog, Diags);
  bool AnalysisOk = Analysis.run();

  if (Options.Infer) {
    std::printf("%s", minic::printProgram(*Prog).c_str());
    if (!AnalysisOk) {
      std::fprintf(stderr, "%s", Diags.render().c_str());
      return 1;
    }
    return 0;
  }
  if (!AnalysisOk) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 1;
  }

  checker::Checker Check(*Prog, Diags);
  bool CheckOk = Check.run();
  if (!CheckOk || Diags.getNumWarnings() != 0)
    std::fprintf(stderr, "%s", Diags.render().c_str());
  if (!CheckOk)
    return 1;

  if (Options.CheckOnly) {
    if (!Options.Quiet) {
      const auto &Instr = Check.getInstrumentation();
      std::printf("check: ok (%zu runtime checks at %zu sites)\n",
                  Instr.getNumChecks(), Instr.getNumInstrumentedSites());
    }
    return 0;
  }

  if (Options.Explore)
    return runExplore(Options, *Prog, Check,
                      std::string(SM.getFileName(File)));

  // Replay a recorded witness: the run follows the file decision for
  // decision, and any divergence is a hard error (exit 2), not a guess.
  interp::Witness ReplayW;
  std::unique_ptr<interp::ReplaySchedule> Replay;
  if (!Options.ReplayWitness.empty()) {
    std::string Text, WitnessError;
    if (!readTextFile(Options.ReplayWitness, Text)) {
      std::fprintf(stderr, "sharcc: cannot read '%s'\n",
                   Options.ReplayWitness.c_str());
      return 2;
    }
    if (!ReplayW.parse(Text, WitnessError)) {
      std::fprintf(stderr, "sharcc: bad witness '%s': %s\n",
                   Options.ReplayWitness.c_str(), WitnessError.c_str());
      return 2;
    }
    Replay = std::make_unique<interp::ReplaySchedule>(ReplayW);
    Options.Interp.Sched = Replay.get();
  }

  // Fault injection (SHARC_FAULT=): a malformed spec is a fatalInternal
  // (exit 3) — a mistyped fault plan must not silently pass.
  guard::initFaultsFromEnv();
  Options.Interp.CrashAtStep = guard::faults().CrashAtStep;

  obs::TraceWriter Trace;
  if (guard::faults().HasTornWrite)
    Trace.setFaultTruncate(guard::faults().TornWriteBytes);
  if (!Options.TraceOut.empty()) {
    Options.Interp.Sink = &Trace;
    // Arm the crash-safe flush path before any interpreted code runs.
    LiveTrace = &Trace;
    LiveTracePath = Options.TraceOut;
    LivePolicy = static_cast<uint8_t>(Options.Interp.Guard.OnViolation);
    guard::installCrashHandlers();
    guard::addCrashHook(crashFlushTrace, nullptr);
  }
  if (Options.Interp.Profile)
    Options.Interp.SourceName = std::string(SM.getFileName(File));

  // sharc-live (DESIGN.md §13): arm the stats endpoint before any
  // interpreted code runs so a scraper can watch the run in flight.
  // SHARC_STATS_ADDR arms it without a flag; --stats-addr wins.
  if (Options.StatsAddr.empty())
    if (const char *Env = std::getenv("SHARC_STATS_ADDR"))
      Options.StatsAddr = Env;
  live::StatsHub StatsHub;
  std::unique_ptr<live::StatsServer> StatsServer;
  if (!Options.StatsAddr.empty()) {
    StatsServer = std::make_unique<live::StatsServer>();
    std::string StatsError;
    if (!StatsServer->start(
            Options.StatsAddr, [&StatsHub] { return StatsHub.load(); },
            StatsError)) {
      std::fprintf(stderr, "sharcc: %s\n", StatsError.c_str());
      return 2;
    }
    // Port 0 requests an ephemeral port; tests and tools read the
    // concrete one off this line.
    std::fprintf(stderr, "sharcc: stats: listening on %s\n",
                 StatsServer->boundAddress().c_str());
    // Seed the hub so a scrape that lands before the first poll sees
    // the armed policy rather than a default-constructed snapshot.
    live::LiveSnapshot First;
    First.Policy = Options.Interp.Guard.OnViolation;
    First.WatchdogMillis = Options.Interp.Guard.WatchdogMillis;
    StatsHub.update(First);
    Options.Interp.Live = &StatsHub;
    Options.Interp.LivePollSteps = Options.StatsPollSteps;
  }

  interp::Interp Interp(*Prog, Check.getInstrumentation());
  interp::InterpResult Result = Interp.run(Options.Interp);
  std::printf("%s", Result.Output.c_str());

  std::string FileName(SM.getFileName(File));
  for (const interp::Violation &V : Result.Violations)
    std::fprintf(stderr, "%s", V.format(FileName).c_str());

  if (Replay && (Replay->diverged() || Result.ScheduleAborted)) {
    std::fprintf(stderr, "sharcc: witness replay diverged: %s\n",
                 Replay->divergence().c_str());
    return 2;
  }

  if (StatsServer) {
    // Publish the final snapshot through the same mapping that writes
    // the trace's closing stats sample (toStatsSnapshot), so a scrape
    // after sharc_run_active drops to 0 matches the trace exactly.
    live::LiveSnapshot Final = StatsHub.load();
    Final.Stats = interp::toStatsSnapshot(Result);
    Final.TotalViolations = Result.TotalViolations;
    Final.Policy = Options.Interp.Guard.OnViolation;
    Final.WatchdogMillis = Options.Interp.Guard.WatchdogMillis;
    Final.ThreadsLive = 0;
    Final.ThreadsSpawned = Result.Stats.ThreadsSpawned;
    Final.Steps = Result.Stats.Steps;
    Final.Running = false;
    StatsHub.update(Final);
  }

  if (!Options.TraceOut.empty()) {
    // Close the trace with a final stats sample so `sharc-trace metrics`
    // and the summary's footer see the run's counters.
    Trace.stats(interp::toStatsSnapshot(Result));
    std::string TraceError;
    if (!Trace.writeToFile(Options.TraceOut, TraceError)) {
      // The run itself is complete; disarm the crash hook so the torn /
      // failed image is not overwritten on the way out.
      LiveTrace = nullptr;
      if (guard::faults().HasTornWrite)
        guard::fatalInternal("%s", TraceError.c_str());
      std::fprintf(stderr, "sharcc: %s\n", TraceError.c_str());
      return 2;
    }
    LiveTrace = nullptr;
  }
  if (!Options.MetricsOut.empty() &&
      !writeTextFile(Options.MetricsOut, renderMetrics(Options, Result))) {
    std::fprintf(stderr, "sharcc: cannot write '%s'\n",
                 Options.MetricsOut.c_str());
    return 2;
  }

  if (!Options.Quiet) {
    double DynPct =
        Result.Stats.TotalAccesses
            ? 100.0 * static_cast<double>(Result.Stats.DynamicChecks) /
                  static_cast<double>(Result.Stats.TotalAccesses)
            : 0.0;
    std::fprintf(stderr,
                 "sharcc: %llu steps, %llu threads, %llu accesses "
                 "(%.1f%% dynamic), %llu lock checks, %llu casts, "
                 "%zu violations\n",
                 static_cast<unsigned long long>(Result.Stats.Steps),
                 static_cast<unsigned long long>(Result.Stats.ThreadsSpawned),
                 static_cast<unsigned long long>(Result.Stats.TotalAccesses),
                 DynPct,
                 static_cast<unsigned long long>(Result.Stats.LockChecks),
                 static_cast<unsigned long long>(Result.Stats.SharingCasts),
                 static_cast<size_t>(Result.TotalViolations));
  }

  // Exit-code contract: under the abort policy any violation is fatal
  // (the paper's semantics); under continue/quarantine a run that made
  // it to completion exits 0 even if violations were recorded, and only
  // engine-level failures (deadlock, livelock, fail-stop threads)
  // remain fatal.
  int ExitCode = 0;
  if (Result.PolicyHalted)
    ExitCode = 1;
  else if (Options.Interp.Guard.OnViolation == guard::Policy::Abort &&
           Result.TotalViolations != 0)
    ExitCode = 1;
  else if (Result.Deadlocked || Result.OutOfSteps || !Result.Completed)
    ExitCode = 1;

  if (StatsServer && Options.StatsLingerMs != 0)
    // Hold the endpoint open so a scraper can read the final counters
    // (the run is over; sharc_run_active now reads 0).
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Options.StatsLingerMs));
  return ExitCode;
}
