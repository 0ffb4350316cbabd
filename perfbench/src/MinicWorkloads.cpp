//===-- perfbench/src/MinicWorkloads.cpp - sharcc and explore -------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The two MiniC workloads. Each pass brings every program of a corpus to
// a verdict from its source text, the way `sharcc` does:
//
//   sharcc   parse -> type -> infer -> check/instrument -> 4 interpreter
//            runs (schedule seeds 1-4; sharc-fuzz also runs 4 a program).
//            A normal-profile generated corpus plus the shipped examples.
//   explore  the same front end, then interp::explore under fixed
//            schedule and step budgets. A small-profile generated corpus
//            plus the shipped examples and the explore fixtures.
//
// Every BaselineStride-th program is also executed without the checker's
// instrumentation (same runs, same budgets) for the slowdown; that
// execution is not part of its time to verdict. Verdicts are
// deterministic, so every pass must reproduce the first pass's verdict
// digest, and the shipped programs must meet their pinned verdicts.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/SharingAnalysis.h"
#include "checker/Checker.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/Rng.h"
#include "interp/Explore.h"
#include "interp/Interp.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace sharc;

namespace perfbench {
namespace {

/// The verdict a pinned shipped program must reach.
enum class Pin : uint8_t { None, Clean, Racy };

struct Program {
  std::string Name;
  std::string Source;
  bool Generated = false;
  Pin Expected = Pin::None;
};

enum class Verdict : uint8_t {
  Clean,     ///< sharcc: every run completed without a violation;
             ///< explore: complete enumeration, no violation.
  Racy,      ///< A sharing-strategy violation was found.
  Error,     ///< sharcc: deadlock or a runtime error, no violation.
  Rejected,  ///< The inference or the static checker refused it.
  Undecided, ///< A step or schedule budget ran out first.
  Broken,    ///< Parse/type failure or an explorer internal error.
};

const char *verdictName(Verdict V) {
  switch (V) {
  case Verdict::Clean:
    return "clean";
  case Verdict::Racy:
    return "racy";
  case Verdict::Error:
    return "error";
  case Verdict::Rejected:
    return "rejected";
  case Verdict::Undecided:
    return "undecided";
  case Verdict::Broken:
    return "broken";
  }
  return "?";
}

/// Budgets of the explore workload, per program. They count schedules
/// and steps, never wall time, so verdicts are deterministic. The caps
/// keep one long program from dominating a pass, and a pass short enough
/// to repeat many times within a run.
interp::ExploreOptions exploreBudget() {
  interp::ExploreOptions EO;
  EO.MaxRuns = 64;
  EO.MaxStepsPerRun = 512;
  EO.MaxTotalSteps = 4096;
  return EO;
}

/// The slowdown's uninstrumented baseline is taken on every
/// BaselineStride-th program, which keeps it from doubling a pass.
constexpr size_t BaselineStride = 4;

/// Interpreter runs per program on sharcc, with the fuzzer's step cap.
constexpr unsigned RunsPerProgram = 4;
constexpr uint64_t RunMaxSteps = 1u << 17;

/// Shipped programs and the verdicts they are pinned to:
/// tests/smoke_examples.sh for sharcc, tests/explore_cli.sh and the known
/// races for explore. Unlisted programs are measured but not pinned.
struct Shipped {
  const char *Path;
  Pin Sharcc;
  Pin Explore;
};
const Shipped ShippedPrograms[] = {
    {"examples/minic/bank_transfer.mc", Pin::Clean, Pin::None},
    {"examples/minic/locked_counter.mc", Pin::Clean, Pin::None},
    {"examples/minic/pfscan_mini.mc", Pin::Clean, Pin::None},
    {"examples/minic/pipeline_annotated.mc", Pin::Clean, Pin::None},
    {"examples/minic/readers_writers.mc", Pin::Clean, Pin::None},
    {"examples/minic/pipeline_unannotated.mc", Pin::Racy, Pin::Racy},
    {"examples/minic/race_demo.mc", Pin::Racy, Pin::Racy},
    {"examples/minic/prof_tuning.mc", Pin::None, Pin::None},
    {"examples/minic/prof_tuning_tuned.mc", Pin::None, Pin::None},
    {"tests/fixtures/explore_indep.mc", Pin::None, Pin::Clean},
    {"tests/fixtures/explore_locked.mc", Pin::None, Pin::Clean},
    {"tests/fixtures/explore_race.mc", Pin::None, Pin::Racy},
};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return static_cast<bool>(In) || In.eof();
}

std::string baseName(const std::string &Path) {
  size_t Slash = Path.rfind('/');
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
}

/// Builds the corpus for \p Opts: generated programs first, then the
/// shipped ones. \returns false (after reporting) if a shipped file is
/// missing.
bool buildCorpus(const Options &Opts, bool Explore, std::vector<Program> &Out) {
  Out.clear();
  unsigned NumGenerated = (Explore ? 200 : 100) * Opts.Size;
  uint64_t State = Opts.Seed ^ (Explore ? 0x5851f42d4c957f2dull : 0);
  for (unsigned I = 0; I != NumGenerated; ++I) {
    uint64_t GenSeed = fuzz::splitMix64(State);
    Program P;
    P.Name = "gen-" + std::to_string(I);
    P.Generated = true;
    trace::Scope Span("fuzz.gen", I);
    P.Source = fuzz::generateProgram(GenSeed, Explore ? fuzz::GenSize::Small
                                                      : fuzz::GenSize::Normal);
    Out.push_back(std::move(P));
  }
  for (const Shipped &S : ShippedPrograms) {
    Pin Expected = Explore ? S.Explore : S.Sharcc;
    // The fixtures are litmus tests for the explorer, not sharcc inputs.
    if (!Explore && std::string(S.Path).rfind("tests/", 0) == 0)
      continue;
    Program P;
    P.Name = baseName(S.Path);
    P.Expected = Expected;
    trace::Scope Span("input.read", Out.size());
    if (!readFile(S.Path, P.Source)) {
      std::fprintf(stderr, "perfbench: cannot read '%s'\n", S.Path);
      return false;
    }
    if (P.Name == Opts.FlipExpectation)
      P.Expected = P.Expected == Pin::Racy ? Pin::Clean : Pin::Racy;
    Out.push_back(std::move(P));
  }
  return true;
}

/// Per-pass layer counters.
struct Counters {
  double ParseBytes = 0;
  uint64_t ChecksInserted = 0, CheckSites = 0;
  uint64_t RunSteps = 0, RunDynamicChecks = 0, RunLockChecks = 0,
           RunCasts = 0, RunOutOfSteps = 0;
  uint64_t Schedules = 0, ExploreSteps = 0, MaxDepth = 0, SleepPruned = 0,
           DporPruned = 0, Undecided = 0;
};

/// What one program's trip through the pipeline produced.
struct Outcome {
  Verdict V = Verdict::Broken;
  double VerdictSec = 0;   ///< Time to verdict: front end + checked work.
  double CheckedSec = 0;   ///< The checked runs or exploration alone.
  double UncheckedSec = 0; ///< The same without instrumentation.
};

/// Times \p Fn under a span and adds its duration to \p Sec.
template <typename FnT>
auto timed(const char *Span, uint64_t Id, double &Sec, FnT Fn) {
  trace::Scope S(Span, Id);
  Clock::time_point Start = Clock::now();
  auto Result = Fn();
  Sec += secondsSince(Start);
  return Result;
}

Verdict sharccVerdict(const std::vector<interp::InterpResult> &Runs) {
  bool Racy = false, OutOfSteps = false, Error = false;
  for (const interp::InterpResult &R : Runs) {
    Racy |= R.hasConflicts();
    OutOfSteps |= R.OutOfSteps;
    Error |= R.Deadlocked || !R.Completed ||
             R.count(interp::Violation::Kind::RuntimeError) != 0;
  }
  if (Racy)
    return Verdict::Racy;
  if (OutOfSteps)
    return Verdict::Undecided;
  return Error ? Verdict::Error : Verdict::Clean;
}

Verdict exploreVerdict(const interp::ExploreResult &ER) {
  if (ER.Stats.InternalError)
    return Verdict::Broken;
  if (ER.anyViolation())
    return Verdict::Racy;
  return ER.complete() ? Verdict::Clean : Verdict::Undecided;
}

/// When a program's uninstrumented baseline runs relative to its checked
/// work, if at all.
enum class Baseline : uint8_t { None, Before, After };

Outcome processProgram(const Program &P, uint64_t Id, bool Explore,
                       Baseline Base, Counters &C) {
  trace::Scope Root("program", Id);
  Outcome O;
  SourceManager SM;
  FileId File = SM.addBuffer(P.Name, P.Source);
  DiagnosticEngine Diags(SM);
  std::unique_ptr<minic::Program> Prog =
      timed("minic.parse", Id, O.VerdictSec, [&] {
        minic::Parser Parser(SM, File, Diags);
        return Parser.parseProgram();
      });
  C.ParseBytes += static_cast<double>(P.Source.size());
  if (!Prog || Diags.hasErrors())
    return O;
  if (!timed("minic.type", Id, O.VerdictSec, [&] {
        minic::ExprTyper Typer(*Prog, Diags);
        return Typer.run();
      }))
    return O;
  if (!timed("analysis.infer", Id, O.VerdictSec, [&] {
        analysis::SharingAnalysis Analysis(*Prog, Diags);
        return Analysis.run();
      })) {
    O.V = Verdict::Rejected;
    return O;
  }
  checker::Checker Check(*Prog, Diags);
  if (!timed("checker.check", Id, O.VerdictSec,
             [&] { return Check.run(); })) {
    O.V = Verdict::Rejected;
    return O;
  }
  const checker::Instrumentation &Instr = Check.getInstrumentation();
  C.ChecksInserted += Instr.getNumChecks();
  C.CheckSites += Instr.getNumInstrumentedSites();
  const checker::Instrumentation Uninstrumented;

  if (Explore) {
    interp::ExploreOptions EO = exploreBudget();
    auto Unchecked = [&] {
      timed("interp.explore_unchecked", Id, O.UncheckedSec, [&] {
        return interp::explore(*Prog, Uninstrumented, EO);
      });
    };
    if (Base == Baseline::Before)
      Unchecked();
    interp::ExploreResult ER =
        timed("interp.explore", Id, O.CheckedSec,
              [&] { return interp::explore(*Prog, Instr, EO); });
    if (Base == Baseline::After)
      Unchecked();
    O.VerdictSec += O.CheckedSec;
    O.V = exploreVerdict(ER);
    C.Schedules += ER.Stats.Runs;
    C.ExploreSteps += ER.Stats.StepsTotal;
    C.MaxDepth = std::max(C.MaxDepth, ER.Stats.MaxDepth);
    C.SleepPruned += ER.Stats.SleepBlocked;
    C.DporPruned += ER.Stats.BranchesPruned;
    C.Undecided += O.V == Verdict::Undecided;
    return O;
  }

  auto RunAll = [&](const checker::Instrumentation &With, const char *Span,
                    double &Sec) {
    interp::Interp Interp(*Prog, With);
    std::vector<interp::InterpResult> Runs;
    for (unsigned K = 0; K != RunsPerProgram; ++K) {
      interp::InterpOptions IO;
      IO.Seed = K + 1; // 1 is sharcc's default schedule
      IO.MaxSteps = RunMaxSteps;
      Runs.push_back(timed(Span, Id, Sec, [&] { return Interp.run(IO); }));
    }
    return Runs;
  };
  if (Base == Baseline::Before)
    RunAll(Uninstrumented, "interp.run_unchecked", O.UncheckedSec);
  std::vector<interp::InterpResult> Runs =
      RunAll(Instr, "interp.run", O.CheckedSec);
  if (Base == Baseline::After)
    RunAll(Uninstrumented, "interp.run_unchecked", O.UncheckedSec);
  O.VerdictSec += O.CheckedSec;
  O.V = sharccVerdict(Runs);
  for (const interp::InterpResult &R : Runs) {
    C.RunSteps += R.Stats.Steps;
    C.RunDynamicChecks += R.Stats.DynamicChecks;
    C.RunLockChecks += R.Stats.LockChecks;
    C.RunCasts += R.Stats.SharingCasts;
    C.RunOutOfSteps += R.OutOfSteps;
  }
  return O;
}

/// Checks one program's verdict; \returns true when it is decided.
bool judge(const Program &P, Verdict V, bool Explore, Tally &T) {
  ++T.Attempted;
  if (V == Verdict::Broken) {
    T.fail("%s: %s", P.Name.c_str(),
           Explore ? "front end or explorer internal error"
                   : "program does not parse or type-check");
    return false;
  }
  if (P.Expected == Pin::Clean && V != Verdict::Clean)
    T.fail("%s: pinned clean, got %s", P.Name.c_str(), verdictName(V));
  // Exploration may give up on a racy program, but must never call it
  // complete and clean; sharcc's runs must find its violation.
  if (P.Expected == Pin::Racy &&
      (Explore ? V == Verdict::Clean : V != Verdict::Racy))
    T.fail("%s: pinned racy, got %s", P.Name.c_str(), verdictName(V));
  return V != Verdict::Undecided;
}

struct PassResult {
  std::vector<Outcome> Outcomes;
  Counters C;
  uint64_t Digest = 0;
  unsigned Decided = 0;
};

PassResult runPass(const std::vector<Program> &Corpus, bool Explore,
                   unsigned PassIndex, Tally &T) {
  PassResult R;
  R.Digest = 0xcbf29ce484222325ull;
  for (size_t I = 0; I != Corpus.size(); ++I) {
    // Every BaselineStride-th program also runs uninstrumented, before or
    // after its checked work on alternate passes.
    Baseline Base = I % BaselineStride != 0 ? Baseline::None
                    : PassIndex % 2        ? Baseline::Before
                                           : Baseline::After;
    Outcome O = processProgram(Corpus[I], I, Explore, Base, R.C);
    R.Decided += judge(Corpus[I], O.V, Explore, T);
    if (Corpus[I].Generated) {
      R.Digest ^= static_cast<uint64_t>(O.V) + 1;
      R.Digest *= 0x100000001b3ull;
    }
    R.Outcomes.push_back(O);
  }
  return R;
}

struct Phase {
  std::vector<PassResult> Passes;
};

/// Runs passes for \p Seconds; see measure() for \p SetUp and \p SetUpSec.
/// Every pass must reproduce the first pass's verdict digest.
template <typename SetUpT>
bool runPhase(const std::vector<Program> &Corpus, bool Explore,
              double Seconds, unsigned &PassCounter, uint64_t &Digest,
              Tally &T, SetUpT SetUp, std::vector<double> *SetUpSec,
              Phase &P) {
  return measure(
      Seconds, 2,
      [&] {
        PassResult R = runPass(Corpus, Explore, PassCounter++, T);
        if (P.Passes.empty() && Digest == 0)
          Digest = R.Digest;
        else if (R.Digest != Digest)
          T.fail("verdict digest %016llx differs from the first pass's "
                 "%016llx",
                 static_cast<unsigned long long>(R.Digest),
                 static_cast<unsigned long long>(Digest));
        P.Passes.push_back(std::move(R));
      },
      SetUp, SetUpSec);
}

/// One checked pass over the corpus: each program's fastest time to
/// verdict, summed.
double checkedPassSec(const Phase &P) {
  double Sum = 0;
  for (size_t I = 0; I != P.Passes.front().Outcomes.size(); ++I) {
    std::vector<double> Sec;
    for (const PassResult &R : P.Passes)
      Sec.push_back(R.Outcomes[I].VerdictSec);
    Sum += fastest(Sec);
  }
  return Sum;
}

void reportEndToEnd(const std::vector<Program> &Corpus, const Phase &P,
                    double SetupSec, unsigned SetupSamples, Report &Out) {
  size_t N = Corpus.size(), Passes = P.Passes.size();
  std::vector<double> VerdictMs;
  // The slowdown compares the baseline programs' checked and unchecked
  // totals: most programs run for microseconds, too short for a ratio of
  // their own, so the corpus is weighed as one program.
  double CheckedSum = 0, UncheckedSum = 0;
  size_t Compared = 0;
  for (size_t I = 0; I != N; ++I) {
    std::vector<double> Ms, Checked, Unchecked;
    for (const PassResult &R : P.Passes) {
      Ms.push_back(1e3 * R.Outcomes[I].VerdictSec);
      Checked.push_back(R.Outcomes[I].CheckedSec);
      Unchecked.push_back(R.Outcomes[I].UncheckedSec);
    }
    VerdictMs.push_back(fastest(Ms));
    // Rejected programs never run; the others have a baseline only on
    // every BaselineStride-th index.
    if (fastest(Unchecked) > 0) {
      CheckedSum += fastest(Checked);
      UncheckedSum += fastest(Unchecked);
      ++Compared;
    }
  }
  double CheckedSec = checkedPassSec(P);
  const PassResult &First = P.Passes.front();
  std::map<Verdict, unsigned> ByVerdict;
  for (const Outcome &O : First.Outcomes)
    ++ByVerdict[O.V];
  std::printf("corpus: %zu programs;", N);
  for (auto [V, Count] : ByVerdict)
    std::printf(" %s %u", verdictName(V), Count);
  std::printf("\n");

  uint64_t Samples = N * Passes;
  Out.add("setup_s", SetupSec, "s", SetupSamples);
  Out.add("peak_rss_mb", peakRssMb(), "MiB", 1);
  Out.add("checked_s", CheckedSec, "s", Samples);
  Out.add("slowdown", CheckedSum / UncheckedSum, "ratio", Compared * Passes);
  Out.add("programs_per_s", static_cast<double>(N) / CheckedSec, "1/s",
          Samples);
  Out.add("verdict_ms_p50", quantile(VerdictMs, 0.5), "ms", N);
  Out.add("verdict_ms_p90", quantile(VerdictMs, 0.9), "ms", N);
  Out.add("decided_pct",
          100.0 * static_cast<double>(First.Decided) / static_cast<double>(N),
          "%", N);
}

/// Layer numbers per pass, from the traced passes. Only the set-up
/// (fuzz.gen, input.read) and the traced passes record spans.
void reportPerLayer(const Phase &Traced, const std::vector<trace::Span> &Spans,
                    Report &Out) {
  double Passes = static_cast<double>(Traced.Passes.size());
  uint64_t N = Traced.Passes.size();
  auto Sec = [&](const char *Name) {
    return trace::selfSec(Spans, Name) / Passes;
  };
  Counters Sum;
  for (const PassResult &R : Traced.Passes) {
    const Counters &C = R.C;
    Sum.ParseBytes += C.ParseBytes;
    Sum.ChecksInserted += C.ChecksInserted;
    Sum.CheckSites += C.CheckSites;
    Sum.RunSteps += C.RunSteps;
    Sum.RunDynamicChecks += C.RunDynamicChecks;
    Sum.RunLockChecks += C.RunLockChecks;
    Sum.RunCasts += C.RunCasts;
    Sum.RunOutOfSteps += C.RunOutOfSteps;
    Sum.Schedules += C.Schedules;
    Sum.ExploreSteps += C.ExploreSteps;
    Sum.MaxDepth = std::max(Sum.MaxDepth, C.MaxDepth);
    Sum.SleepPruned += C.SleepPruned;
    Sum.DporPruned += C.DporPruned;
    Sum.Undecided += C.Undecided;
  }
  auto Avg = [&](double V) { return V / Passes; };
  double ParseSec = Sec("minic.parse");
  double RunSec = Sec("interp.run"), ExploreSec = Sec("interp.explore");
  Out.add("fuzz.gen.s", trace::selfSec(Spans, "fuzz.gen"), "s", 1);
  Out.add("minic.parse.s", ParseSec, "s", N);
  Out.add("minic.type.s", Sec("minic.type"), "s", N);
  Out.add("minic.parse.kb_per_s",
          ParseSec > 0 ? Avg(Sum.ParseBytes) / 1024.0 / ParseSec : 0.0,
          "KiB/s", N);
  Out.add("analysis.infer.s", Sec("analysis.infer"), "s", N);
  Out.add("checker.check.s", Sec("checker.check"), "s", N);
  Out.add("checker.check.inserted", Avg(Sum.ChecksInserted), "count", N);
  Out.add("checker.check.sites", Avg(Sum.CheckSites), "count", N);
  Out.add("interp.run.s", RunSec, "s", N);
  Out.add("interp.run.steps", Avg(Sum.RunSteps), "count", N);
  Out.add("interp.run.steps_per_s",
          RunSec > 0 ? Avg(Sum.RunSteps) / RunSec : 0.0, "1/s", N);
  Out.add("interp.run.dynamic_checks", Avg(Sum.RunDynamicChecks), "count",
          N);
  Out.add("interp.run.lock_checks", Avg(Sum.RunLockChecks), "count", N);
  Out.add("interp.run.casts", Avg(Sum.RunCasts), "count", N);
  Out.add("interp.run.out_of_steps", Avg(Sum.RunOutOfSteps), "count", N);
  Out.add("interp.explore.s", ExploreSec, "s", N);
  Out.add("interp.explore.schedules", Avg(Sum.Schedules), "count", N);
  Out.add("interp.explore.steps", Avg(Sum.ExploreSteps), "count", N);
  Out.add("interp.explore.steps_per_s",
          ExploreSec > 0 ? Avg(Sum.ExploreSteps) / ExploreSec : 0.0, "1/s",
          N);
  Out.add("interp.explore.max_depth", static_cast<double>(Sum.MaxDepth),
          "count", N);
  Out.add("interp.explore.sleep_pruned", Avg(Sum.SleepPruned), "count", N);
  Out.add("interp.explore.dpor_pruned", Avg(Sum.DporPruned), "count", N);
  Out.add("interp.explore.undecided", Avg(Sum.Undecided), "count", N);
}

} // namespace

bool runMinicWorkload(const Options &Opts, Report &Out, Tally &T) {
  bool Explore = Opts.Workload == "explore";
  // Set-up: generate the corpus and read the shipped programs. The
  // untraced run repeats it between passes for a median, rebuilding the
  // same corpus in place so peak memory holds one copy; the traced run
  // traces the first one for fuzz.gen.s.
  std::vector<Program> Corpus;
  auto Again = [&] { return buildCorpus(Opts, Explore, Corpus); };
  trace::setEnabled(Opts.Trace);
  Clock::time_point Start = Clock::now();
  if (!buildCorpus(Opts, Explore, Corpus))
    return false;
  std::vector<double> SetupSec = {secondsSince(Start)};
  trace::setEnabled(false);

  unsigned PassCounter = 0;
  uint64_t Digest = 0;
  if (!Opts.Trace) {
    Phase P;
    if (!runPhase(Corpus, Explore, Opts.Seconds, PassCounter, Digest, T,
                  Again, &SetupSec, P))
      return false;
    std::printf("verdict digest: %016llx (seed %llu)\n",
                static_cast<unsigned long long>(Digest),
                static_cast<unsigned long long>(Opts.Seed));
    reportEndToEnd(Corpus, P, median(SetupSec), SetupSec.size(), Out);
    return true;
  }

  Phase Plain, Traced;
  runPhase(Corpus, Explore, Opts.Seconds / 2.0, PassCounter, Digest, T,
           Again, nullptr, Plain);
  trace::setEnabled(true);
  Clock::time_point TraceStart = Clock::now();
  runPhase(Corpus, Explore, Opts.Seconds / 2.0, PassCounter, Digest, T,
           Again, nullptr, Traced);
  Clock::time_point TraceEnd = Clock::now();
  trace::setEnabled(false);
  std::printf("verdict digest: %016llx (seed %llu)\n",
              static_cast<unsigned long long>(Digest),
              static_cast<unsigned long long>(Opts.Seed));
  std::vector<trace::Span> Spans = trace::collect();
  reportPerLayer(Traced, Spans, Out);
  double PlainSec = checkedPassSec(Plain);
  Out.add("trace.coverage_pct",
          trace::coveragePct(Spans, TraceStart, TraceEnd), "%",
          Spans.size());
  Out.add("trace.overhead_pct",
          100.0 * (checkedPassSec(Traced) - PlainSec) / PlainSec, "%",
          Traced.Passes.size());
  if (!Opts.SpansOut.empty() && !trace::writeSpans(Spans, Opts.SpansOut))
    std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                 Opts.SpansOut.c_str());
  return true;
}

} // namespace perfbench
