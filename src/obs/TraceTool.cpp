//===-- obs/TraceTool.cpp - sharc-trace CLI ---------------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `sharc-trace` — offline analysis of .strc traces recorded by
/// `sharcc --trace-out` (or any obs::TraceWriter user), plus schema
/// validation for the JSON the bench harnesses and `--metrics-out`
/// emit. The `profile` subcommand is the paper-§6 tuning loop: ranked
/// per-site check costs, lock contention, and annotation advice that —
/// when the MiniC source is available — is re-checked against the
/// static semantics before being shown. Exit codes follow sharcc's
/// contract: 0 success, 1 a check failed or the input is malformed,
/// 2 usage errors.
///
//===----------------------------------------------------------------------===//

#include "analysis/SharingAnalysis.h"
#include "checker/Checker.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"
#include "obs/Causal.h"
#include "obs/ChromeTrace.h"
#include "obs/Json.h"
#include "obs/MetricsJson.h"
#include "obs/Profile.h"
#include "obs/PromText.h"
#include "obs/ReportHtml.h"
#include "obs/Summary.h"
#include "obs/TraceFile.h"
#include "obs/TraceTail.h"
#include "rt/LiveStats.h"
#include "rt/StatsServer.h"
#include "support/Diagnostics.h"
#include "support/NumericArg.h"
#include "support/SourceManager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace sharc;

namespace {

void printUsage(std::FILE *To) {
  std::fprintf(
      To,
      "usage: sharc-trace <command> [args]\n"
      "\n"
      "trace analysis:\n"
      "  summarize FILE.strc    totals, per-thread histogram, lock\n"
      "                         contention, hottest granules, conflict\n"
      "                         timeline\n"
      "  dump FILE.strc         every record, one per line\n"
      "  schedule FILE.strc     re-emit as the fuzzer's replay schedule\n"
      "  metrics FILE.strc      final stats sample as sharc-stats-v1 JSON\n"
      "  metrics --delta A.strc B.strc\n"
      "                         B's final sample minus A's (saturating),\n"
      "                         for before/after annotation tuning\n"
      "  profile FILE.strc [--source FILE.mc]\n"
      "                         ranked per-site check costs, lock\n"
      "                         contention, and annotation advice from a\n"
      "                         profiling run (sharcc --profile); with\n"
      "                         --source every suggestion is re-checked\n"
      "                         against the static checker\n"
      "  export-chrome FILE.strc [OUT.json]\n"
      "                         Chrome trace-event JSON for\n"
      "                         chrome://tracing / ui.perfetto.dev\n"
      "                         (stdout when OUT is omitted)\n"
      "\n"
      "causal analysis (sharc-live):\n"
      "  tail FILE.strc [--poll-ms N] [--idle-ms N] [--quiet]\n"
      "                         follow a growing (or crash-truncated)\n"
      "                         trace, decoding records as they land\n"
      "  timeline FILE.strc     per-thread run/blocked timeline with\n"
      "                         blocked time attributed to lock holders\n"
      "  critical-path FILE.strc\n"
      "                         the longest dependency chain bounding\n"
      "                         the run, with per-edge cost\n"
      "  report FILE.strc [OUT.html]\n"
      "                         one self-contained HTML file: timeline,\n"
      "                         critical path, hot sites, violations\n"
      "                         (stdout when OUT is omitted)\n"
      "  requests FILE.strc [--tail P]\n"
      "                         request-span anatomy of a sharc-serve\n"
      "                         --trace-out run: per-stage latency\n"
      "                         percentiles, then the slowest P%% of\n"
      "                         requests (default 1) attributed to\n"
      "                         concrete causes — lock wait with holder,\n"
      "                         queue backlog, check cost\n"
      "\n"
      "live endpoint (sharcc --stats-addr / SHARC_STATS_ADDR):\n"
      "  scrape HOST:PORT [PATH]\n"
      "                         HTTP GET against a live stats endpoint\n"
      "                         (default PATH /metrics); no curl needed\n"
      "  check-prom FILE [FILE2]\n"
      "                         strictly validate Prometheus exposition\n"
      "                         text; with two scrapes, also check\n"
      "                         counter monotonicity\n"
      "  check-live PROM.txt FILE.strc\n"
      "                         assert a scrape's counters exactly match\n"
      "                         the trace's final stats sample\n"
      "\n"
      "schema checks and perf trajectory:\n"
      "  check-bench FILE...    validate sharc-bench-v1 JSON reports\n"
      "  check-metrics FILE...  validate sharc-metrics-v1 JSON reports\n"
      "  check-overhead A.json B.json [--max-pct P]\n"
      "                         compare two sharc-bench-v1 reports row by\n"
      "                         row; fail if any shared row regressed by\n"
      "                         more than P%% (default 2)\n"
      "  compare-runs DIR [--max-pct P]\n"
      "                         per-benchmark trend table over a\n"
      "                         directory of archived sharc-bench-v1\n"
      "                         runs (bench/history/); each row is\n"
      "                         trended on its timing metric and every\n"
      "                         latency percentile (p50/p99/p999...);\n"
      "                         fail — naming the regressed metric\n"
      "                         key(s) — when the newest run regressed\n"
      "                         the previous one by more than P%%\n"
      "                         (default 10)\n"
      "  --help                 print this message\n"
      "\n"
      "every command also accepts --help; exit codes: 0 success,\n"
      "1 malformed input or failed check, 2 usage\n");
}

/// Per-subcommand usage lines (the CLI contract: every subcommand
/// supports --help and exits 0).
struct SubcommandHelp {
  const char *Name;
  const char *Usage;
};

constexpr SubcommandHelp SubcommandHelps[] = {
    {"summarize", "sharc-trace summarize FILE.strc"},
    {"dump", "sharc-trace dump FILE.strc"},
    {"schedule", "sharc-trace schedule FILE.strc"},
    {"metrics", "sharc-trace metrics FILE.strc\n"
                "sharc-trace metrics --delta A.strc B.strc"},
    {"profile", "sharc-trace profile FILE.strc [--source FILE.mc]"},
    {"export-chrome", "sharc-trace export-chrome FILE.strc [OUT.json]"},
    {"tail",
     "sharc-trace tail FILE.strc [--poll-ms N] [--idle-ms N] [--quiet]\n"
     "  follows FILE.strc, decoding records as they are appended;\n"
     "  waits up to the idle budget (default 2000 ms) for the file to\n"
     "  appear or grow, polling every N ms (default 100). Exits 0 on a\n"
     "  complete trace, 1 when the stream ends truncated or corrupt."},
    {"timeline", "sharc-trace timeline FILE.strc"},
    {"critical-path", "sharc-trace critical-path FILE.strc"},
    {"report", "sharc-trace report FILE.strc [OUT.html]"},
    {"requests",
     "sharc-trace requests FILE.strc [--tail P]\n"
     "  reconstructs every request's span tree from a v4 trace, prints\n"
     "  per-stage latency percentiles, and attributes the slowest P%\n"
     "  (default 1) of requests to their dominant stage and a concrete\n"
     "  cause (lock wait with the holding request and lock site, ingress\n"
     "  queue backlog, logger backlog, or sharing-check cost)"},
    {"scrape", "sharc-trace scrape HOST:PORT [PATH]   (default /metrics)"},
    {"check-prom", "sharc-trace check-prom FILE [FILE2]"},
    {"check-live", "sharc-trace check-live PROM.txt FILE.strc"},
    {"check-bench", "sharc-trace check-bench FILE..."},
    {"check-metrics", "sharc-trace check-metrics FILE..."},
    {"check-overhead",
     "sharc-trace check-overhead BASE.json CAND.json [--max-pct P]"},
    {"compare-runs",
     "sharc-trace compare-runs DIR [--max-pct P]\n"
     "  trends each row's timing metric and latency percentiles over the\n"
     "  archived runs; a FAIL names every bench/row:metric that regressed"},
};

bool loadOrComplain(const char *Path, obs::TraceData &Data) {
  std::string Error;
  if (!obs::loadTraceFile(Path, Data, Error)) {
    std::fprintf(stderr, "sharc-trace: %s: %s\n", Path, Error.c_str());
    return false;
  }
  return true;
}

bool readFile(const char *Path, std::string &Out) {
  std::FILE *F = std::fopen(Path, "rb");
  if (!F)
    return false;
  char Chunk[1 << 16];
  size_t N;
  while ((N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0)
    Out.append(Chunk, N);
  bool Ok = std::ferror(F) == 0;
  std::fclose(F);
  return Ok;
}

int checkJsonFiles(int Argc, char **Argv, int First,
                   bool (*Validate)(const obs::JsonValue &, std::string &),
                   const char *What) {
  if (First >= Argc) {
    std::fprintf(stderr, "sharc-trace: %s needs at least one file\n", What);
    return 2;
  }
  int Status = 0;
  for (int I = First; I < Argc; ++I) {
    std::string Text;
    if (!readFile(Argv[I], Text)) {
      std::fprintf(stderr, "sharc-trace: cannot read '%s'\n", Argv[I]);
      Status = 1;
      continue;
    }
    obs::JsonValue Doc;
    std::string Error;
    if (!parseJson(Text, Doc, Error) || !Validate(Doc, Error)) {
      std::fprintf(stderr, "sharc-trace: %s: %s\n", Argv[I], Error.c_str());
      Status = 1;
      continue;
    }
    std::printf("ok: %s\n", Argv[I]);
  }
  return Status;
}

//===----------------------------------------------------------------------===//
// Advisor validation: re-run the static pipeline with a suggestion applied
//===----------------------------------------------------------------------===//

/// Visits every expression (including subexpressions) reachable from a
/// function body, each before its children.
template <typename FnT> void forEachExpr(minic::Expr *E, FnT &Fn) {
  Fn(E);
  minic::forEachChild(E, [&](minic::Expr *Child) { forEachExpr(Child, Fn); });
}

template <typename FnT> void forEachExprInStmt(minic::Stmt *S, FnT &Fn) {
  minic::forEachChild(
      S, [&](minic::Stmt *Child) { forEachExprInStmt(Child, Fn); },
      [&](minic::Expr *E) { forEachExpr(E, Fn); });
}

enum class Verdict {
  Ok,           ///< applied annotation passes analysis + checker
  Rejected,     ///< static semantics reject the proposed mode
  SiteNotFound, ///< no expression matches the profile's (line, lvalue)
  SourceError,  ///< source missing or does not parse/type on its own
};

/// Statically validates one MakePrivate suggestion: re-parse the source,
/// locate the profiled expression by line and spelling, stamp `private`
/// on the type position the expression denotes (expression types ARE the
/// declaration-position TypeNodes, see ExprTyper.h), and re-run the
/// sharing analysis and checker. Each call works on a fresh AST so
/// validations cannot contaminate each other.
Verdict validateMakePrivate(const obs::Suggestion &S, const char *SourcePath,
                            std::string &Detail) {
  SourceManager SM;
  std::string Error;
  FileId File = SM.addFile(SourcePath, Error);
  if (File == InvalidFileId) {
    Detail = Error;
    return Verdict::SourceError;
  }
  DiagnosticEngine Diags(SM);
  minic::Parser Parser(SM, File, Diags);
  auto Prog = Parser.parseProgram();
  if (Diags.hasErrors()) {
    Detail = "source does not parse";
    return Verdict::SourceError;
  }
  minic::ExprTyper Typer(*Prog, Diags);
  if (!Typer.run()) {
    Detail = "source does not type-check";
    return Verdict::SourceError;
  }

  // Every expression on the suggested line whose spelling matches the
  // profiled l-value denotes the same cell; annotate them all (their
  // ExprTypes usually alias one declaration node anyway).
  std::vector<minic::TypeNode *> Positions;
  auto Match = [&](minic::Expr *E) {
    if (E->Loc.Line == S.Line && E->ExprType && E->spelling() == S.LValue)
      Positions.push_back(E->ExprType);
  };
  for (minic::FuncDecl *F : Prog->Funcs)
    if (F->Body) // builtins have none
      forEachExprInStmt(F->Body, Match);
  if (Positions.empty()) {
    Detail = "site not found in source";
    return Verdict::SiteNotFound;
  }
  for (minic::TypeNode *T : Positions)
    T->Q = {minic::Mode::Private, nullptr, /*Explicit=*/true};

  analysis::SharingAnalysis Analysis(*Prog, Diags);
  if (!Analysis.run()) {
    Detail = "sharing analysis rejects private here";
    return Verdict::Rejected;
  }
  checker::Checker Check(*Prog, Diags);
  if (!Check.run()) {
    Detail = "checker rejects private here";
    return Verdict::Rejected;
  }
  return Verdict::Ok;
}

int cmdProfile(int Argc, char **Argv) {
  const char *TracePath = nullptr;
  const char *SourcePath = nullptr;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--source") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "sharc-trace: --source needs a file\n");
        return 2;
      }
      SourcePath = Argv[++I];
    } else if (!TracePath) {
      TracePath = Argv[I];
    } else {
      std::fprintf(stderr, "sharc-trace: profile takes one trace file\n");
      return 2;
    }
  }
  if (!TracePath) {
    std::fprintf(stderr,
                 "sharc-trace: profile FILE.strc [--source FILE.mc]\n");
    return 2;
  }
  obs::TraceData Data;
  if (!loadOrComplain(TracePath, Data))
    return 1;
  obs::ProfileReport R = obs::buildProfile(Data);
  std::fputs(obs::renderProfile(R, Data).c_str(), stdout);

  std::vector<obs::Suggestion> Suggestions = obs::advise(R);
  if (Suggestions.empty()) {
    std::printf("\nadvice: none (no site clears the suggestion "
                "thresholds)\n");
    return 0;
  }
  // The advisor must never suggest a mode the static semantics would
  // reject: with the source at hand, each MakePrivate proposal is
  // applied to a fresh AST and re-checked, and rejected ones are
  // withheld from the advice list (shown separately for transparency).
  std::vector<std::string> Advice, Withheld;
  for (const obs::Suggestion &S : Suggestions) {
    std::string Line = "  " + obs::renderSuggestion(S);
    if (SourcePath && S.A == obs::Suggestion::Action::MakePrivate) {
      std::string Detail;
      switch (validateMakePrivate(S, SourcePath, Detail)) {
      case Verdict::Ok:
        Advice.push_back(Line + "  [checker: ok]");
        break;
      case Verdict::Rejected:
        Withheld.push_back(Line + "  [" + Detail + "]");
        break;
      case Verdict::SiteNotFound:
      case Verdict::SourceError:
        Advice.push_back(Line + "  [checker: skipped — " + Detail + "]");
        break;
      }
    } else {
      Advice.push_back(std::move(Line));
    }
  }
  std::printf("\nadvice:%s\n", Advice.empty() ? " none survived the static"
                                                " checker" : "");
  for (const std::string &Line : Advice)
    std::printf("%s\n", Line.c_str());
  if (!Withheld.empty()) {
    std::printf("\nwithheld (static checker rejects the mode change):\n");
    for (const std::string &Line : Withheld)
      std::printf("%s\n", Line.c_str());
  }
  return 0;
}

int cmdExportChrome(int Argc, char **Argv) {
  if (Argc != 3 && Argc != 4) {
    std::fprintf(stderr,
                 "sharc-trace: export-chrome FILE.strc [OUT.json]\n");
    return 2;
  }
  obs::TraceData Data;
  if (!loadOrComplain(Argv[2], Data))
    return 1;
  std::string Json = obs::renderChromeTrace(Data);
  std::string Error;
  if (!obs::validateChromeJson(Json, Error)) {
    std::fprintf(stderr, "sharc-trace: internal error: emitted JSON "
                         "fails self-validation: %s\n",
                 Error.c_str());
    return 1;
  }
  Json.push_back('\n');
  if (Argc == 4) {
    std::FILE *F = std::fopen(Argv[3], "wb");
    bool Ok =
        F && std::fwrite(Json.data(), 1, Json.size(), F) == Json.size();
    if (F && std::fclose(F) != 0)
      Ok = false;
    if (!Ok) {
      std::fprintf(stderr, "sharc-trace: cannot write '%s'\n", Argv[3]);
      return 1;
    }
  } else {
    std::fputs(Json.c_str(), stdout);
  }
  return 0;
}

int cmdMetricsDelta(const char *PathA, const char *PathB) {
  obs::TraceData A, B;
  if (!loadOrComplain(PathA, A) || !loadOrComplain(PathB, B))
    return 1;
  if (A.Samples.empty() || B.Samples.empty()) {
    std::fprintf(stderr,
                 "sharc-trace: %s has no stats samples to diff\n",
                 A.Samples.empty() ? PathA : PathB);
    return 1;
  }
  std::fputs(
      obs::statsToJson(B.Samples.back() - A.Samples.back()).c_str(),
      stdout);
  return 0;
}

/// One bench row flattened to name -> metric map for comparison.
struct BenchRows {
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, double>>>>
      Rows;

  const std::vector<std::pair<std::string, double>> *
  find(const std::string &Name) const {
    for (const auto &[RowName, Metrics] : Rows)
      if (RowName == Name)
        return &Metrics;
    return nullptr;
  }
};

bool loadBenchRows(const char *Path, BenchRows &Out) {
  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "sharc-trace: cannot read '%s'\n", Path);
    return false;
  }
  obs::JsonValue Doc;
  std::string Error;
  if (!parseJson(Text, Doc, Error) ||
      !obs::validateBenchJson(Doc, Error)) {
    std::fprintf(stderr, "sharc-trace: %s: %s\n", Path, Error.c_str());
    return false;
  }
  for (const obs::JsonValue &Row : Doc.get("rows")->Arr) {
    std::vector<std::pair<std::string, double>> Metrics;
    for (const auto &[Key, Value] : Row.get("metrics")->Obj)
      Metrics.emplace_back(Key, Value.Num);
    Out.Rows.emplace_back(Row.get("name")->Str, std::move(Metrics));
  }
  return true;
}

/// The timing metric a row is compared on: cpu_ns for google-benchmark
/// harnesses, falling back to real_ns, then to the first metric whose
/// name suggests a duration. A rate (mchecks_per_sec) is not a duration:
/// higher is better there.
const double *timingMetric(
    const std::vector<std::pair<std::string, double>> &Metrics,
    std::string &Name) {
  for (const char *Want : {"cpu_ns", "real_ns"})
    for (const auto &[Key, Value] : Metrics)
      if (Key == Want) {
        Name = Key;
        return &Value;
      }
  for (const auto &[Key, Value] : Metrics)
    if (Key.find("per_sec") == std::string::npos &&
        (Key.find("_ns") != std::string::npos ||
         Key.find("_sec") != std::string::npos ||
         Key.find("seconds") != std::string::npos)) {
      Name = Key;
      return &Value;
    }
  return nullptr;
}

/// True for latency-percentile metric keys: 'p' followed by digits, then
/// end-of-name or a unit suffix — p50, p99_us, p999_us. compare-runs
/// gates these alongside the timing metric so tail-latency regressions
/// (which leave wall time untouched in an open-loop run) still fail.
bool isPercentileMetric(const std::string &Key) {
  if (Key.size() < 2 || Key[0] != 'p')
    return false;
  size_t I = 1;
  while (I < Key.size() && Key[I] >= '0' && Key[I] <= '9')
    ++I;
  return I > 1 && (I == Key.size() || Key[I] == '_');
}

int cmdCheckOverhead(int Argc, char **Argv) {
  double MaxPct = 2.0;
  const char *PathA = nullptr, *PathB = nullptr;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--max-pct") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "sharc-trace: --max-pct needs a value\n");
        return 2;
      }
      char *End = nullptr;
      MaxPct = std::strtod(Argv[++I], &End);
      if (!End || *End != '\0' || MaxPct < 0) {
        std::fprintf(stderr,
                     "sharc-trace: --max-pct expects a number, got '%s'\n",
                     Argv[I]);
        return 2;
      }
    } else if (!PathA) {
      PathA = Argv[I];
    } else if (!PathB) {
      PathB = Argv[I];
    } else {
      std::fprintf(stderr, "sharc-trace: check-overhead takes two files\n");
      return 2;
    }
  }
  if (!PathA || !PathB) {
    std::fprintf(
        stderr,
        "sharc-trace: check-overhead BASE.json CAND.json [--max-pct P]\n");
    return 2;
  }
  BenchRows Base, Cand;
  if (!loadBenchRows(PathA, Base) || !loadBenchRows(PathB, Cand))
    return 1;

  int Status = 0;
  unsigned Compared = 0;
  for (const auto &[Name, BaseMetrics] : Base.Rows) {
    const auto *CandMetrics = Cand.find(Name);
    if (!CandMetrics)
      continue;
    std::string MetricName;
    const double *BaseVal = timingMetric(BaseMetrics, MetricName);
    if (!BaseVal)
      continue;
    const double *CandVal = nullptr;
    for (const auto &[Key, Value] : *CandMetrics)
      if (Key == MetricName)
        CandVal = &Value;
    if (!CandVal || *BaseVal <= 0)
      continue;
    ++Compared;
    double Pct = 100.0 * (*CandVal - *BaseVal) / *BaseVal;
    if (Pct > MaxPct) {
      std::printf("FAIL %-32s %s %.1f -> %.1f (%+.2f%% > %.2f%%)\n",
                  Name.c_str(), MetricName.c_str(), *BaseVal, *CandVal,
                  Pct, MaxPct);
      Status = 1;
    } else {
      std::printf("ok   %-32s %s %.1f -> %.1f (%+.2f%%)\n", Name.c_str(),
                  MetricName.c_str(), *BaseVal, *CandVal, Pct);
    }
  }
  if (Compared == 0) {
    std::fprintf(stderr,
                 "sharc-trace: no comparable rows between '%s' and '%s'\n",
                 PathA, PathB);
    return 1;
  }
  return Status;
}

//===----------------------------------------------------------------------===//
// sharc-live: tail / timeline / critical-path / report
//===----------------------------------------------------------------------===//

/// One decoded event in the dump line format (kept in sync with
/// renderDump so `tail` output lines match `dump` output lines).
void printEventLine(const obs::Event &Ev) {
  std::printf("%s tid=%u addr=%llu", obs::eventKindName(Ev.K), Ev.Tid,
              static_cast<unsigned long long>(Ev.Addr));
  if (Ev.Value)
    std::printf(" value=%lld", static_cast<long long>(Ev.Value));
  if (Ev.Extra) {
    if (Ev.K == obs::EventKind::Conflict)
      std::printf(" kind=%s line=%u prev-line=%u",
                  obs::conflictKindName(obs::conflictKindOf(Ev.Extra)),
                  obs::conflictWhoLine(Ev.Extra),
                  obs::conflictLastLine(Ev.Extra));
    else
      std::printf(" extra=%llu", static_cast<unsigned long long>(Ev.Extra));
  }
  std::printf("\n");
}

/// Parses "--flag N" / "--flag=N" unsigned arguments for the tail and
/// compare-runs option loops.
bool numArg(const char *Flag, int Argc, char **Argv, int &I, uint64_t &Out) {
  const char *Value = nullptr;
  if (!matchValueFlag(Flag, Argc, Argv, I, Value))
    return false;
  if (!Value || !*Value) {
    std::fprintf(stderr, "sharc-trace: %s needs a value\n", Flag);
    std::exit(2);
  }
  if (!parseFlagU64("sharc-trace", Flag, Value, Out))
    std::exit(2);
  return true;
}

int cmdTail(int Argc, char **Argv) {
  const char *Path = nullptr;
  uint64_t PollMs = 100, IdleMs = 2000;
  bool Quiet = false;
  for (int I = 2; I < Argc; ++I) {
    uint64_t V;
    if (numArg("--poll-ms", Argc, Argv, I, V)) {
      PollMs = V ? V : 1;
    } else if (numArg("--idle-ms", Argc, Argv, I, V)) {
      IdleMs = V;
    } else if (std::strcmp(Argv[I], "--quiet") == 0) {
      Quiet = true;
    } else if (!Path) {
      Path = Argv[I];
    } else {
      std::fprintf(stderr, "sharc-trace: tail takes one trace file\n");
      return 2;
    }
  }
  if (!Path) {
    std::fprintf(stderr, "sharc-trace: tail FILE.strc [--poll-ms N] "
                         "[--idle-ms N] [--quiet]\n");
    return 2;
  }

  auto Sleep = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(PollMs));
  };

  // The file may not exist yet (the producer has not flushed); burn the
  // idle budget waiting for it to appear.
  std::FILE *F = nullptr;
  uint64_t Idle = 0;
  while (!(F = std::fopen(Path, "rb"))) {
    if (Idle >= IdleMs) {
      std::fprintf(stderr, "sharc-trace: cannot open '%s'\n", Path);
      return 1;
    }
    Sleep();
    Idle += PollMs;
  }

  obs::TailParser P;
  size_t PrintedEvents = 0, PrintedSamples = 0;
  auto drainPrints = [&] {
    if (Quiet)
      return;
    const obs::TraceData &D = P.data();
    while (PrintedEvents < D.Events.size() ||
           PrintedSamples < D.Samples.size()) {
      if (PrintedSamples < D.Samples.size() &&
          D.SamplePos[PrintedSamples] <= PrintedEvents) {
        const rt::StatsSnapshot &S = D.Samples[PrintedSamples];
        std::printf("stats-sample accesses=%llu conflicts=%llu "
                    "metadata-bytes=%llu\n",
                    static_cast<unsigned long long>(S.dynamicAccesses()),
                    static_cast<unsigned long long>(S.totalConflicts()),
                    static_cast<unsigned long long>(S.metadataBytes()));
        ++PrintedSamples;
        continue;
      }
      if (PrintedEvents < D.Events.size()) {
        printEventLine(D.Events[PrintedEvents]);
        ++PrintedEvents;
        continue;
      }
      break;
    }
    std::fflush(stdout);
  };

  Idle = 0;
  char Chunk[1 << 16];
  while (true) {
    size_t N = std::fread(Chunk, 1, sizeof(Chunk), F);
    if (N > 0) {
      Idle = 0;
      P.push({Chunk, N});
      drainPrints();
      if (P.done() || P.corrupt())
        break;
      continue;
    }
    if (std::ferror(F) != 0) {
      std::fprintf(stderr, "sharc-trace: read error on '%s'\n", Path);
      std::fclose(F);
      return 1;
    }
    if (P.done() || P.corrupt() || Idle >= IdleMs)
      break;
    std::clearerr(F); // EOF for now; the file may still grow
    Sleep();
    Idle += PollMs;
  }
  std::fclose(F);

  const obs::TraceData &D = P.data();
  if (P.done()) {
    std::printf("tail: complete trace: %llu records (%zu events, %zu "
                "stats samples)\n",
                static_cast<unsigned long long>(P.recordCount()),
                D.Events.size(), D.Samples.size());
    if (D.AbnormalEnd)
      std::printf("tail: abnormal end (signal %u); the producer died "
                  "mid-run but flushed its trace\n",
                  D.AbnormalSignal);
    return 0;
  }
  std::fprintf(stderr, "sharc-trace: %s: %s\n", Path,
               P.diagnosis().c_str());
  std::fprintf(stderr,
               "tail: stream ended after %llu records (%zu events); the "
               "timeline/report commands accept this prefix\n",
               static_cast<unsigned long long>(P.recordCount()),
               D.Events.size());
  return 1;
}

/// Loads a trace for causal analysis. Unlike loadOrComplain, a
/// truncated (e.g. torn-write) trace is not fatal: the decodable prefix
/// is analysed, with \p Note carrying the truncation diagnosis. Only
/// structural corruption (or an unreadable header) fails.
bool loadForCausal(const char *Path, obs::TraceData &Data,
                   std::string &Note) {
  std::string Error;
  if (obs::loadTraceFile(Path, Data, Error))
    return true;
  std::string Bytes;
  if (!readFile(Path, Bytes)) {
    std::fprintf(stderr, "sharc-trace: cannot read '%s'\n", Path);
    return false;
  }
  obs::TailParser P;
  P.push(Bytes);
  if (P.corrupt() || P.state() == obs::TailParser::State::Header) {
    std::fprintf(stderr, "sharc-trace: %s: %s\n", Path, Error.c_str());
    return false;
  }
  Data = P.data();
  Note = P.diagnosis() + "; analyzing the " +
         std::to_string(P.recordCount()) + " decoded records";
  return true;
}

int cmdTimeline(int Argc, char **Argv, bool WantCriticalPath) {
  if (Argc != 3) {
    std::fprintf(stderr, "sharc-trace: %s takes exactly one trace file\n",
                 Argv[1]);
    return 2;
  }
  obs::TraceData Data;
  std::string Note;
  if (!loadForCausal(Argv[2], Data, Note))
    return 1;
  if (!Note.empty())
    std::printf("note: %s\n", Note.c_str());
  obs::CausalReport R = obs::buildCausal(Data);
  if (WantCriticalPath) {
    obs::CriticalPath P = obs::criticalPath(R, Data);
    std::fputs(obs::renderCriticalPath(P, Data).c_str(), stdout);
  } else {
    std::fputs(obs::renderTimeline(R, Data).c_str(), stdout);
  }
  return 0;
}

int cmdReport(int Argc, char **Argv) {
  if (Argc != 3 && Argc != 4) {
    std::fprintf(stderr, "sharc-trace: report FILE.strc [OUT.html]\n");
    return 2;
  }
  obs::TraceData Data;
  std::string Note;
  if (!loadForCausal(Argv[2], Data, Note))
    return 1;
  obs::CausalReport R = obs::buildCausal(Data);
  std::string Html = obs::renderHtmlReport(Data, R, Argv[2], Note);
  std::string Error;
  if (!obs::validateHtmlReport(Html, Error)) {
    std::fprintf(stderr, "sharc-trace: internal error: emitted HTML "
                         "fails self-validation: %s\n",
                 Error.c_str());
    return 1;
  }
  if (Argc == 4) {
    std::FILE *F = std::fopen(Argv[3], "wb");
    bool Ok =
        F && std::fwrite(Html.data(), 1, Html.size(), F) == Html.size();
    if (F && std::fclose(F) != 0)
      Ok = false;
    if (!Ok) {
      std::fprintf(stderr, "sharc-trace: cannot write '%s'\n", Argv[3]);
      return 1;
    }
  } else {
    std::fputs(Html.c_str(), stdout);
  }
  return 0;
}

int cmdRequests(int Argc, char **Argv) {
  double TailPct = 1.0;
  const char *Path = nullptr;
  bool Bad = false;
  for (int I = 2; I < Argc && !Bad; ++I) {
    if (std::strcmp(Argv[I], "--tail") == 0 ||
        std::strncmp(Argv[I], "--tail=", 7) == 0) {
      const char *Value = Argv[I][6] == '=' ? Argv[I] + 7
                          : I + 1 < Argc    ? Argv[++I]
                                            : nullptr;
      char *End = nullptr;
      TailPct = Value ? std::strtod(Value, &End) : 0;
      if (!Value || !End || *End != '\0' || TailPct <= 0 || TailPct > 100) {
        std::fprintf(stderr,
                     "sharc-trace: --tail expects a percentage in (0,100]\n");
        return 2;
      }
    } else if (!Path && Argv[I][0] != '-') {
      Path = Argv[I];
    } else {
      Bad = true;
    }
  }
  if (Bad || !Path) {
    std::fprintf(stderr, "sharc-trace: requests FILE.strc [--tail P]\n");
    return 2;
  }
  obs::TraceData Data;
  std::string Note;
  if (!loadForCausal(Path, Data, Note))
    return 1;
  if (!Note.empty())
    std::printf("note: %s\n", Note.c_str());
  obs::RequestsReport R = obs::buildRequests(Data);
  if (R.Requests.empty()) {
    std::fprintf(stderr,
                 "sharc-trace: %s carries no span records — record one "
                 "with sharc-serve --trace-out (trace format v4)\n",
                 Path);
    return 1;
  }
  std::fputs(obs::renderRequests(R, Data, TailPct).c_str(), stdout);
  return 0;
}

//===----------------------------------------------------------------------===//
// Live endpoint: scrape / check-prom / check-live
//===----------------------------------------------------------------------===//

int cmdScrape(int Argc, char **Argv) {
  if (Argc != 3 && Argc != 4) {
    std::fprintf(stderr, "sharc-trace: scrape HOST:PORT [PATH]\n");
    return 2;
  }
  std::string Host, Error;
  uint16_t Port = 0;
  if (!live::splitHostPort(Argv[2], Host, Port, Error)) {
    std::fprintf(stderr, "sharc-trace: %s\n", Error.c_str());
    return 2;
  }
  std::string Body;
  if (!live::httpGet(Host, Port, Argc == 4 ? Argv[3] : "/metrics", Body,
                     Error)) {
    std::fprintf(stderr, "sharc-trace: scrape %s: %s\n", Argv[2],
                 Error.c_str());
    return 1;
  }
  std::fputs(Body.c_str(), stdout);
  return 0;
}

int cmdCheckProm(int Argc, char **Argv) {
  if (Argc != 3 && Argc != 4) {
    std::fprintf(stderr, "sharc-trace: check-prom FILE [FILE2]\n");
    return 2;
  }
  obs::PromDoc Docs[2];
  for (int I = 2; I < Argc; ++I) {
    std::string Text, Error;
    if (!readFile(Argv[I], Text)) {
      std::fprintf(stderr, "sharc-trace: cannot read '%s'\n", Argv[I]);
      return 1;
    }
    if (!obs::parsePromText(Text, Docs[I - 2], Error)) {
      std::fprintf(stderr, "sharc-trace: %s: %s\n", Argv[I], Error.c_str());
      return 1;
    }
    std::printf("ok: %s (%zu series, %zu families)\n", Argv[I],
                Docs[I - 2].Samples.size(), Docs[I - 2].Families.size());
  }
  if (Argc == 4) {
    std::string Error;
    if (!obs::checkPromMonotonic(Docs[0], Docs[1], Error)) {
      std::fprintf(stderr, "sharc-trace: %s\n", Error.c_str());
      return 1;
    }
    std::printf("ok: counters monotonic across the two scrapes\n");
  }
  return 0;
}

int cmdCheckLive(int Argc, char **Argv) {
  if (Argc != 4) {
    std::fprintf(stderr, "sharc-trace: check-live PROM.txt FILE.strc\n");
    return 2;
  }
  std::string Text, Error;
  if (!readFile(Argv[2], Text)) {
    std::fprintf(stderr, "sharc-trace: cannot read '%s'\n", Argv[2]);
    return 1;
  }
  obs::PromDoc Doc;
  if (!obs::parsePromText(Text, Doc, Error)) {
    std::fprintf(stderr, "sharc-trace: %s: %s\n", Argv[2], Error.c_str());
    return 1;
  }
  obs::TraceData Data;
  if (!loadOrComplain(Argv[3], Data))
    return 1;
  if (Data.Samples.empty()) {
    std::fprintf(stderr,
                 "sharc-trace: %s has no stats samples to compare\n",
                 Argv[3]);
    return 1;
  }

  // The endpoint and this checker share one metric mapping
  // (live::forEachStatMetric), so a drift between them is impossible
  // by construction; what this verifies is the *values* — the final
  // scrape must equal the trace's final stats sample, counter by
  // counter, with exact integer rendering.
  int Status = 0;
  unsigned Checked = 0;
  live::forEachStatMetric(
      Data.Samples.back(),
      [&](const char *Family, const char *LabelKey, const char *LabelValue,
          uint64_t Value) {
        std::string Key = Family;
        if (LabelKey)
          Key += std::string("{") + LabelKey + "=\"" + LabelValue + "\"}";
        const obs::PromDoc::Sample *S = Doc.find(Key);
        if (!S) {
          std::printf("FAIL %-48s missing from the scrape\n", Key.c_str());
          Status = 1;
          return;
        }
        ++Checked;
        if (S->ValueText != std::to_string(Value)) {
          std::printf("FAIL %-48s scrape %s != trace %llu\n", Key.c_str(),
                      S->ValueText.c_str(),
                      static_cast<unsigned long long>(Value));
          Status = 1;
        }
      });
  if (Status == 0)
    std::printf("ok: %u series exactly match the trace's final stats "
                "sample\n",
                Checked);
  return Status;
}

//===----------------------------------------------------------------------===//
// compare-runs: the cross-run perf trajectory
//===----------------------------------------------------------------------===//

struct ArchivedRun {
  std::string Path;
  std::string Bench;
  std::string Rev;
  uint64_t UnixTime = 0; ///< host.unix_time; 0 in pre-ISSUE-5 archives
  BenchRows Rows;
};

bool loadArchivedRun(const std::string &Path, ArchivedRun &Out) {
  std::string Text;
  if (!readFile(Path.c_str(), Text)) {
    std::fprintf(stderr, "sharc-trace: cannot read '%s'\n", Path.c_str());
    return false;
  }
  obs::JsonValue Doc;
  std::string Error;
  if (!parseJson(Text, Doc, Error) || !obs::validateBenchJson(Doc, Error)) {
    std::fprintf(stderr, "sharc-trace: %s: %s\n", Path.c_str(),
                 Error.c_str());
    return false;
  }
  Out.Path = Path;
  Out.Bench = Doc.get("bench")->Str;
  const obs::JsonValue *Host = Doc.get("host");
  Out.Rev = Host->get("git_rev")->Str;
  if (const obs::JsonValue *T = Host->get("unix_time"); T && T->isNumber())
    Out.UnixTime = static_cast<uint64_t>(T->Num);
  for (const obs::JsonValue &Row : Doc.get("rows")->Arr) {
    std::vector<std::pair<std::string, double>> Metrics;
    for (const auto &[Key, Value] : Row.get("metrics")->Obj)
      Metrics.emplace_back(Key, Value.Num);
    Out.Rows.Rows.emplace_back(Row.get("name")->Str, std::move(Metrics));
  }
  // serve.stages percentiles ride along as pseudo-rows so the per-stage
  // breakdown is trended exactly like the top-level latency rows; the
  // sharc-storm serve.resilience block gets the same lift so shed rates
  // and time-to-recover trend across commits too.
  if (const obs::JsonValue *Serve = Doc.get("serve")) {
    if (const obs::JsonValue *Stages = Serve->get("stages"))
      for (const auto &[Stage, Obj] : Stages->Obj) {
        std::vector<std::pair<std::string, double>> Metrics;
        for (const auto &[Key, Value] : Obj.Obj)
          Metrics.emplace_back(Key, Value.Num);
        Out.Rows.Rows.emplace_back("stages/" + Stage, std::move(Metrics));
      }
    if (const obs::JsonValue *Res = Serve->get("resilience")) {
      std::vector<std::pair<std::string, double>> Metrics;
      for (const auto &[Key, Value] : Res->Obj) {
        // ttr_p50_us -> p50_us so the time-to-recover percentiles match
        // the percentile-metric predicate and trend like any latency
        // row; the raw counters ride along unrenamed (archived, not
        // gated — shed counts depend on the machine's momentary load).
        std::string Name =
            Key.rfind("ttr_", 0) == 0 ? Key.substr(4) : Key;
        Metrics.emplace_back(Name, Value.Num);
      }
      Out.Rows.Rows.emplace_back("resilience", std::move(Metrics));
    }
  }
  return true;
}

int cmdCompareRuns(int Argc, char **Argv) {
  double MaxPct = 10.0;
  const char *Dir = nullptr;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--max-pct") == 0 ||
        std::strncmp(Argv[I], "--max-pct=", 10) == 0) {
      const char *Value = Argv[I][9] == '=' ? Argv[I] + 10
                          : I + 1 < Argc    ? Argv[++I]
                                            : nullptr;
      char *End = nullptr;
      MaxPct = Value ? std::strtod(Value, &End) : -1;
      if (!Value || !End || *End != '\0' || MaxPct < 0) {
        std::fprintf(stderr, "sharc-trace: --max-pct expects a number\n");
        return 2;
      }
    } else if (!Dir) {
      Dir = Argv[I];
    } else {
      std::fprintf(stderr, "sharc-trace: compare-runs takes one "
                           "directory\n");
      return 2;
    }
  }
  if (!Dir) {
    std::fprintf(stderr, "sharc-trace: compare-runs DIR [--max-pct P]\n");
    return 2;
  }

  std::vector<std::string> Files;
  if (DIR *D = opendir(Dir)) {
    while (const dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > 5 && Name.rfind(".json") == Name.size() - 5)
        Files.push_back(std::string(Dir) + "/" + Name);
    }
    closedir(D);
  } else {
    std::fprintf(stderr, "sharc-trace: cannot open directory '%s'\n", Dir);
    return 1;
  }
  if (Files.empty()) {
    std::fprintf(stderr,
                 "sharc-trace: no .json archives in '%s' — has ci.sh run "
                 "with history archiving yet?\n",
                 Dir);
    return 1;
  }
  std::sort(Files.begin(), Files.end());

  std::vector<ArchivedRun> Runs;
  for (const std::string &F : Files) {
    ArchivedRun R;
    if (!loadArchivedRun(F, R))
      return 1;
    Runs.push_back(std::move(R));
  }
  // Oldest -> newest: the embedded timestamp orders runs; name order
  // breaks ties (and orders pre-timestamp archives).
  std::stable_sort(Runs.begin(), Runs.end(),
                   [](const ArchivedRun &A, const ArchivedRun &B) {
                     return A.UnixTime < B.UnixTime;
                   });

  std::printf("comparing %zu archived run(s) in %s (oldest -> newest):\n",
              Runs.size(), Dir);
  for (const ArchivedRun &R : Runs)
    std::printf("  %-12s %s\n", R.Rev.c_str(), R.Path.c_str());

  // Per-benchmark series across runs: each row is trended on its timing
  // metric plus every latency percentile it carries (p50_us, p99_us,
  // p999_us, ... — sharc-serve's tail-latency rows), so a change that
  // keeps the mean but fattens the tail still trips the gate.
  std::printf("\n%-36s %4s %12s %12s %12s %12s  %s\n", "benchmark", "runs",
              "first", "best", "prev", "last", "last-vs-prev");
  int Status = 0;
  std::vector<std::string> Seen;
  std::vector<std::string> Regressed;
  for (const ArchivedRun &Origin : Runs) {
    for (const auto &[Name, OriginMetrics] : Origin.Rows.Rows) {
      std::string RowKey = Origin.Bench + "/" + Name;
      if (std::find(Seen.begin(), Seen.end(), RowKey) != Seen.end())
        continue;
      Seen.push_back(RowKey);
      std::vector<std::string> MetricNames;
      std::string TimingName;
      if (timingMetric(OriginMetrics, TimingName))
        MetricNames.push_back(TimingName);
      for (const auto &[K, V] : OriginMetrics)
        if (isPercentileMetric(K) && K != TimingName)
          MetricNames.push_back(K);
      for (const std::string &MetricName : MetricNames) {
        // The timing metric keeps the bare bench/name key the archives
        // have always printed; extra gated metrics are qualified.
        std::string Key = MetricName == TimingName
                              ? RowKey
                              : RowKey + ":" + MetricName;
        std::vector<double> Series;
        for (const ArchivedRun &R : Runs) {
          if (R.Bench != Origin.Bench)
            continue;
          const auto *Metrics = R.Rows.find(Name);
          if (!Metrics)
            continue;
          for (const auto &[K, V] : *Metrics)
            if (K == MetricName && V > 0)
              Series.push_back(V);
        }
        if (Series.empty())
          continue;
        double First = Series.front(), Last = Series.back();
        double Best = *std::min_element(Series.begin(), Series.end());
        if (Series.size() < 2) {
          std::printf("%-36s %4zu %12.4g %12.4g %12s %12.4g  (single run)\n",
                      Key.c_str(), Series.size(), First, Best, "-", Last);
          continue;
        }
        double Prev = Series[Series.size() - 2];
        double Pct = Prev > 0 ? 100.0 * (Last - Prev) / Prev : 0;
        bool Regress = Pct > MaxPct;
        std::printf("%-36s %4zu %12.4g %12.4g %12.4g %12.4g  %+.2f%%%s\n",
                    Key.c_str(), Series.size(), First, Best, Prev, Last, Pct,
                    Regress ? "  REGRESSION" : "");
        if (Regress) {
          Status = 1;
          Regressed.push_back(RowKey + ":" + MetricName);
        }
      }
    }
  }
  if (Status) {
    // Name the offenders: a CI log reader should not have to scan the
    // table to learn which metric moved.
    std::string List;
    for (const std::string &R : Regressed)
      List += (List.empty() ? "" : ", ") + R;
    std::printf("\nFAIL: the newest run regressed %s by more than %.1f%% "
                "over the previous run\n",
                List.c_str(), MaxPct);
  }
  return Status;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    printUsage(stderr);
    return 2;
  }
  std::string Cmd = Argv[1];
  if (Cmd == "--help" || Cmd == "-h" || Cmd == "help") {
    printUsage(stdout);
    return 0;
  }

  // Every known subcommand answers `sharc-trace CMD --help` with its own
  // usage line and exit 0; an unknown subcommand still falls through to
  // the exit-2 path at the bottom.
  if (Argc >= 3 && std::strcmp(Argv[2], "--help") == 0) {
    for (const SubcommandHelp &H : SubcommandHelps) {
      if (Cmd == H.Name) {
        std::printf("usage: %s\n", H.Usage);
        return 0;
      }
    }
  }

  if (Cmd == "metrics" && Argc >= 3 && std::strcmp(Argv[2], "--delta") == 0) {
    if (Argc != 5) {
      std::fprintf(stderr,
                   "sharc-trace: metrics --delta takes two trace files\n");
      return 2;
    }
    return cmdMetricsDelta(Argv[3], Argv[4]);
  }

  if (Cmd == "summarize" || Cmd == "dump" || Cmd == "schedule" ||
      Cmd == "metrics") {
    if (Argc != 3) {
      std::fprintf(stderr, "sharc-trace: %s takes exactly one trace file\n",
                   Cmd.c_str());
      return 2;
    }
    obs::TraceData Data;
    if (!loadOrComplain(Argv[2], Data))
      return 1;
    if (Cmd == "summarize") {
      obs::TraceSummary Sum = obs::summarize(Data);
      std::fputs(obs::renderSummary(Sum, Data).c_str(), stdout);
    } else if (Cmd == "dump") {
      std::fputs(obs::renderDump(Data).c_str(), stdout);
    } else if (Cmd == "schedule") {
      std::fputs(obs::renderSchedule(Data).c_str(), stdout);
    } else { // metrics
      if (Data.Samples.empty()) {
        std::fprintf(stderr,
                     "sharc-trace: %s has no stats samples to export\n",
                     Argv[2]);
        return 1;
      }
      std::fputs(obs::statsToJson(Data.Samples.back()).c_str(), stdout);
    }
    return 0;
  }

  if (Cmd == "profile")
    return cmdProfile(Argc, Argv);
  if (Cmd == "export-chrome")
    return cmdExportChrome(Argc, Argv);
  if (Cmd == "check-overhead")
    return cmdCheckOverhead(Argc, Argv);

  if (Cmd == "tail")
    return cmdTail(Argc, Argv);
  if (Cmd == "timeline")
    return cmdTimeline(Argc, Argv, /*WantCriticalPath=*/false);
  if (Cmd == "critical-path")
    return cmdTimeline(Argc, Argv, /*WantCriticalPath=*/true);
  if (Cmd == "report")
    return cmdReport(Argc, Argv);
  if (Cmd == "requests")
    return cmdRequests(Argc, Argv);
  if (Cmd == "scrape")
    return cmdScrape(Argc, Argv);
  if (Cmd == "check-prom")
    return cmdCheckProm(Argc, Argv);
  if (Cmd == "check-live")
    return cmdCheckLive(Argc, Argv);
  if (Cmd == "compare-runs")
    return cmdCompareRuns(Argc, Argv);

  if (Cmd == "check-bench")
    return checkJsonFiles(Argc, Argv, 2, obs::validateBenchJson,
                          "check-bench");
  if (Cmd == "check-metrics")
    return checkJsonFiles(Argc, Argv, 2, obs::validateMetricsJson,
                          "check-metrics");

  std::fprintf(stderr, "sharc-trace: unknown command '%s'\n", Cmd.c_str());
  printUsage(stderr);
  return 2;
}
