//===-- serve/ServeMain.cpp - The sharc-serve driver ----------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sharc-serve: the high-traffic scenario driver (DESIGN.md §15). Runs
/// the annotated request server (or the uninstrumented baseline with
/// --unchecked) under an open-loop Poisson load, reports throughput and
/// p50/p99/p999 latency, optionally serves the live /metrics endpoint
/// mid-run (--stats-addr, scraped once at the schedule midpoint and
/// folded into the JSON), and writes a sharc-bench-v1 report with a
/// "serve" section (--json).
///
/// Exit status follows the pinned sharcc contract: 0 clean (violations
/// permitted by continue/quarantine included); 1 violations under the
/// abort policy; 2 usage or output I/O errors; 3 internal errors.
///
//===----------------------------------------------------------------------===//

#include "serve/LoadGen.h"
#include "serve/Server.h"

#include "BenchUtil.h"
#include "obs/Collector.h"
#include "obs/Json.h"
#include "obs/TraceFile.h"
#include "rt/Guard.h"
#include "rt/Runtime.h"
#include "rt/StatsServer.h"
#include "support/NumericArg.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

using namespace sharc;
using namespace sharc::serve;

namespace {

struct ServeOptions {
  LoadConfig Load;
  ServeParams Params;
  bool Unchecked = false;
  bool Quiet = false;
  std::string StatsAddr;
  std::string JsonPath;
  std::string TracePath;
  guard::Policy OnViolation = guard::Policy::Abort;
  bool PolicyExplicit = false; ///< --on-violation given (beats env).
  guard::FaultConfig Chaos;    ///< --chaos / SHARC_FAULT serve faults.
  bool ChaosGiven = false;     ///< --chaos given (beats env).
};

void printUsage(std::FILE *Out) {
  std::fprintf(
      Out,
      "usage: sharc-serve [options]\n"
      "\n"
      "The high-traffic scenario: an annotated multi-threaded request\n"
      "server (acceptor / worker pool / logger; session cache, connection\n"
      "table and stats carry SharC sharing modes) driven by an open-loop\n"
      "Poisson load generator. See DESIGN.md section 15.\n"
      "\n"
      "load:\n"
      "  --clients N          distinct simulated clients (default 100000)\n"
      "  --reqs-per-client N  connections per client (default 1)\n"
      "  --rate N             aggregate arrival rate, req/s (default 50000)\n"
      "  --payload N          request payload bytes (default 256)\n"
      "  --seed N             schedule + payload seed (default 1)\n"
      "server:\n"
      "  --workers N          worker threads (default 2, max 12)\n"
      "  --service-us N       simulated backend CPU per request (default 20)\n"
      "  --unchecked          run the uninstrumented baseline (orig)\n"
      "  --inject-race[=N]    skip the session-cache lock on every Nth\n"
      "                       request (default 64) — the serve_guard bug\n"
      "  --inject-stall[=N]   spin 2ms inside the session-shard lock on\n"
      "                       every Nth request (default 64) — a tail-\n"
      "                       latency bug for `sharc-trace requests`\n"
      "  --on-violation=P     abort|continue|quarantine (default abort;\n"
      "                       SHARC_POLICY overrides the default)\n"
      "  --stats-addr H:P     serve live /metrics; scraped at the schedule\n"
      "                       midpoint into the report (port 0 = ephemeral)\n"
      "resilience (sharc-storm; any of these arms the layer — shedding,\n"
      "deadline drops, degraded mode, client retries with backoff — and\n"
      "the serve.resilience report block; see DESIGN.md section 17):\n"
      "  --max-inflight N     admission cap on live connections; at the\n"
      "                       cap new connections are shed with a typed\n"
      "                       rejection (default 0 = ring-bounded only)\n"
      "  --deadline-ms N      per-request budget from scheduled arrival:\n"
      "                       stale requests are shed at admission and\n"
      "                       dropped at dequeue (default 0 = none)\n"
      "  --chaos SPEC         comma-separated fault plan (the SHARC_FAULT\n"
      "                       grammar): conn-reset:N, slow-peer:U,\n"
      "                       worker-stall[:M] (default 5ms), \n"
      "                       worker-crash[:K] (default 200),\n"
      "                       logger-wedge[:M] (default 50ms); the env\n"
      "                       var arms the same plan when --chaos absent\n"
      "output:\n"
      "  --json FILE          write a sharc-bench-v1 report (serve section\n"
      "                       included; `sharc-trace check-bench` clean)\n"
      "  --trace-out FILE     write a v4 .strc with request spans for every\n"
      "                       pipeline stage (analyze with `sharc-trace\n"
      "                       requests`); with repetitions the last rep's\n"
      "                       trace is the one kept (default off)\n"
      "  --quiet              suppress the text summary\n"
      "  --help               this text\n"
      "\n"
      "SHARC_BENCH_REPS (env) repeats the run, keeping the rep with the\n"
      "least handler CPU (default 3).\n"
      "\n"
      "exit status: 0 clean (violations permitted by continue/quarantine\n"
      "included); 1 violations under the abort policy; 2 usage or output\n"
      "I/O errors; 3 internal errors\n");
}

bool parseU64Arg(const char *Flag, const char *Text, uint64_t &Out) {
  return parseFlagU64("sharc-serve", Flag, Text, Out);
}

bool needValue(const char *Flag, const char *Value) {
  if (Value)
    return true;
  std::fprintf(stderr, "sharc-serve: %s needs a value\n", Flag);
  return false;
}

/// Optional-period flags: "--flag" (bare, uses \p Default), "--flag=N",
/// or "--flag N". The period must be positive in BOTH value spellings —
/// a 0 period means "never", which is what omitting the flag says — and
/// the space form only consumes a following argument that looks numeric,
/// so "--inject-race --quiet" still parses.
bool parsePeriodFlag(const char *Flag, int Argc, char **Argv, int &I,
                     uint64_t Default, uint64_t &Out) {
  const char *Arg = Argv[I];
  size_t Len = std::strlen(Flag);
  const char *Value = nullptr;
  if (Arg[Len] == '=') {
    Value = Arg + Len + 1;
  } else if (I + 1 < Argc && Argv[I + 1][0] >= '0' && Argv[I + 1][0] <= '9') {
    Value = Argv[++I];
  } else {
    Out = Default;
    return true;
  }
  if (!parseU64Arg(Flag, Value, Out))
    return false;
  if (Out == 0) {
    std::fprintf(stderr,
                 "sharc-serve: %s expects a positive period, got 0 "
                 "(omit the flag to disable the injection)\n",
                 Flag);
    return false;
  }
  return true;
}

/// 0 = parsed; 1 = --help (exit 0); 2 = usage error.
int parseArgs(int Argc, char **Argv, ServeOptions &Opt) {
  if (const char *Env = std::getenv("SHARC_POLICY")) {
    if (!guard::parsePolicy(Env, Opt.OnViolation)) {
      std::fprintf(stderr,
                   "sharc-serve: SHARC_POLICY must be abort, continue, or "
                   "quarantine; got '%s'\n",
                   Env);
      return 2;
    }
  }
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    const char *Value = nullptr;
    uint64_t Num = 0;
    if (Arg == "--help" || Arg == "-h") {
      printUsage(stdout);
      return 1;
    } else if (matchValueFlag("--clients", Argc, Argv, I, Value)) {
      if (!needValue("--clients", Value) ||
          !parseU64Arg("--clients", Value, Opt.Load.Clients))
        return 2;
    } else if (matchValueFlag("--reqs-per-client", Argc, Argv, I, Value)) {
      if (!needValue("--reqs-per-client", Value) ||
          !parseU64Arg("--reqs-per-client", Value,
                       Opt.Load.RequestsPerClient))
        return 2;
    } else if (matchValueFlag("--rate", Argc, Argv, I, Value)) {
      if (!needValue("--rate", Value) ||
          !parseU64Arg("--rate", Value, Opt.Load.RatePerSec))
        return 2;
    } else if (matchValueFlag("--payload", Argc, Argv, I, Value)) {
      if (!needValue("--payload", Value) ||
          !parseU64Arg("--payload", Value, Num))
        return 2;
      if (Num > (1u << 20)) {
        std::fprintf(stderr, "sharc-serve: --payload is capped at 1 MiB\n");
        return 2;
      }
      Opt.Load.PayloadBytes = static_cast<uint32_t>(Num);
    } else if (matchValueFlag("--seed", Argc, Argv, I, Value)) {
      if (!needValue("--seed", Value) ||
          !parseU64Arg("--seed", Value, Opt.Load.Seed))
        return 2;
    } else if (matchValueFlag("--workers", Argc, Argv, I, Value)) {
      if (!needValue("--workers", Value) ||
          !parseU64Arg("--workers", Value, Num))
        return 2;
      // Thread budget: main + acceptor + workers + logger must fit the
      // 2-shadow-byte runtime's 15 thread ids.
      if (Num < 1 || Num > 12) {
        std::fprintf(stderr, "sharc-serve: --workers must be 1..12\n");
        return 2;
      }
      Opt.Params.Workers = static_cast<unsigned>(Num);
    } else if (matchValueFlag("--service-us", Argc, Argv, I, Value)) {
      if (!needValue("--service-us", Value) ||
          !parseU64Arg("--service-us", Value, Num))
        return 2;
      Opt.Params.ServiceNanos = Num * 1000;
    } else if (Arg == "--inject-race" ||
               std::strncmp(Argv[I], "--inject-race=", 14) == 0) {
      if (!parsePeriodFlag("--inject-race", Argc, Argv, I, 64,
                           Opt.Params.InjectRaceEvery))
        return 2;
    } else if (Arg == "--inject-stall" ||
               std::strncmp(Argv[I], "--inject-stall=", 15) == 0) {
      if (!parsePeriodFlag("--inject-stall", Argc, Argv, I, 64,
                           Opt.Params.InjectStallEvery))
        return 2;
    } else if (matchValueFlag("--max-inflight", Argc, Argv, I, Value)) {
      if (!needValue("--max-inflight", Value) ||
          !parseU64Arg("--max-inflight", Value, Opt.Params.MaxInflight))
        return 2;
      if (Opt.Params.MaxInflight == 0) {
        std::fprintf(stderr, "sharc-serve: --max-inflight must be positive "
                             "(omit the flag for ring-bounded admission)\n");
        return 2;
      }
    } else if (matchValueFlag("--deadline-ms", Argc, Argv, I, Value)) {
      if (!needValue("--deadline-ms", Value) ||
          !parseU64Arg("--deadline-ms", Value, Num))
        return 2;
      if (Num == 0 || Num > 3600000) {
        std::fprintf(stderr, "sharc-serve: --deadline-ms must be in "
                             "1..3600000\n");
        return 2;
      }
      Opt.Params.DeadlineNanos = Num * 1000000;
    } else if (matchValueFlag("--chaos", Argc, Argv, I, Value)) {
      if (!needValue("--chaos", Value))
        return 2;
      std::string FaultError;
      if (!guard::parseFaults(Value, Opt.Chaos, FaultError)) {
        std::fprintf(stderr, "sharc-serve: --chaos: %s\n",
                     FaultError.c_str());
        return 2;
      }
      Opt.ChaosGiven = true;
    } else if (matchValueFlag("--on-violation", Argc, Argv, I, Value)) {
      if (!needValue("--on-violation", Value))
        return 2;
      if (!guard::parsePolicy(Value, Opt.OnViolation)) {
        std::fprintf(stderr,
                     "sharc-serve: --on-violation must be abort, continue, "
                     "or quarantine; got '%s'\n",
                     Value);
        return 2;
      }
      Opt.PolicyExplicit = true;
    } else if (matchValueFlag("--stats-addr", Argc, Argv, I, Value)) {
      if (!needValue("--stats-addr", Value))
        return 2;
      std::string Host, AddrError;
      uint16_t Port = 0;
      if (!live::splitHostPort(Value, Host, Port, AddrError)) {
        std::fprintf(stderr,
                     "sharc-serve: --stats-addr expects HOST:PORT (%s), "
                     "got '%s'\n",
                     AddrError.c_str(), Value);
        return 2;
      }
      Opt.StatsAddr = Value;
    } else if (matchValueFlag("--json", Argc, Argv, I, Value)) {
      if (!needValue("--json", Value))
        return 2;
      Opt.JsonPath = Value;
    } else if (matchValueFlag("--trace-out", Argc, Argv, I, Value)) {
      if (!needValue("--trace-out", Value))
        return 2;
      Opt.TracePath = Value;
    } else if (Arg == "--unchecked") {
      Opt.Unchecked = true;
    } else if (Arg == "--quiet") {
      Opt.Quiet = true;
    } else {
      std::fprintf(stderr, "sharc-serve: unknown argument '%s'\n",
                   Arg.c_str());
      printUsage(stderr);
      return 2;
    }
  }
  if (Opt.Load.Clients == 0 || Opt.Load.RequestsPerClient == 0 ||
      Opt.Load.RatePerSec == 0) {
    std::fprintf(stderr, "sharc-serve: --clients, --reqs-per-client and "
                         "--rate must be nonzero\n");
    return 2;
  }
  if (Opt.Unchecked && !Opt.StatsAddr.empty()) {
    std::fprintf(stderr, "sharc-serve: note: --stats-addr is served by the "
                         "SharC runtime; ignored with --unchecked\n");
    Opt.StatsAddr.clear();
  }

  // A SHARC_FAULT plan arms the same serve faults as --chaos (the flag
  // wins); a malformed env spec is a usage error here, not a silent
  // pass, mirroring the fatalInternal the runtime would raise later.
  if (!Opt.ChaosGiven) {
    if (const char *Env = std::getenv("SHARC_FAULT")) {
      std::string FaultError;
      if (!guard::parseFaults(Env, Opt.Chaos, FaultError)) {
        std::fprintf(stderr, "sharc-serve: bad SHARC_FAULT spec: %s\n",
                     FaultError.c_str());
        return 2;
      }
    }
  }
  if (Opt.Chaos.WorkerCrashAfter != 0 && Opt.Params.Workers < 2) {
    std::fprintf(stderr, "sharc-serve: worker-crash needs --workers >= 2 "
                         "(the survivors must drain the ring)\n");
    return 2;
  }

  // Arm the resilience layer: any overload knob or serve-level chaos
  // fault switches the server to shed-don't-block admission and the
  // client to reject polling + retries — and the accounting identity
  // from strict completed == offered to
  // completed + timed-out + dropped == offered.
  Opt.Params.WorkerStallNanos = Opt.Chaos.WorkerStallMillis * 1000000;
  Opt.Params.WorkerCrashAfter = Opt.Chaos.WorkerCrashAfter;
  Opt.Params.LoggerWedgeNanos = Opt.Chaos.LoggerWedgeMillis * 1000000;
  bool Armed = Opt.Params.MaxInflight != 0 || Opt.Params.DeadlineNanos != 0 ||
               Opt.Chaos.anyServeFault();
  Opt.Params.Resilient = Armed;
  Opt.Load.Resilient = Armed;
  // The client hangs up one deadline past the server's own budget:
  // retrying a request the server would only shed again is wasted wire.
  if (Opt.Params.DeadlineNanos != 0)
    Opt.Load.RequestTimeoutNs = 4 * Opt.Params.DeadlineNanos;
  // A slow peer delays rejects by up to one accept-batch stall; the
  // drain phase's quiet window must outwait it.
  if (Opt.Chaos.SlowPeerMicros != 0) {
    uint64_t Stall = 2 * Opt.Chaos.SlowPeerMicros * 1000;
    if (Stall > Opt.Load.DrainGraceNs)
      Opt.Load.DrainGraceNs = Stall;
  }
  return 0;
}

/// What one measured repetition produced.
struct RunOutcome {
  ServeStats Stats;
  LoadResult Load;
  uint64_t WallNs = 0;
  uint64_t Violations = 0;
  bool ScrapeOk = false;
  uint64_t ScrapeSeries = 0;
  uint64_t ScrapeBytes = 0;
  uint64_t ScrapesServed = 0;
  bool TraceFailed = false; ///< --trace-out could not be written.
  uint64_t TraceRecords = 0;
};

// Crash-safe tracing (mirrors sharcc): while a traced run is in flight
// these point at the live writer, and the registered crash hook appends
// an abnormal-end record and flushes the buffer to disk — so a chaos
// run that dies under the abort policy (or a fatalInternal) still
// leaves a parseable .strc behind. sharc-serve deliberately does NOT
// install the signal-based crash handlers: their SIGABRT re-raise would
// defeat the abortPolicyExit mapping to exit 1. The hooks run anyway on
// every in-tree death path — guard::onViolation runs them before
// std::abort, fatalInternal before _Exit(3), abortPolicyExit as a belt.
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

/// Counts Prometheus series (non-comment, non-empty lines) in a scrape.
uint64_t promSeries(const std::string &Body) {
  uint64_t N = 0;
  bool AtLineStart = true;
  for (size_t I = 0; I != Body.size(); ++I) {
    if (AtLineStart && Body[I] != '#' && Body[I] != '\n')
      ++N;
    AtLineStart = Body[I] == '\n';
  }
  return N;
}

template <typename P>
RunOutcome runOnce(const ServeOptions &Opt,
                   const std::vector<Arrival> &Schedule) {
  RunOutcome Out;
  // Span tracing: every pipeline thread publishes into the lock-free
  // per-thread rings; the writer serialises at drain time. The ring is
  // sized so the ci.sh overhead-gate run never fills one mid-handler —
  // a producer-side drain would bill varint encoding to handler CPU.
  obs::TraceWriter Trace;
  std::unique_ptr<obs::Collector> Col;
  if (!Opt.TracePath.empty()) {
    Col = std::make_unique<obs::Collector>(Trace, 1u << 16);
    // Arm the crash-safe flush for this rep's writer. The hook itself
    // registers once per process (the hook table is append-only).
    LiveTrace = &Trace;
    LiveTracePath = Opt.TracePath;
    LivePolicy = static_cast<uint8_t>(Opt.OnViolation);
    static bool HookRegistered = false;
    if (!HookRegistered) {
      HookRegistered = true;
      guard::addCrashHook(crashFlushTrace, nullptr);
    }
  }
  if (P::Checked) {
    rt::RuntimeConfig RC;
    // 2 shadow bytes per granule: 15 thread ids, enough for main +
    // acceptor + 12 workers + logger.
    RC.ShadowBytesPerGranule = 2;
    RC.Guard.OnViolation = Opt.OnViolation;
    RC.StatsAddr = Opt.StatsAddr;
    // With tracing armed the runtime's own events (lock transitions,
    // casts, conflicts) interleave with the spans in one stream, and
    // profiling fills the site tables `sharc-trace requests` joins
    // check-cost attribution from.
    RC.Obs = Col.get();
    RC.Profile = Col != nullptr;
    rt::Runtime::init(RC);
  }
  {
    SimTransport Net;
    // Network-side chaos lives in the transport, outside the checked
    // program — where a flaky NIC or a slow peer would.
    Net.setConnResetEvery(Opt.Chaos.ConnResetEvery);
    Net.setSlowPeerMicros(Opt.Chaos.SlowPeerMicros);
    SteadyClock::time_point Epoch = SteadyClock::now();
    Server<P> Srv(Opt.Params, Net, Epoch);
    Srv.setTrace(Col.get());
    Srv.start();

    std::function<void()> Midpoint;
    if (P::Checked && !Opt.StatsAddr.empty()) {
      if (live::StatsServer *LS = rt::Runtime::get().getLiveServer()) {
        if (!Opt.Quiet)
          std::fprintf(stderr, "sharc-serve: stats: listening on %s\n",
                       LS->boundAddress().c_str());
        uint16_t Port = LS->port();
        Midpoint = [&Out, Port] {
          std::string Body, Error;
          if (live::httpGet("127.0.0.1", Port, "/metrics", Body, Error)) {
            Out.ScrapeOk = true;
            Out.ScrapeSeries = promSeries(Body);
            Out.ScrapeBytes = Body.size();
          }
        };
      }
    }

    Out.Load = runOpenLoop(Net, Schedule, Opt.Load, Epoch, Midpoint);
    Srv.stop();
    Out.WallNs = nanosSince(Epoch);
    Out.Stats = Srv.takeStats();
    if (P::Checked && Out.ScrapeOk)
      if (live::StatsServer *LS = rt::Runtime::get().getLiveServer())
        Out.ScrapesServed = LS->scrapeCount();
  }
  if (P::Checked) {
    Out.Violations = rt::Runtime::get().getStats().totalConflicts();
    rt::Runtime::shutdown();
  }
  if (Col) {
    // The runtime's shutdown has published its final records; drain
    // every ring and seal the file. Disarm the crash flush first: from
    // here the normal write owns the file.
    LiveTrace = nullptr;
    Col->flush();
    std::string Error;
    if (!Trace.writeToFile(Opt.TracePath, Error)) {
      std::fprintf(stderr, "sharc-serve: %s\n", Error.c_str());
      Out.TraceFailed = true;
    }
    Out.TraceRecords = Trace.recordCount();
  }
  return Out;
}

double toUs(uint64_t Ns) { return static_cast<double>(Ns) / 1000.0; }

int writeReport(const ServeOptions &Opt, const char *Mode,
                const RunOutcome &R) {
  obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("sharc-bench-v1");
  W.key("bench");
  // A resilience-armed or spans-armed run is its own benchmark
  // configuration: compare-runs groups series by this name, and a storm
  // or traced run must trend against its own history, not dilute the
  // plain series.
  if (Opt.Params.Resilient)
    W.value("sharc_serve_storm");
  else
    W.value(Opt.TracePath.empty() ? "sharc_serve" : "sharc_serve_spans");
  W.key("scale");
  W.value(static_cast<uint64_t>(bench::scale()));
  W.key("reps");
  W.value(static_cast<uint64_t>(bench::reps()));
  bench::writeHostJson(W);
  // The run configuration and the mid-run /metrics scrape; obs/Json.cpp
  // validates this section when present.
  W.key("serve");
  W.beginObject();
  W.key("clients");
  W.value(Opt.Load.Clients);
  W.key("reqs_per_client");
  W.value(Opt.Load.RequestsPerClient);
  W.key("target_rate_rps");
  W.value(Opt.Load.RatePerSec);
  W.key("payload_bytes");
  W.value(static_cast<uint64_t>(Opt.Load.PayloadBytes));
  W.key("workers");
  W.value(static_cast<uint64_t>(Opt.Params.Workers));
  W.key("service_us");
  W.value(Opt.Params.ServiceNanos / 1000);
  W.key("seed");
  W.value(Opt.Load.Seed);
  W.key("checked");
  W.value(static_cast<uint64_t>(Opt.Unchecked ? 0 : 1));
  if (R.ScrapeOk) {
    W.key("scrape");
    W.beginObject();
    W.key("mid_run");
    W.value(static_cast<uint64_t>(1));
    W.key("series");
    W.value(R.ScrapeSeries);
    W.key("bytes");
    W.value(R.ScrapeBytes);
    W.key("scrapes_served");
    W.value(R.ScrapesServed);
    W.endObject();
  }
  if (Opt.Params.Resilient) {
    // sharc-storm resilience block: the overload / chaos story in
    // numbers. compare-runs lifts it into a "resilience" pseudo-row so
    // shed rates and time-to-recover trend across commits like any
    // other metric.
    W.key("resilience");
    W.beginObject();
    W.key("shed");
    W.value(R.Stats.Shed);
    W.key("timed_out");
    W.value(R.Stats.TimedOut);
    W.key("retries");
    W.value(R.Load.Retries);
    W.key("dropped");
    W.value(R.Load.Dropped);
    W.key("conn_resets");
    W.value(R.Load.ResetSeen);
    W.key("log_shed");
    W.value(R.Stats.LogShed);
    W.key("faults_injected");
    W.value(R.Stats.FaultsInjected);
    W.key("recoveries");
    W.value(R.Stats.Recoveries);
    W.key("degraded_ms");
    W.value(static_cast<double>(R.Stats.DegradedNs) / 1e6);
    W.key("ttr_p50_us");
    W.value(toUs(R.Stats.RecoveryNs.percentile(0.50)));
    W.key("ttr_p99_us");
    W.value(toUs(R.Stats.RecoveryNs.percentile(0.99)));
    W.key("ttr_max_us");
    W.value(toUs(R.Stats.RecoveryNs.max()));
    W.endObject();
  }
  // Per-stage latency percentiles (always collected; see ServeStats).
  // compare-runs lifts each stage into a "stages/<name>" pseudo-row so
  // the per-stage tail is trended exactly like the top-level rows.
  W.key("stages");
  W.beginObject();
  for (unsigned K = 0; K != obs::NumSpanStages; ++K) {
    const Histogram &H = R.Stats.StageNs[K];
    if (H.count() == 0)
      continue;
    W.key(obs::spanStageName(static_cast<obs::SpanStage>(K)));
    W.beginObject();
    W.key("count");
    W.value(static_cast<double>(H.count()));
    W.key("p50_us");
    W.value(toUs(H.percentile(0.50)));
    W.key("p99_us");
    W.value(toUs(H.percentile(0.99)));
    W.key("p999_us");
    W.value(toUs(H.percentile(0.999)));
    W.key("max_us");
    W.value(toUs(H.max()));
    W.endObject();
  }
  W.endObject();
  W.endObject();
  W.key("rows");
  W.beginArray();
  {
    // Mode-specific row name so check-overhead never compares wall time
    // of a schedule-bound open-loop run (that gates nothing); the
    // latency percentiles in here are what compare-runs trends. A
    // spans-armed run gets its own name for the same reason: the span
    // tracing overhead gate must compare only the shared "service" row
    // (thread-CPU), never the open-loop wall clock.
    W.beginObject();
    W.key("name");
    W.value(std::string(Mode) + (Opt.TracePath.empty() ? "" : "-spans") +
            "/run");
    W.key("metrics");
    W.beginObject();
    W.key("real_ns");
    W.value(static_cast<double>(R.WallNs));
    W.key("requests");
    W.value(static_cast<double>(R.Stats.Completed));
    W.key("offered");
    W.value(static_cast<double>(R.Load.Offered));
    W.key("errors");
    W.value(static_cast<double>(R.Stats.Errors));
    W.key("throughput_rps");
    W.value(R.WallNs ? 1e9 * static_cast<double>(R.Stats.Completed) /
                           static_cast<double>(R.WallNs)
                     : 0.0);
    W.key("p50_us");
    W.value(toUs(R.Stats.LatencyNs.percentile(0.50)));
    W.key("p99_us");
    W.value(toUs(R.Stats.LatencyNs.percentile(0.99)));
    W.key("p999_us");
    W.value(toUs(R.Stats.LatencyNs.percentile(0.999)));
    W.key("max_us");
    W.value(toUs(R.Stats.LatencyNs.max()));
    W.key("max_lag_us");
    W.value(toUs(R.Load.MaxLagNs));
    W.key("peak_inflight");
    W.value(static_cast<double>(R.Stats.PeakInflight));
    W.key("session_hits");
    W.value(static_cast<double>(R.Stats.SessionHits));
    W.key("session_misses");
    W.value(static_cast<double>(R.Stats.SessionMisses));
    W.key("bytes_in");
    W.value(static_cast<double>(R.Stats.BytesIn));
    W.key("bytes_out");
    W.value(static_cast<double>(R.Stats.BytesOut));
    W.key("violations");
    W.value(static_cast<double>(R.Violations));
    W.endObject();
    W.endObject();
  }
  {
    // Shared-name row carrying the handler CPU time: this is what the
    // ci.sh armed-vs-disabled gate compares at 2% between an --unchecked
    // report and a checked one (thread-CPU accounted, so scheduler noise
    // on a loaded CI host cancels out).
    W.beginObject();
    W.key("name");
    W.value("service");
    W.key("metrics");
    W.beginObject();
    W.key("service_ns");
    W.value(static_cast<double>(R.Stats.ServiceNs));
    W.key("service_ns_per_req");
    W.value(R.Stats.Completed
                ? static_cast<double>(R.Stats.ServiceNs) /
                      static_cast<double>(R.Stats.Completed)
                : 0.0);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();

  std::string Text = W.take();
  Text.push_back('\n');
  std::FILE *F = std::fopen(Opt.JsonPath.c_str(), "wb");
  bool Ok = F && std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  if (F && std::fclose(F) != 0)
    Ok = false;
  if (!Ok) {
    std::fprintf(stderr, "sharc-serve: cannot write '%s'\n",
                 Opt.JsonPath.c_str());
    return 2;
  }
  return 0;
}

/// Abort-policy violations die via std::abort (SIGABRT); map that death
/// to the contract's exit 1 so `sharc-serve --on-violation=abort` is
/// scriptable the same way sharcc is. Internal errors bypass SIGABRT
/// (guard::fatalInternal uses _Exit(3)), so exit 3 stays intact. The
/// crash hooks have normally run already (guard::onViolation runs them
/// before std::abort); the call here is an idempotent belt for any
/// other SIGABRT source, so a traced chaos run still flushes its .strc.
extern "C" void abortPolicyExit(int) {
  guard::runCrashHooks(0);
  std::_Exit(1);
}

} // namespace

int main(int Argc, char **Argv) {
  ServeOptions Opt;
  int Parse = parseArgs(Argc, Argv, Opt);
  if (Parse == 1)
    return 0;
  if (Parse != 0)
    return Parse;

  // Runtime::init lets SHARC_POLICY override its config (so deployed
  // binaries can switch policies without a rebuild); an explicit
  // --on-violation must beat the environment, so republish the flag's
  // choice before any init.
  if (Opt.PolicyExplicit)
    setenv("SHARC_POLICY", guard::policyName(Opt.OnViolation), 1);

  if (!Opt.Unchecked && Opt.OnViolation == guard::Policy::Abort)
    std::signal(SIGABRT, abortPolicyExit);

  const char *Mode = Opt.Unchecked ? "orig" : "sharc";
  std::vector<Arrival> Schedule = buildSchedule(Opt.Load);

  // min-of-reps on handler CPU: the noise-robust statistic for the
  // fixed-work part of the run (wall time is schedule-bound by design).
  unsigned Reps = bench::reps();
  if (Reps == 0)
    Reps = 1;
  RunOutcome Best;
  bool Have = false;
  uint64_t TraceRecords = 0; ///< From the last rep — the file kept on disk.
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    RunOutcome R = Opt.Unchecked ? runOnce<UncheckedPolicy>(Opt, Schedule)
                                 : runOnce<SharcPolicy>(Opt, Schedule);
    if (R.TraceFailed)
      return 2;
    TraceRecords = R.TraceRecords;
    // Conservation of requests. Resilient runs complete, time out on
    // the server, or drop on the client — nothing may vanish; strict
    // runs must complete everything, exactly as before sharc-storm.
    uint64_t Accounted =
        R.Stats.Completed + R.Stats.TimedOut + R.Load.Dropped;
    if (Opt.Params.Resilient ? Accounted != R.Load.Offered
                             : R.Stats.Completed != R.Load.Offered) {
      std::fprintf(stderr,
                   "sharc-serve: internal: offered %llu but completed %llu "
                   "+ timed-out %llu + dropped %llu\n",
                   static_cast<unsigned long long>(R.Load.Offered),
                   static_cast<unsigned long long>(R.Stats.Completed),
                   static_cast<unsigned long long>(R.Stats.TimedOut),
                   static_cast<unsigned long long>(R.Load.Dropped));
      return 3;
    }
    if (!Have || R.Stats.ServiceNs < Best.Stats.ServiceNs) {
      // Keep the scrape from whichever rep produced one.
      if (Have && !R.ScrapeOk && Best.ScrapeOk) {
        RunOutcome Keep = Best;
        Best = R;
        Best.ScrapeOk = Keep.ScrapeOk;
        Best.ScrapeSeries = Keep.ScrapeSeries;
        Best.ScrapeBytes = Keep.ScrapeBytes;
        Best.ScrapesServed = Keep.ScrapesServed;
      } else {
        Best = R;
      }
      Have = true;
    }
  }

  if (!Opt.Quiet) {
    const ServeStats &S = Best.Stats;
    std::printf("sharc-serve: mode=%s clients=%llu reqs=%llu rate=%llu "
                "workers=%u service=%lluus\n",
                Mode, static_cast<unsigned long long>(Opt.Load.Clients),
                static_cast<unsigned long long>(Opt.Load.totalRequests()),
                static_cast<unsigned long long>(Opt.Load.RatePerSec),
                Opt.Params.Workers,
                static_cast<unsigned long long>(Opt.Params.ServiceNanos /
                                                1000));
    std::printf("sharc-serve: offered %llu completed %llu errors %llu in "
                "%.2fs (%.0f rps), peak inflight ~%llu\n",
                static_cast<unsigned long long>(Best.Load.Offered),
                static_cast<unsigned long long>(S.Completed),
                static_cast<unsigned long long>(S.Errors),
                static_cast<double>(Best.WallNs) / 1e9,
                Best.WallNs ? 1e9 * static_cast<double>(S.Completed) /
                                  static_cast<double>(Best.WallNs)
                            : 0.0,
                static_cast<unsigned long long>(S.PeakInflight));
    std::printf("sharc-serve: latency p50 %.1fus p99 %.1fus p999 %.1fus "
                "max %.1fus (max submit lag %.1fus)\n",
                toUs(S.LatencyNs.percentile(0.50)),
                toUs(S.LatencyNs.percentile(0.99)),
                toUs(S.LatencyNs.percentile(0.999)), toUs(S.LatencyNs.max()),
                toUs(Best.Load.MaxLagNs));
    std::printf("sharc-serve: handler cpu %.3fs (%.1fus/req), sessions "
                "%llu hit / %llu miss, checksum %016llx\n",
                static_cast<double>(S.ServiceNs) / 1e9,
                S.Completed ? static_cast<double>(S.ServiceNs) /
                                  static_cast<double>(S.Completed) / 1000.0
                            : 0.0,
                static_cast<unsigned long long>(S.SessionHits),
                static_cast<unsigned long long>(S.SessionMisses),
                static_cast<unsigned long long>(S.Checksum));
    if (Opt.Params.Resilient)
      std::printf("sharc-serve: resilience: shed %llu timed-out %llu "
                  "retries %llu dropped %llu resets %llu log-shed %llu "
                  "faults %llu recoveries %llu (ttr p99 %.1fms, degraded "
                  "%.1fms)\n",
                  static_cast<unsigned long long>(S.Shed),
                  static_cast<unsigned long long>(S.TimedOut),
                  static_cast<unsigned long long>(Best.Load.Retries),
                  static_cast<unsigned long long>(Best.Load.Dropped),
                  static_cast<unsigned long long>(Best.Load.ResetSeen),
                  static_cast<unsigned long long>(S.LogShed),
                  static_cast<unsigned long long>(S.FaultsInjected),
                  static_cast<unsigned long long>(S.Recoveries),
                  static_cast<double>(S.RecoveryNs.percentile(0.99)) / 1e6,
                  static_cast<double>(S.DegradedNs) / 1e6);
    if (Best.ScrapeOk)
      std::printf("sharc-serve: live scrape at midpoint: %llu series, "
                  "%llu bytes\n",
                  static_cast<unsigned long long>(Best.ScrapeSeries),
                  static_cast<unsigned long long>(Best.ScrapeBytes));
    if (!Opt.Unchecked)
      std::printf("sharc-serve: %llu violations (policy %s)\n",
                  static_cast<unsigned long long>(Best.Violations),
                  guard::policyName(Opt.OnViolation));
    if (!Opt.TracePath.empty())
      std::printf("sharc-serve: trace: wrote %s (%llu records)\n",
                  Opt.TracePath.c_str(),
                  static_cast<unsigned long long>(TraceRecords));
  }

  if (!Opt.JsonPath.empty())
    if (int Status = writeReport(Opt, Mode, Best))
      return Status;
  // Violations under continue/quarantine exit 0 by contract (the abort
  // policy never reaches here — the SIGABRT handler exited 1).
  return 0;
}
