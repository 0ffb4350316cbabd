//===-- tests/serve_test.cpp - sharc-serve subsystem tests ----------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the high-traffic scenario (DESIGN.md §15): the log-linear
/// latency histogram, the deterministic Poisson schedule builder, the
/// open-loop (never-throttled) property of the load generator, the
/// simulated-socket transport, and the server end to end in both
/// policies — equal checksums, zero violations on the clean path, and a
/// deterministically caught lock violation when the session-cache race
/// is injected.
///
//===----------------------------------------------------------------------===//

#include "serve/Histogram.h"
#include "serve/LoadGen.h"
#include "serve/Server.h"

#include "obs/Causal.h"
#include "obs/Collector.h"
#include "obs/Sink.h"
#include "rt/AccessSite.h"
#include "rt/Runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

using namespace sharc;
using namespace sharc::serve;

namespace {

class RuntimeGuard {
public:
  explicit RuntimeGuard(rt::RuntimeConfig Config = rt::RuntimeConfig()) {
    rt::Runtime::init(Config);
  }
  ~RuntimeGuard() { rt::Runtime::shutdown(); }
};

/// The serve thread layout (main + acceptor + workers + logger) needs
/// more thread ids than the default 1-byte shadow offers.
rt::RuntimeConfig serveConfig() {
  rt::RuntimeConfig Config;
  Config.ShadowBytesPerGranule = 2;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(ServeHistogramTest, SmallExactValues) {
  Histogram H;
  for (uint64_t V = 0; V != 32; ++V)
    H.record(V);
  EXPECT_EQ(H.count(), 32u);
  EXPECT_EQ(H.max(), 31u);
  // Values below the first power-of-two boundary land in exact buckets.
  EXPECT_EQ(H.percentile(0.0), 0u);
  EXPECT_EQ(H.percentile(1.0), 31u);
}

TEST(ServeHistogramTest, PercentileBoundedRelativeError) {
  Histogram H;
  for (uint64_t V = 1; V <= 100000; ++V)
    H.record(V);
  for (double Q : {0.50, 0.90, 0.99, 0.999}) {
    double Exact = Q * 100000;
    double Got = static_cast<double>(H.percentile(Q));
    // Log-linear buckets with 32 sub-buckets: ≤ ~3.2% relative error,
    // and the reported edge never undershoots the true percentile.
    EXPECT_GE(Got, Exact * 0.999) << "q=" << Q;
    EXPECT_LE(Got, Exact * 1.04) << "q=" << Q;
  }
}

TEST(ServeHistogramTest, MaxClampsTopPercentile) {
  Histogram H;
  H.record(1000);
  H.record(5000);
  EXPECT_EQ(H.percentile(1.0), 5000u);
  EXPECT_EQ(H.max(), 5000u);
}

TEST(ServeHistogramTest, MergeMatchesCombinedRecording) {
  Histogram A, B, Both;
  for (uint64_t V = 0; V != 5000; ++V) {
    (V % 2 ? A : B).record(V * 7);
    Both.record(V * 7);
  }
  A.merge(B);
  EXPECT_EQ(A.count(), Both.count());
  EXPECT_EQ(A.max(), Both.max());
  for (double Q : {0.5, 0.99})
    EXPECT_EQ(A.percentile(Q), Both.percentile(Q));
}

//===----------------------------------------------------------------------===//
// Poisson schedule
//===----------------------------------------------------------------------===//

TEST(ServeScheduleTest, SameSeedSameScheduleAndMix) {
  LoadConfig C;
  C.Clients = 500;
  C.RequestsPerClient = 4;
  C.RatePerSec = 100000;
  C.Seed = 42;
  std::vector<Arrival> A = buildSchedule(C);
  std::vector<Arrival> B = buildSchedule(C);
  ASSERT_EQ(A.size(), C.totalRequests());
  // Determinism is byte-for-byte: times, clients, AND op kinds.
  EXPECT_TRUE(A == B);
}

TEST(ServeScheduleTest, DifferentSeedDiffers) {
  LoadConfig C;
  C.Clients = 200;
  C.RatePerSec = 100000;
  C.Seed = 1;
  std::vector<Arrival> A = buildSchedule(C);
  C.Seed = 2;
  std::vector<Arrival> B = buildSchedule(C);
  EXPECT_FALSE(A == B);
}

TEST(ServeScheduleTest, MonotonicTimesAndRoundRobinClients) {
  LoadConfig C;
  C.Clients = 10;
  C.RequestsPerClient = 3;
  C.RatePerSec = 1000000;
  std::vector<Arrival> S = buildSchedule(C);
  for (size_t I = 1; I < S.size(); ++I)
    EXPECT_GE(S[I].AtNanos, S[I - 1].AtNanos);
  // Round-robin assignment: every client appears exactly
  // RequestsPerClient times.
  std::vector<unsigned> PerClient(C.Clients, 0);
  for (const Arrival &A : S)
    ++PerClient[A.Client];
  for (unsigned N : PerClient)
    EXPECT_EQ(N, C.RequestsPerClient);
}

TEST(ServeScheduleTest, MeanRateNearTarget) {
  LoadConfig C;
  C.Clients = 20000;
  C.RatePerSec = 250000;
  C.Seed = 7;
  std::vector<Arrival> S = buildSchedule(C);
  // 20k exponential gaps: the sample mean is within a few percent of
  // 1/rate with overwhelming probability; ±20% is a safe determinism-
  // friendly bound (the seed is fixed, so this cannot flake).
  double SpanSec = static_cast<double>(S.back().AtNanos) / 1e9;
  double Observed = static_cast<double>(S.size()) / SpanSec;
  EXPECT_GT(Observed, 0.8 * static_cast<double>(C.RatePerSec));
  EXPECT_LT(Observed, 1.2 * static_cast<double>(C.RatePerSec));
}

//===----------------------------------------------------------------------===//
// Transport + open-loop property
//===----------------------------------------------------------------------===//

TEST(ServeTransportTest, SubmitAcceptRoundTrip) {
  SimTransport Net;
  SimRequest R;
  R.Client = 9;
  R.Seq = 1;
  R.Payload = {1, 2, 3};
  Net.submit(std::move(R));
  EXPECT_EQ(Net.pending(), 1u);
  std::vector<SimRequest> Batch;
  EXPECT_EQ(Net.acceptBatch(Batch, 16), 1u);
  ASSERT_EQ(Batch.size(), 1u);
  EXPECT_EQ(Batch[0].Client, 9u);
  EXPECT_EQ(Batch[0].Payload.size(), 3u);
  Net.closeIngress();
  EXPECT_EQ(Net.acceptBatch(Batch, 16), 0u);
}

TEST(ServeLoadGenTest, OpenLoopNeverThrottledByAbsentServer) {
  // The defining property of an open-loop generator: with NOTHING
  // consuming the transport (a fully stalled server), every arrival is
  // still offered on schedule. A closed-loop harness would deadlock or
  // slow down here.
  LoadConfig C;
  C.Clients = 3000;
  C.RequestsPerClient = 1;
  C.RatePerSec = 2000000; // 1.5ms of schedule: fast, CI-friendly.
  C.PayloadBytes = 16;
  std::vector<Arrival> S = buildSchedule(C);
  SimTransport Net;
  LoadResult R = runOpenLoop(Net, S, C, SteadyClock::now());
  EXPECT_EQ(R.Offered, C.totalRequests());
  EXPECT_EQ(Net.pending(), C.totalRequests());
  EXPECT_EQ(Net.submitted(), C.totalRequests());
  // ...and the server can still drain everything afterwards.
  Net.closeIngress();
  std::vector<SimRequest> Batch;
  uint64_t Drained = 0;
  while (uint64_t N = Net.acceptBatch(Batch, 256))
    Drained += N;
  EXPECT_EQ(Drained, C.totalRequests());
}

TEST(ServeLoadGenTest, DeterministicPayloadBytes) {
  LoadConfig C;
  C.Clients = 50;
  C.RatePerSec = 10000000;
  C.PayloadBytes = 64;
  C.Seed = 99;
  std::vector<Arrival> S = buildSchedule(C);
  SimTransport NetA, NetB;
  runOpenLoop(NetA, S, C, SteadyClock::now());
  runOpenLoop(NetB, S, C, SteadyClock::now());
  NetA.closeIngress();
  NetB.closeIngress();
  std::vector<SimRequest> A, B, Batch;
  while (NetA.acceptBatch(Batch, 16) > 0)
    for (SimRequest &R : Batch)
      A.push_back(std::move(R));
  while (NetB.acceptBatch(Batch, 16) > 0)
    for (SimRequest &R : Batch)
      B.push_back(std::move(R));
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Payload, B[I].Payload);
    EXPECT_EQ(A[I].Client, B[I].Client);
    EXPECT_EQ(A[I].Kind, B[I].Kind);
  }
}

//===----------------------------------------------------------------------===//
// Server end to end
//===----------------------------------------------------------------------===//

namespace {

/// Runs the full pipeline under policy P and returns the stats.
template <typename P> ServeStats runServer(const LoadConfig &LC,
                                           const ServeParams &SP) {
  SimTransport Net;
  SteadyClock::time_point Epoch = SteadyClock::now();
  Server<P> Srv(SP, Net, Epoch);
  Srv.start();
  std::vector<Arrival> S = buildSchedule(LC);
  runOpenLoop(Net, S, LC, Epoch);
  Srv.stop();
  return Srv.takeStats();
}

LoadConfig smallLoad() {
  LoadConfig C;
  C.Clients = 400;
  C.RequestsPerClient = 3;
  C.RatePerSec = 500000;
  C.PayloadBytes = 96;
  C.Seed = 5;
  return C;
}

ServeParams smallParams() {
  ServeParams P;
  P.Workers = 3;
  P.ServiceNanos = 1000;
  return P;
}

} // namespace

TEST(ServeServerTest, OrigAndSharcAgreeByChecksum) {
  LoadConfig LC = smallLoad();
  ServeParams SP = smallParams();
  ServeStats Orig = runServer<UncheckedPolicy>(LC, SP);

  uint64_t Violations;
  ServeStats Sharc;
  {
    RuntimeGuard Guard(serveConfig());
    Sharc = runServer<SharcPolicy>(LC, SP);
    Violations = rt::Runtime::get().getStats().totalConflicts();
  }
  EXPECT_EQ(Orig.Completed, LC.totalRequests());
  EXPECT_EQ(Sharc.Completed, LC.totalRequests());
  EXPECT_EQ(Orig.Errors, 0u);
  EXPECT_EQ(Sharc.Errors, 0u);
  // The equivalence oracle: an XOR-commutative fold over per-request
  // cipher output and final session values — schedule-independent, so
  // the instrumented run must match the baseline bit for bit.
  EXPECT_EQ(Orig.Checksum, Sharc.Checksum);
  EXPECT_EQ(Orig.SessionHits, Sharc.SessionHits);
  EXPECT_EQ(Orig.BytesOut, Sharc.BytesOut);
  // The clean path is violation-free: the annotations describe the
  // sharing strategy the server actually follows.
  EXPECT_EQ(Violations, 0u);
}

TEST(ServeServerTest, StatsAddUp) {
  LoadConfig LC = smallLoad();
  ServeParams SP = smallParams();
  RuntimeGuard Guard(serveConfig());
  ServeStats S = runServer<SharcPolicy>(LC, SP);
  EXPECT_EQ(S.Accepted, LC.totalRequests());
  EXPECT_EQ(S.Completed, LC.totalRequests());
  EXPECT_EQ(S.LogRecords, LC.totalRequests());
  EXPECT_EQ(S.LatencyNs.count(), LC.totalRequests());
  EXPECT_EQ(S.OpCounts[OpGet] + S.OpCounts[OpPut] + S.OpCounts[OpWork],
            LC.totalRequests());
  // 400 clients x 3 requests: first contact misses, the rest hit.
  EXPECT_EQ(S.SessionMisses, LC.Clients);
  EXPECT_EQ(S.SessionHits, LC.totalRequests() - LC.Clients);
  EXPECT_EQ(S.BytesIn, LC.totalRequests() * LC.PayloadBytes);
  EXPECT_GT(S.ServiceNs, 0u);
}

TEST(ServeServerTest, InjectedRaceIsCaughtUnderContinue) {
  LoadConfig LC = smallLoad();
  ServeParams SP = smallParams();
  SP.InjectRaceEvery = 4;
  rt::RuntimeConfig Config = serveConfig();
  Config.Guard.OnViolation = guard::Policy::Continue;
  RuntimeGuard Guard(Config);
  ServeStats S = runServer<SharcPolicy>(LC, SP);
  EXPECT_EQ(S.Completed, LC.totalRequests());
  // Every lock-skipping session write is a locked-mode violation the
  // runtime reports deterministically (no schedule luck involved).
  EXPECT_GT(rt::Runtime::get().getStats().LockViolations, 0u);
}

TEST(ServeServerTest, InjectedRaceSurvivesQuarantine) {
  LoadConfig LC = smallLoad();
  ServeParams SP = smallParams();
  SP.InjectRaceEvery = 4;
  rt::RuntimeConfig Config = serveConfig();
  Config.Guard.OnViolation = guard::Policy::Quarantine;
  RuntimeGuard Guard(Config);
  ServeStats S = runServer<SharcPolicy>(LC, SP);
  // Quarantine demotes the raced granules and the run completes whole.
  EXPECT_EQ(S.Completed, LC.totalRequests());
  EXPECT_EQ(S.Errors, 0u);
}

//===----------------------------------------------------------------------===//
// Request spans (sharc-span, DESIGN.md §16)
//===----------------------------------------------------------------------===//

namespace {

/// Runs the pipeline with span tracing armed; the spans land in \p Out
/// (a VectorSink is not thread-safe, so a Collector fronts it — the
/// same sink the sharc-serve CLI wires up for --trace-out).
template <typename P>
ServeStats runServerTraced(const LoadConfig &LC, const ServeParams &SP,
                           obs::VectorSink &Out) {
  obs::Collector Col(Out, 1u << 15);
  SimTransport Net;
  SteadyClock::time_point Epoch = SteadyClock::now();
  Server<P> Srv(SP, Net, Epoch);
  Srv.setTrace(&Col);
  Srv.start();
  std::vector<Arrival> S = buildSchedule(LC);
  runOpenLoop(Net, S, LC, Epoch);
  Srv.stop();
  Col.flush();
  return Srv.takeStats();
}

obs::RequestsReport requestsOf(const obs::VectorSink &Out) {
  obs::TraceData Data;
  Data.Spans = Out.Spans;
  return obs::buildRequests(Data);
}

} // namespace

TEST(ServeSpanTest, StageHistogramsCollectedWithoutTracing) {
  // The per-stage histograms ride along unconditionally: the bench
  // report's serve.stages section exists even when no trace is armed.
  LoadConfig LC = smallLoad();
  ServeStats S = runServer<UncheckedPolicy>(LC, smallParams());
  for (unsigned K = 0; K != obs::NumSpanStages; ++K)
    EXPECT_EQ(S.StageNs[K].count(), LC.totalRequests())
        << obs::spanStageName(static_cast<obs::SpanStage>(K));
}

TEST(ServeSpanTest, EveryRequestYieldsACompleteSpanTree) {
  LoadConfig LC = smallLoad();
  obs::VectorSink Out;
  ServeStats S = runServerTraced<UncheckedPolicy>(LC, smallParams(), Out);
  ASSERT_EQ(S.Completed, LC.totalRequests());
  // 7 stages x begin+end per request.
  EXPECT_EQ(Out.Spans.size(), LC.totalRequests() * 2 * obs::NumSpanStages);
  obs::RequestsReport R = requestsOf(Out);
  EXPECT_EQ(R.Requests.size(), LC.totalRequests());
  EXPECT_EQ(R.Complete, LC.totalRequests());
  EXPECT_EQ(R.Incomplete, 0u);
  // Role ids are pipeline positions: acceptor 1, workers 2..W+1, logger
  // W+2 — never a raw runtime tid.
  ServeParams SP = smallParams();
  for (const obs::RequestView &V : R.Requests) {
    EXPECT_EQ(V.Tids[unsigned(obs::SpanStage::Accept)], 1u);
    unsigned Worker = V.Tids[unsigned(obs::SpanStage::Handler)];
    EXPECT_GE(Worker, 2u);
    EXPECT_LE(Worker, SP.Workers + 1);
    EXPECT_EQ(V.Tids[unsigned(obs::SpanStage::Logger)], SP.Workers + 2);
  }
}

TEST(ServeSpanTest, SameSeedSameSpanTreeDigest) {
  // The digest hashes what the seed fixes (request ids, clients, op
  // kinds, tree shape) and none of what the scheduler varies, so two
  // runs of the same seeded load must digest identically even though
  // timings and worker placements differ.
  LoadConfig LC = smallLoad();
  ServeParams SP = smallParams();
  obs::VectorSink A, B;
  runServerTraced<UncheckedPolicy>(LC, SP, A);
  runServerTraced<UncheckedPolicy>(LC, SP, B);
  uint64_t DigA = obs::requestTreeDigest(requestsOf(A));
  uint64_t DigB = obs::requestTreeDigest(requestsOf(B));
  EXPECT_EQ(DigA, DigB);

  LoadConfig Other = LC;
  Other.Seed = LC.Seed + 1; // different op mix -> different tree
  obs::VectorSink C;
  runServerTraced<UncheckedPolicy>(Other, SP, C);
  EXPECT_NE(DigA, obs::requestTreeDigest(requestsOf(C)));
}

//===----------------------------------------------------------------------===//
// sharc-storm: backpressure, overload protection, chaos (DESIGN.md §17)
//===----------------------------------------------------------------------===//

namespace {

/// The HandoffRing backpressure contract, checked per policy: tryPush
/// refuses exactly when the ring is full, a refused item is still owned
/// by the caller (the sharing cast happens only on success), and under
/// concurrent producers nothing is lost or duplicated — every accepted
/// item pops exactly once and the ring destructs empty (no counted cell
/// left holding a sentinel).
template <typename P> void ringBackpressureCheck() {
  constexpr size_t Cap = 8;
  HandoffRing<P, LogRecord> Ring(Cap);
  const rt::AccessSite *Site = SHARC_SITE("ring backpressure test");
  auto Make = [&](uint64_t Seq) {
    auto *R = new (P::alloc(sizeof(LogRecord))) LogRecord();
    R->Seq = Seq;
    return R;
  };
  auto Free = [&](LogRecord *R) {
    R->~LogRecord();
    P::dealloc(R);
  };

  // Deterministic part: fill to capacity, then the refusal is certain.
  for (size_t I = 0; I != Cap; ++I) {
    LogRecord *R = Make(I);
    ASSERT_TRUE(Ring.tryPush(R, Site));
  }
  EXPECT_EQ(Ring.depth(), Cap);
  LogRecord *Extra = Make(999);
  EXPECT_FALSE(Ring.tryPush(Extra, Site));
  // The refusal left ownership with us: no cast fired, so writing the
  // record privately is legal and must not trip a checked policy.
  Extra->Bytes = 7;
  for (size_t I = 0; I != Cap; ++I) {
    LogRecord *R = Ring.pop(Site);
    ASSERT_NE(R, nullptr);
    EXPECT_EQ(R->Seq, I);
    Free(R);
  }
  EXPECT_EQ(Ring.depth(), 0u);
  EXPECT_TRUE(Ring.tryPush(Extra, Site));

  // Concurrent part: producers spin on tryPush against a consumer that
  // drains everything; refusals retry, so conservation must be exact.
  constexpr unsigned Producers = 3;
  constexpr uint64_t PerProducer = 2000;
  constexpr uint64_t Total = Producers * PerProducer + 1; // + Extra
  std::atomic<uint64_t> Refused{0};
  std::vector<typename P::Thread> Threads;
  for (unsigned T = 0; T != Producers; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t I = 0; I != PerProducer; ++I) {
        LogRecord *R = Make(1000000 + T * PerProducer + I);
        while (!Ring.tryPush(R, Site))
          Refused.fetch_add(1, std::memory_order_relaxed);
      }
    });
  // Hold the consumer until the ring has actually refused a push: the
  // producers fill all eight cells and then spin against the full ring,
  // so the refusal is reached deterministically, not by timing luck.
  while (Refused.load(std::memory_order_relaxed) == 0)
    std::this_thread::yield();
  std::vector<uint8_t> Seen(Total, 0);
  uint64_t Popped = 0;
  while (Popped != Total) {
    LogRecord *R = Ring.pop(Site);
    ASSERT_NE(R, nullptr);
    size_t Idx = R->Seq == 999 ? 0 : 1 + (R->Seq - 1000000);
    ASSERT_LT(Idx, Total);
    EXPECT_EQ(Seen[Idx], 0u) << "duplicate seq " << R->Seq;
    Seen[Idx] = 1;
    Free(R);
    ++Popped;
  }
  for (auto &T : Threads)
    T.join();
  // A tiny ring against three spinning producers must have refused at
  // least once — the backpressure signal the admission layer sheds on.
  EXPECT_GT(Refused.load(), 0u);
  EXPECT_EQ(Ring.depth(), 0u);
  for (uint64_t I = 0; I != Total; ++I)
    EXPECT_EQ(Seen[I], 1u) << "lost item " << I;
  Ring.close();
  EXPECT_EQ(Ring.pop(Site), nullptr);
}

} // namespace

TEST(ServeRingTest, TryPushBackpressureUnchecked) {
  ringBackpressureCheck<UncheckedPolicy>();
}

TEST(ServeRingTest, TryPushBackpressureSharc) {
  RuntimeGuard Guard(serveConfig());
  ringBackpressureCheck<SharcPolicy>();
  EXPECT_EQ(rt::Runtime::get().getStats().totalConflicts(), 0u);
}

namespace {

struct StormRun {
  ServeStats Stats;
  LoadResult Load;
};

/// Runs the full pipeline with the resilience layer armed and the load
/// generator in retry mode — the wiring sharc-serve uses whenever
/// --max-inflight / --deadline-ms / --chaos is given.
template <typename P>
StormRun runStorm(const LoadConfig &LC, const ServeParams &SP,
                  obs::VectorSink *Out = nullptr) {
  std::unique_ptr<obs::Collector> Col;
  if (Out)
    Col = std::make_unique<obs::Collector>(*Out, 1u << 16);
  SimTransport Net;
  SteadyClock::time_point Epoch = SteadyClock::now();
  Server<P> Srv(SP, Net, Epoch);
  if (Col)
    Srv.setTrace(Col.get());
  Srv.start();
  std::vector<Arrival> S = buildSchedule(LC);
  StormRun R;
  R.Load = runOpenLoop(Net, S, LC, Epoch);
  Srv.stop();
  if (Col)
    Col->flush();
  R.Stats = Srv.takeStats();
  return R;
}

LoadConfig stormLoad() {
  LoadConfig C = smallLoad();
  C.RatePerSec = 400000; // ~2x what smallParams' workers sustain
  C.Resilient = true;
  return C;
}

ServeParams stormParams() {
  ServeParams P = smallParams();
  P.ServiceNanos = 30000;
  P.Resilient = true;
  return P;
}

} // namespace

TEST(ServeStormTest, OverloadShedsAndAccountsExactly) {
  // The core robustness property: at 2x sustainable load with a small
  // admission cap, the server sheds (typed rejections) instead of
  // queueing unboundedly, clients retry with backoff, and nothing is
  // lost in the accounting — every offered request is either completed,
  // timed out server-side, or given up by its client.
  LoadConfig LC = stormLoad();
  ServeParams SP = stormParams();
  SP.MaxInflight = 8;
  StormRun R = runStorm<UncheckedPolicy>(LC, SP);
  EXPECT_EQ(R.Load.Offered, LC.totalRequests());
  EXPECT_GT(R.Stats.Shed, 0u);
  EXPECT_GT(R.Load.ShedSeen, 0u);
  EXPECT_GT(R.Load.Retries, 0u);
  EXPECT_EQ(R.Stats.Completed + R.Stats.TimedOut + R.Load.Dropped,
            R.Load.Offered);
  // Rejections are refusals, not failures: the error counter stays 0.
  EXPECT_EQ(R.Stats.Errors, 0u);
}

TEST(ServeStormTest, SharcPolicyOverloadIsViolationFree) {
  // Shedding casts nothing (ownership never moves for a refused
  // connection) and retries re-submit fresh payload bytes, so the
  // annotated build must survive overload with zero sharing violations
  // — the "casts stay checked under shedding" contract.
  //
  // The overload holds by construction, on any host and under the
  // sanitizers' slowdown: each worker sleeps 2 ms after every 4th
  // request, so the three finish at most 12 requests per 2 ms while the
  // 1,200 arrive within about 3 ms, and admission, capped at eight in
  // flight, sheds unless the acceptor spreads them over about 200 ms.
  // Clients retry up to 100 times, backing off to at most 20 ms, for
  // about 2 s; a run takes about 0.4 s, so nearly every request is
  // served through the checked pipeline.
  LoadConfig LC = stormLoad();
  LC.RetryMax = 100;
  LC.RetryBackoffCapNs = 20000000;
  ServeParams SP = stormParams();
  SP.MaxInflight = 8;
  SP.WorkerStallEvery = 4;
  SP.WorkerStallNanos = 2000000;
  RuntimeGuard Guard(serveConfig());
  StormRun R = runStorm<SharcPolicy>(LC, SP);
  EXPECT_GT(R.Stats.Shed, 0u);
  EXPECT_GE(R.Stats.Completed, R.Load.Offered * 9 / 10);
  EXPECT_EQ(R.Stats.Completed + R.Stats.TimedOut + R.Load.Dropped,
            R.Load.Offered);
  EXPECT_EQ(rt::Runtime::get().getStats().totalConflicts(), 0u);
}

TEST(ServeStormTest, DeadlineDropsStaleQueueResidents) {
  // A slow backend with a finite deadline: requests pass admission
  // fresh, go stale while queued, and are dropped at dequeue with a
  // counted timeout instead of burning handler CPU. Server-side
  // timeouts are not retried (no rejection is sent), so the identity
  // closes through the TimedOut column.
  //
  // Residents go stale by construction. Deadlines run from the scheduled
  // arrival, and all 1,200 arrivals fall within about 3 ms. Each worker
  // sleeps for two deadlines after every request it handles, so any
  // request still in the ring when the first ones are taken is past its
  // deadline when a worker next looks, however the threads are
  // scheduled. The deadline is long enough that the acceptor admits
  // requests even if it starts tens of milliseconds late.
  LoadConfig LC = stormLoad();
  ServeParams SP = stormParams();
  SP.ServiceNanos = 500000; // 500us/request
  SP.DeadlineNanos = 50000000;
  SP.WorkerStallEvery = 1;
  SP.WorkerStallNanos = 2 * SP.DeadlineNanos;
  SP.RingCapacity = 4096; // roomy: isolate the deadline path from
                          // ring-full shedding
  StormRun R = runStorm<UncheckedPolicy>(LC, SP);
  EXPECT_GT(R.Stats.TimedOut, 0u);
  EXPECT_EQ(R.Stats.Completed + R.Stats.TimedOut + R.Load.Dropped,
            R.Load.Offered);
}

TEST(ServeStormTest, DegradationLadderShedsLoggerWorkFirst) {
  // A tiny ring under 2x load walks the ladder: depth crosses the high
  // watermark, degraded mode sheds log records (logger work before
  // handler work), and the episode closes — at the latest when the
  // drain empties the ring — recording a recovery with its time-to-
  // recover. Log conservation: every completed request either logged
  // or counted its shed.
  LoadConfig LC = stormLoad();
  ServeParams SP = stormParams();
  SP.RingCapacity = 64;
  SP.ServiceNanos = 100000;
  StormRun R = runStorm<UncheckedPolicy>(LC, SP);
  EXPECT_GT(R.Stats.LogShed, 0u);
  EXPECT_GE(R.Stats.Recoveries, 1u);
  EXPECT_GT(R.Stats.DegradedNs, 0u);
  EXPECT_EQ(R.Stats.RecoveryNs.count(), R.Stats.Recoveries);
  EXPECT_EQ(R.Stats.LogRecords + R.Stats.LogShed, R.Stats.Completed);
  EXPECT_EQ(R.Stats.Completed + R.Stats.TimedOut + R.Load.Dropped,
            R.Load.Offered);
}

TEST(ServeStormTest, WorkerCrashSurvivorsDrainTheRing) {
  // worker-crash retires worker 0 at a request boundary; the survivors
  // own the ring from then on and must drain every admitted connection
  // — a crashed worker never strands work it did not own.
  //
  // Nothing is shed, by construction: the ring holds the whole 1,200-
  // request schedule, and neither an inflight cap nor a deadline is set.
  // A smaller ring fills whenever no worker runs for a few milliseconds,
  // and a request shed more than RetryMax times is dropped.
  LoadConfig LC = smallLoad();
  LC.RatePerSec = 100000;
  LC.Resilient = true;
  ServeParams SP = stormParams();
  SP.WorkerCrashAfter = 20;
  SP.RingCapacity = 4096;
  StormRun R = runStorm<UncheckedPolicy>(LC, SP);
  EXPECT_EQ(R.Stats.FaultsInjected, 1u);
  EXPECT_EQ(R.Stats.Completed, R.Load.Offered);
  EXPECT_EQ(R.Load.Dropped, 0u);
}

TEST(ServeStormTest, LoggerWedgeBacksUpIntoLogShedding) {
  // logger-wedge stalls the logger on its first record; the log ring
  // fills behind it and workers shed records instead of blocking the
  // handler path — graceful degradation sacrifices observability
  // before throughput.
  LoadConfig LC = smallLoad();
  LC.RatePerSec = 100000;
  LC.Resilient = true;
  ServeParams SP = stormParams();
  SP.ServiceNanos = 1000;
  SP.RingCapacity = 64; // log ring shares the capacity: wedges fast
  SP.LoggerWedgeNanos = 20000000;
  StormRun R = runStorm<UncheckedPolicy>(LC, SP);
  EXPECT_GE(R.Stats.FaultsInjected, 1u);
  EXPECT_GT(R.Stats.LogShed, 0u);
  EXPECT_EQ(R.Stats.LogRecords + R.Stats.LogShed, R.Stats.Completed);
  EXPECT_EQ(R.Stats.Completed + R.Stats.TimedOut + R.Load.Dropped,
            R.Load.Offered);
}

TEST(ServeStormTest, ConnResetsAreRetriedWithIdenticalPayload) {
  // The transport bounces every Nth submission; the client retries with
  // the SAME request id and byte-identical payload (the payload is a
  // pure function of seed and sequence), so a run where every retry
  // eventually lands produces the same checksum as an undisturbed run.
  LoadConfig LC = smallLoad();
  LC.RatePerSec = 100000;
  ServeParams SP = smallParams();
  ServeStats Clean = runServer<UncheckedPolicy>(LC, SP);

  LC.Resilient = true;
  SP.Resilient = true;
  SimTransport Net;
  SteadyClock::time_point Epoch = SteadyClock::now();
  Server<UncheckedPolicy> Srv(SP, Net, Epoch);
  Net.setConnResetEvery(7);
  Srv.start();
  std::vector<Arrival> S = buildSchedule(LC);
  LoadResult L = runOpenLoop(Net, S, LC, Epoch);
  Srv.stop();
  ServeStats Chaos = Srv.takeStats();

  EXPECT_GT(L.ResetSeen, 0u);
  EXPECT_GE(L.Retries, L.ResetSeen - L.Dropped);
  EXPECT_EQ(Chaos.Completed + Chaos.TimedOut + L.Dropped, L.Offered);
  if (L.Dropped == 0) {
    EXPECT_EQ(Chaos.Completed, Clean.Completed);
    EXPECT_EQ(Chaos.Checksum, Clean.Checksum);
  }
}

TEST(ServeLoadGenTest, RetryPayloadIsAPureFunctionOfSeedAndSeq) {
  std::vector<uint8_t> A, B;
  fillPayload(A, 9, 42, 64);
  fillPayload(B, 9, 42, 64);
  EXPECT_EQ(A, B);
  fillPayload(B, 9, 43, 64);
  EXPECT_NE(A, B);
  fillPayload(B, 10, 42, 64);
  EXPECT_NE(A, B);
}

TEST(ServeStormTest, ShedAndRetriedRequestsCarryOutcomesInTheSpanTree) {
  // Satellite 6's producer side: shed admissions emit an Accept span
  // pair with the shed outcome, so the request view names them instead
  // of mistaking their short span trees for truncation — and a
  // rejected-then-admitted request counts as retried (two Accept
  // begins) with a last-wins Ok outcome.
  LoadConfig LC = stormLoad();
  ServeParams SP = stormParams();
  SP.MaxInflight = 8;
  obs::VectorSink Out;
  StormRun R = runStorm<UncheckedPolicy>(LC, SP, &Out);
  ASSERT_GT(R.Stats.Shed, 0u);

  obs::RequestsReport Rep = requestsOf(Out);
  EXPECT_EQ(Rep.Requests.size(), LC.totalRequests());
  EXPECT_GT(Rep.Shed, 0u);
  EXPECT_GT(Rep.Retried, 0u);
  // Every request resolves to a named outcome; nothing is mislabelled
  // as an incomplete (truncated) span set.
  EXPECT_EQ(Rep.Complete + Rep.Shed + Rep.TimedOut, Rep.Requests.size());
  EXPECT_EQ(Rep.Incomplete, 0u);
  // Completed count in the span view matches the server's own books.
  EXPECT_EQ(Rep.Complete, R.Stats.Completed);
}

TEST(ServeSpanTest, InjectedStallIsAttributedToTheHoldingRequest) {
  // The acceptance scenario: every 32nd request spins 2ms inside the
  // single session-shard lock, so requests behind it pile up in
  // lock-wait. The tail analysis must name the stalling HOLDER request
  // for at least one victim — and every named holder must be one of the
  // injected stalls.
  LoadConfig LC = smallLoad();
  LC.RatePerSec = 20000; // gentle: lock contention, not ring backlog
  ServeParams SP = smallParams();
  SP.SessionShardCount = 1; // one lock: all requests contend
  SP.InjectStallEvery = 32;
  SP.InjectStallNanos = 2000000;
  obs::VectorSink Out;
  ServeStats S = runServerTraced<UncheckedPolicy>(LC, SP, Out);
  ASSERT_EQ(S.Completed, LC.totalRequests());

  obs::RequestsReport R = requestsOf(Out);
  obs::TraceData Data;
  Data.Spans = Out.Spans;
  std::vector<obs::TailEntry> Tail = obs::tailRequests(R, Data, 100.0);
  unsigned HolderHits = 0;
  for (const obs::TailEntry &E : Tail) {
    if (E.C != obs::TailEntry::Cause::LockHolder ||
        E.DominantNs < SP.InjectStallNanos / 4)
      continue;
    ++HolderHits;
    EXPECT_EQ(E.HolderReq % SP.InjectStallEvery, 0u)
        << "req " << E.Req << " blames req " << E.HolderReq
        << ", which is not an injected stall: " << E.Detail;
    EXPECT_NE(E.Detail.find("held by req"), std::string::npos) << E.Detail;
  }
  EXPECT_GT(HolderHits, 0u)
      << "no victim was attributed to a stalling lock holder";
}
