//===-- serve/Server.cpp - Annotated request server -----------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "rt/AccessSite.h"

#include <chrono>
#include <thread>

namespace sharc {
namespace serve {

namespace {

uint64_t fnv1a(const uint8_t *Data, size_t Size) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I != Size; ++I) {
    H ^= Data[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Deterministic response transform: a keyed xorshift64* keystream XORed
/// over the payload. Pure function of (Key, Seq, payload), so the orig
/// and sharc servers produce bit-identical responses and the folded
/// checksum is an equivalence oracle between the two builds.
void cipher(uint64_t Key, uint64_t Seq, uint8_t *Data, size_t Size) {
  uint64_t S = splitmix64(Key ^ splitmix64(Seq + 1));
  for (size_t I = 0; I != Size; ++I) {
    if (I % 8 == 0) {
      S ^= S << 13;
      S ^= S >> 7;
      S ^= S << 17;
    }
    Data[I] ^= static_cast<uint8_t>(S >> ((I % 8) * 8));
  }
}

} // namespace

template <typename P>
Server<P>::Server(const ServeParams &Params, Transport &Net,
                  SteadyClock::time_point Epoch)
    : Net(Net), Epoch(Epoch) {
  Config.init(Params);
  Sessions = std::make_unique<SessionShard<P>[]>(Params.SessionShardCount);
  Conns = std::make_unique<ConnShard<P>[]>(Params.ConnShardCount);
  Ingress =
      std::make_unique<HandoffRing<P, Connection<P>>>(Params.RingCapacity);
  LogRing = std::make_unique<HandoffRing<P, LogRecord>>(Params.RingCapacity);
  WorkerStates = std::make_unique<typename P::template Private<WorkerLocal>[]>(
      Params.Workers);
}

template <typename P> Server<P>::~Server() {
  stop();
  const ServeParams &C = Config.get();
  // Post-drain the connection tables are empty; free leftovers anyway so
  // an aborted run doesn't leak.
  for (unsigned I = 0; I != C.ConnShardCount; ++I)
    for (auto &[Id, Conn] : Conns[I].Map)
      P::dealloc(Conn);
  for (unsigned I = 0; I != C.SessionShardCount; ++I)
    for (auto &[Key, S] : Sessions[I].Map) {
      S->~Session();
      P::dealloc(S);
    }
}

template <typename P> void Server<P>::start() {
  const ServeParams &C = Config.get();
  Threads.emplace_back(typename P::Thread([this] { acceptorMain(); }));
  for (unsigned I = 0; I != C.Workers; ++I)
    Threads.emplace_back(typename P::Thread([this, I] { workerMain(I); }));
  Threads.emplace_back(typename P::Thread([this] { loggerMain(); }));
}

template <typename P> void Server<P>::stop() {
  if (Stopped || Threads.empty())
    return;
  Stopped = true;
  const ServeParams &C = Config.get();
  Net.closeIngress();
  // The acceptor drains the transport, then closes the ingress ring; the
  // workers drain the ring, then exit; only then may the log ring close.
  Threads[0].join();
  for (unsigned I = 0; I != C.Workers; ++I)
    Threads[1 + I].join();
  LogRing->close();
  Threads[1 + C.Workers].join();
  // Drain pending RC logs naming the ring slots before any of their
  // storage can be destroyed.
  P::quiesce();
}

template <typename P>
Connection<P> *Server<P>::makeConnection(SimRequest &&Req,
                                         AcceptorLocal &Local) {
  uint64_t AcceptB = nanosSince(Epoch);
  emitSpan(AcceptorRole, Req.Seq, obs::SpanStage::Accept, true, AcceptB,
           Req.Client);
  auto *Conn = static_cast<Connection<P> *>(
      P::alloc(sizeof(Connection<P>) + Req.Payload.size()));
  new (Conn) Connection<P>();
  Conn->Client = Req.Client;
  Conn->Seq = Req.Seq;
  Conn->Kind = Req.Kind;
  Conn->ArrivalNs = Req.ArrivalNs;
  Conn->PayloadSize = static_cast<uint32_t>(Req.Payload.size());
  // Copy the wire bytes into checked memory: the acceptor is the sole
  // accessor until the sharing cast into the ingress ring.
  P::writeRange(Conn->payload(), Conn->PayloadSize,
                SHARC_SITE("conn->payload"));
  if (Conn->PayloadSize)
    std::memcpy(Conn->payload(), Req.Payload.data(), Conn->PayloadSize);

  const ServeParams &C = Config.get();
  ConnShard<P> &Shard = Conns[Conn->Seq & (C.ConnShardCount - 1)];
  {
    typename P::LockGuard Lock(Shard.Lock);
    Shard.Map.emplace(Conn->Seq, Conn);
    Shard.Open.write(Shard.Open.read(SHARC_SITE("connshard->open")) + 1,
                     SHARC_SITE("connshard->open"));
  }

  ++Local.Accepted;
  Local.BytesIn += Conn->PayloadSize;
  AcceptedLive.write(AcceptedLive.read() + 1);
  uint64_t Inflight = ++InflightLive;
  if (Inflight > PeakInflightLive.read())
    PeakInflightLive.write(Inflight);
  uint64_t AcceptE = nanosSince(Epoch);
  Local.StageNs[unsigned(obs::SpanStage::Accept)].record(AcceptE - AcceptB);
  emitSpan(AcceptorRole, Conn->Seq, obs::SpanStage::Accept, false, AcceptE);
  return Conn;
}

template <typename P>
bool Server<P>::mustShed(const SimRequest &Req, uint64_t NowNs) {
  const ServeParams &C = Config.get();
  // Deadline already blown while sitting in the accept queue: admitting
  // it would only burn a worker on a request the client gave up on.
  if (C.DeadlineNanos != 0 && NowNs > Req.ArrivalNs &&
      NowNs - Req.ArrivalNs > C.DeadlineNanos)
    return true;
  if (C.MaxInflight != 0 && InflightLive.load() >= C.MaxInflight)
    return true;
  // The full ring is the typed backpressure signal: shed instead of
  // blocking. The acceptor is the ring's only producer, so a below-
  // capacity depth here guarantees the subsequent push cannot block.
  return Ingress->depth() >= Ingress->capacity();
}

template <typename P>
void Server<P>::shedConnection(const SimRequest &Req, AcceptorLocal &Local) {
  // The Accept span pair still exists — a shed request has a (tiny)
  // span tree whose Accept end carries the shed outcome, so the tail
  // report can name it instead of losing it. No allocation, no conn-
  // table entry, no sharing cast: shedding is cheap by design.
  uint64_t B = nanosSince(Epoch);
  emitSpan(AcceptorRole, Req.Seq, obs::SpanStage::Accept, true, B,
           Req.Client);
  Net.reject(Reject{Req.Client, Req.Seq, Req.Kind, Req.ArrivalNs,
                    RejectReason::Shed});
  ++Local.Shed;
  ShedLive.write(ShedLive.read() + 1);
  emitSpan(AcceptorRole, Req.Seq, obs::SpanStage::Accept, false,
           nanosSince(Epoch), obs::OutcomeShed);
}

template <typename P> void Server<P>::acceptorMain() {
  AcceptorState.adopt();
  AcceptorLocal &Local = AcceptorState.get();
  const ServeParams &C = Config.get();
  std::vector<SimRequest> Batch;
  // Degradation-ladder episode state (sharc-storm): nonzero while the
  // ring last crossed the high watermark without coming back down.
  uint64_t EpisodeB = 0;
  auto CloseEpisode = [&](uint64_t NowNs) {
    uint64_t Dur = NowNs > EpisodeB ? NowNs - EpisodeB : 0;
    Local.RecoveryNs.record(Dur);
    Local.DegradedNs += Dur;
    ++Local.Recoveries;
    EpisodeB = 0;
    DegradedLive.write(0);
  };
  auto Ladder = [&] {
    size_t Depth = Ingress->depth();
    if (EpisodeB == 0 && Depth >= C.highWatermark()) {
      EpisodeB = nanosSince(Epoch);
      DegradedLive.write(1);
    } else if (EpisodeB != 0 && Depth <= C.lowWatermark()) {
      CloseEpisode(nanosSince(Epoch));
    }
  };
  while (Net.acceptBatch(Batch, 256) != 0)
    for (SimRequest &Req : Batch) {
      if (C.Resilient) {
        if (mustShed(Req, nanosSince(Epoch))) {
          shedConnection(Req, Local);
          Ladder();
          continue;
        }
      }
      Connection<P> *Conn = makeConnection(std::move(Req), Local);
      // RingWait opens on the acceptor and closes on whichever worker
      // dequeues the connection — the span crosses the ownership cast.
      Conn->EnqueueNs = nanosSince(Epoch);
      emitSpan(AcceptorRole, Conn->Seq, obs::SpanStage::RingWait, true,
               Conn->EnqueueNs);
      Ingress->push(Conn, SHARC_SITE("conn (acceptor -> worker)"));
      if (C.Resilient)
        Ladder();
    }
  // An episode still open when the load stops ends here: the drain IS
  // the recovery, and counting it keeps overload runs honest about how
  // long they spent degraded.
  if (EpisodeB != 0)
    CloseEpisode(nanosSince(Epoch));
  Ingress->close();
}

template <typename P>
Session<P> *Server<P>::findOrCreateSession(SessionShard<P> &Shard,
                                           uint64_t Key, WorkerLocal &Local) {
  auto It = Shard.Map.find(Key);
  if (It != Shard.Map.end()) {
    ++Local.SessionHits;
    return It->second;
  }
  ++Local.SessionMisses;
  auto *S = static_cast<Session<P> *>(P::alloc(sizeof(Session<P>)));
  new (S) Session<P>(Shard.Lock);
  Shard.Map.emplace(Key, S);
  return S;
}

template <typename P> void Server<P>::teardownConnection(Connection<P> *Conn) {
  const ServeParams &C = Config.get();
  uint64_t Seq = Conn->Seq;
  ConnShard<P> &CS = Conns[Seq & (C.ConnShardCount - 1)];
  {
    typename P::LockGuard Lock(CS.Lock);
    CS.Map.erase(Seq);
    CS.Open.write(CS.Open.read(SHARC_SITE("connshard->open")) - 1,
                  SHARC_SITE("connshard->open"));
  }
  --InflightLive;
  P::dealloc(Conn);
}

template <typename P>
void Server<P>::dropTimedOut(Connection<P> *Conn, WorkerLocal &Local,
                             uint32_t Role) {
  uint64_t Seq = Conn->Seq;
  uint8_t Kind = Conn->Kind;
  // The request's RingWait still ends and a (degenerate) Handler span
  // still opens: the span tree records WHERE the budget died — in the
  // ring — and the Handler end carries the timed-out outcome.
  uint64_t Now = nanosSince(Epoch);
  Local.StageNs[unsigned(obs::SpanStage::RingWait)].record(
      Now > Conn->EnqueueNs ? Now - Conn->EnqueueNs : 0);
  emitSpan(Role, Seq, obs::SpanStage::RingWait, false, Now);
  emitSpan(Role, Seq, obs::SpanStage::Handler, true, Now, Kind);
  teardownConnection(Conn);
  ++Local.TimedOut;
  emitSpan(Role, Seq, obs::SpanStage::Handler, false, nanosSince(Epoch),
           obs::OutcomeTimedOut);
}

template <typename P>
void Server<P>::handle(Connection<P> *Conn, WorkerLocal &Local,
                       uint32_t Role) {
  const ServeParams &C = Config.get();
  uint64_t Seq = Conn->Seq;
  uint64_t Cpu0 = threadCpuNanos();

  // The request's RingWait ends (and its Handler begins) the moment the
  // worker takes over.
  uint64_t HandlerB = nanosSince(Epoch);
  Local.StageNs[unsigned(obs::SpanStage::RingWait)].record(
      HandlerB > Conn->EnqueueNs ? HandlerB - Conn->EnqueueNs : 0);
  emitSpan(Role, Seq, obs::SpanStage::RingWait, false, HandlerB);
  emitSpan(Role, Seq, obs::SpanStage::Handler, true, HandlerB, Conn->Kind);

  // Request in: dynamic-checked bulk read of the payload.
  P::readRange(Conn->payload(), Conn->PayloadSize,
               SHARC_SITE("conn->payload"));
  uint64_t Sum = fnv1a(Conn->payload(), Conn->PayloadSize);

  // Session cache: locked-mode cells under the shard mutex. LockWait
  // covers the acquisition, LockHold the critical section; both carry
  // the shard lock's address so the tail report can match a victim's
  // wait against the holder's overlapping hold.
  SessionShard<P> &Shard = Sessions[Conn->Client & (C.SessionShardCount - 1)];
  uint64_t LockId = reinterpret_cast<uintptr_t>(&Shard.Lock);
  Session<P> *S;
  uint64_t HoldB;
  uint64_t WaitB = nanosSince(Epoch);
  emitSpan(Role, Seq, obs::SpanStage::LockWait, true, WaitB, LockId);
  {
    typename P::LockGuard Lock(Shard.Lock);
    HoldB = nanosSince(Epoch);
    Local.StageNs[unsigned(obs::SpanStage::LockWait)].record(HoldB - WaitB);
    emitSpan(Role, Seq, obs::SpanStage::LockWait, false, HoldB, LockId);
    emitSpan(Role, Seq, obs::SpanStage::LockHold, true, HoldB, LockId);
    S = findOrCreateSession(Shard, Conn->Client, Local);
    uint64_t Cur = S->Value.read(SHARC_SITE("session->value"));
    if (Conn->Kind == OpPut)
      S->Value.write(Cur ^ Sum, SHARC_SITE("session->value"));
    S->Hits.write(S->Hits.read(SHARC_SITE("session->hits")) + 1,
                  SHARC_SITE("session->hits"));
    if (C.InjectStallEvery != 0 && Seq % C.InjectStallEvery == 0)
      // sharc-span's injected tail pathology: burn CPU while holding
      // the shard lock, so same-shard requests queue up behind it.
      spinThreadCpu(C.InjectStallNanos);
  }
  uint64_t HoldE = nanosSince(Epoch);
  Local.StageNs[unsigned(obs::SpanStage::LockHold)].record(HoldE - HoldB);
  emitSpan(Role, Seq, obs::SpanStage::LockHold, false, HoldE, LockId);
  if (C.InjectRaceEvery != 0 && Seq % C.InjectRaceEvery == 0)
    // serve_guard's deliberate bug: a session update that skips the
    // shard lock. The locked-mode check fires deterministically.
    S->Value.write(Sum, SHARC_SITE("session->value [lock skipped]"));

  // Simulated backend work, then the response transform over the payload
  // (dynamic-checked bulk write; the worker owns the connection since
  // the cast, so this is single-accessor clean).
  spinThreadCpu(C.ServiceNanos);
  P::writeRange(Conn->payload(), Conn->PayloadSize,
                SHARC_SITE("conn->payload"));
  cipher(C.CipherKey, Seq, Conn->payload(), Conn->PayloadSize);
  Local.Checksum ^= fnv1a(Conn->payload(), Conn->PayloadSize);

  uint64_t Done = nanosSince(Epoch);
  uint64_t Latency = Done > Conn->ArrivalNs ? Done - Conn->ArrivalNs : 0;
  Local.LatencyNs.record(Latency);
  ++Local.Completed;
  ++Local.OpCounts[Conn->Kind % OpKinds];
  Local.BytesOut += Conn->PayloadSize;
  CompletedLive.write(CompletedLive.read() + 1);

  // Completion record to the logger (counted hand-off). LogWait opens
  // here and closes when the logger dequeues the record — like
  // RingWait, the span crosses the ownership cast. Under sharc-storm
  // the degradation ladder sheds this work FIRST: while degraded the
  // record is never allocated, and a full log ring drops it instead of
  // blocking the worker — logger work dies before handler work does.
  if (!C.Resilient) {
    auto *Rec = static_cast<LogRecord *>(P::alloc(sizeof(LogRecord)));
    uint64_t LogB = nanosSince(Epoch);
    new (Rec)
        LogRecord{Conn->Client, Conn->Kind, Latency, Conn->PayloadSize, Seq,
                  LogB};
    emitSpan(Role, Seq, obs::SpanStage::LogWait, true, LogB);
    LogRing->push(Rec, SHARC_SITE("log record (worker -> logger)"));
  } else if (DegradedLive.read() != 0) {
    ++Local.LogShed;
  } else {
    auto *Rec = static_cast<LogRecord *>(P::alloc(sizeof(LogRecord)));
    uint64_t LogB = nanosSince(Epoch);
    new (Rec)
        LogRecord{Conn->Client, Conn->Kind, Latency, Conn->PayloadSize, Seq,
                  LogB};
    // The begin record is emitted only on success (after the cast, with
    // the pre-push timestamp): a shed record must not leave a dangling
    // LogWait in the span tree.
    if (LogRing->tryPush(Rec, SHARC_SITE("log record (worker -> logger)"))) {
      emitSpan(Role, Seq, obs::SpanStage::LogWait, true, LogB);
    } else {
      ++Local.LogShed;
      P::dealloc(Rec);
    }
  }

  // Connection teardown.
  teardownConnection(Conn);

  uint64_t HandlerE = nanosSince(Epoch);
  Local.StageNs[unsigned(obs::SpanStage::Handler)].record(HandlerE -
                                                          HandlerB);
  emitSpan(Role, Seq, obs::SpanStage::Handler, false, HandlerE);
  Local.ServiceNs += threadCpuNanos() - Cpu0;
}

template <typename P> void Server<P>::workerMain(unsigned Index) {
  WorkerStates[Index].adopt();
  WorkerLocal &Local = WorkerStates[Index].get();
  const ServeParams &C = Config.get();
  uint32_t Role = FirstWorkerRole + Index;
  while (Connection<P> *Conn =
             Ingress->pop(SHARC_SITE("conn (acceptor -> worker)"))) {
    ++Local.Handled;
    if (C.Resilient && C.DeadlineNanos != 0) {
      uint64_t Now = nanosSince(Epoch);
      if (Now > Conn->ArrivalNs && Now - Conn->ArrivalNs > C.DeadlineNanos) {
        // The deadline died while the connection sat in the ring: drop
        // it with a counted timeout instead of burning handler CPU.
        dropTimedOut(Conn, Local, Role);
        continue;
      }
    }
    handle(Conn, Local, Role);
    if (C.WorkerStallNanos != 0 && C.WorkerStallEvery != 0 &&
        Local.Handled % C.WorkerStallEvery == 0) {
      // Chaos worker-stall: a sleep, not a spin, so handler thread-CPU
      // (the overhead-gate statistic) stays honest. Between requests,
      // so the stall never inflates a Handler span.
      ++Local.FaultsInjected;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(C.WorkerStallNanos));
    }
    if (C.WorkerCrashAfter != 0 && Index == 0 &&
        Local.Handled >= C.WorkerCrashAfter) {
      // Chaos worker-crash: worker 0 leaves the pool at a request
      // boundary — it never strands a connection it owns; the rest of
      // the pool absorbs the load.
      ++Local.FaultsInjected;
      break;
    }
  }
}

template <typename P> void Server<P>::loggerMain() {
  LoggerState.adopt();
  LoggerLocal &Local = LoggerState.get();
  const ServeParams &C = Config.get();
  uint32_t Role = FirstWorkerRole + C.Workers;
  bool Wedged = false;
  while (LogRecord *Rec =
             LogRing->pop(SHARC_SITE("log record (worker -> logger)"))) {
    if (C.LoggerWedgeNanos != 0 && !Wedged) {
      // Chaos logger-wedge: one long stall on the first record, backing
      // the log ring up against the workers. Sleeping after the pop but
      // before the LogWait timestamp charges the wedge to the stage
      // where its victims actually wait.
      Wedged = true;
      ++Local.FaultsInjected;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(C.LoggerWedgeNanos));
    }
    uint64_t Pop = nanosSince(Epoch);
    Local.StageNs[unsigned(obs::SpanStage::LogWait)].record(
        Pop > Rec->EnqueueNs ? Pop - Rec->EnqueueNs : 0);
    emitSpan(Role, Rec->Seq, obs::SpanStage::LogWait, false, Pop);
    emitSpan(Role, Rec->Seq, obs::SpanStage::Logger, true, Pop);
    ++Local.Records;
    Local.Bytes += Rec->Bytes;
    ++Local.OpCounts[Rec->Kind % OpKinds];
    uint64_t Seq = Rec->Seq;
    P::dealloc(Rec);
    uint64_t Done = nanosSince(Epoch);
    Local.StageNs[unsigned(obs::SpanStage::Logger)].record(Done - Pop);
    emitSpan(Role, Seq, obs::SpanStage::Logger, false, Done);
  }
}

template <typename P> ServeStats Server<P>::takeStats() {
  ServeStats Out;
  const ServeParams &C = Config.get();

  // The worker/acceptor/logger threads are joined: adopting their
  // private aggregates is the legitimate ownership transfer back to the
  // collector.
  AcceptorState.adopt();
  Out.Accepted = AcceptorState.get().Accepted;
  Out.BytesIn = AcceptorState.get().BytesIn;
  Out.Shed = AcceptorState.get().Shed;
  Out.Recoveries = AcceptorState.get().Recoveries;
  Out.DegradedNs = AcceptorState.get().DegradedNs;
  Out.RecoveryNs.merge(AcceptorState.get().RecoveryNs);
  for (unsigned K = 0; K != obs::NumSpanStages; ++K)
    Out.StageNs[K].merge(AcceptorState.get().StageNs[K]);
  for (unsigned I = 0; I != C.Workers; ++I) {
    WorkerStates[I].adopt();
    const WorkerLocal &W = WorkerStates[I].get();
    Out.Completed += W.Completed;
    Out.Errors += W.Errors;
    Out.ServiceNs += W.ServiceNs;
    Out.Checksum ^= W.Checksum;
    Out.SessionHits += W.SessionHits;
    Out.SessionMisses += W.SessionMisses;
    Out.BytesOut += W.BytesOut;
    Out.TimedOut += W.TimedOut;
    Out.LogShed += W.LogShed;
    Out.FaultsInjected += W.FaultsInjected;
    for (unsigned K = 0; K != OpKinds; ++K)
      Out.OpCounts[K] += W.OpCounts[K];
    Out.LatencyNs.merge(W.LatencyNs);
    for (unsigned K = 0; K != obs::NumSpanStages; ++K)
      Out.StageNs[K].merge(W.StageNs[K]);
  }
  LoggerState.adopt();
  Out.LogRecords = LoggerState.get().Records;
  Out.FaultsInjected += LoggerState.get().FaultsInjected;
  for (unsigned K = 0; K != obs::NumSpanStages; ++K)
    Out.StageNs[K].merge(LoggerState.get().StageNs[K]);
  Out.PeakInflight = PeakInflightLive.read();

  // Fold the final session values in: XOR of all OpPut sums regardless
  // of scheduling order, so it is part of the orig/sharc equivalence
  // checksum. Locked-mode reads, so take each shard lock.
  for (unsigned I = 0; I != C.SessionShardCount; ++I) {
    typename P::LockGuard Lock(Sessions[I].Lock);
    for (auto &[Key, S] : Sessions[I].Map)
      Out.Checksum ^= S->Value.read(SHARC_SITE("session->value"));
  }
  return Out;
}

template class Server<UncheckedPolicy>;
template class Server<SharcPolicy>;

} // namespace serve
} // namespace sharc
