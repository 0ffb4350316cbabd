//===-- fuzz/Oracle.cpp ---------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "analysis/SharingAnalysis.h"
#include "checker/Checker.h"
#include "fuzz/RefDetectors.h"
#include "fuzz/Rng.h"
#include "interp/Explore.h"
#include "interp/Interp.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"
#include "minic/Printer.h"
#include "obs/Sink.h"
#include "obs/Summary.h"
#include "obs/TraceFile.h"
#include "obs/TraceTail.h"
#include "racedet/Eraser.h"
#include "racedet/VectorClock.h"
#include "rt/Guard.h"
#include "rt/RefCount.h"
#include "rt/Report.h"
#include "rt/Stats.h"
#include "rt/ThreadRegistry.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>

using namespace sharc;
using namespace sharc::fuzz;

const char *sharc::fuzz::failureKindName(FailureKind K) {
  switch (K) {
  case FailureKind::None:
    return "none";
  case FailureKind::ParseError:
    return "parse-error";
  case FailureKind::TypeError:
    return "type-error";
  case FailureKind::RoundTrip:
    return "round-trip";
  case FailureKind::Determinism:
    return "determinism";
  case FailureKind::EraserMismatch:
    return "eraser-mismatch";
  case FailureKind::HbMismatch:
    return "hb-mismatch";
  case FailureKind::RcMismatch:
    return "rc-mismatch";
  case FailureKind::TraceMismatch:
    return "trace-mismatch";
  case FailureKind::PolicyMismatch:
    return "policy-mismatch";
  case FailureKind::TailMismatch:
    return "tail-mismatch";
  case FailureKind::ExploreMismatch:
    return "explore-mismatch";
  }
  return "unknown";
}

std::string sharc::fuzz::stripPolyMarkers(const std::string &Printed) {
  std::string Source;
  for (size_t I = 0; I < Printed.size(); ++I) {
    if (Printed.compare(I, 3, "(q)") == 0) {
      I += 2;
      continue;
    }
    if (Printed.compare(I, 2, "*q") == 0) {
      Source += '*';
      ++I;
      continue;
    }
    Source += Printed[I];
  }
  return Source;
}

namespace {

/// FNV-1a accumulator; everything the oracles compare flows through one
/// of these so identical campaigns produce identical report digests.
struct Digest {
  uint64_t H = 0xCBF29CE484222325ull;

  void bytes(const void *P, size_t N) {
    const unsigned char *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 0x100000001B3ull;
    }
  }
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  void u64(uint64_t V) { bytes(&V, sizeof(V)); }
};

/// One front-end pipeline over a source buffer. Owns everything the AST
/// points into.
struct Frontend {
  SourceManager SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<minic::Program> Prog;
  bool Parsed = false;
  bool Typed = false;
  bool Analyzed = false;

  explicit Frontend(const std::string &Source) {
    FileId File = SM.addBuffer("fuzz.mc", Source);
    Diags = std::make_unique<DiagnosticEngine>(SM);
    minic::Parser P(SM, File, *Diags);
    Prog = P.parseProgram();
    if (Diags->hasErrors())
      return;
    Parsed = true;
    minic::ExprTyper Typer(*Prog, *Diags);
    if (!Typer.run())
      return;
    Typed = true;
    analysis::SharingAnalysis SA(*Prog, *Diags);
    if (!SA.run())
      return;
    Analyzed = true;
  }
};

/// True for the nine kinds that order a run's schedule, which come first
/// in obs::EventKind. Outside profiling the interpreter publishes one
/// more kind: the Conflict record of each violation.
bool isScheduleEvent(const obs::Event &Ev) {
  return Ev.K <= obs::EventKind::CastQuery;
}

/// Drives the production detectors over \p Trace in one loop: every
/// event calls both detectors with its trace tid. Cell addresses scale
/// by 8 so one interpreter cell is one 8-byte detector granule. Spawn
/// tokens become synthetic locks: the parent releases the token
/// (SpawnEdge), and the child's ThreadStart acquires and at once
/// releases it, which orders the child after the spawn without leaving
/// the token in its Eraser lockset. Every tid must be below MaxTids.
void runDetectors(const std::vector<obs::Event> &Trace,
                  racedet::EraserDetector &Eraser,
                  racedet::HappensBeforeDetector &Hb) {
  for (const obs::Event &Ev : Trace) {
    void *Addr =
        reinterpret_cast<void *>(static_cast<uintptr_t>(Ev.Addr << 3));
    switch (Ev.K) {
    case obs::EventKind::Read:
      Eraser.onRead(Ev.Tid, Addr, 1);
      Hb.onRead(Ev.Tid, Addr, 1);
      break;
    case obs::EventKind::Write:
      Eraser.onWrite(Ev.Tid, Addr, 1);
      Hb.onWrite(Ev.Tid, Addr, 1);
      break;
    case obs::EventKind::LockAcquire:
      Eraser.onLockAcquire(Ev.Tid, Addr);
      Hb.onLockAcquire(Ev.Tid, Addr);
      break;
    case obs::EventKind::LockRelease:
    case obs::EventKind::SpawnEdge:
      Eraser.onLockRelease(Ev.Tid, Addr);
      Hb.onLockRelease(Ev.Tid, Addr);
      break;
    case obs::EventKind::ThreadStart:
      if (Ev.Addr == 0)
        break; // The entry thread has no spawn token.
      Eraser.onLockAcquire(Ev.Tid, Addr);
      Hb.onLockAcquire(Ev.Tid, Addr);
      Eraser.onLockRelease(Ev.Tid, Addr);
      Hb.onLockRelease(Ev.Tid, Addr);
      break;
    case obs::EventKind::ThreadExit:
    case obs::EventKind::PtrStore:
    case obs::EventKind::CastQuery:
    case obs::EventKind::Conflict:
    case obs::EventKind::SharedLockAcquire:
    case obs::EventKind::SharedLockRelease:
    case obs::EventKind::SharingCast:
    case obs::EventKind::LockWait:
      break; // Invisible to the detectors.
    }
  }
}

std::string joinAddrs(const std::vector<uint64_t> &V, size_t Max = 8) {
  std::ostringstream OS;
  for (size_t I = 0; I < V.size() && I < Max; ++I)
    OS << (I ? "," : "") << V[I];
  if (V.size() > Max)
    OS << ",...(" << V.size() << " total)";
  return OS.str();
}

/// Set difference A \ B for sorted vectors.
std::vector<uint64_t> minus(const std::vector<uint64_t> &A,
                            const std::vector<uint64_t> &B) {
  std::vector<uint64_t> Out;
  std::set_difference(A.begin(), A.end(), B.begin(), B.end(),
                      std::back_inserter(Out));
  return Out;
}

/// Hashes a run's result and its schedule events.
void digestRun(Digest &D, const interp::InterpResult &R,
               const std::vector<obs::Event> &Trace) {
  D.u64(R.Completed);
  D.u64(R.Deadlocked);
  D.u64(R.OutOfSteps);
  D.str(R.Output);
  D.u64(R.Stats.Steps);
  D.u64(R.Stats.TotalAccesses);
  D.u64(R.Stats.DynamicChecks);
  D.u64(R.Stats.LockChecks);
  D.u64(R.Stats.SharingCasts);
  D.u64(R.Stats.ThreadsSpawned);
  D.u64(R.Violations.size());
  for (const interp::Violation &V : R.Violations)
    D.str(V.format("fuzz.mc"));
  D.u64(std::count_if(Trace.begin(), Trace.end(), isScheduleEvent));
  for (const obs::Event &Ev : Trace) {
    if (!isScheduleEvent(Ev))
      continue;
    D.u64(static_cast<uint64_t>(Ev.K));
    D.u64(Ev.Tid);
    D.u64(Ev.Addr);
    D.u64(static_cast<uint64_t>(Ev.Value));
  }
}

/// Replays the trace's pointer-slot stores through one RC engine and
/// collects the count it reports at each sharing-cast query.
std::vector<int64_t> replayRc(rt::RcMode Mode,
                              const std::vector<obs::Event> &Trace,
                              size_t ArenaSize) {
  rt::RuntimeConfig Config;
  Config.Rc = Mode;
  Config.ShadowBytesPerGranule = 8; // 63 simulated threads.
  rt::ThreadRegistry Registry(Config.maxThreads());
  rt::RefCountEngine Engine(Config, Registry);

  std::vector<uintptr_t> Arena(ArenaSize, 0);
  std::map<unsigned, rt::ThreadState *> States;
  auto stateFor = [&](unsigned Tid) -> rt::ThreadState & {
    auto It = States.find(Tid);
    if (It == States.end())
      It = States.emplace(Tid, Registry.registerThread()).first;
    return *It->second;
  };

  std::vector<int64_t> Counts;
  for (const obs::Event &Ev : Trace) {
    if (Ev.K == obs::EventKind::PtrStore)
      Engine.storePtr(&Arena[Ev.Addr], static_cast<uintptr_t>(Ev.Value),
                      stateFor(Ev.Tid));
    else if (Ev.K == obs::EventKind::CastQuery)
      Counts.push_back(Engine.getRefCount(static_cast<uintptr_t>(Ev.Addr)));
  }
  return Counts;
}

/// Oracle 5: parse back the bytes the TraceWriter collected alongside
/// run \p R and check them against the events the run published, the
/// violation list, and the aggregate stats. Returns an empty string on
/// agreement, a description of the first disagreement otherwise.
std::string checkTraceRoundTrip(obs::TraceWriter &Writer,
                                const interp::InterpResult &R,
                                const std::vector<obs::Event> &Trace) {
  rt::StatsSnapshot Snapshot = interp::toStatsSnapshot(R);
  Writer.stats(Snapshot);

  obs::TraceData Data;
  std::string Error;
  if (!obs::parseTrace(Writer.buffer(), Data, Error))
    return "serialised trace does not parse back: " + Error;

  std::ostringstream OS;
  if (Data.Events.size() != Trace.size()) {
    OS << "parsed trace carries " << Data.Events.size()
       << " events, the run published " << Trace.size();
    return OS.str();
  }
  uint64_t Conflicts = 0;
  for (size_t I = 0; I < Data.Events.size(); ++I) {
    const obs::Event &Ev = Data.Events[I];
    if (Ev != Trace[I]) {
      OS << "record " << I << " (" << obs::eventKindName(Ev.K) << " tid "
         << Ev.Tid << " addr " << Ev.Addr
         << ") differs from the published event";
      return OS.str();
    }
    if (Ev.K == obs::EventKind::Conflict) {
      ++Conflicts;
    } else if (!isScheduleEvent(Ev)) {
      OS << "unexpected " << obs::eventKindName(Ev.K) << " event at record "
         << I;
      return OS.str();
    }
  }
  if (Conflicts != R.Violations.size()) {
    OS << Conflicts << " conflict records for " << R.Violations.size()
       << " violations";
    return OS.str();
  }

  obs::TraceSummary Sum = obs::summarize(Data);
  uint64_t Accesses =
      Sum.CountByKind[static_cast<size_t>(obs::EventKind::Read)] +
      Sum.CountByKind[static_cast<size_t>(obs::EventKind::Write)];
  if (Accesses != R.Stats.TotalAccesses) {
    OS << "summary counts " << Accesses << " accesses, run reports "
       << R.Stats.TotalAccesses;
    return OS.str();
  }
  uint64_t Starts =
      Sum.CountByKind[static_cast<size_t>(obs::EventKind::ThreadStart)];
  // ThreadsSpawned counts every spawnThread call (the entry thread too),
  // and each one emits exactly one ThreadStart.
  if (Starts != R.Stats.ThreadsSpawned) {
    OS << Starts << " thread-start records for " << R.Stats.ThreadsSpawned
       << " spawned threads";
    return OS.str();
  }
  if (Data.Samples.size() != 1 || Data.Samples.back() != Snapshot)
    return "final stats sample does not round-trip";
  return std::string();
}

/// Compares the tail parser's decoded TraceData against a batch parse of
/// the same bytes. Empty string on agreement.
std::string diffTailData(const obs::TraceData &Tail,
                         const obs::TraceData &Batch) {
  std::ostringstream OS;
  if (Tail.Events.size() != Batch.Events.size()) {
    OS << "tail decoded " << Tail.Events.size() << " events, batch "
       << Batch.Events.size();
    return OS.str();
  }
  for (size_t I = 0; I < Tail.Events.size(); ++I) {
    const obs::Event &A = Tail.Events[I], &B = Batch.Events[I];
    if (A.K != B.K || A.Tid != B.Tid || A.Addr != B.Addr ||
        A.Value != B.Value || A.Extra != B.Extra) {
      OS << "event " << I << " differs between tail and batch parse";
      return OS.str();
    }
  }
  if (Tail.Samples.size() != Batch.Samples.size() ||
      Tail.SamplePos != Batch.SamplePos) {
    OS << "stats sample placement differs between tail and batch parse";
    return OS.str();
  }
  for (size_t I = 0; I < Tail.Samples.size(); ++I)
    if (Tail.Samples[I] != Batch.Samples[I]) {
      OS << "stats sample " << I << " differs between tail and batch parse";
      return OS.str();
    }
  return std::string();
}

/// Oracle 7: the incremental TailParser must agree with the batch parser
/// on the whole trace and on every prefix of it. The byte-by-byte feed
/// walks the tail parser through every prefix state in one O(n) pass;
/// batch prefix parses are sampled (bounded count) since each costs a
/// full reparse. Returns an empty string on agreement.
std::string checkTailAgreement(const std::string &Bytes,
                               const obs::TraceData &Batch) {
  std::ostringstream OS;

  // (a) Whole-buffer push: one shot.
  {
    obs::TailParser P;
    P.push(Bytes);
    if (!P.done())
      return "tail parser not done on a complete trace: " + P.diagnosis();
    if (std::string D = diffTailData(P.data(), Batch); !D.empty())
      return "whole-buffer push: " + D;
  }

  // (b) Byte-by-byte feed: the tail parser visits every prefix of the
  // stream as an intermediate state and must still land on the batch
  // result. Chunked for very large traces (same coverage per chunk
  // boundary, bounded cost).
  {
    obs::TailParser P;
    size_t Chunk = Bytes.size() <= (256u << 10) ? 1 : 251;
    for (size_t I = 0; I < Bytes.size() && !P.corrupt(); I += Chunk)
      P.push(std::string_view(Bytes).substr(I, Chunk));
    if (!P.done())
      return "incremental tail parse not done: " + P.diagnosis();
    if (std::string D = diffTailData(P.data(), Batch); !D.empty())
      return "incremental feed: " + D;
  }

  // (c) Sampled proper prefixes: the tail parser's diagnosis for a
  // truncated stream must be the batch parser's error for the same
  // bytes, and both must have decoded the same record prefix. The
  // sample set covers the header boundary, evenly spaced interior
  // cuts, and the last bytes (which truncate the end record).
  std::vector<size_t> Cuts;
  for (size_t L = 0; L <= 13 && L < Bytes.size(); ++L)
    Cuts.push_back(L);
  for (size_t K = 1; K <= 16; ++K)
    Cuts.push_back(Bytes.size() * K / 17);
  for (size_t Back = 1; Back <= 3 && Back < Bytes.size(); ++Back)
    Cuts.push_back(Bytes.size() - Back);
  for (size_t L : Cuts) {
    if (L >= Bytes.size())
      continue;
    std::string_view Prefix(Bytes.data(), L);
    obs::TraceData PData;
    std::string BatchError;
    if (obs::parseTrace(Prefix, PData, BatchError)) {
      OS << "batch parser accepted a " << L << "-byte proper prefix";
      return OS.str();
    }
    obs::TailParser P;
    P.push(Prefix);
    if (P.done()) {
      OS << "tail parser finished on a " << L << "-byte proper prefix";
      return OS.str();
    }
    if (P.diagnosis() != BatchError) {
      OS << "prefix " << L << ": tail diagnosis \"" << P.diagnosis()
         << "\" != batch error \"" << BatchError << "\"";
      return OS.str();
    }
    if (std::string D = diffTailData(P.data(), PData); !D.empty()) {
      OS << "prefix " << L << ": " << D;
      return OS.str();
    }
  }
  return std::string();
}

/// Oracle 6: the guard layer must agree across engines and policies.
/// \p R1 is the base run under Policy::Continue with no cap — the full
/// violation multiset. Returns an empty string on agreement.
std::string checkPolicyAgreement(interp::Interp &Interp,
                                 const interp::InterpOptions &BaseOpts,
                                 const interp::InterpResult &R1, Digest &D) {
  std::ostringstream OS;

  // (a) Replay the interpreter's violations through the rt runtime's
  // central dispatcher under `continue`: the two engines must agree on
  // the total violation count, and the dispatcher must permit every
  // access. RuntimeError violations (null deref, deadlock, livelock)
  // have no rt report kind and are excluded on both sides.
  rt::ReportSink Sink(/*MaxReports=*/1u << 20);
  guard::GuardConfig Cont; // Policy::Continue, no cap: the rt default.
  uint64_t Replayed = 0;
  for (const interp::Violation &V : R1.Violations) {
    rt::ReportKind RK = rt::ReportKind::ReadConflict;
    switch (V.K) {
    case interp::Violation::Kind::ReadConflict:
      RK = rt::ReportKind::ReadConflict;
      break;
    case interp::Violation::Kind::WriteConflict:
      RK = rt::ReportKind::WriteConflict;
      break;
    case interp::Violation::Kind::LockViolation:
      RK = rt::ReportKind::LockViolation;
      break;
    case interp::Violation::Kind::CastError:
      RK = rt::ReportKind::CastError;
      break;
    case interp::Violation::Kind::RuntimeError:
      continue;
    }
    rt::ConflictReport Rep;
    Rep.Kind = RK;
    Rep.Address = static_cast<uintptr_t>(V.Address);
    Rep.WhoTid = V.WhoTid;
    Rep.LastTid = V.LastTid;
    if (guard::onViolation(Cont, Rep, Sink) != guard::Verdict::Proceed)
      return "rt dispatcher blocked an access under continue policy";
    ++Replayed;
  }
  if (Sink.getTotalViolations() != Replayed) {
    OS << "rt dispatcher counted " << Sink.getTotalViolations()
       << " violations, interpreter reported " << Replayed;
    return OS.str();
  }

  // (b) The same schedule under `quarantine` must run to the same end
  // with the same output; demoting cells can only suppress re-fires, so
  // its violation multiset is contained in the continue run's.
  interp::InterpOptions QOpts = BaseOpts;
  QOpts.Sink = nullptr;
  QOpts.Guard.OnViolation = guard::Policy::Quarantine;
  interp::InterpResult Q = Interp.run(QOpts);
  if (Q.Output != R1.Output)
    return "quarantine run produced different output";
  if (Q.Completed != R1.Completed || Q.Deadlocked != R1.Deadlocked ||
      Q.OutOfSteps != R1.OutOfSteps || Q.Stats.Steps != R1.Stats.Steps) {
    OS << "quarantine run ended differently (completed " << Q.Completed
       << "/" << R1.Completed << ", steps " << Q.Stats.Steps << "/"
       << R1.Stats.Steps << ")";
    return OS.str();
  }
  if (Q.TotalViolations > R1.TotalViolations) {
    OS << "quarantine run reported " << Q.TotalViolations
       << " violations, continue run only " << R1.TotalViolations;
    return OS.str();
  }
  std::multiset<std::tuple<uint8_t, uint64_t, uint32_t>> ContSet;
  for (const interp::Violation &V : R1.Violations)
    ContSet.insert({static_cast<uint8_t>(V.K), V.Address, V.WhoLine});
  for (const interp::Violation &V : Q.Violations) {
    auto It = ContSet.find({static_cast<uint8_t>(V.K), V.Address, V.WhoLine});
    if (It == ContSet.end()) {
      OS << "quarantine run reported a violation the continue run did not"
         << " (addr " << V.Address << " line " << V.WhoLine << ")";
      return OS.str();
    }
    ContSet.erase(It);
  }

  // (c) A per-kind-capped continue run must not change execution or the
  // total count — the cap governs retention only.
  interp::InterpOptions COpts = BaseOpts;
  COpts.Sink = nullptr;
  COpts.Guard.MaxReportsPerKind = 1;
  interp::InterpResult C = Interp.run(COpts);
  if (C.Output != R1.Output || C.TotalViolations != R1.TotalViolations) {
    OS << "capped run diverged (total " << C.TotalViolations << "/"
       << R1.TotalViolations << ")";
    return OS.str();
  }
  if (C.Violations.size() > 5) { // one per interp violation kind
    OS << "capped run retained " << C.Violations.size()
       << " reports with a per-kind cap of 1";
    return OS.str();
  }

  D.u64(Sink.getTotalViolations());
  D.u64(Q.TotalViolations);
  D.u64(C.Violations.size());
  return std::string();
}

} // namespace

OracleOutcome sharc::fuzz::runOracles(const std::string &Source,
                                      const OracleConfig &Cfg) {
  OracleOutcome Out;
  Digest D;
  D.str(Source);

  // --- Front end. Parse/type failures break the generator's contract. ---
  Frontend Front(Source);
  if (!Front.Parsed) {
    Out.Failure = FailureKind::ParseError;
    Out.Detail = Front.Diags->render();
    return Out;
  }
  if (!Front.Typed) {
    Out.Failure = FailureKind::TypeError;
    Out.Detail = Front.Diags->render();
    return Out;
  }
  if (!Front.Analyzed) {
    Out.AnalysisRejected = true;
    Out.Detail = Front.Diags->render();
    Out.Digest = D.H;
    return Out;
  }

  // --- Oracle 1: print -> reparse -> reprint fixpoint. ---
  std::string FirstPrint = minic::printProgram(*Front.Prog);
  D.str(FirstPrint);
  {
    Frontend Again(stripPolyMarkers(FirstPrint));
    if (!Again.Analyzed) {
      Out.Failure = FailureKind::RoundTrip;
      Out.Detail = "printed program no longer compiles:\n" +
                   Again.Diags->render();
      return Out;
    }
    std::string SecondPrint = minic::printProgram(*Again.Prog);
    if (SecondPrint != FirstPrint) {
      Out.Failure = FailureKind::RoundTrip;
      Out.Detail = "reprint differs from first print";
      return Out;
    }
  }

  // --- Static checker; a rejection here is a recorded skip. ---
  checker::Checker Check(*Front.Prog, *Front.Diags);
  if (!Check.run()) {
    Out.CheckerRejected = true;
    Out.Detail = Front.Diags->render();
    Out.Digest = D.H;
    return Out;
  }

  // --- Schedule exploration: oracles 2-4 per scheduler seed. ---
  interp::Interp Interp(*Front.Prog, Check.getInstrumentation());
  std::vector<std::pair<uint64_t, interp::ExploreVerdict>> RandomVerdicts;
  uint64_t RandMaxSteps = 0;
  uint64_t RandMaxThreads = 0;
  for (unsigned K = 0; K < Cfg.Schedules; ++K) {
    uint64_t SeedState = Cfg.Seed + 1000003ull * K;
    uint64_t Seed = splitMix64(SeedState);
    if (!Seed)
      Seed = 1;

    obs::VectorSink Run1, Run2;
    obs::TraceWriter Writer;
    obs::TeeSink Tee(&Run1, &Writer); // oracle 5 watches the first run
    interp::InterpOptions Opts;
    Opts.Seed = Seed;
    Opts.MaxSteps = Cfg.MaxSteps;
    Opts.Guard.OnViolation = Cfg.Policy;
    Opts.Sink = &Tee;
    interp::InterpResult R1 = Interp.run(Opts);
    Opts.Sink = &Run2;
    interp::InterpResult R2 = Interp.run(Opts);
    const std::vector<obs::Event> &Trace = Run1.Events;
    ++Out.SchedulesRun;
    Out.ViolationsSeen += R1.Violations.size();

    // Oracle 2: bitwise determinism per seed.
    Digest D1, D2;
    digestRun(D1, R1, Trace);
    digestRun(D2, R2, Run2.Events);
    if (D1.H != D2.H || Trace != Run2.Events) {
      Out.Failure = FailureKind::Determinism;
      std::ostringstream OS;
      OS << "seed " << Seed << ": two runs differ (digest " << D1.H << " vs "
         << D2.H << ", trace " << Trace.size() << " vs " << Run2.Events.size()
         << " events)";
      Out.Detail = OS.str();
      return Out;
    }
    D.u64(Seed);
    D.u64(D1.H);
    RandomVerdicts.emplace_back(Seed, interp::classifyResult(R1));
    RandMaxSteps = std::max<uint64_t>(RandMaxSteps, R1.Stats.Steps);
    RandMaxThreads =
        std::max<uint64_t>(RandMaxThreads, R1.Stats.ThreadsSpawned);

    // Oracle 5: the binary trace round-trip must reproduce the run.
    if (std::string Mismatch = checkTraceRoundTrip(Writer, R1, Trace);
        !Mismatch.empty()) {
      Out.Failure = FailureKind::TraceMismatch;
      std::ostringstream OS;
      OS << "seed " << Seed << ": " << Mismatch;
      Out.Detail = OS.str();
      return Out;
    }

    // Oracle 7: the incremental tail parser must agree with the batch
    // parser on this trace and all of its prefixes. Reuses oracle 5's
    // serialised bytes; a fresh batch parse gives the comparison
    // baseline (checkTraceRoundTrip validated it already).
    {
      obs::TraceData Batch;
      std::string Error;
      if (!obs::parseTrace(Writer.buffer(), Batch, Error)) {
        Out.Failure = FailureKind::TailMismatch;
        Out.Detail = "finished trace does not batch-parse: " + Error;
        return Out;
      }
      if (std::string Mismatch = checkTailAgreement(Writer.buffer(), Batch);
          !Mismatch.empty()) {
        Out.Failure = FailureKind::TailMismatch;
        std::ostringstream OS;
        OS << "seed " << Seed << ": " << Mismatch;
        Out.Detail = OS.str();
        return Out;
      }
    }

    // Oracle 6: policy agreement across engines. First schedule only
    // (the checks re-run the interpreter twice), and only when the base
    // runs use `continue` — the oracle needs their full violation
    // multiset as its reference.
    if (K == 0 && Cfg.Policy == guard::Policy::Continue) {
      interp::InterpOptions Base;
      Base.Seed = Seed;
      Base.MaxSteps = Cfg.MaxSteps;
      if (std::string Mismatch = checkPolicyAgreement(Interp, Base, R1, D);
          !Mismatch.empty()) {
        Out.Failure = FailureKind::PolicyMismatch;
        std::ostringstream OS;
        OS << "seed " << Seed << ": " << Mismatch;
        Out.Detail = OS.str();
        return Out;
      }
      ++Out.PolicyChecks;
    }

    size_t ScheduleEvents =
        std::count_if(Trace.begin(), Trace.end(), isScheduleEvent);
    if (ScheduleEvents > Cfg.MaxScheduleEvents) {
      ++Out.TraceSkips;
      ++Out.RcSkips;
      continue;
    }

    // Oracle 3: production detectors vs reference replays. A trace
    // whose thread ids do not fit the detectors' slots is a skip.
    if (std::any_of(Trace.begin(), Trace.end(), [](const obs::Event &Ev) {
          return Ev.Tid >= racedet::MaxTids;
        })) {
      ++Out.TraceSkips;
    } else {
      RefRaceResult Ref = referenceRaces(Trace);
      racedet::EraserDetector Eraser;
      racedet::HappensBeforeDetector Hb;
      runDetectors(Trace, Eraser, Hb);

      std::vector<uint64_t> ProdEraser, ProdHb;
      for (uintptr_t G : Eraser.racyGranules())
        ProdEraser.push_back(G);
      for (uintptr_t G : Hb.racyGranules())
        ProdHb.push_back(G);

      if (ProdEraser != Ref.EraserRacy) {
        Out.Failure = FailureKind::EraserMismatch;
        std::ostringstream OS;
        OS << "seed " << Seed << ": production-only=["
           << joinAddrs(minus(ProdEraser, Ref.EraserRacy))
           << "] reference-only=["
           << joinAddrs(minus(Ref.EraserRacy, ProdEraser)) << "]";
        Out.Detail = OS.str();
        return Out;
      }
      if (ProdHb != Ref.HbRacy) {
        Out.Failure = FailureKind::HbMismatch;
        std::ostringstream OS;
        OS << "seed " << Seed << ": production-only=["
           << joinAddrs(minus(ProdHb, Ref.HbRacy)) << "] reference-only=["
           << joinAddrs(minus(Ref.HbRacy, ProdHb)) << "]";
        Out.Detail = OS.str();
        return Out;
      }
      std::vector<uint64_t> Agreed;
      std::set_intersection(Ref.EraserRacy.begin(), Ref.EraserRacy.end(),
                            Ref.HbRacy.begin(), Ref.HbRacy.end(),
                            std::back_inserter(Agreed));
      Out.RacyCells += Agreed.size();
      Out.EraserOnlyRacy += minus(Ref.EraserRacy, Ref.HbRacy).size();
      Out.HbOnlyRacy += minus(Ref.HbRacy, Ref.EraserRacy).size();
      for (uint64_t G : Ref.EraserRacy)
        D.u64(G);
      for (uint64_t G : Ref.HbRacy)
        D.u64(G ^ 0x5555555555555555ull);
    }

    // Oracle 4: RC engine agreement at every sharing-cast query.
    {
      std::set<unsigned> RcTids;
      std::vector<int64_t> Expected;
      uint64_t MaxSlot = 0;
      bool HasPtrEvents = false;
      for (const obs::Event &Ev : Trace) {
        if (Ev.K == obs::EventKind::PtrStore) {
          RcTids.insert(Ev.Tid);
          MaxSlot = std::max(MaxSlot, Ev.Addr);
          HasPtrEvents = true;
        } else if (Ev.K == obs::EventKind::CastQuery) {
          RcTids.insert(Ev.Tid);
          Expected.push_back(Ev.Value);
          HasPtrEvents = true;
        }
      }
      if (!HasPtrEvents)
        continue;
      if (RcTids.size() > 63) {
        ++Out.RcSkips;
        continue;
      }
      std::vector<int64_t> Atomic =
          replayRc(rt::RcMode::Atomic, Trace, MaxSlot + 1);
      std::vector<int64_t> Lp =
          replayRc(rt::RcMode::LevanoniPetrank, Trace, MaxSlot + 1);
      if (Atomic != Expected || Lp != Expected) {
        Out.Failure = FailureKind::RcMismatch;
        std::ostringstream OS;
        OS << "seed " << Seed << ": counts at casts interp=[";
        for (size_t I = 0; I < Expected.size(); ++I)
          OS << (I ? "," : "") << Expected[I];
        OS << "] atomic=[";
        for (size_t I = 0; I < Atomic.size(); ++I)
          OS << (I ? "," : "") << Atomic[I];
        OS << "] lp=[";
        for (size_t I = 0; I < Lp.size(); ++I)
          OS << (I ? "," : "") << Lp[I];
        OS << "]";
        Out.Detail = OS.str();
        return Out;
      }
      for (int64_t C : Expected)
        D.u64(static_cast<uint64_t>(C));
    }
  }

  // --- Oracle 8: exploration agreement. A random schedule is one
  // interleaving, so when sharc-explore enumerates the program's
  // schedule space completely, every random verdict must be among the
  // explored verdict classes. Gated on all random runs being small
  // (the schedule space grows exponentially in steps and threads, and
  // every random interleaving must fit under the exploration's per-run
  // step cap for containment to be sound) and on Policy::Continue, the
  // policy explore's internal runs use; anything gated out or over
  // budget is a recorded skip, never a silent pass.
  if (Cfg.Explore && Cfg.Policy == guard::Policy::Continue &&
      RandMaxSteps <= 400 && RandMaxThreads <= 4) {
    interp::ExploreOptions EO;
    EO.MaxRuns = 2048;
    // Keep individual schedules shallow: the DPOR update is quadratic
    // in run depth, and a spin-wait interleaving can otherwise burn the
    // whole interpreter step budget in one run. A program whose first
    // run took <= 400 steps completes well within this; spinning
    // schedules get cut into an OutOfSteps class, which only ever adds
    // classes to the explored set (the containment check stays sound).
    EO.MaxStepsPerRun = 4096;
    EO.MaxTotalSteps = 1u << 18;
    interp::ExploreResult ER =
        interp::explore(*Front.Prog, Check.getInstrumentation(), EO);
    if (ER.Stats.InternalError) {
      Out.Failure = FailureKind::ExploreMismatch;
      Out.Detail = "exploration diverged on a replayed prefix "
                   "(scheduler determinism bug)";
      return Out;
    }
    if (!ER.complete()) {
      ++Out.ExploreSkips;
    } else {
      ++Out.ExploreChecks;
      Out.SchedulesExplored += ER.Stats.Runs;
      for (const auto &SV : RandomVerdicts) {
        if (!ER.verdictSeen(SV.second)) {
          Out.Failure = FailureKind::ExploreMismatch;
          std::ostringstream OS;
          OS << "seed " << SV.first << ": random-schedule verdict '"
             << SV.second.describe() << "' not among the "
             << ER.Verdicts.size() << " exhaustively explored classes";
          Out.Detail = OS.str();
          return Out;
        }
      }
      for (const interp::ExploreVerdict &V : ER.Verdicts) {
        D.u64(V.KindsMask);
        D.u64((V.Deadlocked ? 1u : 0u) | (V.OutOfSteps ? 2u : 0u) |
              (V.Completed ? 4u : 0u));
      }
      D.u64(ER.Stats.Runs);
    }
  } else if (Cfg.Explore) {
    ++Out.ExploreSkips;
  }

  Out.Digest = D.H;
  return Out;
}
