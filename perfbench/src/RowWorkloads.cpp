//===-- perfbench/src/RowWorkloads.cpp - scan and handoff -----------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The two native workloads. Each pass runs every row once unchecked
// (UncheckedPolicy, Table 1's "Orig." column) and once checked
// (SharcPolicy under a freshly initialized runtime in its default
// configuration), alternating which goes first. A checked run is a
// program brought to a verdict: its checksum must equal the unchecked
// one and the runtime must report no conflict.
//
//   scan     pfscan + granule_scan: dynamic-mode checks of shared
//            read-mostly text; the shadow path does the runtime's work.
//   handoff  pbzip2, fftw, stunnel, dillo: ownership moves through
//            locked queues and sharing casts; RC and lock checks do it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "rt/Sharc.h"
#include "workloads/DilloWorkload.h"
#include "workloads/FftwWorkload.h"
#include "workloads/Pbzip2Workload.h"
#include "workloads/PfscanWorkload.h"
#include "workloads/StunnelWorkload.h"
#include "workloads/TextCorpus.h"

#include <cstdio>
#include <functional>
#include <memory>

using namespace sharc;
using namespace sharc::workloads;

namespace perfbench {
namespace {

const char *const GranuleNeedle = "etaoin";
/// Passes the granule_scan threads make over the corpus per run. Each
/// pass hands every file to a different thread, so granules end up
/// read-shared by several threads rather than copied per thread.
constexpr unsigned GranulePasses = 2;

/// The Section 6.2 kernel of bench/bench_detector_comparison.cpp: threads
/// scan shared text, one chkread per 16-byte granule, then search it and
/// tally matches under a lock.
template <typename P>
WorkloadResult runGranuleScan(const std::vector<CorpusFile> &Corpus,
                              unsigned NumThreads, uint64_t RowId) {
  typename P::Mutex Mut;
  typename P::template Locked<uint64_t> Total(Mut, uint64_t(0));
  std::vector<typename P::Thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned Pass = 0; Pass != GranulePasses; ++Pass)
        for (size_t Index = (T + Pass) % NumThreads; Index < Corpus.size();
             Index += NumThreads) {
          const uint8_t *Data = Corpus[Index].Contents.data();
          size_t Size = Corpus[Index].Contents.size();
          if constexpr (P::Checked) {
            trace::Scope Span("rt.granule_check", RowId);
            rt::Runtime &RT = rt::Runtime::get();
            for (size_t Off = 0; Off < Size; Off += 16)
              RT.checkRead(Data + Off, std::min<size_t>(16, Size - Off),
                           SHARC_SITE("file->contents[off]"));
          }
          uint64_t Found;
          {
            trace::Scope Span("workloads.granule_search", RowId);
            Found = countOccurrences(Data, Size, GranuleNeedle);
          }
          typename P::LockGuard Lock(Mut);
          Total.write(Total.read(SHARC_SITE("total")) + Found,
                      SHARC_SITE("total"));
        }
    });
  for (auto &T : Threads)
    T.join();

  WorkloadResult R;
  {
    typename P::LockGuard Lock(Mut);
    R.Checksum = Total.read(SHARC_SITE("total"));
  }
  uint64_t Bytes = 0;
  for (const CorpusFile &File : Corpus)
    Bytes += File.Contents.size();
  R.WorkUnits = Bytes;
  R.TotalMemoryAccessesEstimate = 2 * GranulePasses * Bytes; // check + search
  R.PeakPayloadBytesEstimate = Bytes;
  R.MaxThreads = NumThreads + 1;
  return R;
}

struct Row {
  const char *Name;
  std::function<WorkloadResult(bool Checked)> Run;
};

/// The rows of Opts.Workload at Opts.Size, registering at most
/// Opts.Threads threads per row (main included).
std::vector<Row> makeRows(const Options &Opts) {
  unsigned Workers = std::max(1u, Opts.Threads - 1);
  unsigned Size = Opts.Size;
  uint64_t Seed = Opts.Seed;
  std::vector<Row> Rows;
  if (Opts.Workload == "scan") {
    PfscanConfig Pf;
    Pf.NumWorkers = Workers;
    Pf.NumFiles = 8 * Size;
    Pf.BytesPerFile = 64 * 1024;
    Pf.Seed = Seed ^ 0x9e3779b97f4a7c15ull;
    Rows.push_back({"pfscan", [Pf](bool Checked) {
                      return Checked ? runPfscan<SharcPolicy>(Pf)
                                     : runPfscan<UncheckedPolicy>(Pf);
                    }});
    auto Corpus = std::make_shared<std::vector<CorpusFile>>(
        makeCorpus(8 * Size, 64 * 1024, GranuleNeedle, Seed + 1));
    Rows.push_back({"granule_scan", [Corpus, Workers](bool Checked) {
                      return Checked ? runGranuleScan<SharcPolicy>(*Corpus,
                                                                   Workers, 1)
                                     : runGranuleScan<UncheckedPolicy>(
                                           *Corpus, Workers, 1);
                    }});
    return Rows;
  }
  Pbzip2Config Bz;
  Bz.NumWorkers = Workers;
  Bz.NumBlocks = 2 * Size;
  Bz.BlockBytes = 16384;
  Bz.Seed = Seed + 2;
  Rows.push_back({"pbzip2", [Bz](bool Checked) {
                    return Checked ? runPbzip2<SharcPolicy>(Bz)
                                   : runPbzip2<UncheckedPolicy>(Bz);
                  }});
  // fftw grows through the number of transforms only: TransformSize must
  // stay a power of two.
  FftwConfig Ft;
  Ft.NumWorkers = Workers;
  Ft.NumTransforms = 32 * Size;
  Ft.TransformSize = 2048;
  Ft.Seed = Seed + 3;
  Rows.push_back({"fftw", [Ft](bool Checked) {
                    return Checked ? runFftw<SharcPolicy>(Ft)
                                   : runFftw<UncheckedPolicy>(Ft);
                  }});
  // Each client brings a server thread: 2 * clients + main <= Threads.
  StunnelConfig St;
  St.NumClients = std::max(1u, (Opts.Threads - 1) / 2);
  St.MessagesPerClient = 40 * Size;
  St.MessageBytes = 2048;
  St.Key = Seed | 1;
  Rows.push_back({"stunnel", [St](bool Checked) {
                    return Checked ? runStunnel<SharcPolicy>(St)
                                   : runStunnel<UncheckedPolicy>(St);
                  }});
  DilloConfig Di;
  Di.NumWorkers = Workers;
  Di.NumRequests = 128 * Size;
  Di.LatencyNanos = 30000;
  Di.Seed = Seed + 4;
  Rows.push_back({"dillo", [Di](bool Checked) {
                    return Checked ? runDillo<SharcPolicy>(Di)
                                   : runDillo<UncheckedPolicy>(Di);
                  }});
  return Rows;
}

/// One row's measurements over the passes of one phase.
struct RowSamples {
  std::vector<double> OrigSec, CheckedSec;
  std::vector<rt::StatsSnapshot> Stats;
  std::vector<double> MemPct, DynPct, AccessEstimate;
};

struct Phase {
  std::vector<RowSamples> Rows;
  unsigned Passes = 0;
};

/// Runs one row in both modes and checks the checked run's verdict.
void runRow(const Row &R, uint64_t RowId, bool CheckedFirst, RowSamples &Out,
            Tally &T) {
  trace::Scope RowSpan("row", RowId);
  WorkloadResult Orig, Checked;
  double OrigSec = 0, CheckedSec = 0;
  rt::StatsSnapshot Stats;
  auto RunOrig = [&] {
    trace::Scope Span("workloads.orig", RowId);
    Clock::time_point Start = Clock::now();
    Orig = R.Run(false);
    OrigSec = secondsSince(Start);
  };
  auto RunChecked = [&] {
    {
      trace::Scope Span("rt.init", RowId);
      rt::Runtime::init();
    }
    {
      trace::Scope Span("workloads.checked", RowId);
      Clock::time_point Start = Clock::now();
      Checked = R.Run(true);
      CheckedSec = secondsSince(Start);
    }
    {
      trace::Scope Span("rt.stats", RowId);
      Stats = rt::Runtime::get().getStats();
    }
    trace::Scope Span("rt.shutdown", RowId);
    rt::Runtime::shutdown();
  };
  if (CheckedFirst) {
    RunChecked();
    RunOrig();
  } else {
    RunOrig();
    RunChecked();
  }

  ++T.Attempted;
  if (Checked.Checksum != Orig.Checksum)
    T.fail("%s: checked checksum %llx differs from unchecked %llx", R.Name,
           static_cast<unsigned long long>(Checked.Checksum),
           static_cast<unsigned long long>(Orig.Checksum));
  else if (Stats.totalConflicts() != 0)
    T.fail("%s: %llu conflicts reported on a clean program", R.Name,
           static_cast<unsigned long long>(Stats.totalConflicts()));

  Out.OrigSec.push_back(OrigSec);
  Out.CheckedSec.push_back(CheckedSec);
  Out.Stats.push_back(Stats);
  // Table 1's memory column: metadata over payload, with the fixed
  // 64 KiB process baseline bench_table1 folds into the denominator.
  Out.MemPct.push_back(100.0 * static_cast<double>(Stats.metadataBytes()) /
                       (static_cast<double>(Checked.PeakPayloadBytesEstimate) +
                        64.0 * 1024.0));
  double Accesses = static_cast<double>(
      std::max<uint64_t>(1, Checked.TotalMemoryAccessesEstimate));
  Out.AccessEstimate.push_back(Accesses);
  Out.DynPct.push_back(
      100.0 * static_cast<double>(Stats.dynamicAccessBytes()) / Accesses);
}

void runPass(const std::vector<Row> &Rows, unsigned PassIndex, Phase &P,
             Tally &T) {
  for (size_t I = 0; I != Rows.size(); ++I)
    runRow(Rows[I], I, (PassIndex + I) % 2 == 1, P.Rows[I], T);
  ++P.Passes;
}

/// Runs passes for \p Seconds; see measure() for \p SetUp and \p SetUpSec.
template <typename SetUpT>
Phase runPhase(const std::vector<Row> &Rows, double Seconds,
               unsigned &PassCounter, Tally &T, SetUpT SetUp,
               std::vector<double> *SetUpSec) {
  Phase P;
  P.Rows.resize(Rows.size());
  measure(
      Seconds, 3, [&] { runPass(Rows, PassCounter++, P, T); }, SetUp,
      SetUpSec);
  return P;
}

/// One checked pass over the rows: the sum of each row's fastest run.
double checkedPassSec(const Phase &P) {
  double Sum = 0;
  for (const RowSamples &S : P.Rows)
    Sum += fastest(S.CheckedSec);
  return Sum;
}

void reportEndToEnd(const std::vector<Row> &Rows, const Phase &P,
                    double SetupSec, unsigned SetupSamples, Report &Out) {
  std::vector<double> Ratios, RowMs;
  uint64_t Runs = 0;
  for (size_t I = 0; I != Rows.size(); ++I) {
    const RowSamples &S = P.Rows[I];
    double Orig = fastest(S.OrigSec), Checked = fastest(S.CheckedSec);
    Ratios.push_back(Checked / Orig);
    RowMs.push_back(1e3 * Checked);
    Runs += S.CheckedSec.size();
    std::printf("row %-13s orig %9.3f ms  checked %9.3f ms  x%.3f  mem "
                "%+.1f%%  dynamic %.1f%%  (n=%zu)\n",
                Rows[I].Name, 1e3 * Orig, 1e3 * Checked, Checked / Orig,
                median(S.MemPct), median(S.DynPct), S.CheckedSec.size());
  }
  double CheckedSec = checkedPassSec(P);
  Out.add("setup_s", SetupSec, "s", SetupSamples);
  Out.add("peak_rss_mb", peakRssMb(), "MiB", 1);
  Out.add("checked_s", CheckedSec, "s", Runs);
  Out.add("slowdown", geomean(Ratios), "ratio", 2 * Runs);
  Out.add("programs_per_s", static_cast<double>(Rows.size()) / CheckedSec,
          "1/s", Runs);
  Out.add("verdict_ms_p50", quantile(RowMs, 0.5), "ms", Runs);
  Out.add("verdict_ms_p90", quantile(RowMs, 0.9), "ms", Runs);
  // A native checked run has no step budget: it always ends with a
  // verdict, and a wrong verdict fails the whole run instead.
  Out.add("decided_pct", 100.0, "%", Runs);
}

void reportPerLayer(const std::vector<Row> &Rows, const Phase &Traced,
                    const std::vector<trace::Span> &Spans, Report &Out) {
  double Passes = Traced.Passes;
  auto PerPass = [&](const char *Name, uint64_t Id) {
    return trace::selfSec(Spans, Name, Id) / Passes;
  };
  double OrigSum = 0, AddedSum = 0;
  for (size_t I = 0; I != Rows.size(); ++I) {
    double Orig = PerPass("workloads.orig", I);
    double Added = PerPass("workloads.checked", I) - Orig;
    Out.add(std::string("workloads.orig.s.") + Rows[I].Name, Orig, "s",
            Traced.Passes);
    Out.add(std::string("rt.added.s.") + Rows[I].Name, Added, "s",
            Traced.Passes);
    OrigSum += Orig;
    AddedSum += Added;
  }
  Out.add("workloads.orig.s", OrigSum, "s", Traced.Passes);
  Out.add("rt.added.s", AddedSum, "s", Traced.Passes);
  Out.add("rt.init.s", PerPass("rt.init", trace::AnyId), "s", Traced.Passes);

  // Runtime counters, summed over rows and averaged over passes.
  rt::StatsSnapshot Sum;
  double AccessEstimate = 0, MemPct = 0;
  uint64_t Conflicts = 0;
  for (size_t I = 0; I != Rows.size(); ++I) {
    const RowSamples &S = Traced.Rows[I];
    for (const rt::StatsSnapshot &X : S.Stats) {
      Sum.DynamicReads += X.dynamicAccesses();
      Sum.DynamicReadBytes += X.dynamicAccessBytes();
      Sum.LockChecks += X.LockChecks;
      Sum.RcBarriers += X.RcBarriers;
      Sum.Collections += X.Collections;
      Sum.SharingCasts += X.SharingCasts;
      Sum.ShadowBytes += X.ShadowBytes;
      Sum.LogBytes += X.LogBytes;
      Sum.RcTableBytes += X.RcTableBytes;
      Conflicts += X.totalConflicts();
    }
    for (double Accesses : S.AccessEstimate)
      AccessEstimate += Accesses;
    MemPct += median(S.MemPct);
  }
  auto Avg = [&](uint64_t V) { return static_cast<double>(V) / Passes; };
  Out.add("rt.dynamic.calls", Avg(Sum.DynamicReads), "count", Traced.Passes);
  Out.add("rt.dynamic.bytes", Avg(Sum.DynamicReadBytes), "bytes",
          Traced.Passes);
  Out.add("rt.dynamic.pct",
          100.0 * static_cast<double>(Sum.DynamicReadBytes) / AccessEstimate,
          "%", Traced.Passes);
  Out.add("rt.mem.shadow_bytes", Avg(Sum.ShadowBytes), "bytes",
          Traced.Passes);
  Out.add("rt.mem.log_bytes", Avg(Sum.LogBytes), "bytes", Traced.Passes);
  Out.add("rt.mem.rc_table_bytes", Avg(Sum.RcTableBytes), "bytes",
          Traced.Passes);
  Out.add("rt.mem.overhead_pct", MemPct / static_cast<double>(Rows.size()),
          "%", Traced.Passes);
  Out.add("rt.lock.checks", Avg(Sum.LockChecks), "count", Traced.Passes);
  Out.add("rt.rc.barriers", Avg(Sum.RcBarriers), "count", Traced.Passes);
  Out.add("rt.rc.collections", Avg(Sum.Collections), "count",
          Traced.Passes);
  Out.add("rt.cast.count", Avg(Sum.SharingCasts), "count", Traced.Passes);
  Out.add("rt.conflicts", static_cast<double>(Conflicts), "count",
          Traced.Passes);
}

} // namespace

bool runRowWorkload(const Options &Opts, Report &Out, Tally &T) {
  // Set-up: build the inputs, bring the runtime up once, and make one
  // untimed pass so caches, allocator arenas and the runtime's lazily
  // built tables are warm. The untraced run repeats it between passes
  // for a median, rebuilding the same rows in place so peak memory holds
  // one copy of the inputs.
  std::vector<Row> Rows;
  unsigned PassCounter = 0;
  auto SetUp = [&] {
    Rows.clear();
    Rows = makeRows(Opts);
    rt::Runtime::init();
    rt::Runtime::shutdown();
    Phase Warm;
    Warm.Rows.resize(Rows.size());
    runPass(Rows, PassCounter++, Warm, T);
    return true;
  };
  Clock::time_point Start = Clock::now();
  SetUp();
  std::vector<double> SetupSec = {secondsSince(Start)};

  if (!Opts.Trace) {
    Phase P = runPhase(Rows, Opts.Seconds, PassCounter, T, SetUp, &SetupSec);
    reportEndToEnd(Rows, P, median(SetupSec), SetupSec.size(), Out);
    return true;
  }

  // Traced run: an untraced half gives the baseline the tracing overhead
  // is measured against, then the traced half gives the layer numbers.
  Phase Plain =
      runPhase(Rows, Opts.Seconds / 2.0, PassCounter, T, SetUp, nullptr);
  trace::setEnabled(true);
  Clock::time_point TraceStart = Clock::now();
  Phase Traced =
      runPhase(Rows, Opts.Seconds / 2.0, PassCounter, T, SetUp, nullptr);
  Clock::time_point TraceEnd = Clock::now();
  trace::setEnabled(false);
  std::vector<trace::Span> Spans = trace::collect();

  reportPerLayer(Rows, Traced, Spans, Out);
  double PlainSec = checkedPassSec(Plain);
  Out.add("trace.coverage_pct",
          trace::coveragePct(Spans, TraceStart, TraceEnd), "%",
          Spans.size());
  Out.add("trace.overhead_pct",
          100.0 * (checkedPassSec(Traced) - PlainSec) / PlainSec, "%",
          Traced.Passes);
  runProbes(Opts, Opts.Workload == "scan", Out);
  if (!Opts.SpansOut.empty() && !trace::writeSpans(Spans, Opts.SpansOut))
    std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                 Opts.SpansOut.c_str());
  return true;
}

} // namespace perfbench
