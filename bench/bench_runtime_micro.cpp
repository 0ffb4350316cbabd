//===-- bench/bench_runtime_micro.cpp - Runtime primitive costs -----------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the mechanisms of Section 4.2/4.3:
// shadow check fast path (bits already set) and cold path, lock-log
// lookup, counted stores under each engine, sharing casts (which under
// Levanoni-Petrank include a collection), and thread-exit clearing via
// the first-access log.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "obs/Sink.h"
#include "rt/Sharc.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace sharc;

namespace {

/// Discards everything. Trivially thread-safe; gives profiling runs a
/// sink without measuring serialization cost.
class NullSink final : public obs::Sink {
public:
  void event(const obs::Event &) override {}
};

NullSink TheNullSink;

/// Creates a runtime for the benchmark's lifetime.
///
/// SHARC_BENCH_PROFILE (env) drives the ci.sh overhead gate:
///   unset/0  observability compiled in but disabled — the fast path the
///            2% regression gate protects.
///   1        profiling *armed* (Config.Profile set) but with no sink:
///            profiling requires obs, so this still executes the
///            disabled path. Comparing this run against an unset run
///            pins "arming the profiler costs one predicted branch".
///   2        profiling fully enabled against a null sink — the
///            informational profiling-cost run ci.sh archives.
///
/// SHARC_BENCH_STATS_ADDR (env) arms the sharc-live stats endpoint on
/// the given HOST:PORT for the run (DESIGN.md §13); ci.sh compares an
/// armed run against a disabled one to pin the endpoint's hot-path cost
/// at zero (the listener thread never touches the check paths).
class RuntimeScope {
public:
  explicit RuntimeScope(rt::RcMode Mode = rt::RcMode::LevanoniPetrank) {
    rt::RuntimeConfig Config;
    Config.Rc = Mode;
    unsigned Profile = bench::envUnsigned("SHARC_BENCH_PROFILE", 0, /*Min=*/0);
    if (Profile >= 1)
      Config.Profile = true;
    if (Profile >= 2)
      Config.Obs = &TheNullSink;
    if (const char *Addr = std::getenv("SHARC_BENCH_STATS_ADDR"))
      Config.StatsAddr = Addr;
    rt::Runtime::init(Config);
  }
  ~RuntimeScope() { rt::Runtime::shutdown(); }
};

void BM_ChkReadHit(benchmark::State &State) {
  RuntimeScope Scope;
  rt::Runtime &RT = rt::Runtime::get();
  int *P = static_cast<int *>(RT.allocate(64));
  RT.checkRead(P, 4, nullptr); // warm: own bit set
  for (auto _ : State)
    benchmark::DoNotOptimize(RT.checkRead(P, 4, nullptr));
  RT.deallocate(P);
}
BENCHMARK(BM_ChkReadHit);

void BM_ChkWriteHit(benchmark::State &State) {
  RuntimeScope Scope;
  rt::Runtime &RT = rt::Runtime::get();
  int *P = static_cast<int *>(RT.allocate(64));
  RT.checkWrite(P, 4, nullptr);
  for (auto _ : State)
    benchmark::DoNotOptimize(RT.checkWrite(P, 4, nullptr));
  RT.deallocate(P);
}
BENCHMARK(BM_ChkWriteHit);

void BM_ChkReadColdGranules(benchmark::State &State) {
  RuntimeScope Scope;
  rt::Runtime &RT = rt::Runtime::get();
  constexpr size_t Bytes = 1 << 22;
  char *Buf = static_cast<char *>(RT.allocate(Bytes));
  size_t Offset = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(RT.checkRead(Buf + Offset, 1, nullptr));
    Offset = (Offset + 16) % Bytes; // a new granule every time
  }
  RT.deallocate(Buf);
}
BENCHMARK(BM_ChkReadColdGranules);

void BM_ChkWriteRange4K(benchmark::State &State) {
  RuntimeScope Scope;
  rt::Runtime &RT = rt::Runtime::get();
  char *Buf = static_cast<char *>(RT.allocate(4096));
  for (auto _ : State)
    benchmark::DoNotOptimize(RT.checkWrite(Buf, 4096, nullptr));
  State.SetBytesProcessed(int64_t(State.iterations()) * 4096);
  RT.deallocate(Buf);
}
BENCHMARK(BM_ChkWriteRange4K);

void BM_LockLogCheck(benchmark::State &State) {
  RuntimeScope Scope;
  Mutex M1, M2, M3;
  M1.lock();
  M2.lock();
  M3.lock();
  int Data = 0;
  rt::Runtime &RT = rt::Runtime::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(RT.checkLockHeld(&M2, &Data, nullptr));
  M3.unlock();
  M2.unlock();
  M1.unlock();
}
BENCHMARK(BM_LockLogCheck);

void BM_CountedStoreLp(benchmark::State &State) {
  RuntimeScope Scope(rt::RcMode::LevanoniPetrank);
  rt::Runtime &RT = rt::Runtime::get();
  void *Obj = RT.allocate(64);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  for (auto _ : State)
    RT.rcStore(&Slot, Obj);
  RT.rcStore(&Slot, nullptr);
  RT.deallocate(Obj);
}
BENCHMARK(BM_CountedStoreLp);

void BM_CountedStoreAtomic(benchmark::State &State) {
  RuntimeScope Scope(rt::RcMode::Atomic);
  rt::Runtime &RT = rt::Runtime::get();
  void *Obj = RT.allocate(64);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  for (auto _ : State)
    RT.rcStore(&Slot, Obj);
  RT.rcStore(&Slot, nullptr);
  RT.deallocate(Obj);
}
BENCHMARK(BM_CountedStoreAtomic);

void BM_SharingCastLp(benchmark::State &State) {
  // Includes the epoch flip + log processing of a collection per cast.
  RuntimeScope Scope(rt::RcMode::LevanoniPetrank);
  rt::Runtime &RT = rt::Runtime::get();
  void *Obj = RT.allocate(64);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  for (auto _ : State) {
    RT.rcStore(&Slot, Obj);
    benchmark::DoNotOptimize(RT.scast(&Slot, 64, nullptr));
  }
  RT.deallocate(Obj);
}
BENCHMARK(BM_SharingCastLp);

void BM_SharingCastAtomic(benchmark::State &State) {
  RuntimeScope Scope(rt::RcMode::Atomic);
  rt::Runtime &RT = rt::Runtime::get();
  void *Obj = RT.allocate(64);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  for (auto _ : State) {
    RT.rcStore(&Slot, Obj);
    benchmark::DoNotOptimize(RT.scast(&Slot, 64, nullptr));
  }
  RT.deallocate(Obj);
}
BENCHMARK(BM_SharingCastAtomic);

void BM_ThreadExitClearing(benchmark::State &State) {
  // Cost of clearing a thread's bits via its first-access log, per
  // touched granule (Section 4.2.1's "made efficient by logging").
  RuntimeScope Scope;
  rt::Runtime &RT = rt::Runtime::get();
  constexpr unsigned Granules = 1024;
  char *Buf = static_cast<char *>(RT.allocate(Granules * 16));
  for (auto _ : State) {
    Thread T([&] {
      for (unsigned I = 0; I != Granules; ++I)
        RT.checkWrite(Buf + I * 16, 1, nullptr);
    });
    T.join(); // join includes exit clearing
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Granules);
  RT.deallocate(Buf);
}
BENCHMARK(BM_ThreadExitClearing);

void BM_HeapAllocFree(benchmark::State &State) {
  RuntimeScope Scope;
  rt::Runtime &RT = rt::Runtime::get();
  for (auto _ : State) {
    void *P = RT.allocate(256);
    benchmark::DoNotOptimize(P);
    RT.deallocate(P);
  }
}
BENCHMARK(BM_HeapAllocFree);

/// Console reporter that also records each run into a JsonReport row.
/// Under --benchmark_repetitions=N the per-repetition timings are
/// coalesced to their minimum (and google-benchmark's _mean/_median
/// aggregate rows skipped), matching timeMinSeconds' min-of-reps
/// convention — the statistic the ci.sh overhead gates need, since a
/// single 0.1s sample on a shared machine jitters past any sane gate.
class CapturingReporter : public benchmark::ConsoleReporter {
public:
  explicit CapturingReporter(bench::JsonReport &Report) : Report(Report) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      if (R.error_occurred || R.run_type == Run::RT_Aggregate)
        continue;
      Row &Best = Rows[R.benchmark_name()];
      double Cpu = R.GetAdjustedCPUTime();
      if (Best.Seen && Best.CpuNs <= Cpu)
        continue;
      Best.Seen = true;
      Best.RealNs = R.GetAdjustedRealTime();
      Best.CpuNs = Cpu;
      Best.Iterations = static_cast<double>(R.iterations);
    }
    ConsoleReporter::ReportRuns(Runs);
  }

  /// Emits the coalesced rows; call once, after RunSpecifiedBenchmarks.
  void flush() {
    for (const auto &[Name, Best] : Rows) {
      Report.beginRow(Name);
      Report.metric("real_ns", Best.RealNs);
      Report.metric("cpu_ns", Best.CpuNs);
      Report.metric("iterations", Best.Iterations);
    }
  }

private:
  struct Row {
    bool Seen = false;
    double RealNs = 0;
    double CpuNs = 0;
    double Iterations = 0;
  };
  bench::JsonReport &Report;
  std::map<std::string, Row> Rows; ///< ordered: stable row order
};

} // namespace

int main(int Argc, char **Argv) {
  // Measure the multithreaded-process regime SharC actually runs in.
  // glibc keeps cheaper single-threaded fast paths (pthread_mutex_lock
  // skips its atomics while __libc_single_threaded holds) and drops
  // them permanently at the first spawn, so a configuration that adds a
  // helper thread — the sharc-live listener — would otherwise be
  // charged the regime change instead of its own (zero) hot-path cost.
  { std::thread Regime([] {}); Regime.join(); }
  bench::JsonReport Report("bench_runtime_micro", Argc, Argv);
  // Strip the --json flag before handing argv to google-benchmark, which
  // owns all remaining flags (--benchmark_filter etc.).
  std::vector<char *> Args;
  for (int I = 0; I != Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg.substr(0, 7) == "--json=")
      continue;
    if (Arg == "--json") {
      ++I;
      continue;
    }
    Args.push_back(Argv[I]);
  }
  int FilteredArgc = static_cast<int>(Args.size());
  benchmark::Initialize(&FilteredArgc, Args.data());
  CapturingReporter Reporter(Report);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  Reporter.flush();
  benchmark::Shutdown();
  return Report.finish(0);
}
