//===-- bench/bench_thread_scaling.cpp - Section 7's scaling concern ------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's Section 7: "its runtime race detection should be able to
// handle a larger number of threads with low overhead" -- the 8n-1
// encoding needs n shadow bytes per 16-byte granule to support more
// threads. This bench measures both axes of that tradeoff:
//
//   - check throughput as the shadow word widens (1/2/4/8 bytes,
//     supporting 7/15/31/63 threads), and
//   - aggregate checked-scan throughput as concurrent threads grow.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "rt/Sharc.h"

#include <cstdio>
#include <vector>

using namespace sharc;
using namespace sharc::bench;

namespace {

/// Single-thread hot-path check throughput at a shadow width.
double hotCheckMops(unsigned ShadowBytes, unsigned Iterations) {
  rt::RuntimeConfig Config;
  Config.ShadowBytesPerGranule = ShadowBytes;
  rt::Runtime::init(Config);
  double Sec;
  {
    rt::Runtime &RT = rt::Runtime::get();
    char *Buf = static_cast<char *>(RT.allocate(1 << 16));
    RT.checkRead(Buf, 1 << 16, nullptr); // warm all granules
    Sec = timeMinSeconds([&] {
      for (unsigned I = 0; I != Iterations; ++I)
        RT.checkRead(Buf + (I * 64) % (1 << 16), 8, nullptr);
    });
    RT.deallocate(Buf);
  }
  rt::Runtime::shutdown();
  return Iterations / Sec / 1e6;
}

/// Aggregate throughput with T concurrent reader threads re-scanning a
/// shared buffer (every access is a shadow fast-path hit after warmup).
double concurrentScanMopsTotal(unsigned ShadowBytes, unsigned NumThreads,
                               unsigned RoundsPerThread) {
  rt::RuntimeConfig Config;
  Config.ShadowBytesPerGranule = ShadowBytes;
  rt::Runtime::init(Config);
  double Sec;
  constexpr unsigned NumGranules = 4096;
  {
    rt::Runtime &RT = rt::Runtime::get();
    char *Buf = static_cast<char *>(RT.allocate(NumGranules * 16));
    Sec = timeMinSeconds([&] {
      std::vector<Thread> Threads;
      for (unsigned T = 0; T != NumThreads; ++T)
        Threads.emplace_back([&] {
          for (unsigned R = 0; R != RoundsPerThread; ++R)
            for (unsigned G = 0; G != NumGranules; ++G)
              RT.checkRead(Buf + G * 16, 8, nullptr);
        });
      for (Thread &T : Threads)
        T.join();
    });
    RT.deallocate(Buf);
  }
  rt::Runtime::shutdown();
  return double(NumThreads) * RoundsPerThread * NumGranules / Sec / 1e6;
}

} // namespace

int main(int Argc, char **Argv) {
  sharc::bench::JsonReport Report("bench_thread_scaling", Argc, Argv);
  unsigned Iterations = 1000000 * scale();
  std::printf("=== Thread-count scaling (Section 7) ===\n\n");
  std::printf("shadow word width vs. single-thread hot-path throughput:\n");
  std::printf("%8s | %11s | %10s | %s\n", "width", "max threads",
              "Mchecks/s", "shadow bytes per granule");
  for (unsigned Width : {1u, 2u, 4u, 8u}) {
    double Mops = hotCheckMops(Width, Iterations);
    std::printf("%7uB | %11u | %10.1f | %u/16 = %.2f%%\n", Width,
                8 * Width - 1, Mops, Width, 100.0 * Width / 16.0);
    Report.beginRow("width-" + std::to_string(Width));
    Report.metric("shadow_bytes", Width);
    Report.metric("max_threads", 8 * Width - 1);
    Report.metric("mchecks_per_sec", Mops);
    Report.metric("check_ns", 1e3 / Mops);
  }

  std::printf("\nconcurrent shared readers (width sized to fit), aggregate "
              "throughput:\n");
  std::printf("%8s | %6s | %14s\n", "threads", "width", "Mchecks/s total");
  for (unsigned Threads : {1u, 2u, 4u, 6u, 10u, 14u}) {
    unsigned Width = Threads + 2 <= 7 ? 1u : (Threads + 2 <= 15 ? 2u : 4u);
    double Mops = concurrentScanMopsTotal(Width, Threads, 50 * scale());
    std::printf("%8u | %5uB | %14.1f\n", Threads, Width, Mops);
    Report.beginRow("threads-" + std::to_string(Threads));
    Report.metric("threads", Threads);
    Report.metric("shadow_bytes", Width);
    Report.metric("mchecks_per_sec_total", Mops);
    // Wall time per check, all threads together: the time compare-runs
    // trends, where lower is better.
    Report.metric("check_ns", 1e3 / Mops);
  }

  std::printf("\nwidening the shadow word multiplies supported threads by "
              "8 per byte at a linear metadata cost and (as measured) "
              "little check-path cost: the encoding scales further than "
              "the paper's n=1 deployment needed.\n");
  return Report.finish(0);
}
