//===-- bench/bench_granularity.cpp - Section 4.5's tradeoff --------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Quantifies the granularity limitation of Section 4.5: "Since we track
// races at a 16-byte granularity, races may be reported for two separate
// objects that are close together, but used in a non-racy way." Sweeping
// the granule size shows the tradeoff the authors fixed at 16 bytes:
//
//   - false-sharing reports on adjacent small objects (drops as granules
//     shrink),
//   - shadow metadata bytes per payload byte (grows as granules shrink),
//   - check throughput (roughly constant per call; more calls needed at
//     small granules for range checks).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "rt/Sharc.h"

#include <atomic>
#include <cstdio>
#include <vector>

using namespace sharc;
using namespace sharc::bench;

namespace {

/// Two threads work on alternating 8-byte objects carved from one
/// allocation -- disjoint by design, adjacent in memory.
unsigned falseSharingReports(unsigned GranuleShift, unsigned NumObjects) {
  rt::RuntimeConfig Config;
  Config.GranuleShift = GranuleShift;
  rt::Runtime::init(Config);
  unsigned Reports;
  {
    rt::Runtime &RT = rt::Runtime::get();
    char *Arena = static_cast<char *>(RT.allocate(NumObjects * 8));
    // Start/end barriers keep the threads' lifetimes overlapping (SharC
    // correctly forgives non-overlapping threads, which a 1-core box
    // would otherwise produce).
    std::atomic<int> Start{0}, End{0};
    auto Body = [&](unsigned First) {
      Start.fetch_add(1);
      while (Start.load() < 2)
        ;
      for (unsigned I = First; I < NumObjects; I += 2)
        RT.checkWrite(Arena + I * 8, 8, nullptr);
      End.fetch_add(1);
      while (End.load() < 2)
        ;
    };
    Thread Even([&] { Body(0); });
    Thread Odd([&] { Body(1); });
    Even.join();
    Odd.join();
    Reports = static_cast<unsigned>(RT.getStats().totalConflicts());
    RT.deallocate(Arena);
  }
  rt::Runtime::shutdown();
  return Reports;
}

/// Single-thread check throughput at a given granule size.
double checkThroughputMops(unsigned GranuleShift, unsigned Iterations) {
  rt::RuntimeConfig Config;
  Config.GranuleShift = GranuleShift;
  rt::Runtime::init(Config);
  double Sec;
  {
    rt::Runtime &RT = rt::Runtime::get();
    char *Buf = static_cast<char *>(RT.allocate(1 << 16));
    Sec = timeMinSeconds([&] {
      for (unsigned I = 0; I != Iterations; ++I)
        RT.checkRead(Buf + (I * 64) % (1 << 16), 8, nullptr);
    });
    RT.deallocate(Buf);
  }
  rt::Runtime::shutdown();
  return Iterations / Sec / 1e6;
}

} // namespace

int main(int Argc, char **Argv) {
  sharc::bench::JsonReport Report("bench_granularity", Argc, Argv);
  unsigned NumObjects = 4096;
  unsigned Iterations = 1000000 * scale();
  std::printf("=== Granularity sweep (Section 4.5) ===\n");
  std::printf("two threads write alternating adjacent 8-byte objects; "
              "every report is a false positive\n\n");
  std::printf("%8s | %14s | %16s | %10s\n", "granule", "false reports",
              "shadow overhead", "Mchecks/s");
  for (unsigned Shift : {2u, 3u, 4u, 5u, 6u}) {
    unsigned Reports = falseSharingReports(Shift, NumObjects);
    double ShadowPct = 100.0 / static_cast<double>(1u << Shift);
    double Mops = checkThroughputMops(Shift, Iterations);
    std::printf("%6uB | %8u/%-5u | %13.2f%% | %10.1f%s\n", 1u << Shift,
                Reports, NumObjects, ShadowPct, Mops,
                Shift == 4 ? "   <- the paper's choice" : "");
    Report.beginRow("granule-" + std::to_string(1u << Shift));
    Report.metric("granule_bytes", 1u << Shift);
    Report.metric("false_reports", Reports);
    Report.metric("shadow_overhead_pct", ShadowPct);
    Report.metric("mchecks_per_sec", Mops);
  }
  std::printf("\n16-byte granules keep shadow memory at 1/16th of payload "
              "while false sharing only affects sub-granule neighbours; "
              "SharC aligns malloc to 16 bytes so distinct heap objects "
              "never collide (Section 4.5).\n");
  return Report.finish(0);
}
