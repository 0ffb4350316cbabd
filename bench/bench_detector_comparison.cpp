//===-- bench/bench_detector_comparison.cpp - Section 6.2's claim ---------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Reproduces the related-work comparison of Section 6.2: Eraser monitors
// "every memory read and write in the program ... but it incurs a
// 10x-30x runtime overhead" (and happens-before tools land in between),
// while SharC checks only the accesses whose *mode* requires it and
// reaches the same verdicts on mode-annotated programs.
//
// One kernel, four detectors:
//   none    uninstrumented scan
//   sharc   SharC shadow checks, one per granule (the dynamic mode)
//   eraser  lockset state machine on every 8-byte access
//   hb      vector-clock happens-before on every 8-byte access
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "racedet/Eraser.h"
#include "racedet/VectorClock.h"
#include "rt/Sharc.h"
#include "workloads/TextCorpus.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

using namespace sharc;
using namespace sharc::bench;
using namespace sharc::workloads;

namespace {

/// The kernel: worker threads repeatedly scan shared read-only text (the
/// pfscan inner loop over an OS-cached corpus) and tally matches under a
/// lock. DetectorT provides onRead/onWrite/onLockAcquire/onLockRelease
/// hooks at HookBytes granularity; each hook passes the worker's index
/// as its tid. Multiple passes model steady-state re-access: SharC's
/// shadow fast path absorbs repeats with one relaxed load + no-op CAS,
/// while the lockset/vector-clock baselines pay their full per-access
/// cost every time.
template <typename DetectorT>
uint64_t scanKernel(DetectorT &Detector, const std::vector<CorpusFile> &Corpus,
                    unsigned NumThreads, unsigned NumPasses,
                    size_t HookBytes) {
  std::mutex Mut;
  uint64_t Total = 0;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned Pass = 0; Pass != NumPasses; ++Pass) {
        for (size_t Index = T; Index < Corpus.size(); Index += NumThreads) {
          const CorpusFile &File = Corpus[Index];
          for (size_t Off = 0; Off < File.Contents.size(); Off += HookBytes)
            Detector.onRead(T, File.Contents.data() + Off,
                            std::min(HookBytes,
                                     File.Contents.size() - Off));
          uint64_t Found = countOccurrences(File.Contents.data(),
                                            File.Contents.size(), "etaoin");
          {
            // Acquire hooks run once the lock is held, so a detector never
            // joins the lock's state before the previous holder's release.
            std::lock_guard<std::mutex> Lock(Mut);
            Detector.onLockAcquire(T, &Mut);
            Detector.onRead(T, &Total, sizeof(Total));
            Detector.onWrite(T, &Total, sizeof(Total));
            Total += Found;
            Detector.onLockRelease(T, &Mut);
          }
        }
      }
    });
  for (auto &T : Threads)
    T.join();
  return Total;
}

/// No-op detector (the uninstrumented baseline).
struct NullDetector {
  void onLockAcquire(unsigned, const void *) {}
  void onLockRelease(unsigned, const void *) {}
  void onRead(unsigned, const void *, size_t) {}
  void onWrite(unsigned, void *, size_t) {}
};

/// SharC's checker as a detector: dynamic-mode checks per access. The
/// runtime finds the calling thread itself, so the tid goes unused.
struct SharcDetector {
  void onLockAcquire(unsigned, const void *Lock) {
    rt::Runtime::get().onLockAcquire(Lock);
  }
  void onLockRelease(unsigned, const void *Lock) {
    rt::Runtime::get().onLockRelease(Lock);
  }
  void onRead(unsigned, const void *Addr, size_t Size) {
    rt::Runtime::get().checkRead(Addr, Size, nullptr);
  }
  void onWrite(unsigned, void *Addr, size_t Size) {
    rt::Runtime::get().checkWrite(Addr, Size, nullptr);
  }
};

} // namespace

int main(int Argc, char **Argv) {
  bench::JsonReport Report("bench_detector_comparison", Argc, Argv);
  unsigned NumThreads = 3;
  std::vector<CorpusFile> Corpus =
      makeCorpus(16 * scale(), 65536, "etaoin", 3);
  uint64_t TotalBytes = 0;
  for (const auto &File : Corpus)
    TotalBytes += File.Contents.size();

  std::printf("=== Detector comparison (Section 6.2) ===\n");
  std::printf("kernel: %u threads x 4 passes over %.1f MiB shared text, "
              "hooks every 16 bytes\n\n",
              NumThreads,
              static_cast<double>(TotalBytes) / (1024 * 1024));

  unsigned NumPasses = 4;
  double NoneSec = timeMinSeconds([&] {
    NullDetector D;
    scanKernel(D, Corpus, NumThreads, NumPasses, 4096);
  });
  std::printf("  %-7s %8.3fs   1.00x\n", "none", NoneSec);

  // SharC: dynamic-mode reads checked once per 16-byte granule (the
  // shadow fast path absorbs repeats); the lock-protected counters are
  // locked-mode (no shadow traffic needed, lock log only).
  double SharcSec = timeMinSeconds([&] {
    rt::Runtime::init();
    {
      SharcDetector D; // threads register with the runtime on first check
      scanKernel(D, Corpus, NumThreads, NumPasses, 16);
    }
    rt::Runtime::shutdown();
  });
  std::printf("  %-7s %8.3fs  %5.2fx   (paper: 1.02x-1.14x)\n", "sharc",
              SharcSec, SharcSec / NoneSec);

  // Eraser: every 8-byte access consults the lockset state machine. Keep
  // the largest race count of any repetition: the kernel is race-free.
  uint64_t EraserRaces = 0;
  double EraserSec = timeMinSeconds([&] {
    racedet::EraserDetector D;
    scanKernel(D, Corpus, NumThreads, NumPasses, 16);
    EraserRaces = std::max(EraserRaces, D.getNumRaces());
  });
  std::printf("  %-7s %8.3fs  %5.2fx   (paper: 10x-30x), %llu races\n",
              "eraser", EraserSec, EraserSec / NoneSec,
              static_cast<unsigned long long>(EraserRaces));

  // Happens-before: every 8-byte access checked against vector clocks.
  uint64_t HbRaces = 0;
  double HbSec = timeMinSeconds([&] {
    racedet::HappensBeforeDetector D;
    scanKernel(D, Corpus, NumThreads, NumPasses, 16);
    HbRaces = std::max(HbRaces, D.getNumRaces());
  });
  std::printf("  %-7s %8.3fs  %5.2fx   (literature: 8x-40x), %llu races\n",
              "hb", HbSec, HbSec / NoneSec,
              static_cast<unsigned long long>(HbRaces));

  std::printf("\nSharC's advantage is structural: modes tell it *which* "
              "accesses need checks, and its shadow fast path is one CAS; "
              "the baselines pay a locked hash-table visit per access.\n");

  auto Record = [&](const char *Name, double Sec, double Races) {
    Report.beginRow(Name);
    Report.metric("sec", Sec);
    Report.metric("ratio_vs_none", NoneSec > 0 ? Sec / NoneSec : 0.0);
    Report.metric("races", Races);
  };
  Record("none", NoneSec, 0);
  Record("sharc", SharcSec, 0);
  Record("eraser", EraserSec, static_cast<double>(EraserRaces));
  Record("hb", HbSec, static_cast<double>(HbRaces));
  // The kernel is race-free: a reported race is a detector bug.
  if (EraserRaces != 0 || HbRaces != 0) {
    std::fprintf(stderr, "bench_detector_comparison: races reported on a "
                         "race-free kernel\n");
    return Report.finish(1);
  }
  return Report.finish(0);
}
