//===-- perfbench/src/Probes.cpp - Runtime primitive probes ---------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Direct calls into rt::Runtime, timed on one thread and on n threads at
// once (n = the rows' worker count), each repetition under a fresh
// runtime in its default configuration. Only the traced run takes them.
// A probe's value is the median over repetitions of the mean per-thread
// cost of one call, after one untimed warm-up sweep.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "rt/Sharc.h"

#include <atomic>
#include <thread>

using namespace sharc;

namespace perfbench {
namespace {

constexpr unsigned Reps = 5;
constexpr size_t BufferBytes = 64 * 1024; // fits in L2
constexpr size_t Granules = BufferBytes / 16;
constexpr unsigned Sweeps = 64;            // timed sweeps per buffer probe
constexpr size_t ExitClearBytes = 4 << 20; // granules a thread holds at exit
constexpr unsigned Slots = 64;
constexpr unsigned CastIters = 2000;

/// Runs \p Body(ThreadIndex) -> seconds on \p Threads registered threads
/// released together; \returns the mean of what the bodies measured.
template <typename BodyT> double onThreads(unsigned Threads, BodyT Body) {
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<double> Sec(Threads);
  std::vector<sharc::Thread> Workers;
  for (unsigned I = 0; I != Threads; ++I)
    Workers.emplace_back([&, I] {
      (void)rt::Runtime::get().currentThread();
      Ready.fetch_add(1);
      while (!Go.load())
        std::this_thread::yield();
      Sec[I] = Body(I);
    });
  while (Ready.load() != Threads)
    std::this_thread::yield();
  Go.store(true);
  for (auto &W : Workers)
    W.join();
  return mean(Sec);
}

/// Median over Reps of \p Probe() -> ns, each under a fresh runtime.
template <typename ProbeT> double medianOfReps(ProbeT Probe) {
  std::vector<double> V;
  for (unsigned R = 0; R != Reps; ++R) {
    rt::Runtime::init();
    V.push_back(Probe());
    rt::Runtime::shutdown();
  }
  return median(V);
}

/// ns per \p Call(ThreadIndex, GranuleIndex) on \p Threads threads: one
/// warm-up sweep over the granules, then Sweeps timed ones.
template <typename CallT> double sweepNs(unsigned Threads, CallT Call) {
  return medianOfReps([&] {
    double Sec = onThreads(Threads, [&](unsigned T) {
      for (size_t G = 0; G != Granules; ++G)
        Call(T, G);
      Clock::time_point Start = Clock::now();
      for (unsigned S = 0; S != Sweeps; ++S)
        for (size_t G = 0; G != Granules; ++G)
          Call(T, G);
      return secondsSince(Start);
    });
    return 1e9 * Sec / static_cast<double>(Sweeps * Granules);
  });
}

} // namespace

void runProbes(const Options &Opts, bool Shadow, Report &Out) {
  unsigned N = std::max(1u, Opts.Threads - 1);
  auto Put = [&](const char *Name, bool Group, auto Probe) {
    Out.add(Name, Group ? Probe() : 0.0, "ns", Group ? Reps : 0);
  };
  // Reads share one buffer (read-shared granules); writes, lock checks and
  // counted stores use one object per thread, so no probe conflicts.
  std::vector<uint8_t> SharedBuf(BufferBytes);
  std::vector<std::vector<uint8_t>> Own(N, std::vector<uint8_t>(BufferBytes));
  auto ChkRead = [&](unsigned Threads) {
    return sweepNs(Threads, [&](unsigned, size_t G) {
      rt::Runtime::get().checkRead(SharedBuf.data() + 16 * G, 16, nullptr);
    });
  };
  auto ChkWrite = [&](unsigned Threads) {
    return sweepNs(Threads, [&](unsigned T, size_t G) {
      rt::Runtime::get().checkWrite(Own[T].data() + 16 * G, 16, nullptr);
    });
  };
  // One range check covers the whole buffer; reported per granule.
  auto RangePerGranule = [&](unsigned Threads) {
    return medianOfReps([&] {
      double Sec = onThreads(Threads, [&](unsigned) {
        rt::Runtime &RT = rt::Runtime::get();
        RT.checkRead(SharedBuf.data(), BufferBytes, nullptr);
        Clock::time_point Start = Clock::now();
        for (unsigned S = 0; S != Sweeps; ++S)
          RT.checkRead(SharedBuf.data(), BufferBytes, nullptr);
        return secondsSince(Start);
      });
      return 1e9 * Sec / static_cast<double>(Sweeps * Granules);
    });
  };
  auto ExitClear = [&] {
    std::vector<uint8_t> Big(ExitClearBytes);
    return medianOfReps([&] {
      double Sec = 0;
      // A plain std::thread: the probe deregisters it by hand.
      std::thread T([&] {
        rt::Runtime &RT = rt::Runtime::get();
        for (size_t Off = 0; Off < Big.size(); Off += 16)
          RT.checkRead(Big.data() + Off, 16, nullptr);
        Clock::time_point Start = Clock::now();
        RT.deregisterCurrentThread();
        Sec = secondsSince(Start);
      });
      T.join();
      return 1e9 * Sec / static_cast<double>(ExitClearBytes / 16);
    });
  };
  std::vector<uint64_t> LockCells(N);
  auto LockCheck = [&](unsigned Threads) {
    return sweepNs(Threads, [&](unsigned T, size_t G) {
      rt::Runtime &RT = rt::Runtime::get();
      const void *Lock = &Own[T]; // a distinct address per thread
      if (G == 0)
        RT.onLockAcquire(Lock);
      RT.checkLockHeld(Lock, &LockCells[T], nullptr);
      if (G + 1 == Granules)
        RT.onLockRelease(Lock);
    });
  };
  // Counted slots live outside the threads: pending reference-count logs
  // name them until the runtime is shut down.
  std::vector<std::vector<void *>> SlotArrays(N, std::vector<void *>(Slots));
  auto RcStore = [&](unsigned Threads) {
    return medianOfReps([&] {
      constexpr size_t Calls = Sweeps * Granules;
      double Sec = onThreads(Threads, [&](unsigned T) {
        rt::Runtime &RT = rt::Runtime::get();
        std::vector<void *> &S = SlotArrays[T];
        void *Values[2] = {&Own[T], &SlotArrays[T]};
        for (void *&Slot : S)
          RT.rcInitSlot(&Slot);
        for (size_t I = 0; I != Granules; ++I)
          RT.rcStore(&S[I % Slots], Values[(I / Slots) % 2]);
        Clock::time_point Start = Clock::now();
        for (size_t I = 0; I != Calls; ++I)
          RT.rcStore(&S[I % Slots], Values[(I / Slots) % 2]);
        return secondsSince(Start);
      });
      return 1e9 * Sec / static_cast<double>(Calls);
    });
  };
  void *CastSlot = nullptr;
  auto Scast = [&] {
    return medianOfReps([&] {
      double Sec = onThreads(1, [&](unsigned) {
        rt::Runtime &RT = rt::Runtime::get();
        void *Obj = RT.allocate(64);
        RT.rcInitSlot(&CastSlot);
        Clock::time_point Start = Clock::now();
        for (unsigned I = 0; I != CastIters; ++I) {
          RT.rcStore(&CastSlot, Obj);
          RT.scast(&CastSlot, 0, nullptr);
        }
        double S = secondsSince(Start);
        RT.deallocate(Obj);
        return S;
      });
      return 1e9 * Sec / CastIters;
    });
  };
  auto Collect = [&] {
    return medianOfReps([&] {
      double Sec = onThreads(1, [&](unsigned) {
        rt::Runtime &RT = rt::Runtime::get();
        void *Obj = RT.allocate(64);
        RT.rcInitSlot(&CastSlot);
        RT.rcStore(&CastSlot, Obj);
        Clock::time_point Start = Clock::now();
        for (unsigned I = 0; I != CastIters; ++I)
          (void)RT.refCount(Obj);
        double S = secondsSince(Start);
        RT.rcStore(&CastSlot, nullptr);
        RT.deallocate(Obj);
        return S;
      });
      return 1e9 * Sec / CastIters;
    });
  };

  Put("rt.chkread.ns.t1", Shadow, [&] { return ChkRead(1); });
  Put("rt.chkread.ns.tn", Shadow, [&] { return ChkRead(N); });
  Put("rt.chkwrite.ns.t1", Shadow, [&] { return ChkWrite(1); });
  Put("rt.chkwrite.ns.tn", Shadow, [&] { return ChkWrite(N); });
  Put("rt.range.ns_per_granule.t1", Shadow,
      [&] { return RangePerGranule(1); });
  Put("rt.range.ns_per_granule.tn", Shadow,
      [&] { return RangePerGranule(N); });
  Put("rt.exit_clear.ns_per_granule", Shadow, ExitClear);
  Put("rt.lockcheck.ns.t1", !Shadow, [&] { return LockCheck(1); });
  Put("rt.lockcheck.ns.tn", !Shadow, [&] { return LockCheck(N); });
  Put("rt.rcstore.ns.t1", !Shadow, [&] { return RcStore(1); });
  Put("rt.rcstore.ns.tn", !Shadow, [&] { return RcStore(N); });
  Put("rt.scast.ns", !Shadow, Scast);
  Put("rt.collect.ns", !Shadow, Collect);
}

} // namespace perfbench
