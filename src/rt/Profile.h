//===-- rt/Profile.h - Per-thread site-cost profiling -----------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharc-prof runtime half (DESIGN.md §11): a per-thread site-stats
/// table keyed by AccessSite*, counting every profiled check (count,
/// bytes) and timing a 1-in-2^k sample of them with the TSC, plus
/// per-lock wait/hold accounting with acquirer-site attribution.
///
/// Each ThreadProfile is owned and mutated by exactly one thread — the
/// table is lock-free by construction, not by atomics. It is drained
/// into obs SiteProfile/LockProfile/SelfOverhead records when the
/// thread retires (Runtime::deregisterCurrentThread) or the runtime
/// shuts down. The profiler's own cost is tracked alongside and leaves
/// in the SelfOverhead record, so the instrumentation is
/// self-accounting.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_PROFILE_H
#define SHARC_RT_PROFILE_H

#include "obs/ProfileRecord.h"
#include "rt/AccessSite.h"

#include <cstdint>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace sharc {
namespace obs {
class Sink;
} // namespace obs

namespace rt {

/// Cheap monotonic cycle counter. TSC on x86, the virtual counter on
/// aarch64, a steady_clock fallback elsewhere. Only deltas are
/// meaningful, and only within one thread.
inline uint64_t readTsc() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#elif defined(__aarch64__)
  uint64_t V;
  asm volatile("mrs %0, cntvct_el0" : "=r"(V));
  return V;
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

class ThreadProfile {
public:
  /// One in 2^SampleShift profiled operations is TSC-timed.
  explicit ThreadProfile(unsigned SampleShift)
      : SampleMask((uint64_t(1) << SampleShift) - 1) {
    Slots.resize(64);
  }

  /// Starts one profiled operation. \returns the start timestamp when
  /// this operation is in the timing sample, 0 otherwise.
  uint64_t begin() {
    ++Ops;
    return (Ops & SampleMask) == 0 ? readTsc() : 0;
  }

  /// Finishes the operation begun by the matching begin(): bumps the
  /// (Site, Kind) slot and, for sampled operations, attributes the
  /// checked work to the site and the bookkeeping to the profiler
  /// itself.
  void commit(const AccessSite *Site, obs::CheckKind Kind, uint64_t Bytes,
              uint64_t Begin) {
    uint64_t Mid = Begin ? readTsc() : 0;
    Slot &S = findSlot(Site, Kind);
    ++S.Count;
    S.Bytes += Bytes;
    if (Begin) {
      S.Cycles += Mid - Begin;
      ++S.Samples;
      ++SelfSamples;
      SelfCycles += readTsc() - Mid;
    }
  }

  /// Lock bookkeeping, called from Runtime::onLockAcquireProfiled.
  /// \returns the (Lock, Site) slot, which the hold's entry in the
  /// thread's lock log keeps until its release.
  uint32_t lockAcquired(const void *Lock, const AccessSite *Site,
                        uint64_t WaitCycles, bool Contended);
  /// Charges a hold of \p Slot that began at TSC \p Start. \returns the
  /// hold duration in cycles so the caller can feed live contention
  /// aggregates.
  uint64_t lockReleased(uint32_t Slot, uint64_t Start);

  /// Emits every populated slot plus one SelfOverhead record to Sink,
  /// then clears the table (drains are idempotent per epoch of data).
  void drainTo(obs::Sink &Sink, uint32_t Tid);

  size_t tableBytes() const {
    return Slots.capacity() * sizeof(Slot) +
           LockStats.capacity() * sizeof(LockSlot);
  }

  uint64_t opCount() const { return Ops; }

private:
  struct Slot {
    const AccessSite *Site = nullptr;
    uint8_t Kind = 0;
    bool Used = false;
    uint64_t Count = 0;
    uint64_t Bytes = 0;
    uint64_t Cycles = 0;
    uint64_t Samples = 0;
  };

  struct LockSlot {
    const void *Lock = nullptr;
    const AccessSite *Site = nullptr;
    uint64_t Acquires = 0;
    uint64_t Contended = 0;
    uint64_t WaitCycles = 0;
    uint64_t HoldCycles = 0;
    uint64_t WaitHist[obs::NumHistBuckets] = {};
    uint64_t HoldHist[obs::NumHistBuckets] = {};
  };

  Slot &findSlot(const AccessSite *Site, obs::CheckKind Kind);
  void grow();
  size_t findLock(const void *Lock, const AccessSite *Site);

  // Open-addressed, power-of-two sized, keyed by (Site, Kind).
  std::vector<Slot> Slots;
  size_t UsedSlots = 0;

  // Locks per thread are few; linear scans beat hashing here.
  std::vector<LockSlot> LockStats;

  uint64_t SampleMask;
  uint64_t Ops = 0;         // profiled operations seen
  uint64_t SelfCycles = 0;  // profiler bookkeeping cost (sampled)
  uint64_t SelfSamples = 0; // ops contributing to SelfCycles
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_PROFILE_H
