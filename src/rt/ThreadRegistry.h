//===-- rt/ThreadRegistry.h - Thread ids and per-thread state ---*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assigns small thread ids (1..8n-1, matching the shadow-byte encoding of
/// Section 4.2.1) and owns per-thread state: the first-access log used to
/// clear a thread's shadow bits cheaply at exit and to name the site in
/// conflict reports, the per-thread reference-counting logs of the adapted
/// Levanoni-Petrank algorithm (Section 4.3), and the held-lock log
/// (Section 4.2.2).
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_THREADREGISTRY_H
#define SHARC_RT_THREADREGISTRY_H

#include "rt/AccessSite.h"
#include "rt/Profile.h"
#include "rt/RcLog.h"
#include "rt/Stats.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sharc {
namespace rt {

/// One run of the first-access log: Count consecutive granules, from
/// First up, whose shadow cells the thread set its bit in, first accessed
/// in address order from one site. Count lives in the top 16 bits of
/// SiteAndCount and the site in the low 48, so an entry is 16 bytes and
/// growing a run is one store.
struct AccessRun {
  uintptr_t First = 0;
  uint64_t SiteAndCount = 0;
};

/// The first-access log of Section 4.2.1 as runs. Only the owner logs;
/// other threads may scan it concurrently. A first access right after the
/// newest run, from the same site, grows that run: the owner stores the
/// new count (release) before the compare-and-swap that publishes the
/// granule's bit, so a scanner that saw the bit reads a count covering
/// the granule. Otherwise it appends a run.
class FirstAccessLog {
  static constexpr unsigned CountShift = 48;
  static constexpr uint64_t SiteMask = (uint64_t(1) << CountShift) - 1;
  static constexpr uint64_t MaxCount = 0xFFFF;
  /// The owner's copy of a cleared log's newest run: full, so it never
  /// grows.
  static constexpr uint64_t NoRun = MaxCount << CountShift;

public:
  /// Logs the first accesses to the \p N granules of \p GranuleBytes
  /// each from \p First up, all from \p Site (owner only). \p N is at
  /// most one shadow word's lanes.
  void log(uintptr_t First, size_t N, size_t GranuleBytes,
           const AccessSite *Site) {
    uint64_t Tag = tag(Site);
    if (First == NextGranule && (NewestWord & SiteMask) == Tag &&
        (NewestWord >> CountShift) + N <= MaxCount) {
      NewestWord += uint64_t(N) << CountShift;
      std::atomic_ref<uint64_t>(Newest->SiteAndCount)
          .store(NewestWord, std::memory_order_release);
      NextGranule += N * GranuleBytes;
      return;
    }
    append(First, N, GranuleBytes, Tag);
  }

  /// Invokes Fn(First, Count, Site) for every run present at call time,
  /// oldest first. Safe against the appending owner.
  template <typename FnT> void forEach(FnT Fn) const {
    Runs.forEach([&](const AccessRun &R) {
      uint64_t Word = std::atomic_ref<const uint64_t>(R.SiteAndCount)
                          .load(std::memory_order_acquire);
      Fn(R.First, size_t(Word >> CountShift),
         reinterpret_cast<const AccessSite *>(Word & SiteMask));
    });
  }

  /// Drops every run, and the owner's newest with them. Only when no
  /// other thread can log or scan (the registry, under its lock, when
  /// the owner deregisters).
  void clear() {
    Runs.clear();
    Newest = nullptr;
    NewestWord = NoRun;
    NextGranule = 0;
  }

  /// Number of runs.
  size_t size() const { return Runs.size(); }
  size_t memoryFootprint() const { return Runs.memoryFootprint(); }

private:
  /// A site's low 48 bits. User-space addresses fit on the supported
  /// targets; a site above them is logged without its site, which costs
  /// a report its "last" site and nothing else.
  static uint64_t tag(const AccessSite *Site) {
    uint64_t Bits = reinterpret_cast<uintptr_t>(Site);
    return Bits & ~SiteMask ? 0 : Bits;
  }

  [[gnu::noinline]] void append(uintptr_t First, size_t N,
                                size_t GranuleBytes, uint64_t Tag) {
    NewestWord = (uint64_t(N) << CountShift) | Tag;
    Newest = &Runs.push({First, NewestWord});
    NextGranule = First + N * GranuleBytes;
  }

  ChunkedLog<AccessRun> Runs;
  /// The owner's newest run, its SiteAndCount as last stored, and the
  /// granule right after it. Read and written by the owner only.
  AccessRun *Newest = nullptr;
  uint64_t NewestWord = NoRun;
  uintptr_t NextGranule = 0;
};

/// One entry of a thread's lock log: a lock and the mode it is held in.
struct LockHold {
  static constexpr uint32_t NoProfileSlot = ~uint32_t(0);

  const void *Lock;
  /// A reader hold of a SharedMutex; false for an exclusive hold.
  bool Shared;
  /// A hold taken through a profiled acquire: its ThreadProfile lock
  /// slot and the TSC when it began, so the release can charge the hold
  /// time. NoProfileSlot on every other hold.
  uint32_t ProfileSlot = NoProfileSlot;
  uint64_t Start = 0;

  bool is(const void *L, bool S) const { return Lock == L && Shared == S; }
};

/// All per-thread runtime state. Allocated when a thread registers and
/// retained (in a retired list) after it exits until the next reference
/// count collection has drained its logs.
struct ThreadState {
  /// Small id, 1..maxThreads. Doubles as the shadow bit index.
  unsigned Tid = 0;

  /// This thread's check counters; the registry folds them into its
  /// retired total when the thread deregisters.
  ThreadCounters Counters;

  /// Runs of granules whose shadow cell this thread has set its bit in
  /// since the bit was last clear, oldest first. Used to clear this
  /// thread's bits at exit ("the clearing operation is made efficient by
  /// logging the addresses of all of a thread's reads and writes on its
  /// first accesses") and read by other threads' conflict reports under
  /// the registry lock; emptied, under that lock, when the thread
  /// deregisters.
  FirstAccessLog AccessLog;

  /// The owner's cache of the shadow page it used last: its page number
  /// and cells. Pages live as long as their ShadowMemory, so the cache
  /// never goes stale; a state serves one ShadowMemory.
  uintptr_t ShadowPage = ~uintptr_t(0);
  uint64_t *ShadowCells = nullptr;

  /// Double-buffered reference-count update logs, indexed by epoch.
  RcLog RcLogs[2];

  /// Nonzero (epoch+1) while the thread is inside an RC write barrier;
  /// the collector spins until no thread is mid-barrier in the old epoch.
  std::atomic<uint32_t> InBarrier{0};

  /// The locks this thread holds, oldest first: the lock log of Section
  /// 4.2.2, with reader holds of the rwlocked extension of Section 7
  /// ("more support for locks") marked Shared. Lock nesting depth is
  /// small, so membership is a linear scan.
  std::vector<LockHold> HeldLocks;

  /// True if HeldLocks has a hold of \p Lock in the mode \p Shared.
  bool holds(const void *Lock, bool Shared) const {
    return std::ranges::any_of(
        HeldLocks, [&](const LockHold &H) { return H.is(Lock, Shared); });
  }

  /// Per-site cost profile (sharc-prof). Allocated at registration when
  /// RuntimeConfig::Profile is set, null otherwise — the disabled check
  /// paths test this pointer, nothing more.
  std::unique_ptr<ThreadProfile> Prof;

  /// Bytes behind the three logs, which other threads may read while
  /// the owner appends (StatsSnapshot::LogBytes).
  size_t logBytes() const {
    return AccessLog.memoryFootprint() + RcLogs[0].memoryFootprint() +
           RcLogs[1].memoryFootprint();
  }
};

/// Hands out thread ids and tracks live and retired ThreadStates. The
/// registry is owned by the Runtime; one instance per runtime lifetime.
class ThreadRegistry {
public:
  explicit ThreadRegistry(unsigned MaxThreads);
  ~ThreadRegistry();

  ThreadRegistry(const ThreadRegistry &) = delete;
  ThreadRegistry &operator=(const ThreadRegistry &) = delete;

  /// Registers the calling thread and returns its state. Asserts if more
  /// than MaxThreads threads are simultaneously live (the paper's encoding
  /// supports 8n-1 concurrent threads).
  ThreadState *registerThread();

  /// Adds \p State's counters into the retired total, drops its access log
  /// and frees its id for reuse. A state with pending RC log entries stays
  /// alive, retired, until purgeRetiredUnlocked() after a collection.
  void deregisterThread(ThreadState *State);

  /// The counters of every thread ever registered: the live blocks plus
  /// the retired total, summed under the lock so each block counts once.
  CounterTotals sumCounters() const;

  /// Invokes \p Fn on every live and retired ThreadState, holding the
  /// structural lock for the duration.
  template <typename FnT> void forEachState(FnT Fn) {
    std::lock_guard<std::mutex> Lock(Mutex);
    forEachStateUnlocked(Fn);
  }

  /// Takes the structural lock, preventing register/deregister/purge until
  /// the returned lock is released. The RC collector holds this for a whole
  /// collection so the thread set stays consistent across its passes.
  std::unique_lock<std::mutex> lockStructure() {
    return std::unique_lock<std::mutex>(Mutex);
  }

  /// Iteration usable while the caller holds lockStructure().
  template <typename FnT> void forEachStateUnlocked(FnT Fn) {
    for (auto &State : Live)
      if (State)
        Fn(*State);
    for (auto &State : Retired)
      Fn(*State);
  }

  /// Frees retired states whose logs have been drained by the collector.
  /// The caller holds lockStructure().
  void purgeRetiredUnlocked();

  unsigned getMaxThreads() const { return MaxThreads; }
  unsigned getNumLive() const;
  /// Total registrations over the registry's lifetime (ids reused or
  /// not) — the stats endpoint's sharc_threads_spawned_total.
  uint64_t getNumEverRegistered() const {
    return EverRegistered.load(std::memory_order_relaxed);
  }

private:
  unsigned MaxThreads;
  mutable std::mutex Mutex;
  /// Index = tid - 1. Null when the id is free.
  std::vector<std::unique_ptr<ThreadState>> Live;
  std::vector<std::unique_ptr<ThreadState>> Retired;
  /// Counters of the threads that have deregistered.
  CounterTotals RetiredCounters;
  std::atomic<uint64_t> EverRegistered{0};
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_THREADREGISTRY_H
