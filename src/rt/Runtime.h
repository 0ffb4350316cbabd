//===-- rt/Runtime.h - SharC runtime facade ---------------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Runtime ties the runtime subsystems together and is the single
/// entry point instrumented code (and the annotation wrappers in
/// rt/Annotations.h) calls into:
///
///   - dynamic-mode access checks (ShadowMemory, Section 4.2.1)
///   - locked-mode lock-held checks (per-thread lock logs, Section 4.2.2)
///   - sharing casts (null-out + sole-reference check, Section 4.2.3)
///   - counted pointer stores (RefCountEngine, Section 4.3)
///   - a granule-aligned heap with deferred frees
///
/// Lifecycle: Runtime::init(config) creates the global instance;
/// Runtime::shutdown() destroys it (tests cycle it per fixture). Threads
/// are registered automatically on first use or explicitly via
/// ScopedThreadRegistration, and must deregister before the ids run out
/// (sharc::Thread in Annotations.h handles this).
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_RUNTIME_H
#define SHARC_RT_RUNTIME_H

#include "obs/Event.h"
#include "rt/AccessSite.h"
#include "rt/Config.h"
#include "rt/Guard.h"
#include "rt/Heap.h"
#include "rt/RefCount.h"
#include "rt/Report.h"
#include "rt/ShadowMemory.h"
#include "rt/Stats.h"
#include "rt/StatsServer.h"
#include "rt/ThreadRegistry.h"

#include <atomic>

#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>

namespace sharc {
namespace rt {

/// The global SharC runtime.
class Runtime {
public:
  /// Creates the global runtime with \p Config. Asserts if one is already
  /// live.
  static void init(const RuntimeConfig &Config = RuntimeConfig());

  /// Destroys the global runtime. Outstanding registered threads must have
  /// deregistered (except the calling thread, which is deregistered
  /// implicitly).
  static void shutdown();

  /// \returns the live global runtime; asserts if none.
  static Runtime &get();

  static bool isLive();

  //===--------------------------------------------------------------------===
  // Threads
  //===--------------------------------------------------------------------===

  /// \returns this thread's state, registering it on first use.
  ThreadState &currentThread();

  /// Deregisters the calling thread: clears its shadow bits and releases
  /// its id for reuse.
  void deregisterCurrentThread();

  //===--------------------------------------------------------------------===
  // Dynamic-mode checks
  //===--------------------------------------------------------------------===

  // The disabled fast path is one predicted branch, profiling included:
  // ThreadState::Prof is only tested on the cold observed path, which
  // is also where profiled runs time the shadow check (rt/Profile.h).
  bool checkRead(const void *Addr, size_t Size, const AccessSite *Site) {
    ThreadState &T = currentThread();
    if (Config.Obs) [[unlikely]]
      return observedCheckRead(T, Addr, Size, Site);
    return Shadow->checkRead(Addr, Size, T, Site);
  }
  bool checkWrite(const void *Addr, size_t Size, const AccessSite *Site) {
    ThreadState &T = currentThread();
    if (Config.Obs) [[unlikely]]
      return observedCheckWrite(T, Addr, Size, Site);
    return Shadow->checkWrite(Addr, Size, T, Site);
  }

  //===--------------------------------------------------------------------===
  // Locked-mode checks
  //===--------------------------------------------------------------------===

  /// Records that the current thread acquired the lock at \p Lock.
  void onLockAcquire(const void *Lock);

  /// Records that the current thread released the lock at \p Lock.
  void onLockRelease(const void *Lock);

  /// True when per-site cost profiling is on (sharc::Mutex switches to
  /// its timed acquire path). Profiling requires an obs sink to drain
  /// into; without one the flag is ignored.
  bool profilingEnabled() const { return Config.Profile && Config.Obs; }

  /// Profiling-only: announces that the current thread is about to
  /// block on \p Lock (publishes a LockWait event for wait slices in
  /// the Chrome export; Extra carries the acquirer's line).
  void onLockWait(const void *Lock, const AccessSite *Site = nullptr);

  /// onLockAcquire plus contention accounting: \p WaitCycles of TSC
  /// time was spent before the lock was obtained, \p Site names the
  /// acquirer (null falls back to the lock's declaration site, if the
  /// caller tracked one).
  void onLockAcquireProfiled(const void *Lock, const AccessSite *Site,
                             uint64_t WaitCycles, bool Contended);
  void onSharedLockAcquireProfiled(const void *Lock, const AccessSite *Site,
                                   uint64_t WaitCycles, bool Contended);

  /// \returns true if the current thread holds \p Lock.
  bool holdsLock(const void *Lock);

  //===--------------------------------------------------------------------===
  // Stall watchdog (sharc-guard, DESIGN.md §12)
  //===--------------------------------------------------------------------===

  /// Non-zero when timed lock acquisition / cast-drain waits are armed;
  /// sharc::Mutex switches to its guarded acquire path.
  uint64_t watchdogMillis() const { return Config.Guard.WatchdogMillis; }

  /// Records the current thread as the holder of \p Lock with its
  /// acquisition site, so a later stall report can name it. Called only
  /// from the watchdog-armed acquire path (cold).
  void noteLockHolder(const void *Lock, const AccessSite *Site);

  /// Files a StallTimeout report for a lock wait that exceeded the
  /// watchdog budget: who = the waiter at \p Site, last = the recorded
  /// holder and its acquisition site. Applies the violation policy
  /// (under Policy::Abort this does not return).
  void reportLockStall(const void *Lock, const AccessSite *Site);

  /// Same, for a sharing-cast refcount drain that never reached zero.
  void reportCastStall(const void *Obj, const AccessSite *Site,
                       int64_t RemainingCount);

  /// Checks that \p Lock is held for an access to \p Addr, filing a
  /// LockViolation report if not.
  bool checkLockHeld(const void *Lock, const void *Addr,
                     const AccessSite *Site);

  //===--------------------------------------------------------------------===
  // Reader-writer locked mode (the Section 7 "more support for locks"
  // extension): rwlocked(L) cells are readable under a shared or
  // exclusive hold of L and writable only under an exclusive hold.
  //===--------------------------------------------------------------------===

  void onSharedLockAcquire(const void *Lock);
  void onSharedLockRelease(const void *Lock);
  bool holdsLockShared(const void *Lock);

  /// Read intent on an rwlocked cell: shared or exclusive hold suffices.
  bool checkRwLockHeldForRead(const void *Lock, const void *Addr,
                              const AccessSite *Site);
  /// Write intent on an rwlocked cell: an exclusive hold is required.
  bool checkRwLockHeldForWrite(const void *Lock, const void *Addr,
                               const AccessSite *Site);

  //===--------------------------------------------------------------------===
  // Reference counting and sharing casts
  //===--------------------------------------------------------------------===

  /// Initializes a counted slot to null (no previous value accounted).
  void rcInitSlot(void **Slot) {
    RefCountEngine::initSlot(reinterpret_cast<uintptr_t *>(Slot));
  }

  /// Counted pointer store: *Slot = Value with RC bookkeeping. \p Site
  /// attributes the barrier cost when profiling; null is fine.
  void rcStore(void **Slot, void *Value, const AccessSite *Site = nullptr) {
    ThreadState &T = currentThread();
    if (T.Prof) [[unlikely]] {
      rcStoreProfiled(Slot, Value, Site, T);
      return;
    }
    Rc->storePtr(reinterpret_cast<uintptr_t *>(Slot),
                 reinterpret_cast<uintptr_t>(Value), T);
  }

  /// Counted pointer load.
  void *rcLoad(void *const *Slot) const {
    return reinterpret_cast<void *>(RefCountEngine::loadPtr(
        reinterpret_cast<const uintptr_t *>(Slot)));
  }

  /// \returns the number of counted references to \p Value; performs a
  /// collection first under the Levanoni-Petrank engine.
  int64_t refCount(const void *Value) {
    return Rc->getRefCount(reinterpret_cast<uintptr_t>(Value),
                           currentThread());
  }

  /// The sharing cast (Figure 7): nulls *Slot, then checks that no other
  /// counted reference to the object remains; on failure files a CastError
  /// report. On success clears the object's reader/writer sets so past
  /// accesses under the old mode are forgotten. \p ObjSize may be 0 for
  /// sharc-heap objects (looked up from the allocation header).
  /// \returns the object pointer (the cast's value), or the pointer
  /// unchanged with a report filed if the check fails.
  void *scast(void **Slot, size_t ObjSize, const AccessSite *Site);

  /// The sole-reference check of a sharing cast, for sources that are
  /// uncounted locals (the type system covers locals; the runtime only
  /// counts stored references). The caller must already have nulled its
  /// local. \returns true if no counted reference to \p Obj remains; files
  /// a CastError report otherwise. On success clears the object's
  /// reader/writer sets.
  bool checkCast(void *Obj, size_t ObjSize, const AccessSite *Site);

  //===--------------------------------------------------------------------===
  // Heap
  //===--------------------------------------------------------------------===

  void *allocate(size_t Size);
  void deallocate(void *Ptr);
  size_t allocationSize(const void *Ptr) const {
    return TheHeap->allocationSize(Ptr);
  }

  //===--------------------------------------------------------------------===
  // Introspection
  //===--------------------------------------------------------------------===

  const RuntimeConfig &getConfig() const { return Config; }
  StatsSnapshot getStats();
  ReportSink &getReports() { return Sink; }
  ShadowMemory &getShadow() { return *Shadow; }
  RefCountEngine &getRc() { return *Rc; }
  ThreadRegistry &getRegistry() { return Registry; }

  /// sharc-live (DESIGN.md §13): one coherent snapshot for the stats
  /// endpoint. Safe to call from the server thread — it never registers
  /// the caller as a checked thread and never publishes to the obs sink
  /// (scrapes must not perturb the trace under observation).
  live::LiveSnapshot liveSnapshot();

  /// The endpoint, when Config.StatsAddr / SHARC_STATS_ADDR armed one
  /// at init; null otherwise. Tests read boundAddress() off it.
  live::StatsServer *getLiveServer() { return LiveServer.get(); }

private:
  explicit Runtime(const RuntimeConfig &Config);
  ~Runtime();

  /// Out-of-line cold path: forwards one access event to Config.Obs.
  void publishAccess(obs::EventKind K, const void *Addr, size_t Size,
                     unsigned Tid);
  /// Same, for lock transitions and sharing casts.
  void publishEvent(obs::EventKind K, const void *Addr, int64_t Value);

  /// Cold observed paths: profiling (when ThreadState::Prof is live)
  /// plus event publication, in program order.
  bool observedCheckRead(ThreadState &T, const void *Addr, size_t Size,
                         const AccessSite *Site);
  bool observedCheckWrite(ThreadState &T, const void *Addr, size_t Size,
                          const AccessSite *Site);
  void rcStoreProfiled(void **Slot, void *Value, const AccessSite *Site,
                       ThreadState &T);
  bool checkLockHeldImpl(ThreadState &TS, const void *Lock, const void *Addr,
                         const AccessSite *Site);
  bool checkRwLockHeldForReadImpl(ThreadState &TS, const void *Lock,
                                  const void *Addr, const AccessSite *Site);
  bool checkCastImpl(ThreadState &TS, void *Obj, size_t ObjSize,
                     const AccessSite *Site);

  /// Quarantine bookkeeping for lock-check violations (shadow-granule
  /// quarantine lives in ShadowMemory). Both are consulted only under
  /// Policy::Quarantine, behind one predictable config-byte compare.
  bool isAddrQuarantined(const void *Addr);
  void quarantineAddr(const void *Addr);

  /// Builds a snapshot from \p Counts (ThreadRegistry::sumCounters), the
  /// sink's per-kind totals and the subsystems' footprints, without the
  /// obs stats-sample side effect of getStats() — what the scrape path
  /// uses so scraping never perturbs the trace.
  StatsSnapshot computeStats(const CounterTotals &Counts);

  RuntimeConfig Config;
  ReportSink Sink;
  ThreadRegistry Registry;
  std::unique_ptr<ShadowMemory> Shadow;
  std::unique_ptr<RefCountEngine> Rc;
  std::unique_ptr<Heap> TheHeap;
  /// Guard-layer cold state: quarantined lock-check addresses and, when
  /// the watchdog is armed, who holds which lock (for stall reports).
  std::mutex GuardMutex;
  std::unordered_set<uintptr_t> QuarantinedAddrs;
  struct LockHolderInfo {
    unsigned Tid = 0;
    const AccessSite *Site = nullptr;
  };
  std::map<uintptr_t, LockHolderInfo> LockHolders;
  /// Monotonically increasing instance id; lets the thread-local state
  /// cache detect a runtime that was shut down and re-initialized.
  uint64_t Generation;
  /// Declared last so it is destroyed first: the server thread reads
  /// the members above via liveSnapshot() until stop() joins it.
  std::unique_ptr<live::StatsServer> LiveServer;
};

/// RAII registration of the calling thread with the global runtime.
class ScopedThreadRegistration {
public:
  ScopedThreadRegistration() { (void)Runtime::get().currentThread(); }
  ~ScopedThreadRegistration() {
    if (Runtime::isLive())
      Runtime::get().deregisterCurrentThread();
  }
  ScopedThreadRegistration(const ScopedThreadRegistration &) = delete;
  ScopedThreadRegistration &
  operator=(const ScopedThreadRegistration &) = delete;
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_RUNTIME_H
