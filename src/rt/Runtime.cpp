//===-- rt/Runtime.cpp ----------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/Runtime.h"

#include "obs/Sink.h"
#include "support/NumericArg.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace sharc::rt;

namespace {

/// The global runtime instance and its generation counter.
Runtime *GlobalRuntime = nullptr;
uint64_t NextGeneration = 1;

/// Cached per-thread registration: valid only while Generation matches the
/// live runtime's.
struct ThreadCache {
  uint64_t Generation = 0;
  ThreadState *State = nullptr;
};
thread_local ThreadCache TlsCache;

/// Deferred-free backlog size that forces a collection to release memory.
constexpr size_t DeferredFreeThreshold = 1u << 14;

} // namespace

// Private constructor/destructor need access to members; defined here.
Runtime::Runtime(const RuntimeConfig &Config)
    : Config(Config), Sink(Config.MaxReports), Registry(Config.maxThreads()),
      Generation(NextGeneration++) {
  // Failure-semantics resolution (DESIGN.md §12): SHARC_POLICY overrides
  // the configured guard policy so deployed binaries can switch policies
  // without a rebuild, and SHARC_FAULT is parsed once so fault injection
  // reaches every subsystem.
  guard::policyFromEnv(this->Config.Guard.OnViolation);
  // An empty SHARC_WATCHDOG_MS counts as unset, like SHARC_FAULT. The cap
  // keeps the watchdog's deadlines from overflowing.
  uint64_t &Watchdog = this->Config.Guard.WatchdogMillis;
  const auto Cap = static_cast<unsigned long long>(guard::MaxWatchdogMillis);
  if (const char *Env = std::getenv("SHARC_WATCHDOG_MS");
      Env && *Env && (!parseUnsigned(Env, Watchdog) || Watchdog > Cap))
    guard::fatalInternal("bad SHARC_WATCHDOG_MS '%s': expects 0..%llu", Env,
                         Cap);
  if (Watchdog > Cap)
    guard::fatalInternal("GuardConfig::WatchdogMillis %llu is over %llu",
                         static_cast<unsigned long long>(Watchdog), Cap);
  guard::initFaultsFromEnv();
  Sink.setMaxPerKind(this->Config.Guard.MaxReportsPerKind);
  Shadow = std::make_unique<ShadowMemory>(this->Config, Sink, Registry);
  Rc = std::make_unique<RefCountEngine>(this->Config, Registry);
  TheHeap = std::make_unique<Heap>(this->Config, *Shadow, Sink);
  Rc->setPostCollectHook(
      [](void *Ctx) { static_cast<Heap *>(Ctx)->releaseDeferred(); },
      TheHeap.get());
  // Conflict reports reach the obs stream through the ReportSink, so
  // every detector (shadow memory, lock checks, cast checks) publishes
  // without knowing about observability.
  Sink.setObs(this->Config.Obs);
  // sharc-live (DESIGN.md §13): arm the in-process stats endpoint when
  // requested. SHARC_STATS_ADDR overrides the config field so deployed
  // binaries can be inspected without a rebuild. When neither is set
  // no thread or socket exists and every publish path stays cold.
  if (const char *Env = std::getenv("SHARC_STATS_ADDR"))
    this->Config.StatsAddr = Env;
  if (!this->Config.StatsAddr.empty()) {
    LiveServer = std::make_unique<live::StatsServer>();
    std::string Error;
    if (!LiveServer->start(
            this->Config.StatsAddr, [this] { return liveSnapshot(); },
            Error)) {
      std::fprintf(stderr, "sharc: stats endpoint disabled: %s\n",
                   Error.c_str());
      LiveServer.reset();
    }
  }
}

void Runtime::publishAccess(obs::EventKind K, const void *Addr, size_t Size,
                            unsigned Tid) {
  obs::Event Ev;
  Ev.K = K;
  Ev.Tid = Tid;
  Ev.Addr = reinterpret_cast<uintptr_t>(Addr);
  Ev.Value = static_cast<int64_t>(Size);
  Config.Obs->event(Ev);
}

void Runtime::publishEvent(obs::EventKind K, const void *Addr,
                           int64_t Value) {
  obs::Event Ev;
  Ev.K = K;
  Ev.Tid = currentThread().Tid;
  Ev.Addr = reinterpret_cast<uintptr_t>(Addr);
  Ev.Value = Value;
  Config.Obs->event(Ev);
}

Runtime::~Runtime() {
  // Quiesce the stats endpoint before any subsystem it snapshots goes
  // away (its unique_ptr would also be destroyed first, but stopping
  // here keeps the invariant explicit).
  if (LiveServer)
    LiveServer->stop();
  // Threads that registered but never deregistered (tests cycling the
  // runtime, detached workers) still owe their profile records.
  if (Config.Obs)
    Registry.forEachState([&](ThreadState &S) {
      if (S.Prof) {
        S.Prof->drainTo(*Config.Obs, S.Tid);
        S.Prof.reset();
      }
    });
}

bool Runtime::observedCheckRead(ThreadState &T, const void *Addr, size_t Size,
                                const AccessSite *Site) {
  if (T.Prof) [[unlikely]] {
    uint64_t T0 = T.Prof->begin();
    bool Ok = Shadow->checkRead(Addr, Size, T, Site);
    T.Prof->commit(Site, obs::CheckKind::DynamicRead, Size ? Size : 1, T0);
    publishAccess(obs::EventKind::Read, Addr, Size, T.Tid);
    return Ok;
  }
  bool Ok = Shadow->checkRead(Addr, Size, T, Site);
  publishAccess(obs::EventKind::Read, Addr, Size, T.Tid);
  return Ok;
}

bool Runtime::observedCheckWrite(ThreadState &T, const void *Addr, size_t Size,
                                 const AccessSite *Site) {
  if (T.Prof) [[unlikely]] {
    uint64_t T0 = T.Prof->begin();
    bool Ok = Shadow->checkWrite(Addr, Size, T, Site);
    T.Prof->commit(Site, obs::CheckKind::DynamicWrite, Size ? Size : 1, T0);
    publishAccess(obs::EventKind::Write, Addr, Size, T.Tid);
    return Ok;
  }
  bool Ok = Shadow->checkWrite(Addr, Size, T, Site);
  publishAccess(obs::EventKind::Write, Addr, Size, T.Tid);
  return Ok;
}

void Runtime::rcStoreProfiled(void **Slot, void *Value, const AccessSite *Site,
                              ThreadState &T) {
  // RcMode::None never counts an RC barrier, so profiling nothing here
  // keeps profile totals exactly equal to the final StatsSnapshot.
  if (Config.Rc == RcMode::None) {
    Rc->storePtr(reinterpret_cast<uintptr_t *>(Slot),
                 reinterpret_cast<uintptr_t>(Value), T);
    return;
  }
  uint64_t T0 = T.Prof->begin();
  Rc->storePtr(reinterpret_cast<uintptr_t *>(Slot),
               reinterpret_cast<uintptr_t>(Value), T);
  T.Prof->commit(Site, obs::CheckKind::RcBarrier, sizeof(void *), T0);
}

void Runtime::init(const RuntimeConfig &Config) {
  assert(!GlobalRuntime && "runtime already initialized");
  GlobalRuntime = new Runtime(Config);
}

void Runtime::shutdown() {
  assert(GlobalRuntime && "no live runtime");
  // Implicitly deregister the calling thread if it is registered.
  if (TlsCache.Generation == GlobalRuntime->Generation && TlsCache.State)
    GlobalRuntime->deregisterCurrentThread();
  delete GlobalRuntime;
  GlobalRuntime = nullptr;
}

Runtime &Runtime::get() {
  assert(GlobalRuntime && "Runtime::init() has not been called");
  return *GlobalRuntime;
}

bool Runtime::isLive() { return GlobalRuntime != nullptr; }

ThreadState &Runtime::currentThread() {
  if (TlsCache.Generation == Generation && TlsCache.State)
    return *TlsCache.State;
  ThreadState *State = Registry.registerThread();
  if (profilingEnabled())
    State->Prof = std::make_unique<ThreadProfile>(Config.ProfileSampleShift);
  TlsCache.Generation = Generation;
  TlsCache.State = State;
  return *State;
}

void Runtime::deregisterCurrentThread() {
  if (TlsCache.Generation != Generation || !TlsCache.State)
    return;
  ThreadState *State = TlsCache.State;
  // Retiring is the drain point for the thread's profile: its records
  // land in the obs stream after all of its queued events.
  if (State->Prof && Config.Obs) {
    State->Prof->drainTo(*Config.Obs, State->Tid);
    State->Prof.reset();
  }
  // Clear this thread's reader/writer bits so a non-overlapping successor
  // reusing the id starts clean.
  Shadow->clearThreadBits(*State);
  State->HeldLocks.clear();
  State->HeldSharedLocks.clear();
  Registry.deregisterThread(State);
  TlsCache.State = nullptr;
  TlsCache.Generation = 0;
}

void Runtime::onLockAcquire(const void *Lock) {
  currentThread().HeldLocks.push_back(Lock);
  if (Config.Obs) [[unlikely]]
    publishEvent(obs::EventKind::LockAcquire, Lock, 0);
}

void Runtime::onLockWait(const void *Lock, const AccessSite *Site) {
  if (Config.Obs) [[unlikely]] {
    obs::Event Ev;
    Ev.K = obs::EventKind::LockWait;
    Ev.Tid = currentThread().Tid;
    Ev.Addr = reinterpret_cast<uintptr_t>(Lock);
    Ev.Extra = Site && Site->Line > 0 ? uint64_t(Site->Line) : 0;
    Config.Obs->event(Ev);
  }
}

void Runtime::onLockAcquireProfiled(const void *Lock, const AccessSite *Site,
                                    uint64_t WaitCycles, bool Contended) {
  ThreadState &TS = currentThread();
  TS.HeldLocks.push_back(Lock);
  if (TS.Prof) {
    TS.Prof->lockAcquired(Lock, Site, WaitCycles, Contended);
    TS.Counters.bump(Counter::LockAcquires);
    TS.Counters.bump(Counter::LockContended, Contended);
    TS.Counters.bump(Counter::LockWaitUnits, WaitCycles);
  }
  if (Config.Obs) [[unlikely]]
    publishEvent(obs::EventKind::LockAcquire, Lock, 0);
}

void Runtime::onLockRelease(const void *Lock) {
  ThreadState &TS = currentThread();
  if (TS.Prof) [[unlikely]]
    TS.Counters.bump(Counter::LockHoldUnits, TS.Prof->lockReleased(Lock));
  if (Config.Guard.WatchdogMillis != 0) [[unlikely]] {
    std::lock_guard<std::mutex> G(GuardMutex);
    LockHolders.erase(reinterpret_cast<uintptr_t>(Lock));
  }
  auto It = std::find(TS.HeldLocks.rbegin(), TS.HeldLocks.rend(), Lock);
  assert(It != TS.HeldLocks.rend() && "releasing a lock that is not held");
  TS.HeldLocks.erase(std::next(It).base());
  if (Config.Obs) [[unlikely]]
    publishEvent(obs::EventKind::LockRelease, Lock, 0);
}

bool Runtime::holdsLock(const void *Lock) {
  ThreadState &TS = currentThread();
  return std::find(TS.HeldLocks.begin(), TS.HeldLocks.end(), Lock) !=
         TS.HeldLocks.end();
}

//===----------------------------------------------------------------------===//
// Stall watchdog and quarantine (sharc-guard, DESIGN.md §12)
//===----------------------------------------------------------------------===//

void Runtime::noteLockHolder(const void *Lock, const AccessSite *Site) {
  unsigned Tid = currentThread().Tid;
  std::lock_guard<std::mutex> G(GuardMutex);
  LockHolders[reinterpret_cast<uintptr_t>(Lock)] = LockHolderInfo{Tid, Site};
}

void Runtime::reportLockStall(const void *Lock, const AccessSite *Site) {
  LockHolderInfo Holder;
  {
    std::lock_guard<std::mutex> G(GuardMutex);
    auto It = LockHolders.find(reinterpret_cast<uintptr_t>(Lock));
    if (It != LockHolders.end())
      Holder = It->second;
  }
  if (Holder.Tid == 0) {
    // The holder acquired before the watchdog was armed (or through an
    // unguarded path): attribute via the per-thread lock logs.
    Registry.forEachState([&](ThreadState &S) {
      if (std::find(S.HeldLocks.begin(), S.HeldLocks.end(), Lock) !=
          S.HeldLocks.end())
        Holder.Tid = S.Tid;
    });
  }
  // The wait slice feeds the contention tables. A profiled acquire
  // published it when its wait began.
  if (!profilingEnabled())
    onLockWait(Lock, Site);
  ConflictReport Report;
  Report.Kind = ReportKind::StallTimeout;
  Report.Address = reinterpret_cast<uintptr_t>(Lock);
  Report.WhoTid = currentThread().Tid;
  Report.WhoSite = Site;
  Report.LastTid = Holder.Tid;
  Report.LastSite = Holder.Site;
  // The verdict is moot for a stall — the waiter keeps waiting either
  // way — but Policy::Abort still dies here, report printed.
  (void)guard::onViolation(Config.Guard, Report, Sink);
}

void Runtime::reportCastStall(const void *Obj, const AccessSite *Site,
                              int64_t RemainingCount) {
  ConflictReport Report;
  Report.Kind = ReportKind::StallTimeout;
  Report.Address = reinterpret_cast<uintptr_t>(Obj);
  Report.WhoTid = currentThread().Tid;
  Report.WhoSite = Site;
  Report.LastTid = static_cast<unsigned>(RemainingCount);
  (void)guard::onViolation(Config.Guard, Report, Sink);
}

bool Runtime::isAddrQuarantined(const void *Addr) {
  std::lock_guard<std::mutex> G(GuardMutex);
  return QuarantinedAddrs.count(reinterpret_cast<uintptr_t>(Addr)) != 0;
}

void Runtime::quarantineAddr(const void *Addr) {
  std::lock_guard<std::mutex> G(GuardMutex);
  QuarantinedAddrs.insert(reinterpret_cast<uintptr_t>(Addr));
}

bool Runtime::checkLockHeld(const void *Lock, const void *Addr,
                            const AccessSite *Site) {
  ThreadState &TS = currentThread();
  if (TS.Prof) [[unlikely]] {
    uint64_t T0 = TS.Prof->begin();
    bool Ok = checkLockHeldImpl(TS, Lock, Addr, Site);
    TS.Prof->commit(Site, obs::CheckKind::LockCheck, 0, T0);
    return Ok;
  }
  return checkLockHeldImpl(TS, Lock, Addr, Site);
}

bool Runtime::checkLockHeldImpl(ThreadState &TS, const void *Lock,
                                const void *Addr, const AccessSite *Site) {
  TS.Counters.bump(Counter::LockChecks);
  if (holdsLock(Lock))
    return true;
  if (Config.Guard.OnViolation == guard::Policy::Quarantine &&
      isAddrQuarantined(Addr))
    return true;
  ConflictReport Report;
  Report.Kind = ReportKind::LockViolation;
  Report.Address = reinterpret_cast<uintptr_t>(Addr);
  Report.WhoTid = TS.Tid;
  Report.WhoSite = Site;
  if (guard::onViolation(Config.Guard, Report, Sink) ==
      guard::Verdict::Quarantine)
    quarantineAddr(Addr);
  return false;
}

void Runtime::onSharedLockAcquire(const void *Lock) {
  currentThread().HeldSharedLocks.push_back(Lock);
  if (Config.Obs) [[unlikely]]
    publishEvent(obs::EventKind::SharedLockAcquire, Lock, 0);
}

void Runtime::onSharedLockAcquireProfiled(const void *Lock,
                                          const AccessSite *Site,
                                          uint64_t WaitCycles,
                                          bool Contended) {
  ThreadState &TS = currentThread();
  TS.HeldSharedLocks.push_back(Lock);
  if (TS.Prof) {
    TS.Prof->lockAcquired(Lock, Site, WaitCycles, Contended);
    TS.Counters.bump(Counter::LockAcquires);
    TS.Counters.bump(Counter::LockContended, Contended);
    TS.Counters.bump(Counter::LockWaitUnits, WaitCycles);
  }
  if (Config.Obs) [[unlikely]]
    publishEvent(obs::EventKind::SharedLockAcquire, Lock, 0);
}

void Runtime::onSharedLockRelease(const void *Lock) {
  ThreadState &TS = currentThread();
  if (TS.Prof) [[unlikely]]
    TS.Counters.bump(Counter::LockHoldUnits, TS.Prof->lockReleased(Lock));
  auto It = std::find(TS.HeldSharedLocks.rbegin(), TS.HeldSharedLocks.rend(),
                      Lock);
  assert(It != TS.HeldSharedLocks.rend() &&
         "releasing a shared lock that is not held");
  TS.HeldSharedLocks.erase(std::next(It).base());
  if (Config.Obs) [[unlikely]]
    publishEvent(obs::EventKind::SharedLockRelease, Lock, 0);
}

bool Runtime::holdsLockShared(const void *Lock) {
  ThreadState &TS = currentThread();
  return std::find(TS.HeldSharedLocks.begin(), TS.HeldSharedLocks.end(),
                   Lock) != TS.HeldSharedLocks.end();
}

bool Runtime::checkRwLockHeldForRead(const void *Lock, const void *Addr,
                                     const AccessSite *Site) {
  ThreadState &TS = currentThread();
  if (TS.Prof) [[unlikely]] {
    uint64_t T0 = TS.Prof->begin();
    bool Ok = checkRwLockHeldForReadImpl(TS, Lock, Addr, Site);
    TS.Prof->commit(Site, obs::CheckKind::LockCheck, 0, T0);
    return Ok;
  }
  return checkRwLockHeldForReadImpl(TS, Lock, Addr, Site);
}

bool Runtime::checkRwLockHeldForReadImpl(ThreadState &TS, const void *Lock,
                                         const void *Addr,
                                         const AccessSite *Site) {
  TS.Counters.bump(Counter::LockChecks);
  if (holdsLock(Lock) || holdsLockShared(Lock))
    return true;
  if (Config.Guard.OnViolation == guard::Policy::Quarantine &&
      isAddrQuarantined(Addr))
    return true;
  ConflictReport Report;
  Report.Kind = ReportKind::LockViolation;
  Report.Address = reinterpret_cast<uintptr_t>(Addr);
  Report.WhoTid = TS.Tid;
  Report.WhoSite = Site;
  if (guard::onViolation(Config.Guard, Report, Sink) ==
      guard::Verdict::Quarantine)
    quarantineAddr(Addr);
  return false;
}

bool Runtime::checkRwLockHeldForWrite(const void *Lock, const void *Addr,
                                      const AccessSite *Site) {
  // A shared hold does not license writes.
  return checkLockHeld(Lock, Addr, Site);
}

void *Runtime::scast(void **Slot, size_t ObjSize, const AccessSite *Site) {
  ThreadState &TS = currentThread();
  void *Obj = rcLoad(Slot);
  // Null-out the source so no access path with the old sharing mode
  // remains (Figure 7, line 2). The store goes through the RC barrier,
  // so profiled runs attribute it like any other counted store.
  if (TS.Prof) [[unlikely]]
    rcStoreProfiled(Slot, nullptr, Site, TS);
  else
    Rc->storePtr(reinterpret_cast<uintptr_t *>(Slot), 0, TS);
  if (!Obj)
    return nullptr;
  checkCast(Obj, ObjSize, Site);
  return Obj;
}

bool Runtime::checkCast(void *Obj, size_t ObjSize, const AccessSite *Site) {
  ThreadState &TS = currentThread();
  if (TS.Prof) [[unlikely]] {
    uint64_t T0 = TS.Prof->begin();
    bool Ok = checkCastImpl(TS, Obj, ObjSize, Site);
    TS.Prof->commit(Site, obs::CheckKind::SharingCast, 0, T0);
    return Ok;
  }
  return checkCastImpl(TS, Obj, ObjSize, Site);
}

bool Runtime::checkCastImpl(ThreadState &TS, void *Obj, size_t ObjSize,
                            const AccessSite *Site) {
  TS.Counters.bump(Counter::SharingCasts);
  if (!Obj)
    return true;
  // After the source has been nulled and accounted, any remaining counted
  // reference means the object is reachable under its old mode: reject.
  int64_t Count = Rc->getRefCount(reinterpret_cast<uintptr_t>(Obj), TS);
  // Watchdog: a transient handoff may still hold a counted reference in
  // another thread. Poll the count down until the drain budget expires,
  // then file a stall report before the cast verdict (DESIGN.md §12).
  if (Count > 0 && Config.Rc != RcMode::None &&
      Config.Guard.WatchdogMillis != 0) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(Config.Guard.WatchdogMillis);
    while (Count > 0 && std::chrono::steady_clock::now() < Deadline) {
      std::this_thread::yield();
      Count = Rc->getRefCount(reinterpret_cast<uintptr_t>(Obj), TS);
    }
    if (Count > 0)
      reportCastStall(Obj, Site, Count);
  }
  if (Config.Obs) [[unlikely]]
    publishEvent(obs::EventKind::SharingCast, Obj, Count);
  if (Count > 0 && Config.Rc != RcMode::None) {
    ConflictReport Report;
    Report.Kind = ReportKind::CastError;
    Report.Address = reinterpret_cast<uintptr_t>(Obj);
    Report.WhoTid = TS.Tid;
    Report.WhoSite = Site;
    if (guard::onViolation(Config.Guard, Report, Sink) ==
        guard::Verdict::Quarantine) {
      // Demote: treat the object as racy-equivalent by forgetting its
      // access history, exactly as a successful cast would.
      size_t Size = ObjSize;
      if (Size == 0 && TheHeap->isSharcObject(Obj))
        Size = TheHeap->allocationSize(Obj);
      if (Size != 0)
        Shadow->clearRange(Obj, Size);
    }
    return false;
  }
  // The cast succeeded: clear the object's reader/writer history ("past
  // accesses by other threads no longer constitute unintended sharing").
  size_t Size = ObjSize;
  if (Size == 0 && TheHeap->isSharcObject(Obj))
    Size = TheHeap->allocationSize(Obj);
  if (Size != 0)
    Shadow->clearRange(Obj, Size);
  return true;
}

void *Runtime::allocate(size_t Size) { return TheHeap->allocate(Size); }

void Runtime::deallocate(void *Ptr) {
  TheHeap->deallocate(Ptr);
  // Bound the deferred-free backlog: a collection releases it.
  if (TheHeap->getNumDeferred() >= DeferredFreeThreshold) {
    if (Config.Rc == RcMode::LevanoniPetrank)
      Rc->collect(currentThread());
    else
      TheHeap->releaseDeferred();
  }
}

StatsSnapshot Runtime::computeStats(const CounterTotals &Counts) {
  StatsSnapshot S;
  S.DynamicReads = Counts[Counter::DynamicReads];
  S.DynamicWrites = Counts[Counter::DynamicWrites];
  S.DynamicReadBytes = Counts[Counter::DynamicReadBytes];
  S.DynamicWriteBytes = Counts[Counter::DynamicWriteBytes];
  S.LockChecks = Counts[Counter::LockChecks];
  S.RcBarriers = Counts[Counter::RcBarriers];
  S.SharingCasts = Counts[Counter::SharingCasts];
  S.Collections = Rc->getNumCollections();
  S.ReadConflicts = Sink.getTotalOfKind(ReportKind::ReadConflict);
  S.WriteConflicts = Sink.getTotalOfKind(ReportKind::WriteConflict);
  S.LockViolations = Sink.getTotalOfKind(ReportKind::LockViolation);
  S.CastErrors = Sink.getTotalOfKind(ReportKind::CastError);
  S.ShadowBytes = Shadow->getShadowBytes();
  S.RcTableBytes = Rc->getTable().memoryFootprint();
  Registry.forEachState([&](ThreadState &T) { S.LogBytes += T.logBytes(); });
  S.HeapPayloadBytes = TheHeap->getPayloadBytes();
  S.PeakHeapPayloadBytes = TheHeap->getPeakPayloadBytes();
  return S;
}

StatsSnapshot Runtime::getStats() {
  StatsSnapshot Snapshot = computeStats(Registry.sumCounters());
  // Every stats poll doubles as a periodic sample on the event stream.
  if (Config.Obs) [[unlikely]]
    Config.Obs->stats(Snapshot);
  return Snapshot;
}

sharc::live::LiveSnapshot Runtime::liveSnapshot() {
  sharc::live::LiveSnapshot S;
  CounterTotals Counts = Registry.sumCounters();
  S.Stats = computeStats(Counts);
  S.TotalViolations = Sink.getTotalViolations();
  S.Policy = Config.Guard.OnViolation;
  S.WatchdogMillis = Config.Guard.WatchdogMillis;
  S.StallReports = Sink.getTotalOfKind(ReportKind::StallTimeout);
  S.LockAcquires = Counts[Counter::LockAcquires];
  S.LockContended = Counts[Counter::LockContended];
  S.LockWaitUnits = Counts[Counter::LockWaitUnits];
  S.LockHoldUnits = Counts[Counter::LockHoldUnits];
  S.CastDrainQueueDepth = TheHeap->getNumDeferred();
  S.ThreadsLive = Registry.getNumLive();
  S.ThreadsSpawned = Registry.getNumEverRegistered();
  S.Steps = 0; // Native execution has no scheduler-step clock.
  S.Running = true;
  return S;
}
