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

/// The next runtime's generation; 0 is never one.
uint64_t NextGeneration = 1;

/// Deferred-free backlog size that forces a collection to release memory.
constexpr size_t DeferredFreeThreshold = 1u << 14;

/// Runs \p Check and, when \p T profiles, charges it to \p Site as one
/// operation of \p Kind over \p Bytes (rt/Profile.h).
template <typename FnT>
bool profiled(ThreadState &T, const AccessSite *Site,
              sharc::obs::CheckKind Kind, uint64_t Bytes, FnT Check) {
  ThreadProfile *Prof = T.Prof.get();
  uint64_t T0 = Prof ? Prof->begin() : 0;
  bool Ok = Check();
  if (Prof)
    Prof->commit(Site, Kind, Bytes, T0);
  return Ok;
}

} // namespace

// Private constructor/destructor need access to members; defined here.
Runtime::Runtime(const RuntimeConfig &Config)
    : Config(Config), Sink(MaxRuntimeReports), Registry(Config.maxThreads()),
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

template <bool IsWrite>
bool Runtime::observedCheck(ThreadState &T, const void *Addr, size_t Size,
                            const AccessSite *Site) {
  constexpr auto Kind =
      IsWrite ? obs::CheckKind::DynamicWrite : obs::CheckKind::DynamicRead;
  bool Ok = profiled(T, Site, Kind, Size ? Size : 1, [&] {
    return IsWrite ? Shadow->checkWrite(Addr, Size, T, Site)
                   : Shadow->checkRead(Addr, Size, T, Site);
  });
  publishAccess(IsWrite ? obs::EventKind::Write : obs::EventKind::Read, Addr,
                Size, T.Tid);
  return Ok;
}
template bool Runtime::observedCheck<false>(ThreadState &, const void *,
                                            size_t, const AccessSite *);
template bool Runtime::observedCheck<true>(ThreadState &, const void *,
                                           size_t, const AccessSite *);

void Runtime::rcStoreProfiled(void **Slot, void *Value, const AccessSite *Site,
                              ThreadState &T) {
  auto Store = [&] {
    Rc->storePtr(reinterpret_cast<uintptr_t *>(Slot),
                 reinterpret_cast<uintptr_t>(Value), T);
    return true;
  };
  // RcMode::None never counts an RC barrier, so profiling nothing here
  // keeps profile totals exactly equal to the final StatsSnapshot.
  if (Config.Rc == RcMode::None)
    Store();
  else
    profiled(T, Site, obs::CheckKind::RcBarrier, sizeof(void *), Store);
}

void Runtime::init(const RuntimeConfig &Config) {
  assert(!Global && "runtime already initialized");
  Global = new Runtime(Config);
}

void Runtime::shutdown() {
  assert(Global && "no live runtime");
  // Implicitly deregister the calling thread if it is registered.
  if (TlsCache.Generation == Global->Generation)
    Global->deregisterCurrentThread();
  delete Global;
  Global = nullptr;
}

ThreadState &Runtime::registerCurrentThread() {
  ThreadState *State = Registry.registerThread();
  if (profilingEnabled())
    State->Prof = std::make_unique<ThreadProfile>(Config.ProfileSampleShift);
  TlsCache.Generation = Generation;
  TlsCache.State = State;
  return *State;
}

void Runtime::deregisterCurrentThread() {
  if (TlsCache.Generation != Generation)
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
  Registry.deregisterThread(State);
  TlsCache.State = nullptr;
  TlsCache.Generation = 0;
}

void Runtime::logHold(ThreadState &TS, const LockHold &Hold) {
  TS.HeldLocks.push_back(Hold);
  if (Config.Obs) [[unlikely]]
    publishEvent(Hold.Shared ? obs::EventKind::SharedLockAcquire
                             : obs::EventKind::LockAcquire,
                 Hold.Lock, 0);
}

void Runtime::onLockAcquire(const void *Lock, bool Shared) {
  logHold(currentThread(), {Lock, Shared});
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
                                    uint64_t WaitCycles, bool Contended,
                                    bool Shared) {
  ThreadState &TS = currentThread();
  LockHold Hold{Lock, Shared};
  if (TS.Prof) {
    Hold.ProfileSlot = TS.Prof->lockAcquired(Lock, Site, WaitCycles, Contended);
    Hold.Start = readTsc();
    TS.Counters.bump(Counter::LockAcquires);
    TS.Counters.bump(Counter::LockContended, Contended);
    TS.Counters.bump(Counter::LockWaitUnits, WaitCycles);
  }
  logHold(TS, Hold);
}

void Runtime::onLockRelease(const void *Lock, bool Shared) {
  ThreadState &TS = currentThread();
  auto It = std::ranges::find_if(TS.HeldLocks.rbegin(), TS.HeldLocks.rend(),
                                 [&](const LockHold &H) {
                                   return H.is(Lock, Shared);
                                 });
  assert(It != TS.HeldLocks.rend() && "releasing a lock that is not held");
  if (It->ProfileSlot != LockHold::NoProfileSlot) [[unlikely]]
    TS.Counters.bump(Counter::LockHoldUnits,
                     TS.Prof->lockReleased(It->ProfileSlot, It->Start));
  // Only an exclusive acquire notes a holder.
  if (!Shared && Config.Guard.WatchdogMillis != 0) [[unlikely]] {
    std::lock_guard<std::mutex> G(GuardMutex);
    LockHolders.erase(reinterpret_cast<uintptr_t>(Lock));
  }
  TS.HeldLocks.erase(std::next(It).base());
  if (Config.Obs) [[unlikely]]
    publishEvent(Shared ? obs::EventKind::SharedLockRelease
                        : obs::EventKind::LockRelease,
                 Lock, 0);
}

bool Runtime::holdsLock(const void *Lock, bool Shared) {
  return currentThread().holds(Lock, Shared);
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
  // The watchdog is fixed at init, and while it is armed every exclusive
  // acquire notes its holder. A lock with no noted holder is held shared
  // or not at all, and the report names none: other threads' lock logs
  // belong to their owners and are never read here.
  LockHolderInfo Holder;
  {
    std::lock_guard<std::mutex> G(GuardMutex);
    auto It = LockHolders.find(reinterpret_cast<uintptr_t>(Lock));
    if (It != LockHolders.end())
      Holder = It->second;
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
                            const AccessSite *Site, bool SharedOk) {
  ThreadState &TS = currentThread();
  return profiled(TS, Site, obs::CheckKind::LockCheck, 0, [&] {
    TS.Counters.bump(Counter::LockChecks);
    if (TS.holds(Lock, /*Shared=*/false) ||
        (SharedOk && TS.holds(Lock, /*Shared=*/true)))
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
  });
}

void *Runtime::scast(void **Slot, size_t ObjSize, const AccessSite *Site) {
  void *Obj = rcLoad(Slot);
  // Null-out the source so no access path with the old sharing mode
  // remains (Figure 7, line 2). The store goes through the RC barrier,
  // so profiled runs attribute it like any other counted store.
  rcStore(Slot, nullptr, Site);
  if (!Obj)
    return nullptr;
  checkCast(Obj, ObjSize, Site);
  return Obj;
}

bool Runtime::checkCast(void *Obj, size_t ObjSize, const AccessSite *Site) {
  ThreadState &TS = currentThread();
  return profiled(TS, Site, obs::CheckKind::SharingCast, 0,
                  [&] { return checkCastImpl(TS, Obj, ObjSize, Site); });
}

bool Runtime::checkCastImpl(ThreadState &TS, void *Obj, size_t ObjSize,
                            const AccessSite *Site) {
  TS.Counters.bump(Counter::SharingCasts);
  if (!Obj)
    return true;
  // After the source has been nulled and accounted, any remaining counted
  // reference means the object is reachable under its old mode: reject.
  int64_t Count = Rc->getRefCount(reinterpret_cast<uintptr_t>(Obj));
  // Watchdog: a transient handoff may still hold a counted reference in
  // another thread. Poll the count down until the drain budget expires,
  // then file a stall report before the cast verdict (DESIGN.md §12).
  if (Count > 0 && Config.Rc != RcMode::None &&
      Config.Guard.WatchdogMillis != 0) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(Config.Guard.WatchdogMillis);
    while (Count > 0 && std::chrono::steady_clock::now() < Deadline) {
      std::this_thread::yield();
      Count = Rc->getRefCount(reinterpret_cast<uintptr_t>(Obj));
    }
    if (Count > 0)
      reportCastStall(Obj, Site, Count);
  }
  if (Config.Obs) [[unlikely]]
    publishEvent(obs::EventKind::SharingCast, Obj, Count);
  const bool Ok = Count <= 0 || Config.Rc == RcMode::None;
  if (!Ok) {
    ConflictReport Report;
    Report.Kind = ReportKind::CastError;
    Report.Address = reinterpret_cast<uintptr_t>(Obj);
    Report.WhoTid = TS.Tid;
    Report.WhoSite = Site;
    // Quarantine demotes the object to racy-equivalent by forgetting its
    // access history, exactly as a successful cast does.
    if (guard::onViolation(Config.Guard, Report, Sink) !=
        guard::Verdict::Quarantine)
      return false;
  }
  // Clear the object's reader/writer history ("past accesses by other
  // threads no longer constitute unintended sharing").
  size_t Size = ObjSize;
  if (Size == 0 && TheHeap->isSharcObject(Obj))
    Size = TheHeap->allocationSize(Obj);
  if (Size != 0)
    Shadow->clearRange(Obj, Size);
  return Ok;
}

void *Runtime::allocate(size_t Size) { return TheHeap->allocate(Size); }

void Runtime::deallocate(void *Ptr) {
  TheHeap->deallocate(Ptr);
  // Bound the deferred-free backlog: a collection releases it.
  if (TheHeap->getNumDeferred() >= DeferredFreeThreshold) {
    if (Config.Rc == RcMode::LevanoniPetrank)
      Rc->collect();
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
  S.RcTableBytes = Rc->memoryFootprint();
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
