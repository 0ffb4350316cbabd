//===-- rt/RefCount.cpp ---------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/RefCount.h"

using namespace sharc::rt;

RefCountEngine::RefCountEngine(const RuntimeConfig &Config,
                               RuntimeStats &Stats, ThreadRegistry &Registry)
    : Config(Config), Stats(Stats), Registry(Registry),
      Table(Config.RcTableCapacity) {}

void RefCountEngine::storePtr(uintptr_t *Slot, uintptr_t New,
                              ThreadState &TS) {
  switch (Config.Rc) {
  case RcMode::None:
    std::atomic_ref<uintptr_t>(*Slot).store(New, std::memory_order_release);
    return;
  case RcMode::Atomic: {
    Stats.RcBarriers.fetch_add(1, std::memory_order_relaxed);
    uintptr_t Old = std::atomic_ref<uintptr_t>(*Slot).exchange(
        New, std::memory_order_acq_rel);
    if (Old)
      Table.add(Old, -1);
    if (New)
      Table.add(New, +1);
    return;
  }
  case RcMode::LevanoniPetrank:
    Stats.RcBarriers.fetch_add(1, std::memory_order_relaxed);
    storeLevanoniPetrank(Slot, New, TS);
    return;
  }
}

void RefCountEngine::storeLevanoniPetrank(uintptr_t *Slot, uintptr_t New,
                                          ThreadState &TS) {
  // Announce that we are mid-barrier in epoch E, then re-check that the
  // epoch did not flip under us; the collector waits for all threads to
  // leave the old epoch before processing its logs.
  uint32_t E;
  while (true) {
    E = Epoch.load(std::memory_order_acquire);
    TS.InBarrier.store(E + 1, std::memory_order_seq_cst);
    if (Epoch.load(std::memory_order_seq_cst) == E)
      break;
    TS.InBarrier.store(0, std::memory_order_release);
  }

  uintptr_t Old =
      std::atomic_ref<uintptr_t>(*Slot).load(std::memory_order_acquire);
  // Log only the first update of a slot per epoch ("an entry is only added
  // the first time a reference is updated").
  if (!Dirty.testAndSet(reinterpret_cast<uintptr_t>(Slot), E & 1))
    TS.RcLogs[E & 1].push({reinterpret_cast<uintptr_t>(Slot), Old});
  std::atomic_ref<uintptr_t>(*Slot).store(New, std::memory_order_release);

  TS.InBarrier.store(0, std::memory_order_release);
}

void RefCountEngine::collect(ThreadState &TS) {
  (void)TS;
  if (Config.Rc != RcMode::LevanoniPetrank)
    return;
  std::lock_guard<std::mutex> Lock(CollectorMutex);
  collectLocked();
}

void RefCountEngine::collectLocked() {
  Stats.Collections.fetch_add(1, std::memory_order_relaxed);

  // Hold the registry's structural lock for the whole collection so the
  // set of thread states is stable across all passes. Threads trying to
  // register/exit block briefly; threads running barriers do not.
  auto StructureLock = Registry.lockStructure();

  // Flip the epoch: mutators start using the other set of logs and dirty
  // bits ("the collector thread arranges for each thread to use the other
  // set of logs ... and waits for any pending updates to complete").
  uint32_t OldEpoch = Epoch.load(std::memory_order_acquire);
  uint32_t OldIndex = OldEpoch & 1;
  uint32_t NewIndex = OldIndex ^ 1;
  Epoch.store(OldEpoch + 1, std::memory_order_seq_cst);

  // Handshake: wait for every thread that was mid-barrier in the old epoch.
  Registry.forEachStateUnlocked([&](ThreadState &S) {
    while (S.InBarrier.load(std::memory_order_acquire) == OldEpoch + 1)
      ;
  });

  // Pass 1: decrement the counts of all overwritten values.
  Registry.forEachStateUnlocked([&](ThreadState &S) {
    S.RcLogs[OldIndex].forEach([&](const RcLogEntry &Entry) {
      if (Entry.Old)
        Table.add(Entry.Old, -1);
    });
  });

  // Pass 2: increment the count of each logged slot's current value. If
  // the slot has been dirtied again in the live epoch, its current value is
  // unstable; instead increment the value recorded as overwritten in the
  // live logs (it will be decremented when those logs are processed).
  Registry.forEachStateUnlocked([&](ThreadState &S) {
    S.RcLogs[OldIndex].forEach([&](const RcLogEntry &Entry) {
      uintptr_t Current = 0;
      if (Dirty.isDirty(Entry.Slot, NewIndex)) {
        bool Found = false;
        Registry.forEachStateUnlocked([&](ThreadState &S2) {
          if (!Found)
            Found = S2.RcLogs[NewIndex].findOldFor(Entry.Slot, Current);
        });
        if (!Found)
          Current = loadPtr(reinterpret_cast<uintptr_t *>(Entry.Slot));
      } else {
        Current = loadPtr(reinterpret_cast<uintptr_t *>(Entry.Slot));
      }
      if (Current)
        Table.add(Current, +1);
    });
  });

  // Drain old logs and dirty bits.
  Registry.forEachStateUnlocked(
      [&](ThreadState &S) { S.RcLogs[OldIndex].clear(); });
  Dirty.clearEpoch(OldIndex);
  Registry.purgeRetiredUnlocked();

  if (PostCollectHook)
    PostCollectHook(PostCollectCtx);
}

int64_t RefCountEngine::getRefCount(uintptr_t Value, ThreadState &TS) {
  if (Value == 0)
    return 0;
  switch (Config.Rc) {
  case RcMode::None:
    return 0;
  case RcMode::Atomic:
    return Table.get(Value);
  case RcMode::LevanoniPetrank: {
    collect(TS);
    return Table.get(Value);
  }
  }
  return 0;
}
