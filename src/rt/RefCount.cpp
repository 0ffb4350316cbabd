//===-- rt/RefCount.cpp ---------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/RefCount.h"

using namespace sharc::rt;

RefCountEngine::RefCountEngine(const RuntimeConfig &Config,
                               ThreadRegistry &Registry)
    : Config(Config), Registry(Registry) {
  if (Config.Rc == RcMode::LevanoniPetrank)
    Marks.emplace();
}

void RefCountEngine::storePtr(uintptr_t *Slot, uintptr_t New,
                              ThreadState &TS) {
  switch (Config.Rc) {
  case RcMode::None:
    std::atomic_ref<uintptr_t>(*Slot).store(New, std::memory_order_release);
    return;
  case RcMode::Atomic: {
    TS.Counters.bump(Counter::RcBarriers);
    uintptr_t Old = std::atomic_ref<uintptr_t>(*Slot).exchange(
        New, std::memory_order_acq_rel);
    if (Old)
      Table.add(Old, -1);
    if (New)
      Table.add(New, +1);
    return;
  }
  case RcMode::LevanoniPetrank:
    TS.Counters.bump(Counter::RcBarriers);
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
  // the first time a reference is updated"). The mark that points at the
  // entry is published after the entry is written, so a set mark always
  // has its entry. A store that loses the race to mark the slot voids its
  // own entry, which no collector reads before this barrier ends.
  std::atomic<RcLogEntry *> &Mark =
      Marks->insert(reinterpret_cast<uintptr_t>(Slot)).Logged[E & 1];
  if (!Mark.load(std::memory_order_relaxed)) {
    RcLogEntry &Entry =
        TS.RcLogs[E & 1].push({reinterpret_cast<uintptr_t>(Slot), Old});
    RcLogEntry *Clean = nullptr;
    if (!Mark.compare_exchange_strong(Clean, &Entry, std::memory_order_release,
                                      std::memory_order_relaxed))
      Entry.Slot = 0;
  }
  std::atomic_ref<uintptr_t>(*Slot).store(New, std::memory_order_release);

  TS.InBarrier.store(0, std::memory_order_release);
}

void RefCountEngine::collect() {
  if (Config.Rc != RcMode::LevanoniPetrank)
    return;
  std::lock_guard<std::mutex> Lock(CollectorMutex);
  collectLocked();
}

void RefCountEngine::collectLocked() {
  Collections.store(Collections.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);

  // Hold the registry's structural lock for the whole collection so the
  // set of thread states is stable across all passes. Threads trying to
  // register/exit block briefly; threads running barriers do not.
  auto StructureLock = Registry.lockStructure();

  // Flip the epoch: mutators start using the other set of logs and marks
  // ("the collector thread arranges for each thread to use the other
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
      if (Entry.Slot && Entry.Old)
        Table.add(Entry.Old, -1);
    });
  });

  // Pass 2: increment the count of each logged slot's current value and
  // clear its old mark. If the slot is marked again in the live epoch, its
  // current value is unstable; count the old value the live entry recorded
  // instead (that log decrements it later). The slot is loaded before the
  // mark: a value stored in the live epoch was stored after its mark was
  // set, and an older value is the old epoch's final one either way.
  Registry.forEachStateUnlocked([&](ThreadState &S) {
    S.RcLogs[OldIndex].forEach([&](const RcLogEntry &Entry) {
      if (!Entry.Slot)
        return;
      uintptr_t Current = loadPtr(reinterpret_cast<uintptr_t *>(Entry.Slot));
      SlotMark &M = *Marks->find(Entry.Slot);
      if (const RcLogEntry *Live =
              M.Logged[NewIndex].load(std::memory_order_acquire))
        Current = Live->Old;
      M.Logged[OldIndex].store(nullptr, std::memory_order_relaxed);
      if (Current)
        Table.add(Current, +1);
    });
  });

  // Drain old logs.
  Registry.forEachStateUnlocked(
      [&](ThreadState &S) { S.RcLogs[OldIndex].clear(); });
  Registry.purgeRetiredUnlocked();

  if (PostCollectHook)
    PostCollectHook(PostCollectCtx);
}

int64_t RefCountEngine::getRefCount(uintptr_t Value) {
  if (Value == 0)
    return 0;
  switch (Config.Rc) {
  case RcMode::None:
    return 0;
  case RcMode::Atomic:
    return Table.get(Value);
  case RcMode::LevanoniPetrank: {
    // Read under the collector lock: another collection between its
    // decrementing and incrementing passes would show a count too low.
    std::lock_guard<std::mutex> Lock(CollectorMutex);
    collectLocked();
    return Table.get(Value);
  }
  }
  return 0;
}
