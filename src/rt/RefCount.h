//===-- rt/RefCount.h - Sharing-cast reference counting ---------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference counting for sharing casts (Sections 4.2.3 and 4.3). Counted
/// references are pointer values stored in designated *slots* (struct
/// fields and globals the static analysis finds may be subject to a
/// sharing cast; local variables are covered by the type system and are
/// not counted — see DESIGN.md). Three engines share one interface:
///
///  - None: no counting (uninstrumented baseline for ablations).
///  - Atomic: every counted store atomically decrements the old value's
///    count and increments the new value's. This is the naive scheme the
///    paper measured at "over 60%" overhead.
///  - LevanoniPetrank: the paper's adaptation of Levanoni & Petrank's
///    concurrent algorithm. Mutators append (slot, old-value) records to
///    per-thread unsynchronized logs, at most once per slot per epoch. A
///    slot's dirty mark for an epoch is the address of the entry its first
///    store in that epoch logged, published only once the entry is written.
///    A thread that needs a count becomes the collector: it flips the
///    epoch, waits for threads mid-barrier on the old epoch to drain (no
///    stop-the-world), and processes the old logs: it decrements
///    overwritten values and increments each slot's current value, unless
///    the slot is marked again in the live epoch, in which case it
///    increments the old value the live mark's entry recorded. It clears
///    the old marks as it goes.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_REFCOUNT_H
#define SHARC_RT_REFCOUNT_H

#include "rt/AddrIndex.h"
#include "rt/Config.h"
#include "rt/RcLog.h"
#include "rt/RcTable.h"
#include "rt/ThreadRegistry.h"

#include <atomic>
#include <mutex>
#include <optional>

namespace sharc {
namespace rt {

/// The reference-counting engine. One instance per Runtime.
class RefCountEngine {
public:
  RefCountEngine(const RuntimeConfig &Config, ThreadRegistry &Registry);

  RefCountEngine(const RefCountEngine &) = delete;
  RefCountEngine &operator=(const RefCountEngine &) = delete;

  /// Initializes a counted slot to null without logging (there is no
  /// previous value to account for). Must be called before the first
  /// storePtr through the slot.
  static void initSlot(uintptr_t *Slot) {
    std::atomic_ref<uintptr_t>(*Slot).store(0, std::memory_order_relaxed);
  }

  /// The counted-store write barrier: *Slot = New, with the engine's
  /// bookkeeping. Slot must be 8-byte aligned and must remain readable
  /// until the next collection (the sharc heap defers frees accordingly).
  void storePtr(uintptr_t *Slot, uintptr_t New, ThreadState &TS);

  /// Plain counted load.
  static uintptr_t loadPtr(const uintptr_t *Slot) {
    return std::atomic_ref<uintptr_t>(*const_cast<uintptr_t *>(Slot))
        .load(std::memory_order_acquire);
  }

  /// \returns the number of counted references to \p Value. Under the
  /// LevanoniPetrank engine this performs a collection first and reads the
  /// count under the same lock, so the result reflects all barriers that
  /// completed before the call and no other collection's partial passes.
  int64_t getRefCount(uintptr_t Value);

  /// Runs one collection cycle (LevanoniPetrank only; no-op otherwise).
  void collect();

  RcMode getMode() const { return Config.Rc; }
  const RcTable &getTable() const { return Table; }
  uint64_t getNumCollections() const { return Collections.load(); }

  /// Bytes one slot's dirty-mark entry allocates.
  static constexpr size_t markEntryBytes() { return MarkIndex::entryBytes(); }

  /// Bytes of counting metadata: the count table's entries and the slots'
  /// dirty marks.
  size_t memoryFootprint() const {
    return Table.memoryFootprint() +
           (Marks ? Marks->getNumEntries() * markEntryBytes() : 0);
  }

  /// Registers a callback run at the end of each collection while the
  /// collector lock is still held; the heap uses this to release deferred
  /// frees (slots inside freed objects must stay readable until the logs
  /// mentioning them have been processed).
  void setPostCollectHook(void (*Hook)(void *), void *Ctx) {
    PostCollectHook = Hook;
    PostCollectCtx = Ctx;
  }

private:
  /// A counted slot's dirty marks, one per epoch parity: the log entry
  /// written by the slot's first store in that epoch, or null while the
  /// slot is clean. A set mark always has its entry.
  struct SlotMark {
    std::atomic<RcLogEntry *> Logged[2] = {nullptr, nullptr};
  };
  using MarkIndex = AddrIndex<SlotMark>;

  void storeLevanoniPetrank(uintptr_t *Slot, uintptr_t New, ThreadState &TS);
  void collectLocked();

  const RuntimeConfig &Config;
  ThreadRegistry &Registry;
  RcTable Table;
  /// Keyed by slot address; built only under LevanoniPetrank, the one
  /// engine that marks slots.
  std::optional<MarkIndex> Marks;
  std::atomic<uint32_t> Epoch{0};
  std::mutex CollectorMutex;
  /// Written only under CollectorMutex.
  std::atomic<uint64_t> Collections{0};
  void (*PostCollectHook)(void *) = nullptr;
  void *PostCollectCtx = nullptr;
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_REFCOUNT_H
