//===-- rt/Stats.h - Runtime statistics -------------------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics the runtime reports to the evaluation harness: how many
/// accesses hit the dynamic checker, how much metadata memory (shadow
/// pages, count table, logs) is live, and how many conflicts were found.
/// The paper's Table 1 columns "Pagefaults" and "% dynamic Accesses" are
/// derived from these.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_STATS_H
#define SHARC_RT_STATS_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sharc {
namespace rt {

/// The runtime's statistics at one moment, safe to copy and compare.
/// Runtime::getStats() folds it from the per-thread counter blocks, the
/// report sink's per-kind totals and each subsystem's own footprint
/// (DESIGN.md §13.1).
struct StatsSnapshot {
  uint64_t DynamicReads = 0;
  uint64_t DynamicWrites = 0;
  uint64_t DynamicReadBytes = 0;
  uint64_t DynamicWriteBytes = 0;
  uint64_t LockChecks = 0;
  uint64_t RcBarriers = 0;
  uint64_t Collections = 0;
  uint64_t SharingCasts = 0;
  uint64_t ReadConflicts = 0;
  uint64_t WriteConflicts = 0;
  uint64_t LockViolations = 0;
  uint64_t CastErrors = 0;
  uint64_t ShadowBytes = 0;
  uint64_t RcTableBytes = 0;
  uint64_t LogBytes = 0;
  uint64_t HeapPayloadBytes = 0;
  uint64_t PeakHeapPayloadBytes = 0;

  bool operator==(const StatsSnapshot &) const = default;

  /// Per-field saturating difference, for before/after annotation-tuning
  /// comparisons (`sharc-trace metrics --delta`). Saturation keeps a
  /// swapped argument order from producing absurd wrapped counters.
  StatsSnapshot operator-(const StatsSnapshot &O) const {
    auto Sub = [](uint64_t A, uint64_t B) { return A > B ? A - B : 0; };
    StatsSnapshot D;
    D.DynamicReads = Sub(DynamicReads, O.DynamicReads);
    D.DynamicWrites = Sub(DynamicWrites, O.DynamicWrites);
    D.DynamicReadBytes = Sub(DynamicReadBytes, O.DynamicReadBytes);
    D.DynamicWriteBytes = Sub(DynamicWriteBytes, O.DynamicWriteBytes);
    D.LockChecks = Sub(LockChecks, O.LockChecks);
    D.RcBarriers = Sub(RcBarriers, O.RcBarriers);
    D.Collections = Sub(Collections, O.Collections);
    D.SharingCasts = Sub(SharingCasts, O.SharingCasts);
    D.ReadConflicts = Sub(ReadConflicts, O.ReadConflicts);
    D.WriteConflicts = Sub(WriteConflicts, O.WriteConflicts);
    D.LockViolations = Sub(LockViolations, O.LockViolations);
    D.CastErrors = Sub(CastErrors, O.CastErrors);
    D.ShadowBytes = Sub(ShadowBytes, O.ShadowBytes);
    D.RcTableBytes = Sub(RcTableBytes, O.RcTableBytes);
    D.LogBytes = Sub(LogBytes, O.LogBytes);
    D.HeapPayloadBytes = Sub(HeapPayloadBytes, O.HeapPayloadBytes);
    D.PeakHeapPayloadBytes =
        Sub(PeakHeapPayloadBytes, O.PeakHeapPayloadBytes);
    return D;
  }

  uint64_t totalConflicts() const {
    return ReadConflicts + WriteConflicts + LockViolations + CastErrors;
  }
  uint64_t dynamicAccesses() const { return DynamicReads + DynamicWrites; }
  uint64_t dynamicAccessBytes() const {
    return DynamicReadBytes + DynamicWriteBytes;
  }
  uint64_t metadataBytes() const {
    return ShadowBytes + RcTableBytes + LogBytes;
  }
};

/// The counters a check bumps: one slot each in its thread's
/// ThreadCounters block. The last four count profiled lock acquisitions
/// and are bumped only while profiling is armed.
enum class Counter : unsigned {
  DynamicReads,
  DynamicWrites,
  DynamicReadBytes,
  DynamicWriteBytes,
  LockChecks,
  RcBarriers,
  SharingCasts,
  LockAcquires,
  LockContended,
  LockWaitUnits,
  LockHoldUnits,
};

constexpr size_t NumCounters = static_cast<size_t>(Counter::LockHoldUnits) + 1;

/// One thread's counters. Only the owning thread writes them, with a
/// relaxed load and a relaxed store and no read-modify-write; snapshots
/// read them with relaxed loads. The block fills its own cache lines, so
/// a check never writes a line another thread writes.
struct alignas(64) ThreadCounters {
  std::atomic<uint64_t> Slots[NumCounters]{};

  void bump(Counter C, uint64_t N = 1) {
    std::atomic<uint64_t> &Slot = Slots[static_cast<unsigned>(C)];
    Slot.store(Slot.load(std::memory_order_relaxed) + N,
               std::memory_order_relaxed);
  }
};

/// A sum of ThreadCounters blocks.
struct CounterTotals {
  uint64_t Slots[NumCounters] = {};

  void add(const ThreadCounters &Block) {
    for (size_t I = 0; I != NumCounters; ++I)
      Slots[I] += Block.Slots[I].load(std::memory_order_relaxed);
  }
  uint64_t operator[](Counter C) const {
    return Slots[static_cast<unsigned>(C)];
  }
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_STATS_H
