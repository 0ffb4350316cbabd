//===-- racedet/Eraser.h - Lockset race detector ----------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Eraser-style dynamic lockset detector (Savage et al., SOSP'97),
/// implemented as the comparison baseline for the paper's Section 6.2
/// claim that lockset monitoring of *every* access costs 10x-30x while
/// SharC's mode-directed checking stays within a few percent.
///
/// Per 8-byte shadow cell the detector tracks the Eraser state machine --
/// Virgin, Exclusive(t), Shared, SharedModified -- and the candidate
/// lockset C(v), refined by intersection with the accessing thread's held
/// locks; an empty C(v) in SharedModified reports a race.
///
/// Every call names its thread with an explicit tid below MaxTids. The
/// caller owns the mapping: a tid must not be used by two threads at
/// once, but a single thread may replay many tids in turn.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RACEDET_ERASER_H
#define SHARC_RACEDET_ERASER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace sharc {
namespace racedet {

/// Number of thread ids the baseline detectors track (tids 0..63).
constexpr unsigned MaxTids = 64;

/// The Eraser lockset algorithm over 8-byte granules.
class EraserDetector {
  static constexpr unsigned NumShards = 64;
  static constexpr unsigned GranuleShift = 3;

public:
  /// Locks are identified by small ids (bits in a 64-bit set).
  void onLockAcquire(unsigned Tid, const void *Lock);
  void onLockRelease(unsigned Tid, const void *Lock);

  void onRead(unsigned Tid, const void *Addr, size_t Size) {
    onAccess(Tid, Addr, Size, /*IsWrite=*/false);
  }
  void onWrite(unsigned Tid, void *Addr, size_t Size) {
    onAccess(Tid, Addr, Size, /*IsWrite=*/true);
  }

  uint64_t getNumRaces() const {
    return Races.load(std::memory_order_relaxed);
  }
  uint64_t getNumChecks() const {
    return Checks.load(std::memory_order_relaxed);
  }

  /// \returns the sorted set of granules this detector has reported racy
  /// (SharedModified with an empty candidate set). The differential fuzz
  /// oracle compares this against an independent replay.
  std::vector<uintptr_t> racyGranules();

  /// Approximate metadata footprint, for memory-overhead comparisons.
  size_t memoryFootprint() const;

private:
  enum class State : uint8_t { Virgin, Exclusive, Shared, SharedModified };

  struct Cell {
    State St = State::Virgin;
    unsigned Owner = 0;
    uint64_t LockSet = ~uint64_t(0); ///< Candidate set C(v).
    bool Reported = false;
  };

  struct Shard {
    std::mutex Mutex;
    std::unordered_map<uintptr_t, Cell> Cells;
  };

  /// A thread's held-lock mask, padded so threads do not share a line.
  struct alignas(64) HeldLocks {
    uint64_t Mask = 0;
  };

  void onAccess(unsigned Tid, const void *Addr, size_t Size, bool IsWrite);
  unsigned lockId(const void *Lock);

  HeldLocks HeldBy[MaxTids];
  Shard Shards[NumShards];
  std::mutex LockIdMutex;
  std::unordered_map<const void *, unsigned> LockIds;
  std::atomic<uint64_t> Races{0};
  std::atomic<uint64_t> Checks{0};
};

} // namespace racedet
} // namespace sharc

#endif // SHARC_RACEDET_ERASER_H
