//===-- racedet/VectorClock.h - Happens-before detector ---------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector-clock happens-before race detector in the style of the
/// "improvements to the lockset algorithm" the paper's Section 6.2
/// surveys (Choi et al., RaceTrack, FastTrack): threads carry vector
/// clocks, lock release/acquire edges transfer them, and each location
/// keeps its last-write epoch plus a read vector; an access that is not
/// ordered after the conflicting one is a race.
///
/// Like EraserDetector, every call names its thread with an explicit tid
/// below MaxTids; a thread's clock starts at its first call.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RACEDET_VECTORCLOCK_H
#define SHARC_RACEDET_VECTORCLOCK_H

#include "racedet/Eraser.h" // MaxTids

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace sharc {
namespace racedet {

/// A grow-on-demand vector clock.
class VectorClock {
public:
  uint64_t get(unsigned Tid) const {
    return Tid < Clocks.size() ? Clocks[Tid] : 0;
  }
  void set(unsigned Tid, uint64_t Value) {
    if (Tid >= Clocks.size())
      Clocks.resize(Tid + 1, 0);
    Clocks[Tid] = Value;
  }
  void joinWith(const VectorClock &Other) {
    if (Other.Clocks.size() > Clocks.size())
      Clocks.resize(Other.Clocks.size(), 0);
    for (size_t I = 0; I != Other.Clocks.size(); ++I)
      Clocks[I] = std::max(Clocks[I], Other.Clocks[I]);
  }
  /// \returns true if this clock is pointwise <= Other.
  bool leq(const VectorClock &Other) const {
    for (size_t I = 0; I != Clocks.size(); ++I)
      if (Clocks[I] > Other.get(static_cast<unsigned>(I)))
        return false;
    return true;
  }
  size_t size() const { return Clocks.size(); }

private:
  std::vector<uint64_t> Clocks;
};

/// The happens-before detector over 8-byte granules.
class HappensBeforeDetector {
  static constexpr unsigned NumShards = 64;
  static constexpr unsigned GranuleShift = 3;

public:
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

  /// \returns the sorted set of granules reported racy, for the
  /// differential fuzz oracle.
  std::vector<uintptr_t> racyGranules();

  size_t memoryFootprint() const;

private:
  struct Epoch {
    unsigned Tid = 0;
    uint64_t Clock = 0;
  };
  struct Cell {
    Epoch LastWrite;
    VectorClock Reads;
    bool Reported = false;
  };
  struct Shard {
    std::mutex Mutex;
    std::unordered_map<uintptr_t, Cell> Cells;
  };

  /// A thread's clock, padded so threads do not share a line.
  struct alignas(64) ThreadClock {
    VectorClock Clock;
  };

  void onAccess(unsigned Tid, const void *Addr, size_t Size, bool IsWrite);
  /// \returns \p Tid's clock, starting it at 1 on first use.
  VectorClock &clockOf(unsigned Tid);

  ThreadClock Clocks[MaxTids];
  Shard Shards[NumShards];
  std::mutex LockMutex;
  std::unordered_map<const void *, VectorClock> LockClocks;
  std::atomic<uint64_t> Races{0};
  std::atomic<uint64_t> Checks{0};
};

} // namespace racedet
} // namespace sharc

#endif // SHARC_RACEDET_VECTORCLOCK_H
