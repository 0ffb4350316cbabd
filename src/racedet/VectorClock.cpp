//===-- racedet/VectorClock.cpp -------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "racedet/VectorClock.h"

#include <algorithm>
#include <cassert>

using namespace sharc;
using namespace sharc::racedet;

VectorClock &HappensBeforeDetector::clockOf(unsigned Tid) {
  assert(Tid < MaxTids && "tid outside the detector's slots");
  VectorClock &Clock = Clocks[Tid].Clock;
  if (Clock.get(Tid) == 0)
    Clock.set(Tid, 1);
  return Clock;
}

void HappensBeforeDetector::onLockAcquire(unsigned Tid, const void *Lock) {
  VectorClock &Clock = clockOf(Tid);
  std::lock_guard<std::mutex> Guard(LockMutex);
  Clock.joinWith(LockClocks[Lock]);
}

void HappensBeforeDetector::onLockRelease(unsigned Tid, const void *Lock) {
  VectorClock &Clock = clockOf(Tid);
  std::lock_guard<std::mutex> Guard(LockMutex);
  LockClocks[Lock] = Clock;
  // Advance this thread's component: later events are not ordered before
  // the release.
  Clock.set(Tid, Clock.get(Tid) + 1);
}

void HappensBeforeDetector::onAccess(unsigned Tid, const void *Addr,
                                     size_t Size, bool IsWrite) {
  const VectorClock &Clock = clockOf(Tid);
  uintptr_t Begin = reinterpret_cast<uintptr_t>(Addr) >> GranuleShift;
  uintptr_t End =
      (reinterpret_cast<uintptr_t>(Addr) + (Size ? Size : 1) - 1) >>
      GranuleShift;
  for (uintptr_t G = Begin; G <= End; ++G) {
    Checks.fetch_add(1, std::memory_order_relaxed);
    Shard &S = Shards[(G * 0x9E3779B97F4A7C15ull) >> 58];
    std::lock_guard<std::mutex> Guard(S.Mutex);
    Cell &C = S.Cells[G];
    bool Race = false;
    // The last write must happen-before this access.
    if (C.LastWrite.Clock != 0 && C.LastWrite.Tid != Tid &&
        C.LastWrite.Clock > Clock.get(C.LastWrite.Tid))
      Race = true;
    if (IsWrite) {
      // All previous reads must happen-before a write.
      if (!C.Reads.leq(Clock))
        Race = true;
      C.LastWrite = Epoch{Tid, Clock.get(Tid)};
      C.Reads = VectorClock();
    } else {
      C.Reads.set(Tid, Clock.get(Tid));
    }
    if (Race && !C.Reported) {
      C.Reported = true;
      Races.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::vector<uintptr_t> HappensBeforeDetector::racyGranules() {
  std::vector<uintptr_t> Out;
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Guard(S.Mutex);
    for (const auto &[G, C] : S.Cells)
      if (C.Reported)
        Out.push_back(G);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

size_t HappensBeforeDetector::memoryFootprint() const {
  size_t Bytes = 0;
  for (const Shard &S : Shards) {
    for (const auto &[G, C] : S.Cells)
      Bytes += sizeof(Cell) + C.Reads.size() * sizeof(uint64_t) +
               sizeof(uintptr_t) + 3 * sizeof(void *);
  }
  return Bytes;
}
