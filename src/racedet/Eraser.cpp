//===-- racedet/Eraser.cpp ------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "racedet/Eraser.h"

#include <algorithm>
#include <cassert>

using namespace sharc;
using namespace sharc::racedet;

unsigned EraserDetector::lockId(const void *Lock) {
  std::lock_guard<std::mutex> Guard(LockIdMutex);
  auto [It, Inserted] = LockIds.emplace(Lock, LockIds.size());
  (void)Inserted;
  return It->second % 64;
}

void EraserDetector::onLockAcquire(unsigned Tid, const void *Lock) {
  assert(Tid < MaxTids && "tid outside the detector's slots");
  HeldBy[Tid].Mask |= uint64_t(1) << lockId(Lock);
}

void EraserDetector::onLockRelease(unsigned Tid, const void *Lock) {
  assert(Tid < MaxTids && "tid outside the detector's slots");
  HeldBy[Tid].Mask &= ~(uint64_t(1) << lockId(Lock));
}

void EraserDetector::onAccess(unsigned Tid, const void *Addr, size_t Size,
                              bool IsWrite) {
  assert(Tid < MaxTids && "tid outside the detector's slots");
  uint64_t Held = HeldBy[Tid].Mask;
  uintptr_t Begin = reinterpret_cast<uintptr_t>(Addr) >> GranuleShift;
  uintptr_t End =
      (reinterpret_cast<uintptr_t>(Addr) + (Size ? Size : 1) - 1) >>
      GranuleShift;
  for (uintptr_t G = Begin; G <= End; ++G) {
    Checks.fetch_add(1, std::memory_order_relaxed);
    Shard &S = Shards[(G * 0x9E3779B97F4A7C15ull) >> 58];
    std::lock_guard<std::mutex> Guard(S.Mutex);
    Cell &C = S.Cells[G];
    switch (C.St) {
    case State::Virgin:
      C.St = State::Exclusive;
      C.Owner = Tid;
      break;
    case State::Exclusive:
      if (C.Owner == Tid)
        break;
      // First access by a second thread: enter the shared states and
      // initialize the candidate set from the current locks.
      C.LockSet = Held;
      C.St = IsWrite ? State::SharedModified : State::Shared;
      break;
    case State::Shared:
      C.LockSet &= Held;
      if (IsWrite)
        C.St = State::SharedModified;
      // Eraser refines but does not report in the read-shared state.
      break;
    case State::SharedModified:
      C.LockSet &= Held;
      break;
    }
    if (C.St == State::SharedModified && C.LockSet == 0 && !C.Reported) {
      C.Reported = true;
      Races.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::vector<uintptr_t> EraserDetector::racyGranules() {
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

size_t EraserDetector::memoryFootprint() const {
  size_t Cells = 0;
  for (const Shard &S : Shards)
    Cells += S.Cells.size();
  return Cells * (sizeof(Cell) + sizeof(uintptr_t) + 3 * sizeof(void *));
}
