//===-- fuzz/RefDetectors.cpp ---------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/RefDetectors.h"

#include <algorithm>
#include <map>

using namespace sharc;
using namespace sharc::fuzz;

namespace {

/// A map-backed vector clock (independent of racedet::VectorClock on
/// purpose: the reference must not share code with what it checks).
struct RefClock {
  std::map<unsigned, uint64_t> C;

  uint64_t get(unsigned Tid) const {
    auto It = C.find(Tid);
    return It == C.end() ? 0 : It->second;
  }
  void set(unsigned Tid, uint64_t V) { C[Tid] = V; }
  void joinWith(const RefClock &O) {
    for (const auto &[Tid, V] : O.C)
      if (V > get(Tid))
        C[Tid] = V;
  }
  bool leq(const RefClock &O) const {
    for (const auto &[Tid, V] : C)
      if (V > O.get(Tid))
        return false;
    return true;
  }
};

/// Reference Eraser: the SOSP'97 state machine, mirroring the production
/// detector's semantics (64 lock-id slots assigned in first-seen order,
/// candidate set initialized at the Exclusive->Shared transition,
/// reports in SharedModified with an empty set).
class RefEraser {
public:
  void acquire(unsigned Tid, uint64_t Lock) { held(Tid) |= bit(Lock); }
  void release(unsigned Tid, uint64_t Lock) { held(Tid) &= ~bit(Lock); }

  void access(unsigned Tid, uint64_t Addr, bool IsWrite) {
    uint64_t Held = held(Tid);
    Cell &C = Cells[Addr];
    switch (C.St) {
    case State::Virgin:
      C.St = State::Exclusive;
      C.Owner = Tid;
      break;
    case State::Exclusive:
      if (C.Owner == Tid)
        break;
      C.LockSet = Held;
      C.St = IsWrite ? State::SharedModified : State::Shared;
      break;
    case State::Shared:
      C.LockSet &= Held;
      if (IsWrite)
        C.St = State::SharedModified;
      break;
    case State::SharedModified:
      C.LockSet &= Held;
      break;
    }
    if (C.St == State::SharedModified && C.LockSet == 0)
      C.Reported = true;
  }

  std::vector<uint64_t> racy() const {
    std::vector<uint64_t> Out;
    for (const auto &[Addr, C] : Cells)
      if (C.Reported)
        Out.push_back(Addr);
    std::sort(Out.begin(), Out.end());
    return Out;
  }

private:
  enum class State : uint8_t { Virgin, Exclusive, Shared, SharedModified };
  struct Cell {
    State St = State::Virgin;
    unsigned Owner = 0;
    uint64_t LockSet = ~uint64_t(0);
    bool Reported = false;
  };

  uint64_t &held(unsigned Tid) { return HeldMasks[Tid]; }
  uint64_t bit(uint64_t Lock) {
    auto [It, Inserted] = LockIds.emplace(Lock, LockIds.size());
    (void)Inserted;
    return uint64_t(1) << (It->second % 64);
  }

  std::map<uint64_t, size_t> LockIds;
  std::map<unsigned, uint64_t> HeldMasks;
  std::map<uint64_t, Cell> Cells;
};

/// Reference happens-before: per-thread clocks, lock release/acquire
/// edges, last-write epoch plus read clock per cell.
class RefHb {
public:
  void threadBegin(unsigned Tid) {
    RefClock &C = Clocks[Tid];
    if (C.get(Tid) == 0)
      C.set(Tid, 1);
  }
  void acquire(unsigned Tid, uint64_t Lock) {
    threadBegin(Tid);
    Clocks[Tid].joinWith(LockClocks[Lock]);
  }
  void release(unsigned Tid, uint64_t Lock) {
    threadBegin(Tid);
    RefClock &C = Clocks[Tid];
    LockClocks[Lock] = C;
    C.set(Tid, C.get(Tid) + 1);
  }
  void access(unsigned Tid, uint64_t Addr, bool IsWrite) {
    threadBegin(Tid);
    RefClock &TC = Clocks[Tid];
    Cell &C = Cells[Addr];
    bool Race = false;
    if (C.WriteClock != 0 && C.WriteTid != Tid &&
        C.WriteClock > TC.get(C.WriteTid))
      Race = true;
    if (IsWrite) {
      if (!C.Reads.leq(TC))
        Race = true;
      C.WriteTid = Tid;
      C.WriteClock = TC.get(Tid);
      C.Reads = RefClock();
    } else {
      C.Reads.set(Tid, TC.get(Tid));
    }
    if (Race)
      C.Reported = true;
  }

  std::vector<uint64_t> racy() const {
    std::vector<uint64_t> Out;
    for (const auto &[Addr, C] : Cells)
      if (C.Reported)
        Out.push_back(Addr);
    std::sort(Out.begin(), Out.end());
    return Out;
  }

private:
  struct Cell {
    unsigned WriteTid = 0;
    uint64_t WriteClock = 0;
    RefClock Reads;
    bool Reported = false;
  };
  std::map<unsigned, RefClock> Clocks;
  std::map<uint64_t, RefClock> LockClocks;
  std::map<uint64_t, Cell> Cells;
};

} // namespace

RefRaceResult sharc::fuzz::referenceRaces(
    const std::vector<obs::Event> &Trace) {
  RefEraser E;
  RefHb H;
  for (const obs::Event &Ev : Trace) {
    switch (Ev.K) {
    case obs::EventKind::Read:
      E.access(Ev.Tid, Ev.Addr, false);
      H.access(Ev.Tid, Ev.Addr, false);
      break;
    case obs::EventKind::Write:
      E.access(Ev.Tid, Ev.Addr, true);
      H.access(Ev.Tid, Ev.Addr, true);
      break;
    case obs::EventKind::LockAcquire:
      E.acquire(Ev.Tid, Ev.Addr);
      H.acquire(Ev.Tid, Ev.Addr);
      break;
    case obs::EventKind::LockRelease:
      E.release(Ev.Tid, Ev.Addr);
      H.release(Ev.Tid, Ev.Addr);
      break;
    case obs::EventKind::SpawnEdge:
      // Parent half of the spawn edge: release the token.
      E.release(Ev.Tid, Ev.Addr);
      H.release(Ev.Tid, Ev.Addr);
      break;
    case obs::EventKind::ThreadStart:
      H.threadBegin(Ev.Tid);
      if (Ev.Addr != 0) {
        E.acquire(Ev.Tid, Ev.Addr);
        H.acquire(Ev.Tid, Ev.Addr);
        E.release(Ev.Tid, Ev.Addr);
        H.release(Ev.Tid, Ev.Addr);
      }
      break;
    case obs::EventKind::ThreadExit:
    case obs::EventKind::PtrStore:
    case obs::EventKind::CastQuery:
    case obs::EventKind::Conflict:
    case obs::EventKind::SharedLockAcquire:
    case obs::EventKind::SharedLockRelease:
    case obs::EventKind::SharingCast:
    case obs::EventKind::LockWait:
      break;
    }
  }
  return RefRaceResult{E.racy(), H.racy()};
}
