//===-- rt/Profile.cpp ----------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/Profile.h"

#include "obs/Sink.h"

#include <cstring>

using namespace sharc::rt;

namespace {

size_t hashKey(const AccessSite *Site, uint8_t Kind) {
  // Fibonacci hash of the site pointer, with the kind folded in.
  uintptr_t P = reinterpret_cast<uintptr_t>(Site) >> 3;
  return (P * 0x9e3779b97f4a7c15ull) ^ (size_t(Kind) << 1);
}

} // namespace

ThreadProfile::Slot &ThreadProfile::findSlot(const AccessSite *Site,
                                             obs::CheckKind Kind) {
  if ((UsedSlots + 1) * 4 > Slots.size() * 3)
    grow();
  size_t Mask = Slots.size() - 1;
  size_t H = hashKey(Site, uint8_t(Kind)) & Mask;
  while (true) {
    Slot &S = Slots[H];
    if (!S.Used) {
      S.Used = true;
      S.Site = Site;
      S.Kind = uint8_t(Kind);
      ++UsedSlots;
      return S;
    }
    if (S.Site == Site && S.Kind == uint8_t(Kind))
      return S;
    H = (H + 1) & Mask;
  }
}

void ThreadProfile::grow() {
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(Old.size() * 2, Slot());
  UsedSlots = 0;
  size_t Mask = Slots.size() - 1;
  for (const Slot &S : Old) {
    if (!S.Used)
      continue;
    size_t H = hashKey(S.Site, S.Kind) & Mask;
    while (Slots[H].Used)
      H = (H + 1) & Mask;
    Slots[H] = S;
    ++UsedSlots;
  }
}

size_t ThreadProfile::findLock(const void *Lock, const AccessSite *Site) {
  for (size_t I = 0; I < LockStats.size(); ++I)
    if (LockStats[I].Lock == Lock && LockStats[I].Site == Site)
      return I;
  LockSlot L;
  L.Lock = Lock;
  L.Site = Site;
  LockStats.push_back(L);
  return LockStats.size() - 1;
}

uint32_t ThreadProfile::lockAcquired(const void *Lock, const AccessSite *Site,
                                     uint64_t WaitCycles, bool Contended) {
  size_t Idx = findLock(Lock, Site);
  LockSlot &L = LockStats[Idx];
  ++L.Acquires;
  if (Contended)
    ++L.Contended;
  L.WaitCycles += WaitCycles;
  ++L.WaitHist[obs::histBucket(WaitCycles)];
  return static_cast<uint32_t>(Idx);
}

uint64_t ThreadProfile::lockReleased(uint32_t Slot, uint64_t Start) {
  uint64_t HoldCycles = readTsc() - Start;
  LockSlot &L = LockStats[Slot];
  L.HoldCycles += HoldCycles;
  ++L.HoldHist[obs::histBucket(HoldCycles)];
  return HoldCycles;
}

void ThreadProfile::drainTo(obs::Sink &Sink, uint32_t Tid) {
  uint64_t DrainStart = readTsc();
  uint64_t TableBytes = tableBytes();

  for (const Slot &S : Slots) {
    if (!S.Used)
      continue;
    obs::SiteProfileRecord R;
    R.Tid = Tid;
    R.Kind = obs::CheckKind(S.Kind);
    if (S.Site) {
      R.Line = S.Site->Line > 0 ? uint32_t(S.Site->Line) : 0;
      if (S.Site->File && std::strcmp(S.Site->File, "?") != 0)
        R.File = S.Site->File;
      if (S.Site->LValue && std::strcmp(S.Site->LValue, "?") != 0)
        R.LValue = S.Site->LValue;
    }
    R.Count = S.Count;
    R.Bytes = S.Bytes;
    R.Cycles = S.Cycles;
    R.Samples = S.Samples;
    Sink.siteProfile(R);
  }
  Slots.assign(64, Slot());
  UsedSlots = 0;

  for (const LockSlot &L : LockStats) {
    obs::LockProfileRecord R;
    R.Tid = Tid;
    R.Lock = reinterpret_cast<uintptr_t>(L.Lock);
    if (L.Site) {
      R.Line = L.Site->Line > 0 ? uint32_t(L.Site->Line) : 0;
      if (L.Site->File && std::strcmp(L.Site->File, "?") != 0)
        R.File = L.Site->File;
    }
    R.Acquires = L.Acquires;
    R.Contended = L.Contended;
    R.WaitCycles = L.WaitCycles;
    R.HoldCycles = L.HoldCycles;
    std::memcpy(R.WaitHist, L.WaitHist, sizeof(R.WaitHist));
    std::memcpy(R.HoldHist, L.HoldHist, sizeof(R.HoldHist));
    Sink.lockProfile(R);
  }
  LockStats.clear();

  obs::SelfOverheadRecord O;
  O.Tid = Tid;
  O.Ops = Ops;
  O.Cycles = SelfCycles;
  O.Samples = SelfSamples;
  O.DrainCycles = readTsc() - DrainStart;
  O.TableBytes = TableBytes;
  Sink.selfOverhead(O);

  Ops = 0;
  SelfCycles = 0;
  SelfSamples = 0;
}
