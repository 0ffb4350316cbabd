//===-- rt/ShadowMemory.cpp -----------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/ShadowMemory.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>

using namespace sharc::rt;

/// Shadow for one 4 KiB page of application address space: WordsPerPage
/// 64-bit words of lanes, zeroed at creation.
struct ShadowMemory::Page {
  explicit Page(size_t Words) : Cells(std::make_unique<uint64_t[]>(Words)) {}
  std::unique_ptr<uint64_t[]> Cells;
};

ShadowMemory::ShadowMemory(const RuntimeConfig &Config, ReportSink &Sink,
                           ThreadRegistry &Registry)
    : Config(Config), Sink(Sink), Registry(Registry),
      GranuleShift(Config.GranuleShift),
      GranuleMask((uintptr_t(1) << Config.GranuleShift) - 1) {
  assert(GranuleShift >= 2 && GranuleShift <= PageShift &&
         "granule must be between 4 bytes and one page");
  unsigned LaneBits = 8 * Config.ShadowBytesPerGranule;
  assert((LaneBits == 8 || LaneBits == 16 || LaneBits == 32 ||
          LaneBits == 64) &&
         "shadow word must be 1, 2, 4 or 8 bytes");
  LaneShift = static_cast<unsigned>(std::countr_zero(LaneBits));
  LanesLog = 6 - LaneShift;
  LaneMask = ~uint64_t(0) >> (64 - LaneBits);
  LaneLow = ~uint64_t(0) / LaneMask;
  LaneHigh = LaneLow << (LaneBits - 1);
  size_t Granules = PageBytes >> GranuleShift;
  WordsPerPage = (Granules + (size_t(1) << LanesLog) - 1) >> LanesLog;
}

ShadowMemory::~ShadowMemory() = default;

uint64_t ShadowMemory::getShadowBytes() const {
  return Pages.getNumEntries() *
         (WordsPerPage * sizeof(uint64_t) + Pages.entryBytes());
}

uint64_t *ShadowMemory::cellsFor(ThreadState &TS, uintptr_t PageNumber) {
  if (PageNumber != TS.ShadowPage) {
    TS.ShadowCells = Pages.insert(PageNumber, WordsPerPage).Cells.get();
    TS.ShadowPage = PageNumber;
  }
  return TS.ShadowCells;
}

uint64_t *ShadowMemory::findCells(uintptr_t PageNumber) const {
  Page *P = Pages.find(PageNumber);
  return P ? P->Cells.get() : nullptr;
}

template <typename PageFnT, typename WordFnT>
void ShadowMemory::forEachWord(uintptr_t Addr, size_t Size, PageFnT PageFn,
                               WordFnT Fn) const {
  if (Size == 0)
    Size = 1;
  const unsigned PageLog = PageShift - GranuleShift; // granules per page
  const uintptr_t Lanes = uintptr_t(1) << LanesLog;
  uintptr_t G = Addr >> GranuleShift;
  const uintptr_t Last = (Addr + Size - 1) >> GranuleShift;
  while (true) {
    uintptr_t PageNumber = G >> PageLog;
    uintptr_t PageLast =
        std::min(Last, ((PageNumber + 1) << PageLog) - 1);
    if (uint64_t *Cells = PageFn(PageNumber)) {
      for (uintptr_t W = G; W <= PageLast;) {
        uintptr_t Index = W & ((uintptr_t(1) << PageLog) - 1);
        unsigned FirstLane = static_cast<unsigned>(Index & (Lanes - 1));
        uintptr_t End = std::min(PageLast, W - FirstLane + Lanes - 1);
        Fn(Cells[Index >> LanesLog],
           laneSel(FirstLane, FirstLane + static_cast<unsigned>(End - W)),
           (W - FirstLane) << GranuleShift);
        W = End + 1;
      }
    }
    if (PageLast == Last)
      return;
    G = PageLast + 1;
  }
}

bool ShadowMemory::checkRange(uintptr_t Addr, size_t Size, bool IsWrite,
                              ThreadState &TS, const AccessSite *Site,
                              uint64_t Logged) {
  bool Ok = true;
  forEachWord(
      Addr, Size,
      [&](uintptr_t PageNumber) { return cellsFor(TS, PageNumber); },
      [&](uint64_t &Word, uint64_t Sel, uintptr_t WordAddr) {
        Ok &= checkWord(Word, Sel, WordAddr, IsWrite, TS, Site, Logged);
      });
  return Ok;
}

bool ShadowMemory::checkWord(uint64_t &Word, uint64_t Sel, uintptr_t WordAddr,
                             bool IsWrite, ThreadState &TS,
                             const AccessSite *Site, uint64_t Logged) {
  std::atomic_ref<uint64_t> Cell(Word);
  const uint64_t Own = (LaneLow << TS.Tid) & Sel;
  const uint64_t Set = IsWrite ? Own | (LaneLow & Sel) : Own;
  uint64_t Cur = Cell.load(std::memory_order_acquire);
  while (true) {
    if (conflictLanes(Cur, Sel, TS.Tid, IsWrite))
      return checkLanes(Word, Sel, WordAddr, IsWrite, TS, Site, Logged);
    uint64_t Desired = Cur | Set;
    if (Desired == Cur)
      return true;
    // First accesses are logged before the CAS publishes their bits. A
    // lane cleared since the last look is a first access again.
    if (uint64_t First = ~Cur & Own & ~Logged) {
      logLanes(First, Sel, WordAddr, TS, Site);
      Logged |= First;
    }
    if (Cell.compare_exchange_weak(Cur, Desired, std::memory_order_acq_rel,
                                   std::memory_order_acquire))
      return true;
  }
}

bool ShadowMemory::checkLanes(uint64_t &Word, uint64_t Sel,
                              uintptr_t WordAddr, bool IsWrite,
                              ThreadState &TS, const AccessSite *Site,
                              uint64_t Logged) {
  std::atomic_ref<uint64_t> Cell(Word);
  bool Ok = true;
  for (uint64_t Rest = Sel & LaneLow; Rest; Rest &= Rest - 1) {
    const unsigned Shift = static_cast<unsigned>(std::countr_zero(Rest));
    const uint64_t Writer = uint64_t(1) << Shift;
    const uint64_t Own = Writer << TS.Tid;
    const uint64_t Bits = LaneMask << Shift;
    const uintptr_t GranuleAddr = WordAddr + (uintptr_t(Shift >> LaneShift)
                                              << GranuleShift);
    uint64_t Cur = Cell.load(std::memory_order_acquire);
    uint64_t Lane;
    bool Conflict;
    while (true) {
      Lane = Cur & Bits;
      uint64_t Others = Lane & ~(Own | Writer);
      Conflict = IsWrite ? Others != 0 : (Lane & Writer) != 0 && Others != 0;
      uint64_t DesiredLane;
      if (Conflict) {
        // Claim the granule anyway so one bug yields one report per
        // site rather than a storm.
        DesiredLane = IsWrite ? (Writer | Own) : (Lane | Own);
      } else {
        DesiredLane = Lane | Own | (IsWrite ? Writer : 0);
      }
      if ((Lane & Own) == 0 && (Logged & Own) == 0) {
        TS.AccessLog.log(GranuleAddr, 1, GranuleMask + 1, Site);
        Logged |= Own;
      }
      uint64_t Desired = (Cur & ~Bits) | DesiredLane;
      if (Desired == Cur)
        break;
      if (Cell.compare_exchange_weak(Cur, Desired, std::memory_order_acq_rel,
                                     std::memory_order_acquire))
        break;
      // Cur reloaded by compare_exchange; retry the full check.
    }

    if (Conflict) {
      if (Config.Guard.OnViolation == guard::Policy::Quarantine &&
          isGranuleQuarantined(GranuleAddr))
        continue; // Demoted to racy-equivalent: proceeds unchecked.
      Ok = false;
      reportConflict(IsWrite, GranuleAddr, TS, Site, Lane >> Shift);
    }
  }
  return Ok;
}

void ShadowMemory::logLanes(uint64_t First, uint64_t Sel, uintptr_t WordAddr,
                            ThreadState &TS, const AccessSite *Site) {
  const uintptr_t GranuleBytes = GranuleMask + 1;
  uint64_t Lanes = First >> TS.Tid; // bit 0 of each lane to log
  if (Lanes == (Sel & LaneLow)) {
    // Every lane in range, which are consecutive: one stretch.
    uintptr_t Lane = uintptr_t(std::countr_zero(Lanes)) >> LaneShift;
    TS.AccessLog.log(WordAddr + (Lane << GranuleShift),
                     static_cast<size_t>(std::popcount(Lanes)), GranuleBytes,
                     Site);
    return;
  }
  // Otherwise lane by lane; the log grows a run across neighbours.
  for (; Lanes; Lanes &= Lanes - 1)
    TS.AccessLog.log(WordAddr + (uintptr_t(std::countr_zero(Lanes) >> LaneShift)
                                 << GranuleShift),
                     1, GranuleBytes, Site);
}

void ShadowMemory::reportConflict(bool IsWrite, uintptr_t Addr,
                                  ThreadState &TS, const AccessSite *Site,
                                  uint64_t SeenLane) {
  ConflictReport Report;
  Report.Kind = IsWrite ? ReportKind::WriteConflict : ReportKind::ReadConflict;
  Report.Address = Addr;
  Report.WhoTid = TS.Tid;
  Report.WhoSite = Site;
  // "last" (DESIGN.md §8 item 7): the lowest other id in the lane, and the
  // site of that thread's newest run containing the granule. Retired
  // states' logs are empty. No check runs under the registry lock, and it
  // is released before the policy runs. Only a report the sink will keep
  // pays for the scan; a repeat, or one past the cap, costs the same
  // however long the log.
  uint64_t Others = SeenLane & ~((uint64_t(1) << TS.Tid) | 1);
  Report.LastTid = static_cast<unsigned>(std::countr_zero(Others));
  Report.LastWasWrite = (SeenLane & 1) != 0;
  if (Sink.wouldRetain(Report))
    Registry.forEachState([&](ThreadState &S) {
      if (S.Tid == Report.LastTid)
        S.AccessLog.forEach(
            [&](uintptr_t First, size_t Count, const AccessSite *RunSite) {
              if (Addr - First < (uintptr_t(Count) << GranuleShift))
                Report.LastSite = RunSite;
            });
    });
  if (guard::onViolation(Config.Guard, Report, Sink) ==
      guard::Verdict::Quarantine)
    quarantineGranule(Addr);
}

bool ShadowMemory::isGranuleQuarantined(uintptr_t GranuleAddr) {
  std::lock_guard<std::mutex> Lock(QuarantineMutex);
  return QuarantinedGranules.count(GranuleAddr) != 0;
}

void ShadowMemory::quarantineGranule(uintptr_t GranuleAddr) {
  std::lock_guard<std::mutex> Lock(QuarantineMutex);
  QuarantinedGranules.insert(GranuleAddr);
}

void ShadowMemory::clearRange(const void *Addr, size_t Size) {
  forEachWord(
      reinterpret_cast<uintptr_t>(Addr), Size,
      [&](uintptr_t PageNumber) { return findCells(PageNumber); },
      [](uint64_t &Word, uint64_t Sel, uintptr_t) {
        std::atomic_ref<uint64_t> Cell(Word);
        if (Sel == ~uint64_t(0))
          Cell.store(0, std::memory_order_release);
        else
          Cell.fetch_and(~Sel, std::memory_order_acq_rel);
      });
}

void ShadowMemory::clearThreadBits(ThreadState &TS) {
  const uint64_t OwnBits = LaneLow << TS.Tid;
  const uint64_t SoleWriter = OwnBits | LaneLow;
  TS.AccessLog.forEach([&](uintptr_t First, size_t Count,
                           const AccessSite *) {
    forEachWord(
        First, uintptr_t(Count) << GranuleShift,
        [&](uintptr_t PageNumber) { return findCells(PageNumber); },
        [&](uint64_t &Word, uint64_t Sel, uintptr_t) {
          std::atomic_ref<uint64_t> Cell(Word);
          const uint64_t Own = OwnBits & Sel;
          uint64_t Cur = Cell.load(std::memory_order_acquire);
          while (Cur & Own) {
            // A lane this thread was the sole writer of resets to 0; in
            // the others only its own bit goes.
            uint64_t Sole = ~nonZeroLanes(Cur ^ SoleWriter) & LaneLow & Sel;
            uint64_t Desired = Cur & ~Own & ~(Sole * LaneMask);
            if (Cell.compare_exchange_weak(Cur, Desired,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire))
              break;
          }
        });
  });
}

uint64_t ShadowMemory::peekWord(const void *Addr) const {
  uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
  uint64_t *Cells = findCells(A >> PageShift);
  if (!Cells)
    return 0;
  size_t G = (A & (PageBytes - 1)) >> GranuleShift;
  uint64_t Word = std::atomic_ref<uint64_t>(Cells[G >> LanesLog])
                      .load(std::memory_order_acquire);
  unsigned Shift = unsigned(G & ((size_t(1) << LanesLog) - 1)) << LaneShift;
  return (Word >> Shift) & LaneMask;
}
