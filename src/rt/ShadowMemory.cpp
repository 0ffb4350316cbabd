//===-- rt/ShadowMemory.cpp -----------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/ShadowMemory.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace sharc::rt;

/// Shadow for one 4 KiB page of application address space. Cells is a raw
/// byte array holding one little-endian shadow word of
/// Config.ShadowBytesPerGranule bytes per granule.
struct ShadowMemory::Page {
  uintptr_t Base = 0;
  std::atomic<Page *> Next{nullptr};
  std::unique_ptr<uint8_t[]> Cells;
};

static size_t hashPage(uintptr_t PageBase) {
  uint64_t H = static_cast<uint64_t>(PageBase) >> 12;
  H *= 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(H >> 48);
}

ShadowMemory::ShadowMemory(const RuntimeConfig &Config, RuntimeStats &Stats,
                           ReportSink &Sink, ThreadRegistry &Registry)
    : Config(Config), Stats(Stats), Sink(Sink), Registry(Registry) {
  assert(Config.GranuleShift >= 2 && Config.GranuleShift <= PageShift &&
         "granule must be between 4 bytes and one page");
  [[maybe_unused]] unsigned N = Config.ShadowBytesPerGranule;
  assert((N == 1 || N == 2 || N == 4 || N == 8) &&
         "shadow word must be 1, 2, 4 or 8 bytes");
  GranulesPerPage = PageBytes >> Config.GranuleShift;
  Buckets = std::make_unique<std::atomic<Page *>[]>(NumBuckets);
  for (size_t I = 0; I != NumBuckets; ++I)
    Buckets[I].store(nullptr, std::memory_order_relaxed);
}

ShadowMemory::~ShadowMemory() {
  for (size_t I = 0; I != NumBuckets; ++I) {
    Page *P = Buckets[I].load(std::memory_order_relaxed);
    while (P) {
      Page *Next = P->Next.load(std::memory_order_relaxed);
      delete P;
      P = Next;
    }
  }
}

ShadowMemory::Page *ShadowMemory::lookupPage(uintptr_t PageBase) const {
  size_t Bucket = hashPage(PageBase) & (NumBuckets - 1);
  for (Page *P = Buckets[Bucket].load(std::memory_order_acquire); P;
       P = P->Next.load(std::memory_order_acquire))
    if (P->Base == PageBase)
      return P;
  return nullptr;
}

ShadowMemory::Page *ShadowMemory::getOrCreatePage(uintptr_t PageBase) {
  if (Page *P = lookupPage(PageBase))
    return P;

  auto NewPage = std::make_unique<Page>();
  NewPage->Base = PageBase;
  size_t CellBytes = GranulesPerPage * Config.ShadowBytesPerGranule;
  NewPage->Cells = std::make_unique<uint8_t[]>(CellBytes);
  std::memset(NewPage->Cells.get(), 0, CellBytes);

  std::atomic<Page *> &Head = Buckets[hashPage(PageBase) & (NumBuckets - 1)];
  Page *Raw = NewPage.get();
  Page *Expected = Head.load(std::memory_order_acquire);
  while (true) {
    // Re-scan the new portion of the chain for a racing insert of the same
    // page before trying to prepend.
    for (Page *P = Expected; P; P = P->Next.load(std::memory_order_acquire))
      if (P->Base == PageBase)
        return P;
    Raw->Next.store(Expected, std::memory_order_relaxed);
    if (Head.compare_exchange_weak(Expected, Raw, std::memory_order_release,
                                   std::memory_order_acquire)) {
      Stats.ShadowBytes.fetch_add(CellBytes + sizeof(Page),
                                  std::memory_order_relaxed);
      NewPage.release();
      return Raw;
    }
  }
}

namespace {

/// Iterates the granules overlapping [Addr, Addr+Size), invoking
/// Fn(PageBase, GranuleIndexInPage, GranuleAddr) for each.
template <typename FnT>
void forEachGranule(uintptr_t Addr, size_t Size, unsigned GranuleShift,
                    unsigned PageShift, FnT Fn) {
  if (Size == 0)
    Size = 1;
  uintptr_t GranuleSize = uintptr_t(1) << GranuleShift;
  uintptr_t First = Addr & ~(GranuleSize - 1);
  uintptr_t Last = (Addr + Size - 1) & ~(GranuleSize - 1);
  for (uintptr_t G = First;; G += GranuleSize) {
    uintptr_t PageBase = G & ~((uintptr_t(1) << PageShift) - 1);
    size_t Index = (G - PageBase) >> GranuleShift;
    Fn(PageBase, Index, G);
    if (G == Last)
      break;
  }
}

template <typename WordT> WordT loadWord(uint8_t *Cells, size_t Index) {
  return std::atomic_ref<WordT>(reinterpret_cast<WordT *>(Cells)[Index])
      .load(std::memory_order_acquire);
}

} // namespace

template <typename WordT>
bool ShadowMemory::checkAccessImpl(uintptr_t Addr, size_t Size, bool IsWrite,
                                   ThreadState &TS, const AccessSite *Site) {
  const WordT WriterBit = 1;
  const WordT OwnBit = WordT(1) << TS.Tid;
  bool Ok = true;

  forEachGranule(
      Addr, Size, Config.GranuleShift, PageShift,
      [&](uintptr_t PageBase, size_t Index, uintptr_t GranuleAddr) {
        Page *P = getOrCreatePage(PageBase);
        auto *Words = reinterpret_cast<WordT *>(P->Cells.get());
        std::atomic_ref<WordT> Cell(Words[Index]);

        WordT Cur = Cell.load(std::memory_order_acquire);
        bool Conflict = false;
        bool Logged = false;
        while (true) {
          WordT Others = Cur & ~(OwnBit | WriterBit);
          if (IsWrite) {
            // chkwrite: no other readers, no other writer.
            Conflict = Others != 0;
          } else {
            // chkread: no other writer. A writer exists iff bit 0 is set;
            // its identity is the unique other bit.
            Conflict = (Cur & WriterBit) != 0 && Others != 0;
          }
          WordT Desired;
          if (Conflict) {
            // Claim the granule anyway so one bug yields one report per
            // site rather than a storm.
            Desired = IsWrite ? (WriterBit | OwnBit) : (Cur | OwnBit);
          } else {
            Desired = IsWrite ? (Cur | WriterBit | OwnBit) : (Cur | OwnBit);
          }
          // A first access logs the granule before the CAS publishes the
          // bit, so a thread that sees the bit also finds the entry.
          if ((Cur & OwnBit) == 0 && !Logged) {
            TS.AccessLog.push({GranuleAddr, Site});
            Logged = true;
          }
          if (Desired == Cur)
            break;
          if (Cell.compare_exchange_weak(Cur, Desired,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
            break;
          // Cur reloaded by compare_exchange; retry the full check.
        }

        if (Conflict) {
          if (Config.Guard.OnViolation == guard::Policy::Quarantine &&
              isGranuleQuarantined(GranuleAddr)) {
            // Demoted to racy-equivalent: the access proceeds unchecked.
            Conflict = false;
          } else {
            Ok = false;
            reportConflict(IsWrite, GranuleAddr, TS, Site, Cur);
          }
        }
      });
  return Ok;
}

void ShadowMemory::reportConflict(bool IsWrite, uintptr_t Addr,
                                  ThreadState &TS, const AccessSite *Site,
                                  uint64_t SeenWord) {
  ConflictReport Report;
  Report.Kind = IsWrite ? ReportKind::WriteConflict : ReportKind::ReadConflict;
  Report.Address = Addr;
  Report.WhoTid = TS.Tid;
  Report.WhoSite = Site;
  // "last" (DESIGN.md §8 item 7): the lowest other id in the word, and
  // that thread's newest log entry for the granule. Retired states' logs
  // are empty. No check runs under the registry lock, and it is released
  // before the policy runs. Only a report the sink will keep pays for the
  // scan; a repeat, or one past the cap, costs the same however long the
  // log.
  uint64_t Others = SeenWord & ~((uint64_t(1) << TS.Tid) | 1);
  Report.LastTid = static_cast<unsigned>(std::countr_zero(Others));
  Report.LastWasWrite = (SeenWord & 1) != 0;
  if (Sink.wouldRetain(Report))
    Registry.forEachState([&](ThreadState &S) {
      if (S.Tid == Report.LastTid)
        S.AccessLog.forEach([&](const AccessLogEntry &E) {
          if (E.Granule == Addr)
            Report.LastSite = E.Site;
        });
    });
  if (IsWrite)
    Stats.WriteConflicts.fetch_add(1, std::memory_order_relaxed);
  else
    Stats.ReadConflicts.fetch_add(1, std::memory_order_relaxed);
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

bool ShadowMemory::checkRead(const void *Addr, size_t Size, ThreadState &TS,
                             const AccessSite *Site) {
  Stats.DynamicReads.fetch_add(1, std::memory_order_relaxed);
  Stats.DynamicReadBytes.fetch_add(Size ? Size : 1,
                                   std::memory_order_relaxed);
  uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
  switch (Config.ShadowBytesPerGranule) {
  case 1:
    return checkAccessImpl<uint8_t>(A, Size, /*IsWrite=*/false, TS, Site);
  case 2:
    return checkAccessImpl<uint16_t>(A, Size, false, TS, Site);
  case 4:
    return checkAccessImpl<uint32_t>(A, Size, false, TS, Site);
  default:
    return checkAccessImpl<uint64_t>(A, Size, false, TS, Site);
  }
}

bool ShadowMemory::checkWrite(const void *Addr, size_t Size, ThreadState &TS,
                              const AccessSite *Site) {
  Stats.DynamicWrites.fetch_add(1, std::memory_order_relaxed);
  Stats.DynamicWriteBytes.fetch_add(Size ? Size : 1,
                                    std::memory_order_relaxed);
  uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
  switch (Config.ShadowBytesPerGranule) {
  case 1:
    return checkAccessImpl<uint8_t>(A, Size, /*IsWrite=*/true, TS, Site);
  case 2:
    return checkAccessImpl<uint16_t>(A, Size, true, TS, Site);
  case 4:
    return checkAccessImpl<uint32_t>(A, Size, true, TS, Site);
  default:
    return checkAccessImpl<uint64_t>(A, Size, true, TS, Site);
  }
}

template <typename WordT>
void ShadowMemory::clearRangeImpl(uintptr_t Addr, size_t Size) {
  forEachGranule(Addr, Size, Config.GranuleShift, PageShift,
                 [&](uintptr_t PageBase, size_t Index, uintptr_t) {
                   Page *P = lookupPage(PageBase);
                   if (!P)
                     return;
                   auto *Words = reinterpret_cast<WordT *>(P->Cells.get());
                   std::atomic_ref<WordT>(Words[Index])
                       .store(0, std::memory_order_release);
                 });
}

void ShadowMemory::clearRange(const void *Addr, size_t Size) {
  uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
  switch (Config.ShadowBytesPerGranule) {
  case 1:
    return clearRangeImpl<uint8_t>(A, Size);
  case 2:
    return clearRangeImpl<uint16_t>(A, Size);
  case 4:
    return clearRangeImpl<uint32_t>(A, Size);
  default:
    return clearRangeImpl<uint64_t>(A, Size);
  }
}

template <typename WordT>
void ShadowMemory::clearThreadBitsImpl(ThreadState &TS) {
  const WordT WriterBit = 1;
  const WordT OwnBit = WordT(1) << TS.Tid;
  TS.AccessLog.forEach([&](const AccessLogEntry &E) {
    uintptr_t PageBase = E.Granule & ~(uintptr_t(PageBytes) - 1);
    Page *P = lookupPage(PageBase);
    if (!P)
      return;
    size_t Index = (E.Granule - PageBase) >> Config.GranuleShift;
    auto *Words = reinterpret_cast<WordT *>(P->Cells.get());
    std::atomic_ref<WordT> Cell(Words[Index]);
    WordT Cur = Cell.load(std::memory_order_acquire);
    while (true) {
      WordT Desired;
      if ((Cur & WriterBit) != 0 && (Cur & ~WriterBit) == OwnBit)
        Desired = 0; // We were the sole writer; reset the granule.
      else
        Desired = Cur & ~OwnBit;
      if (Desired == Cur)
        break;
      if (Cell.compare_exchange_weak(Cur, Desired, std::memory_order_acq_rel,
                                     std::memory_order_acquire))
        break;
    }
  });
}

void ShadowMemory::clearThreadBits(ThreadState &TS) {
  switch (Config.ShadowBytesPerGranule) {
  case 1:
    return clearThreadBitsImpl<uint8_t>(TS);
  case 2:
    return clearThreadBitsImpl<uint16_t>(TS);
  case 4:
    return clearThreadBitsImpl<uint32_t>(TS);
  default:
    return clearThreadBitsImpl<uint64_t>(TS);
  }
}

uint64_t ShadowMemory::peekWord(const void *Addr) const {
  uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
  uintptr_t PageBase = A & ~(uintptr_t(PageBytes) - 1);
  Page *P = lookupPage(PageBase);
  if (!P)
    return 0;
  size_t Index = (A - PageBase) >> Config.GranuleShift;
  switch (Config.ShadowBytesPerGranule) {
  case 1:
    return loadWord<uint8_t>(P->Cells.get(), Index);
  case 2:
    return loadWord<uint16_t>(P->Cells.get(), Index);
  case 4:
    return loadWord<uint32_t>(P->Cells.get(), Index);
  default:
    return loadWord<uint64_t>(P->Cells.get(), Index);
  }
}
