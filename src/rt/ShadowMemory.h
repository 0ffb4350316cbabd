//===-- rt/ShadowMemory.h - Reader/writer-set shadow memory -----*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements Section 4.2.1 of the paper: for every 2^GranuleShift bytes of
/// application memory the runtime keeps N shadow bytes encoding the granule's
/// reader and writer sets:
///
///   - bit 0 set: a single thread is reading *and writing* the granule;
///     the writer is the unique thread whose bit is also set.
///   - bit k set (k >= 1): thread with id k is reading the granule, and
///     writing it if bit 0 is also set.
///
/// With N shadow bytes, up to 8N-1 threads are supported. The cells are
/// read and updated as 64-bit words of 8/N lanes, one lane per granule in
/// address order, and every cell is only ever accessed as such a word. A
/// one-granule check is a load and, on a first access, one
/// compare-exchange that changes only its own lane, mirroring the paper's
/// use of cmpxchg; a range check or an exit clear updates a whole word per
/// compare-exchange. A word with a conflicting lane is redone lane by lane
/// in address order, so reports come out as a per-granule check files
/// them. A thread's first access to a granule logs it, as part of a run of
/// consecutive granules (ThreadState::AccessLog), so the thread's bits can
/// be cleared cheaply when it exits ("SharC does not consider it a race
/// for two threads to access the same location if their execution does
/// not overlap"). The run also carries the access site; it is the only
/// provenance a conflict report has for the other thread's access.
///
/// Shadow is organized in pages covering 4 KiB of application address
/// space each, found through an AddrIndex keyed by page number, so heap,
/// globals, and stack can all be checked without registration. Each
/// thread caches the page it used last, and a range looks each of its
/// pages up once.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_SHADOWMEMORY_H
#define SHARC_RT_SHADOWMEMORY_H

#include "rt/AccessSite.h"
#include "rt/AddrIndex.h"
#include "rt/Config.h"
#include "rt/Guard.h"
#include "rt/Report.h"
#include "rt/ThreadRegistry.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>

namespace sharc {
namespace rt {

/// The shadow-memory race checker. One instance per Runtime.
class ShadowMemory {
public:
  ShadowMemory(const RuntimeConfig &Config, ReportSink &Sink,
               ThreadRegistry &Registry);
  ~ShadowMemory();

  ShadowMemory(const ShadowMemory &) = delete;
  ShadowMemory &operator=(const ShadowMemory &) = delete;

  /// chkread: verifies no *other* thread has written [Addr, Addr+Size) in
  /// this granule's current reader/writer sets, then records this thread as
  /// a reader. \returns false (after filing a report) on conflict; the
  /// access is still claimed so execution can continue.
  bool checkRead(const void *Addr, size_t Size, ThreadState &TS,
                 const AccessSite *Site) {
    TS.Counters.bump(Counter::DynamicReads);
    TS.Counters.bump(Counter::DynamicReadBytes, Size ? Size : 1);
    return check</*IsWrite=*/false>(reinterpret_cast<uintptr_t>(Addr), Size,
                                    TS, Site);
  }

  /// chkwrite: verifies no other thread has read or written the range, then
  /// records this thread as the writer.
  bool checkWrite(const void *Addr, size_t Size, ThreadState &TS,
                  const AccessSite *Site) {
    TS.Counters.bump(Counter::DynamicWrites);
    TS.Counters.bump(Counter::DynamicWriteBytes, Size ? Size : 1);
    return check</*IsWrite=*/true>(reinterpret_cast<uintptr_t>(Addr), Size,
                                   TS, Site);
  }

  /// Clears all reader/writer sets for [Addr, Addr+Size). Called when heap
  /// memory is freed and when a sharing cast changes an object's mode
  /// ("after a cast, past accesses by other threads no longer constitute
  /// unintended sharing").
  void clearRange(const void *Addr, size_t Size);

  /// Clears this thread's bits from every granule it touched, using its
  /// first-access log; called at thread exit.
  void clearThreadBits(ThreadState &TS);

  /// \returns the shadow cell (its lane of the word) of the granule
  /// containing \p Addr, or 0 if no shadow page exists yet. For tests.
  uint64_t peekWord(const void *Addr) const;

  unsigned granuleSize() const { return 1u << GranuleShift; }

  /// Bytes of shadow pages allocated so far; pages are never freed.
  uint64_t getShadowBytes() const;

private:
  struct Page;

  /// The inline fast path: one granule on the thread's cached page that
  /// needs no report. Everything else, and a lost compare-exchange, goes
  /// to checkRange.
  template <bool IsWrite>
  bool check(uintptr_t Addr, size_t Size, ThreadState &TS,
             const AccessSite *Site) {
    if ((Addr >> PageShift) == TS.ShadowPage &&
        Size <= GranuleMask + 1 - (Addr & GranuleMask)) {
      // The lane's first bit, counted from the page's first cell.
      size_t Bit = ((Addr & (PageBytes - 1)) >> GranuleShift) << LaneShift;
      std::atomic_ref<uint64_t> Cell(TS.ShadowCells[Bit / 64]);
      unsigned Shift = unsigned(Bit % 64);
      uint64_t Writer = uint64_t(1) << Shift;
      uint64_t Own = Writer << TS.Tid;
      uint64_t Cur = Cell.load(std::memory_order_acquire);
      uint64_t Lane = Cur & (LaneMask << Shift);
      uint64_t Others = Lane & ~(Own | Writer);
      // chkwrite: no other readers, no other writer. chkread: no other
      // writer; a writer exists iff bit 0 is set, and it is the unique
      // other bit.
      if (IsWrite ? Others == 0 : (Lane & Writer) == 0 || Others == 0) {
        uint64_t Desired = Cur | Own | (IsWrite ? Writer : 0);
        if (Desired == Cur)
          return true;
        // A first access logs the granule before the CAS publishes the
        // bit, so a thread that sees the bit also finds the run.
        uint64_t Logged = 0;
        if ((Lane & Own) == 0) {
          TS.AccessLog.log(Addr & ~GranuleMask, 1, GranuleMask + 1, Site);
          Logged = Own;
        }
        if (Cell.compare_exchange_strong(Cur, Desired,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
          return true;
        return checkRange(Addr, Size, IsWrite, TS, Site, Logged);
      }
    }
    return checkRange(Addr, Size, IsWrite, TS, Site, 0);
  }

  /// Checks [Addr, Addr+Size) a word at a time. \p Logged holds the own
  /// bits of lanes whose first access is already logged.
  bool checkRange(uintptr_t Addr, size_t Size, bool IsWrite, ThreadState &TS,
                  const AccessSite *Site, uint64_t Logged);
  /// Checks the lanes \p Sel of \p Word, whose lane 0 is the granule at
  /// \p WordAddr, with one compare-exchange unless a lane conflicts.
  bool checkWord(uint64_t &Word, uint64_t Sel, uintptr_t WordAddr,
                 bool IsWrite, ThreadState &TS, const AccessSite *Site,
                 uint64_t Logged);
  /// The same lane by lane in address order, filing each conflict.
  bool checkLanes(uint64_t &Word, uint64_t Sel, uintptr_t WordAddr,
                  bool IsWrite, ThreadState &TS, const AccessSite *Site,
                  uint64_t Logged);
  /// Logs the first accesses whose own bits are \p First, lanes of
  /// \p Sel, as runs.
  void logLanes(uint64_t First, uint64_t Sel, uintptr_t WordAddr,
                ThreadState &TS, const AccessSite *Site);

  /// Walks the words covering [Addr, Addr+Size), looking each page up
  /// once: Fn(Word, Sel, WordAddr) with Sel the lanes in range and
  /// WordAddr the granule of lane 0, for every word of each page whose
  /// cells PageFn(PageNumber) returns (null skips the page).
  template <typename PageFnT, typename WordFnT>
  void forEachWord(uintptr_t Addr, size_t Size, PageFnT PageFn,
                   WordFnT Fn) const;

  /// The cells of page \p PageNumber, created if need be, through the
  /// thread's page cache.
  uint64_t *cellsFor(ThreadState &TS, uintptr_t PageNumber);
  /// The cells of page \p PageNumber, or null if it has none yet.
  uint64_t *findCells(uintptr_t PageNumber) const;

  /// The lane mask of lanes \p First to \p Last, inclusive.
  uint64_t laneSel(unsigned First, unsigned Last) const {
    return (~uint64_t(0) >> (64 - ((Last + 1) << LaneShift))) &
           (~uint64_t(0) << (First << LaneShift));
  }
  /// Bit 0 of each lane of \p X that is nonzero.
  uint64_t nonZeroLanes(uint64_t X) const {
    return ((((X & ~LaneHigh) + ~LaneHigh) | X) & LaneHigh) >>
           ((1u << LaneShift) - 1);
  }
  /// Nonzero iff a lane in \p Sel of \p Cur conflicts with an access by
  /// \p Tid.
  uint64_t conflictLanes(uint64_t Cur, uint64_t Sel, unsigned Tid,
                         bool IsWrite) const {
    uint64_t Others = Cur & Sel & ~(LaneLow | (LaneLow << Tid));
    if (IsWrite)
      return Others;
    uint64_t Writers = Cur & Sel & LaneLow;
    return Writers ? nonZeroLanes(Others) & Writers : 0;
  }

  void reportConflict(bool IsWrite, uintptr_t Addr, ThreadState &TS,
                      const AccessSite *Site, uint64_t SeenLane);

  /// Quarantine (guard::Policy::Quarantine only): granules demoted to
  /// racy-equivalent stop firing. Consulted exclusively on the conflict
  /// (cold) path, behind a config-byte compare.
  bool isGranuleQuarantined(uintptr_t GranuleAddr);
  void quarantineGranule(uintptr_t GranuleAddr);

  static constexpr unsigned PageShift = 12;
  static constexpr size_t PageBytes = size_t(1) << PageShift;

  const RuntimeConfig &Config;
  ReportSink &Sink;
  ThreadRegistry &Registry;

  unsigned GranuleShift;
  uintptr_t GranuleMask;
  /// log2 of a lane's width in bits (3 for one shadow byte ... 6 for
  /// eight) and of the lanes in a word (3 ... 0).
  unsigned LaneShift;
  unsigned LanesLog;
  /// One lane's bits, bit 0 of every lane, and the top bit of every lane.
  uint64_t LaneMask;
  uint64_t LaneLow;
  uint64_t LaneHigh;
  size_t WordsPerPage;
  AddrIndex<Page> Pages;
  std::mutex QuarantineMutex;
  std::unordered_set<uintptr_t> QuarantinedGranules;
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_SHADOWMEMORY_H
