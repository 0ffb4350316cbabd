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
/// With N shadow bytes, up to 8N-1 threads are supported. Checks and
/// updates are a single compare-exchange on the shadow word, mirroring the
/// paper's use of cmpxchg. A thread's first access to a granule logs the
/// granule address so the thread's bits can be cleared cheaply when it
/// exits ("SharC does not consider it a race for two threads to access the
/// same location if their execution does not overlap"). The log entry also
/// carries the access site; it is the only provenance a conflict report
/// has for the other thread's access.
///
/// Shadow is organized in pages covering 4 KiB of application address
/// space each, found through an AddrIndex keyed by page number, so heap,
/// globals, and stack can all be checked without registration.
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
                 const AccessSite *Site);

  /// chkwrite: verifies no other thread has read or written the range, then
  /// records this thread as the writer.
  bool checkWrite(const void *Addr, size_t Size, ThreadState &TS,
                  const AccessSite *Site);

  /// Clears all reader/writer sets for [Addr, Addr+Size). Called when heap
  /// memory is freed and when a sharing cast changes an object's mode
  /// ("after a cast, past accesses by other threads no longer constitute
  /// unintended sharing").
  void clearRange(const void *Addr, size_t Size);

  /// Clears this thread's bits from every granule it touched, using its
  /// first-access log; called at thread exit.
  void clearThreadBits(ThreadState &TS);

  /// \returns the raw shadow word for the granule containing \p Addr, or 0
  /// if no shadow page exists yet. For tests.
  uint64_t peekWord(const void *Addr) const;

  unsigned granuleSize() const { return 1u << Config.GranuleShift; }

  /// Bytes of shadow pages allocated so far; pages are never freed.
  uint64_t getShadowBytes() const;

private:
  struct Page;

  Page *lookupPage(uintptr_t PageBase) const;
  Page *getOrCreatePage(uintptr_t PageBase);

  template <typename WordT>
  bool checkAccessImpl(uintptr_t Addr, size_t Size, bool IsWrite,
                       ThreadState &TS, const AccessSite *Site);
  template <typename WordT> void clearRangeImpl(uintptr_t Addr, size_t Size);
  template <typename WordT> void clearThreadBitsImpl(ThreadState &TS);

  void reportConflict(bool IsWrite, uintptr_t Addr, ThreadState &TS,
                      const AccessSite *Site, uint64_t SeenWord);

  /// Quarantine (guard::Policy::Quarantine only): granules demoted to
  /// racy-equivalent stop firing. Consulted exclusively on the conflict
  /// (cold) path, behind a config-byte compare.
  bool isGranuleQuarantined(uintptr_t GranuleAddr);
  void quarantineGranule(uintptr_t GranuleAddr);

  const RuntimeConfig &Config;
  ReportSink &Sink;
  ThreadRegistry &Registry;

  static constexpr unsigned PageShift = 12;
  static constexpr size_t PageBytes = size_t(1) << PageShift;

  size_t CellBytes; ///< Shadow bytes per page.
  AddrIndex<Page> Pages;
  std::mutex QuarantineMutex;
  std::unordered_set<uintptr_t> QuarantinedGranules;
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_SHADOWMEMORY_H
