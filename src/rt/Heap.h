//===-- rt/Heap.h - Granule-aligned checked heap ----------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharc-managed heap. Allocations are aligned to the shadow granule
/// ("SharC ensures that malloc allocates objects on a 16-byte boundary" --
/// Section 4.5), carry a size header so free() can clear the whole object's
/// reader/writer sets, and are *deferred-freed*: the underlying memory is
/// not returned to the system until the next reference-count collection,
/// because counted slots inside a freed object may still be named by
/// pending Levanoni-Petrank log entries that the collector will read.
/// (This mirrors Heapsafe-style delayed frees from the authors' prior
/// work, which SharC builds on.)
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_HEAP_H
#define SHARC_RT_HEAP_H

#include "rt/Config.h"
#include "rt/Report.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace sharc {
namespace rt {

class ShadowMemory;

/// Granule-aligned allocator with size headers and deferred frees.
class Heap {
public:
  Heap(const RuntimeConfig &Config, ShadowMemory &Shadow, ReportSink &Sink);
  ~Heap();

  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// Allocates \p Size bytes aligned to the granule size. Never returns
  /// null: OOM files a ResourceExhausted report and dies through
  /// guard::fatalInternal (exit 3, crash hooks flushed).
  void *allocate(size_t Size);

  /// Logically frees \p Ptr: clears its shadow state immediately and
  /// queues the block; physical release happens at releaseDeferred().
  /// Freeing a block again before that release is fatal (exit 3).
  void deallocate(void *Ptr);

  /// \returns the requested size of a live allocation.
  size_t allocationSize(const void *Ptr) const;

  /// \returns true if \p Ptr is the payload of a live sharc allocation.
  bool isSharcObject(const void *Ptr) const;

  /// Returns all logically-freed blocks to the system. Called from the
  /// reference-count engine's post-collection hook.
  void releaseDeferred();

  /// Number of blocks awaiting physical release; the Runtime triggers a
  /// collection when this grows too large.
  size_t getNumDeferred() const;

  /// Payload bytes of live allocations, and their high-water mark.
  uint64_t getPayloadBytes() const { return PayloadBytes.load(); }
  uint64_t getPeakPayloadBytes() const { return PeakPayloadBytes.load(); }

private:
  struct Header;
  Header *headerFor(const void *Payload) const;
  void addPayload(int64_t Delta);

  const RuntimeConfig &Config;
  ShadowMemory &Shadow;
  ReportSink &Sink;
  size_t HeaderBytes;

  mutable std::mutex Mutex;
  std::vector<void *> Deferred;
  std::atomic<uint64_t> PayloadBytes{0};
  std::atomic<uint64_t> PeakPayloadBytes{0};
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_HEAP_H
