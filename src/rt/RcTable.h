//===-- rt/RcTable.h - Reference count table --------------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An insert-only map from a pointer-sized value to its reference count.
/// Keying counts by *value* (rather than by a header inside the object)
/// mirrors the paper's observation on dillo that "bogus" integers cast to
/// pointer type still get counted; they cost table space (the paper's
/// extra pagefaults) but never crash the runtime.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_RCTABLE_H
#define SHARC_RT_RCTABLE_H

#include "rt/AddrIndex.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sharc {
namespace rt {

/// Concurrent value -> signed count map. Entries are never removed; a
/// count may drop to zero and later revive. Adding is lock-free and the
/// table never fills.
class RcTable {
public:
  /// Adds \p Delta to the count for \p Value.
  void add(uintptr_t Value, int64_t Delta) {
    Counts.insert(Value).fetch_add(Delta, std::memory_order_acq_rel);
  }

  /// \returns the current count for \p Value, or 0 if never seen.
  int64_t get(uintptr_t Value) const {
    const std::atomic<int64_t> *Count = Counts.find(Value);
    return Count ? Count->load(std::memory_order_acquire) : 0;
  }

  /// Number of distinct values ever counted.
  size_t getNumEntries() const { return Counts.getNumEntries(); }

  /// Bytes one counted value's entry allocates.
  static constexpr size_t entryBytes() { return Index::entryBytes(); }

  size_t memoryFootprint() const { return getNumEntries() * entryBytes(); }

private:
  using Index = AddrIndex<std::atomic<int64_t>>;
  Index Counts;
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_RCTABLE_H
