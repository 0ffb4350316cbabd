//===-- rt/AddrIndex.h - Lock-free insert-only address index ----*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A concurrent map from an address-sized key to a value, used for the
/// shadow memory's page table (keyed by page number) and the reference
/// count table (keyed by counted value). It is a fixed array of
/// NumBuckets chains: insert prepends a node with one compare-and-swap,
/// and lookups walk a chain without taking a lock. Entries are never
/// removed, so a chain only grows and the index never fills.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_ADDRINDEX_H
#define SHARC_RT_ADDRINDEX_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace sharc {
namespace rt {

template <typename ValueT> class AddrIndex {
public:
  AddrIndex() : Buckets(std::make_unique<std::atomic<Node *>[]>(NumBuckets)) {}
  ~AddrIndex() {
    for (size_t I = 0; I != NumBuckets; ++I) {
      Node *N = Buckets[I].load(std::memory_order_relaxed);
      while (N) {
        Node *Next = N->Next.load(std::memory_order_relaxed);
        delete N;
        N = Next;
      }
    }
  }

  AddrIndex(const AddrIndex &) = delete;
  AddrIndex &operator=(const AddrIndex &) = delete;

  /// \returns the value stored under \p Key, or null if there is none.
  ValueT *find(uintptr_t Key) const {
    for (Node *N = Buckets[bucketOf(Key)].load(std::memory_order_acquire); N;
         N = N->Next.load(std::memory_order_acquire))
      if (N->Key == Key)
        return &N->Value;
    return nullptr;
  }

  /// \returns the value stored under \p Key, first constructing it from
  /// \p Args if there is none. Of racing inserts of one key exactly one
  /// node goes in, and every caller gets that node's value.
  template <typename... ArgTs> ValueT &insert(uintptr_t Key, ArgTs &&...Args) {
    if (ValueT *Found = find(Key))
      return *Found;
    return insertSlow(Key, std::forward<ArgTs>(Args)...);
  }

  /// Number of keys ever inserted.
  size_t getNumEntries() const {
    return NumEntries.load(std::memory_order_relaxed);
  }

  /// Bytes one entry allocates. The bucket array is not counted.
  static constexpr size_t entryBytes() { return sizeof(Node); }

private:
  struct Node {
    template <typename... ArgTs>
    explicit Node(uintptr_t Key, ArgTs &&...Args)
        : Key(Key), Value(std::forward<ArgTs>(Args)...) {}

    const uintptr_t Key;
    std::atomic<Node *> Next{nullptr};
    ValueT Value;
  };

  static constexpr unsigned BucketBits = 16;
  static constexpr size_t NumBuckets = size_t(1) << BucketBits;

  /// Fibonacci hashing: the top bits of the product mix every key bit.
  static size_t bucketOf(uintptr_t Key) {
    return static_cast<size_t>((uint64_t(Key) * 0x9E3779B97F4A7C15ull) >>
                               (64 - BucketBits));
  }

  /// Kept out of line so that callers of insert, which almost always
  /// find their key, stay small.
  template <typename... ArgTs>
  [[gnu::noinline]] ValueT &insertSlow(uintptr_t Key, ArgTs &&...Args) {
    std::atomic<Node *> &Head = Buckets[bucketOf(Key)];
    std::unique_ptr<Node> Fresh;
    Node *Expected = Head.load(std::memory_order_acquire);
    Node *Scanned = nullptr; // Expected's chain from here on was searched.
    while (true) {
      // Only the nodes prepended since the last look can hold Key.
      for (Node *N = Expected; N != Scanned;
           N = N->Next.load(std::memory_order_acquire))
        if (N->Key == Key)
          return N->Value;
      if (!Fresh)
        Fresh = std::make_unique<Node>(Key, std::forward<ArgTs>(Args)...);
      Fresh->Next.store(Expected, std::memory_order_relaxed);
      Scanned = Expected;
      if (Head.compare_exchange_weak(Expected, Fresh.get(),
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
        NumEntries.fetch_add(1, std::memory_order_relaxed);
        return Fresh.release()->Value;
      }
    }
  }

  std::unique_ptr<std::atomic<Node *>[]> Buckets;
  std::atomic<size_t> NumEntries{0};
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_ADDRINDEX_H
