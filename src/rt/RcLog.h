//===-- rt/RcLog.h - Per-thread chunked logs --------------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-thread, mostly-unsynchronized log behind the update logs of the
/// adapted Levanoni-Petrank algorithm (Section 4.3) and the first-access
/// log of Section 4.2.1 (ThreadState::AccessLog). An update log records,
/// for the first write to each slot in an epoch, the slot address and the
/// value it held before the write.
///
/// The log is a linked list of fixed-size chunks so that entries never
/// move: the owning thread appends with only a release store of the size
/// counter, and other threads may scan it concurrently without locking
/// (the collector scans the *live* epoch's log for the "dirty bit set
/// again" case; conflict reports scan another thread's access log).
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_RCLOG_H
#define SHARC_RT_RCLOG_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace sharc {
namespace rt {

/// Append-only chunked log. push() may only be called by the owning thread
/// and forEach()/findOldFor() concurrently by any thread; clear() only once
/// no other thread can append or scan (the collector after the epoch
/// handshake; the registry, under its lock, when the owner deregisters).
template <typename EntryT> class ChunkedLog {
  static constexpr size_t ChunkSize = 256;

  struct Chunk {
    EntryT Entries[ChunkSize];
    std::atomic<Chunk *> Next{nullptr};
  };

public:
  ChunkedLog() = default;
  ~ChunkedLog() { freeChunks(); }

  ChunkedLog(const ChunkedLog &) = delete;
  ChunkedLog &operator=(const ChunkedLog &) = delete;

  /// Appends an entry (owner thread only).
  void push(const EntryT &Entry) {
    size_t N = Size.load(std::memory_order_relaxed);
    if (!Head) {
      Head = new Chunk();
      Tail = Head;
    } else if (N % ChunkSize == 0 && N != 0) {
      Chunk *NewChunk = new Chunk();
      Tail->Next.store(NewChunk, std::memory_order_release);
      Tail = NewChunk;
    }
    Tail->Entries[N % ChunkSize] = Entry;
    Size.store(N + 1, std::memory_order_release);
  }

  bool empty() const { return Size.load(std::memory_order_acquire) == 0; }

  size_t size() const { return Size.load(std::memory_order_acquire); }

  /// Invokes Fn(Entry) for every entry present at call time, in append
  /// order. Safe against a concurrently appending owner: Head is read only
  /// once the acquire load of Size has seen an entry, since the first
  /// push() writes Head.
  template <typename FnT> void forEach(FnT Fn) const {
    size_t N = Size.load(std::memory_order_acquire);
    if (N == 0)
      return;
    const Chunk *C = Head;
    for (size_t I = 0; I < N; ++I) {
      if (I != 0 && I % ChunkSize == 0)
        C = C->Next.load(std::memory_order_acquire);
      Fn(C->Entries[I % ChunkSize]);
    }
  }

  /// \returns the Old value of the first entry for \p Slot, through
  /// \p Found; false if no entry mentions the slot (update logs only).
  bool findOldFor(uintptr_t Slot, uintptr_t &Found) const {
    bool Hit = false;
    forEach([&](const EntryT &E) {
      if (!Hit && E.Slot == Slot) {
        Found = E.Old;
        Hit = true;
      }
    });
    return Hit;
  }

  /// Drops all entries and returns chunks for reuse (see the class comment
  /// for who may call this).
  void clear() {
    Size.store(0, std::memory_order_release);
    // Keep the first chunk to avoid churn; free the rest.
    if (Head) {
      Chunk *C = Head->Next.exchange(nullptr, std::memory_order_acq_rel);
      while (C) {
        Chunk *Next = C->Next.load(std::memory_order_relaxed);
        delete C;
        C = Next;
      }
      Tail = Head;
    }
  }

  /// Bytes of chunk storage behind the live entries; an empty log counts
  /// as none (its Head may still be in the owner's first push()).
  size_t memoryFootprint() const {
    if (empty())
      return 0;
    size_t Bytes = 0;
    for (const Chunk *C = Head; C; C = C->Next.load(std::memory_order_acquire))
      Bytes += sizeof(Chunk);
    return Bytes;
  }

private:
  void freeChunks() {
    Chunk *C = Head;
    while (C) {
      Chunk *Next = C->Next.load(std::memory_order_relaxed);
      delete C;
      C = Next;
    }
    Head = Tail = nullptr;
  }

  Chunk *Head = nullptr;
  Chunk *Tail = nullptr;
  std::atomic<size_t> Size{0};
};

/// One logged reference update: the slot written and its previous value.
struct RcLogEntry {
  uintptr_t Slot = 0;
  uintptr_t Old = 0;
};

/// A reference-count update log (one per thread and epoch parity).
using RcLog = ChunkedLog<RcLogEntry>;

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_RCLOG_H
