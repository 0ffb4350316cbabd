//===-- workloads/Policy.h - Instrumentation policies -----------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each benchmark workload is written once, templated over a Policy that
/// supplies threads, locks, condition variables, heap, checked accesses,
/// counted pointer slots, and sharing casts:
///
///   - UncheckedPolicy: plain std:: primitives and raw accesses. This is
///     the paper's "Orig." column.
///   - SharcPolicy: sharc::Thread/Mutex/CondVar, the sharc heap, dynamic
///     checks, counted slots and SCASTs. This is the "SharC" column.
///
/// The annotation API used by SharcPolicy is the same public API the
/// examples use (rt/Annotations.h); benchmarks count their uses of it for
/// Table 1's "Annots." column.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_WORKLOADS_POLICY_H
#define SHARC_WORKLOADS_POLICY_H

#include "rt/Sharc.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <type_traits>

namespace sharc {
namespace workloads {

/// The uninstrumented baseline: no checks, no metadata.
struct UncheckedPolicy {
  static constexpr bool Checked = false;
  static const char *name() { return "orig"; }

  using Thread = std::thread;
  using Mutex = std::mutex;
  using UniqueLock = std::unique_lock<std::mutex>;
  using LockGuard = std::lock_guard<std::mutex>;
  class CondVar {
  public:
    void wait(UniqueLock &Lock) { Impl.wait(Lock); }
    template <typename PredT> void wait(UniqueLock &Lock, PredT Pred) {
      Impl.wait(Lock, std::move(Pred));
    }
    void notifyOne() { Impl.notify_one(); }
    void notifyAll() { Impl.notify_all(); }

  private:
    std::condition_variable Impl;
  };

  static void *alloc(size_t Size) { return std::malloc(Size); }
  static void dealloc(void *Ptr) { std::free(Ptr); }

  template <typename T> static T read(const T *Ptr, const AccessSite *) {
    return *Ptr;
  }
  template <typename T>
  static void write(T *Ptr, T Value, const AccessSite *) {
    *Ptr = Value;
  }
  static void readRange(const void *, size_t, const AccessSite *) {}
  static void writeRange(void *, size_t, const AccessSite *) {}

  /// A counted pointer slot: plain pointer in the baseline.
  template <typename T> class Counted {
  public:
    void store(T *Value) { Ptr = Value; }
    T *load() const { return Ptr; }
    /// Sharing cast out of the slot: take and null.
    T *castOut(const AccessSite *) {
      T *Value = Ptr;
      Ptr = nullptr;
      return Value;
    }

  private:
    T *Ptr = nullptr;
  };

  template <typename T> static T *castIn(T *&Local, const AccessSite *) {
    T *Value = Local;
    Local = nullptr;
    return Value;
  }

  /// A lock-protected cell: plain in the baseline.
  template <typename T> class Locked {
  public:
    explicit Locked(Mutex &) {}
    Locked(Mutex &, T Init) : Value(std::move(Init)) {}
    T read(const AccessSite *) const { return Value; }
    void write(T NewValue, const AccessSite *) {
      Value = std::move(NewValue);
    }

  private:
    T Value{};
  };

  /// A thread-owned value: plain in the baseline (the checked variant
  /// asserts the owner; adopt() marks an ownership transfer).
  template <typename T> class Private {
  public:
    Private() : Value() {}
    explicit Private(T Init) : Value(std::move(Init)) {}
    const T &get() const { return Value; }
    T &get() { return Value; }
    void set(T NewValue) { Value = std::move(NewValue); }
    void adopt() {}

  private:
    T Value;
  };

  /// An init-once value: plain in the baseline.
  template <typename T> class ReadOnly {
  public:
    ReadOnly() : Value() {}
    void init(T NewValue) { Value = std::move(NewValue); }
    const T &get() const { return Value; }

  private:
    T Value;
  };

  /// An intentionally racy cell. The baseline also uses relaxed atomics —
  /// same machine cost as a plain access on every mainstream target, and
  /// the "orig" column stays UB-free C++.
  template <typename T> class Racy {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                  "racy values must be small and trivially copyable");

  public:
    Racy() : Value() {}
    explicit Racy(T Init) : Value(Init) {}
    T read() const {
      return std::atomic_ref<T>(const_cast<T &>(Value))
          .load(std::memory_order_relaxed);
    }
    void write(T NewValue) {
      std::atomic_ref<T>(Value).store(NewValue, std::memory_order_relaxed);
    }

  private:
    T Value;
  };

  /// Drains instrumentation state at the end of a run (no-op here).
  static void quiesce() {}
};

/// The SharC-instrumented variant.
struct SharcPolicy {
  static constexpr bool Checked = true;
  static const char *name() { return "sharc"; }

  using Thread = sharc::Thread;
  using Mutex = sharc::Mutex;
  using UniqueLock = sharc::UniqueLock;
  using LockGuard = sharc::LockGuard;
  using CondVar = sharc::CondVar;

  static void *alloc(size_t Size) { return sharc::allocBytes(Size); }
  static void dealloc(void *Ptr) { sharc::freeBytes(Ptr); }

  template <typename T> static T read(const T *Ptr, const AccessSite *Site) {
    return sharc::read(Ptr, Site);
  }
  template <typename T>
  static void write(T *Ptr, T Value, const AccessSite *Site) {
    sharc::write(Ptr, std::move(Value), Site);
  }
  static void readRange(const void *Ptr, size_t Size,
                        const AccessSite *Site) {
    sharc::readRange(Ptr, Size, Site);
  }
  static void writeRange(void *Ptr, size_t Size, const AccessSite *Site) {
    sharc::writeRange(Ptr, Size, Site);
  }

  template <typename T> class Counted {
  public:
    void store(T *Value) { Slot.store(Value); }
    T *load() const { return Slot.load(); }
    T *castOut(const AccessSite *Site) {
      return sharc::scastOut(Slot, Site);
    }

  private:
    sharc::Counted<T> Slot;
  };

  template <typename T> static T *castIn(T *&Local, const AccessSite *Site) {
    return sharc::scastIn(Local, Site);
  }

  template <typename T> using Locked = sharc::Locked<T>;
  template <typename T> using Private = sharc::Private<T>;
  template <typename T> using ReadOnly = sharc::ReadOnly<T>;
  template <typename T> using Racy = sharc::Racy<T>;

  /// Runs a reference-count collection so that pending Levanoni-Petrank
  /// logs naming a workload's counted slots are drained before the slots'
  /// storage is destroyed.
  static void quiesce() {
    rt::Runtime::get().getRc().collect();
  }
};

/// Common result record every workload returns; the bench harness turns
/// these into Table 1 rows.
struct WorkloadResult {
  uint64_t Checksum = 0;   ///< For validating orig and sharc agree.
  uint64_t WorkUnits = 0;  ///< Workload-specific unit (bytes, requests...).
  uint64_t TotalMemoryAccessesEstimate = 0; ///< Denominator for %dynamic
                                            ///< (byte-level accesses).
  uint64_t PeakPayloadBytesEstimate = 0;    ///< Denominator for memory
                                            ///< overhead (the paper's
                                            ///< pagefault baseline).
  unsigned MaxThreads = 0; ///< Table 1 "Threads" column.
  unsigned Annotations = 0; ///< Wrapper/cast uses in the SharC port.
  unsigned OtherChanges = 0; ///< Non-annotation changes in the port.
};

} // namespace workloads
} // namespace sharc

#endif // SHARC_WORKLOADS_POLICY_H
