//===-- rt/Annotations.h - C++ sharing-mode annotations ---------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native embedding of SharC's five sharing modes for C++ programs
/// (the paper expresses them as C type qualifiers; here they are wrapper
/// templates). This is the public API the example programs and benchmark
/// workloads use:
///
///   sharc::Private<T>   - owned by one thread (dynamic owner assertion)
///   sharc::ReadOnly<T>  - readable by all, writable only at init
///   sharc::Locked<T>    - access requires the associated Mutex held
///   sharc::Racy<T>      - intentional races, accessed with relaxed atomics
///   sharc::Dynamic<T>   - run-time checked: read-only or single-accessor
///
/// plus the pieces that make mode *changes* safe:
///
///   sharc::Counted<T>   - a pointer slot whose stores are reference
///                         counted (a location the analysis would mark
///                         "may be subject to a sharing cast")
///   sharc::scastOut / scastIn - the sharing cast (null + sole-ref check)
///
/// and checked primitives for raw memory (buffers):
///
///   sharc::read(p, site) / sharc::write(p, v, site)
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_ANNOTATIONS_H
#define SHARC_RT_ANNOTATIONS_H

#include "rt/Guard.h"
#include "rt/Runtime.h"

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <new>
#include <shared_mutex>
#include <thread>
#include <type_traits>
#include <utility>

namespace sharc {

using rt::AccessSite;

//===----------------------------------------------------------------------===//
// Threads and locks
//===----------------------------------------------------------------------===//

/// std::thread that registers with the SharC runtime for its lifetime.
class Thread {
public:
  Thread() = default;

  template <typename FnT, typename... ArgTs>
  explicit Thread(FnT &&Fn, ArgTs &&...Args)
      : Impl([Fn = std::forward<FnT>(Fn)](auto &&...Inner) mutable {
          rt::ScopedThreadRegistration Registration;
          Fn(std::forward<decltype(Inner)>(Inner)...);
        },
             std::forward<ArgTs>(Args)...) {}

  Thread(Thread &&) = default;
  Thread &operator=(Thread &&) = default;

  void join() { Impl.join(); }
  bool joinable() const { return Impl.joinable(); }

private:
  std::thread Impl;
};

namespace detail {

/// The acquire path of Mutex and SharedMutex (exclusive or shared hold)
/// while the watchdog or profiling is armed. Profiling times the acquire
/// and attributes its wait to \p Site. The watchdog files a stall report
/// naming the holder if the lock is not obtained within the watchdog
/// interval, or at once under an injected lock-timeout fault, and then
/// keeps waiting: it diagnoses hangs, it does not break them.
template <bool Shared, typename MutexT>
void acquireArmed(rt::Runtime &RT, MutexT &Impl, const void *Lock,
                  const AccessSite *Site) {
  auto TryLock = [&] {
    if constexpr (Shared)
      return Impl.try_lock_shared();
    else
      return Impl.try_lock();
  };
  const uint64_t WatchdogMillis = RT.watchdogMillis();
  const bool Profiled = RT.profilingEnabled();
  const uint64_t Start = rt::readTsc();
  bool Stalled = WatchdogMillis != 0 && guard::faultLockTimeout();
  bool Contended = Stalled || !TryLock();
  if (Contended) {
    if (Profiled)
      RT.onLockWait(Lock, Site);
    bool Acquired = false;
    if (WatchdogMillis != 0 && !Stalled) {
      auto Deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(WatchdogMillis);
      while (!(Acquired = TryLock())) {
        if (std::chrono::steady_clock::now() >= Deadline) {
          Stalled = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    if (Stalled)
      RT.reportLockStall(Lock, Site);
    if (!Acquired) {
      if constexpr (Shared)
        Impl.lock_shared();
      else
        Impl.lock();
    }
  }
  if (WatchdogMillis != 0 && !Shared)
    RT.noteLockHolder(Lock, Site);
  const uint64_t WaitCycles = Contended ? rt::readTsc() - Start : 0;
  if constexpr (Shared) {
    if (Profiled)
      RT.onSharedLockAcquireProfiled(Lock, Site, WaitCycles, Contended);
    else
      RT.onSharedLockAcquire(Lock);
  } else {
    if (Profiled)
      RT.onLockAcquireProfiled(Lock, Site, WaitCycles, Contended);
    else
      RT.onLockAcquire(Lock);
  }
}

} // namespace detail

/// Mutex whose acquire/release maintain the per-thread lock log the
/// locked-mode check consults (Section 4.2.2). When profiling is on or
/// the guard watchdog is armed (GuardConfig::WatchdogMillis or
/// SHARC_WATCHDOG_MS), acquires go through detail::acquireArmed.
class Mutex {
public:
  Mutex() = default;
  /// \p Site names where the lock lives; contention with no per-acquire
  /// site falls back to it in profiles.
  explicit Mutex(const AccessSite *Site) : DeclSite(Site) {}

  void lock(const AccessSite *Site = nullptr) {
    rt::Runtime &RT = rt::Runtime::get();
    if (RT.watchdogMillis() != 0 || RT.profilingEnabled()) [[unlikely]] {
      detail::acquireArmed</*Shared=*/false>(RT, Impl, this, site(Site));
      return;
    }
    Impl.lock();
    RT.onLockAcquire(this);
  }
  void unlock() {
    rt::Runtime::get().onLockRelease(this);
    Impl.unlock();
  }
  bool try_lock() {
    if (!Impl.try_lock())
      return false;
    rt::Runtime &RT = rt::Runtime::get();
    if (RT.watchdogMillis() != 0) [[unlikely]]
      RT.noteLockHolder(this, site(nullptr));
    if (RT.profilingEnabled()) [[unlikely]]
      RT.onLockAcquireProfiled(this, site(nullptr), 0, false);
    else
      RT.onLockAcquire(this);
    return true;
  }

private:
  const AccessSite *site(const AccessSite *S) const {
    return S ? S : DeclSite;
  }

  std::mutex Impl;
  const AccessSite *DeclSite = nullptr;
};

using LockGuard = std::lock_guard<Mutex>;
using UniqueLock = std::unique_lock<Mutex>;

/// Reader-writer mutex maintaining the lock log in both modes: exclusive
/// holds land in the ordinary lock log, shared holds in the shared log.
/// Supports the rwlocked sharing mode (a Section 7 extension).
class SharedMutex {
public:
  SharedMutex() = default;
  explicit SharedMutex(const AccessSite *Site) : DeclSite(Site) {}

  void lock(const AccessSite *Site = nullptr) {
    rt::Runtime &RT = rt::Runtime::get();
    if (RT.watchdogMillis() != 0 || RT.profilingEnabled()) [[unlikely]] {
      detail::acquireArmed</*Shared=*/false>(RT, Impl, this, site(Site));
      return;
    }
    Impl.lock();
    RT.onLockAcquire(this);
  }
  void unlock() {
    rt::Runtime::get().onLockRelease(this);
    Impl.unlock();
  }
  void lock_shared(const AccessSite *Site = nullptr) {
    rt::Runtime &RT = rt::Runtime::get();
    if (RT.watchdogMillis() != 0 || RT.profilingEnabled()) [[unlikely]] {
      detail::acquireArmed</*Shared=*/true>(RT, Impl, this, site(Site));
      return;
    }
    Impl.lock_shared();
    RT.onSharedLockAcquire(this);
  }
  void unlock_shared() {
    rt::Runtime::get().onSharedLockRelease(this);
    Impl.unlock_shared();
  }

private:
  const AccessSite *site(const AccessSite *S) const {
    return S ? S : DeclSite;
  }

  std::shared_mutex Impl;
  const AccessSite *DeclSite = nullptr;
};

using SharedLockGuard = std::shared_lock<SharedMutex>;
using ExclusiveLockGuard = std::unique_lock<SharedMutex>;

/// Condition variable usable with sharc::Mutex; waiting releases and
/// reacquires through Mutex's instrumented lock/unlock.
class CondVar {
public:
  void wait(UniqueLock &Lock) { Impl.wait(Lock); }
  template <typename PredT> void wait(UniqueLock &Lock, PredT Pred) {
    Impl.wait(Lock, std::move(Pred));
  }
  void notifyOne() { Impl.notify_one(); }
  void notifyAll() { Impl.notify_all(); }

private:
  std::condition_variable_any Impl;
};

//===----------------------------------------------------------------------===//
// Checked primitive accesses (dynamic mode on raw memory)
//===----------------------------------------------------------------------===//

/// Dynamic-mode read of *Ptr: chkread then load.
template <typename T>
inline T read(const T *Ptr, const AccessSite *Site = nullptr) {
  rt::Runtime::get().checkRead(Ptr, sizeof(T), Site);
  return *Ptr;
}

/// Dynamic-mode write of *Ptr: chkwrite then store.
template <typename T>
inline void write(T *Ptr, T Value, const AccessSite *Site = nullptr) {
  rt::Runtime::get().checkWrite(Ptr, sizeof(T), Site);
  *Ptr = std::move(Value);
}

/// Dynamic-mode check of a whole range before a bulk operation (memcpy,
/// compression kernel, ...). One chk per granule, not per byte.
inline void readRange(const void *Ptr, size_t Size,
                      const AccessSite *Site = nullptr) {
  rt::Runtime::get().checkRead(Ptr, Size, Site);
}
inline void writeRange(void *Ptr, size_t Size,
                       const AccessSite *Site = nullptr) {
  rt::Runtime::get().checkWrite(Ptr, Size, Site);
}

//===----------------------------------------------------------------------===//
// Mode wrappers
//===----------------------------------------------------------------------===//

/// dynamic: every access is run-time checked to be read-only or
/// single-accessor.
template <typename T> class Dynamic {
public:
  Dynamic() : Value() {}
  explicit Dynamic(T Init) : Value(std::move(Init)) {}

  T read(const AccessSite *Site = nullptr) const {
    rt::Runtime::get().checkRead(&Value, sizeof(T), Site);
    return Value;
  }
  void write(T NewValue, const AccessSite *Site = nullptr) {
    rt::Runtime::get().checkWrite(&Value, sizeof(T), Site);
    Value = std::move(NewValue);
  }

  /// Address for aggregate operations; accesses through it must be
  /// checked by the caller (readRange/writeRange).
  T *raw() { return &Value; }
  const T *raw() const { return &Value; }

private:
  T Value;
};

/// private: owned by one thread. The paper enforces this statically; the
/// wrapper additionally asserts the owner dynamically so misannotated
/// tests fail loudly.
template <typename T> class Private {
public:
  Private() : Value() {}
  explicit Private(T Init) : Value(std::move(Init)) {}

  const T &get() const {
    checkOwner();
    return Value;
  }
  T &get() {
    checkOwner();
    return Value;
  }
  void set(T NewValue) {
    checkOwner();
    Value = std::move(NewValue);
  }

  /// Transfers ownership to the calling thread. Corresponds to a sharing
  /// cast to private; callers pair it with scastIn/scastOut on the
  /// enclosing object.
  void adopt() { Owner = rt::Runtime::get().currentThread().Tid; }

private:
  void checkOwner() const {
    unsigned Tid = rt::Runtime::get().currentThread().Tid;
    if (Owner == 0)
      Owner = Tid;
    assert(Owner == Tid && "private value touched by non-owner thread");
  }

  T Value;
  mutable unsigned Owner = 0;
};

/// readonly: writable only before publication via init(); read-only after.
template <typename T> class ReadOnly {
public:
  ReadOnly() : Value() {}
  explicit ReadOnly(T Init) : Value(std::move(Init)), Published(true) {}

  /// One-time initialization ("a readonly field in a private structure is
  /// writeable" -- init happens before the structure is shared).
  void init(T NewValue) {
    assert(!Published && "readonly value already published");
    Value = std::move(NewValue);
    Published = true;
  }

  const T &get() const { return Value; }

private:
  T Value;
  bool Published = false;
};

/// racy: intentional races. Accesses use relaxed atomics so the C++
/// program stays UB-free while modelling the paper's unchecked mode.
template <typename T> class Racy {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "racy values must be small and trivially copyable");

public:
  Racy() : Value() {}
  explicit Racy(T Init) : Value(std::move(Init)) {}

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

/// locked(L): access requires the associated Mutex to be held by the
/// calling thread; checked against the thread's lock log.
template <typename T> class Locked {
public:
  explicit Locked(Mutex &Lock) : Lock(&Lock), Value() {}
  Locked(Mutex &Lock, T Init) : Lock(&Lock), Value(std::move(Init)) {}

  T read(const AccessSite *Site = nullptr) const {
    rt::Runtime::get().checkLockHeld(Lock, &Value, Site);
    return Value;
  }
  void write(T NewValue, const AccessSite *Site = nullptr) {
    rt::Runtime::get().checkLockHeld(Lock, &Value, Site);
    Value = std::move(NewValue);
  }

  Mutex &getLock() const { return *Lock; }

private:
  Mutex *Lock;
  T Value;
};

/// rwlocked(L): readable while L is held shared or exclusive, writable
/// only while L is held exclusive. The paper's Section 7 names richer
/// lock support as future work; this mode covers the common
/// reader-writer-lock convention the locked mode cannot express.
template <typename T> class RwLocked {
public:
  explicit RwLocked(SharedMutex &Lock) : Lock(&Lock), Value() {}
  RwLocked(SharedMutex &Lock, T Init) : Lock(&Lock), Value(std::move(Init)) {}

  T read(const AccessSite *Site = nullptr) const {
    rt::Runtime::get().checkRwLockHeldForRead(Lock, &Value, Site);
    return Value;
  }
  void write(T NewValue, const AccessSite *Site = nullptr) {
    rt::Runtime::get().checkRwLockHeldForWrite(Lock, &Value, Site);
    Value = std::move(NewValue);
  }

  SharedMutex &getLock() const { return *Lock; }

private:
  SharedMutex *Lock;
  T Value;
};

//===----------------------------------------------------------------------===//
// Counted slots and sharing casts
//===----------------------------------------------------------------------===//

/// A pointer slot whose stores are reference counted: the static analysis
/// marks such locations "may be subject to a sharing cast" (Section 4.3).
/// Counted slots must live in stable storage (sharc heap, globals); the
/// heap defers frees so pending RC logs never read freed slots.
template <typename T> class Counted {
public:
  Counted() { rt::Runtime::get().rcInitSlot(slot()); }
  explicit Counted(T *Init) {
    rt::Runtime::get().rcInitSlot(slot());
    store(Init);
  }
  ~Counted() {
    // Release this slot's reference.
    if (load())
      rt::Runtime::get().rcStore(slot(), nullptr);
  }

  Counted(const Counted &) = delete;
  Counted &operator=(const Counted &) = delete;

  void store(T *Value, const AccessSite *Site = nullptr) {
    rt::Runtime::get().rcStore(slot(), Value, Site);
  }
  T *load() const {
    return static_cast<T *>(rt::Runtime::get().rcLoad(
        const_cast<void *const *>(slot())));
  }

  void **slot() { return reinterpret_cast<void **>(&Ptr); }
  void *const *slot() const {
    return reinterpret_cast<void *const *>(&Ptr);
  }

private:
  T *Ptr = nullptr;
};

/// Sharing cast whose source is a counted slot (e.g. a locked field cast
/// to private): nulls the slot, checks no other counted reference remains,
/// clears the object's access history. \returns the object, now in its new
/// mode; on failure the cast error has been reported and the object is
/// returned anyway so the program can continue.
template <typename T>
inline T *scastOut(Counted<T> &Slot, const AccessSite *Site = nullptr,
                   size_t ObjSize = 0) {
  return static_cast<T *>(rt::Runtime::get().scast(Slot.slot(), ObjSize, Site));
}

/// Sharing cast whose source is an (uncounted) local: nulls the local and
/// checks that no counted reference to the object exists anywhere.
template <typename T>
inline T *scastIn(T *&Local, const AccessSite *Site = nullptr,
                  size_t ObjSize = 0) {
  T *Obj = Local;
  Local = nullptr;
  rt::Runtime::get().checkCast(Obj, ObjSize, Site);
  return Obj;
}

//===----------------------------------------------------------------------===//
// Heap helpers
//===----------------------------------------------------------------------===//

/// Allocates granule-aligned checked memory (paper Section 4.5: "SharC
/// ensures that malloc allocates objects on a 16-byte boundary").
inline void *allocBytes(size_t Size) {
  return rt::Runtime::get().allocate(Size);
}
inline void freeBytes(void *Ptr) { rt::Runtime::get().deallocate(Ptr); }

/// Constructs a T in sharc-managed memory.
template <typename T, typename... ArgTs> T *alloc(ArgTs &&...Args) {
  void *Mem = rt::Runtime::get().allocate(sizeof(T));
  return new (Mem) T(std::forward<ArgTs>(Args)...);
}

/// Destroys and frees an object created with sharc::alloc.
template <typename T> void dealloc(T *Ptr) {
  if (!Ptr)
    return;
  Ptr->~T();
  rt::Runtime::get().deallocate(Ptr);
}

} // namespace sharc

#endif // SHARC_RT_ANNOTATIONS_H
