//===-- rt/Heap.cpp -------------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/Heap.h"

#include "rt/Guard.h"
#include "rt/ShadowMemory.h"

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace sharc::rt;

namespace {
constexpr uint64_t HeaderMagicLive = 0x5368617243214C56ull;  // "SharC!LV"
constexpr uint64_t HeaderMagicFreed = 0x5368617243214652ull; // "SharC!FR"
} // namespace

/// Placed immediately before the payload; the payload stays granule
/// aligned because HeaderBytes is a multiple of the granule size.
struct Heap::Header {
  uint64_t Magic;
  uint64_t Size;
};

Heap::Heap(const RuntimeConfig &Config, ShadowMemory &Shadow, ReportSink &Sink)
    : Config(Config), Shadow(Shadow), Sink(Sink) {
  size_t Granule = Config.granuleSize();
  HeaderBytes = sizeof(Header);
  if (HeaderBytes % Granule != 0)
    HeaderBytes += Granule - HeaderBytes % Granule;
}

Heap::~Heap() { releaseDeferred(); }

Heap::Header *Heap::headerFor(const void *Payload) const {
  return reinterpret_cast<Header *>(
      reinterpret_cast<uintptr_t>(Payload) - HeaderBytes);
}

void *Heap::allocate(size_t Size) {
  size_t Granule = Config.granuleSize();
  size_t Payload = (Size + Granule - 1) & ~(Granule - 1);
  if (Payload == 0)
    Payload = Granule;
  void *Raw = guard::faultTickOom()
                  ? nullptr
                  : std::aligned_alloc(Granule < 16 ? 16 : Granule,
                                       HeaderBytes + Payload);
  if (!Raw) {
    // Route through the guard so the failure is both visible in the
    // report stream (with size/thread diagnostics) and crash-safe: the
    // hooks flush live traces before the process exits with status 3.
    ConflictReport Report;
    Report.Kind = ReportKind::ResourceExhausted;
    Report.Address = Size;
    Sink.report(Report);
    guard::fatalInternal(
        "out of memory allocating %zu bytes (%zu with header/rounding); "
        "heap payload in use: %llu bytes",
        Size, HeaderBytes + Payload,
        static_cast<unsigned long long>(getPayloadBytes()));
  }
  auto *H = static_cast<Header *>(Raw);
  H->Magic = HeaderMagicLive;
  H->Size = Size;
  addPayload(static_cast<int64_t>(Payload));
  return static_cast<char *>(Raw) + HeaderBytes;
}

void Heap::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  Header *H = headerFor(Ptr);
  if (H->Magic != HeaderMagicLive)
    guard::fatalInternal("free of %p, which is not a live sharc allocation "
                         "(double free?)",
                         Ptr);
  size_t Granule = Config.granuleSize();
  size_t Payload = (H->Size + Granule - 1) & ~(Granule - 1);
  if (Payload == 0)
    Payload = Granule;
  // "When heap memory is deallocated with free(), it is no longer
  // considered to be accessed by any thread, and all of its bits are
  // cleared."
  Shadow.clearRange(Ptr, H->Size ? H->Size : 1);
  H->Magic = HeaderMagicFreed;
  addPayload(-static_cast<int64_t>(Payload));
  std::lock_guard<std::mutex> Lock(Mutex);
  Deferred.push_back(H);
}

/// Tracks a high-water mark for payload bytes.
void Heap::addPayload(int64_t Delta) {
  uint64_t Now = PayloadBytes.fetch_add(static_cast<uint64_t>(Delta),
                                        std::memory_order_relaxed) +
                 static_cast<uint64_t>(Delta);
  uint64_t Peak = PeakPayloadBytes.load(std::memory_order_relaxed);
  while (Now > Peak && !PeakPayloadBytes.compare_exchange_weak(
                           Peak, Now, std::memory_order_relaxed))
    ;
}

size_t Heap::allocationSize(const void *Ptr) const {
  const Header *H = headerFor(Ptr);
  assert(H->Magic == HeaderMagicLive && "not a live sharc allocation");
  return H->Size;
}

bool Heap::isSharcObject(const void *Ptr) const {
  if (!Ptr)
    return false;
  uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
  if (P < HeaderBytes || P % Config.granuleSize() != 0)
    return false;
  // Reading headerFor(Ptr) is only safe for pointers that are actually in
  // sharc-heap blocks; callers use this as a best-effort classifier for
  // pointers they believe they allocated here.
  return headerFor(Ptr)->Magic == HeaderMagicLive;
}

void Heap::releaseDeferred() {
  std::vector<void *> ToFree;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ToFree.swap(Deferred);
  }
  for (void *Raw : ToFree)
    std::free(Raw);
}

size_t Heap::getNumDeferred() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Deferred.size();
}
