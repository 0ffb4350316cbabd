// Structured observability events (DESIGN.md §10).
//
// Every runtime-ish component of the reproduction — the MiniC
// interpreter, the native rt runtime, and the detectors reached through
// rt's ReportSink — describes what it is doing as a stream of small
// fixed-shape Events published to an obs::Sink.  The interpreter's
// stream is the only record of its schedule: the explorer's footprints
// and the differential fuzzer's replays read it.
#ifndef SHARC_OBS_EVENT_H
#define SHARC_OBS_EVENT_H

#include <cstdint>

namespace sharc::obs {

enum class EventKind : uint8_t {
  // The nine kinds a run's schedule is made of come first: the fuzz
  // oracles' isScheduleEvent (src/fuzz/Oracle.cpp) relies on the order.
  Read = 0,
  Write,
  LockAcquire,
  LockRelease,
  SpawnEdge,
  ThreadStart,
  ThreadExit,
  PtrStore,
  CastQuery,
  // obs-only kinds follow.
  SharedLockAcquire,
  SharedLockRelease,
  SharingCast,
  Conflict,
  // Emitted only when profiling is enabled (never during fuzz runs,
  // whose trace oracle rejects unexpected obs-only kinds): marks the
  // start of a blocking lock acquisition, paired with the following
  // LockAcquire on the same thread/lock to form a wait interval.
  LockWait,
};

inline constexpr unsigned NumEventKinds = 14;

inline const char *eventKindName(EventKind K) {
  switch (K) {
  case EventKind::Read:
    return "read";
  case EventKind::Write:
    return "write";
  case EventKind::LockAcquire:
    return "acquire";
  case EventKind::LockRelease:
    return "release";
  case EventKind::SpawnEdge:
    return "spawn-edge";
  case EventKind::ThreadStart:
    return "thread-start";
  case EventKind::ThreadExit:
    return "thread-exit";
  case EventKind::PtrStore:
    return "ptr-store";
  case EventKind::CastQuery:
    return "cast-query";
  case EventKind::SharedLockAcquire:
    return "shared-acquire";
  case EventKind::SharedLockRelease:
    return "shared-release";
  case EventKind::SharingCast:
    return "sharing-cast";
  case EventKind::Conflict:
    return "conflict";
  case EventKind::LockWait:
    return "lock-wait";
  }
  return "?";
}

// Conflict provenance packed into Event::Extra.  The kind byte unifies
// interp::Violation::Kind and rt::ReportKind into one namespace.
enum class ConflictKind : uint8_t {
  ReadConflict = 0,
  WriteConflict,
  LockViolation,
  CastError,
  RuntimeError,
  LiveAfterCast,
};

inline constexpr unsigned NumConflictKinds = 6;

inline const char *conflictKindName(ConflictKind K) {
  switch (K) {
  case ConflictKind::ReadConflict:
    return "read-conflict";
  case ConflictKind::WriteConflict:
    return "write-conflict";
  case ConflictKind::LockViolation:
    return "lock-violation";
  case ConflictKind::CastError:
    return "cast-error";
  case ConflictKind::RuntimeError:
    return "runtime-error";
  case ConflictKind::LiveAfterCast:
    return "live-after-cast";
  }
  return "?";
}

// Extra layout for Conflict events:
//   bits  0..7   ConflictKind
//   bits  8..31  source line of the faulting access ("who")
//   bits 32..55  source line of the previous access ("last")
inline uint64_t makeConflictExtra(ConflictKind K, uint32_t WhoLine,
                                  uint32_t LastLine) {
  return static_cast<uint64_t>(K) |
         (static_cast<uint64_t>(WhoLine & 0xffffffu) << 8) |
         (static_cast<uint64_t>(LastLine & 0xffffffu) << 32);
}

inline ConflictKind conflictKindOf(uint64_t Extra) {
  return static_cast<ConflictKind>(Extra & 0xff);
}

inline uint32_t conflictWhoLine(uint64_t Extra) {
  return static_cast<uint32_t>((Extra >> 8) & 0xffffffu);
}

inline uint32_t conflictLastLine(uint64_t Extra) {
  return static_cast<uint32_t>((Extra >> 32) & 0xffffffu);
}

// One observed event.  Field meaning by kind:
//   Read/Write            Addr = address, Value = value read/written
//   Lock{Acquire,Release} Addr = lock address (also Shared* variants)
//   SpawnEdge             Addr = spawn synchronisation token
//   ThreadStart           Addr = start token (interp) or 0 (rt)
//   ThreadExit            Addr = 0
//   PtrStore              Addr = cell address, Value = stored pointer
//   CastQuery             Addr = object address, Value = refcount seen
//   SharingCast           Addr = object address, Value = refcount seen
//   Conflict              Addr = address, Value = previous thread id,
//                         Extra = makeConflictExtra(...)
//   LockWait              Addr = lock address, Extra = acquirer line
struct Event {
  EventKind K = EventKind::Read;
  uint32_t Tid = 0;
  uint64_t Addr = 0;
  int64_t Value = 0;
  uint64_t Extra = 0;

  bool operator==(const Event &) const = default;
};

} // namespace sharc::obs

#endif // SHARC_OBS_EVENT_H
