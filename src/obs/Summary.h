// Trace analysis: the library behind `sharc-trace` (DESIGN.md §10).
// Everything here is pure — a decoded TraceData in, aggregate tables or
// rendered text out — so the fuzzer's fifth oracle and the CLI share
// one implementation.
#ifndef SHARC_OBS_SUMMARY_H
#define SHARC_OBS_SUMMARY_H

#include "obs/TraceFile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sharc::obs {

struct TraceSummary {
  uint64_t TotalEvents = 0;
  uint64_t CountByKind[NumEventKinds] = {};
  uint64_t ConflictsByKind[NumConflictKinds] = {};

  struct PerThread {
    uint32_t Tid = 0;
    uint64_t Reads = 0;
    uint64_t Writes = 0;
    uint64_t LockOps = 0; // acquire/release incl. shared
    uint64_t Casts = 0;   // CastQuery + SharingCast
    uint64_t Conflicts = 0;
  };
  std::vector<PerThread> Threads; // sorted by Tid

  struct LockInfo {
    uint64_t Addr = 0;
    uint64_t Acquires = 0;       // exclusive
    uint64_t SharedAcquires = 0; // rwlock read side
    uint32_t DistinctTids = 0;   // threads that ever acquired it
  };
  std::vector<LockInfo> Locks; // sorted by total acquires, descending

  struct Granule {
    uint64_t Addr = 0; // granule base (Addr >> GranuleShift << GranuleShift)
    uint64_t Accesses = 0;
  };
  std::vector<Granule> HotGranules; // top-N by accesses, descending

  struct ConflictEntry {
    size_t Pos = 0; // index into TraceData::Events
    Event Ev;
  };
  std::vector<ConflictEntry> Conflicts; // in stream order

  uint64_t conflictCount() const {
    return CountByKind[static_cast<unsigned>(EventKind::Conflict)];
  }
  uint64_t accessCount() const {
    return CountByKind[static_cast<unsigned>(EventKind::Read)] +
           CountByKind[static_cast<unsigned>(EventKind::Write)];
  }
};

/// Aggregates a decoded trace. GranuleShift groups access addresses for
/// the hot-granule table (4 matches rt::RuntimeConfig's default).
TraceSummary summarize(const TraceData &Data, unsigned GranuleShift = 4,
                       size_t TopGranules = 10);

/// Human-readable report: totals, per-thread histogram, lock-contention
/// table, hottest granules, conflict timeline, final stats sample.
std::string renderSummary(const TraceSummary &Sum, const TraceData &Data);

/// Re-emits the trace as the fuzzer's detector schedule: one event per
/// line, `<kind> <tid> <addr>`, with the exact mapping the differential
/// fuzzer's detector loop applies when it calls the race detectors with
/// each event's tid (addresses scaled to 8-byte detector granules, spawn
/// edges lowered to lock releases, refcount-only events dropped).
std::string renderSchedule(const TraceData &Data);

/// Every record, one line each, for debugging.
std::string renderDump(const TraceData &Data);

} // namespace sharc::obs

#endif // SHARC_OBS_SUMMARY_H
