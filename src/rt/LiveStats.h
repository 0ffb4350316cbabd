//===-- rt/LiveStats.h - Online introspection snapshots ---------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sharc-live (DESIGN.md §13): the data model behind the in-process stats
/// endpoint. A LiveSnapshot is everything a scrape can see — the runtime
/// counter snapshot plus guard/watchdog state, lock contention aggregates,
/// and engine liveness — and StatsHub is the thread-safe mailbox a
/// producer (the MiniC interpreter's polling hook, or the native runtime)
/// publishes it through.
///
/// Everything in this header is header-only, mirroring the layering of
/// rt/Guard.h: the interpreter publishes LiveSnapshots without linking
/// sharc_rt; the HTTP listener itself (rt/StatsServer.h) lives inside
/// sharc_rt. The Prometheus text rendering is also here, as is the
/// metric-name mapping (forEachStatMetric) that `sharc-trace check-live`
/// uses to cross-check a scrape against a trace's final stats sample —
/// one definition, so the endpoint and the checker cannot drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_LIVESTATS_H
#define SHARC_RT_LIVESTATS_H

#include "rt/Guard.h"
#include "rt/Stats.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>

namespace sharc {
namespace live {

/// One coherent view of a running (or just-finished) checked execution.
struct LiveSnapshot {
  /// The runtime counter snapshot — for a finished run this is exactly
  /// the final stats sample written into the .strc trace, which is what
  /// the acceptance check `sharc-trace check-live` pins.
  rt::StatsSnapshot Stats;

  /// Violations observed including deduplicated repeats (the counter
  /// `Stats.totalConflicts()` counts only snapshot-visible kinds).
  uint64_t TotalViolations = 0;

  /// Active guard policy and watchdog budget (0 = watchdog off).
  guard::Policy Policy = guard::Policy::Continue;
  uint64_t WatchdogMillis = 0;
  /// StallTimeout reports filed by the watchdog so far.
  uint64_t StallReports = 0;

  /// Lock wait/hold aggregates. Units are TSC cycles for the native
  /// runtime and scheduler steps for the interpreter; populated when
  /// profiling is armed, zero otherwise. The native runtime adds each
  /// hold to the releasing thread's counters as the hold ends.
  uint64_t LockAcquires = 0;
  uint64_t LockContended = 0;
  uint64_t LockWaitUnits = 0;
  uint64_t LockHoldUnits = 0;

  /// Cast-drain queue depth: blocks logically freed but not yet released
  /// because pending Levanoni-Petrank logs may still name their counted
  /// slots (rt::Heap::getNumDeferred). Always 0 for the interpreter,
  /// whose frees are immediate.
  uint64_t CastDrainQueueDepth = 0;

  /// Engine liveness.
  uint64_t ThreadsLive = 0;
  uint64_t ThreadsSpawned = 0;
  uint64_t Steps = 0;   ///< Interpreter scheduler steps (0 for native).
  bool Running = true;  ///< False once the run has completed.
};

/// Thread-safe single-slot mailbox between one producer (the engine) and
/// any number of scrapers (the HTTP listener's handler thread). Writers
/// overwrite; readers always see the latest complete snapshot.
class StatsHub {
public:
  void update(const LiveSnapshot &S) {
    std::lock_guard<std::mutex> Lock(Mu);
    Snap = S;
    Published = true;
  }

  LiveSnapshot load() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Snap;
  }

  /// True once any snapshot has been published.
  bool hasSnapshot() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Published;
  }

private:
  mutable std::mutex Mu;
  LiveSnapshot Snap;
  bool Published = false;
};

//===----------------------------------------------------------------------===//
// Metric mapping — the single source of truth for how a StatsSnapshot
// projects onto Prometheus series. Fn signature:
//   Fn(family, labelKey, labelValue, value)
// labelKey/labelValue are nullptr for label-less series.
//===----------------------------------------------------------------------===//

template <typename FnT>
inline void forEachStatMetric(const rt::StatsSnapshot &S, FnT &&Fn) {
  // Per-kind check counts (counters).
  Fn("sharc_checks_total", "kind", "dynamic_reads", S.DynamicReads);
  Fn("sharc_checks_total", "kind", "dynamic_writes", S.DynamicWrites);
  Fn("sharc_checks_total", "kind", "lock_checks", S.LockChecks);
  Fn("sharc_checks_total", "kind", "rc_barriers", S.RcBarriers);
  Fn("sharc_checks_total", "kind", "collections", S.Collections);
  Fn("sharc_checks_total", "kind", "sharing_casts", S.SharingCasts);
  // Checked access volume (counters).
  Fn("sharc_access_bytes_total", "dir", "read", S.DynamicReadBytes);
  Fn("sharc_access_bytes_total", "dir", "write", S.DynamicWriteBytes);
  // Violation tallies (counters).
  Fn("sharc_violations_total", "kind", "read_conflict", S.ReadConflicts);
  Fn("sharc_violations_total", "kind", "write_conflict", S.WriteConflicts);
  Fn("sharc_violations_total", "kind", "lock_violation", S.LockViolations);
  Fn("sharc_violations_total", "kind", "cast_error", S.CastErrors);
  // Metadata and heap footprint (gauges).
  Fn("sharc_metadata_bytes", "kind", "shadow", S.ShadowBytes);
  Fn("sharc_metadata_bytes", "kind", "rc_table", S.RcTableBytes);
  Fn("sharc_metadata_bytes", "kind", "log", S.LogBytes);
  Fn("sharc_heap_payload_bytes", nullptr, nullptr, S.HeapPayloadBytes);
  Fn("sharc_heap_payload_peak_bytes", nullptr, nullptr,
     S.PeakHeapPayloadBytes);
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition (version 0.0.4) and the JSON health document
//===----------------------------------------------------------------------===//

namespace detail {

inline void appendSample(std::string &Out, const char *Family,
                         const char *LabelKey, const char *LabelValue,
                         uint64_t Value) {
  Out += Family;
  if (LabelKey) {
    Out += '{';
    Out += LabelKey;
    Out += "=\"";
    Out += LabelValue;
    Out += "\"}";
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), " %llu\n",
                static_cast<unsigned long long>(Value));
  Out += Buf;
}

inline void appendHeader(std::string &Out, const char *Family,
                         const char *Type, const char *Help) {
  Out += "# HELP ";
  Out += Family;
  Out += ' ';
  Out += Help;
  Out += "\n# TYPE ";
  Out += Family;
  Out += ' ';
  Out += Type;
  Out += '\n';
}

} // namespace detail

/// Renders \p S (plus \p Scrapes, the server's own scrape counter) as
/// Prometheus text exposition. Every value is an exact integer — no
/// floating-point formatting — so scrape-vs-trace comparisons are exact.
inline std::string renderPrometheus(const LiveSnapshot &S, uint64_t Scrapes) {
  using detail::appendHeader;
  using detail::appendSample;
  std::string Out;
  Out.reserve(2048);

  // The StatsSnapshot projection. Series come from forEachStatMetric —
  // the same mapping `sharc-trace check-live` verifies scrapes against —
  // already grouped by family, so a header is emitted on family change.
  // Families whose name ends in _total are counters, the rest gauges
  // (byte footprints shrink when memory is released).
  const char *LastFamily = "";
  forEachStatMetric(S.Stats, [&](const char *Family, const char *LabelKey,
                                 const char *LabelValue, uint64_t Value) {
    if (std::strcmp(Family, LastFamily) != 0) {
      size_t Len = std::strlen(Family);
      bool Counter = Len > 6 && std::strcmp(Family + Len - 6, "_total") == 0;
      appendHeader(Out, Family, Counter ? "counter" : "gauge",
                   "See DESIGN.md section 13 for the metric schema");
      LastFamily = Family;
    }
    appendSample(Out, Family, LabelKey, LabelValue, Value);
  });

  appendHeader(Out, "sharc_violations_seen_total", "counter",
               "Violations observed including deduplicated repeats");
  appendSample(Out, "sharc_violations_seen_total", nullptr, nullptr,
               S.TotalViolations);

  // Guard / watchdog state.
  appendHeader(Out, "sharc_guard_policy", "gauge",
               "Active violation policy (the labelled policy is 1)");
  appendSample(Out, "sharc_guard_policy", "policy",
               guard::policyName(S.Policy), 1);
  appendHeader(Out, "sharc_watchdog_budget_ms", "gauge",
               "Stall watchdog budget in milliseconds (0 = off)");
  appendSample(Out, "sharc_watchdog_budget_ms", nullptr, nullptr,
               S.WatchdogMillis);
  appendHeader(Out, "sharc_stall_reports_total", "counter",
               "StallTimeout reports filed by the watchdog");
  appendSample(Out, "sharc_stall_reports_total", nullptr, nullptr,
               S.StallReports);

  // Lock contention aggregates.
  appendHeader(Out, "sharc_lock_acquires_total", "counter",
               "Profiled lock acquisitions");
  appendSample(Out, "sharc_lock_acquires_total", nullptr, nullptr,
               S.LockAcquires);
  appendHeader(Out, "sharc_lock_contended_total", "counter",
               "Profiled lock acquisitions that had to wait");
  appendSample(Out, "sharc_lock_contended_total", nullptr, nullptr,
               S.LockContended);
  appendHeader(Out, "sharc_lock_wait_units_total", "counter",
               "Aggregate lock wait time (cycles or scheduler steps)");
  appendSample(Out, "sharc_lock_wait_units_total", nullptr, nullptr,
               S.LockWaitUnits);
  appendHeader(Out, "sharc_lock_hold_units_total", "counter",
               "Aggregate lock hold time (cycles or scheduler steps)");
  appendSample(Out, "sharc_lock_hold_units_total", nullptr, nullptr,
               S.LockHoldUnits);

  // Engine state.
  appendHeader(Out, "sharc_cast_drain_queue_depth", "gauge",
               "Deferred-free blocks awaiting the next RC collection");
  appendSample(Out, "sharc_cast_drain_queue_depth", nullptr, nullptr,
               S.CastDrainQueueDepth);
  appendHeader(Out, "sharc_threads_live", "gauge",
               "Threads currently registered/runnable");
  appendSample(Out, "sharc_threads_live", nullptr, nullptr, S.ThreadsLive);
  appendHeader(Out, "sharc_threads_spawned_total", "counter",
               "Threads ever spawned");
  appendSample(Out, "sharc_threads_spawned_total", nullptr, nullptr,
               S.ThreadsSpawned);
  appendHeader(Out, "sharc_steps_total", "counter",
               "Interpreter scheduler steps (0 for the native runtime)");
  appendSample(Out, "sharc_steps_total", nullptr, nullptr, S.Steps);
  appendHeader(Out, "sharc_run_active", "gauge",
               "1 while the checked run is in progress, 0 once finished");
  appendSample(Out, "sharc_run_active", nullptr, nullptr,
               S.Running ? 1 : 0);
  appendHeader(Out, "sharc_scrapes_total", "counter",
               "Scrapes served by this endpoint, this one included");
  appendSample(Out, "sharc_scrapes_total", nullptr, nullptr, Scrapes);
  return Out;
}

/// The JSON health document served at /health. Hand-rendered (sharc_rt
/// does not link the obs JSON writer); every string inserted is a fixed
/// token, so no escaping is needed.
inline std::string renderHealthJson(const LiveSnapshot &S, uint64_t Scrapes) {
  auto Num = [](uint64_t V) { return std::to_string(V); };
  std::string Out = "{\"schema\":\"sharc-health-v1\"";
  Out += ",\"running\":";
  Out += S.Running ? "true" : "false";
  Out += ",\"policy\":\"";
  Out += guard::policyName(S.Policy);
  Out += "\",\"watchdog_ms\":" + Num(S.WatchdogMillis);
  Out += ",\"stall_reports\":" + Num(S.StallReports);
  Out += ",\"violations_total\":" + Num(S.TotalViolations);
  Out += ",\"conflicts\":" + Num(S.Stats.totalConflicts());
  Out += ",\"dynamic_accesses\":" + Num(S.Stats.dynamicAccesses());
  Out += ",\"lock_checks\":" + Num(S.Stats.LockChecks);
  Out += ",\"sharing_casts\":" + Num(S.Stats.SharingCasts);
  Out += ",\"metadata_bytes\":" + Num(S.Stats.metadataBytes());
  Out += ",\"cast_drain_queue_depth\":" + Num(S.CastDrainQueueDepth);
  Out += ",\"threads_live\":" + Num(S.ThreadsLive);
  Out += ",\"threads_spawned\":" + Num(S.ThreadsSpawned);
  Out += ",\"steps\":" + Num(S.Steps);
  Out += ",\"scrapes\":" + Num(Scrapes);
  Out += "}\n";
  return Out;
}

} // namespace live
} // namespace sharc

#endif // SHARC_RT_LIVESTATS_H
