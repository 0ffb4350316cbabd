// JSON export for rt::StatsSnapshot — the machine-readable face of the
// counters behind Table 1 (DESIGN.md §10).
#ifndef SHARC_OBS_METRICSJSON_H
#define SHARC_OBS_METRICSJSON_H

#include "obs/Json.h"
#include "rt/Stats.h"

#include <string>

namespace sharc::obs {

/// Writes S as a JSON object value (the writer must be positioned where
/// a value is expected, e.g. after key()).
void appendStatsJson(JsonWriter &W, const rt::StatsSnapshot &S);

/// Standalone document: the snapshot plus its derived totals.
std::string statsToJson(const rt::StatsSnapshot &S);

/// Per-exploration counters for sharc-explore (DESIGN.md §14.4): how
/// many schedules ran, how many the reductions cut, and — loudly,
/// never silently — whether the enumeration was complete. Mirrors
/// interp::ExploreStats; the driver copies it over so obs stays free
/// of an interpreter dependency.
struct ExploreCounters {
  uint64_t SchedulesRun = 0;   ///< Complete schedules executed.
  uint64_t SleepPruned = 0;    ///< Executions cut by sleep sets.
  uint64_t BoundedRuns = 0;    ///< Executions cut by the preemption bound.
  uint64_t DporPruned = 0;     ///< Enabled branches DPOR never took.
  uint64_t PreemptPruned = 0;  ///< Picks over the preemption bound.
  uint64_t StepsTotal = 0;
  uint64_t MaxDepth = 0;
  uint64_t VerdictClasses = 0;
  uint64_t ViolatingClasses = 0;
  double WallSeconds = 0;       ///< The whole search, timed by the caller.
  bool BoundHit = false;        ///< Bounded: incomplete by choice.
  bool BudgetExhausted = false; ///< Incomplete: budgets ran out.
  bool Complete = false;        ///< Every inequivalent schedule ran.
};

/// Schedules run per second of wall time; 0 when no time was recorded.
double schedulesPerSecond(const ExploreCounters &C);

/// Writes C as a JSON object value.
void appendExploreJson(JsonWriter &W, const ExploreCounters &C);

/// Standalone "sharc-explore-v1" document.
std::string exploreToJson(const ExploreCounters &C);

} // namespace sharc::obs

#endif // SHARC_OBS_METRICSJSON_H
