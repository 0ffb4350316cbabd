#include "obs/MetricsJson.h"

namespace sharc::obs {

void appendStatsJson(JsonWriter &W, const rt::StatsSnapshot &S) {
  W.beginObject();
  W.key("dynamic_reads");
  W.value(S.DynamicReads);
  W.key("dynamic_writes");
  W.value(S.DynamicWrites);
  W.key("dynamic_read_bytes");
  W.value(S.DynamicReadBytes);
  W.key("dynamic_write_bytes");
  W.value(S.DynamicWriteBytes);
  W.key("lock_checks");
  W.value(S.LockChecks);
  W.key("rc_barriers");
  W.value(S.RcBarriers);
  W.key("collections");
  W.value(S.Collections);
  W.key("sharing_casts");
  W.value(S.SharingCasts);
  W.key("read_conflicts");
  W.value(S.ReadConflicts);
  W.key("write_conflicts");
  W.value(S.WriteConflicts);
  W.key("lock_violations");
  W.value(S.LockViolations);
  W.key("cast_errors");
  W.value(S.CastErrors);
  W.key("shadow_bytes");
  W.value(S.ShadowBytes);
  W.key("rc_table_bytes");
  W.value(S.RcTableBytes);
  W.key("log_bytes");
  W.value(S.LogBytes);
  W.key("heap_payload_bytes");
  W.value(S.HeapPayloadBytes);
  W.key("peak_heap_payload_bytes");
  W.value(S.PeakHeapPayloadBytes);
  W.key("total_conflicts");
  W.value(S.totalConflicts());
  W.key("dynamic_accesses");
  W.value(S.dynamicAccesses());
  W.key("metadata_bytes");
  W.value(S.metadataBytes());
  W.endObject();
}

std::string statsToJson(const rt::StatsSnapshot &S) {
  JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("sharc-stats-v1");
  W.key("stats");
  appendStatsJson(W, S);
  W.endObject();
  std::string Out = W.take();
  Out.push_back('\n');
  return Out;
}

double schedulesPerSecond(const ExploreCounters &C) {
  return C.WallSeconds > 0 ? static_cast<double>(C.SchedulesRun) / C.WallSeconds
                           : 0.0;
}

void appendExploreJson(JsonWriter &W, const ExploreCounters &C) {
  W.beginObject();
  W.key("schedules_run");
  W.value(C.SchedulesRun);
  W.key("sleep_pruned");
  W.value(C.SleepPruned);
  W.key("bounded_runs");
  W.value(C.BoundedRuns);
  W.key("dpor_pruned");
  W.value(C.DporPruned);
  W.key("preempt_pruned");
  W.value(C.PreemptPruned);
  W.key("steps_total");
  W.value(C.StepsTotal);
  W.key("max_depth");
  W.value(C.MaxDepth);
  W.key("verdict_classes");
  W.value(C.VerdictClasses);
  W.key("violating_classes");
  W.value(C.ViolatingClasses);
  W.key("wall_s");
  W.value(C.WallSeconds);
  W.key("schedules_per_s");
  W.value(schedulesPerSecond(C));
  W.key("bound_hit");
  W.value(C.BoundHit);
  W.key("budget_exhausted");
  W.value(C.BudgetExhausted);
  W.key("complete");
  W.value(C.Complete);
  W.endObject();
}

std::string exploreToJson(const ExploreCounters &C) {
  JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("sharc-explore-v1");
  W.key("explore");
  appendExploreJson(W, C);
  W.endObject();
  std::string Out = W.take();
  Out.push_back('\n');
  return Out;
}

} // namespace sharc::obs
