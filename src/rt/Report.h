//===-- rt/Report.h - Conflict reports --------------------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured conflict reports in the format of the paper's Section 2.1:
///
///   read conflict(0x75324464):
///     who(2)  S->sdata @ pipeline_test.c: 15
///     last(1) nextS->sdata @ pipeline_test.c: 27
///
/// Reports are collected by a ReportSink owned by the Runtime; tests
/// assert on structured fields, tools render them with format().
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_REPORT_H
#define SHARC_RT_REPORT_H

#include "rt/AccessSite.h"

#include <cstdint>
#include <iterator>
#include <mutex>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

namespace sharc {
namespace obs {
class Sink;
} // namespace obs

namespace rt {

/// Kinds of sharing-strategy violations the runtime detects.
enum class ReportKind : uint8_t {
  ReadConflict,   ///< Racy read of a dynamic-mode location.
  WriteConflict,  ///< Racy write of a dynamic-mode location.
  LockViolation,  ///< Access to a locked-mode location without its lock.
  CastError,      ///< Sharing cast of an object with other live references.
  StallTimeout,   ///< Watchdog: a lock wait or cast drain exceeded its budget.
  ResourceExhausted, ///< OOM / capacity failure routed through the guard.
};

constexpr size_t NumReportKinds = 6;

/// How many distinct reports (deduplicated by kind, site and granule) the
/// runtime's sink retains. Further conflicts only bump the totals.
constexpr size_t MaxRuntimeReports = 256;

/// One detected violation.
struct ConflictReport {
  ReportKind Kind = ReportKind::ReadConflict;
  uintptr_t Address = 0;
  /// Who performed the violating access.
  unsigned WhoTid = 0;
  const AccessSite *WhoSite = nullptr;
  /// The other party: for a shadow conflict, another thread holding the
  /// granule (DESIGN.md §8 item 7). 0 / nullptr if unknown.
  unsigned LastTid = 0;
  const AccessSite *LastSite = nullptr;
  bool LastWasWrite = false;

  /// Renders the report in the paper's format.
  std::string format() const;
};

/// Thread-safe collector of ConflictReports with per-(site, granule)
/// deduplication and a retention cap.
class ReportSink {
public:
  explicit ReportSink(size_t MaxReports) : MaxReports(MaxReports) {}

  /// Records \p Report unless an identical (kind, site, granule) report was
  /// already seen. \returns true if the report was newly retained.
  bool report(const ConflictReport &Report);

  /// \returns true if report() would retain \p Report now: its key is new
  /// and no cap is reached. Lets a producer skip work that only a retained
  /// report needs.
  bool wouldRetain(const ConflictReport &Report) const;

  std::vector<ConflictReport> takeReports();
  std::vector<ConflictReport> getReports() const;
  size_t getNumReports() const;

  /// Total violations observed, including deduplicated repeats.
  uint64_t getTotalViolations() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return std::accumulate(std::begin(TotalByKind), std::end(TotalByKind),
                           uint64_t(0));
  }

  /// Total reports of \p K observed, including deduplicated repeats —
  /// the one count of each violation kind: StatsSnapshot's conflict
  /// fields and the stats endpoint's sharc_stall_reports_total read it.
  uint64_t getTotalOfKind(ReportKind K) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return TotalByKind[static_cast<size_t>(K) % NumReportKinds];
  }

  /// When non-null, every report() call (including deduplicated repeats)
  /// is also published as an obs Conflict event.
  void setObs(obs::Sink *Sink) { Obs = Sink; }

  /// Retain at most \p N deduplicated reports per ReportKind (the guard
  /// layer's Continue/Quarantine cap). 0 = unlimited.
  void setMaxPerKind(size_t N) { MaxPerKind = N; }

private:
  /// True if a new report of \p Kind fits under both caps (Mutex held).
  bool hasRoomFor(ReportKind Kind) const;

  size_t MaxReports;
  size_t MaxPerKind = 0;
  obs::Sink *Obs = nullptr;
  mutable std::mutex Mutex;
  std::vector<ConflictReport> Reports;
  std::unordered_set<uint64_t> Seen;
  uint64_t TotalByKind[NumReportKinds] = {};
  size_t RetainedPerKind[NumReportKinds] = {};
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_REPORT_H
