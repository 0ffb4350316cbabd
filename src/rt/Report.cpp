//===-- rt/Report.cpp -----------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/Report.h"

#include "obs/Sink.h"

#include <cstdio>
#include <functional>

using namespace sharc::rt;

static sharc::obs::ConflictKind toConflictKind(ReportKind Kind) {
  using CK = sharc::obs::ConflictKind;
  switch (Kind) {
  case ReportKind::ReadConflict:
    return CK::ReadConflict;
  case ReportKind::WriteConflict:
    return CK::WriteConflict;
  case ReportKind::LockViolation:
    return CK::LockViolation;
  case ReportKind::CastError:
    return CK::CastError;
  case ReportKind::LiveAfterCast:
    return CK::LiveAfterCast;
  case ReportKind::StallTimeout:
  case ReportKind::ResourceExhausted:
    return CK::RuntimeError;
  }
  return CK::RuntimeError;
}

static const char *kindName(ReportKind Kind) {
  switch (Kind) {
  case ReportKind::ReadConflict:
    return "read conflict";
  case ReportKind::WriteConflict:
    return "write conflict";
  case ReportKind::LockViolation:
    return "lock violation";
  case ReportKind::CastError:
    return "sharing cast error";
  case ReportKind::LiveAfterCast:
    return "live-after-cast warning";
  case ReportKind::StallTimeout:
    return "stall timeout";
  case ReportKind::ResourceExhausted:
    return "resource exhaustion";
  }
  return "conflict";
}

std::string ConflictReport::format() const {
  char Buf[512];
  std::string Out;
  std::snprintf(Buf, sizeof(Buf), "%s(0x%llx):\n", kindName(Kind),
                static_cast<unsigned long long>(Address));
  Out += Buf;
  if (WhoSite) {
    std::snprintf(Buf, sizeof(Buf), "  who(%u)  %s @ %s: %d\n", WhoTid,
                  WhoSite->LValue, WhoSite->File, WhoSite->Line);
    Out += Buf;
  } else {
    std::snprintf(Buf, sizeof(Buf), "  who(%u)\n", WhoTid);
    Out += Buf;
  }
  if (LastSite) {
    std::snprintf(Buf, sizeof(Buf), "  last(%u) %s @ %s: %d\n", LastTid,
                  LastSite->LValue, LastSite->File, LastSite->Line);
    Out += Buf;
  }
  return Out;
}

/// Deduplication key: (kind, who-site, granule-ish address) hash-combined
/// into one value; collisions merely suppress an extra copy of a report.
static uint64_t dedupKey(const ConflictReport &R) {
  uint64_t Key = static_cast<uint64_t>(R.Kind) * 1000003u ^
                 std::hash<const void *>()(R.WhoSite);
  return Key * 1000003u ^ std::hash<uintptr_t>()(R.Address);
}

bool ReportSink::hasRoomFor(ReportKind Kind) const {
  size_t KindIdx = static_cast<size_t>(Kind) % NumReportKinds;
  return Reports.size() < MaxReports &&
         !(MaxPerKind && RetainedPerKind[KindIdx] >= MaxPerKind);
}

bool ReportSink::wouldRetain(const ConflictReport &Report) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Seen.count(dedupKey(Report)) == 0 && hasRoomFor(Report.Kind);
}

bool ReportSink::report(const ConflictReport &Report) {
  if (Obs) {
    sharc::obs::Event Ev;
    Ev.K = sharc::obs::EventKind::Conflict;
    Ev.Tid = Report.WhoTid;
    Ev.Addr = Report.Address;
    Ev.Value = static_cast<int64_t>(Report.LastTid);
    Ev.Extra = sharc::obs::makeConflictExtra(
        toConflictKind(Report.Kind),
        Report.WhoSite ? static_cast<uint32_t>(Report.WhoSite->Line) : 0,
        Report.LastSite ? static_cast<uint32_t>(Report.LastSite->Line) : 0);
    Obs->event(Ev);
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  ++TotalByKind[static_cast<size_t>(Report.Kind) % NumReportKinds];
  if (!Seen.insert(dedupKey(Report)).second || !hasRoomFor(Report.Kind))
    return false;
  ++RetainedPerKind[static_cast<size_t>(Report.Kind) % NumReportKinds];
  Reports.push_back(Report);
  return true;
}

std::vector<ConflictReport> ReportSink::takeReports() {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<ConflictReport> Out = std::move(Reports);
  Reports.clear();
  Seen.clear();
  for (size_t &N : RetainedPerKind)
    N = 0;
  return Out;
}

std::vector<ConflictReport> ReportSink::getReports() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Reports;
}

size_t ReportSink::getNumReports() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Reports.size();
}
