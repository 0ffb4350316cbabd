//===-- perfbench/src/Bench.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double fastest(const std::vector<double> &V) {
  return V.empty() ? 0.0 : *std::min_element(V.begin(), V.end());
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / static_cast<double>(V.size());
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void Report::add(const std::string &Name, double Value, const std::string &Unit,
                 uint64_t Samples) {
  Entries.push_back({Name, Value, Unit, Samples});
}

const Report::Entry *Report::find(const std::string &Name) const {
  for (const Entry &E : Entries)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

namespace {

/// Shortest text that reads back as exactly \p V.
std::string number(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : std::string("0");
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  Out.push_back('"');
  return Out;
}

} // namespace

void Report::print(bool Correct, uint64_t Attempted, uint64_t Failed) const {
  for (const Entry &E : Entries)
    std::printf("metric %-34s %16s %-6s n=%llu\n", E.Name.c_str(),
                number(E.Value).c_str(), E.Unit.c_str(),
                static_cast<unsigned long long>(E.Samples));
  std::string Line = "{\"correct\": ";
  Line += Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Attempted);
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  bool First = true;
  for (const Entry &E : Entries) {
    if (!First)
      Line += ", ";
    First = false;
    Line += jsonString(E.Name) + ": {\"value\": " + number(E.Value) +
            ", \"unit\": " + jsonString(E.Unit) + "}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

void Tally::fail(const char *Fmt, ...) {
  ++Failed;
  std::fprintf(stderr, "perfbench: WRONG: ");
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
  std::fprintf(stderr, "\n");
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace trace {
namespace {

std::atomic<bool> Enabled{false};
const Clock::time_point Epoch = Clock::now();
std::atomic<uint32_t> NextThread{0};

/// Spans handed over by exited threads, guarded by RetiredMutex.
std::mutex RetiredMutex;
std::vector<Span> Retired;

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

/// One thread's spans and its stack of open ones. A worker's buffer is
/// moved into Retired when the thread exits.
struct ThreadBuffer {
  uint32_t Thread = NextThread.fetch_add(1, std::memory_order_relaxed);
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  ~ThreadBuffer() {
    if (Spans.empty())
      return;
    std::lock_guard<std::mutex> Lock(RetiredMutex);
    Retired.insert(Retired.end(), Spans.begin(), Spans.end());
  }
};

ThreadBuffer &buffer() {
  thread_local ThreadBuffer Buf;
  return Buf;
}

} // namespace

void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
bool enabled() { return Enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char *Name, uint64_t Id) {
  if (!enabled())
    return;
  ThreadBuffer &B = buffer();
  Span S;
  S.Name = Name;
  S.Id = Id;
  S.Parent = B.Open.empty() ? -1 : B.Open.back();
  S.Thread = B.Thread;
  S.StartNs = nowNs();
  Index = static_cast<int32_t>(B.Spans.size());
  B.Spans.push_back(S);
  B.Open.push_back(Index);
}

Scope::~Scope() {
  if (Index < 0)
    return;
  ThreadBuffer &B = buffer();
  Span &S = B.Spans[static_cast<size_t>(Index)];
  S.EndNs = nowNs();
  assert(!B.Open.empty() && B.Open.back() == Index && "spans must nest");
  B.Open.pop_back();
  if (S.Parent >= 0)
    B.Spans[static_cast<size_t>(S.Parent)].ChildNs += S.EndNs - S.StartNs;
}

std::vector<Span> collect() {
  std::vector<Span> All = buffer().Spans;
  std::lock_guard<std::mutex> Lock(RetiredMutex);
  All.insert(All.end(), Retired.begin(), Retired.end());
  return All;
}

bool writeSpans(const std::vector<Span> &Spans, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = true;
  for (const Span &S : Spans)
    Ok &= std::fprintf(F,
                       "{\"name\": \"%s\", \"id\": %llu, \"thread\": %u, "
                       "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": "
                       "%lld, \"self_ns\": %lld}\n",
                       S.Name, static_cast<unsigned long long>(S.Id),
                       S.Thread, S.Parent, static_cast<long long>(S.StartNs),
                       static_cast<long long>(S.EndNs),
                       static_cast<long long>(S.selfNs())) > 0;
  return std::fclose(F) == 0 && Ok;
}

double selfSec(const std::vector<Span> &Spans, const char *Name,
               uint64_t Id) {
  double Sec = 0;
  for (const Span &S : Spans)
    if (std::strcmp(S.Name, Name) == 0 && (Id == AnyId || S.Id == Id))
      Sec += static_cast<double>(S.selfNs()) * 1e-9;
  return Sec;
}

double coveragePct(const std::vector<Span> &Spans, Clock::time_point From,
                   Clock::time_point To) {
  auto ToNs = [](Clock::time_point P) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(P - Epoch)
        .count();
  };
  int64_t Lo = ToNs(From), Hi = ToNs(To);
  std::vector<std::pair<int64_t, int64_t>> Roots;
  for (const Span &S : Spans)
    if (S.Thread == buffer().Thread && S.Parent < 0)
      Roots.emplace_back(std::max(S.StartNs, Lo), std::min(S.EndNs, Hi));
  std::sort(Roots.begin(), Roots.end());
  int64_t Covered = 0, Reach = Lo;
  for (auto [Begin, End] : Roots) {
    Begin = std::max(Begin, Reach);
    if (End > Begin) {
      Covered += End - Begin;
      Reach = End;
    }
  }
  return Hi > Lo ? 100.0 * static_cast<double>(Covered) /
                       static_cast<double>(Hi - Lo)
                 : 0.0;
}

} // namespace trace
} // namespace perfbench
