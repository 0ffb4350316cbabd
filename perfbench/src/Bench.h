//===-- perfbench/src/Bench.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run options, the
/// metric report, order statistics, and the span recorder the traced
/// run uses. Spans are recorded only from the benchmark's own code,
/// around each call into a layer; the layers themselves are unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_PERFBENCH_BENCH_H
#define SHARC_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point From) {
  return std::chrono::duration<double>(Clock::now() - From).count();
}

/// Validated command-line options (Main.cpp parses them strictly).
struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Seconds = 10;
  bool Trace = false;
  /// Work multiplier: corpus sizes and row sizes scale with it. The
  /// default is the measured configuration; 1 is the self-test's smoke
  /// size.
  unsigned Size = 8;
  /// Most threads one row registers with the runtime, the main thread
  /// included; at most min(nproc, 7) for the default one-byte shadow.
  unsigned Threads = 0;
  /// Self-test hook: invert the pinned verdict of this shipped program so
  /// the run must fail.
  std::string FlipExpectation;
  /// Where the traced run writes its spans (one JSON object a line).
  std::string SpansOut;
  /// Source revision stamped into the output (run.py supplies it).
  std::string Rev;
};

/// Runs \p Pass() until \p Seconds have passed and at least \p MinPasses
/// ran. With \p SetUpSec non-null it also repeats \p SetUp() -> bool
/// between passes, about every Seconds/8, appending each repetition's
/// seconds: host speed drifts over seconds, so set-ups spread over the
/// run give a median that repeats from run to run, where back-to-back
/// ones would share one drift. \returns false if a set-up failed.
template <typename PassT, typename SetUpT>
bool measure(double Seconds, unsigned MinPasses, PassT Pass, SetUpT SetUp,
             std::vector<double> *SetUpSec) {
  Clock::time_point Start = Clock::now(), LastSetUp = Start;
  for (unsigned Passes = 0;
       Passes < MinPasses || secondsSince(Start) < Seconds; ++Passes) {
    Pass();
    if (SetUpSec && secondsSince(LastSetUp) >= Seconds / 8) {
      LastSetUp = Clock::now();
      if (!SetUp())
        return false;
      SetUpSec->push_back(secondsSince(LastSetUp));
    }
  }
  return true;
}

/// Order statistics over a sample; all take the sample by value.
double median(std::vector<double> V);
/// The estimate of a fixed amount of work timed over repeated passes:
/// the fastest pass. Interference from other processes only ever adds
/// time, so the minimum is what repeats from run to run (bench_table1
/// uses it for the same reason); medians are then taken across programs.
double fastest(const std::vector<double> &V);
/// Linear-interpolated quantile, Q in [0, 1] (the "inclusive" method).
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
double mean(const std::vector<double> &V);

/// The metrics one run prints, in order, with unit and sample count.
class Report {
public:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
    uint64_t Samples;
  };

  void add(const std::string &Name, double Value, const std::string &Unit,
           uint64_t Samples);
  const Entry *find(const std::string &Name) const;
  /// Prints the human-readable table, then the JSON result line, which
  /// must be the last line of standard output.
  void print(bool Correct, uint64_t Attempted, uint64_t Failed) const;

private:
  std::vector<Entry> Entries;
};

/// Outcome counters every workload fills.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Describes a wrong answer on standard error and counts it.
  void fail(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace trace {

/// One closed span. Parent links stay within a thread; spans recorded on
/// worker threads are roots of their thread and carry their row's Id.
struct Span {
  const char *Name = nullptr;
  uint64_t Id = 0;
  int32_t Parent = -1;   ///< Index into the same thread's spans, or -1.
  uint32_t Thread = 0;   ///< 0 is the main thread.
  int64_t StartNs = 0;   ///< Since the recorder's epoch.
  int64_t EndNs = 0;
  int64_t ChildNs = 0;   ///< Time covered by same-thread children.
  int64_t selfNs() const { return EndNs - StartNs - ChildNs; }
};

/// Turns recording on or off for every thread. Off costs one relaxed
/// load per scope.
void setEnabled(bool On);
bool enabled();

/// RAII span. \p Name must be a string literal.
class Scope {
public:
  Scope(const char *Name, uint64_t Id);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  int32_t Index = -1;
};

/// Every span recorded so far, from all threads (worker threads hand
/// theirs over when they exit).
std::vector<Span> collect();

/// Writes \p Spans to \p Path, one JSON object a line. \returns false on
/// an I/O error.
bool writeSpans(const std::vector<Span> &Spans, const std::string &Path);

/// Self time, in seconds, of the spans named \p Name (with id \p Id,
/// unless it is AnyId), summed.
constexpr uint64_t AnyId = ~uint64_t(0);
double selfSec(const std::vector<Span> &Spans, const char *Name,
               uint64_t Id = AnyId);

/// Share, in percent, of [From, To] that main-thread root spans cover.
double coveragePct(const std::vector<Span> &Spans, Clock::time_point From,
                   Clock::time_point To);

} // namespace trace

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Each workload measures for Opts.Seconds, fills \p Out with the metrics
/// its mode asks for, and counts operations in \p T. \returns false on a
/// set-up error (missing input file), which is reported on stderr.
bool runRowWorkload(const Options &Opts, Report &Out, Tally &T);
bool runMinicWorkload(const Options &Opts, Report &Out, Tally &T);

/// The runtime microprobes of the traced run. \p Shadow selects the
/// shadow-path probes (scan), otherwise the ownership-path probes
/// (handoff); the other group reads 0.
void runProbes(const Options &Opts, bool Shadow, Report &Out);

/// Peak resident set of this process so far, in MiB.
double peakRssMb();

} // namespace perfbench

#endif // SHARC_PERFBENCH_BENCH_H
