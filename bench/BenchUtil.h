//===-- bench/BenchUtil.h - Shared benchmark helpers ------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing and formatting helpers shared by the table-style benchmark
/// harnesses. SHARC_BENCH_SCALE (env) multiplies workload sizes;
/// SHARC_BENCH_REPS (env) sets timing repetitions (default 3, min taken).
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_BENCH_BENCHUTIL_H
#define SHARC_BENCH_BENCHUTIL_H

#include "obs/Json.h"
#include "support/NumericArg.h"

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace sharc {
namespace bench {

/// Reads unsigned environment knob \p Name, or \p Default when it is
/// unset. A value that is not a decimal integer in [Min, UINT_MAX] exits
/// 2: a bad knob must fail loudly, not hang or corrupt a harness.
inline unsigned envUnsigned(const char *Name, unsigned Default,
                            unsigned Min = 1) {
  const char *Value = std::getenv(Name);
  if (!Value)
    return Default;
  uint64_t Parsed = 0;
  if (!parseUnsigned(Value, Parsed) || Parsed < Min || Parsed > UINT_MAX) {
    std::fprintf(stderr, "%s must be an integer >= %u, got '%s'\n", Name,
                 Min, Value);
    std::exit(2);
  }
  return static_cast<unsigned>(Parsed);
}

inline unsigned scale() { return envUnsigned("SHARC_BENCH_SCALE", 1); }
inline unsigned reps() { return envUnsigned("SHARC_BENCH_REPS", 3); }

/// Times Fn() over reps() runs and returns the minimum seconds (min is
/// the standard noise-robust statistic for fixed-work benchmarks).
template <typename FnT> double timeMinSeconds(FnT Fn) {
  using Clock = std::chrono::steady_clock;
  double Best = 1e100;
  unsigned N = reps();
  for (unsigned I = 0; I != N; ++I) {
    auto Start = Clock::now();
    Fn();
    double Sec = std::chrono::duration<double>(Clock::now() - Start).count();
    if (Sec < Best)
      Best = Sec;
  }
  return Best;
}

inline double pct(double Part, double Whole) {
  return Whole > 0 ? 100.0 * Part / Whole : 0.0;
}

/// Host metadata stamped into every sharc-bench-v1 report so the
/// BENCH_*.json perf trajectory stays comparable across machines:
/// numbers from a 4-core debug build mean nothing next to a 32-core
/// release build unless the report says which is which.
inline std::string compilerId() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

inline const char *buildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// Git revision: the SHARC_GIT_REV environment variable (scripts/ci.sh
/// exports it), falling back to a compile-time -DSHARC_GIT_REV if the
/// build system provides one, then "unknown".
inline std::string gitRev() {
  if (const char *Env = std::getenv("SHARC_GIT_REV"); Env && *Env)
    return Env;
#ifdef SHARC_GIT_REV
  return SHARC_GIT_REV;
#else
  return "unknown";
#endif
}

/// Writes the sharc-bench-v1 "host" member: cpu count, compiler, build
/// type, git revision, and the wall-clock stamp compare-runs orders
/// archived runs by. One helper shared by JsonReport (BENCH_table1 and
/// friends) and sharc-serve's hand-rolled report, so every file landing
/// in bench/history/ stays comparable the same way.
inline void writeHostJson(obs::JsonWriter &W) {
  W.key("host");
  W.beginObject();
  W.key("cpus");
  W.value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  W.key("compiler");
  W.value(compilerId());
  W.key("build");
  W.value(buildType());
  W.key("git_rev");
  W.value(gitRev());
  // Wall-clock stamp so `sharc-trace compare-runs` can order archived
  // runs chronologically even when file names collide across branches.
  W.key("unix_time");
  W.value(static_cast<uint64_t>(std::time(nullptr)));
  W.endObject();
}

/// Machine-readable results for one harness, written as sharc-bench-v1
/// JSON when --json=FILE (or --json FILE) is passed; a no-op otherwise.
/// The text tables on stdout are untouched — the JSON rides along so
/// BENCH_*.json files become the repo's perf trajectory
/// (`sharc-trace check-bench` validates the schema).
class JsonReport {
public:
  JsonReport(const char *Bench, int Argc, char **Argv) : Bench(Bench) {
    for (int I = 1; I < Argc; ++I) {
      const char *Arg = Argv[I];
      if (std::strncmp(Arg, "--json=", 7) == 0)
        Path = Arg + 7;
      else if (std::strcmp(Arg, "--json") == 0 && I + 1 < Argc)
        Path = Argv[++I];
    }
  }

  bool enabled() const { return !Path.empty(); }

  void beginRow(const std::string &Name) {
    Rows.emplace_back(Name, std::vector<std::pair<std::string, double>>());
  }

  void metric(const std::string &Key, double Value) {
    if (Rows.empty())
      beginRow("default");
    Rows.back().second.emplace_back(Key, Value);
  }

  /// Writes the report (if enabled) and folds a write failure into the
  /// harness exit code. Call as `return Report.finish(Status);`.
  int finish(int Status) {
    if (!enabled())
      return Status;
    obs::JsonWriter W;
    W.beginObject();
    W.key("schema");
    W.value("sharc-bench-v1");
    W.key("bench");
    W.value(Bench);
    W.key("scale");
    W.value(static_cast<uint64_t>(scale()));
    W.key("reps");
    W.value(static_cast<uint64_t>(reps()));
    writeHostJson(W);
    W.key("rows");
    W.beginArray();
    for (const auto &[Name, Metrics] : Rows) {
      W.beginObject();
      W.key("name");
      W.value(Name);
      W.key("metrics");
      W.beginObject();
      for (const auto &[Key, Value] : Metrics) {
        W.key(Key);
        W.value(Value);
      }
      W.endObject();
      W.endObject();
    }
    W.endArray();
    W.endObject();
    std::string Text = W.take();
    Text.push_back('\n');
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    bool Ok = F && std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
    if (F && std::fclose(F) != 0)
      Ok = false;
    if (!Ok) {
      std::fprintf(stderr, "%s: cannot write '%s'\n", Bench, Path.c_str());
      return Status ? Status : 2;
    }
    return Status;
  }

private:
  const char *Bench;
  std::string Path;
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      Rows;
};

} // namespace bench
} // namespace sharc

#endif // SHARC_BENCH_BENCHUTIL_H
