//===-- perfbench/src/Main.cpp - The benchmark's entry point --------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// usage: sharc-perfbench --workload scan|handoff|sharcc|explore
//                        [--seed N] [--seconds N] [--trace 0|1]
//                        [--size N] [--threads N] [--rev TEXT]
//                        [--spans-out FILE] [--flip-expectation PROGRAM]
//
// Runs one workload for --seconds, checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
// each with unit and sample count, then one JSON result line. Exit codes:
// 0 all answers right, 1 a wrong answer, 2 a bad argument, 3 a missing
// input file.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <malloc.h>
#include <sched.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Every workload prints all of these with --trace 0 (BENCHMARK.json's
/// end_to_end list, same order).
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
    {"checked_s", "s"},        {"slowdown", "ratio"},
    {"programs_per_s", "1/s"}, {"verdict_ms_p50", "ms"},
    {"verdict_ms_p90", "ms"},  {"decided_pct", "%"},
};

/// Every workload prints all of these with --trace 1 (BENCHMARK.json's
/// per_layer list, same order); a layer a workload does not exercise
/// reads 0 with 0 samples.
const MetricDef PerLayer[] = {
    {"workloads.orig.s", "s"},
    {"workloads.orig.s.pfscan", "s"},
    {"workloads.orig.s.granule_scan", "s"},
    {"workloads.orig.s.pbzip2", "s"},
    {"workloads.orig.s.fftw", "s"},
    {"workloads.orig.s.stunnel", "s"},
    {"workloads.orig.s.dillo", "s"},
    {"rt.added.s", "s"},
    {"rt.added.s.pfscan", "s"},
    {"rt.added.s.granule_scan", "s"},
    {"rt.added.s.pbzip2", "s"},
    {"rt.added.s.fftw", "s"},
    {"rt.added.s.stunnel", "s"},
    {"rt.added.s.dillo", "s"},
    {"rt.init.s", "s"},
    {"rt.conflicts", "count"},
    {"rt.dynamic.calls", "count"},
    {"rt.dynamic.bytes", "bytes"},
    {"rt.dynamic.pct", "%"},
    {"rt.mem.shadow_bytes", "bytes"},
    {"rt.mem.log_bytes", "bytes"},
    {"rt.mem.rc_table_bytes", "bytes"},
    {"rt.mem.overhead_pct", "%"},
    {"rt.lock.checks", "count"},
    {"rt.rc.barriers", "count"},
    {"rt.rc.collections", "count"},
    {"rt.cast.count", "count"},
    {"rt.chkread.ns.t1", "ns"},
    {"rt.chkread.ns.tn", "ns"},
    {"rt.chkwrite.ns.t1", "ns"},
    {"rt.chkwrite.ns.tn", "ns"},
    {"rt.range.ns_per_granule.t1", "ns"},
    {"rt.range.ns_per_granule.tn", "ns"},
    {"rt.exit_clear.ns_per_granule", "ns"},
    {"rt.lockcheck.ns.t1", "ns"},
    {"rt.lockcheck.ns.tn", "ns"},
    {"rt.rcstore.ns.t1", "ns"},
    {"rt.rcstore.ns.tn", "ns"},
    {"rt.scast.ns", "ns"},
    {"rt.collect.ns", "ns"},
    {"fuzz.gen.s", "s"},
    {"minic.parse.s", "s"},
    {"minic.type.s", "s"},
    {"minic.parse.kb_per_s", "KiB/s"},
    {"analysis.infer.s", "s"},
    {"checker.check.s", "s"},
    {"checker.check.inserted", "count"},
    {"checker.check.sites", "count"},
    {"interp.run.s", "s"},
    {"interp.run.steps", "count"},
    {"interp.run.steps_per_s", "1/s"},
    {"interp.run.dynamic_checks", "count"},
    {"interp.run.lock_checks", "count"},
    {"interp.run.casts", "count"},
    {"interp.run.out_of_steps", "count"},
    {"interp.explore.s", "s"},
    {"interp.explore.schedules", "count"},
    {"interp.explore.steps", "count"},
    {"interp.explore.steps_per_s", "1/s"},
    {"interp.explore.max_depth", "count"},
    {"interp.explore.sleep_pruned", "count"},
    {"interp.explore.dpor_pruned", "count"},
    {"interp.explore.undecided", "count"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
};

constexpr unsigned MaxSeconds = 600;
constexpr unsigned MaxSize = 64;
/// Thread ids the runtime's default one-byte shadow word can name.
constexpr unsigned ShadowThreadIds = 7;

unsigned hostCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return 1;
}

const char *compilerName() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "c++ " __VERSION__;
#endif
}

/// Strict decimal: digits only, no sign or space, within [Min, Max].
bool parseNumber(const char *Text, uint64_t Min, uint64_t Max,
                 uint64_t &Out) {
  size_t Len = std::strlen(Text);
  if (Len == 0)
    return false;
  for (size_t I = 0; I != Len; ++I)
    if (Text[I] < '0' || Text[I] > '9')
      return false;
  auto [End, Ec] = std::from_chars(Text, Text + Len, Out);
  return Ec == std::errc() && End == Text + Len && Out >= Min && Out <= Max;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "sharc-perfbench: %s\n"
               "usage: sharc-perfbench --workload scan|handoff|sharcc|"
               "explore [--seed N] [--seconds 1..%u] [--trace 0|1]\n"
               "       [--size 1..%u] [--threads 1..min(nproc,%u)] "
               "[--rev TEXT] [--spans-out FILE]\n"
               "       [--flip-expectation PROGRAM]\n",
               Why, MaxSeconds, MaxSize, ShadowThreadIds);
  return 2;
}

/// \returns 0 on success, else the exit code.
int parseArgs(int Argc, char **Argv, Options &Opts) {
  unsigned ThreadLimit = std::min(hostCpus(), ShadowThreadIds);
  Opts.Threads = ThreadLimit;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      Opts.Workload = Value;
      HaveWorkload = Opts.Workload == "scan" || Opts.Workload == "handoff" ||
                     Opts.Workload == "sharcc" || Opts.Workload == "explore";
      if (!HaveWorkload)
        return usage(("unknown workload '" + Opts.Workload + "'").c_str());
    } else if (Flag == "--seed") {
      if (!parseNumber(Value, 0, UINT64_MAX, N))
        return usage("--seed must be a decimal 64-bit number");
      Opts.Seed = N;
    } else if (Flag == "--seconds") {
      if (!parseNumber(Value, 1, MaxSeconds, N))
        return usage("--seconds out of range");
      Opts.Seconds = static_cast<unsigned>(N);
    } else if (Flag == "--trace") {
      if (!parseNumber(Value, 0, 1, N))
        return usage("--trace must be 0 or 1");
      Opts.Trace = N == 1;
    } else if (Flag == "--size") {
      if (!parseNumber(Value, 1, MaxSize, N))
        return usage("--size out of range");
      Opts.Size = static_cast<unsigned>(N);
    } else if (Flag == "--threads") {
      if (!parseNumber(Value, 1, ThreadLimit, N))
        return usage("--threads out of range (1..min(nproc, 7))");
      Opts.Threads = static_cast<unsigned>(N);
    } else if (Flag == "--rev") {
      Opts.Rev = Value;
    } else if (Flag == "--spans-out") {
      Opts.SpansOut = Value;
    } else if (Flag == "--flip-expectation") {
      Opts.FlipExpectation = Value;
    } else {
      return usage(("unknown argument '" + Flag + "'").c_str());
    }
  }
  if (!HaveWorkload)
    return usage("--workload is required");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (int Status = parseArgs(Argc, Argv, Opts))
    return Status;
  // The row workloads bring the runtime up and down for every checked run.
  // glibc's dynamic mmap threshold would then recycle a freed 16 MiB
  // reference-count table through the heap in some runs and not others,
  // and peak RSS would flip between two values; a fixed threshold keeps
  // every large block its own mapping, as in a process that inits once.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);

#ifdef NDEBUG
  const char *Ndebug = "yes";
#else
  const char *Ndebug = "no";
#endif
  std::printf("host: nproc=%u compiler=\"%s\" build=%s ndebug=%s rev=%s\n",
              hostCpus(), compilerName(), SHARC_PERFBENCH_BUILD_TYPE, Ndebug,
              Opts.Rev.empty() ? "(not given)" : Opts.Rev.c_str());
#ifndef NDEBUG
  std::printf("WARNING: built without NDEBUG; these numbers are not a "
              "baseline\n");
  std::fprintf(stderr, "sharc-perfbench: WARNING: built without NDEBUG; "
                       "these numbers are not a baseline\n");
#endif
  std::printf("run: workload=%s seed=%llu seconds=%u trace=%d size=%u "
              "threads=%u\n",
              Opts.Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
              Opts.Seconds, Opts.Trace ? 1 : 0, Opts.Size, Opts.Threads);

  Report Measured;
  Tally T;
  bool Rows = Opts.Workload == "scan" || Opts.Workload == "handoff";
  if (!(Rows ? runRowWorkload(Opts, Measured, T)
             : runMinicWorkload(Opts, Measured, T)))
    return 3;

  // Re-emit in the canonical order, with the canonical units.
  Report Out;
  const MetricDef *Begin = Opts.Trace ? std::begin(PerLayer) : std::begin(EndToEnd);
  const MetricDef *End = Opts.Trace ? std::end(PerLayer) : std::end(EndToEnd);
  for (const MetricDef *D = Begin; D != End; ++D) {
    const Report::Entry *E = Measured.find(D->Name);
    if (!E && !Opts.Trace) {
      std::fprintf(stderr, "sharc-perfbench: internal error: %s missing\n",
                   D->Name);
      return 3;
    }
    if (E && E->Unit != D->Unit) {
      std::fprintf(stderr, "sharc-perfbench: internal error: %s in %s, not %s\n",
                   D->Name, E->Unit.c_str(), D->Unit);
      return 3;
    }
    Out.add(D->Name, E ? E->Value : 0.0, D->Unit, E ? E->Samples : 0);
  }
  Out.print(T.Failed == 0, T.Attempted, T.Failed);
  return T.Failed == 0 ? 0 : 1;
}
