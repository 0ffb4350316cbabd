//===-- rt/Config.h - Runtime configuration ---------------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration knobs for the SharC runtime. Defaults correspond to the
/// configuration evaluated in the paper: 16-byte granules with one shadow
/// byte each (supporting 8n-1 = 7 concurrent threads) and the adapted
/// Levanoni-Petrank reference-counting algorithm.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_CONFIG_H
#define SHARC_RT_CONFIG_H

#include "rt/Guard.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace sharc {
namespace obs {
class Sink;
} // namespace obs

namespace rt {

/// Which reference-counting engine maintains sharing-cast counts.
enum class RcMode : uint8_t {
  /// No reference counting; scast count checks are skipped. Used as the
  /// "uninstrumented" end of ablation benchmarks.
  None,
  /// Atomically update the count table on every counted pointer write.
  /// This is the naive scheme the paper measures at "over 60%" overhead.
  Atomic,
  /// The paper's adaptation of Levanoni & Petrank's concurrent algorithm:
  /// per-thread unsynchronized logs, double-buffered by epoch, with a
  /// per-slot dirty mark that points at the slot's entry, and the thread
  /// that needs a count acting as the collector.
  LevanoniPetrank,
};

/// Runtime configuration, fixed at Runtime::init() time.
struct RuntimeConfig {
  /// log2 of the granule size tracked by one shadow cell. The paper uses
  /// 16-byte granules (shift 4). bench_granularity sweeps this.
  unsigned GranuleShift = 4;

  /// Number of shadow bytes per granule. Supports 8*N-1 thread ids; the
  /// paper finds N=1 (7 threads) sufficient for its benchmarks.
  unsigned ShadowBytesPerGranule = 1;

  /// Reference-counting engine.
  RcMode Rc = RcMode::LevanoniPetrank;

  /// Failure semantics: violation policy, per-kind report cap, and the
  /// stall watchdog (DESIGN.md §12). Runtime::init() additionally honors
  /// SHARC_POLICY from the environment, which overrides OnViolation.
  guard::GuardConfig Guard;

  /// Observability sink. When non-null the runtime publishes structured
  /// events (accesses, lock transitions, sharing casts, conflicts, stats
  /// samples) to it; the sink must be thread-safe (obs::Collector) and
  /// outlive the runtime. Null (the default) costs one predictable
  /// branch on the paths that would publish.
  obs::Sink *Obs = nullptr;

  /// Per-site cost profiling (sharc-prof, DESIGN.md §11). Requires Obs:
  /// each retiring thread drains its site table into SiteProfile /
  /// LockProfile / SelfOverhead records on the sink. Off (the default)
  /// costs one predictable branch on the check paths — the ci.sh
  /// overhead gate pins the disabled-path regression under 2%.
  bool Profile = false;

  /// log2 of the TSC sampling interval when profiling: one in
  /// 2^ProfileSampleShift profiled operations is timed. 0 times every
  /// operation (tests); the default keeps timing cost ~1/64 of ops.
  unsigned ProfileSampleShift = 6;

  /// sharc-live (DESIGN.md §13): "HOST:PORT" to serve the in-process
  /// stats endpoint on (port 0 = ephemeral); empty (the default) means
  /// no listener thread is ever started and the engines' publish paths
  /// see a null hub — zero cost, same discipline as Obs and Profile.
  /// Runtime::init() additionally honors SHARC_STATS_ADDR from the
  /// environment, which overrides this field.
  std::string StatsAddr;

  unsigned granuleSize() const { return 1u << GranuleShift; }
  unsigned maxThreads() const { return 8 * ShadowBytesPerGranule - 1; }
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_CONFIG_H
