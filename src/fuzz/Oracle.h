//===-- fuzz/Oracle.h - Differential fuzzing oracles ------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracles sharc-fuzz runs over each generated program:
///
///   1. Round-trip: parse -> infer -> print -> reparse -> reprint must be
///      a fixpoint (byte-identical second print).
///   2. Determinism: two interpreter runs with the same scheduler seed
///      must produce identical results, output, stats, and traces.
///   3. Detector agreement: one loop over the trace calls the
///      production Eraser and vector-clock detectors with each event's
///      trace tid; they must report exactly the racy cells that
///      independent reference implementations report for the same
///      trace. A trace whose tids do not fit the detectors' MaxTids
///      slots is a recorded trace skip.
///   4. Reference-count agreement: replaying the trace's pointer-slot
///      stores through the Atomic and Levanoni-Petrank engines must
///      reproduce the interpreter's oneref count at every sharing cast,
///      and both engines must agree with each other.
///   5. Trace round-trip: serialising the run through the obs
///      TraceWriter and parsing the bytes back must reproduce the events
///      the run published one for one, carry one Conflict record per
///      violation, agree with the run's aggregate stats, and end with a
///      final StatsSnapshot sample equal to toStatsSnapshot(run).
///   6. Policy agreement (first schedule): the guard layer must behave
///      identically across engines. Replaying the run's violations
///      through the rt dispatcher under `continue` must preserve the
///      total count; re-running the schedule under `quarantine` must
///      produce the same output and completion with a violation multiset
///      contained in the continue run's; a per-kind-capped run must keep
///      the total while retaining at most cap-per-kind reports.
///   7. Tail agreement: feeding the serialised trace to the incremental
///      TailParser — whole, and again byte-by-byte so every prefix is a
///      parser state — must reproduce the batch parse exactly (records,
///      events, stats samples, diagnosis), and on sampled proper
///      prefixes the tail diagnosis must equal the batch parse error
///      for the same bytes.
///   8. Exploration agreement: when the program's schedule space is
///      small enough for sharc-explore to enumerate completely, every
///      random-schedule verdict (violation kinds, deadlock, step
///      exhaustion) must appear among the exhaustively explored verdict
///      classes — a random schedule is one interleaving, so exhaustive
///      enumeration must have seen its behaviour. Programs whose
///      exploration exhausts its budget are recorded as skips.
///
/// Parse/type failures on generated programs are generator-contract
/// violations and count as failures. Analysis or checker rejections are
/// recorded as skips (the generator aims for static validity but the
/// oracles must not mask checker evolution). Runtime violations,
/// deadlocks, and step exhaustion are legal program outcomes.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_FUZZ_ORACLE_H
#define SHARC_FUZZ_ORACLE_H

#include "rt/Guard.h"

#include <cstdint>
#include <string>

namespace sharc {
namespace fuzz {

enum class FailureKind : uint8_t {
  None,
  ParseError,     ///< Generated program failed to parse.
  TypeError,      ///< Generated program failed expression typing.
  RoundTrip,      ///< Print->reparse->reprint not a fixpoint.
  Determinism,    ///< Same seed, different run.
  EraserMismatch, ///< Production Eraser != reference lockset replay.
  HbMismatch,     ///< Production vector clocks != reference HB replay.
  RcMismatch,     ///< Atomic / Levanoni-Petrank / interpreter counts differ.
  TraceMismatch,  ///< obs trace round-trip disagrees with the run.
  PolicyMismatch, ///< Guard policies disagree across engines or runs.
  TailMismatch,   ///< Incremental tail parse disagrees with batch parse.
  ExploreMismatch, ///< Random verdict outside the explored verdict set.
};

const char *failureKindName(FailureKind K);

struct OracleConfig {
  uint64_t Seed = 1;       ///< Base scheduler seed.
  unsigned Schedules = 4;  ///< Distinct scheduler seeds to explore.
  uint64_t MaxSteps = 1u << 17;
  size_t MaxScheduleEvents = 400000; ///< Replay cutoff per schedule.
  /// Violation policy for the base interpreter runs (sharc-fuzz --policy
  /// or SHARC_POLICY). The policy-agreement oracle needs the continue
  /// run's full violation multiset as its reference, so it only fires
  /// when this is Policy::Continue (the default).
  guard::Policy Policy = guard::Policy::Continue;
  /// Run the exploration-agreement oracle (oracle 8). It gates itself
  /// on small first runs and also requires Policy::Continue (the
  /// policy explore's internal runs use).
  bool Explore = true;
};

/// Everything one program's oracle run produced. All fields (including
/// Detail and Digest) are deterministic functions of (source, config).
struct OracleOutcome {
  FailureKind Failure = FailureKind::None;
  std::string Detail; ///< Human-readable failure description.

  bool AnalysisRejected = false; ///< Sharing inference refused the program.
  bool CheckerRejected = false;  ///< Static checker refused the program.
  unsigned SchedulesRun = 0;
  /// Schedules oracles 3 and 4 skipped: the trace exceeded the cutoff,
  /// or (oracle 3 only) its tids overflow the detectors' slots.
  unsigned TraceSkips = 0;
  unsigned RcSkips = 0;    ///< Schedules skipped by the RC oracle.
  unsigned PolicyChecks = 0; ///< Schedules the policy oracle covered.
  unsigned ExploreChecks = 0; ///< Programs oracle 8 fully enumerated.
  unsigned ExploreSkips = 0;  ///< Programs oracle 8 gated out or gave
                              ///< up on (budget, big first run, policy).
  uint64_t SchedulesExplored = 0; ///< Exhaustive runs across programs.

  uint64_t ViolationsSeen = 0; ///< Runtime violations across schedules.
  uint64_t RacyCells = 0;      ///< Cells the detectors agreed are racy.
  /// Cross-algorithm diagnostics (expected to be nonzero sometimes;
  /// Eraser has algorithmic false negatives relative to happens-before).
  uint64_t EraserOnlyRacy = 0;
  uint64_t HbOnlyRacy = 0;

  uint64_t Digest = 0; ///< FNV-1a over every compared artifact.

  bool failed() const { return Failure != FailureKind::None; }
};

/// Runs every oracle over \p Source.
OracleOutcome runOracles(const std::string &Source, const OracleConfig &Cfg);

/// Reverses the printer's poly-qualifier markers ("(q)" on struct tags,
/// "*q" on pointer declarators) so printed programs can be reparsed.
std::string stripPolyMarkers(const std::string &Printed);

} // namespace fuzz
} // namespace sharc

#endif // SHARC_FUZZ_ORACLE_H
