//===-- interp/Interp.h - Operational semantics interpreter -----*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes instrumented MiniC programs under the paper's operational
/// semantics (Figures 5 and 6):
///
///   - memory is a map from cell addresses to values with per-cell reader
///     and writer sets (thread-id bitmasks) and last-access provenance;
///   - chkread/chkwrite enforce the n-readers-or-1-writer discipline on
///     dynamic cells; lock-held checks guard locked cells;
///   - sharing casts perform the oneref check by heap inspection, exactly
///     as in Figure 6 (|{b : M(b).value = a}| = 1, over pointer-holding
///     cells), then null the source and clear the object's access sets;
///   - threads are interleaved by a seeded scheduler, one statement-level
///     step at a time; runs are deterministic per seed and replayable, so
///     property tests can sweep schedules;
///   - a thread that fails a check in FailStop mode transitions to the
///     semantics' `fail` state and blocks; in Report mode the violation is
///     recorded and execution continues (the production tool's behaviour);
///   - thread exit clears the thread's bits from every cell it touched
///     ("no race if executions do not overlap").
///
/// Restrictions (documented in DESIGN.md): calls to user-defined functions
/// must appear as a whole statement, `x = f(...)`, or a declaration
/// initializer (A-normal style), because expression evaluation is atomic
/// within one scheduler step.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_INTERP_INTERP_H
#define SHARC_INTERP_INTERP_H

#include "checker/Instrumentation.h"
#include "minic/AST.h"
#include "rt/Guard.h"
#include "rt/LiveStats.h"
#include "rt/Stats.h"

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace sharc {
namespace obs {
class Sink;
} // namespace obs

namespace interp {

class Schedule;

/// A detected sharing-strategy violation, rendered in the paper's report
/// format.
struct Violation {
  enum class Kind : uint8_t {
    ReadConflict,
    WriteConflict,
    LockViolation,
    CastError,
    RuntimeError, ///< Null deref, use-after-free, deadlock, ...
  };
  Kind K = Kind::ReadConflict;
  uint64_t Address = 0;
  unsigned WhoTid = 0;
  std::string WhoLValue;
  uint32_t WhoLine = 0;
  unsigned LastTid = 0;
  std::string LastLValue;
  uint32_t LastLine = 0;
  std::string Detail;

  std::string format(const std::string &FileName) const;
};

/// One entry of the schedule/memory trace a run can record (see
/// InterpOptions::Trace). The trace is a total order of the events that
/// matter to external analyses: every cell access, every lock transition,
/// the spawn happens-before edges, and every pointer-slot mutation
/// (including the implicit ones: parameter copies, frame death, free).
/// Replaying it drives the race detectors and reference-counting engines
/// through exactly the interleaving the scheduler chose, which is what
/// the differential fuzzing oracles in src/fuzz/ compare against.
struct TraceEvent {
  enum class Kind : uint8_t {
    Read,        ///< Cell read; Addr is the cell address.
    Write,       ///< Cell write; Addr is the cell address.
    LockAcquire, ///< Mutex/rwlock acquired (shared or exclusive).
    LockRelease, ///< Mutex/rwlock released.
    SpawnEdge,   ///< Parent half of a spawn edge; Addr is a fresh token.
    ThreadStart, ///< First event of a thread; Addr is the spawn token
                 ///< (0 for the entry thread).
    ThreadExit,  ///< Thread reached done (or failed).
    PtrStore,    ///< A pointer-holding slot changed: Addr = slot,
                 ///< Value = new pointer value (0 when cleared).
    CastQuery,   ///< Sharing cast oneref query: Addr = object address,
                 ///< Value = the interpreter's reference count.
  };
  Kind K = Kind::Read;
  unsigned Tid = 0; ///< Trace tid: unique per thread, never reused.
  uint64_t Addr = 0;
  int64_t Value = 0;

  bool operator==(const TraceEvent &O) const {
    return K == O.K && Tid == O.Tid && Addr == O.Addr && Value == O.Value;
  }
};

/// Spawn tokens live far above any real cell address.
constexpr uint64_t TraceTokenBase = uint64_t(1) << 40;

/// Most threads that hold a thread id at once. Ids run from 1 to this
/// and name a bit in each cell's 64-bit reader and writer sets; a spawn
/// past the limit fails with a runtime error. The explorer's choice
/// masks rely on it too: a scheduling offer lists only live threads.
constexpr unsigned MaxLiveThreads = 62;

/// Interpreter options.
struct InterpOptions {
  uint64_t Seed = 1;          ///< Scheduler seed; same seed, same run.
  /// When non-null, every nondeterministic decision (thread pick per
  /// step, cond_signal wake-up order) is delegated here instead of the
  /// built-in seeded scheduler (see Schedule.h). Null — the default —
  /// uses an internal RandomSchedule(Seed), which reproduces the
  /// historical behaviour bit for bit.
  Schedule *Sched = nullptr;
  uint64_t MaxSteps = 1u << 22; ///< Step budget before reporting livelock.
  bool FailStop = false;      ///< Figure 5 `fail` semantics.
  std::string EntryPoint = "main";
  /// When non-null, the run appends its schedule/memory trace here.
  /// The vector is cleared first. Null (the default) records nothing
  /// and costs nothing.
  std::vector<TraceEvent> *Trace = nullptr;
  /// When non-null, every trace event is also published here as an
  /// obs::Event (plus obs-only kinds: Conflict records for each
  /// violation). The sink sees the same total order the Trace vector
  /// records. Null (the default) publishes nothing and costs nothing.
  obs::Sink *Sink = nullptr;
  /// Per-site cost profiling (sharc-prof): aggregate every dynamic,
  /// lock, and cast check per file:line site during the run and publish
  /// SiteProfile / LockProfile / SelfOverhead records to Sink when it
  /// ends, so interpreter runs profile identically to compiled ones.
  /// Requires Sink. Lock wait and hold durations are measured in
  /// scheduler steps (the interpreter's only clock); LockWait events
  /// mark blocking acquisitions.
  bool Profile = false;
  /// Source file name stamped into profile records (interpreter sites
  /// are file:line positions in the MiniC source).
  std::string SourceName;
  /// Failure semantics (sharc-guard), mirroring the native runtime's
  /// GuardConfig. The default — Policy::Continue, no per-kind cap —
  /// reproduces the interpreter's historical behaviour exactly (fuzz
  /// determinism digests depend on it). Policy::Abort halts the run at
  /// the first violation (Completed stays false); Policy::Quarantine
  /// demotes offending cells so they stop re-firing. Uses only the
  /// header-only part of rt/Guard.h; no sharc_rt link is required.
  guard::GuardConfig Guard;
  /// Fault injection: raise SIGSEGV when the scheduler reaches this step
  /// (1-based; 0 = off). Wired from SHARC_FAULT=crash:N by the driver to
  /// test crash-safe trace flushing.
  uint64_t CrashAtStep = 0;
  /// sharc-live (DESIGN.md §13): when non-null the scheduler publishes a
  /// LiveSnapshot here every LivePollSteps steps so the driver's stats
  /// endpoint can serve a mid-run view. Uses only the header-only
  /// rt/LiveStats.h layer; no sharc_rt link is required. Null (the
  /// default) costs one predictable branch per scheduler step.
  live::StatsHub *Live = nullptr;
  uint64_t LivePollSteps = 1024;
};

/// Execution statistics, used by tests and the driver's summary.
struct InterpStats {
  uint64_t Steps = 0;
  uint64_t TotalAccesses = 0;
  uint64_t Reads = 0;  ///< Cell reads (Reads + Writes == TotalAccesses).
  uint64_t Writes = 0; ///< Cell writes.
  uint64_t DynamicChecks = 0;
  uint64_t LockChecks = 0;
  uint64_t SharingCasts = 0;
  uint64_t ThreadsSpawned = 0;
};

/// Result of one run.
struct InterpResult {
  bool Completed = false;   ///< All threads reached done.
  bool Deadlocked = false;  ///< No runnable thread remained.
  bool OutOfSteps = false;  ///< MaxSteps exhausted.
  bool PolicyHalted = false; ///< Policy::Abort stopped the run.
  /// The Schedule returned Abort (witness divergence, exploration
  /// pruning); the run stopped early and proves nothing.
  bool ScheduleAborted = false;
  std::vector<Violation> Violations;
  /// Every violation detected, including ones dropped from Violations by
  /// dedup/per-kind capping (equal to Violations.size() when
  /// GuardConfig::MaxReportsPerKind is 0).
  uint64_t TotalViolations = 0;
  std::string Output; ///< print_int / print_str output.
  InterpStats Stats;

  bool hasConflicts() const {
    for (const Violation &V : Violations)
      if (V.K != Violation::Kind::RuntimeError)
        return true;
    return false;
  }
  unsigned count(Violation::Kind K) const {
    unsigned N = 0;
    for (const Violation &V : Violations)
      if (V.K == K)
        ++N;
    return N;
  }
};

/// The interpreter. Construct once per program; run() may be called
/// repeatedly with different options (state is reset each run).
class Interp {
public:
  Interp(minic::Program &Prog, const checker::Instrumentation &Instr)
      : Prog(Prog), Instr(Instr) {}

  InterpResult run(const InterpOptions &Options = InterpOptions());

private:
  minic::Program &Prog;
  const checker::Instrumentation &Instr;
};

/// Projects an interpreter result onto the runtime's counter schema so
/// one metrics pipeline (obs::statsToJson, trace stats samples) serves
/// both execution engines. Mapping notes: the interpreter checks every
/// cell access, so Reads/Writes land in DynamicReads/DynamicWrites
/// (byte counts use the 8-byte cell size); RuntimeError violations have
/// no snapshot counter and are excluded from the conflict fields.
rt::StatsSnapshot toStatsSnapshot(const InterpResult &R);

} // namespace interp
} // namespace sharc

#endif // SHARC_INTERP_INTERP_H
