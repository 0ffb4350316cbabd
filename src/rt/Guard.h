//===-- rt/Guard.h - Failure policies and fault injection -------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sharc-guard (DESIGN.md §12): one failure-semantics layer shared by the
/// native runtime, the MiniC interpreter, and the sharcc driver.
///
///   - Policy selects what happens on a sharing violation: `abort` is the
///     paper's fail-fast semantics, `continue` records (with dedup and a
///     per-kind cap) and lets the access proceed, `quarantine` additionally
///     demotes the offending granule to a racy-equivalent state so one bad
///     site does not re-fire forever.
///   - GuardConfig carries the policy plus the stall watchdog; it is
///     embedded in rt::RuntimeConfig and mirrored by interp::InterpOptions.
///   - Fault injection (SHARC_FAULT=) forces rare failure paths — OOM,
///     thread-registration failure, torn trace writes, lock timeouts — so
///     tests can pin how the system degrades.
///
/// The enum/parse layer is header-only: the interpreter uses it without
/// linking sharc_rt. The process-global pieces (crash hooks, fault
/// counters, the central onViolation dispatcher) live in Guard.cpp inside
/// sharc_rt and are used by the runtime, the driver, and the fuzzer.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_GUARD_H
#define SHARC_RT_GUARD_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

namespace sharc {
namespace rt {
struct ConflictReport;
class ReportSink;
} // namespace rt

namespace guard {

/// What to do when a sharing-strategy violation is detected.
enum class Policy : uint8_t {
  Abort,      ///< Print the report and die (the paper's semantics).
  Continue,   ///< Record (dedup + per-kind cap) and permit the access.
  Quarantine, ///< Continue, but demote the granule to racy-equivalent.
};

inline const char *policyName(Policy P) {
  switch (P) {
  case Policy::Abort:
    return "abort";
  case Policy::Continue:
    return "continue";
  case Policy::Quarantine:
    return "quarantine";
  }
  return "?";
}

/// Parses "abort" / "continue" / "quarantine". \returns false on anything
/// else (Out is untouched).
inline bool parsePolicy(const char *Text, Policy &Out) {
  if (!Text)
    return false;
  if (std::strcmp(Text, "abort") == 0) {
    Out = Policy::Abort;
    return true;
  }
  if (std::strcmp(Text, "continue") == 0) {
    Out = Policy::Continue;
    return true;
  }
  if (std::strcmp(Text, "quarantine") == 0) {
    Out = Policy::Quarantine;
    return true;
  }
  return false;
}

/// Reads SHARC_POLICY. \returns true and sets \p Out when the variable is
/// present and valid; false (Out untouched) when unset or malformed.
inline bool policyFromEnv(Policy &Out) {
  return parsePolicy(std::getenv("SHARC_POLICY"), Out);
}

/// Failure-semantics knobs, embedded in rt::RuntimeConfig. The defaults
/// reproduce the library's historical behaviour exactly: violations are
/// recorded and execution continues, with no per-kind cap and no
/// watchdog. (The sharcc driver defaults to Policy::Abort instead — the
/// paper-faithful fail-fast semantics — via --on-violation/SHARC_POLICY.)
struct GuardConfig {
  Policy OnViolation = Policy::Continue;
  /// Under Continue/Quarantine, retain at most this many deduplicated
  /// reports per violation kind. 0 = unlimited (historical behaviour).
  size_t MaxReportsPerKind = 0;
  /// Stall watchdog for blocking lock acquisitions and sharing-cast
  /// refcount drains, in milliseconds. 0 = off; at most MaxWatchdogMillis.
  uint64_t WatchdogMillis = 0;
};

/// The largest watchdog interval, one day. Runtime::init() rejects a
/// larger WatchdogMillis or SHARC_WATCHDOG_MS through fatalInternal.
constexpr uint64_t MaxWatchdogMillis = 86'400'000;

/// What the caller of onViolation must do with the offending access.
enum class Verdict : uint8_t {
  Proceed,    ///< Access permitted; keep the normal claim semantics.
  Quarantine, ///< Access permitted; demote the granule's shadow state.
};

//===----------------------------------------------------------------------===//
// sharc_rt-only pieces (Guard.cpp). Declarations are harmless to include
// from the interpreter; using them requires linking sharc_rt.
//===----------------------------------------------------------------------===//

/// The central violation dispatcher: publishes \p Report through \p Sink
/// (obs Conflict event + dedup + retention), then applies the policy.
/// Under Policy::Abort this prints the report and never returns.
Verdict onViolation(const GuardConfig &Config, const rt::ConflictReport &Report,
                    rt::ReportSink &Sink);

//===----------------------------------------------------------------------===//
// Fault injection (SHARC_FAULT=)
//===----------------------------------------------------------------------===//

/// Parsed SHARC_FAULT specification. Comma-separated directives:
///   oom:N           the Nth runtime allocation fails (1-based)
///   thread-reg      the next thread registration fails
///   torn-write:K    trace files are truncated to K bytes on write
///   lock-timeout    the next watchdog-armed lock acquisition times out
///   crash:N         raise SIGSEGV at interpreter step N (driver-side)
///
/// Serve-level chaos faults (sharc-storm, DESIGN.md §17) — injected
/// through the serve transport and pipeline threads, reachable both via
/// SHARC_FAULT and via `sharc-serve --chaos=`:
///   conn-reset:N    every Nth transport submission is rejected with a
///                   simulated connection reset (the client retries)
///   slow-peer:U     the transport delays every accept batch by U
///                   microseconds (a slow network peer)
///   worker-stall[:M] each worker sleeps M ms (default 5) every 64th
///                   request it handles — a periodic stalling worker
///   worker-crash[:K] worker 0 dies (exits its loop) after handling K
///                   requests (default 200)
///   logger-wedge[:M] the logger wedges for M ms (default 50) on its
///                   first record, backing up the log ring
struct FaultConfig {
  uint64_t OomAtAlloc = 0;
  bool FailThreadReg = false;
  uint64_t TornWriteBytes = 0;
  bool HasTornWrite = false;
  bool LockTimeout = false;
  uint64_t CrashAtStep = 0;
  uint64_t ConnResetEvery = 0;    ///< conn-reset:N (0 = off)
  uint64_t SlowPeerMicros = 0;    ///< slow-peer:U (0 = off)
  uint64_t WorkerStallMillis = 0; ///< worker-stall[:M] (0 = off)
  uint64_t WorkerCrashAfter = 0;  ///< worker-crash[:K] (0 = off)
  uint64_t LoggerWedgeMillis = 0; ///< logger-wedge[:M] (0 = off)

  /// True when any serve-level chaos directive is armed — sharc-serve
  /// arms its resilience layer (admission control, retries) whenever a
  /// chaos plan is active, so injected faults are shed/retried instead
  /// of wedging the pipeline.
  bool anyServeFault() const {
    return ConnResetEvery || SlowPeerMicros || WorkerStallMillis ||
           WorkerCrashAfter || LoggerWedgeMillis;
  }
};

/// Parses \p Spec. \returns false (with a diagnostic in \p Error) on
/// malformed input.
bool parseFaults(const char *Spec, FaultConfig &Out, std::string &Error);

/// Installs \p F as the active fault plan and re-arms the countdowns.
void setFaults(const FaultConfig &F);
const FaultConfig &faults();

/// Parses SHARC_FAULT once per process (no-op when unset; malformed specs
/// are a fatalInternal — a mistyped fault plan must not silently pass).
void initFaultsFromEnv();

/// One allocation tick. \returns true when this allocation must fail
/// (consumes the oom:N countdown).
bool faultTickOom();
/// \returns true when thread registration must fail (consumes the fault).
bool faultThreadReg();
/// \returns true when a watchdog-armed lock wait must report a timeout
/// immediately (consumes the fault).
bool faultLockTimeout();

//===----------------------------------------------------------------------===//
// Crash-safe observability
//===----------------------------------------------------------------------===//

/// Hooks run (once, first-signal-wins) when the process dies abnormally:
/// from a fatal signal, from an abort-policy violation, or from
/// fatalInternal. Typical use: flush live trace rings and append the
/// .strc AbnormalEnd record.
using CrashHook = void (*)(int Signal, void *Ctx);
void addCrashHook(CrashHook Fn, void *Ctx);

/// Installs handlers for SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT that run
/// the crash hooks, restore the default disposition, and re-raise so the
/// process still dies by the original signal. Idempotent.
void installCrashHandlers();

/// Runs the registered crash hooks at most once process-wide. \p Signal
/// is 0 for policy/internal deaths. A second thread that arrives while
/// another runs them waits (up to 10 s) until they finish, so two
/// threads dying at once still leave a flushed trace.
void runCrashHooks(int Signal);

/// Internal/fault-injected error: prints "sharc: fatal: ..." to stderr,
/// runs the crash hooks, and exits with status 3 (the sharcc exit-code
/// contract for internal errors).
[[noreturn]] void fatalInternal(const char *Fmt, ...);

} // namespace guard
} // namespace sharc

#endif // SHARC_RT_GUARD_H
