//===-- rt/Guard.cpp ------------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Process-global half of sharc-guard (DESIGN.md §12): the central
// violation dispatcher, the SHARC_FAULT= fault plan, and the crash-hook
// machinery that keeps .strc traces readable across abnormal deaths.
//
//===----------------------------------------------------------------------===//

#include "rt/Guard.h"

#include "rt/Report.h"

#include <atomic>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <ctime>

using namespace sharc;
using namespace sharc::guard;

//===----------------------------------------------------------------------===//
// Policy dispatch
//===----------------------------------------------------------------------===//

namespace {
// Abort is the historical behaviour of the config-less failure paths
// (RcTable exhaustion); Runtime::init() aligns this with the effective
// runtime policy.
std::atomic<Policy> GlobalPolicy{Policy::Abort};
} // namespace

void guard::setGlobalPolicy(Policy P) {
  GlobalPolicy.store(P, std::memory_order_relaxed);
}

Policy guard::globalPolicy() {
  return GlobalPolicy.load(std::memory_order_relaxed);
}

Verdict guard::onViolation(const GuardConfig &Config,
                           const rt::ConflictReport &Report,
                           rt::ReportSink &Sink) {
  Sink.report(Report);
  switch (Config.OnViolation) {
  case Policy::Abort:
    std::fprintf(stderr, "%s", Report.format().c_str());
    std::fflush(stderr);
    runCrashHooks(0);
    std::abort();
  case Policy::Continue:
    return Verdict::Proceed;
  case Policy::Quarantine:
    return Verdict::Quarantine;
  }
  return Verdict::Proceed;
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

namespace {
FaultConfig ActiveFaults;
std::atomic<uint64_t> OomCountdown{0};
std::atomic<bool> ThreadRegArmed{false};
std::atomic<bool> LockTimeoutArmed{false};
std::atomic<bool> EnvFaultsParsed{false};

bool parseCount(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    Value = Value * 10 + static_cast<unsigned>(C - '0');
  }
  Out = Value;
  return true;
}
} // namespace

bool guard::parseFaults(const char *Spec, FaultConfig &Out,
                        std::string &Error) {
  Out = FaultConfig();
  if (!Spec || !*Spec)
    return true;
  std::string Text(Spec);
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = Text.find(',', Pos);
    std::string Tok = Text.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Text.size() + 1 : Comma + 1;
    if (Tok.empty()) {
      Error = "empty fault directive";
      return false;
    }
    // Splits "name:arg" directives; returns nullptr when Tok is not one.
    auto Arg = [&Tok](const char *Name) -> const char * {
      size_t N = std::strlen(Name);
      if (Tok.size() > N + 1 && Tok.compare(0, N, Name) == 0 && Tok[N] == ':')
        return Tok.c_str() + N + 1;
      return nullptr;
    };
    if (Tok == "thread-reg") {
      Out.FailThreadReg = true;
      continue;
    }
    if (Tok == "lock-timeout") {
      Out.LockTimeout = true;
      continue;
    }
    if (Tok == "worker-stall") {
      Out.WorkerStallMillis = 5;
      continue;
    }
    if (Tok == "worker-crash") {
      Out.WorkerCrashAfter = 200;
      continue;
    }
    if (Tok == "logger-wedge") {
      Out.LoggerWedgeMillis = 50;
      continue;
    }
    if (const char *A = Arg("oom")) {
      if (!parseCount(A, Out.OomAtAlloc) || Out.OomAtAlloc == 0) {
        Error = "oom:N needs a positive allocation index: '" + Tok + "'";
        return false;
      }
      continue;
    }
    if (const char *A = Arg("torn-write")) {
      if (!parseCount(A, Out.TornWriteBytes)) {
        Error = "torn-write:K needs a byte count: '" + Tok + "'";
        return false;
      }
      Out.HasTornWrite = true;
      continue;
    }
    if (const char *A = Arg("crash")) {
      if (!parseCount(A, Out.CrashAtStep) || Out.CrashAtStep == 0) {
        Error = "crash:N needs a positive step index: '" + Tok + "'";
        return false;
      }
      continue;
    }
    if (const char *A = Arg("conn-reset")) {
      if (!parseCount(A, Out.ConnResetEvery) || Out.ConnResetEvery == 0) {
        Error = "conn-reset:N needs a positive submit period: '" + Tok + "'";
        return false;
      }
      continue;
    }
    if (const char *A = Arg("slow-peer")) {
      if (!parseCount(A, Out.SlowPeerMicros) || Out.SlowPeerMicros == 0 ||
          Out.SlowPeerMicros > 1000000) {
        Error = "slow-peer:U needs a delay in 1..1000000 us: '" + Tok + "'";
        return false;
      }
      continue;
    }
    if (const char *A = Arg("worker-stall")) {
      if (!parseCount(A, Out.WorkerStallMillis) ||
          Out.WorkerStallMillis == 0 || Out.WorkerStallMillis > 10000) {
        Error = "worker-stall:M needs a stall in 1..10000 ms: '" + Tok + "'";
        return false;
      }
      continue;
    }
    if (const char *A = Arg("worker-crash")) {
      if (!parseCount(A, Out.WorkerCrashAfter) || Out.WorkerCrashAfter == 0) {
        Error =
            "worker-crash:K needs a positive request count: '" + Tok + "'";
        return false;
      }
      continue;
    }
    if (const char *A = Arg("logger-wedge")) {
      if (!parseCount(A, Out.LoggerWedgeMillis) ||
          Out.LoggerWedgeMillis == 0 || Out.LoggerWedgeMillis > 10000) {
        Error = "logger-wedge:M needs a wedge in 1..10000 ms: '" + Tok + "'";
        return false;
      }
      continue;
    }
    Error = "unknown fault directive '" + Tok + "'";
    return false;
  }
  return true;
}

void guard::setFaults(const FaultConfig &F) {
  ActiveFaults = F;
  OomCountdown.store(F.OomAtAlloc, std::memory_order_relaxed);
  ThreadRegArmed.store(F.FailThreadReg, std::memory_order_relaxed);
  LockTimeoutArmed.store(F.LockTimeout, std::memory_order_relaxed);
}

const FaultConfig &guard::faults() { return ActiveFaults; }

void guard::initFaultsFromEnv() {
  if (EnvFaultsParsed.exchange(true))
    return;
  const char *Spec = std::getenv("SHARC_FAULT");
  if (!Spec || !*Spec)
    return;
  FaultConfig F;
  std::string Error;
  if (!parseFaults(Spec, F, Error))
    fatalInternal("bad SHARC_FAULT spec: %s", Error.c_str());
  setFaults(F);
}

bool guard::faultTickOom() {
  uint64_t Cur = OomCountdown.load(std::memory_order_relaxed);
  while (Cur != 0)
    if (OomCountdown.compare_exchange_weak(Cur, Cur - 1,
                                           std::memory_order_relaxed))
      return Cur == 1;
  return false;
}

bool guard::faultThreadReg() {
  return ThreadRegArmed.exchange(false, std::memory_order_relaxed);
}

bool guard::faultLockTimeout() {
  return LockTimeoutArmed.exchange(false, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Crash-safe observability
//===----------------------------------------------------------------------===//

namespace {
constexpr int MaxCrashHooks = 8;
struct HookEntry {
  CrashHook Fn = nullptr;
  void *Ctx = nullptr;
};
HookEntry Hooks[MaxCrashHooks];
std::atomic<int> NumHooks{0};
std::atomic<bool> HooksRan{false};
std::atomic<bool> HooksDone{false};
thread_local bool RunningHooks = false;
std::atomic<bool> HandlersInstalled{false};

// SA_RESETHAND restores the default disposition on entry, so re-raising
// at the end kills the process by the original signal (correct exit
// status for wait()/ctest) after the hooks flushed their traces.
void crashSignalHandler(int Signal) {
  guard::runCrashHooks(Signal);
  std::raise(Signal);
}
} // namespace

void guard::addCrashHook(CrashHook Fn, void *Ctx) {
  int I = NumHooks.load(std::memory_order_relaxed);
  if (I >= MaxCrashHooks)
    return;
  Hooks[I] = HookEntry{Fn, Ctx};
  NumHooks.store(I + 1, std::memory_order_release);
}

void guard::installCrashHandlers() {
  if (HandlersInstalled.exchange(true))
    return;
  const int Signals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
  for (int Sig : Signals) {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = crashSignalHandler;
    sigemptyset(&SA.sa_mask);
    SA.sa_flags = SA_RESETHAND;
    sigaction(Sig, &SA, nullptr);
  }
}

void guard::runCrashHooks(int Signal) {
  if (HooksRan.exchange(true)) {
    // Another thread is running the hooks. This thread is about to die
    // too, and its exit would cut that flush short, so wait for it (at
    // most 10 s, so a stuck hook cannot hang the process). A hook that
    // crashes re-enters on its own thread and must not wait for itself.
    const timespec OneMs{0, 1000000};
    for (int I = 0; I != 10000 && !RunningHooks &&
                    !HooksDone.load(std::memory_order_acquire);
         ++I)
      nanosleep(&OneMs, nullptr);
    return;
  }
  RunningHooks = true;
  // Newest-first: the most recently registered hook owns the most
  // recently opened trace.
  int N = NumHooks.load(std::memory_order_acquire);
  for (int I = N - 1; I >= 0; --I)
    if (Hooks[I].Fn)
      Hooks[I].Fn(Signal, Hooks[I].Ctx);
  HooksDone.store(true, std::memory_order_release);
}

void guard::fatalInternal(const char *Fmt, ...) {
  std::va_list Args;
  va_start(Args, Fmt);
  std::fprintf(stderr, "sharc: fatal: ");
  std::vfprintf(stderr, Fmt, Args);
  std::fputc('\n', stderr);
  va_end(Args);
  runCrashHooks(0);
  std::fflush(nullptr);
  std::_Exit(3);
}
