//===-- tests/guard_test.cpp - sharc-guard failure semantics --------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the guard layer (DESIGN.md §12): policy and fault-spec
/// parsing, the central onViolation dispatcher, fault-injection hooks,
/// runtime quarantine and the lock-stall watchdog, and the .strc v3
/// AbnormalEnd record that keeps traces readable across crashes.
///
//===----------------------------------------------------------------------===//

#include "obs/Summary.h"
#include "obs/TraceFile.h"
#include "rt/Sharc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace sharc;
using namespace sharc::rt;

namespace {

class RuntimeGuard {
public:
  explicit RuntimeGuard(RuntimeConfig Config = RuntimeConfig()) {
    Runtime::init(Config);
  }
  ~RuntimeGuard() { Runtime::shutdown(); }
};

/// Runs \p Fn on a registered runtime thread and joins it.
template <typename Fn> void onThread(Fn &&F) {
  Thread T(std::forward<Fn>(F));
  T.join();
}

ConflictReport makeReport(ReportKind K, uintptr_t Addr) {
  ConflictReport R;
  R.Kind = K;
  R.Address = Addr;
  R.WhoTid = 2;
  R.LastTid = 1;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

TEST(GuardPolicyTest, ParsePolicy) {
  guard::Policy P = guard::Policy::Abort;
  EXPECT_TRUE(guard::parsePolicy("continue", P));
  EXPECT_EQ(P, guard::Policy::Continue);
  EXPECT_TRUE(guard::parsePolicy("quarantine", P));
  EXPECT_EQ(P, guard::Policy::Quarantine);
  EXPECT_TRUE(guard::parsePolicy("abort", P));
  EXPECT_EQ(P, guard::Policy::Abort);

  P = guard::Policy::Continue;
  EXPECT_FALSE(guard::parsePolicy("Abort", P));
  EXPECT_FALSE(guard::parsePolicy("", P));
  EXPECT_FALSE(guard::parsePolicy(nullptr, P));
  EXPECT_EQ(P, guard::Policy::Continue) << "failed parse must not touch Out";
}

TEST(GuardPolicyTest, PolicyNames) {
  EXPECT_STREQ(guard::policyName(guard::Policy::Abort), "abort");
  EXPECT_STREQ(guard::policyName(guard::Policy::Continue), "continue");
  EXPECT_STREQ(guard::policyName(guard::Policy::Quarantine), "quarantine");
}

TEST(GuardFaultTest, ParseFullSpec) {
  guard::FaultConfig F;
  std::string Error;
  ASSERT_TRUE(guard::parseFaults(
      "oom:3,thread-reg,torn-write:40,lock-timeout,crash:100", F, Error))
      << Error;
  EXPECT_EQ(F.OomAtAlloc, 3u);
  EXPECT_TRUE(F.FailThreadReg);
  EXPECT_TRUE(F.HasTornWrite);
  EXPECT_EQ(F.TornWriteBytes, 40u);
  EXPECT_TRUE(F.LockTimeout);
  EXPECT_EQ(F.CrashAtStep, 100u);
}

TEST(GuardFaultTest, ParseEmptyAndZeroTorn) {
  guard::FaultConfig F;
  std::string Error;
  EXPECT_TRUE(guard::parseFaults("", F, Error));
  EXPECT_TRUE(guard::parseFaults(nullptr, F, Error));
  // torn-write:0 is meaningful (truncate to nothing)...
  ASSERT_TRUE(guard::parseFaults("torn-write:0", F, Error));
  EXPECT_TRUE(F.HasTornWrite);
  EXPECT_EQ(F.TornWriteBytes, 0u);
}

TEST(GuardFaultTest, ParseServeFaults) {
  // The sharc-storm chaos grammar rides in the same SHARC_FAULT spec:
  // serve-level faults compose with the runtime-level ones.
  guard::FaultConfig F;
  std::string Error;
  ASSERT_TRUE(guard::parseFaults(
      "conn-reset:7,slow-peer:50,worker-stall,worker-crash:120,"
      "logger-wedge:80",
      F, Error))
      << Error;
  EXPECT_EQ(F.ConnResetEvery, 7u);
  EXPECT_EQ(F.SlowPeerMicros, 50u);
  EXPECT_EQ(F.WorkerStallMillis, 5u); // bare form: the default period
  EXPECT_EQ(F.WorkerCrashAfter, 120u);
  EXPECT_EQ(F.LoggerWedgeMillis, 80u);
  EXPECT_TRUE(F.anyServeFault());

  guard::FaultConfig Bare;
  ASSERT_TRUE(guard::parseFaults("worker-crash,logger-wedge", Bare, Error));
  EXPECT_EQ(Bare.WorkerCrashAfter, 200u);
  EXPECT_EQ(Bare.LoggerWedgeMillis, 50u);
  EXPECT_TRUE(Bare.anyServeFault());

  guard::FaultConfig None;
  ASSERT_TRUE(guard::parseFaults("oom:3", None, Error));
  EXPECT_FALSE(None.anyServeFault());
}

TEST(GuardFaultTest, ParseRejectsMalformedServeFaults) {
  guard::FaultConfig F;
  std::string Error;
  // conn-reset needs a positive period and has no bare form.
  EXPECT_FALSE(guard::parseFaults("conn-reset", F, Error));
  EXPECT_FALSE(guard::parseFaults("conn-reset:0", F, Error));
  // slow-peer is bounded to a second.
  EXPECT_FALSE(guard::parseFaults("slow-peer:2000000", F, Error));
  // stall / wedge durations are bounded and nonzero.
  EXPECT_FALSE(guard::parseFaults("worker-stall:0", F, Error));
  EXPECT_FALSE(guard::parseFaults("worker-stall:20000", F, Error));
  EXPECT_FALSE(guard::parseFaults("logger-wedge:x", F, Error));
  EXPECT_FALSE(guard::parseFaults("worker-crash:0", F, Error));
}

TEST(GuardFaultTest, ParseRejectsMalformed) {
  guard::FaultConfig F;
  std::string Error;
  EXPECT_FALSE(guard::parseFaults("bogus", F, Error));
  EXPECT_NE(Error.find("bogus"), std::string::npos);
  EXPECT_FALSE(guard::parseFaults("oom:x", F, Error));
  EXPECT_FALSE(guard::parseFaults("oom:0", F, Error));
  EXPECT_FALSE(guard::parseFaults("crash:0", F, Error));
  EXPECT_FALSE(guard::parseFaults("torn-write:", F, Error));
  EXPECT_FALSE(guard::parseFaults("oom:1,,crash:2", F, Error));
  EXPECT_NE(Error.find("empty"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Fault-injection hooks
//===----------------------------------------------------------------------===//

TEST(GuardFaultTest, OomCountdownFiresExactlyOnce) {
  guard::FaultConfig F;
  F.OomAtAlloc = 3;
  guard::setFaults(F);
  EXPECT_FALSE(guard::faultTickOom());
  EXPECT_FALSE(guard::faultTickOom());
  EXPECT_TRUE(guard::faultTickOom()) << "third allocation must fail";
  EXPECT_FALSE(guard::faultTickOom());
  guard::setFaults(guard::FaultConfig());
}

TEST(GuardFaultTest, OneShotFaultsConsume) {
  guard::FaultConfig F;
  F.FailThreadReg = true;
  F.LockTimeout = true;
  guard::setFaults(F);
  EXPECT_TRUE(guard::faultThreadReg());
  EXPECT_FALSE(guard::faultThreadReg());
  EXPECT_TRUE(guard::faultLockTimeout());
  EXPECT_FALSE(guard::faultLockTimeout());
  guard::setFaults(guard::FaultConfig());
}

//===----------------------------------------------------------------------===//
// The dispatcher
//===----------------------------------------------------------------------===//

TEST(GuardDispatchTest, ContinueProceedsAndCountsDuplicates) {
  ReportSink Sink(64);
  guard::GuardConfig Config; // Continue, no cap.
  ConflictReport R = makeReport(ReportKind::ReadConflict, 0x1000);
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(guard::onViolation(Config, R, Sink), guard::Verdict::Proceed);
  EXPECT_EQ(Sink.getTotalViolations(), 3u);
  EXPECT_EQ(Sink.getNumReports(), 1u) << "identical reports deduplicate";
}

TEST(GuardDispatchTest, QuarantineVerdictDemotes) {
  ReportSink Sink(64);
  guard::GuardConfig Config;
  Config.OnViolation = guard::Policy::Quarantine;
  ConflictReport R = makeReport(ReportKind::WriteConflict, 0x2000);
  EXPECT_EQ(guard::onViolation(Config, R, Sink), guard::Verdict::Quarantine);
  EXPECT_EQ(Sink.getTotalViolations(), 1u);
}

TEST(GuardDispatchTest, PerKindCapBoundsRetention) {
  ReportSink Sink(64);
  Sink.setMaxPerKind(2);
  guard::GuardConfig Config;
  for (uintptr_t A = 0; A < 5; ++A)
    guard::onViolation(Config, makeReport(ReportKind::ReadConflict, 0x100 * A),
                       Sink);
  guard::onViolation(Config, makeReport(ReportKind::CastError, 0x9000), Sink);
  EXPECT_EQ(Sink.getTotalViolations(), 6u) << "the cap never drops counts";
  EXPECT_EQ(Sink.getNumReports(), 3u) << "2 read-conflicts + 1 cast-error";
}

TEST(GuardDeathTest, AbortPolicyPrintsAndDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ReportSink Sink(64);
  guard::GuardConfig Config;
  Config.OnViolation = guard::Policy::Abort;
  ConflictReport R = makeReport(ReportKind::ReadConflict, 0x3000);
  EXPECT_DEATH(guard::onViolation(Config, R, Sink), "read conflict");
}

TEST(GuardDeathTest, FatalInternalExitsThree) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(guard::fatalInternal("injected failure %d", 7),
              testing::ExitedWithCode(3), "sharc: fatal: injected failure 7");
}

TEST(GuardDeathTest, SecondDyingThreadWaitsForTheCrashHooks) {
  // Two threads die at once (two abort-policy violations): the one that
  // loses the race to run the hooks must not exit mid-flush.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        static std::atomic<bool> InHook{false};
        guard::addCrashHook(
            [](int, void *) {
              InHook.store(true);
              std::this_thread::sleep_for(std::chrono::milliseconds(100));
              std::fprintf(stderr, "flushed;");
            },
            nullptr);
        std::thread Winner([] { guard::runCrashHooks(0); });
        while (!InHook.load())
          std::this_thread::yield();
        guard::runCrashHooks(0);
        std::fprintf(stderr, "exiting");
        std::_Exit(1);
      },
      testing::ExitedWithCode(1), "flushed;exiting");
}

//===----------------------------------------------------------------------===//
// Runtime integration: quarantine and the watchdog
//===----------------------------------------------------------------------===//

TEST(GuardRuntimeTest, QuarantineStopsRefire) {
  RuntimeConfig Config;
  Config.Guard.OnViolation = guard::Policy::Quarantine;
  RuntimeGuard G(Config);
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  EXPECT_TRUE(RT.checkRead(P, sizeof(int), nullptr));
  std::atomic<int> Stage{0};
  Thread Writer([&] {
    // First foreign write conflicts with the main thread's read and
    // quarantines the granule (claiming it for this thread).
    EXPECT_FALSE(RT.checkWrite(P, sizeof(int), nullptr));
    Stage = 1;
    while (Stage != 2) // stay alive so our shadow bits persist
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  while (Stage != 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Main's write conflicts with the writer's claim, but the granule is
  // quarantined: the access proceeds and no second report fires.
  EXPECT_TRUE(RT.checkWrite(P, sizeof(int), nullptr));
  Stage = 2;
  Writer.join();
  EXPECT_EQ(RT.getReports().getTotalViolations(), 1u);
  RT.deallocate(P);
}

TEST(GuardRuntimeTest, WatchdogReportsLockStall) {
  RuntimeConfig Config;
  Config.Guard.WatchdogMillis = 20;
  RuntimeGuard G(Config);
  Runtime &RT = Runtime::get();
  unsigned MainTid = RT.currentThread().Tid;
  Mutex M;
  M.lock();
  unsigned WaiterTid = 0;
  Thread Waiter([&] {
    WaiterTid = RT.currentThread().Tid;
    M.lock(); // stalls past the 20ms watchdog, then blocks normally
    M.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  M.unlock();
  Waiter.join();

  bool SawStall = false;
  for (const ConflictReport &R : RT.getReports().getReports())
    if (R.Kind == ReportKind::StallTimeout) {
      SawStall = true;
      EXPECT_EQ(R.Address, reinterpret_cast<uintptr_t>(&M));
      EXPECT_EQ(R.WhoTid, WaiterTid);
      EXPECT_EQ(R.LastTid, MainTid) << "stall report must name the holder";
    }
  EXPECT_TRUE(SawStall);
}

TEST(GuardRuntimeTest, LockTimeoutFaultForcesStallReport) {
  RuntimeConfig Config;
  Config.Guard.WatchdogMillis = 10000; // would never fire on its own
  RuntimeGuard G(Config);
  Runtime &RT = Runtime::get();
  guard::FaultConfig F;
  F.LockTimeout = true;
  guard::setFaults(F);
  Mutex M;
  M.lock(); // uncontended, but the injected fault reports a stall anyway
  M.unlock();
  guard::setFaults(guard::FaultConfig());

  auto Reports = RT.getReports().getReports();
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Kind, ReportKind::StallTimeout);
}

TEST(GuardRuntimeTest, WatchdogEnvOverride) {
  ASSERT_EQ(setenv("SHARC_WATCHDOG_MS", "25", 1), 0);
  {
    RuntimeGuard G;
    EXPECT_EQ(Runtime::get().watchdogMillis(), 25u);
  }
  // Empty means unset, as for SHARC_FAULT.
  ASSERT_EQ(setenv("SHARC_WATCHDOG_MS", "", 1), 0);
  {
    RuntimeGuard G;
    EXPECT_EQ(Runtime::get().watchdogMillis(), 0u);
  }
  unsetenv("SHARC_WATCHDOG_MS");

  // Malformed or past the one-day cap: exit 3 before any deadline is set.
  // A wrapped or overflowing value would make every deadline already past.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char *Bad : {"-1", "9300000000000", "86400001", "25ms", " 25"})
    EXPECT_EXIT(
        {
          setenv("SHARC_WATCHDOG_MS", Bad, 1);
          Runtime::init();
        },
        testing::ExitedWithCode(3), "bad SHARC_WATCHDOG_MS")
        << Bad;
  RuntimeConfig Config;
  Config.Guard.WatchdogMillis = guard::MaxWatchdogMillis + 1;
  EXPECT_EXIT(Runtime::init(Config), testing::ExitedWithCode(3),
              "WatchdogMillis 86400001 is over 86400000");
}

//===----------------------------------------------------------------------===//
// Crash-safe traces: the .strc v3 AbnormalEnd record
//===----------------------------------------------------------------------===//

namespace {

/// A writer carrying two conflicts (one read, one write) and a few
/// schedule events, ended abnormally as if SIGSEGV killed the producer.
void fillAbnormalTrace(obs::TraceWriter &Writer) {
  obs::Event Read;
  Read.K = obs::EventKind::Read;
  Read.Tid = 1;
  Read.Addr = 0x40;
  Writer.event(Read);
  obs::Event Conflict;
  Conflict.K = obs::EventKind::Conflict;
  Conflict.Tid = 2;
  Conflict.Addr = 0x40;
  Conflict.Extra =
      obs::makeConflictExtra(obs::ConflictKind::ReadConflict, 10, 20);
  Writer.event(Conflict);
  Conflict.Extra =
      obs::makeConflictExtra(obs::ConflictKind::WriteConflict, 11, 21);
  Writer.event(Conflict);
  Writer.finishAbnormal(/*Signal=*/11, /*Policy=*/static_cast<uint8_t>(
                            guard::Policy::Continue));
}

} // namespace

TEST(GuardTraceTest, AbnormalEndRoundTrips) {
  obs::TraceWriter Writer;
  fillAbnormalTrace(Writer);

  obs::TraceData Data;
  std::string Error;
  ASSERT_TRUE(obs::parseTrace(Writer.buffer(), Data, Error)) << Error;
  EXPECT_TRUE(Data.AbnormalEnd);
  EXPECT_EQ(Data.AbnormalSignal, 11u);
  EXPECT_EQ(Data.AbnormalPolicy,
            static_cast<uint8_t>(guard::Policy::Continue));
  EXPECT_EQ(Data.AbnormalTotalViolations, 2u);
  EXPECT_EQ(Data.AbnormalConflictCounts[static_cast<unsigned>(
                obs::ConflictKind::ReadConflict)],
            1u);
  EXPECT_EQ(Data.AbnormalConflictCounts[static_cast<unsigned>(
                obs::ConflictKind::WriteConflict)],
            1u);

  std::string Rendered = obs::renderSummary(obs::summarize(Data), Data);
  EXPECT_NE(Rendered.find("ABNORMAL END"), std::string::npos);
  EXPECT_NE(Rendered.find("violations before death: 2"), std::string::npos);
}

TEST(GuardTraceTest, NormalTraceHasNoAbnormalEnd) {
  obs::TraceWriter Writer;
  obs::Event Read;
  Read.K = obs::EventKind::Read;
  Read.Tid = 1;
  Read.Addr = 0x40;
  Writer.event(Read);
  Writer.finish();
  obs::TraceData Data;
  std::string Error;
  ASSERT_TRUE(obs::parseTrace(Writer.buffer(), Data, Error)) << Error;
  EXPECT_FALSE(Data.AbnormalEnd);
}

TEST(GuardTraceTest, EveryTruncationPrefixParsesOrDiagnoses) {
  obs::TraceWriter Writer;
  fillAbnormalTrace(Writer);
  const std::string &Full = Writer.buffer();
  for (size_t N = 0; N < Full.size(); ++N) {
    obs::TraceData Data;
    std::string Error;
    if (!obs::parseTrace(Full.substr(0, N), Data, Error)) {
      EXPECT_FALSE(Error.empty())
          << "prefix " << N << " failed without a diagnostic";
    }
  }
}

TEST(GuardTraceTest, TornWriteTruncatesAndFails) {
  obs::TraceWriter Writer;
  fillAbnormalTrace(Writer);
  Writer.setFaultTruncate(10);

  std::string Path = testing::TempDir() + "/guard_torn.strc";
  std::string Error;
  EXPECT_FALSE(Writer.writeToFile(Path, Error));
  EXPECT_NE(Error.find("torn write"), std::string::npos) << Error;

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::fseek(F, 0, SEEK_END);
  EXPECT_EQ(std::ftell(F), 10);
  std::fclose(F);
  std::remove(Path.c_str());
}
