//===-- tests/rt_profile_test.cpp - sharc-prof runtime tests --------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The runtime half of sharc-prof (DESIGN.md §11): per-site cost
// attribution through the per-thread site tables, lock wait/hold
// profiling, self-overhead accounting, and the off-by-default contract.
// The load-bearing property is exactness: summing the drained
// SiteProfile records per check kind must reproduce the runtime's own
// StatsSnapshot counters, under one thread and under eight.
//
//===----------------------------------------------------------------------===//

#include "obs/Collector.h"
#include "obs/Sink.h"
#include "rt/Annotations.h"
#include "rt/Runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace sharc;
using namespace sharc::obs;

namespace {

/// Sums the per-kind Count/Bytes of a drained site-record set.
struct KindTotals {
  uint64_t Count[NumCheckKinds] = {};
  uint64_t Bytes[NumCheckKinds] = {};
  uint64_t Cycles = 0;
  uint64_t Samples = 0;

  explicit KindTotals(const std::vector<SiteProfileRecord> &Sites) {
    for (const SiteProfileRecord &R : Sites) {
      Count[unsigned(R.Kind)] += R.Count;
      Bytes[unsigned(R.Kind)] += R.Bytes;
      Cycles += R.Cycles;
      Samples += R.Samples;
    }
  }
};

/// Asserts that the site records account for every counter the runtime
/// itself reports — the "totals: exact match" acceptance criterion.
void expectExactAttribution(const std::vector<SiteProfileRecord> &Sites,
                            const rt::StatsSnapshot &S) {
  KindTotals T(Sites);
  EXPECT_EQ(T.Count[unsigned(CheckKind::DynamicRead)], S.DynamicReads);
  EXPECT_EQ(T.Bytes[unsigned(CheckKind::DynamicRead)], S.DynamicReadBytes);
  EXPECT_EQ(T.Count[unsigned(CheckKind::DynamicWrite)], S.DynamicWrites);
  EXPECT_EQ(T.Bytes[unsigned(CheckKind::DynamicWrite)], S.DynamicWriteBytes);
  EXPECT_EQ(T.Count[unsigned(CheckKind::LockCheck)], S.LockChecks);
  EXPECT_EQ(T.Count[unsigned(CheckKind::RcBarrier)], S.RcBarriers);
  EXPECT_EQ(T.Count[unsigned(CheckKind::SharingCast)], S.SharingCasts);
}

class RtProfileTest : public ::testing::Test {
protected:
  /// Tears the runtime down (if the test has not already) so the fixture
  /// never leaks a live global into the next test.
  void TearDown() override {
    if (rt::Runtime::isLive())
      rt::Runtime::shutdown();
  }

  /// Runtime with full profiling into Downstream via a Collector.
  /// SampleShift 0 times every operation, so Cycles/Samples are
  /// deterministic in what they cover (every op) if not in magnitude.
  void initProfiled(unsigned ShadowBytesPerGranule = 1, bool Profile = true,
                    uint64_t WatchdogMillis = 0) {
    Wrapper.emplace(Downstream);
    rt::RuntimeConfig Config;
    Config.Obs = &*Wrapper;
    Config.Profile = Profile;
    Config.ProfileSampleShift = 0;
    Config.ShadowBytesPerGranule = ShadowBytesPerGranule;
    Config.Guard.WatchdogMillis = WatchdogMillis;
    rt::Runtime::init(Config);
  }

  VectorSink Downstream;
  std::optional<Collector> Wrapper;
};

TEST_F(RtProfileTest, SingleThreadTotalsMatchStatsExactly) {
  initProfiled();
  rt::Runtime &RT = rt::Runtime::get();

  int *P = static_cast<int *>(RT.allocate(64));
  for (int I = 0; I != 100; ++I)
    RT.checkRead(P, 4, SHARC_SITE("*p"));
  for (int I = 0; I != 50; ++I)
    RT.checkWrite(P, 8, SHARC_SITE("*p"));

  Mutex M;
  M.lock(SHARC_SITE("m"));
  for (int I = 0; I != 25; ++I)
    RT.checkLockHeld(&M, P, SHARC_SITE("counter"));
  M.unlock();

  void *Obj = RT.allocate(32);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  for (int I = 0; I != 10; ++I)
    RT.rcStore(&Slot, Obj, SHARC_SITE("slot"));
  (void)RT.scast(&Slot, 32, SHARC_SITE("(private)obj"));

  rt::StatsSnapshot S = RT.getStats();
  RT.deallocate(Obj);
  RT.deallocate(P);
  rt::Runtime::shutdown(); // drains the main thread's table
  Wrapper->flush();

  EXPECT_EQ(S.DynamicReads, 100u);
  EXPECT_EQ(S.DynamicWrites, 50u);
  EXPECT_EQ(S.LockChecks, 25u);
  EXPECT_EQ(S.RcBarriers, 11u); // 10 explicit stores + the cast's null-out
  EXPECT_EQ(S.SharingCasts, 1u);
  expectExactAttribution(Downstream.Sites, S);

  // Every record names a concrete site: SHARC_SITE supplied all of them.
  for (const SiteProfileRecord &R : Downstream.Sites) {
    EXPECT_FALSE(R.File.empty()) << R.LValue;
    EXPECT_GT(R.Line, 0u) << R.LValue;
    EXPECT_FALSE(R.LValue.empty());
    EXPECT_EQ(R.Samples, R.Count) << "SampleShift 0 samples every op";
  }
  // With every operation sampled, some cycles must have accumulated.
  EXPECT_GT(KindTotals(Downstream.Sites).Cycles, 0u);
}

TEST_F(RtProfileTest, SelfOverheadIsPublishedAndPopulated) {
  initProfiled();
  rt::Runtime &RT = rt::Runtime::get();
  int *P = static_cast<int *>(RT.allocate(16));
  for (int I = 0; I != 200; ++I)
    RT.checkRead(P, 4, SHARC_SITE("*p"));
  RT.deallocate(P);
  rt::Runtime::shutdown();
  Wrapper->flush();

  ASSERT_EQ(Downstream.Overheads.size(), 1u);
  const SelfOverheadRecord &O = Downstream.Overheads[0];
  EXPECT_GE(O.Ops, 200u);
  EXPECT_EQ(O.Samples, O.Ops) << "SampleShift 0 samples every op";
  EXPECT_GT(O.TableBytes, 0u);
}

TEST_F(RtProfileTest, ProfileOffPublishesNoRecords) {
  initProfiled(/*ShadowBytesPerGranule=*/1, /*Profile=*/false);
  rt::Runtime &RT = rt::Runtime::get();
  EXPECT_FALSE(RT.profilingEnabled());
  int *P = static_cast<int *>(RT.allocate(16));
  for (int I = 0; I != 10; ++I)
    RT.checkRead(P, 4, SHARC_SITE("*p"));
  Mutex M;
  M.lock();
  M.unlock();
  RT.deallocate(P);
  rt::Runtime::shutdown();
  Wrapper->flush();

  // Events still flow (obs is on); profile records do not.
  EXPECT_FALSE(Downstream.Events.empty());
  EXPECT_TRUE(Downstream.Sites.empty());
  EXPECT_TRUE(Downstream.Locks.empty());
  EXPECT_TRUE(Downstream.Overheads.empty());
}

TEST_F(RtProfileTest, ProfileFlagWithoutSinkIsIgnored) {
  rt::RuntimeConfig Config;
  Config.Profile = true; // armed but sinkless: the ci.sh gate's mode 1
  rt::Runtime::init(Config);
  rt::Runtime &RT = rt::Runtime::get();
  EXPECT_FALSE(RT.profilingEnabled());
  int *P = static_cast<int *>(RT.allocate(16));
  EXPECT_TRUE(RT.checkRead(P, 4, SHARC_SITE("*p")));
  RT.deallocate(P);
}

TEST_F(RtProfileTest, EightThreadStressTotalsMatchStatsExactly) {
  // Two shadow bytes per granule give 15 thread ids: 8 workers plus the
  // main thread fit with room for id reuse slack.
  initProfiled(/*ShadowBytesPerGranule=*/2);
  rt::Runtime &RT = rt::Runtime::get();

  constexpr unsigned NumThreads = 8;
  constexpr int PerThread = 5000;
  std::vector<void *> Blocks(NumThreads);
  for (unsigned T = 0; T != NumThreads; ++T)
    Blocks[T] = RT.allocate(256);

  {
    std::vector<Thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&RT, &Blocks, T] {
        // Every thread hammers its own block through shared AccessSites,
        // forcing concurrent growth of eight independent site tables.
        char *P = static_cast<char *>(Blocks[T]);
        void *Slot = nullptr;
        RT.rcInitSlot(&Slot);
        for (int I = 0; I != PerThread; ++I) {
          RT.checkRead(P + (I % 16) * 16, 2, SHARC_SITE("buf[i]"));
          if (I % 2)
            RT.checkWrite(P + (I % 16) * 16, 4, SHARC_SITE("buf[i]"));
          if (I % 8 == 0)
            RT.rcStore(&Slot, I % 16 ? Blocks[T] : nullptr,
                       SHARC_SITE("slot"));
        }
        RT.rcStore(&Slot, nullptr, SHARC_SITE("slot"));
      });
    for (Thread &T : Threads)
      T.join(); // deregistration drains each worker's table
  }

  rt::StatsSnapshot S = RT.getStats();
  for (void *B : Blocks)
    RT.deallocate(B);
  rt::Runtime::shutdown();
  Wrapper->flush();

  EXPECT_EQ(S.DynamicReads, uint64_t(NumThreads) * PerThread);
  EXPECT_EQ(S.DynamicWrites, uint64_t(NumThreads) * (PerThread / 2));
  expectExactAttribution(Downstream.Sites, S);

  // Each worker drains its own table at retire: three sites apiece
  // (read, write, rc-store), never merged across threads even when a
  // retired worker's id was reused by a later one.
  EXPECT_GE(Downstream.Sites.size(), size_t(3) * NumThreads);
  for (const SiteProfileRecord &R : Downstream.Sites)
    EXPECT_FALSE(R.File.empty()) << "worker site lost its attribution";

  // One SelfOverhead record per retiring worker (the main thread may or
  // may not have profiled ops of its own).
  EXPECT_GE(Downstream.Overheads.size(), size_t(NumThreads));
}

TEST_F(RtProfileTest, LockContentionIsAttributedToAcquirerSite) {
  initProfiled();

  Mutex M;
  std::atomic<bool> HolderHasLock{false};
  std::atomic<bool> ReleaseHolder{false};
  {
    Thread Holder([&] {
      M.lock(SHARC_SITE("m(holder)"));
      HolderHasLock.store(true);
      while (!ReleaseHolder.load())
        ;
      M.unlock();
    });
    while (!HolderHasLock.load())
      ;
    Thread Waiter([&] {
      // Guaranteed contended: the holder spins until we are committed to
      // the slow path, which ReleaseHolder only permits after this
      // thread has published its wait.
      M.lock(SHARC_SITE("m(waiter)"));
      M.unlock();
    });
    // Give the waiter time to block, then release.
    while (!ReleaseHolder.load()) {
      bool SawWait = false;
      {
        // LockWait events reach the downstream sink only on drain, so
        // poll through a flush; one iteration after the waiter blocks
        // this becomes visible.
        Wrapper->flush();
        for (const Event &Ev : Downstream.Events)
          SawWait |= Ev.K == EventKind::LockWait;
      }
      if (SawWait)
        ReleaseHolder.store(true);
    }
    Holder.join();
    Waiter.join();
  }

  for (int I = 0; I != 4; ++I) { // uncontended acquires from main
    M.lock(SHARC_SITE("m(main)"));
    M.unlock();
  }

  rt::Runtime::shutdown();
  Wrapper->flush();

  ASSERT_FALSE(Downstream.Locks.empty());
  uint64_t Acquires = 0, Contended = 0, WaitCycles = 0;
  uint64_t WaitHistSum = 0, HoldHistSum = 0;
  for (const LockProfileRecord &R : Downstream.Locks) {
    EXPECT_EQ(R.Lock, uint64_t(reinterpret_cast<uintptr_t>(&M)));
    EXPECT_FALSE(R.File.empty()) << "acquirer site lost";
    EXPECT_GT(R.Line, 0u);
    Acquires += R.Acquires;
    Contended += R.Contended;
    WaitCycles += R.WaitCycles;
    for (unsigned B = 0; B != NumHistBuckets; ++B) {
      WaitHistSum += R.WaitHist[B];
      HoldHistSum += R.HoldHist[B];
    }
  }
  EXPECT_EQ(Acquires, 6u); // holder + waiter + 4 from main
  EXPECT_GE(Contended, 1u) << "the forced wait was not recorded";
  EXPECT_GT(WaitCycles, 0u);
  // Histograms account for every acquire: one wait bucket per acquire
  // (bucket 0 for the uncontended ones) and one hold bucket per
  // completed hold.
  EXPECT_EQ(WaitHistSum, Acquires);
  EXPECT_EQ(HoldHistSum, Acquires);
}

TEST_F(RtProfileTest, WatchdogArmedAcquiresAreStillProfiled) {
  // Profiling and the stall watchdog armed together: every exclusive and
  // shared acquire is timed and profiled, and a stall is still reported
  // with its holder named.
  initProfiled(/*ShadowBytesPerGranule=*/1, /*Profile=*/true,
               /*WatchdogMillis=*/10000);
  rt::Runtime &RT = rt::Runtime::get();
  const rt::AccessSite *MSite = SHARC_SITE("m");
  const rt::AccessSite *ExclSite = SHARC_SITE("rw(exclusive)");
  const rt::AccessSite *SharedSite = SHARC_SITE("rw(shared)");
  Mutex M;
  SharedMutex RW;
  for (int I = 0; I != 8; ++I) {
    M.lock(MSite);
    M.unlock();
  }
  for (int I = 0; I != 5; ++I) {
    RW.lock(ExclSite);
    RW.unlock();
    RW.lock_shared(SharedSite);
    RW.unlock_shared();
  }

  // Main holds M; the waiter's acquire takes an injected lock timeout,
  // which files the stall report at once and then waits for the lock.
  unsigned MainTid = RT.currentThread().Tid;
  M.lock(MSite);
  guard::FaultConfig F;
  F.LockTimeout = true;
  guard::setFaults(F);
  unsigned WaiterTid = 0;
  Thread Waiter([&] {
    WaiterTid = RT.currentThread().Tid;
    M.lock(MSite);
    M.unlock();
  });
  while (RT.getReports().getTotalOfKind(rt::ReportKind::StallTimeout) == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  M.unlock();
  Waiter.join();
  guard::setFaults(guard::FaultConfig());

  std::vector<rt::ConflictReport> Reports = RT.getReports().getReports();
  live::LiveSnapshot S = RT.liveSnapshot();
  rt::Runtime::shutdown();
  Wrapper->flush();

  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Kind, rt::ReportKind::StallTimeout);
  EXPECT_EQ(Reports[0].WhoTid, WaiterTid);
  EXPECT_EQ(Reports[0].LastTid, MainTid) << "stall report must name the holder";
  EXPECT_EQ(S.LockAcquires, 20u);
  EXPECT_GE(S.LockContended, 1u) << "the stalled acquire waited";
  uint64_t MAcquires = 0, ExclAcquires = 0, SharedAcquires = 0;
  for (const LockProfileRecord &R : Downstream.Locks) {
    if (R.Lock == uint64_t(reinterpret_cast<uintptr_t>(&M)))
      MAcquires += R.Acquires;
    else if (R.Line == uint32_t(ExclSite->Line))
      ExclAcquires += R.Acquires;
    else if (R.Line == uint32_t(SharedSite->Line))
      SharedAcquires += R.Acquires;
  }
  EXPECT_EQ(MAcquires, 10u);
  EXPECT_EQ(ExclAcquires, 5u);
  EXPECT_EQ(SharedAcquires, 5u);
}

} // namespace
