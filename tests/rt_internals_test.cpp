//===-- tests/rt_internals_test.cpp - Runtime internals tests -------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the runtime's internal data structures:
/// the chunked RC logs (concurrent scan vs. append), the sharded dirty
/// table, the address index behind the count table under stress, report
/// formatting/dedup, the deferred-free heap, and concurrent shadow
/// memory properties, including reports that read another thread's access
/// log while it appends, and stats snapshots taken while the counted
/// threads run.
///
//===----------------------------------------------------------------------===//

#include "obs/Sink.h"
#include "rt/DirtyTable.h"
#include "rt/RcLog.h"
#include "rt/RcTable.h"
#include "rt/Sharc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>
#include <unordered_map>
#include <vector>

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

} // namespace

//===----------------------------------------------------------------------===//
// RcLog
//===----------------------------------------------------------------------===//

TEST(RcLogTest, PushAndIterate) {
  RcLog Log;
  EXPECT_TRUE(Log.empty());
  for (uintptr_t I = 1; I <= 100; ++I)
    Log.push({I, I * 10});
  EXPECT_EQ(Log.size(), 100u);
  uintptr_t Sum = 0;
  Log.forEach([&](const RcLogEntry &E) { Sum += E.Old; });
  EXPECT_EQ(Sum, 10u * (100 * 101) / 2);
}

TEST(RcLogTest, SpansMultipleChunks) {
  RcLog Log;
  constexpr size_t N = 1000; // > 256-entry chunk size
  for (uintptr_t I = 0; I != N; ++I)
    Log.push({I, I});
  EXPECT_EQ(Log.size(), N);
  size_t Count = 0;
  Log.forEach([&](const RcLogEntry &E) {
    EXPECT_EQ(E.Slot, Count);
    ++Count;
  });
  EXPECT_EQ(Count, N);
  EXPECT_GT(Log.memoryFootprint(), 3 * 256 * sizeof(RcLogEntry));
}

TEST(RcLogTest, FindOldForReturnsFirstEntry) {
  RcLog Log;
  Log.push({0x10, 1});
  Log.push({0x20, 2});
  Log.push({0x10, 3}); // would only happen under racy writes; first wins
  uintptr_t Found = 0;
  EXPECT_TRUE(Log.findOldFor(0x10, Found));
  EXPECT_EQ(Found, 1u);
  EXPECT_TRUE(Log.findOldFor(0x20, Found));
  EXPECT_EQ(Found, 2u);
  EXPECT_FALSE(Log.findOldFor(0x30, Found));
}

TEST(RcLogTest, ClearKeepsFirstChunkAndResets) {
  RcLog Log;
  for (uintptr_t I = 0; I != 600; ++I)
    Log.push({I, I});
  Log.clear();
  EXPECT_TRUE(Log.empty());
  Log.push({7, 8});
  EXPECT_EQ(Log.size(), 1u);
  uintptr_t Found = 0;
  EXPECT_TRUE(Log.findOldFor(7, Found));
  EXPECT_EQ(Found, 8u);
}

TEST(RcLogTest, ConcurrentScanSeesPrefix) {
  // The collector may scan the live log while the owner appends; the scan
  // must see a consistent prefix (no torn entries, no crashes). Scanning
  // starts before the first push, which allocates the first chunk.
  RcLog Log;
  std::atomic<bool> Scanning{false};
  std::atomic<bool> Done{false};
  std::thread Owner([&] {
    while (!Scanning.load())
      std::this_thread::yield();
    for (uintptr_t I = 1; I <= 100000; ++I)
      Log.push({I, I});
    Done.store(true);
  });
  auto ScanOnce = [&] {
    uintptr_t Prev = 0;
    Log.forEach([&](const RcLogEntry &E) {
      // Entries are appended in increasing slot order; a consistent
      // prefix must preserve that.
      EXPECT_EQ(E.Slot, Prev + 1);
      Prev = E.Slot;
    });
    (void)Log.memoryFootprint();
  };
  ScanOnce();
  Scanning.store(true);
  // Concurrent scans while the owner appends (on a one-core box the owner
  // may finish first; the post-join scan below always runs).
  while (!Done.load())
    ScanOnce();
  Owner.join();
  ScanOnce();
  EXPECT_EQ(Log.size(), 100000u);
}

//===----------------------------------------------------------------------===//
// DirtyTable
//===----------------------------------------------------------------------===//

TEST(DirtyTableTest, TestAndSetPerEpoch) {
  DirtyTable Table;
  EXPECT_FALSE(Table.testAndSet(0x1000, 0));
  EXPECT_TRUE(Table.testAndSet(0x1000, 0)); // now dirty in epoch 0
  EXPECT_FALSE(Table.testAndSet(0x1000, 1)); // epoch 1 independent
  EXPECT_TRUE(Table.isDirty(0x1000, 0));
  EXPECT_TRUE(Table.isDirty(0x1000, 1));
  EXPECT_FALSE(Table.isDirty(0x2000, 0));
}

TEST(DirtyTableTest, ClearEpochIsSelective) {
  DirtyTable Table;
  Table.testAndSet(0x10, 0);
  Table.testAndSet(0x10, 1);
  Table.testAndSet(0x20, 0);
  Table.clearEpoch(0);
  EXPECT_FALSE(Table.isDirty(0x10, 0));
  EXPECT_TRUE(Table.isDirty(0x10, 1));
  EXPECT_FALSE(Table.isDirty(0x20, 0));
  // Slot 0x20 fully clean: erased.
  EXPECT_FALSE(Table.testAndSet(0x20, 0));
}

TEST(DirtyTableTest, ManySlotsAcrossShards) {
  DirtyTable Table;
  for (uintptr_t I = 0; I != 10000; ++I)
    EXPECT_FALSE(Table.testAndSet(I * 8, I & 1));
  for (uintptr_t I = 0; I != 10000; ++I)
    EXPECT_TRUE(Table.isDirty(I * 8, I & 1));
  EXPECT_GT(Table.memoryFootprint(), 10000u * 8);
  Table.clearEpoch(0);
  Table.clearEpoch(1);
  for (uintptr_t I = 0; I != 10000; ++I)
    EXPECT_FALSE(Table.isDirty(I * 8, I & 1));
}

TEST(DirtyTableTest, ConcurrentTestAndSetExactlyOneWinner) {
  // For each slot, exactly one of N racing testAndSet calls must observe
  // "was clean" -- that is what keeps RC logs duplicate-free.
  DirtyTable Table;
  constexpr unsigned NumThreads = 4;
  constexpr unsigned NumSlots = 2000;
  std::atomic<unsigned> Winners{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&] {
      for (uintptr_t Slot = 0; Slot != NumSlots; ++Slot)
        if (!Table.testAndSet(Slot * 8, 0))
          Winners.fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Winners.load(), NumSlots);
}

//===----------------------------------------------------------------------===//
// RcTable stress
//===----------------------------------------------------------------------===//

TEST(RcTableStressTest, ConcurrentAddsSumExactly) {
  RcTable Table;
  constexpr unsigned NumThreads = 4;
  constexpr unsigned OpsPerThread = 20000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      uint64_t Rng = T + 1;
      for (unsigned I = 0; I != OpsPerThread; ++I) {
        Rng = Rng * 6364136223846793005ull + 1;
        uintptr_t Value = 1 + (Rng >> 33) % 512;
        Table.add(Value, 1);
      }
    });
  for (auto &T : Threads)
    T.join();
  int64_t Sum = 0;
  for (uintptr_t V = 1; V <= 512; ++V)
    Sum += Table.get(V);
  EXPECT_EQ(Sum, int64_t(NumThreads) * OpsPerThread);
}

TEST(RcTableStressTest, MoreValuesThanBucketsAreAllFound) {
  // 200k values over the index's 2^16 chains. The first two families are
  // the inputs of the old open-addressing table's near-capacity and
  // probing tests: values a page apart, as heap blocks often are, and
  // values that collided under probing.
  RcTable Table;
  std::unordered_map<uintptr_t, int64_t> Want;
  auto Add = [&](uintptr_t Value, int64_t Delta) {
    Table.add(Value, Delta);
    Want[Value] += Delta;
  };
  for (uintptr_t V = 1; V <= 192; ++V)
    Add(V * 4096 + 1, static_cast<int64_t>(V));
  for (uintptr_t V = 1; V <= 12; ++V)
    Add(V * 7919, static_cast<int64_t>(V));
  for (uintptr_t V = 1; Want.size() != 200000; ++V)
    Add(V * 16, static_cast<int64_t>(V % 7) - 3);
  size_t Wrong = 0;
  for (const auto &[Value, Count] : Want)
    Wrong += Table.get(Value) != Count;
  EXPECT_EQ(Wrong, 0u);
  EXPECT_EQ(Table.getNumEntries(), 200000u);
  EXPECT_EQ(Table.get(8), 0) << "a value never counted reads 0";
}

TEST(RcTableStressTest, RacingInsertsOfOneValueMakeOneEntry) {
  // Four threads count the same fresh values in the same order, so the
  // first count of each value races: exactly one entry may go in, and
  // the losers must find it.
  constexpr unsigned NumThreads = 4;
  constexpr uintptr_t NumValues = 10000;
  RcTable Table;
  std::latch Start(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&] {
      Start.arrive_and_wait();
      for (uintptr_t V = 1; V <= NumValues; ++V)
        Table.add(V * 64, 1);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Table.getNumEntries(), NumValues);
  size_t Wrong = 0;
  for (uintptr_t V = 1; V <= NumValues; ++V)
    Wrong += Table.get(V * 64) != int64_t(NumThreads);
  EXPECT_EQ(Wrong, 0u);
}

TEST(RcTableStressTest, StatsCountOneEntryPerDistinctValue) {
  RuntimeConfig Config;
  Config.Rc = RcMode::Atomic; // counts land at the store, not a collection
  RuntimeGuard Guard(Config);
  Runtime &RT = Runtime::get();
  EXPECT_EQ(RT.getStats().RcTableBytes, 0u);
  void *A = RT.allocate(32);
  void *B = RT.allocate(32);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  RT.rcStore(&Slot, A);
  EXPECT_EQ(RT.getStats().RcTableBytes, RcTable::entryBytes());
  RT.rcStore(&Slot, B);
  RT.rcStore(&Slot, A);
  EXPECT_EQ(RT.getStats().RcTableBytes, 2 * RcTable::entryBytes());
  RT.rcStore(&Slot, nullptr);
  RT.deallocate(A);
  RT.deallocate(B);
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

TEST(ReportFormatTest, MatchesPaperLayout) {
  static const AccessSite Who{"S->sdata", "pipeline_test.c", 15};
  static const AccessSite Last{"nextS->sdata", "pipeline_test.c", 27};
  ConflictReport Report;
  Report.Kind = ReportKind::ReadConflict;
  Report.Address = 0x75324464;
  Report.WhoTid = 2;
  Report.WhoSite = &Who;
  Report.LastTid = 1;
  Report.LastSite = &Last;
  std::string Text = Report.format();
  EXPECT_EQ(Text, "read conflict(0x75324464):\n"
                  "  who(2)  S->sdata @ pipeline_test.c: 15\n"
                  "  last(1) nextS->sdata @ pipeline_test.c: 27\n");
}

TEST(ReportSinkTest, DedupsBySiteAndAddress) {
  ReportSink Sink(16);
  static const AccessSite Site{"*p", "t.c", 1};
  ConflictReport Report;
  Report.Kind = ReportKind::WriteConflict;
  Report.Address = 0x1000;
  Report.WhoSite = &Site;
  EXPECT_TRUE(Sink.report(Report));
  EXPECT_FALSE(Sink.report(Report)); // duplicate
  Report.Address = 0x2000;           // different granule: retained
  EXPECT_TRUE(Sink.report(Report));
  EXPECT_EQ(Sink.getNumReports(), 2u);
  EXPECT_EQ(Sink.getTotalViolations(), 3u);
}

TEST(ReportSinkTest, RespectsRetentionCap) {
  ReportSink Sink(4);
  static const AccessSite Site{"x", "t.c", 2};
  for (uintptr_t A = 0; A != 100; ++A) {
    ConflictReport Report;
    Report.Kind = ReportKind::ReadConflict;
    Report.Address = A * 16;
    Report.WhoSite = &Site;
    Sink.report(Report);
  }
  EXPECT_EQ(Sink.getNumReports(), 4u);
  EXPECT_EQ(Sink.getTotalViolations(), 100u);
}

TEST(ReportSinkTest, WouldRetainPredictsReport) {
  ReportSink Sink(2);
  Sink.setMaxPerKind(1);
  static const AccessSite Site{"z", "t.c", 4};
  ConflictReport Report;
  Report.Kind = ReportKind::ReadConflict;
  Report.Address = 0x10;
  Report.WhoSite = &Site;
  EXPECT_TRUE(Sink.wouldRetain(Report));
  EXPECT_TRUE(Sink.report(Report));
  EXPECT_FALSE(Sink.wouldRetain(Report)); // duplicate
  Report.Address = 0x20;
  EXPECT_FALSE(Sink.wouldRetain(Report)); // per-kind cap
  Report.Kind = ReportKind::WriteConflict;
  EXPECT_TRUE(Sink.wouldRetain(Report));
  EXPECT_TRUE(Sink.report(Report));
  Report.Kind = ReportKind::CastError;
  EXPECT_FALSE(Sink.wouldRetain(Report)); // retention cap
  EXPECT_FALSE(Sink.report(Report));
}

TEST(ReportSinkTest, TakeReportsDrainsAndResetsDedup) {
  ReportSink Sink(16);
  static const AccessSite Site{"y", "t.c", 3};
  ConflictReport Report;
  Report.Kind = ReportKind::LockViolation;
  Report.Address = 8;
  Report.WhoSite = &Site;
  Sink.report(Report);
  auto Taken = Sink.takeReports();
  ASSERT_EQ(Taken.size(), 1u);
  EXPECT_EQ(Sink.getNumReports(), 0u);
  EXPECT_TRUE(Sink.report(Report)); // dedup reset
}

//===----------------------------------------------------------------------===//
// Heap details
//===----------------------------------------------------------------------===//

TEST(HeapDetailTest, ZeroSizedAllocationIsValid) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  void *P = RT.allocate(0);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(RT.allocationSize(P), 0u);
  RT.deallocate(P);
}

TEST(HeapDetailTest, DeallocateNullIsNoop) {
  RuntimeGuard Guard;
  Runtime::get().deallocate(nullptr);
}

TEST(HeapDetailTest, ManySmallAllocationsDistinctGranules) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  std::vector<void *> Ptrs;
  for (int I = 0; I != 256; ++I)
    Ptrs.push_back(RT.allocate(1));
  // Distinct allocations never share a granule (Section 4.5's malloc
  // alignment guarantee): writing all of them from two overlapping
  // threads' disjoint halves must be conflict-free.
  std::atomic<int> Stage{0};
  Thread A([&] {
    Stage.fetch_add(1);
    while (Stage.load() < 2)
      ;
    for (int I = 0; I != 128; ++I)
      RT.checkWrite(Ptrs[I], 1, nullptr);
    Stage.fetch_add(1);
    while (Stage.load() < 4)
      ;
  });
  Thread B([&] {
    Stage.fetch_add(1);
    while (Stage.load() < 2)
      ;
    for (int I = 128; I != 256; ++I)
      RT.checkWrite(Ptrs[I], 1, nullptr);
    Stage.fetch_add(1);
    while (Stage.load() < 4)
      ;
  });
  A.join();
  B.join();
  EXPECT_EQ(RT.getStats().totalConflicts(), 0u);
  for (void *P : Ptrs)
    RT.deallocate(P);
}

TEST(HeapDetailTest, DeferredBacklogIsBounded) {
  // Massive free traffic must not accumulate unboundedly: the runtime
  // forces a collection when the deferred list passes its threshold.
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  for (int I = 0; I != 40000; ++I) {
    void *P = RT.allocate(32);
    RT.deallocate(P);
  }
  EXPECT_GE(RT.getStats().Collections, 1u);
}

//===----------------------------------------------------------------------===//
// Shadow memory concurrent property
//===----------------------------------------------------------------------===//

TEST(ShadowPropertyTest, DisjointGranulesNeverFalseReport) {
  // N threads hammer disjoint granule sets concurrently; zero reports.
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  constexpr unsigned NumThreads = 4;
  constexpr unsigned GranulesEach = 64;
  char *Arena = static_cast<char *>(
      RT.allocate(NumThreads * GranulesEach * 16));
  std::vector<Thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      char *Base = Arena + T * GranulesEach * 16;
      for (unsigned Round = 0; Round != 200; ++Round)
        for (unsigned G = 0; G != GranulesEach; ++G) {
          RT.checkWrite(Base + G * 16, 8, nullptr);
          RT.checkRead(Base + G * 16, 8, nullptr);
        }
    });
  for (Thread &T : Threads)
    T.join();
  EXPECT_EQ(RT.getStats().totalConflicts(), 0u);
  RT.deallocate(Arena);
}

TEST(ShadowPropertyTest, SharedGranuleWriterAlwaysCaught) {
  // One writer + overlapping readers on the same granule: at least one
  // side must report, in every interleaving.
  for (int Round = 0; Round != 10; ++Round) {
    RuntimeGuard Guard;
    Runtime &RT = Runtime::get();
    int *Cell = static_cast<int *>(RT.allocate(sizeof(int)));
    std::atomic<int> Stage{0};
    Thread Writer([&] {
      Stage.fetch_add(1);
      while (Stage.load() < 2)
        ;
      RT.checkWrite(Cell, 4, nullptr);
      Stage.fetch_add(1);
      while (Stage.load() < 4)
        ;
    });
    Thread Reader([&] {
      Stage.fetch_add(1);
      while (Stage.load() < 2)
        ;
      RT.checkRead(Cell, 4, nullptr);
      Stage.fetch_add(1);
      while (Stage.load() < 4)
        ;
    });
    Writer.join();
    Reader.join();
    EXPECT_GE(RT.getStats().totalConflicts(), 1u) << "round " << Round;
    RT.deallocate(Cell);
  }
}

TEST(ShadowPropertyTest, ReportsReadTheLogOfAnAppendingThread) {
  // One thread logs 65,536 first accesses while another files conflicts
  // against granules it has just written, so every report scans the
  // writer's access log as it grows. Each must still name the write.
  for (int Round = 0; Round != 3; ++Round) {
    RuntimeGuard Guard;
    Runtime &RT = Runtime::get();
    constexpr size_t NumGranules = size_t(1) << 16;
    constexpr size_t Stride = NumGranules / 256; // 256 reports, all kept
    static const AccessSite WriteSite{"buf[i]", "append.c", 7};
    static const AccessSite ReadSite{"buf[i]", "report.c", 9};
    char *Buf = static_cast<char *>(RT.allocate(NumGranules * 16));
    std::atomic<size_t> Written{0};
    std::atomic<bool> ReaderDone{false};
    unsigned WriterTid = 0;
    Thread Writer([&] {
      WriterTid = RT.currentThread().Tid;
      for (size_t G = 0; G != NumGranules; ++G) {
        RT.checkWrite(Buf + 16 * G, 1, &WriteSite);
        Written.store(G + 1, std::memory_order_release);
      }
      // Stay registered, bits set and log live, until the reader is done.
      while (!ReaderDone.load())
        std::this_thread::yield();
    });
    Thread Reader([&] {
      for (size_t G = 0; G < NumGranules; G += Stride) {
        while (Written.load(std::memory_order_acquire) <= G)
          std::this_thread::yield();
        EXPECT_FALSE(RT.checkRead(Buf + 16 * G, 1, &ReadSite));
      }
      ReaderDone.store(true);
    });
    Writer.join();
    Reader.join();
    auto Reports = RT.getReports().getReports();
    ASSERT_EQ(Reports.size(), NumGranules / Stride) << "round " << Round;
    for (const ConflictReport &R : Reports) {
      EXPECT_EQ(R.LastTid, WriterTid) << "round " << Round;
      EXPECT_EQ(R.LastSite, &WriteSite) << "round " << Round;
    }
    RT.deallocate(Buf);
  }
}

namespace {
/// Counts the conflict events a ReportSink publishes, and those that
/// carry a last site.
class ConflictCounter final : public obs::Sink {
public:
  void event(const obs::Event &Ev) override {
    if (Ev.K != obs::EventKind::Conflict)
      return;
    Events.fetch_add(1, std::memory_order_relaxed);
    if (obs::conflictLastLine(Ev.Extra) != 0)
      WithSite.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<uint64_t> Events{0};
  std::atomic<uint64_t> WithSite{0};
};
} // namespace

TEST(ShadowPropertyTest, OnlyRetainedReportsScanTheLog) {
  // Two racy patterns whose conflicts are mostly dropped: a reader that
  // polls a flag another thread wrote (every poll conflicts again and is
  // deduplicated), and a stride-1 read of a buffer that thread wrote (one
  // conflict per granule, far past the report cap). A dropped conflict
  // must not scan the writer's 65,537-entry log, so exactly the retained
  // reports carry a site and the scans stay bounded by the cap.
  constexpr size_t NumGranules = size_t(1) << 16;
  constexpr uint64_t NumPolls = 100000;
  static const AccessSite FlagWrite{"flag", "poll.c", 3};
  static const AccessSite BufWrite{"buf[i]", "poll.c", 4};
  static const AccessSite FlagRead{"flag", "poll.c", 8};
  static const AccessSite BufRead{"buf[i]", "poll.c", 9};
  ConflictCounter Counter;
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  RT.getReports().setObs(&Counter);
  char *Flag = static_cast<char *>(RT.allocate(16));
  char *Buf = static_cast<char *>(RT.allocate(NumGranules * 16));
  std::atomic<bool> Written{false};
  std::atomic<bool> ReaderDone{false};
  unsigned WriterTid = 0;
  Thread Writer([&] {
    WriterTid = RT.currentThread().Tid;
    RT.checkWrite(Flag, 1, &FlagWrite);
    for (size_t G = 0; G != NumGranules; ++G)
      RT.checkWrite(Buf + 16 * G, 1, &BufWrite);
    Written.store(true);
    // Stay registered, bits set and log live, until the reader is done.
    while (!ReaderDone.load())
      std::this_thread::yield();
  });
  Thread Reader([&] {
    while (!Written.load())
      std::this_thread::yield();
    size_t Failed = 0;
    for (uint64_t I = 0; I != NumPolls; ++I)
      Failed += !RT.checkRead(Flag, 1, &FlagRead);
    for (size_t G = 0; G != NumGranules; ++G)
      Failed += !RT.checkRead(Buf + 16 * G, 1, &BufRead);
    EXPECT_EQ(Failed, NumPolls + NumGranules);
    ReaderDone.store(true);
  });
  Writer.join();
  Reader.join();
  RT.getReports().setObs(nullptr);
  const size_t Cap = RT.getConfig().MaxReports;
  auto Reports = RT.getReports().getReports();
  ASSERT_EQ(Reports.size(), Cap);
  EXPECT_EQ(Counter.Events.load(), NumPolls + NumGranules);
  EXPECT_EQ(Counter.WithSite.load(), Cap);
  for (const ConflictReport &R : Reports) {
    EXPECT_EQ(R.LastTid, WriterTid);
    EXPECT_EQ(R.LastSite, R.Address == reinterpret_cast<uintptr_t>(Flag)
                              ? &FlagWrite
                              : &BufWrite);
  }
  RT.deallocate(Buf);
  RT.deallocate(Flag);
}

//===----------------------------------------------------------------------===//
// The stats fold: snapshots taken while the counted threads run
//===----------------------------------------------------------------------===//

namespace {
/// Discards everything; profiling needs a sink to be armed.
class NullSink final : public obs::Sink {
public:
  void event(const obs::Event &) override {}
};
} // namespace

TEST(StatsFoldTest, ProfiledLockCountsFoldWhilePolled) {
  // Three threads nest up to 64 profiled locks while a fourth polls
  // getStats(). The snapshot must not read the lock holders' vectors,
  // and once they have retired the profiled lock counts must be exact.
  constexpr unsigned NumThreads = 3, Rounds = 200, Depth = 64;
  NullSink Null;
  RuntimeConfig Config;
  Config.Profile = true;
  Config.Obs = &Null;
  RuntimeGuard Guard(Config);
  Runtime &RT = Runtime::get();
  std::atomic<bool> Done{false};
  Thread Poller([&] {
    while (!Done.load())
      (void)RT.getStats();
  });
  {
    std::vector<Thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&] {
        int Locks[Depth];
        for (unsigned R = 0; R != Rounds; ++R) {
          for (unsigned D = 0; D != Depth; ++D)
            RT.onLockAcquireProfiled(&Locks[D], nullptr, /*WaitCycles=*/D,
                                     /*Contended=*/D % 4 == 0);
          for (unsigned D = Depth; D-- != 0;)
            RT.onLockRelease(&Locks[D]);
        }
      });
    for (Thread &T : Threads)
      T.join();
  }
  Done.store(true);
  Poller.join();
  live::LiveSnapshot S = RT.liveSnapshot();
  EXPECT_EQ(S.LockAcquires, uint64_t(NumThreads) * Rounds * Depth);
  EXPECT_EQ(S.LockContended, uint64_t(NumThreads) * Rounds * Depth / 4);
  EXPECT_EQ(S.LockWaitUnits,
            uint64_t(NumThreads) * Rounds * (Depth * (Depth - 1) / 2));
}

TEST(StatsFoldTest, CheckCountsFoldWhileLivePolled) {
  // Two threads race checkWrite over the same 256 granules under the
  // continue policy, so their writes conflict and file violations, while
  // a third polls liveSnapshot(). Every poll sees counts that only grow,
  // and after the writers retire the totals are exact.
  constexpr unsigned NumGranules = 256, Calls = 20000;
  RuntimeConfig Config;
  Config.Guard.OnViolation = guard::Policy::Continue;
  RuntimeGuard Guard(Config);
  Runtime &RT = Runtime::get();
  char *Buf = static_cast<char *>(RT.allocate(NumGranules * 16));
  std::atomic<bool> Done{false};
  Thread Poller([&] {
    live::LiveSnapshot Last;
    while (!Done.load()) {
      live::LiveSnapshot S = RT.liveSnapshot();
      EXPECT_GE(S.Stats.DynamicWrites, Last.Stats.DynamicWrites);
      EXPECT_GE(S.TotalViolations, Last.TotalViolations);
      Last = S;
    }
  });
  {
    std::vector<Thread> Writers;
    for (unsigned T = 0; T != 2; ++T)
      Writers.emplace_back([&] {
        for (unsigned I = 0; I != Calls; ++I)
          RT.checkWrite(Buf + 16 * (I % NumGranules), 1, nullptr);
      });
    for (Thread &T : Writers)
      T.join();
  }
  Done.store(true);
  Poller.join();
  live::LiveSnapshot S = RT.liveSnapshot();
  EXPECT_EQ(S.Stats.DynamicWrites, 2u * Calls);
  EXPECT_EQ(S.Stats.DynamicWriteBytes, 2u * Calls);
  EXPECT_EQ(S.Stats.ReadConflicts, 0u);
  EXPECT_EQ(S.Stats.WriteConflicts, S.TotalViolations);
  RT.deallocate(Buf);
}

TEST(AbortModeTest, ConfigurableButOffByDefault) {
  RuntimeGuard Guard;
  EXPECT_EQ(Runtime::get().getConfig().Guard.OnViolation,
            guard::Policy::Continue);
  // (Aborting behaviour itself is exercised manually; flipping it on in a
  // unit test would kill the test binary by design.)
}

TEST(TidReuseTest, ReusedIdStartsWithCleanBitsAndLogs) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *Cell = static_cast<int *>(RT.allocate(sizeof(int)));
  void *Obj = RT.allocate(32);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  unsigned FirstTid = 0;
  {
    Thread T([&] {
      FirstTid = RT.currentThread().Tid;
      RT.checkWrite(Cell, 4, nullptr);
      RT.rcStore(&Slot, Obj); // leaves a pending LP log entry
    });
    T.join();
  }
  // The successor reuses the id; the predecessor's bits are gone but its
  // retired log must still be collected.
  unsigned SecondTid = 0;
  {
    Thread T([&] {
      SecondTid = RT.currentThread().Tid;
      RT.checkWrite(Cell, 4, nullptr);
    });
    T.join();
  }
  EXPECT_EQ(FirstTid, SecondTid);
  EXPECT_EQ(RT.getStats().totalConflicts(), 0u);
  EXPECT_EQ(RT.refCount(Obj), 1);
  RT.rcStore(&Slot, nullptr);
  RT.deallocate(Obj);
  RT.deallocate(Cell);
}

TEST(LpConcurrencyTest, ConcurrentCollectorsAndMutatorsStayExact) {
  // Several threads perform sharing casts (each a collection) while others
  // mutate counted slots; counts must match the oracle afterwards.
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  constexpr int NumMutators = 2;
  constexpr int NumCasters = 2;
  constexpr int SlotsPerThread = 4;
  constexpr int Rounds = 800;

  std::vector<void *> Objects;
  for (int I = 0; I != 4; ++I)
    Objects.push_back(RT.allocate(32));

  struct alignas(64) Bank {
    void *Slots[SlotsPerThread];
  };
  std::vector<Bank> Banks(NumMutators);
  for (auto &Bank : Banks)
    for (auto &Slot : Bank.Slots)
      RT.rcInitSlot(&Slot);

  std::vector<Thread> Threads;
  for (int T = 0; T != NumMutators; ++T)
    Threads.emplace_back([&, T] {
      uint64_t Rng = 77 + T;
      for (int I = 0; I != Rounds; ++I) {
        Rng = Rng * 6364136223846793005ull + 1;
        RT.rcStore(&Banks[T].Slots[(Rng >> 33) % SlotsPerThread],
                   Objects[(Rng >> 13) % Objects.size()]);
      }
    });
  for (int T = 0; T != NumCasters; ++T)
    Threads.emplace_back([&, T] {
      // Each caster owns a private mailbox it repeatedly publishes to and
      // claims from; every scast runs a collection concurrently with the
      // mutators and the other caster.
      void *Mailbox = nullptr;
      RT.rcInitSlot(&Mailbox);
      void *Mine = RT.allocate(32);
      for (int I = 0; I != Rounds / 4; ++I) {
        RT.rcStore(&Mailbox, Mine);
        void *Out = RT.scast(&Mailbox, 0, nullptr);
        ASSERT_EQ(Out, Mine) << "caster " << T;
      }
      RT.deallocate(Mine);
    });
  for (Thread &T : Threads)
    T.join();

  EXPECT_EQ(RT.getStats().CastErrors, 0u);
  for (size_t O = 0; O != Objects.size(); ++O) {
    int64_t Oracle = 0;
    for (auto &Bank : Banks)
      for (void *Slot : Bank.Slots)
        if (Slot == Objects[O])
          ++Oracle;
    EXPECT_EQ(RT.refCount(Objects[O]), Oracle) << "object " << O;
  }
  for (void *Obj : Objects)
    RT.deallocate(Obj);
}

TEST(LpConcurrencyTest, CollectionsUnderWideShadowConfigs) {
  // The LP engine is independent of the shadow width; exercise a 4-byte
  // configuration end to end.
  RuntimeConfig Config;
  Config.ShadowBytesPerGranule = 4;
  RuntimeGuard Guard(Config);
  Runtime &RT = Runtime::get();
  void *Obj = RT.allocate(64);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  for (int I = 0; I != 50; ++I) {
    RT.rcStore(&Slot, Obj);
    EXPECT_EQ(RT.refCount(Obj), 1);
    RT.rcStore(&Slot, nullptr);
    EXPECT_EQ(RT.refCount(Obj), 0);
  }
  RT.deallocate(Obj);
}
