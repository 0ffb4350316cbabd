//===-- tests/rt_shadow_test.cpp - Shadow memory checker tests ------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the Section 4.2.1 dynamic checker: the n-readers-or-1-writer
/// discipline on 16-byte granules, the shadow bit encoding, access logging
/// and thread-exit clearing, free() clearing, and granularity behaviour.
///
//===----------------------------------------------------------------------===//

#include "rt/Sharc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

using namespace sharc;
using namespace sharc::rt;

namespace {

/// Creates and destroys the global runtime around each test.
class RuntimeGuard {
public:
  explicit RuntimeGuard(RuntimeConfig Config = RuntimeConfig()) {
    Runtime::init(Config);
  }
  ~RuntimeGuard() { Runtime::shutdown(); }
};

/// Runs \p Fn on a registered sharc thread and joins.
template <typename FnT> void onThread(FnT Fn) {
  Thread T(std::move(Fn));
  T.join();
}

} // namespace

TEST(ShadowEncodingTest, FirstReadSetsOwnBit) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  unsigned Tid = RT.currentThread().Tid;
  EXPECT_TRUE(RT.checkRead(P, sizeof(int), nullptr));
  EXPECT_EQ(RT.getShadow().peekWord(P), uint64_t(1) << Tid);
  RT.deallocate(P);
}

TEST(ShadowEncodingTest, WriteSetsWriterBitAndOwnBit) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  unsigned Tid = RT.currentThread().Tid;
  EXPECT_TRUE(RT.checkWrite(P, sizeof(int), nullptr));
  EXPECT_EQ(RT.getShadow().peekWord(P), (uint64_t(1) << Tid) | 1u);
  RT.deallocate(P);
}

TEST(ShadowEncodingTest, RepeatAccessesBySameThreadAreAllowed) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  EXPECT_TRUE(RT.checkWrite(P, sizeof(int), nullptr));
  EXPECT_TRUE(RT.checkRead(P, sizeof(int), nullptr));
  EXPECT_TRUE(RT.checkWrite(P, sizeof(int), nullptr));
  EXPECT_EQ(RT.getReports().getNumReports(), 0u);
  RT.deallocate(P);
}

TEST(ShadowEncodingTest, MultipleReadersAreAllowed) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  EXPECT_TRUE(RT.checkRead(P, sizeof(int), nullptr));
  onThread([&] { EXPECT_TRUE(RT.checkRead(P, sizeof(int), nullptr)); });
  onThread([&] { EXPECT_TRUE(RT.checkRead(P, sizeof(int), nullptr)); });
  EXPECT_EQ(RT.getReports().getNumReports(), 0u);
  RT.deallocate(P);
}

TEST(ShadowConflictTest, WriteAfterForeignReadConflicts) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  EXPECT_TRUE(RT.checkRead(P, sizeof(int), nullptr));
  onThread([&] { EXPECT_FALSE(RT.checkWrite(P, sizeof(int), nullptr)); });
  auto Reports = RT.getReports().getReports();
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Kind, ReportKind::WriteConflict);
  RT.deallocate(P);
}

TEST(ShadowConflictTest, ReadAfterForeignWriteConflicts) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  onThread([&] { EXPECT_TRUE(RT.checkWrite(P, sizeof(int), nullptr)); });
  // The writer thread exited, which clears its bits; use two live threads
  // instead. Reset state first.
  RT.getShadow().clearRange(P, sizeof(int));
  Thread Writer([&] {
    EXPECT_TRUE(RT.checkWrite(P, sizeof(int), nullptr));
    // Keep the thread alive until the reader has raced.
  });
  Writer.join();
  // After join the writer's bits are cleared, so no conflict: this is the
  // paper's "no race if executions do not overlap" rule.
  EXPECT_TRUE(RT.checkRead(P, sizeof(int), nullptr));
  EXPECT_EQ(RT.getReports().getNumReports(), 0u);
  RT.deallocate(P);
}

TEST(ShadowConflictTest, OverlappingWriterAndReaderConflict) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  // Main thread writes while a second live thread reads: conflict.
  EXPECT_TRUE(RT.checkWrite(P, sizeof(int), nullptr));
  onThread([&] { EXPECT_FALSE(RT.checkRead(P, sizeof(int), nullptr)); });
  auto Reports = RT.getReports().getReports();
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Kind, ReportKind::ReadConflict);
  RT.deallocate(P);
}

TEST(ShadowConflictTest, WriteWriteConflictReportsLastAccessor) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  static const AccessSite SiteA{"S->sdata", "pipeline_test.c", 27};
  static const AccessSite SiteB{"S->sdata", "pipeline_test.c", 15};
  unsigned MainTid = RT.currentThread().Tid;
  EXPECT_TRUE(RT.checkWrite(P, sizeof(int), &SiteA));
  onThread([&] { EXPECT_FALSE(RT.checkWrite(P, sizeof(int), &SiteB)); });
  auto Reports = RT.getReports().getReports();
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].WhoSite, &SiteB);
  EXPECT_EQ(Reports[0].LastSite, &SiteA);
  EXPECT_EQ(Reports[0].LastTid, MainTid);
  EXPECT_TRUE(Reports[0].LastWasWrite);
  std::string Text = Reports[0].format();
  EXPECT_NE(Text.find("write conflict"), std::string::npos);
  EXPECT_NE(Text.find("S->sdata @ pipeline_test.c: 15"), std::string::npos);
  RT.deallocate(P);
}

TEST(ShadowConflictTest, LastNamesTheOtherThreadNotTheReporter) {
  // The main thread writes at line 2; another thread reads at lines 1 and
  // 3. Both reads conflict, and both reports name the write: "last" is a
  // thread holding the granule, never the reporting thread itself.
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  static const AccessSite Read1{"*p", "t.c", 1};
  static const AccessSite Write2{"*p", "t.c", 2};
  static const AccessSite Read3{"*p", "t.c", 3};
  unsigned MainTid = RT.currentThread().Tid;
  EXPECT_TRUE(RT.checkWrite(P, sizeof(int), &Write2));
  onThread([&] {
    EXPECT_FALSE(RT.checkRead(P, sizeof(int), &Read1));
    EXPECT_FALSE(RT.checkRead(P, sizeof(int), &Read3));
  });
  auto Reports = RT.getReports().getReports();
  ASSERT_EQ(Reports.size(), 2u);
  for (const ConflictReport &R : Reports) {
    EXPECT_EQ(R.LastTid, MainTid);
    EXPECT_EQ(R.LastSite, &Write2);
    EXPECT_TRUE(R.LastWasWrite);
  }
  std::string Last = "last(" + std::to_string(MainTid) + ") *p @ t.c: 2";
  EXPECT_NE(Reports[1].format().find(Last), std::string::npos);
  RT.deallocate(P);
}

TEST(ShadowConflictTest, LastSiteIsTheNewestLogEntry) {
  // Clearing a range (a free or a sharing cast) leaves the old log entry
  // behind; the next access logs again, and reports use the newer entry.
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  static const AccessSite Before{"*p", "t.c", 1};
  static const AccessSite After{"*p", "t.c", 2};
  EXPECT_TRUE(RT.checkWrite(P, sizeof(int), &Before));
  RT.getShadow().clearRange(P, sizeof(int));
  EXPECT_TRUE(RT.checkWrite(P, sizeof(int), &After));
  onThread([&] { EXPECT_FALSE(RT.checkWrite(P, sizeof(int), nullptr)); });
  auto Reports = RT.getReports().getReports();
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].LastSite, &After);
  RT.deallocate(P);
}

TEST(ShadowConflictTest, ThreadExitClearsItsBits) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  onThread([&] { RT.checkWrite(P, sizeof(int), nullptr); });
  // The writer exited; its bits must be gone.
  EXPECT_EQ(RT.getShadow().peekWord(P), 0u);
  // A fresh thread can now write without conflict.
  onThread([&] { EXPECT_TRUE(RT.checkWrite(P, sizeof(int), nullptr)); });
  EXPECT_EQ(RT.getReports().getNumReports(), 0u);
  RT.deallocate(P);
}

TEST(ShadowConflictTest, FreeClearsAccessHistory) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  RT.checkWrite(P, sizeof(int), nullptr);
  EXPECT_NE(RT.getShadow().peekWord(P), 0u);
  RT.deallocate(P);
  EXPECT_EQ(RT.getShadow().peekWord(P), 0u);
}

TEST(ShadowConflictTest, FalseSharingWithinOneGranule) {
  // Section 4.5: two separate objects within one 16-byte granule can
  // produce a false report. Model it with two halves of one allocation.
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  char *P = static_cast<char *>(RT.allocate(16));
  EXPECT_TRUE(RT.checkWrite(P, 4, nullptr));
  onThread([&] {
    // Disjoint bytes, same granule: reported as a conflict.
    EXPECT_FALSE(RT.checkWrite(P + 8, 4, nullptr));
  });
  EXPECT_EQ(RT.getReports().getNumReports(), 1u);
  RT.deallocate(P);
}

TEST(ShadowConflictTest, SeparateGranulesDoNotConflict) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  unsigned Granule = Runtime::get().getConfig().granuleSize();
  char *P = static_cast<char *>(RT.allocate(2 * Granule));
  EXPECT_TRUE(RT.checkWrite(P, 4, nullptr));
  onThread([&] { EXPECT_TRUE(RT.checkWrite(P + Granule, 4, nullptr)); });
  EXPECT_EQ(RT.getReports().getNumReports(), 0u);
  RT.deallocate(P);
}

TEST(ShadowConflictTest, RangeCheckCoversAllGranules) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  unsigned Granule = Runtime::get().getConfig().granuleSize();
  char *P = static_cast<char *>(RT.allocate(4 * Granule));
  EXPECT_TRUE(RT.checkWrite(P, 4 * Granule, nullptr));
  // Another live thread touching the *last* granule must conflict.
  onThread([&] {
    EXPECT_FALSE(RT.checkWrite(P + 3 * Granule, 1, nullptr));
  });
  RT.deallocate(P);
}

TEST(ShadowConflictTest, ConflictsAreDeduplicatedBySiteAndAddress) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  static const AccessSite Site{"*p", "t.c", 1};
  RT.checkWrite(P, sizeof(int), nullptr);
  onThread([&] {
    for (int I = 0; I != 100; ++I)
      RT.checkWrite(P, sizeof(int), &Site);
  });
  EXPECT_EQ(RT.getReports().getNumReports(), 1u);
  EXPECT_GE(RT.getReports().getTotalViolations(), 1u);
  RT.deallocate(P);
}

TEST(ShadowStatsTest, DynamicAccessesAreCounted) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  for (int I = 0; I != 10; ++I)
    RT.checkRead(P, sizeof(int), nullptr);
  for (int I = 0; I != 5; ++I)
    RT.checkWrite(P, sizeof(int), nullptr);
  StatsSnapshot Stats = RT.getStats();
  EXPECT_EQ(Stats.DynamicReads, 10u);
  EXPECT_EQ(Stats.DynamicWrites, 5u);
  EXPECT_GT(Stats.ShadowBytes, 0u);
  RT.deallocate(P);
}

TEST(ShadowStatsTest, ShadowMemoryIsProportionalToGranuleCount) {
  // With 1 shadow byte per 16-byte granule the steady-state shadow cost of
  // N touched pages is about N * 256 bytes of cells plus page overhead.
  // This runs the default configuration: any per-granule side table
  // (such as a provenance cell) would break the bound.
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  uint64_t Before = RT.getStats().ShadowBytes;
  constexpr size_t Bytes = 1u << 20; // 1 MiB, 256 pages.
  char *P = static_cast<char *>(RT.allocate(Bytes));
  RT.checkWrite(P, Bytes, nullptr);
  uint64_t After = RT.getStats().ShadowBytes;
  uint64_t PerPage = (After - Before) / 257; // ~257 pages touched.
  EXPECT_GE(PerPage, 256u);
  EXPECT_LE(PerPage, 256u + 128u); // cells + modest page struct overhead
  RT.deallocate(P);
}

class GranuleSweepTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(GranuleSweepTest, AdjacentObjectsConflictIffSameGranule) {
  RuntimeConfig Config;
  Config.GranuleShift = GetParam();
  RuntimeGuard Guard(Config);
  Runtime &RT = Runtime::get();
  unsigned Granule = 1u << GetParam();
  // Two logical 4-byte objects 8 bytes apart.
  char *P = static_cast<char *>(RT.allocate(64));
  RT.checkWrite(P, 4, nullptr);
  bool SameGranule = Granule > 8;
  onThread([&] { RT.checkWrite(P + 8, 4, nullptr); });
  if (SameGranule)
    EXPECT_EQ(RT.getReports().getNumReports(), 1u);
  else
    EXPECT_EQ(RT.getReports().getNumReports(), 0u);
  RT.deallocate(P);
}

INSTANTIATE_TEST_SUITE_P(Granularity, GranuleSweepTest,
                         ::testing::Values(2u, 3u, 4u, 6u));

class ShadowWidthTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShadowWidthTest, SupportsEightNMinusOneThreads) {
  RuntimeConfig Config;
  Config.ShadowBytesPerGranule = GetParam();
  RuntimeGuard Guard(Config);
  Runtime &RT = Runtime::get();
  EXPECT_EQ(RT.getConfig().maxThreads(), 8 * GetParam() - 1);
  int *P = static_cast<int *>(RT.allocate(sizeof(int)));
  // Concurrent readers up to the supported limit (capped to keep the test
  // fast on one core).
  unsigned NumReaders = std::min(RT.getConfig().maxThreads() - 1, 12u);
  RT.checkRead(P, sizeof(int), nullptr);
  std::vector<Thread> Readers;
  for (unsigned I = 0; I != NumReaders; ++I)
    Readers.emplace_back([&] { RT.checkRead(P, sizeof(int), nullptr); });
  for (Thread &T : Readers)
    T.join();
  EXPECT_EQ(RT.getReports().getNumReports(), 0u);
  RT.deallocate(P);
}

INSTANTIATE_TEST_SUITE_P(Widths, ShadowWidthTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(ThreadRegistryTest, IdsAreReusedAfterExit) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  unsigned FirstTid = 0;
  onThread([&] { FirstTid = RT.currentThread().Tid; });
  unsigned SecondTid = 0;
  onThread([&] { SecondTid = RT.currentThread().Tid; });
  EXPECT_EQ(FirstTid, SecondTid);
}

TEST(ThreadRegistryTest, ConcurrentThreadsGetDistinctIds) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  std::vector<unsigned> Tids(4, 0);
  std::vector<Thread> Threads;
  std::atomic<int> Arrived{0};
  for (int I = 0; I != 4; ++I)
    Threads.emplace_back([&, I] {
      Tids[I] = RT.currentThread().Tid;
      Arrived.fetch_add(1);
      while (Arrived.load() < 4) // Hold ids until all have registered.
        std::this_thread::yield();
    });
  for (Thread &T : Threads)
    T.join();
  std::sort(Tids.begin(), Tids.end());
  EXPECT_TRUE(std::adjacent_find(Tids.begin(), Tids.end()) == Tids.end());
  for (unsigned Tid : Tids) {
    EXPECT_GE(Tid, 1u);
    EXPECT_LE(Tid, RT.getConfig().maxThreads());
  }
}
