//===-- tests/rt_shadow_test.cpp - Shadow memory checker tests ------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the Section 4.2.1 dynamic checker: the n-readers-or-1-writer
/// discipline on 16-byte granules, the shadow bit encoding, access logging
/// and thread-exit clearing, free() clearing, and granularity behaviour,
/// and a differential test of the word-wide shadow path against a
/// per-granule model.
///
//===----------------------------------------------------------------------===//

#include "rt/Sharc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <tuple>
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

//===----------------------------------------------------------------------===//
// Differential test: the word-wide shadow path against a per-granule model
//===----------------------------------------------------------------------===//

namespace {

/// The checker of Section 4.2.1 one granule at a time: each granule's
/// reader/writer set as one lane value, and each state's first-access log
/// as one entry per granule. This is the reference ShadowMemory's word
/// path must agree with, report for report.
class GranuleModel {
public:
  GranuleModel(size_t NumGranules, unsigned NumStates)
      : Cells(NumGranules), Logs(NumStates) {}

  /// A check of granules [First, Last] by state \p K; appends the reports
  /// the sink would retain to \p Kept. \returns the check's verdict.
  bool check(bool IsWrite, size_t First, size_t Last, unsigned K,
             const std::vector<ThreadState *> &States, const AccessSite *Site,
             uintptr_t Base, unsigned GranuleShift,
             std::vector<ConflictReport> &Kept) {
    unsigned Tid = States[K]->Tid;
    uint64_t Own = uint64_t(1) << Tid;
    bool Ok = true;
    for (size_t G = First; G <= Last; ++G) {
      uint64_t Cur = Cells[G];
      uint64_t Others = Cur & ~(Own | 1);
      bool Conflict = IsWrite ? Others != 0 : (Cur & 1) != 0 && Others != 0;
      if ((Cur & Own) == 0)
        Logs[K].push_back({G, Site});
      if (Conflict)
        Cells[G] = IsWrite ? (Own | 1) : (Cur | Own);
      else
        Cells[G] = Cur | Own | (IsWrite ? 1 : 0);
      if (!Conflict)
        continue;
      Ok = false;
      ++Violations;
      ConflictReport R;
      R.Kind = IsWrite ? ReportKind::WriteConflict : ReportKind::ReadConflict;
      R.Address = Base + (uintptr_t(G) << GranuleShift);
      R.WhoTid = Tid;
      R.WhoSite = Site;
      R.LastTid = static_cast<unsigned>(std::countr_zero(Others));
      R.LastWasWrite = (Cur & 1) != 0;
      if (!Seen.insert({unsigned(R.Kind), Site, G}).second)
        continue;
      for (unsigned S = 0; S != States.size(); ++S)
        if (States[S]->Tid == R.LastTid)
          for (const auto &[LoggedG, LoggedSite] : Logs[S])
            if (LoggedG == G)
              R.LastSite = LoggedSite;
      Kept.push_back(R);
    }
    return Ok;
  }

  void clear(size_t First, size_t Last) {
    for (size_t G = First; G <= Last; ++G)
      Cells[G] = 0;
  }

  /// Thread exit: the state's bits leave every granule it logged, and a
  /// granule it was the sole writer of resets.
  void exit(unsigned K, unsigned Tid) {
    uint64_t Own = uint64_t(1) << Tid;
    for (const auto &Entry : Logs[K]) {
      uint64_t &Cell = Cells[Entry.first];
      Cell = Cell == (Own | 1) ? 0 : Cell & ~Own;
    }
    Logs[K].clear();
  }

  std::vector<uint64_t> Cells;
  std::vector<std::vector<std::pair<size_t, const AccessSite *>>> Logs;
  std::set<std::tuple<unsigned, const AccessSite *, size_t>> Seen;
  uint64_t Violations = 0;
};

void expectSameReport(const ConflictReport &Got, const ConflictReport &Want,
                      unsigned Op) {
  EXPECT_EQ(Got.Kind, Want.Kind) << "op " << Op;
  EXPECT_EQ(Got.Address, Want.Address) << "op " << Op;
  EXPECT_EQ(Got.WhoTid, Want.WhoTid) << "op " << Op;
  EXPECT_EQ(Got.WhoSite, Want.WhoSite) << "op " << Op;
  EXPECT_EQ(Got.LastTid, Want.LastTid) << "op " << Op;
  EXPECT_EQ(Got.LastWasWrite, Want.LastWasWrite) << "op " << Op;
  EXPECT_EQ(Got.LastSite, Want.LastSite) << "op " << Op;
}

} // namespace

class ShadowDifferentialTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(ShadowDifferentialTest, WordPathMatchesPerGranuleModel) {
  // One thread drives a standalone ShadowMemory through several
  // registered states: reads and writes of random size and alignment
  // (ranges cross words and 4 KiB pages), range clears, and exits
  // followed by re-registration. Every verdict, every retained report and
  // the shadow of every touched granule must match the model.
  const auto [ShadowBytes, GranuleShift] = GetParam();
  RuntimeConfig Config;
  Config.ShadowBytesPerGranule = ShadowBytes;
  Config.GranuleShift = GranuleShift;
  ReportSink Sink(size_t(1) << 20);
  ThreadRegistry Registry(Config.maxThreads());
  ShadowMemory Shadow(Config, Sink, Registry);

  constexpr size_t PageBytes = 4096;
  constexpr size_t ArenaBytes = 4 * PageBytes;
  std::vector<char> Storage(ArenaBytes + PageBytes);
  char *Arena = reinterpret_cast<char *>(
      (reinterpret_cast<uintptr_t>(Storage.data()) + PageBytes - 1) &
      ~uintptr_t(PageBytes - 1));
  const uintptr_t Base = reinterpret_cast<uintptr_t>(Arena);
  const size_t NumGranules = ArenaBytes >> GranuleShift;

  constexpr unsigned NumStates = 5; // within the 7 ids of one shadow byte
  std::vector<ThreadState *> States;
  for (unsigned K = 0; K != NumStates; ++K)
    States.push_back(Registry.registerThread());
  static const AccessSite Sites[] = {
      {"a[i]", "diff.c", 1}, {"a[i]", "diff.c", 2}, {"*p", "diff.c", 3}};
  GranuleModel Model(NumGranules, NumStates);
  std::vector<ConflictReport> Expected;

  std::mt19937_64 Rng(1000 + 10 * ShadowBytes + GranuleShift);
  auto Pick = [&](uint64_t N) { return static_cast<size_t>(Rng() % N); };
  constexpr unsigned NumOps = 6000;
  size_t Compared = 0; // reports already compared
  for (unsigned Op = 0; Op != NumOps; ++Op) {
    unsigned K = static_cast<unsigned>(Pick(NumStates));
    unsigned Roll = static_cast<unsigned>(Pick(100));
    if (Roll < 3) {
      Shadow.clearThreadBits(*States[K]);
      Model.exit(K, States[K]->Tid);
      Registry.deregisterThread(States[K]);
      States[K] = Registry.registerThread();
      for (size_t G = 0; G != NumGranules; ++G)
        ASSERT_EQ(Shadow.peekWord(Arena + (G << GranuleShift)),
                  Model.Cells[G])
            << "op " << Op << " granule " << G;
      continue;
    }
    // Mostly short accesses, some spanning words, some spanning pages.
    size_t Off, Size;
    unsigned Shape = static_cast<unsigned>(Pick(10));
    if (Shape < 3) {
      // Runs of neighbouring first accesses, as a loop makes them.
      Off = Pick(ArenaBytes / 64) * 64;
      Size = 1 + Pick(8);
    } else if (Shape < 6) {
      Off = Pick(ArenaBytes);
      Size = Pick(17);
    } else if (Shape < 9) {
      Off = Pick(ArenaBytes);
      Size = 1 + Pick(512);
    } else {
      Off = Pick(ArenaBytes);
      Size = 1 + Pick(2 * PageBytes + 100);
    }
    Size = std::min(Size, ArenaBytes - Off);
    size_t First = Off >> GranuleShift;
    size_t Last = (Off + std::max<size_t>(Size, 1) - 1) >> GranuleShift;
    if (Roll < 10) {
      Shadow.clearRange(Arena + Off, Size);
      Model.clear(First, Last);
    } else {
      bool IsWrite = Roll < 45;
      const AccessSite *Site = &Sites[Pick(std::size(Sites))];
      bool Ok = IsWrite ? Shadow.checkWrite(Arena + Off, Size, *States[K], Site)
                        : Shadow.checkRead(Arena + Off, Size, *States[K], Site);
      bool Want = Model.check(IsWrite, First, Last, K, States, Site, Base,
                              GranuleShift, Expected);
      ASSERT_EQ(Ok, Want) << "op " << Op;
    }
    for (size_t G = First; G <= Last; ++G)
      ASSERT_EQ(Shadow.peekWord(Arena + (G << GranuleShift)), Model.Cells[G])
          << "op " << Op << " granule " << G;
    ASSERT_EQ(Sink.getNumReports(), Expected.size()) << "op " << Op;
    if (Expected.size() != Compared) {
      std::vector<ConflictReport> Got = Sink.getReports();
      for (; Compared != Expected.size(); ++Compared)
        expectSameReport(Got[Compared], Expected[Compared], Op);
    }
  }
  std::vector<ConflictReport> Got = Sink.getReports();
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I != Got.size(); ++I)
    expectSameReport(Got[I], Expected[I], NumOps);
  EXPECT_EQ(Sink.getTotalViolations(), Model.Violations);
  EXPECT_GT(Model.Violations, 0u);
  for (ThreadState *TS : States) {
    Shadow.clearThreadBits(*TS);
    Registry.deregisterThread(TS);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndGranules, ShadowDifferentialTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(2u, 4u)));
