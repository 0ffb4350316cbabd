//===-- tests/rt_refcount_test.cpp - Reference counting tests -------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for Sections 4.2.3 and 4.3: the count table, the atomic engine,
/// the adapted Levanoni-Petrank engine (logs, dirty bits, epoch flips,
/// re-dirtied slots), sharing casts, and a concurrent property test that
/// compares LP counts against an oracle.
///
//===----------------------------------------------------------------------===//

#include "rt/Sharc.h"

#include <gtest/gtest.h>

#include <atomic>
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

RuntimeConfig configFor(RcMode Mode) {
  RuntimeConfig Config;
  Config.Rc = Mode;
  return Config;
}

} // namespace

TEST(RcTableTest, CountsPerValue) {
  RcTable Table;
  Table.add(0x1000, 1);
  Table.add(0x1000, 1);
  Table.add(0x2000, 1);
  Table.add(0x1000, -1);
  EXPECT_EQ(Table.get(0x1000), 1);
  EXPECT_EQ(Table.get(0x2000), 1);
  EXPECT_EQ(Table.get(0x3000), 0);
  EXPECT_EQ(Table.getNumEntries(), 2u);
}

TEST(RcTableTest, ToleratesBogusValues) {
  // The dillo benchmark stores integers in pointer slots; the table keys
  // by value and never dereferences.
  RcTable Table;
  Table.add(42, 1);
  Table.add(0xdeadbeef, 1);
  EXPECT_EQ(Table.get(42), 1);
  EXPECT_EQ(Table.get(0xdeadbeef), 1);
}

class RcModeTest : public ::testing::TestWithParam<RcMode> {};

TEST_P(RcModeTest, StoreIncrementsNewAndDecrementsOld) {
  if (GetParam() == RcMode::None)
    GTEST_SKIP() << "RcMode::None keeps no counts";
  RuntimeGuard Guard(configFor(GetParam()));
  Runtime &RT = Runtime::get();
  void *A = RT.allocate(32);
  void *B = RT.allocate(32);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);

  RT.rcStore(&Slot, A);
  EXPECT_EQ(RT.refCount(A), 1);
  EXPECT_EQ(RT.refCount(B), 0);

  RT.rcStore(&Slot, B);
  EXPECT_EQ(RT.refCount(A), 0);
  EXPECT_EQ(RT.refCount(B), 1);

  RT.rcStore(&Slot, nullptr);
  EXPECT_EQ(RT.refCount(B), 0);
  RT.deallocate(A);
  RT.deallocate(B);
}

TEST_P(RcModeTest, TwoSlotsCountTwice) {
  if (GetParam() == RcMode::None)
    GTEST_SKIP() << "RcMode::None keeps no counts";
  RuntimeGuard Guard(configFor(GetParam()));
  Runtime &RT = Runtime::get();
  void *A = RT.allocate(32);
  void *Slot1 = nullptr, *Slot2 = nullptr;
  RT.rcInitSlot(&Slot1);
  RT.rcInitSlot(&Slot2);
  RT.rcStore(&Slot1, A);
  RT.rcStore(&Slot2, A);
  EXPECT_EQ(RT.refCount(A), 2);
  RT.rcStore(&Slot1, nullptr);
  EXPECT_EQ(RT.refCount(A), 1);
  RT.deallocate(A);
}

TEST_P(RcModeTest, ScastOfSoleReferenceSucceedsAndNullsSlot) {
  RuntimeGuard Guard(configFor(GetParam()));
  Runtime &RT = Runtime::get();
  void *A = RT.allocate(32);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  RT.rcStore(&Slot, A);
  void *Result = RT.scast(&Slot, 0, nullptr);
  EXPECT_EQ(Result, A);
  EXPECT_EQ(RT.rcLoad(&Slot), nullptr);
  EXPECT_EQ(RT.getStats().CastErrors, 0u);
  RT.deallocate(A);
}

TEST_P(RcModeTest, ScastWithSecondReferenceReportsError) {
  if (GetParam() == RcMode::None)
    GTEST_SKIP() << "RcMode::None cannot detect extra references";
  RuntimeGuard Guard(configFor(GetParam()));
  Runtime &RT = Runtime::get();
  void *A = RT.allocate(32);
  void *Slot1 = nullptr, *Slot2 = nullptr;
  RT.rcInitSlot(&Slot1);
  RT.rcInitSlot(&Slot2);
  RT.rcStore(&Slot1, A);
  RT.rcStore(&Slot2, A);
  static const AccessSite Site{"S->sdata", "pipeline_test.c", 17};
  void *Result = RT.scast(&Slot1, 0, &Site);
  EXPECT_EQ(Result, A); // Execution continues with the object.
  EXPECT_EQ(RT.getStats().CastErrors, 1u);
  auto Reports = RT.getReports().getReports();
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Kind, ReportKind::CastError);
  EXPECT_EQ(Reports[0].WhoSite, &Site);
  RT.deallocate(A);
}

TEST_P(RcModeTest, ScastOfNullSlotIsNoop) {
  RuntimeGuard Guard(configFor(GetParam()));
  Runtime &RT = Runtime::get();
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  EXPECT_EQ(RT.scast(&Slot, 0, nullptr), nullptr);
  EXPECT_EQ(RT.getStats().CastErrors, 0u);
}

TEST_P(RcModeTest, CheckCastFromLocalDetectsStoredReference) {
  if (GetParam() == RcMode::None)
    GTEST_SKIP() << "RcMode::None cannot detect extra references";
  RuntimeGuard Guard(configFor(GetParam()));
  Runtime &RT = Runtime::get();
  void *A = RT.allocate(32);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  RT.rcStore(&Slot, A);
  // A local also refers to A; casting the local must fail because the
  // stored reference remains.
  EXPECT_FALSE(RT.checkCast(A, 0, nullptr));
  RT.rcStore(&Slot, nullptr);
  EXPECT_TRUE(RT.checkCast(A, 0, nullptr));
  RT.deallocate(A);
}

INSTANTIATE_TEST_SUITE_P(Engines, RcModeTest,
                         ::testing::Values(RcMode::Atomic,
                                           RcMode::LevanoniPetrank,
                                           RcMode::None));

TEST(LevanoniPetrankTest, RepeatedStoresLogOncePerEpoch) {
  RuntimeGuard Guard(configFor(RcMode::LevanoniPetrank));
  Runtime &RT = Runtime::get();
  void *A = RT.allocate(32);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  for (int I = 0; I != 100; ++I)
    RT.rcStore(&Slot, A);
  // Only the first store logged the slot.
  ThreadState &TS = RT.currentThread();
  EXPECT_EQ(TS.RcLogs[0].size() + TS.RcLogs[1].size(), 1u);
  EXPECT_EQ(RT.refCount(A), 1);
  RT.deallocate(A);
}

TEST(LevanoniPetrankTest, CollectionDrainsLogs) {
  RuntimeGuard Guard(configFor(RcMode::LevanoniPetrank));
  Runtime &RT = Runtime::get();
  void *A = RT.allocate(32);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  RT.rcStore(&Slot, A);
  ThreadState &TS = RT.currentThread();
  EXPECT_EQ(TS.RcLogs[0].size() + TS.RcLogs[1].size(), 1u);
  RT.getRc().collect(TS);
  EXPECT_EQ(TS.RcLogs[0].size() + TS.RcLogs[1].size(), 0u);
  // The count survives the drain.
  EXPECT_EQ(RT.refCount(A), 1);
  RT.deallocate(A);
}

TEST(LevanoniPetrankTest, CountsSurviveManyEpochFlips) {
  RuntimeGuard Guard(configFor(RcMode::LevanoniPetrank));
  Runtime &RT = Runtime::get();
  void *A = RT.allocate(32);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  RT.rcStore(&Slot, A);
  for (int I = 0; I != 10; ++I)
    RT.getRc().collect(RT.currentThread());
  EXPECT_EQ(RT.refCount(A), 1);
  RT.deallocate(A);
}

TEST(LevanoniPetrankTest, StoresSpanningEpochsStayExact) {
  RuntimeGuard Guard(configFor(RcMode::LevanoniPetrank));
  Runtime &RT = Runtime::get();
  void *A = RT.allocate(32);
  void *B = RT.allocate(32);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  RT.rcStore(&Slot, A);
  RT.getRc().collect(RT.currentThread()); // A counted.
  RT.rcStore(&Slot, B);                   // logged in new epoch: old = A
  EXPECT_EQ(RT.refCount(B), 1);
  EXPECT_EQ(RT.refCount(A), 0);
  RT.deallocate(A);
  RT.deallocate(B);
}

TEST(LevanoniPetrankTest, ExitedThreadLogsAreStillCollected) {
  RuntimeGuard Guard(configFor(RcMode::LevanoniPetrank));
  Runtime &RT = Runtime::get();
  void *A = RT.allocate(32);
  void *Slot = nullptr;
  RT.rcInitSlot(&Slot);
  {
    Thread T([&] { RT.rcStore(&Slot, A); });
    T.join();
  }
  // The storing thread exited before any collection; its retired log must
  // still contribute to the count.
  EXPECT_EQ(RT.refCount(A), 1);
  RT.deallocate(A);
}

TEST(LevanoniPetrankTest, ConcurrentMutatorsMatchOracle) {
  // Property test: T threads each shuffle pointers between K private slots
  // while the main thread periodically collects. Afterwards the LP count
  // of every object must equal the number of slots holding it.
  RuntimeGuard Guard(configFor(RcMode::LevanoniPetrank));
  Runtime &RT = Runtime::get();
  constexpr int NumThreads = 3;
  constexpr int SlotsPerThread = 8;
  constexpr int NumObjects = 4;
  constexpr int Iterations = 3000;

  std::vector<void *> Objects;
  for (int I = 0; I != NumObjects; ++I)
    Objects.push_back(RT.allocate(32));

  struct alignas(64) SlotBank {
    void *Slots[SlotsPerThread];
  };
  std::vector<SlotBank> Banks(NumThreads);
  for (auto &Bank : Banks)
    for (auto &Slot : Bank.Slots)
      RT.rcInitSlot(&Slot);

  std::vector<Thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      uint64_t Rng = 0x9E3779B9u * (T + 1);
      for (int I = 0; I != Iterations; ++I) {
        Rng = Rng * 6364136223846793005ull + 1442695040888963407ull;
        int SlotIndex = (Rng >> 33) % SlotsPerThread;
        int ObjIndex = (Rng >> 13) % (NumObjects + 1);
        void *Value = ObjIndex == NumObjects ? nullptr : Objects[ObjIndex];
        RT.rcStore(&Banks[T].Slots[SlotIndex], Value);
      }
    });
  // Concurrent collections while mutators run.
  for (int I = 0; I != 20; ++I)
    RT.getRc().collect(RT.currentThread());
  for (Thread &T : Threads)
    T.join();

  for (int O = 0; O != NumObjects; ++O) {
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

TEST(HeapTest, DeferredFreeReleasesAfterCollection) {
  RuntimeGuard Guard(configFor(RcMode::LevanoniPetrank));
  Runtime &RT = Runtime::get();
  void *A = RT.allocate(64);
  uint64_t PayloadBefore = RT.getStats().HeapPayloadBytes;
  RT.deallocate(A);
  // Payload accounting drops immediately even though physical free is
  // deferred to the next collection.
  EXPECT_LT(RT.getStats().HeapPayloadBytes, PayloadBefore);
  RT.getRc().collect(RT.currentThread());
}

TEST(HeapTest, AllocationsAreGranuleAligned) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  for (size_t Size : {1u, 3u, 16u, 17u, 100u, 4096u}) {
    void *P = RT.allocate(Size);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % RT.getConfig().granuleSize(),
              0u);
    EXPECT_EQ(RT.allocationSize(P), Size);
    RT.deallocate(P);
  }
}

TEST(HeapTest, PeakPayloadTracksHighWaterMark) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  uint64_t Base = RT.getStats().PeakHeapPayloadBytes;
  void *A = RT.allocate(1 << 16);
  void *B = RT.allocate(1 << 16);
  RT.deallocate(A);
  RT.deallocate(B);
  EXPECT_GE(RT.getStats().PeakHeapPayloadBytes, Base + (1u << 17));
}

TEST(CountedSlotTest, WrapperStoresAndCasts) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  struct Node {
    int Payload[4];
  };
  Node *N = sharc::alloc<Node>();
  {
    Counted<Node> Slot;
    Slot.store(N);
    EXPECT_EQ(Slot.load(), N);
    EXPECT_EQ(RT.refCount(N), 1);
    Node *Out = scastOut(Slot);
    EXPECT_EQ(Out, N);
    EXPECT_EQ(Slot.load(), nullptr);
    EXPECT_EQ(RT.getStats().CastErrors, 0u);
  }
  sharc::dealloc(N);
}

TEST(CountedSlotTest, ScastInChecksStoredReferences) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  int *Obj = static_cast<int *>(RT.allocate(sizeof(int)));
  int *Local = Obj;
  // No stored references: the local cast succeeds and nulls the local.
  int *Out = scastIn(Local);
  EXPECT_EQ(Out, Obj);
  EXPECT_EQ(Local, nullptr);
  EXPECT_EQ(RT.getStats().CastErrors, 0u);
  RT.deallocate(Obj);
}
