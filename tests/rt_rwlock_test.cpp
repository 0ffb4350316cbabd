//===-- tests/rt_rwlock_test.cpp - Reader-writer locked mode --------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the rwlocked sharing mode (the Section 7 "more support for
/// locks" extension): reads require a shared or exclusive hold, writes
/// require an exclusive hold, and shared holds live in the per-thread
/// lock log of Section 4.2.2, marked by mode.
///
//===----------------------------------------------------------------------===//

#include "rt/Sharc.h"

#include <gtest/gtest.h>

using namespace sharc;
using namespace sharc::rt;

namespace {

class RuntimeGuard {
public:
  RuntimeGuard() { Runtime::init(); }
  ~RuntimeGuard() { Runtime::shutdown(); }
};

} // namespace

TEST(RwLockLogTest, SharedAndExclusiveHoldsTrackedSeparately) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  SharedMutex M;
  EXPECT_FALSE(RT.holdsLock(&M));
  EXPECT_FALSE(RT.holdsLock(&M, true));
  M.lock_shared();
  EXPECT_FALSE(RT.holdsLock(&M));
  EXPECT_TRUE(RT.holdsLock(&M, true));
  M.unlock_shared();
  M.lock();
  EXPECT_TRUE(RT.holdsLock(&M));
  EXPECT_FALSE(RT.holdsLock(&M, true));
  M.unlock();
}

TEST(RwLockLogTest, MixedHoldsReleasedOutOfOrder) {
  // One thread's log holds one lock exclusively and another shared, in
  // both pairings, and releases the older hold first. After every step
  // each mode's hold query and both lock-held verdicts (with and without
  // a shared hold being enough) match the holds left. M1 is always taken
  // before M2.
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  SharedMutex M1, M2;
  int Data = 0;
  uint64_t Failed = 0;
  auto Expect = [&](const void *M, bool Exclusive, bool Shared) {
    EXPECT_EQ(RT.holdsLock(M), Exclusive);
    EXPECT_EQ(RT.holdsLock(M, true), Shared);
    EXPECT_EQ(RT.checkLockHeld(M, &Data, nullptr), Exclusive);
    EXPECT_EQ(RT.checkLockHeld(M, &Data, nullptr, /*SharedOk=*/true),
              Exclusive || Shared);
    Failed += !Exclusive + !(Exclusive || Shared);
  };
  {
    SCOPED_TRACE("M1 exclusive, M2 shared");
    M1.lock();
    M2.lock_shared();
    Expect(&M1, true, false);
    Expect(&M2, false, true);
    M1.unlock();
    Expect(&M1, false, false);
    Expect(&M2, false, true);
    M2.unlock_shared();
    Expect(&M2, false, false);
  }
  {
    SCOPED_TRACE("M1 shared, M2 exclusive");
    M1.lock_shared();
    M2.lock();
    Expect(&M1, false, true);
    Expect(&M2, true, false);
    M1.unlock_shared();
    Expect(&M1, false, false);
    Expect(&M2, true, false);
    M2.unlock();
    Expect(&M2, false, false);
  }
  {
    // Release drops the newest hold of the same lock and mode, so one
    // address logged in both modes (through the runtime's own entry
    // points: a real SharedMutex cannot be held both ways by one thread)
    // keeps its other hold.
    SCOPED_TRACE("one address held in both modes");
    RT.onLockAcquire(&Data);
    RT.onLockAcquire(&Data, /*Shared=*/true);
    RT.onLockRelease(&Data);
    Expect(&Data, false, true);
    RT.onLockRelease(&Data, /*Shared=*/true);
    Expect(&Data, false, false);
  }
  EXPECT_EQ(RT.getStats().LockViolations, Failed);
  EXPECT_EQ(RT.getStats().LockChecks, 2 * 12u);
}

TEST(RwLockedTest, ReadUnderSharedHoldIsClean) {
  RuntimeGuard Guard;
  SharedMutex M;
  RwLocked<int> Value(M, 5);
  {
    SharedLockGuard Lock(M);
    EXPECT_EQ(Value.read(), 5);
  }
  EXPECT_EQ(Runtime::get().getStats().LockViolations, 0u);
}

TEST(RwLockedTest, ReadUnderExclusiveHoldIsClean) {
  RuntimeGuard Guard;
  SharedMutex M;
  RwLocked<int> Value(M, 5);
  {
    ExclusiveLockGuard Lock(M);
    EXPECT_EQ(Value.read(), 5);
  }
  EXPECT_EQ(Runtime::get().getStats().LockViolations, 0u);
}

TEST(RwLockedTest, UnlockedReadIsViolation) {
  RuntimeGuard Guard;
  SharedMutex M;
  RwLocked<int> Value(M, 5);
  Value.read(SHARC_SITE("value"));
  EXPECT_EQ(Runtime::get().getStats().LockViolations, 1u);
}

TEST(RwLockedTest, WriteUnderExclusiveHoldIsClean) {
  RuntimeGuard Guard;
  SharedMutex M;
  RwLocked<int> Value(M, 0);
  {
    ExclusiveLockGuard Lock(M);
    Value.write(9);
    EXPECT_EQ(Value.read(), 9);
  }
  EXPECT_EQ(Runtime::get().getStats().LockViolations, 0u);
}

TEST(RwLockedTest, WriteUnderSharedHoldIsViolation) {
  // The distinctive rule: a reader hold does not license writes.
  RuntimeGuard Guard;
  SharedMutex M;
  RwLocked<int> Value(M, 0);
  {
    SharedLockGuard Lock(M);
    Value.write(1, SHARC_SITE("value"));
  }
  EXPECT_EQ(Runtime::get().getStats().LockViolations, 1u);
  auto Reports = Runtime::get().getReports().getReports();
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Kind, ReportKind::LockViolation);
}

TEST(RwLockedTest, ConcurrentSharedReadersAreClean) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  auto *M = sharc::alloc<SharedMutex>();
  auto *Value = sharc::alloc<RwLocked<int>>(*M, 7);
  std::vector<Thread> Readers;
  for (int I = 0; I != 4; ++I)
    Readers.emplace_back([&] {
      for (int Round = 0; Round != 100; ++Round) {
        SharedLockGuard Lock(*M);
        EXPECT_EQ(Value->read(), 7);
      }
    });
  for (Thread &T : Readers)
    T.join();
  EXPECT_EQ(RT.getStats().LockViolations, 0u);
  sharc::dealloc(Value);
  sharc::dealloc(M);
}

TEST(RwLockedTest, WriterAmongReadersIsCleanWhenDisciplined) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  auto *M = sharc::alloc<SharedMutex>();
  auto *Value = sharc::alloc<RwLocked<int>>(*M, 0);
  Thread Writer([&] {
    for (int I = 1; I <= 50; ++I) {
      ExclusiveLockGuard Lock(*M);
      Value->write(I);
    }
  });
  Thread Reader([&] {
    int Last = 0;
    for (int I = 0; I != 50; ++I) {
      SharedLockGuard Lock(*M);
      int Now = Value->read();
      EXPECT_GE(Now, Last);
      Last = Now;
    }
  });
  Writer.join();
  Reader.join();
  EXPECT_EQ(RT.getStats().LockViolations, 0u);
  sharc::dealloc(Value);
  sharc::dealloc(M);
}

TEST(RwLockedTest, SharedHoldsArePerThread) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  SharedMutex M;
  M.lock_shared();
  bool OtherHolds = true;
  Thread T([&] { OtherHolds = RT.holdsLock(&M, true); });
  T.join();
  EXPECT_FALSE(OtherHolds);
  M.unlock_shared();
}

TEST(RwLockedTest, NestedSharedHoldsUnwindCorrectly) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  SharedMutex M1, M2;
  M1.lock_shared();
  M2.lock_shared();
  EXPECT_TRUE(RT.holdsLock(&M1, true));
  EXPECT_TRUE(RT.holdsLock(&M2, true));
  M1.unlock_shared();
  EXPECT_FALSE(RT.holdsLock(&M1, true));
  EXPECT_TRUE(RT.holdsLock(&M2, true));
  M2.unlock_shared();
}
