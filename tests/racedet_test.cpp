//===-- tests/racedet_test.cpp - Baseline detector tests ------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the Eraser lockset and vector-clock happens-before baselines used
/// by the detector-comparison benchmark (paper Section 6.2).
///
//===----------------------------------------------------------------------===//

#include "racedet/Eraser.h"
#include "racedet/VectorClock.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace sharc::racedet;

//===----------------------------------------------------------------------===//
// Eraser
//===----------------------------------------------------------------------===//

TEST(EraserTest, SingleThreadNeverRaces) {
  EraserDetector D;
  int X = 0;
  for (int I = 0; I != 100; ++I) {
    D.onWrite(1, &X, sizeof(X));
    D.onRead(1, &X, sizeof(X));
  }
  EXPECT_EQ(D.getNumRaces(), 0u);
  EXPECT_EQ(D.getNumChecks(), 200u);
}

TEST(EraserTest, ConsistentLockingIsClean) {
  // Two real threads, so the sharded cell tables run concurrently.
  EraserDetector D;
  int Lock = 0;
  alignas(8) int X = 0;
  auto Body = [&](unsigned Tid) {
    for (int I = 0; I != 50; ++I) {
      D.onLockAcquire(Tid, &Lock);
      D.onWrite(Tid, &X, sizeof(X));
      D.onLockRelease(Tid, &Lock);
    }
  };
  std::thread A(Body, 1), B(Body, 2);
  A.join();
  B.join();
  EXPECT_EQ(D.getNumRaces(), 0u);
}

TEST(EraserTest, UnsynchronizedSharedWriteRaces) {
  EraserDetector D;
  alignas(8) int X = 0;
  D.onWrite(1, &X, sizeof(X));
  D.onWrite(2, &X, sizeof(X));
  EXPECT_EQ(D.getNumRaces(), 1u);
}

TEST(EraserTest, InconsistentLocksRace) {
  EraserDetector D;
  int LockA = 0, LockB = 0;
  alignas(8) int X = 0;
  auto LockedWrite = [&](unsigned Tid, int *Lock) {
    D.onLockAcquire(Tid, Lock);
    D.onWrite(Tid, &X, sizeof(X));
    D.onLockRelease(Tid, Lock);
  };
  LockedWrite(1, &LockA);
  LockedWrite(2, &LockB);
  // The candidate set is initialized to B's locks on the state change; it
  // empties on the next differently-locked access (Eraser refinement).
  EXPECT_EQ(D.getNumRaces(), 0u);
  LockedWrite(3, &LockA);
  EXPECT_EQ(D.getNumRaces(), 1u);
}

TEST(EraserTest, ReadSharedAfterInitIsClean) {
  // The classic Eraser refinement: initialize unlocked, then many readers.
  EraserDetector D;
  alignas(8) int X = 0;
  D.onWrite(1, &X, sizeof(X)); // init by owner
  for (unsigned Tid = 2; Tid != 6; ++Tid)
    D.onRead(Tid, &X, sizeof(X));
  EXPECT_EQ(D.getNumRaces(), 0u);
}

TEST(EraserTest, FalsePositiveOnOwnershipHandoff) {
  // Eraser's known weakness (and SharC's motivation): a lock-free
  // ownership transfer looks like a race to the lockset algorithm even
  // when the program is correct by design.
  EraserDetector D;
  alignas(8) int X = 0;
  D.onWrite(1, &X, sizeof(X));
  // Handoff happened through some fence Eraser does not model.
  D.onWrite(2, &X, sizeof(X));
  EXPECT_EQ(D.getNumRaces(), 1u); // false positive, by design
}

TEST(EraserTest, TracksMetadataFootprint) {
  EraserDetector D;
  std::vector<int> Data(1024, 0);
  D.onWrite(1, Data.data(), Data.size() * sizeof(int));
  EXPECT_GT(D.memoryFootprint(), Data.size() * sizeof(int) / 2);
}

//===----------------------------------------------------------------------===//
// Vector clocks
//===----------------------------------------------------------------------===//

TEST(VectorClockTest, JoinAndCompare) {
  VectorClock A, B;
  A.set(1, 5);
  B.set(2, 7);
  EXPECT_FALSE(A.leq(B));
  B.joinWith(A);
  EXPECT_TRUE(A.leq(B));
  EXPECT_EQ(B.get(1), 5u);
  EXPECT_EQ(B.get(2), 7u);
}

TEST(HappensBeforeTest, LockOrderingPreventsReports) {
  HappensBeforeDetector D;
  int Lock = 0;
  alignas(8) int X = 0;
  for (unsigned Tid : {1u, 2u}) {
    D.onLockAcquire(Tid, &Lock);
    D.onWrite(Tid, &X, sizeof(X));
    D.onLockRelease(Tid, &Lock);
  }
  EXPECT_EQ(D.getNumRaces(), 0u);
}

TEST(HappensBeforeTest, UnorderedWritesRace) {
  HappensBeforeDetector D;
  alignas(8) int X = 0;
  D.onWrite(1, &X, sizeof(X));
  D.onWrite(2, &X, sizeof(X));
  EXPECT_EQ(D.getNumRaces(), 1u);
}

TEST(HappensBeforeTest, ReadThenUnorderedWriteRaces) {
  HappensBeforeDetector D;
  alignas(8) int X = 0;
  D.onRead(1, &X, sizeof(X));
  D.onWrite(2, &X, sizeof(X));
  EXPECT_EQ(D.getNumRaces(), 1u);
}

TEST(HappensBeforeTest, ReleaseAcquireChainOrdersAccesses) {
  // Thread 1 writes X, releases L; thread 2 acquires L, writes X: no race
  // (this is the signaling pattern the lockset algorithm cannot express
  // but happens-before can).
  HappensBeforeDetector D;
  int Lock = 0;
  alignas(8) int X = 0;
  D.onWrite(1, &X, sizeof(X));
  D.onLockAcquire(1, &Lock);
  D.onLockRelease(1, &Lock);
  D.onLockAcquire(2, &Lock);
  D.onWrite(2, &X, sizeof(X));
  D.onLockRelease(2, &Lock);
  EXPECT_EQ(D.getNumRaces(), 0u);
}
