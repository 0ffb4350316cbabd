//===-- bench/bench_rwlock_ablation.cpp - Why rwlocked exists -------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Motivates the rwlocked extension (the paper's Section 7 asks for "more
// support for locks"): a read-mostly shared table accessed by several
// threads under three declared strategies --
//
//   locked     a plain mutex: readers serialize (the only convention the
//              paper's locked mode can express)
//   rwlocked   a reader-writer lock: concurrent readers, checked so that
//              only the exclusive hold licenses writes
//   dynamic    no locking declared: the dynamic checker observes the
//              read-mostly pattern (single writer epochs), flagging only
//              genuine overlap
//
// The interesting outputs are the wall-clock ratio of locked vs rwlocked
// (lost reader concurrency) and the check costs per access.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "rt/Sharc.h"

#include <cstdio>
#include <vector>

using namespace sharc;
using namespace sharc::bench;

namespace {

constexpr unsigned TableSize = 64;

/// Readers sum the table; a writer occasionally refreshes it.
template <typename AccessT>
void runReaders(unsigned NumReaders, unsigned Rounds, AccessT Access) {
  std::vector<Thread> Threads;
  for (unsigned T = 0; T != NumReaders; ++T)
    Threads.emplace_back([&, T] {
      uint64_t Sink = 0;
      for (unsigned R = 0; R != Rounds; ++R)
        Sink += Access(T, R);
      (void)Sink;
    });
  for (Thread &T : Threads)
    T.join();
}

} // namespace

int main(int Argc, char **Argv) {
  sharc::bench::JsonReport Report("bench_rwlock_ablation", Argc, Argv);
  unsigned NumReaders = 3;
  unsigned Rounds = 20000 * scale();
  std::printf("=== rwlocked ablation (Section 7 extension) ===\n");
  std::printf("%u readers x %u table scans, one table of %u cells\n\n",
              NumReaders, Rounds, TableSize);

  // locked: a single mutex; every scan takes it exclusively.
  double LockedSec = timeMinSeconds([&] {
    rt::Runtime::init();
    {
      auto *M = sharc::alloc<Mutex>();
      std::vector<Locked<uint64_t> *> Table;
      for (unsigned I = 0; I != TableSize; ++I)
        Table.push_back(sharc::alloc<Locked<uint64_t>>(*M, uint64_t(I)));
      runReaders(NumReaders, Rounds, [&](unsigned, unsigned) {
        uint64_t Sum = 0;
        LockGuard Lock(*M);
        for (unsigned I = 0; I != TableSize; ++I)
          Sum += Table[I]->read();
        return Sum;
      });
      for (auto *Cell : Table)
        sharc::dealloc(Cell);
      sharc::dealloc(M);
    }
    rt::Runtime::shutdown();
  });
  std::printf("  %-9s %8.3fs   1.00x (readers serialize)\n", "locked",
              LockedSec);

  // rwlocked: shared holds for scans.
  double RwSec = timeMinSeconds([&] {
    rt::Runtime::init();
    {
      auto *M = sharc::alloc<SharedMutex>();
      std::vector<RwLocked<uint64_t> *> Table;
      for (unsigned I = 0; I != TableSize; ++I)
        Table.push_back(sharc::alloc<RwLocked<uint64_t>>(*M, uint64_t(I)));
      runReaders(NumReaders, Rounds, [&](unsigned, unsigned) {
        uint64_t Sum = 0;
        SharedLockGuard Lock(*M);
        for (unsigned I = 0; I != TableSize; ++I)
          Sum += Table[I]->read();
        return Sum;
      });
      for (auto *Cell : Table)
        sharc::dealloc(Cell);
      sharc::dealloc(M);
    }
    rt::Runtime::shutdown();
  });
  std::printf("  %-9s %8.3fs  %5.2fx vs locked\n", "rwlocked", RwSec,
              RwSec / LockedSec);

  // dynamic: the checker watches the same read-mostly pattern unlocked.
  uint64_t Conflicts = 0;
  double DynSec = timeMinSeconds([&] {
    rt::Runtime::init();
    {
      rt::Runtime &RT = rt::Runtime::get();
      uint64_t *Table =
          static_cast<uint64_t *>(RT.allocate(TableSize * sizeof(uint64_t)));
      runReaders(NumReaders, Rounds, [&](unsigned, unsigned) {
        uint64_t Sum = 0;
        RT.checkRead(Table, TableSize * sizeof(uint64_t), nullptr);
        for (unsigned I = 0; I != TableSize; ++I)
          Sum += Table[I];
        return Sum;
      });
      Conflicts = RT.getStats().totalConflicts();
      RT.deallocate(Table);
    }
    rt::Runtime::shutdown();
  });
  std::printf("  %-9s %8.3fs  %5.2fx vs locked, %llu conflicts "
              "(read-only sharing is legal in dynamic mode)\n",
              "dynamic", DynSec, DynSec / LockedSec,
              static_cast<unsigned long long>(Conflicts));

  std::printf("\nrwlocked keeps the checked-lock discipline while letting "
              "readers overlap; on a multi-core host the locked/rwlocked "
              "gap widens with reader count.\n");

  Report.beginRow("locked");
  Report.metric("sec", LockedSec);
  Report.metric("ratio_vs_locked", 1.0);
  Report.metric("conflicts", 0);
  Report.beginRow("rwlocked");
  Report.metric("sec", RwSec);
  Report.metric("ratio_vs_locked", LockedSec > 0 ? RwSec / LockedSec : 0.0);
  Report.metric("conflicts", 0);
  Report.beginRow("dynamic");
  Report.metric("sec", DynSec);
  Report.metric("ratio_vs_locked", LockedSec > 0 ? DynSec / LockedSec : 0.0);
  Report.metric("conflicts", static_cast<double>(Conflicts));
  return Report.finish(0);
}
