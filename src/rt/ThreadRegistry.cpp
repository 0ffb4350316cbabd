//===-- rt/ThreadRegistry.cpp ---------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/ThreadRegistry.h"

#include "rt/Guard.h"

#include <cassert>

using namespace sharc::rt;

ThreadRegistry::ThreadRegistry(unsigned MaxThreads) : MaxThreads(MaxThreads) {
  Live.resize(MaxThreads);
}

ThreadRegistry::~ThreadRegistry() = default;

ThreadState *ThreadRegistry::registerThread() {
  if (guard::faultThreadReg())
    guard::fatalInternal(
        "thread registration failed (injected fault); %u of %u ids in use",
        getNumLive(), MaxThreads);
  std::lock_guard<std::mutex> Lock(Mutex);
  for (unsigned I = 0; I != MaxThreads; ++I) {
    if (Live[I])
      continue;
    auto State = std::make_unique<ThreadState>();
    State->Tid = I + 1;
    ThreadState *Result = State.get();
    Live[I] = std::move(State);
    EverRegistered.fetch_add(1, std::memory_order_relaxed);
    return Result;
  }
  // Out of thread ids. This used to be a debug-only assert; in release
  // builds it would have returned null into code that never checks. Die
  // with a real diagnostic instead (exit 3, crash hooks flushed).
  guard::fatalInternal("thread limit exceeded: all %u ids in use; raise "
                       "RuntimeConfig::ShadowBytesPerGranule",
                       MaxThreads);
}

void ThreadRegistry::deregisterThread(ThreadState *State) {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(State && State->Tid >= 1 && State->Tid <= MaxThreads &&
         "deregistering unknown thread");
  unsigned Index = State->Tid - 1;
  assert(Live[Index].get() == State && "thread state/id mismatch");
  RetiredCounters.add(State->Counters);
  // Its bits are already cleared; no report may read the log past here.
  State->AccessLog.clear();
  // Keep the state alive for the collector if it has pending RC log
  // entries; otherwise it can be dropped immediately.
  if (State->RcLogs[0].empty() && State->RcLogs[1].empty()) {
    Live[Index].reset();
    return;
  }
  Retired.push_back(std::move(Live[Index]));
}

CounterTotals ThreadRegistry::sumCounters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  CounterTotals Sum = RetiredCounters;
  for (const auto &State : Live)
    if (State)
      Sum.add(State->Counters);
  return Sum;
}

void ThreadRegistry::purgeRetiredUnlocked() {
  for (auto It = Retired.begin(); It != Retired.end();) {
    if ((*It)->RcLogs[0].empty() && (*It)->RcLogs[1].empty())
      It = Retired.erase(It);
    else
      ++It;
  }
}

unsigned ThreadRegistry::getNumLive() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  unsigned NumLive = 0;
  for (const auto &State : Live)
    if (State)
      ++NumLive;
  return NumLive;
}
