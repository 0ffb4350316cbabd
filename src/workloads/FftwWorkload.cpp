//===-- workloads/FftwWorkload.cpp ----------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/FftwWorkload.h"

#include "rt/Guard.h"
#include "workloads/Fft.h"

#include <cmath>
#include <new>
#include <vector>

using namespace sharc;
using namespace sharc::workloads;

namespace {

/// One FFT job: an owned array slice plus its size.
struct FftJob {
  uint32_t Index = 0;
  std::vector<Complex> Data;
};

template <typename P> struct FftState {
  static constexpr unsigned QueueDepth = 4;
  typename P::Mutex Mut;
  typename P::CondVar Ready;
  typename P::template Counted<FftJob> InSlots[QueueDepth];
  typename P::template Counted<FftJob> OutSlots[QueueDepth];
  typename P::template Locked<unsigned> Submitted;
  typename P::template Locked<unsigned> Taken;
  typename P::template Locked<unsigned> Collected;
  unsigned TotalJobs = 0;

  FftState() : Submitted(Mut, 0u), Taken(Mut, 0u), Collected(Mut, 0u) {}
};

template <typename P> void fftWorkerBody(FftState<P> *State) {
  while (true) {
    FftJob *Mine = nullptr;
    {
      typename P::UniqueLock Lock(State->Mut);
      while (true) {
        unsigned Taken = State->Taken.read(SHARC_SITE("state->taken"));
        if (Taken >= State->TotalJobs)
          return;
        unsigned Submitted =
            State->Submitted.read(SHARC_SITE("state->submitted"));
        if (Taken < Submitted) {
          unsigned Slot = Taken % FftState<P>::QueueDepth;
          State->Taken.write(Taken + 1, SHARC_SITE("state->taken"));
          Mine = State->InSlots[Slot].castOut(SHARC_SITE("inSlots[slot]"));
          State->Ready.notifyAll();
          break;
        }
        State->Ready.wait(Lock);
      }
    }
    // Private compute: forward transform, then inverse to validate.
    fftInPlace(Mine->Data, /*Inverse=*/false);
    {
      typename P::UniqueLock Lock(State->Mut);
      unsigned Slot = Mine->Index % FftState<P>::QueueDepth;
      // Deposit only within the coordinator's collection window (see the
      // pbzip2 workload for the out-of-order hazard this prevents).
      while (State->Collected.read(SHARC_SITE("state->collected")) +
                 FftState<P>::QueueDepth <=
             Mine->Index)
        State->Ready.wait(Lock);
      FftJob *Transfer = Mine;
      Mine = nullptr;
      State->OutSlots[Slot].store(P::castIn(Transfer, SHARC_SITE("mine")));
      State->Ready.notifyAll();
    }
  }
}

} // namespace

template <typename P>
WorkloadResult sharc::workloads::runFftw(const FftwConfig &Config) {
  // fftInPlace only asserts this, and a size of 0 or a non-power of two
  // would loop forever or write past the job's buffer.
  size_t Size = Config.TransformSize;
  if (Size == 0 || (Size & (Size - 1)) != 0)
    guard::fatalInternal(
        "fftw: FftwConfig::TransformSize must be a non-zero power of two, "
        "not %zu",
        Size);
  void *StateMem = P::alloc(sizeof(FftState<P>));
  auto *State = new (StateMem) FftState<P>();
  State->TotalJobs = Config.NumTransforms;

  std::vector<typename P::Thread> Workers;
  for (unsigned I = 0; I != Config.NumWorkers; ++I)
    Workers.emplace_back([State] { fftWorkerBody<P>(State); });

  uint64_t Rng = Config.Seed ? Config.Seed : 1;
  auto NextDouble = [&Rng]() {
    Rng ^= Rng >> 12;
    Rng ^= Rng << 25;
    Rng ^= Rng >> 27;
    return static_cast<double>((Rng * 0x2545F4914F6CDD1Dull) >> 11) /
           9007199254740992.0;
  };

  unsigned Fed = 0;
  unsigned Collected = 0;
  double SpectralSum = 0;
  while (Collected < Config.NumTransforms) {
    typename P::UniqueLock Lock(State->Mut);
    bool FedThisRound = false;
    while (Fed < Config.NumTransforms &&
           State->Submitted.read(SHARC_SITE("state->submitted")) <
               State->Taken.read(SHARC_SITE("state->taken")) +
                   FftState<P>::QueueDepth) {
      unsigned Slot = Fed % FftState<P>::QueueDepth;
      if (State->InSlots[Slot].load() != nullptr)
        break;
      void *Mem = P::alloc(sizeof(FftJob));
      FftJob *Job = new (Mem) FftJob();
      Job->Index = Fed;
      Job->Data.resize(Config.TransformSize);
      for (Complex &C : Job->Data)
        C = Complex(NextDouble() - 0.5, NextDouble() - 0.5);
      State->InSlots[Slot].store(P::castIn(Job, SHARC_SITE("job")));
      unsigned Submitted =
          State->Submitted.read(SHARC_SITE("state->submitted"));
      State->Submitted.write(Submitted + 1,
                             SHARC_SITE("state->submitted"));
      ++Fed;
      FedThisRound = true;
      State->Ready.notifyAll();
    }
    bool Progress = false;
    {
      unsigned Slot = Collected % FftState<P>::QueueDepth;
      FftJob *Out = State->OutSlots[Slot].load();
      if (Out && Out->Index == Collected) {
        Out = State->OutSlots[Slot].castOut(SHARC_SITE("outSlots[slot]"));
        // Reclaimed: private to the coordinator again.
        for (const Complex &C : Out->Data)
          SpectralSum += std::abs(C);
        Out->~FftJob();
        P::dealloc(Out);
        ++Collected;
        State->Collected.write(Collected, SHARC_SITE("state->collected"));
        Progress = true;
        State->Ready.notifyAll();
      }
    }
    if (!Progress && !FedThisRound && Collected < Config.NumTransforms)
      State->Ready.wait(Lock);
  }
  for (auto &T : Workers)
    T.join();

  WorkloadResult Result;
  Result.Checksum = static_cast<uint64_t>(SpectralSum);
  Result.WorkUnits =
      static_cast<uint64_t>(Config.NumTransforms) * Config.TransformSize;
  // n log n complex operations, ~4 accesses each.
  double LogN = std::log2(static_cast<double>(Config.TransformSize));
  Result.TotalMemoryAccessesEstimate = static_cast<uint64_t>(
      static_cast<double>(Result.WorkUnits) * LogN * 4.0) *
      sizeof(Complex);
  Result.PeakPayloadBytesEstimate =
      static_cast<uint64_t>(FftState<P>::QueueDepth + Config.NumWorkers + 1) *
      Config.TransformSize * sizeof(Complex);
  Result.MaxThreads = Config.NumWorkers + 1; // paper row: 3
  Result.Annotations = 7; // paper's fftw row
  Result.OtherChanges = 39;
  State->~FftState();
  P::dealloc(State);
  P::quiesce();
  return Result;
}

template WorkloadResult
sharc::workloads::runFftw<UncheckedPolicy>(const FftwConfig &);
template WorkloadResult
sharc::workloads::runFftw<SharcPolicy>(const FftwConfig &);
