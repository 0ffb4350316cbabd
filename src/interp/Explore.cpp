//===-- interp/Explore.cpp ------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Stateless depth-first search over schedules, in the style of
// Flanagan–Godefroid dynamic partial-order reduction: the interpreter
// is deterministic given a Schedule, so a path through the choice tree
// is re-executed from scratch each run, guided by a persistent stack of
// choice nodes. After every execution the trace is analysed for
// conflicting step pairs; the persistent/backtrack sets they seed are
// the only places the search branches (full enumeration branches
// everywhere, and the litmus tests pin its exact counts against
// closed-form interleaving math).
//
// A step's footprint is its slice of the event trace (granule accesses,
// lock transitions, cast queries) plus the Schedule::note() side
// channel for mutations the trace cannot see — most importantly the
// thread-exit access-bit erasure, which is exactly what separates the
// overlapping (racy) from non-overlapping (clean) interleavings of the
// paper's semantics.
//
//===----------------------------------------------------------------------===//

#include "interp/Explore.h"

#include "obs/Sink.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <set>
#include <unordered_map>

using namespace sharc;
using namespace sharc::interp;

namespace {

//===----------------------------------------------------------------------===//
// Footprints and the conflict relation
//===----------------------------------------------------------------------===//

/// One footprint element. Kind encodes the dependence class:
///   0 read, 1 write (incl. implicit), 2 lock op, 3 cond op,
///   4 heap scan (sharing-cast oneref inspection reads every
///     pointer-holding cell, so it depends on every write).
struct FpItem {
  uint64_t A = 0;
  uint8_t Kind = 0;
  bool operator<(const FpItem &O) const {
    return A != O.A ? A < O.A : Kind < O.Kind;
  }
  bool operator==(const FpItem &O) const { return A == O.A && Kind == O.Kind; }
};

using Footprint = std::vector<FpItem>; // sorted, unique

void normalize(Footprint &F) {
  std::sort(F.begin(), F.end());
  F.erase(std::unique(F.begin(), F.end()), F.end());
}

bool hasWrite(const Footprint &F) {
  for (const FpItem &I : F)
    if (I.Kind == 1)
      return true;
  return false;
}

bool hasScan(const Footprint &F) {
  for (const FpItem &I : F)
    if (I.Kind == 4)
      return true;
  return false;
}

/// Two steps conflict when reordering them could change anything the
/// semantics observes: same granule with at least one write, operations
/// on the same lock, operations on the same condition variable, or a
/// heap scan against any write.
bool conflict(const Footprint &A, const Footprint &B) {
  if ((hasScan(A) && hasWrite(B)) || (hasScan(B) && hasWrite(A)))
    return true;
  size_t I = 0, J = 0;
  while (I != A.size() && J != B.size()) {
    if (A[I].A < B[J].A) {
      ++I;
      continue;
    }
    if (B[J].A < A[I].A) {
      ++J;
      continue;
    }
    // Same address: compare every kind pair at this address.
    size_t I2 = I, J2 = J;
    while (I2 != A.size() && A[I2].A == A[I].A)
      ++I2;
    while (J2 != B.size() && B[J2].A == B[J].A)
      ++J2;
    for (size_t X = I; X != I2; ++X)
      for (size_t Y = J; Y != J2; ++Y) {
        uint8_t KA = A[X].Kind, KB = B[Y].Kind;
        if (KA == 2 && KB == 2)
          return true; // lock / lock
        if (KA == 3 && KB == 3)
          return true; // cond / cond
        if (KA <= 1 && KB <= 1 && (KA == 1 || KB == 1))
          return true; // data with >= 1 write
      }
    I = I2;
    J = J2;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// The exploration schedule
//===----------------------------------------------------------------------===//

// An offer lists live threads only (a thread pick its runnable ones, a
// wake pick its waiters), so a mask over its positions needs one bit per
// possible live thread.
static_assert(MaxLiveThreads <= 64,
              "Node::Done and Node::Backtrack are 64-bit position masks");

/// A sleep set: tids whose subtree is already covered elsewhere, with
/// the footprint of their step for the independence filter. clear()
/// keeps the entries' footprint storage for the next add().
class SleepSet {
public:
  void add(unsigned Tid, const Footprint &Fp) {
    if (Size == Entries.size())
      Entries.emplace_back();
    Entries[Size].first = Tid;
    Entries[Size].second.assign(Fp.begin(), Fp.end());
    ++Size;
  }
  void clear() { Size = 0; }
  auto begin() const { return Entries.begin(); }
  auto end() const { return Entries.begin() + Size; }

private:
  std::vector<std::pair<unsigned, Footprint>> Entries;
  size_t Size = 0;
};

/// One node of the persistent DFS stack: a choice point, the options it
/// offered, the pick of the current path, and the exploration state
/// (Done, Backtrack, Sleep) that survives across runs. Done and
/// Backtrack are sets of positions in Enabled, bit I for Enabled[I]; a
/// trace tid appears at most once in an offer, so a position stands for
/// its thread.
struct Node {
  ChoiceKind Kind = ChoiceKind::ThreadPick;
  std::vector<unsigned> Enabled; ///< Trace tids, machine order.
  unsigned Pick = 0;             ///< Trace tid of the current branch.
  uint64_t Done = 0;             ///< Branches fully explored.
  uint64_t Backtrack = 0;        ///< DPOR persistent set.
  SleepSet Sleep;
  Footprint Fp;        ///< Footprint of the executed step (this run).
  size_t TraceOff = 0; ///< Trace length when the step began (this run).
  unsigned PrevTid = 0;           ///< ThreadPick of the previous step.
  unsigned PreemptionsBefore = 0; ///< Preemptions on the path up to here.
};

bool contains(const std::vector<unsigned> &V, unsigned X) {
  return std::find(V.begin(), V.end(), X) != V.end();
}

size_t indexOf(const std::vector<unsigned> &V, unsigned X) {
  return static_cast<size_t>(std::find(V.begin(), V.end(), X) - V.begin());
}

uint64_t bit(size_t Pos) { return uint64_t(1) << Pos; }

/// The mask of every position in a non-empty offer.
uint64_t allPositions(const std::vector<unsigned> &Enabled) {
  return ~uint64_t(0) >> (64 - Enabled.size());
}

bool asleep(const Node &N, unsigned Tid) {
  return std::any_of(N.Sleep.begin(), N.Sleep.end(),
                     [Tid](const auto &S) { return S.first == Tid; });
}

/// Node number of no step.
constexpr int NoStep = -1;

/// The latest step with some property (one kind of access to one
/// resource), and the latest such step by a thread other than that
/// step's. Together they answer "the latest such step by any thread but
/// T" for every T.
struct LastSteps {
  int Last = NoStep, LastOther = NoStep; ///< Node numbers.
  unsigned LastTid = 0;                  ///< The pick of Last.

  int before(unsigned Tid) const { return LastTid != Tid ? Last : LastOther; }
  void add(int Step, unsigned Tid) {
    if (LastTid != Tid) {
      LastOther = Last;
      LastTid = Tid;
    }
    Last = Step;
  }
};

class ExploreSchedule : public Schedule {
public:
  enum class EndReason : uint8_t { None, Sleep, Bound, Diverged };

  ExploreSchedule(const ExploreOptions &Opts, ExploreStats &Stats)
      : Opts(Opts), Stats(Stats) {}

  std::vector<Node> Nodes;
  /// The interpreter's sink: the event stream of the run in flight.
  obs::VectorSink Trace;

  void beginRun() {
    Trace.Events.clear();
    Depth = 0;
    LastTP = -1;
    ClosedTP = -1;
    PendingNotes.clear();
    End = EndReason::None;
  }

  void endRun() { closeFootprint(); }

  EndReason endReason() const { return End; }

  bool wantsNotes() const override { return true; }

  void note(SchedNote K, unsigned TraceTid, uint64_t Addr) override {
    (void)TraceTid;
    switch (K) {
    case SchedNote::BlockedLock:
      PendingNotes.push_back(FpItem{Addr, 2});
      break;
    case SchedNote::CondWait:
    case SchedNote::CondWake:
      PendingNotes.push_back(FpItem{Addr, 3});
      break;
    case SchedNote::ImplicitWrite:
      PendingNotes.push_back(FpItem{Addr, 1});
      break;
    }
  }

  size_t choose(const ChoicePoint &CP) override {
    if (End != EndReason::None)
      return Abort;
    if (CP.Kind == ChoiceKind::ThreadPick)
      closeFootprint();

    if (Depth < Nodes.size()) {
      // Replaying the DFS prefix: the pick is predetermined. The
      // machine is deterministic, so the offer must match what this
      // node saw last run — anything else is an interpreter
      // determinism bug and poisons every conclusion.
      Node &N = Nodes[Depth];
      if (N.Kind != CP.Kind ||
          !std::equal(N.Enabled.begin(), N.Enabled.end(), CP.Options,
                      CP.Options + CP.NumOptions)) {
        Stats.InternalError = true;
        End = EndReason::Diverged;
        return Abort;
      }
      if (CP.Kind == ChoiceKind::ThreadPick) {
        N.TraceOff = Trace.Events.size();
        LastTP = static_cast<int>(Depth);
      }
      ++Depth;
      return indexOf(N.Enabled, N.Pick);
    }

    // A fresh node: extend the path.
    int Parent = LastTP;
    Node &N = pushNode(CP);

    if (CP.Kind == ChoiceKind::CondSignalPick) {
      // Wake-up order is enumerated exhaustively (waiter lists are
      // tiny); DPOR and the preemption bound do not apply.
      N.Pick = N.Enabled[0];
      N.Backtrack = allPositions(N.Enabled);
      ++Depth;
      return 0;
    }

    N.PrevTid = Parent >= 0 ? Nodes[Parent].Pick : 0;
    N.PreemptionsBefore =
        Parent >= 0 ? Nodes[Parent].PreemptionsBefore +
                          preemptCost(Nodes[Parent], Nodes[Parent].Pick)
                    : 0;
    if (Opts.UseDpor && Parent >= 0) {
      // Godefroid sleep inheritance: after executing the parent's
      // step, only sleepers independent of it stay asleep.
      for (const auto &[Tid, Fp] : Nodes[Parent].Sleep)
        if (Tid != Nodes[Parent].Pick && !conflict(Fp, Nodes[Parent].Fp))
          N.Sleep.add(Tid, Fp);
    }

    bool AnyAwake = false;
    size_t Chosen = N.Enabled.size();
    for (size_t P = 0; P != N.Enabled.size(); ++P) {
      unsigned T = N.Enabled[P];
      if (asleep(N, T))
        continue;
      AnyAwake = true;
      if (N.PreemptionsBefore + preemptCost(N, T) > Opts.PreemptionBound) {
        ++Stats.PreemptPruned;
        Stats.BoundHit = true;
        continue;
      }
      Chosen = P;
      break;
    }
    if (Chosen == N.Enabled.size()) {
      // Every enabled thread is asleep (this execution is redundant)
      // or over the preemption bound (this execution is cut). Either
      // way the node never executes; drop it and stop the run.
      End = AnyAwake ? EndReason::Bound : EndReason::Sleep;
      popNode();
      return Abort;
    }
    N.Pick = N.Enabled[Chosen];
    N.Backtrack = bit(Chosen);
    N.TraceOff = Trace.Events.size();
    LastTP = static_cast<int>(Nodes.size()) - 1;
    ++Depth;
    return Chosen;
  }

  /// Seeds backtrack points from this run's conflicts: for each step,
  /// find the most recent earlier step of another thread it conflicts
  /// with and make sure this thread gets (or the whole enabled set
  /// gets) explored there. Convergence over re-executions yields the
  /// full persistent-set exploration.
  ///
  /// One forward pass finds those steps from the latest accessors of
  /// each resource, so the cost is linear in the run's footprint. A
  /// step may query a slot after adding itself to it: add() by the
  /// querying thread leaves what before() returns for it unchanged.
  void dporUpdate() {
    ++Pass;
    LastSteps Scan, AnyWrite;
    for (size_t I = 0; I != Nodes.size(); ++I) {
      Node &NI = Nodes[I];
      if (NI.Kind != ChoiceKind::ThreadPick)
        continue;
      int Step = static_cast<int>(I);
      unsigned T = NI.Pick;
      int Dep = NoStep;
      bool Writes = false, Scans = false;
      for (const FpItem &F : NI.Fp) {
        if (F.Kind == 4) {
          Scans = true;
          continue;
        }
        // Reads conflict with writes, writes with reads and writes, and
        // lock and cond operations with their own kind.
        IndexEntry &E = Index[F.A];
        if (E.Pass != Pass)
          E = IndexEntry{Pass, {}};
        std::array<LastSteps, 4> &ByKind = E.ByKind;
        Dep = std::max(Dep, ByKind[F.Kind == 0 ? 1 : F.Kind].before(T));
        if (F.Kind == 1) {
          Dep = std::max(Dep, ByKind[0].before(T));
          Writes = true;
        }
        ByKind[F.Kind].add(Step, T);
      }
      // A heap scan depends on every write.
      if (Writes) {
        Dep = std::max(Dep, Scan.before(T));
        AnyWrite.add(Step, T);
      }
      if (Scans) {
        Dep = std::max(Dep, AnyWrite.before(T));
        Scan.add(Step, T);
      }
      if (Dep == NoStep)
        continue;
      Node &NJ = Nodes[static_cast<size_t>(Dep)];
      size_t P = indexOf(NJ.Enabled, T);
      NJ.Backtrack |=
          P != NJ.Enabled.size() ? bit(P) : allPositions(NJ.Enabled);
    }
  }

  /// Advances the DFS to the next unexplored branch. \returns false
  /// when the tree is exhausted.
  bool backtrack() {
    while (!Nodes.empty()) {
      Node &N = Nodes.back();
      N.Done |= bit(indexOf(N.Enabled, N.Pick));
      if (N.Kind == ChoiceKind::ThreadPick && Opts.UseDpor)
        N.Sleep.add(N.Pick, N.Fp);
      size_t Next = N.Enabled.size();
      for (size_t P = 0; P != N.Enabled.size(); ++P) {
        if (N.Done & bit(P))
          continue;
        unsigned T = N.Enabled[P];
        if (N.Kind == ChoiceKind::ThreadPick) {
          if (Opts.UseDpor && !(N.Backtrack & bit(P)))
            continue;
          if (Opts.UseDpor && asleep(N, T))
            continue;
          if (N.PreemptionsBefore + preemptCost(N, T) >
              Opts.PreemptionBound) {
            ++Stats.PreemptPruned;
            Stats.BoundHit = true;
            continue;
          }
        }
        Next = P;
        break;
      }
      if (Next != N.Enabled.size()) {
        N.Pick = N.Enabled[Next];
        N.Backtrack |= bit(Next);
        return true;
      }
      if (N.Kind == ChoiceKind::ThreadPick)
        Stats.BranchesPruned +=
            std::popcount(allPositions(N.Enabled) & ~N.Done);
      popNode();
    }
    return false;
  }

  Witness buildWitness() const {
    Witness W;
    W.Choices.reserve(Nodes.size());
    for (const Node &N : Nodes) {
      Witness::Choice C;
      C.Kind = N.Kind;
      C.Tid = N.Pick;
      C.NumOptions = static_cast<uint32_t>(N.Enabled.size());
      W.Choices.push_back(C);
    }
    return W;
  }

private:
  /// Appends the node of a new choice point. It takes the storage of a
  /// node popped earlier when there is one, so a search that has gone
  /// as deep before allocates nothing.
  Node &pushNode(const ChoicePoint &CP) {
    if (Spare.empty()) {
      Nodes.emplace_back();
    } else {
      Nodes.push_back(std::move(Spare.back()));
      Spare.pop_back();
    }
    Node &N = Nodes.back();
    N.Kind = CP.Kind;
    N.Enabled.assign(CP.Options, CP.Options + CP.NumOptions);
    N.Pick = 0;
    N.Done = N.Backtrack = 0;
    N.Sleep.clear();
    N.Fp.clear();
    N.TraceOff = 0;
    N.PrevTid = N.PreemptionsBefore = 0;
    return N;
  }

  /// Pops the last node, keeping its storage for pushNode().
  void popNode() {
    Spare.push_back(std::move(Nodes.back()));
    Nodes.pop_back();
  }

  unsigned preemptCost(const Node &N, unsigned Pick) const {
    // CHESS-style: switching away from a thread that could have kept
    // running is a preemption; running on, or switching after the
    // previous thread blocked/exited, is free.
    return N.PrevTid != 0 && N.PrevTid != Pick &&
                   contains(N.Enabled, N.PrevTid)
               ? 1
               : 0;
  }

  /// Folds the trace slice and pending notes of the step that just
  /// finished into its node's footprint. Idempotent per step: mid-run
  /// choice points and endRun() may both try to close the same node.
  void closeFootprint() {
    if (LastTP < 0 || LastTP == ClosedTP) {
      PendingNotes.clear();
      return;
    }
    Node &N = Nodes[static_cast<size_t>(LastTP)];
    Footprint &Fp = N.Fp;
    Fp.assign(PendingNotes.begin(), PendingNotes.end());
    PendingNotes.clear();
    for (size_t I = N.TraceOff; I < Trace.Events.size(); ++I) {
      const obs::Event &E = Trace.Events[I];
      switch (E.K) {
      case obs::EventKind::Read:
        Fp.push_back(FpItem{E.Addr, 0});
        break;
      case obs::EventKind::Write:
      case obs::EventKind::PtrStore:
        Fp.push_back(FpItem{E.Addr, 1});
        break;
      case obs::EventKind::LockAcquire:
      case obs::EventKind::LockRelease:
        Fp.push_back(FpItem{E.Addr, 2});
        break;
      case obs::EventKind::CastQuery:
        Fp.push_back(FpItem{0, 4});
        break;
      case obs::EventKind::SpawnEdge:
      case obs::EventKind::ThreadStart:
      case obs::EventKind::ThreadExit:
      case obs::EventKind::Conflict:
      case obs::EventKind::SharedLockAcquire:
      case obs::EventKind::SharedLockRelease:
      case obs::EventKind::SharingCast:
      case obs::EventKind::LockWait:
        // Spawn edges happen within the parent's step; the exit's
        // access-bit erasure arrives via note(ImplicitWrite); a Conflict
        // reports on the step's accesses. Unprofiled interpreter runs
        // publish none of the other kinds.
        break;
      }
    }
    normalize(Fp);
    ClosedTP = LastTP;
  }

  const ExploreOptions &Opts;
  ExploreStats &Stats;
  size_t Depth = 0;
  int LastTP = -1;   ///< Node index of the step in flight.
  int ClosedTP = -1; ///< Last node whose footprint closed (this run).
  Footprint PendingNotes;
  EndReason End = EndReason::None;
  /// Popped nodes whose storage pushNode() reuses.
  std::vector<Node> Spare;
  /// dporUpdate()'s latest steps per address, by footprint kind 0-3, as
  /// of pass Pass. The map is never cleared: an entry stamped by an
  /// earlier pass reads as empty, so each address allocates once per
  /// exploration, not once per run.
  struct IndexEntry {
    uint64_t Pass = 0;
    std::array<LastSteps, 4> ByKind;
  };
  std::unordered_map<uint64_t, IndexEntry> Index;
  uint64_t Pass = 0; ///< dporUpdate() calls so far.
};

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

ExploreVerdict interp::classifyResult(const InterpResult &R) {
  ExploreVerdict V;
  // An out-of-steps run carries one engine-appended RuntimeError
  // ("step budget exhausted"), always last. That is an artifact of
  // truncation, not program behaviour — the OutOfSteps flag already
  // classifies it — so it stays out of the violation mask.
  size_t N = R.Violations.size();
  if (R.OutOfSteps && N != 0 &&
      R.Violations.back().K == Violation::Kind::RuntimeError)
    --N;
  for (size_t I = 0; I != N; ++I)
    V.KindsMask |= 1u << static_cast<unsigned>(R.Violations[I].K);
  V.Deadlocked = R.Deadlocked;
  V.OutOfSteps = R.OutOfSteps;
  V.Completed = R.Completed;
  return V;
}

std::string ExploreVerdict::describe() const {
  if (clean())
    return Completed ? "clean" : "clean(halted)";
  static const char *Names[] = {"read-conflict", "write-conflict",
                                "lock-violation", "cast-error",
                                "runtime-error"};
  std::string Out;
  for (unsigned I = 0; I != 5; ++I)
    if (KindsMask & (1u << I)) {
      if (!Out.empty())
        Out += '+';
      Out += Names[I];
    }
  if (Deadlocked)
    Out += "+deadlock";
  if (OutOfSteps)
    Out += "+out-of-steps";
  return Out;
}

ExploreResult interp::explore(minic::Program &Prog,
                              const checker::Instrumentation &Instr,
                              const ExploreOptions &Opts) {
  ExploreResult R;
  Interp I(Prog, Instr);
  ExploreSchedule ES(Opts, R.Stats);
  std::set<ExploreVerdict> Seen;
  std::set<ExploreVerdict> Witnessed;
  uint64_t Executions = 0;
  bool FirstRun = true;
  InterpOptions IO;
  IO.Seed = 1; // unused: every decision flows through the schedule
  IO.MaxSteps = Opts.MaxStepsPerRun;
  IO.EntryPoint = Opts.EntryPoint;
  IO.Sched = &ES;
  IO.Sink = &ES.Trace;

  for (;;) {
    if (Executions >= Opts.MaxRuns ||
        R.Stats.StepsTotal >= Opts.MaxTotalSteps) {
      R.Stats.BudgetExhausted = true;
      break;
    }
    ES.beginRun();
    InterpResult Run = I.run(IO);
    ES.endRun();
    ++Executions;
    R.Stats.StepsTotal += Run.Stats.Steps;
    R.Stats.MaxDepth = std::max<uint64_t>(R.Stats.MaxDepth, ES.Nodes.size());

    if (ES.endReason() == ExploreSchedule::EndReason::Diverged)
      break; // InternalError already set; nothing here can be trusted.

    if (Run.ScheduleAborted) {
      if (ES.endReason() == ExploreSchedule::EndReason::Sleep)
        ++R.Stats.SleepBlocked;
      else
        ++R.Stats.BoundedRuns;
    } else {
      ++R.Stats.Runs;
      if (FirstRun) {
        R.FirstRunStats = Run.Stats;
        FirstRun = false;
      }
      ExploreVerdict V = classifyResult(Run);
      Seen.insert(V);
      // A schedule cut by the per-run step budget is a truncated leaf:
      // the subtree past the cut was never visited (a spinning thread
      // that never yields also never produces the conflicting steps
      // DPOR would branch on), so the enumeration cannot claim
      // completeness however cleanly the search converges.
      if (Run.OutOfSteps)
        R.Stats.BudgetExhausted = true;
      if (V.violating() && !Witnessed.count(V)) {
        Witnessed.insert(V);
        R.Witnesses.push_back({V, ES.buildWitness()});
        if (R.Witnesses.size() == 1)
          R.FirstViolation = std::move(Run);
      }
    }

    // Race analysis runs on pruned prefixes too: the prefix with the
    // new branch pick is an execution DPOR has not analysed yet.
    if (Opts.UseDpor)
      ES.dporUpdate();
    if (!ES.backtrack())
      break; // every inequivalent schedule enumerated
  }

  R.Verdicts.assign(Seen.begin(), Seen.end());
  return R;
}
