//===-- interp/Interp.cpp -------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/Schedule.h"
#include "obs/Sink.h"

#include <algorithm>
#include <cassert>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <tuple>

using namespace sharc;
using namespace sharc::interp;
using namespace sharc::minic;
using sharc::checker::AccessCheck;

// The obs event vocabulary embeds TraceEvent::Kind as a prefix so the
// two streams convert by cast. A reorder on either side must keep this
// table true (the fuzzer's trace oracle also pins it at runtime).
#define SHARC_CHECK_KIND(K)                                                    \
  static_assert(static_cast<int>(obs::EventKind::K) ==                         \
                static_cast<int>(TraceEvent::Kind::K))
SHARC_CHECK_KIND(Read);
SHARC_CHECK_KIND(Write);
SHARC_CHECK_KIND(LockAcquire);
SHARC_CHECK_KIND(LockRelease);
SHARC_CHECK_KIND(SpawnEdge);
SHARC_CHECK_KIND(ThreadStart);
SHARC_CHECK_KIND(ThreadExit);
SHARC_CHECK_KIND(PtrStore);
SHARC_CHECK_KIND(CastQuery);
#undef SHARC_CHECK_KIND
static_assert(static_cast<int>(obs::LastInterpKind) ==
              static_cast<int>(TraceEvent::Kind::CastQuery));

// Violation kinds likewise embed into obs::ConflictKind by cast.
static_assert(static_cast<int>(obs::ConflictKind::ReadConflict) ==
              static_cast<int>(Violation::Kind::ReadConflict));
static_assert(static_cast<int>(obs::ConflictKind::WriteConflict) ==
              static_cast<int>(Violation::Kind::WriteConflict));
static_assert(static_cast<int>(obs::ConflictKind::LockViolation) ==
              static_cast<int>(Violation::Kind::LockViolation));
static_assert(static_cast<int>(obs::ConflictKind::CastError) ==
              static_cast<int>(Violation::Kind::CastError));
static_assert(static_cast<int>(obs::ConflictKind::RuntimeError) ==
              static_cast<int>(Violation::Kind::RuntimeError));

std::string Violation::format(const std::string &FileName) const {
  const char *KindName = "violation";
  switch (K) {
  case Kind::ReadConflict:
    KindName = "read conflict";
    break;
  case Kind::WriteConflict:
    KindName = "write conflict";
    break;
  case Kind::LockViolation:
    KindName = "lock violation";
    break;
  case Kind::CastError:
    KindName = "sharing cast error";
    break;
  case Kind::RuntimeError:
    KindName = "runtime error";
    break;
  }
  char Buf[512];
  std::string Out;
  std::snprintf(Buf, sizeof(Buf), "%s(0x%llx):\n", KindName,
                static_cast<unsigned long long>(Address));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "  who(%u)  %s @ %s: %u\n", WhoTid,
                WhoLValue.c_str(), FileName.c_str(), WhoLine);
  Out += Buf;
  if (LastTid != 0) {
    std::snprintf(Buf, sizeof(Buf), "  last(%u) %s @ %s: %u\n", LastTid,
                  LastLValue.c_str(), FileName.c_str(), LastLine);
    Out += Buf;
  }
  if (!Detail.empty()) {
    Out += "  ";
    Out += Detail;
    Out += '\n';
  }
  return Out;
}

namespace {

using Addr = uint64_t;

/// One memory cell of the operational semantics: value, pointerness (for
/// the oneref heap inspection), reader/writer thread sets, last-access
/// provenance for reports.
struct Cell {
  int64_t V = 0;
  bool IsPtr = false;
  uint64_t Readers = 0;
  uint64_t Writers = 0;
  uint16_t LastTid = 0;
  const Expr *LastExpr = nullptr;
  uint32_t LastLine = 0;
};

/// One allocation: a global, a local, a string literal or a `new`.
struct Object {
  Addr Start = 0;
  uint64_t Size = 0;
  bool Freed = false;
};

/// Most cells one run may allocate: alloc() refuses a request past it,
/// and the run reports a runtime error instead of exhausting the host's
/// memory.
constexpr uint64_t MaxCells = uint64_t(1) << 22;

/// \returns A * B, or the largest uint64_t when that overflows (a size
/// no allocation can satisfy).
uint64_t mulCells(uint64_t A, uint64_t B) {
  uint64_t P = 0;
  return __builtin_mul_overflow(A, B, &P) ? ~uint64_t(0) : P;
}

/// An entry on a frame's control stack.
struct Task {
  enum class K : uint8_t {
    Stmt,
    Block,
    Loop,    ///< while: re-evaluate the condition
    ForCond, ///< for: evaluate the condition, run body + step if true
    ForStep, ///< for: evaluate the step, then back to ForCond
  } Kind = K::Stmt;
  const Stmt *S = nullptr;
  size_t Index = 0;
};

/// \returns true for the control-stack markers that delimit a loop (what
/// break/continue unwind to).
static bool isLoopMarker(Task::K Kind) {
  return Kind == Task::K::Loop || Kind == Task::K::ForStep;
}

struct Frame {
  const FuncDecl *F = nullptr;
  /// Locals in allocation order. alloc() bumps, so this is also cell
  /// address order: frame death releases them in an order that does not
  /// depend on where the AST nodes happen to live in the host heap.
  std::vector<std::pair<const VarDecl *, Addr>> Locals;
  std::vector<Task> Control;
  /// Where the return value goes in the *caller* frame.
  const Expr *DestLV = nullptr;
  const VarDecl *DestVar = nullptr;
};

struct ThreadCtx {
  unsigned Tid = 0;
  /// Trace-unique id (never reused, unlike Tid which is recycled).
  unsigned TraceTid = 0;
  enum class St : uint8_t {
    Runnable,
    BlockedLock,
    WaitingCond,
    Done,
    Failed
  } State = St::Runnable;
  Addr BlockLock = 0;
  Addr WaitCond = 0;
  Addr ReacquireLock = 0;
  std::vector<Frame> Frames;
  std::vector<Addr> AccessLog;
  std::vector<Addr> HeldLocks;
  std::vector<Addr> HeldSharedLocks; ///< rwlock read holds

  //===--- profiling (InterpOptions::Profile) -------------------------------
  /// Step count when this thread first blocked on its pending lock
  /// acquisition; 0 while not waiting. Survives wake/re-block cycles so
  /// the wait covers the whole contended acquisition.
  uint64_t BlockStartStep = 0;
  /// Line of the cond_wait call, attributed to the wakeup reacquire.
  uint32_t ReacquireLine = 0;
  /// Open lock holds: (lock, acquire step, acquirer line).
  struct ProfHold {
    Addr Lock = 0;
    uint64_t Step = 0;
    uint32_t Line = 0;
  };
  std::vector<ProfHold> ProfHolds;
};

/// The whole machine state for one run.
class Machine {
public:
  Machine(Program &Prog, const checker::Instrumentation &Instr,
          const InterpOptions &Options)
      : Prog(Prog), Instr(Instr), Options(Options),
        OwnedRandom(Options.Seed),
        Sched(Options.Sched ? Options.Sched : &OwnedRandom),
        WantNotes(Sched->wantsNotes()),
        Profiling(Options.Profile && Options.Sink != nullptr) {}

  InterpResult run();

private:
  InterpResult runImpl();
  //===--- memory ----------------------------------------------------------
  /// \returns the first cell of SizeCells fresh cells, or 0 when that
  /// would take Mem past MaxCells.
  Addr alloc(uint64_t SizeCells);
  /// alloc() on behalf of T: a refused request is reported at At and
  /// fails T.
  Addr allocFor(ThreadCtx &T, const Expr *At, uint64_t SizeCells);
  /// The object whose cells include A, or null.
  Object *objectContaining(Addr A);
  /// The object that starts at A, or null.
  Object *objectAt(Addr A);
  /// \returns true when A names an allocated cell; otherwise reports an
  /// out-of-bounds access at Node and fails T.
  bool inBounds(ThreadCtx &T, Addr A, const Expr *Node);
  void freeObject(ThreadCtx &T, Addr A, const Expr *At);
  uint64_t sizeInCells(const TypeNode *T) const;
  uint64_t fieldOffset(const StructDecl *S, const VarDecl *Field) const;
  uint64_t countPtrCells(int64_t Value) const;
  void clearObjectSets(const ThreadCtx &T, Addr A);

  //===--- threads and scheduling -------------------------------------------
  unsigned allocateTid();
  ThreadCtx &spawnThread(const FuncDecl *F, int64_t Arg, bool HasArg);
  void threadExit(ThreadCtx &T);
  void step(ThreadCtx &T);
  void wakeLockWaiters(Addr Lock);

  //===--- execution ---------------------------------------------------------
  void dispatchStmt(ThreadCtx &T, Frame &F, const Stmt *S);
  void dispatchTask(ThreadCtx &T, Frame &F, Task Tk);
  void returnFromFrame(ThreadCtx &T, int64_t Value, bool IsPtr);
  /// \returns false if the call blocked and the task must be retried.
  bool execCall(ThreadCtx &T, Frame &F, const CallExpr *Call,
                const Expr *DestLV, const VarDecl *DestVar);
  bool execBuiltin(ThreadCtx &T, const FuncDecl *F,
                   const std::vector<int64_t> &Args, const CallExpr *Call);
  /// \returns Var's cells in F, allocated on first use; 0 when the
  /// allocation was refused (reported, and T failed).
  Addr localAddr(ThreadCtx &T, Frame &F, const VarDecl *Var);

  //===--- expressions --------------------------------------------------------
  int64_t evalExpr(ThreadCtx &T, Frame &F, const Expr *E);
  Addr evalLValue(ThreadCtx &T, Frame &F, const Expr *E);
  void runChecks(ThreadCtx &T, Frame &F, const Expr *Node, Addr A);
  void storeCell(ThreadCtx &T, Addr A, int64_t V, bool IsPtr,
                 const Expr *Node);
  int64_t readCell(ThreadCtx &T, Addr A, const Expr *Node);
  Addr addrOfVar(ThreadCtx &T, Frame &F, const VarDecl *Var);

  //===--- checks -------------------------------------------------------------
  /// Writes a cell without counting a semantic access: used for the
  /// implicit stores (parameter copies, spawn arguments, frame death,
  /// free) so pointer-slot mutations still reach the trace while
  /// Stats.TotalAccesses keeps its meaning.
  void setCellRaw(ThreadCtx &T, Addr A, int64_t V, bool IsPtr);
  /// True when any consumer wants the event stream; gates the implicit
  /// PtrStore bookkeeping so disabled runs skip it entirely.
  bool tracing() const { return Options.Trace || Options.Sink; }

  void emit(TraceEvent::Kind K, const ThreadCtx &T, uint64_t A,
            int64_t V = 0) {
    if (Options.Trace)
      Options.Trace->push_back(TraceEvent{K, T.TraceTid, A, V});
    if (Options.Sink)
      Options.Sink->event(obs::Event{static_cast<obs::EventKind>(K),
                                     T.TraceTid, A, V, 0});
  }

  /// Records a runtime error of the machine itself, which no thread
  /// caused: a refused global, a missing entry point, a deadlock, the
  /// step budget.
  void machineError(std::string Detail) {
    Violation V;
    V.K = Violation::Kind::RuntimeError;
    V.Detail = std::move(Detail);
    ++Result.TotalViolations;
    Result.Violations.push_back(std::move(V));
    emitConflict(Result.Violations.back(), nullptr);
  }

  /// Publishes a Conflict event for a just-recorded violation. Null T
  /// means the machine itself (thread limit, deadlock, step budget);
  /// those carry tid 0.
  void emitConflict(const Violation &V, const ThreadCtx *T) {
    if (!Options.Sink)
      return;
    obs::Event Ev;
    Ev.K = obs::EventKind::Conflict;
    Ev.Tid = T ? T->TraceTid : 0;
    Ev.Addr = V.Address;
    Ev.Value = static_cast<int64_t>(V.LastTid);
    Ev.Extra = obs::makeConflictExtra(
        static_cast<obs::ConflictKind>(V.K), V.WhoLine, V.LastLine);
    Options.Sink->event(Ev);
  }

  //===--- profiling ---------------------------------------------------------
  /// Counts one check at \p Node's site. Null \p Node is the "<implicit>"
  /// pseudo-site (parameter copies, returns into declared variables) so
  /// profile totals still equal the run's final stats exactly.
  void profRecord(obs::CheckKind K, const ThreadCtx &T, const Expr *Node,
                  uint64_t Bytes) {
    if (!Profiling)
      return;
    ++ProfOps;
    auto &Agg = ProfSites[std::make_tuple(T.TraceTid, uint8_t(K), Node)];
    ++Agg.Count;
    Agg.Bytes += Bytes;
  }
  void profLockBlocked(ThreadCtx &T, Addr Lock, uint32_t Line);
  void profLockAcquired(ThreadCtx &T, Addr Lock, uint32_t Line);
  void profLockReleased(ThreadCtx &T, Addr Lock);
  void publishProfile();

  //===--- sharc-live --------------------------------------------------------
  /// Publishes a mid-run LiveSnapshot to Options.Live (DESIGN.md §13).
  /// Called from the scheduler every LivePollSteps steps; the driver
  /// publishes the final, trace-exact snapshot itself after the run.
  void publishLive();

  void chkRead(ThreadCtx &T, Addr A, const Expr *Node);
  void chkWrite(ThreadCtx &T, Addr A, const Expr *Node);
  void chkLock(ThreadCtx &T, Frame &F, const AccessCheck &Check, Addr A,
               const Expr *Node);
  void report(Violation::Kind K, ThreadCtx &T, Addr A, const Expr *Node,
              const Cell *Last = nullptr, std::string Detail = "");
  /// Under Policy::Quarantine, cells that already reported once stop
  /// firing (the location has been demoted to racy-equivalent). The
  /// policy-byte compare keeps the other policies at zero added cost.
  bool isCellQuarantined(Addr A) const {
    return Options.Guard.OnViolation == guard::Policy::Quarantine &&
           QuarCells.count(A) != 0;
  }

  bool exprIsPointer(const Expr *E) const {
    return E->ExprType && (E->ExprType->isPointer() || E->ExprType->isFunc());
  }

  /// Reports a trace-invisible effect to the schedule (Schedule.h);
  /// free when the schedule does not listen.
  void schedNote(SchedNote K, const ThreadCtx &T, uint64_t A) {
    if (WantNotes)
      Sched->note(K, T.TraceTid, A);
  }

  Program &Prog;
  const checker::Instrumentation &Instr;
  InterpOptions Options;
  /// Fallback decision source when Options.Sched is null: the
  /// historical seeded scheduler (bit-exact; see Schedule.h).
  RandomSchedule OwnedRandom;
  Schedule *Sched;
  const bool WantNotes;
  /// The schedule asked to stop (Schedule::Abort). Mid-step requests
  /// (cond_signal picks) finish the step first; the run loop checks
  /// before every step.
  bool SchedAbort = false;

  std::vector<Cell> Mem;
  /// Every allocation in allocation order. alloc() bumps Mem, so this is
  /// also start-address order and lookups binary-search it.
  std::vector<Object> Objects;
  std::map<const VarDecl *, Addr> Globals;
  std::map<const Expr *, Addr> StringCache;
  std::map<Addr, unsigned> LockOwner;
  /// rwlock reader counts (the writer side reuses LockOwner).
  std::map<Addr, unsigned> ReaderCount;
  std::map<Addr, std::vector<unsigned>> CondWaiters;
  /// Every thread spawned this run, in creation order; a deque, so
  /// spawning never moves a thread.
  std::deque<ThreadCtx> Threads;
  /// The threads of Threads not yet done or failed, in creation order.
  /// The run loop drops finished ones before each step.
  std::vector<ThreadCtx *> Live;
  /// Some thread failed (it has left Live).
  bool AnyFailed = false;
  std::vector<unsigned> FreeTids;
  unsigned NextTid = 1;
  unsigned NextTraceTid = 1;
  uint64_t NextSpawnToken = 0;
  /// Function "addresses" for function pointer values.
  std::map<const FuncDecl *, int64_t> FuncIds;
  std::map<int64_t, const FuncDecl *> FuncById;

  //===--- profiling state ---------------------------------------------------
  const bool Profiling;
  struct SiteAgg {
    uint64_t Count = 0;
    uint64_t Bytes = 0;
  };
  /// Keyed by (trace tid, check kind, site node); sites sharing a
  /// file:line merge at publish time so the record stream is
  /// deterministic regardless of AST pointer values.
  std::map<std::tuple<unsigned, uint8_t, const Expr *>, SiteAgg> ProfSites;
  struct LockAgg {
    uint64_t Acquires = 0;
    uint64_t Contended = 0;
    uint64_t WaitSteps = 0;
    uint64_t HoldSteps = 0;
    uint64_t WaitHist[obs::NumHistBuckets] = {};
    uint64_t HoldHist[obs::NumHistBuckets] = {};
  };
  /// Keyed by (trace tid, lock address, acquirer line).
  std::map<std::tuple<unsigned, Addr, uint32_t>, LockAgg> ProfLocks;
  uint64_t ProfOps = 0;

  //===--- failure semantics (sharc-guard) -----------------------------------
  static constexpr unsigned NumViolationKinds = 5;
  /// Policy::Abort saw a violation; the scheduler stops before its next
  /// step.
  bool PolicyHalt = false;
  /// Cells demoted by Policy::Quarantine.
  std::set<Addr> QuarCells;
  /// Dedup keys (kind, address, who-line) — populated only when
  /// GuardConfig::MaxReportsPerKind is nonzero.
  std::set<std::tuple<uint8_t, Addr, uint32_t>> SeenViolations;
  uint64_t RetainedPerKind[NumViolationKinds] = {};

  InterpResult Result;
};

constexpr int64_t FuncIdBase = int64_t(1) << 48;

//===----------------------------------------------------------------------===//
// Memory
//===----------------------------------------------------------------------===//

uint64_t Machine::sizeInCells(const TypeNode *T) const {
  if (!T)
    return 1;
  switch (T->Kind) {
  case TypeKind::Int:
  case TypeKind::Char:
  case TypeKind::Bool:
  case TypeKind::Void:
  case TypeKind::Mutex:
  case TypeKind::Cond:
  case TypeKind::Pointer:
  case TypeKind::Func:
    return 1;
  case TypeKind::Array:
    return mulCells(
        static_cast<uint64_t>(T->ArraySize > 0 ? T->ArraySize : 1),
        sizeInCells(T->Pointee));
  case TypeKind::Struct: {
    uint64_t Size = 0;
    if (T->Struct)
      for (const VarDecl *Field : T->Struct->Fields)
        Size += sizeInCells(Field->DeclType);
    return Size ? Size : 1;
  }
  }
  return 1;
}

uint64_t Machine::fieldOffset(const StructDecl *S,
                              const VarDecl *Field) const {
  uint64_t Offset = 0;
  for (const VarDecl *F : S->Fields) {
    if (F == Field)
      return Offset;
    Offset += sizeInCells(F->DeclType);
  }
  return Offset;
}

Addr Machine::alloc(uint64_t SizeCells) {
  if (SizeCells == 0)
    SizeCells = 1;
  // Mem never grows past MaxCells, so the subtraction cannot wrap.
  if (SizeCells > MaxCells - Mem.size())
    return 0;
  Addr A = Mem.size();
  Mem.resize(Mem.size() + SizeCells);
  Objects.push_back(Object{A, SizeCells, false});
  return A;
}

Addr Machine::allocFor(ThreadCtx &T, const Expr *At, uint64_t SizeCells) {
  Addr A = alloc(SizeCells);
  if (A == 0) {
    report(Violation::Kind::RuntimeError, T, 0, At, nullptr,
           "allocation past the interpreter's limit of " +
               std::to_string(MaxCells) + " cells");
    T.State = ThreadCtx::St::Failed;
  }
  return A;
}

Object *Machine::objectContaining(Addr A) {
  auto It = std::upper_bound(
      Objects.begin(), Objects.end(), A,
      [](Addr Key, const Object &O) { return Key < O.Start; });
  if (It == Objects.begin())
    return nullptr;
  --It;
  return A < It->Start + It->Size ? &*It : nullptr;
}

Object *Machine::objectAt(Addr A) {
  Object *O = objectContaining(A);
  return O && O->Start == A ? O : nullptr;
}

void Machine::clearObjectSets(const ThreadCtx &T, Addr A) {
  const Object *O = objectContaining(A);
  if (!O)
    return;
  for (Addr C = O->Start; C != O->Start + O->Size; ++C) {
    Mem[C].Readers = 0;
    Mem[C].Writers = 0;
    Mem[C].LastTid = 0;
    Mem[C].LastExpr = nullptr;
    schedNote(SchedNote::ImplicitWrite, T, C);
  }
}

void Machine::freeObject(ThreadCtx &T, Addr A, const Expr *At) {
  if (A == 0)
    return;
  Object *O = objectAt(A);
  if (!O || O->Freed) {
    report(Violation::Kind::RuntimeError, T, A, At, nullptr,
           "free of invalid or already-freed pointer");
    return;
  }
  // "When heap memory is deallocated with free(), it is no longer
  // considered to be accessed by any thread."
  for (Addr C = O->Start; C != O->Start + O->Size; ++C) {
    if (Mem[C].IsPtr)
      emit(TraceEvent::Kind::PtrStore, T, C, 0);
    Mem[C] = Cell{};
    schedNote(SchedNote::ImplicitWrite, T, C);
  }
  O->Freed = true;
}

uint64_t Machine::countPtrCells(int64_t Value) const {
  uint64_t Count = 0;
  for (const Cell &C : Mem)
    if (C.IsPtr && C.V == Value)
      ++Count;
  return Count;
}

bool Machine::inBounds(ThreadCtx &T, Addr A, const Expr *Node) {
  if (A != 0 && A < Mem.size())
    return true;
  report(Violation::Kind::RuntimeError, T, A, Node, nullptr,
         "out-of-bounds access");
  T.State = ThreadCtx::St::Failed;
  return false;
}

//===----------------------------------------------------------------------===//
// Checks and reports
//===----------------------------------------------------------------------===//

void Machine::report(Violation::Kind K, ThreadCtx &T, Addr A,
                     const Expr *Node, const Cell *Last,
                     std::string Detail) {
  Violation V;
  V.K = K;
  V.Address = A;
  V.WhoTid = T.Tid;
  if (Node) {
    V.WhoLValue = Node->spelling();
    V.WhoLine = Node->Loc.Line;
  }
  if (Last && Last->LastTid) {
    V.LastTid = Last->LastTid;
    if (Last->LastExpr)
      V.LastLValue = Last->LastExpr->spelling();
    V.LastLine = Last->LastLine;
  }
  V.Detail = std::move(Detail);

  // Every violation is counted and published to the obs stream; dedup
  // and the per-kind cap only govern what Violations retains. With the
  // default config (no cap) retention is unconditional, preserving the
  // interpreter's historical behaviour byte for byte.
  ++Result.TotalViolations;
  bool Retain = true;
  if (Options.Guard.MaxReportsPerKind != 0) {
    unsigned Idx = static_cast<unsigned>(K) % NumViolationKinds;
    if (!SeenViolations
             .insert(std::make_tuple(static_cast<uint8_t>(K), A, V.WhoLine))
             .second)
      Retain = false;
    else if (RetainedPerKind[Idx] >= Options.Guard.MaxReportsPerKind)
      Retain = false;
    else
      ++RetainedPerKind[Idx];
  }
  if (Retain)
    Result.Violations.push_back(V);
  emitConflict(V, &T);

  switch (Options.Guard.OnViolation) {
  case guard::Policy::Abort:
    // Halt the whole run at the first violation (the paper's fail-fast
    // semantics, mirrored from the native runtime's abort policy). The
    // scheduler loop notices PolicyHalt before the next step.
    PolicyHalt = true;
    T.State = ThreadCtx::St::Failed;
    return;
  case guard::Policy::Continue:
    break;
  case guard::Policy::Quarantine:
    // Demote the offending location so this one bad site cannot re-fire
    // forever: reader/writer history is discarded and the cell joins the
    // quarantine set the checks consult.
    switch (K) {
    case Violation::Kind::ReadConflict:
    case Violation::Kind::WriteConflict:
      Mem[A].Readers = 0;
      Mem[A].Writers = 0;
      Mem[A].LastTid = 0;
      Mem[A].LastExpr = nullptr;
      QuarCells.insert(A);
      break;
    case Violation::Kind::LockViolation:
      QuarCells.insert(A);
      break;
    case Violation::Kind::CastError:
      clearObjectSets(T, A);
      break;
    case Violation::Kind::RuntimeError:
      break;
    }
    break;
  }
  if (Options.FailStop)
    T.State = ThreadCtx::St::Failed;
}

void Machine::chkRead(ThreadCtx &T, Addr A, const Expr *Node) {
  ++Result.Stats.DynamicChecks;
  Cell &C = Mem[A];
  uint64_t Bit = uint64_t(1) << T.Tid;
  if ((C.Writers & ~Bit) != 0 && !isCellQuarantined(A))
    report(Violation::Kind::ReadConflict, T, A, Node, &C);
  if ((C.Readers & Bit) == 0 && (C.Writers & Bit) == 0)
    T.AccessLog.push_back(A);
  C.Readers |= Bit;
  C.LastTid = static_cast<uint16_t>(T.Tid);
  C.LastExpr = Node;
  C.LastLine = Node ? Node->Loc.Line : 0;
}

void Machine::chkWrite(ThreadCtx &T, Addr A, const Expr *Node) {
  ++Result.Stats.DynamicChecks;
  Cell &C = Mem[A];
  uint64_t Bit = uint64_t(1) << T.Tid;
  if (((C.Readers | C.Writers) & ~Bit) != 0 && !isCellQuarantined(A))
    report(Violation::Kind::WriteConflict, T, A, Node, &C);
  if ((C.Readers & Bit) == 0 && (C.Writers & Bit) == 0)
    T.AccessLog.push_back(A);
  C.Writers |= Bit;
  C.LastTid = static_cast<uint16_t>(T.Tid);
  C.LastExpr = Node;
  C.LastLine = Node ? Node->Loc.Line : 0;
}

void Machine::chkLock(ThreadCtx &T, Frame &F, const AccessCheck &Check,
                      Addr A, const Expr *Node) {
  ++Result.Stats.LockChecks;
  profRecord(obs::CheckKind::LockCheck, T, Node, 0);
  // Resolve the lock value. A field lock (locked(mut)) is read from the
  // access's instance; other lock expressions evaluate directly.
  int64_t LockValue = 0;
  if (Check.LockBase) {
    auto *Name = cast<NameExpr>(Check.LockExpr);
    const VarDecl *LockField = Name->Var;
    int64_t Instance = 0;
    if (Check.LockBase->ExprType && Check.LockBase->ExprType->isPointer())
      Instance = evalExpr(T, F, Check.LockBase);
    else
      Instance = static_cast<int64_t>(evalLValue(T, F, Check.LockBase));
    if (Instance == 0) {
      report(Violation::Kind::RuntimeError, T, A, Node, nullptr,
             "null instance while resolving lock");
      return;
    }
    Addr LockCell = static_cast<Addr>(Instance) +
                    fieldOffset(LockField->Parent, LockField);
    if (!inBounds(T, LockCell, Node))
      return;
    LockValue = Mem[LockCell].V;
  } else {
    LockValue = evalExpr(T, F, Check.LockExpr);
  }
  Addr Lock = static_cast<Addr>(LockValue);
  for (Addr Held : T.HeldLocks)
    if (Held == Lock)
      return;
  if (Check.K == AccessCheck::Kind::LockShared)
    for (Addr Held : T.HeldSharedLocks)
      if (Held == Lock)
        return;
  if (isCellQuarantined(A))
    return;
  report(Violation::Kind::LockViolation, T, A, Node, nullptr,
         Check.K == AccessCheck::Kind::LockShared
             ? "required lock is not held (shared or exclusive)"
             : "required lock is not held");
}

void Machine::runChecks(ThreadCtx &T, Frame &F, const Expr *Node, Addr A) {
  const auto *Checks = Instr.checksFor(Node);
  if (!Checks)
    return;
  for (const AccessCheck &Check : *Checks) {
    switch (Check.K) {
    case AccessCheck::Kind::Read:
      chkRead(T, A, Node);
      break;
    case AccessCheck::Kind::Write:
      chkWrite(T, A, Node);
      break;
    case AccessCheck::Kind::Lock:
    case AccessCheck::Kind::LockShared:
      chkLock(T, F, Check, A, Node);
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Cells
//===----------------------------------------------------------------------===//

int64_t Machine::readCell(ThreadCtx &T, Addr A, const Expr *Node) {
  ++Result.Stats.TotalAccesses;
  ++Result.Stats.Reads;
  profRecord(obs::CheckKind::DynamicRead, T, Node, 8);
  emit(TraceEvent::Kind::Read, T, A);
  return Mem[A].V;
}

void Machine::storeCell(ThreadCtx &T, Addr A, int64_t V, bool IsPtr,
                        const Expr *Node) {
  ++Result.Stats.TotalAccesses;
  ++Result.Stats.Writes;
  profRecord(obs::CheckKind::DynamicWrite, T, Node, 8);
  emit(TraceEvent::Kind::Write, T, A);
  if (tracing() && (IsPtr || Mem[A].IsPtr))
    emit(TraceEvent::Kind::PtrStore, T, A, IsPtr ? V : 0);
  Mem[A].V = V;
  Mem[A].IsPtr = IsPtr;
}

void Machine::setCellRaw(ThreadCtx &T, Addr A, int64_t V, bool IsPtr) {
  if (tracing() && (IsPtr || Mem[A].IsPtr))
    emit(TraceEvent::Kind::PtrStore, T, A, IsPtr ? V : 0);
  Mem[A].V = V;
  Mem[A].IsPtr = IsPtr;
  schedNote(SchedNote::ImplicitWrite, T, A);
}

Addr Machine::addrOfVar(ThreadCtx &T, Frame &F, const VarDecl *Var) {
  if (Var->Storage == StorageKind::Global) {
    auto It = Globals.find(Var);
    assert(It != Globals.end() && "unallocated global");
    return It->second;
  }
  return localAddr(T, F, Var);
}

Addr Machine::localAddr(ThreadCtx &T, Frame &F, const VarDecl *Var) {
  for (const auto &[Local, A] : F.Locals)
    if (Local == Var)
      return A;
  Addr A = allocFor(T, nullptr, sizeInCells(Var->DeclType));
  if (A != 0)
    F.Locals.emplace_back(Var, A);
  return A;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Addr Machine::evalLValue(ThreadCtx &T, Frame &F, const Expr *E) {
  switch (E->Kind) {
  case ExprKind::Name: {
    auto *Name = cast<NameExpr>(E);
    assert(Name->Var && "l-value name must be a variable");
    return addrOfVar(T, F, Name->Var);
  }
  case ExprKind::Unary: {
    auto *Unary = cast<UnaryExpr>(E);
    assert(Unary->Op == UnaryOp::Deref && "not an l-value unary");
    int64_t P = evalExpr(T, F, Unary->Sub);
    if (P == 0) {
      report(Violation::Kind::RuntimeError, T, 0, E, nullptr,
             "null pointer dereference");
      T.State = ThreadCtx::St::Failed;
      return 0;
    }
    return inBounds(T, static_cast<Addr>(P), E) ? static_cast<Addr>(P) : 0;
  }
  case ExprKind::Member: {
    auto *Member = cast<MemberExpr>(E);
    int64_t Base;
    if (Member->IsArrow) {
      Base = evalExpr(T, F, Member->Base);
      if (Base == 0) {
        report(Violation::Kind::RuntimeError, T, 0, E, nullptr,
               "null pointer dereference");
        T.State = ThreadCtx::St::Failed;
        return 0;
      }
    } else {
      Base = static_cast<int64_t>(evalLValue(T, F, Member->Base));
    }
    Addr A = static_cast<Addr>(Base) +
             fieldOffset(Member->Field->Parent, Member->Field);
    if (T.State == ThreadCtx::St::Failed)
      return A;
    return inBounds(T, A, E) ? A : 0;
  }
  case ExprKind::Index: {
    auto *Index = cast<IndexExpr>(E);
    const TypeNode *BaseType = Index->Base->ExprType;
    int64_t Base;
    if (BaseType && BaseType->isArray())
      Base = static_cast<int64_t>(evalLValue(T, F, Index->Base));
    else
      Base = evalExpr(T, F, Index->Base);
    int64_t Idx = evalExpr(T, F, Index->Idx);
    if (Base == 0) {
      report(Violation::Kind::RuntimeError, T, 0, E, nullptr,
             "null pointer subscript");
      T.State = ThreadCtx::St::Failed;
      return 0;
    }
    uint64_t ElemSize =
        BaseType && BaseType->Pointee ? sizeInCells(BaseType->Pointee) : 1;
    // Unsigned, so a wild index wraps instead of overflowing.
    Addr A = static_cast<Addr>(Base) +
             static_cast<Addr>(Idx) * static_cast<Addr>(ElemSize);
    if (T.State == ThreadCtx::St::Failed)
      return A;
    return inBounds(T, A, E) ? A : 0;
  }
  default:
    report(Violation::Kind::RuntimeError, T, 0, E, nullptr,
           "expression is not an l-value");
    T.State = ThreadCtx::St::Failed;
    return 0;
  }
}

int64_t Machine::evalExpr(ThreadCtx &T, Frame &F, const Expr *E) {
  if (T.State == ThreadCtx::St::Failed)
    return 0;
  switch (E->Kind) {
  case ExprKind::IntLit:
    return cast<IntLitExpr>(E)->Value;
  case ExprKind::BoolLit:
    return cast<BoolLitExpr>(E)->Value ? 1 : 0;
  case ExprKind::NullLit:
    return 0;
  case ExprKind::StrLit: {
    auto It = StringCache.find(E);
    if (It != StringCache.end())
      return static_cast<int64_t>(It->second);
    const std::string &S = cast<StrLitExpr>(E)->Value;
    Addr A = allocFor(T, E, S.size() + 1);
    if (A == 0)
      return 0;
    for (size_t I = 0; I != S.size(); ++I)
      Mem[A + I].V = static_cast<unsigned char>(S[I]);
    StringCache[E] = A;
    return static_cast<int64_t>(A);
  }
  case ExprKind::Name: {
    auto *Name = cast<NameExpr>(E);
    if (Name->Func) {
      auto It = FuncIds.find(Name->Func);
      if (It == FuncIds.end()) {
        int64_t Id = FuncIdBase + static_cast<int64_t>(FuncIds.size()) + 1;
        FuncIds[Name->Func] = Id;
        FuncById[Id] = Name->Func;
        return Id;
      }
      return It->second;
    }
    Addr A = addrOfVar(T, F, Name->Var);
    if (A == 0)
      return 0;
    runChecks(T, F, E, A);
    return readCell(T, A, E);
  }
  case ExprKind::Unary: {
    auto *Unary = cast<UnaryExpr>(E);
    switch (Unary->Op) {
    case UnaryOp::Deref: {
      Addr A = evalLValue(T, F, E);
      if (T.State == ThreadCtx::St::Failed)
        return 0;
      runChecks(T, F, E, A);
      return readCell(T, A, E);
    }
    case UnaryOp::AddrOf:
      return static_cast<int64_t>(evalLValue(T, F, Unary->Sub));
    case UnaryOp::Not:
      return evalExpr(T, F, Unary->Sub) == 0 ? 1 : 0;
    case UnaryOp::Neg:
      return -evalExpr(T, F, Unary->Sub);
    }
    return 0;
  }
  case ExprKind::Binary: {
    auto *Binary = cast<BinaryExpr>(E);
    if (Binary->Op == BinaryOp::And)
      return evalExpr(T, F, Binary->Lhs) != 0 &&
             evalExpr(T, F, Binary->Rhs) != 0;
    if (Binary->Op == BinaryOp::Or)
      return evalExpr(T, F, Binary->Lhs) != 0 ||
             evalExpr(T, F, Binary->Rhs) != 0;
    int64_t L = evalExpr(T, F, Binary->Lhs);
    int64_t R = evalExpr(T, F, Binary->Rhs);
    switch (Binary->Op) {
    case BinaryOp::Add:
    case BinaryOp::Sub: {
      // Scale pointer arithmetic by the element size in cells.
      const TypeNode *LT = Binary->Lhs->ExprType;
      if (LT && LT->isPointer() && LT->Pointee) {
        int64_t Scale = static_cast<int64_t>(sizeInCells(LT->Pointee));
        R *= Scale;
      }
      return Binary->Op == BinaryOp::Add ? L + R : L - R;
    }
    case BinaryOp::Mul:
      return L * R;
    case BinaryOp::Div:
      if (R == 0) {
        report(Violation::Kind::RuntimeError, T, 0, E, nullptr,
               "division by zero");
        T.State = ThreadCtx::St::Failed;
        return 0;
      }
      return L / R;
    case BinaryOp::Rem:
      if (R == 0) {
        report(Violation::Kind::RuntimeError, T, 0, E, nullptr,
               "remainder by zero");
        T.State = ThreadCtx::St::Failed;
        return 0;
      }
      return L % R;
    case BinaryOp::Eq:
      return L == R;
    case BinaryOp::Ne:
      return L != R;
    case BinaryOp::Lt:
      return L < R;
    case BinaryOp::Le:
      return L <= R;
    case BinaryOp::Gt:
      return L > R;
    case BinaryOp::Ge:
      return L >= R;
    default:
      return 0;
    }
  }
  case ExprKind::Assign: {
    auto *Assign = cast<AssignExpr>(E);
    if (isa<CallExpr>(Assign->Rhs)) {
      report(Violation::Kind::RuntimeError, T, 0, E, nullptr,
             "call results may only be assigned at statement level");
      T.State = ThreadCtx::St::Failed;
      return 0;
    }
    int64_t V = evalExpr(T, F, Assign->Rhs);
    if (T.State == ThreadCtx::St::Failed)
      return 0;
    Addr A = evalLValue(T, F, Assign->Lhs);
    if (T.State == ThreadCtx::St::Failed)
      return 0;
    runChecks(T, F, Assign->Lhs, A);
    storeCell(T, A, V, exprIsPointer(Assign->Rhs), Assign->Lhs);
    return V;
  }
  case ExprKind::Member:
  case ExprKind::Index: {
    Addr A = evalLValue(T, F, E);
    if (T.State == ThreadCtx::St::Failed)
      return 0;
    runChecks(T, F, E, A);
    return readCell(T, A, E);
  }
  case ExprKind::Scast: {
    auto *Scast = cast<ScastExpr>(E);
    ++Result.Stats.SharingCasts;
    profRecord(obs::CheckKind::SharingCast, T, Scast->Src, 0);
    Addr SrcAddr = evalLValue(T, F, Scast->Src);
    if (T.State == ThreadCtx::St::Failed)
      return 0;
    runChecks(T, F, Scast->Src, SrcAddr);
    int64_t Obj = readCell(T, SrcAddr, Scast->Src);
    if (Obj != 0) {
      // oneref (Figure 6): the cast reference must be the only one.
      uint64_t Refs = countPtrCells(Obj);
      emit(TraceEvent::Kind::CastQuery, T, static_cast<uint64_t>(Obj),
           static_cast<int64_t>(Refs));
      if (Refs > 1) {
        report(Violation::Kind::CastError, T, static_cast<Addr>(Obj),
               Scast->Src, nullptr,
               "object has " + std::to_string(Refs) +
                   " references; a sharing cast requires exactly one");
      }
    }
    // Null the source so no alias under the old mode survives, and clear
    // the object's reader/writer history.
    storeCell(T, SrcAddr, 0, /*IsPtr=*/true, Scast->Src);
    if (Obj != 0)
      clearObjectSets(T, static_cast<Addr>(Obj));
    return Obj;
  }
  case ExprKind::New: {
    auto *New = cast<NewExpr>(E);
    int64_t Count = 1;
    if (New->Count)
      Count = evalExpr(T, F, New->Count);
    if (Count < 1)
      Count = 1;
    uint64_t Cells =
        mulCells(static_cast<uint64_t>(Count), sizeInCells(New->ElemType));
    return static_cast<int64_t>(allocFor(T, E, Cells));
  }
  case ExprKind::Sizeof:
    return static_cast<int64_t>(
        sizeInCells(cast<SizeofExpr>(E)->OfType));
  case ExprKind::Call:
    report(Violation::Kind::RuntimeError, T, 0, E, nullptr,
           "calls may only appear as statements, assignments, or "
           "initializers");
    T.State = ThreadCtx::St::Failed;
    return 0;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Lock profiling
//===----------------------------------------------------------------------===//

void Machine::profLockBlocked(ThreadCtx &T, Addr Lock, uint32_t Line) {
  if (!Profiling)
    return;
  // First block of this acquisition starts the wait clock; re-blocks
  // after losing a wakeup race extend the same wait.
  if (T.BlockStartStep == 0)
    T.BlockStartStep = Result.Stats.Steps;
  // LockWait is an obs-only event kind (never in the Trace vector).
  obs::Event Ev;
  Ev.K = obs::EventKind::LockWait;
  Ev.Tid = T.TraceTid;
  Ev.Addr = Lock;
  Ev.Extra = Line;
  Options.Sink->event(Ev);
}

void Machine::profLockAcquired(ThreadCtx &T, Addr Lock, uint32_t Line) {
  if (!Profiling)
    return;
  uint64_t Wait = 0;
  bool Contended = false;
  if (T.BlockStartStep != 0) {
    Wait = Result.Stats.Steps - T.BlockStartStep;
    Contended = true;
    T.BlockStartStep = 0;
  }
  LockAgg &L = ProfLocks[std::make_tuple(T.TraceTid, Lock, Line)];
  ++L.Acquires;
  if (Contended)
    ++L.Contended;
  L.WaitSteps += Wait;
  ++L.WaitHist[obs::histBucket(Wait)];
  T.ProfHolds.push_back(ThreadCtx::ProfHold{Lock, Result.Stats.Steps, Line});
}

void Machine::profLockReleased(ThreadCtx &T, Addr Lock) {
  if (!Profiling)
    return;
  for (auto It = T.ProfHolds.rbegin(); It != T.ProfHolds.rend(); ++It) {
    if (It->Lock != Lock)
      continue;
    uint64_t Held = Result.Stats.Steps - It->Step;
    LockAgg &L = ProfLocks[std::make_tuple(T.TraceTid, Lock, It->Line)];
    L.HoldSteps += Held;
    ++L.HoldHist[obs::histBucket(Held)];
    T.ProfHolds.erase(std::next(It).base());
    return;
  }
}

//===----------------------------------------------------------------------===//
// Calls, builtins, threads
//===----------------------------------------------------------------------===//

bool Machine::execBuiltin(ThreadCtx &T, const FuncDecl *F,
                          const std::vector<int64_t> &Args,
                          const CallExpr *Call) {
  const std::string &Name = F->Name;
  if (Name == "mutex_lock") {
    Addr Lock = static_cast<Addr>(Args[0]);
    unsigned &Owner = LockOwner[Lock];
    if (Owner == 0) {
      Owner = T.Tid;
      T.HeldLocks.push_back(Lock);
      emit(TraceEvent::Kind::LockAcquire, T, Lock);
      profLockAcquired(T, Lock, Call->Loc.Line);
      return true;
    }
    if (Owner == T.Tid) {
      report(Violation::Kind::RuntimeError, T, Lock, Call, nullptr,
             "recursive lock acquisition");
      T.State = ThreadCtx::St::Failed;
      return true;
    }
    T.State = ThreadCtx::St::BlockedLock;
    T.BlockLock = Lock;
    schedNote(SchedNote::BlockedLock, T, Lock);
    profLockBlocked(T, Lock, Call->Loc.Line);
    return false;
  }
  if (Name == "mutex_unlock") {
    Addr Lock = static_cast<Addr>(Args[0]);
    unsigned &Owner = LockOwner[Lock];
    if (Owner != T.Tid) {
      report(Violation::Kind::RuntimeError, T, Lock, Call, nullptr,
             "unlock of a mutex not held by this thread");
      T.State = ThreadCtx::St::Failed;
      return true;
    }
    Owner = 0;
    for (auto It = T.HeldLocks.begin(); It != T.HeldLocks.end(); ++It)
      if (*It == Lock) {
        T.HeldLocks.erase(It);
        break;
      }
    profLockReleased(T, Lock);
    emit(TraceEvent::Kind::LockRelease, T, Lock);
    wakeLockWaiters(Lock);
    return true;
  }
  if (Name == "cond_wait") {
    Addr Cond = static_cast<Addr>(Args[0]);
    Addr Lock = static_cast<Addr>(Args[1]);
    unsigned &Owner = LockOwner[Lock];
    if (Owner != T.Tid) {
      report(Violation::Kind::RuntimeError, T, Lock, Call, nullptr,
             "cond_wait without holding the mutex");
      T.State = ThreadCtx::St::Failed;
      return true;
    }
    Owner = 0;
    for (auto It = T.HeldLocks.begin(); It != T.HeldLocks.end(); ++It)
      if (*It == Lock) {
        T.HeldLocks.erase(It);
        break;
      }
    profLockReleased(T, Lock);
    emit(TraceEvent::Kind::LockRelease, T, Lock);
    wakeLockWaiters(Lock);
    T.State = ThreadCtx::St::WaitingCond;
    T.WaitCond = Cond;
    T.ReacquireLock = Lock;
    T.ReacquireLine = Call->Loc.Line;
    CondWaiters[Cond].push_back(T.Tid);
    schedNote(SchedNote::CondWait, T, Cond);
    return true; // consumed; the thread resumes after signal + reacquire
  }
  if (Name == "cond_signal" || Name == "cond_broadcast") {
    Addr Cond = static_cast<Addr>(Args[0]);
    auto &Waiters = CondWaiters[Cond];
    if (Waiters.empty())
      return true;
    schedNote(SchedNote::CondWake, T, Cond);
    if (Name == "cond_signal") {
      // Which waiter wakes is a genuine scheduling decision: route it
      // through the choice-point API so replay is bit-exact and the
      // explorer can branch on it. RandomSchedule answers 0, the
      // historical FIFO wake-up, so seeded runs are unchanged.
      std::vector<unsigned> OptionTids(Waiters.size());
      for (size_t I = 0; I != Waiters.size(); ++I) {
        OptionTids[I] = 0;
        for (const ThreadCtx *W : Live)
          if (W->Tid == Waiters[I] && W->State == ThreadCtx::St::WaitingCond)
            OptionTids[I] = W->TraceTid;
      }
      ChoicePoint CP{ChoiceKind::CondSignalPick, OptionTids.data(),
                     OptionTids.size()};
      size_t Idx = Sched->choose(CP);
      if (Idx >= OptionTids.size()) {
        // Abort (or out of range): stop before the next step; wake the
        // FIFO head so this step still terminates cleanly.
        SchedAbort = true;
        Idx = 0;
      }
      unsigned Tid = Waiters[Idx];
      for (ThreadCtx *W : Live)
        if (W->Tid == Tid && W->State == ThreadCtx::St::WaitingCond) {
          W->State = ThreadCtx::St::Runnable;
          W->WaitCond = 0;
          // W->ReacquireLock already holds the mutex to re-take.
        }
      Waiters.erase(Waiters.begin() + Idx);
      return true;
    }
    // Broadcast wakes everyone; no decision to make.
    for (unsigned Tid : Waiters)
      for (ThreadCtx *W : Live)
        if (W->Tid == Tid && W->State == ThreadCtx::St::WaitingCond) {
          W->State = ThreadCtx::St::Runnable;
          W->WaitCond = 0;
        }
    Waiters.clear();
    return true;
  }
  if (Name == "rwlock_rdlock") {
    Addr Lock = static_cast<Addr>(Args[0]);
    if (LockOwner[Lock] != 0) { // a writer holds it
      T.State = ThreadCtx::St::BlockedLock;
      T.BlockLock = Lock;
      schedNote(SchedNote::BlockedLock, T, Lock);
      profLockBlocked(T, Lock, Call->Loc.Line);
      return false;
    }
    ++ReaderCount[Lock];
    T.HeldSharedLocks.push_back(Lock);
    emit(TraceEvent::Kind::LockAcquire, T, Lock);
    profLockAcquired(T, Lock, Call->Loc.Line);
    return true;
  }
  if (Name == "rwlock_rdunlock") {
    Addr Lock = static_cast<Addr>(Args[0]);
    auto It = std::find(T.HeldSharedLocks.begin(), T.HeldSharedLocks.end(),
                        Lock);
    if (It == T.HeldSharedLocks.end()) {
      report(Violation::Kind::RuntimeError, T, Lock, Call, nullptr,
             "rwlock_rdunlock without a shared hold");
      T.State = ThreadCtx::St::Failed;
      return true;
    }
    T.HeldSharedLocks.erase(It);
    profLockReleased(T, Lock);
    emit(TraceEvent::Kind::LockRelease, T, Lock);
    if (--ReaderCount[Lock] == 0)
      wakeLockWaiters(Lock); // a writer may proceed
    return true;
  }
  if (Name == "rwlock_wrlock") {
    Addr Lock = static_cast<Addr>(Args[0]);
    if (LockOwner[Lock] != 0 || ReaderCount[Lock] != 0) {
      T.State = ThreadCtx::St::BlockedLock;
      T.BlockLock = Lock;
      schedNote(SchedNote::BlockedLock, T, Lock);
      profLockBlocked(T, Lock, Call->Loc.Line);
      return false;
    }
    LockOwner[Lock] = T.Tid;
    T.HeldLocks.push_back(Lock);
    emit(TraceEvent::Kind::LockAcquire, T, Lock);
    profLockAcquired(T, Lock, Call->Loc.Line);
    return true;
  }
  if (Name == "rwlock_wrunlock") {
    Addr Lock = static_cast<Addr>(Args[0]);
    if (LockOwner[Lock] != T.Tid) {
      report(Violation::Kind::RuntimeError, T, Lock, Call, nullptr,
             "rwlock_wrunlock without the exclusive hold");
      T.State = ThreadCtx::St::Failed;
      return true;
    }
    LockOwner[Lock] = 0;
    for (auto It = T.HeldLocks.begin(); It != T.HeldLocks.end(); ++It)
      if (*It == Lock) {
        T.HeldLocks.erase(It);
        break;
      }
    profLockReleased(T, Lock);
    emit(TraceEvent::Kind::LockRelease, T, Lock);
    wakeLockWaiters(Lock);
    return true;
  }
  if (Name == "print_int") {
    Result.Output += std::to_string(Args[0]);
    Result.Output += '\n';
    return true;
  }
  if (Name == "print_str") {
    Addr A = static_cast<Addr>(Args[0]);
    for (uint64_t I = 0; A + I < Mem.size() && Mem[A + I].V != 0 && I < 4096;
         ++I)
      Result.Output += static_cast<char>(Mem[A + I].V);
    Result.Output += '\n';
    return true;
  }
  report(Violation::Kind::RuntimeError, T, 0, Call, nullptr,
         "unknown builtin '" + Name + "'");
  T.State = ThreadCtx::St::Failed;
  return true;
}

bool Machine::execCall(ThreadCtx &T, Frame &F, const CallExpr *Call,
                       const Expr *DestLV, const VarDecl *DestVar) {
  const FuncDecl *Callee = nullptr;
  if (auto *Name = dyn_cast<NameExpr>(Call->Callee)) {
    Callee = Name->Func;
  }
  if (!Callee) {
    // Indirect call through a function pointer value.
    int64_t Id = evalExpr(T, F, Call->Callee);
    if (T.State == ThreadCtx::St::Failed)
      return true;
    auto It = FuncById.find(Id);
    if (It == FuncById.end()) {
      report(Violation::Kind::RuntimeError, T, static_cast<Addr>(Id), Call,
             nullptr, "call through invalid function pointer");
      T.State = ThreadCtx::St::Failed;
      return true;
    }
    Callee = It->second;
  }

  std::vector<int64_t> Args;
  Args.reserve(Call->Args.size());
  for (const Expr *Arg : Call->Args) {
    Args.push_back(evalExpr(T, F, Arg));
    if (T.State == ThreadCtx::St::Failed)
      return true;
  }

  if (Callee->IsBuiltin)
    return execBuiltin(T, Callee, Args, Call);

  Frame NewFrame;
  NewFrame.F = Callee;
  NewFrame.DestLV = DestLV;
  NewFrame.DestVar = DestVar;
  NewFrame.Control.push_back(Task{Task::K::Stmt, Callee->Body, 0});
  T.Frames.push_back(std::move(NewFrame));
  Frame &Pushed = T.Frames.back();
  for (size_t I = 0; I != Callee->Params.size() && I != Args.size(); ++I) {
    Addr A = localAddr(T, Pushed, Callee->Params[I]);
    if (A == 0)
      return true;
    setCellRaw(T, A, Args[I], Callee->Params[I]->DeclType->isPointer());
  }
  return true;
}

void Machine::returnFromFrame(ThreadCtx &T, int64_t Value, bool IsPtr) {
  Frame Old = std::move(T.Frames.back());
  T.Frames.pop_back();
  // Locals die with the frame (the semantics zeroes a thread's cells at
  // exit; frames do the same so oneref never counts dead slots).
  for (auto &[Var, A] : Old.Locals) {
    if (Object *O = objectAt(A)) {
      for (Addr C = O->Start; C != O->Start + O->Size; ++C) {
        if (Mem[C].IsPtr)
          emit(TraceEvent::Kind::PtrStore, T, C, 0);
        Mem[C] = Cell{};
        schedNote(SchedNote::ImplicitWrite, T, C);
      }
      O->Freed = true;
    }
  }
  if (T.Frames.empty()) {
    threadExit(T);
    return;
  }
  Frame &Caller = T.Frames.back();
  if (Old.DestVar) {
    Addr A = localAddr(T, Caller, Old.DestVar);
    if (A == 0)
      return;
    storeCell(T, A, Value, IsPtr, nullptr);
  } else if (Old.DestLV) {
    Addr A = evalLValue(T, Caller, Old.DestLV);
    if (T.State == ThreadCtx::St::Failed)
      return;
    runChecks(T, Caller, Old.DestLV, A);
    storeCell(T, A, Value, IsPtr, Old.DestLV);
  }
}

unsigned Machine::allocateTid() {
  if (!FreeTids.empty()) {
    unsigned Tid = FreeTids.back();
    FreeTids.pop_back();
    return Tid;
  }
  if (NextTid > MaxLiveThreads)
    return 0;
  return NextTid++;
}

ThreadCtx &Machine::spawnThread(const FuncDecl *F, int64_t Arg, bool HasArg) {
  ThreadCtx &T = Threads.emplace_back();
  Live.push_back(&T);
  T.Tid = allocateTid();
  T.TraceTid = NextTraceTid++;
  ++Result.Stats.ThreadsSpawned;
  if (T.Tid == 0) {
    Violation V;
    V.K = Violation::Kind::RuntimeError;
    V.Detail = "thread limit (" + std::to_string(MaxLiveThreads) +
               " concurrent) exceeded";
    Result.Violations.push_back(V);
    emitConflict(Result.Violations.back(), &T);
    T.State = ThreadCtx::St::Failed;
    return T;
  }
  Frame NewFrame;
  NewFrame.F = F;
  NewFrame.Control.push_back(Task{Task::K::Stmt, F->Body, 0});
  T.Frames.push_back(std::move(NewFrame));
  if (HasArg && !F->Params.empty()) {
    Addr A = localAddr(T, T.Frames.back(), F->Params[0]);
    if (A != 0)
      setCellRaw(T, A, Arg, F->Params[0]->DeclType->isPointer());
  }
  return T;
}

void Machine::threadExit(ThreadCtx &T) {
  // "When a thread ends, the bits recording its accesses are cleared."
  // The clears are invisible in the trace but decide verdicts ("no race
  // if executions do not overlap"), so the schedule hears about every
  // one: the explorer must treat an exit as conflicting with the cells
  // the thread touched, or it would prune the overlapping/
  // non-overlapping distinction away.
  uint64_t Bit = uint64_t(1) << T.Tid;
  for (Addr A : T.AccessLog) {
    if (A < Mem.size()) {
      Mem[A].Readers &= ~Bit;
      Mem[A].Writers &= ~Bit;
      schedNote(SchedNote::ImplicitWrite, T, A);
    }
  }
  T.AccessLog.clear();
  T.State = ThreadCtx::St::Done;
  emit(TraceEvent::Kind::ThreadExit, T, 0);
  FreeTids.push_back(T.Tid);
}

void Machine::wakeLockWaiters(Addr Lock) {
  for (ThreadCtx *T : Live)
    if (T->State == ThreadCtx::St::BlockedLock && T->BlockLock == Lock) {
      T->State = ThreadCtx::St::Runnable;
      T->BlockLock = 0;
    }
}

//===----------------------------------------------------------------------===//
// Statement dispatch
//===----------------------------------------------------------------------===//

void Machine::dispatchStmt(ThreadCtx &T, Frame &F, const Stmt *S) {
  switch (S->Kind) {
  case StmtKind::Block:
    F.Control.push_back(Task{Task::K::Block, S, 0});
    return;
  case StmtKind::If: {
    auto *If = cast<IfStmt>(S);
    int64_t Cond = evalExpr(T, F, If->Cond);
    if (T.State == ThreadCtx::St::Failed)
      return;
    if (Cond != 0)
      F.Control.push_back(Task{Task::K::Stmt, If->Then, 0});
    else if (If->Else)
      F.Control.push_back(Task{Task::K::Stmt, If->Else, 0});
    return;
  }
  case StmtKind::While:
    F.Control.push_back(Task{Task::K::Loop, S, 0});
    return;
  case StmtKind::For: {
    auto *For = cast<ForStmt>(S);
    F.Control.push_back(Task{Task::K::ForCond, S, 0});
    if (For->Init)
      F.Control.push_back(Task{Task::K::Stmt, For->Init, 0});
    return;
  }
  case StmtKind::Return: {
    auto *Ret = cast<ReturnStmt>(S);
    int64_t Value = 0;
    bool IsPtr = false;
    if (Ret->Value) {
      Value = evalExpr(T, F, Ret->Value);
      IsPtr = exprIsPointer(Ret->Value);
      if (T.State == ThreadCtx::St::Failed)
        return;
    }
    returnFromFrame(T, Value, IsPtr);
    return;
  }
  case StmtKind::Break: {
    while (!F.Control.empty()) {
      Task Top = F.Control.back();
      F.Control.pop_back();
      if (isLoopMarker(Top.Kind))
        return;
    }
    return;
  }
  case StmtKind::Continue: {
    // Unwind to the loop marker but keep it: a while re-tests its
    // condition; a for runs its step first.
    while (!F.Control.empty() && !isLoopMarker(F.Control.back().Kind))
      F.Control.pop_back();
    return;
  }
  case StmtKind::ExprStmt: {
    const Expr *E = cast<ExprStmt>(S)->E;
    if (auto *Call = dyn_cast<CallExpr>(E)) {
      if (!execCall(T, F, Call, nullptr, nullptr))
        F.Control.push_back(Task{Task::K::Stmt, S, 0}); // blocked: retry
      return;
    }
    if (auto *Assign = dyn_cast<AssignExpr>(E)) {
      if (auto *Call = dyn_cast<CallExpr>(Assign->Rhs)) {
        if (!execCall(T, F, Call, Assign->Lhs, nullptr))
          F.Control.push_back(Task{Task::K::Stmt, S, 0});
        return;
      }
    }
    evalExpr(T, F, E);
    return;
  }
  case StmtKind::DeclStmt: {
    auto *Decl = cast<DeclStmt>(S);
    Addr A = localAddr(T, F, Decl->Var);
    if (A == 0)
      return;
    if (!Decl->Init) {
      setCellRaw(T, A, 0, Decl->Var->DeclType->isPointer());
      return;
    }
    if (auto *Call = dyn_cast<CallExpr>(Decl->Init)) {
      if (!execCall(T, F, Call, nullptr, Decl->Var))
        F.Control.push_back(Task{Task::K::Stmt, S, 0});
      return;
    }
    int64_t V = evalExpr(T, F, Decl->Init);
    if (T.State == ThreadCtx::St::Failed)
      return;
    storeCell(T, A, V, Decl->Var->DeclType->isPointer(), nullptr);
    return;
  }
  case StmtKind::Spawn: {
    auto *Spawn = cast<SpawnStmt>(S);
    int64_t Arg = 0;
    bool HasArg = false;
    if (Spawn->Arg) {
      Arg = evalExpr(T, F, Spawn->Arg);
      HasArg = true;
      if (T.State == ThreadCtx::St::Failed)
        return;
    }
    if (Spawn->Callee) {
      // Model the spawn happens-before edge as a release of a fresh
      // token by the parent that the child acquires before its first
      // event (the detectors already understand lock edges).
      uint64_t Token = TraceTokenBase + ++NextSpawnToken;
      emit(TraceEvent::Kind::SpawnEdge, T, Token);
      ThreadCtx &Child = spawnThread(Spawn->Callee, Arg, HasArg);
      emit(TraceEvent::Kind::ThreadStart, Child, Token);
    }
    return;
  }
  case StmtKind::Free: {
    auto *Free = cast<FreeStmt>(S);
    int64_t P = evalExpr(T, F, Free->Ptr);
    if (T.State == ThreadCtx::St::Failed)
      return;
    freeObject(T, static_cast<Addr>(P), Free->Ptr);
    return;
  }
  }
}

void Machine::dispatchTask(ThreadCtx &T, Frame &F, Task Tk) {
  switch (Tk.Kind) {
  case Task::K::Stmt:
    dispatchStmt(T, F, Tk.S);
    return;
  case Task::K::Block: {
    auto *Block = cast<BlockStmt>(Tk.S);
    if (Tk.Index < Block->Body.size()) {
      F.Control.push_back(Task{Task::K::Block, Tk.S, Tk.Index + 1});
      F.Control.push_back(Task{Task::K::Stmt, Block->Body[Tk.Index], 0});
    }
    return;
  }
  case Task::K::Loop: {
    auto *While = cast<WhileStmt>(Tk.S);
    int64_t Cond = evalExpr(T, F, While->Cond);
    if (T.State == ThreadCtx::St::Failed)
      return;
    if (Cond != 0) {
      F.Control.push_back(Task{Task::K::Loop, Tk.S, 0});
      F.Control.push_back(Task{Task::K::Stmt, While->Body, 0});
    }
    return;
  }
  case Task::K::ForCond: {
    auto *For = cast<ForStmt>(Tk.S);
    int64_t Cond = 1;
    if (For->Cond) {
      Cond = evalExpr(T, F, For->Cond);
      if (T.State == ThreadCtx::St::Failed)
        return;
    }
    if (Cond != 0) {
      F.Control.push_back(Task{Task::K::ForStep, Tk.S, 0});
      F.Control.push_back(Task{Task::K::Stmt, For->Body, 0});
    }
    return;
  }
  case Task::K::ForStep: {
    auto *For = cast<ForStmt>(Tk.S);
    if (For->Step) {
      evalExpr(T, F, For->Step);
      if (T.State == ThreadCtx::St::Failed)
        return;
    }
    F.Control.push_back(Task{Task::K::ForCond, Tk.S, 0});
    return;
  }
  }
}

void Machine::step(ThreadCtx &T) {
  if (T.ReacquireLock != 0) {
    unsigned &Owner = LockOwner[T.ReacquireLock];
    if (Owner != 0 && Owner != T.Tid) {
      T.State = ThreadCtx::St::BlockedLock;
      T.BlockLock = T.ReacquireLock;
      schedNote(SchedNote::BlockedLock, T, T.ReacquireLock);
      profLockBlocked(T, T.ReacquireLock, T.ReacquireLine);
      return;
    }
    Owner = T.Tid;
    T.HeldLocks.push_back(T.ReacquireLock);
    emit(TraceEvent::Kind::LockAcquire, T, T.ReacquireLock);
    profLockAcquired(T, T.ReacquireLock, T.ReacquireLine);
    T.ReacquireLock = 0;
    T.ReacquireLine = 0;
    return;
  }
  if (T.Frames.empty()) {
    threadExit(T);
    return;
  }
  Frame &F = T.Frames.back();
  if (F.Control.empty()) {
    returnFromFrame(T, 0, false);
    return;
  }
  Task Tk = F.Control.back();
  F.Control.pop_back();
  dispatchTask(T, F, Tk);
}

//===----------------------------------------------------------------------===//
// Run loop
//===----------------------------------------------------------------------===//

InterpResult Machine::run() {
  InterpResult R = runImpl();
  // Profile records publish after every event of the run, mirroring the
  // compiled runtime where threads drain their tables at retirement.
  publishProfile();
  return R;
}

void Machine::publishProfile() {
  if (!Profiling)
    return;
  // Merge the AST-pointer-keyed aggregates under (tid, kind, line,
  // lvalue) so distinct nodes on one line coalesce and the record
  // stream is deterministic regardless of AST pointer values.
  std::map<std::tuple<unsigned, uint8_t, uint32_t, std::string>, SiteAgg>
      Merged;
  for (const auto &[Key, Agg] : ProfSites) {
    const Expr *Node = std::get<2>(Key);
    SiteAgg &M = Merged[std::make_tuple(
        std::get<0>(Key), std::get<1>(Key), Node ? Node->Loc.Line : 0,
        Node ? Node->spelling() : std::string())];
    M.Count += Agg.Count;
    M.Bytes += Agg.Bytes;
  }
  for (const auto &[Key, Agg] : Merged) {
    obs::SiteProfileRecord R;
    R.Tid = std::get<0>(Key);
    R.Kind = static_cast<obs::CheckKind>(std::get<1>(Key));
    R.Line = std::get<2>(Key);
    R.LValue = std::get<3>(Key);
    if (R.Line != 0 || !R.LValue.empty())
      R.File = Options.SourceName;
    R.Count = Agg.Count;
    R.Bytes = Agg.Bytes;
    Options.Sink->siteProfile(R);
  }
  for (const auto &[Key, Agg] : ProfLocks) {
    obs::LockProfileRecord R;
    R.Tid = std::get<0>(Key);
    R.Lock = std::get<1>(Key);
    R.Line = std::get<2>(Key);
    if (R.Line != 0)
      R.File = Options.SourceName;
    R.Acquires = Agg.Acquires;
    R.Contended = Agg.Contended;
    R.WaitCycles = Agg.WaitSteps;
    R.HoldCycles = Agg.HoldSteps;
    std::memcpy(R.WaitHist, Agg.WaitHist, sizeof(R.WaitHist));
    std::memcpy(R.HoldHist, Agg.HoldHist, sizeof(R.HoldHist));
    Options.Sink->lockProfile(R);
  }
  // One machine-wide overhead record: the interpreter does not sample
  // cycles (its clock is the scheduler step), so only the bookkeeping
  // volume is reported.
  obs::SelfOverheadRecord O;
  O.Tid = 0;
  O.Ops = ProfOps;
  O.TableBytes =
      ProfSites.size() * (sizeof(SiteAgg) + 48) + ProfLocks.size() * sizeof(LockAgg);
  Options.Sink->selfOverhead(O);
}

void Machine::publishLive() {
  live::LiveSnapshot S;
  // The same mapping the driver uses for the trace's final stats sample
  // (toStatsSnapshot), applied to the in-flight Result — so counters a
  // scraper watches converge on exactly the trace's final values.
  S.Stats = toStatsSnapshot(Result);
  S.TotalViolations = Result.TotalViolations;
  S.Policy = Options.Guard.OnViolation;
  S.WatchdogMillis = Options.Guard.WatchdogMillis;
  if (Profiling) {
    // Wait/hold units are scheduler steps, the interpreter's only clock.
    for (const auto &Entry : ProfLocks) {
      const LockAgg &Agg = Entry.second;
      S.LockAcquires += Agg.Acquires;
      S.LockContended += Agg.Contended;
      S.LockWaitUnits += Agg.WaitSteps;
      S.LockHoldUnits += Agg.HoldSteps;
    }
  }
  // The run loop drops finished threads from Live just before it calls
  // this.
  S.ThreadsLive = Live.size();
  S.ThreadsSpawned = Result.Stats.ThreadsSpawned;
  S.Steps = Result.Stats.Steps;
  S.Running = true;
  Options.Live->update(S);
}

InterpResult Machine::runImpl() {
  if (Options.Trace)
    Options.Trace->clear();
  Mem.resize(1); // address 0 is the null cell, never used.

  for (VarDecl *G : Prog.Globals) {
    Addr A = alloc(sizeInCells(G->DeclType));
    if (A == 0) {
      machineError("global '" + G->Name +
                   "' is past the interpreter's limit of " +
                   std::to_string(MaxCells) + " cells");
      return std::move(Result);
    }
    Globals[G] = A;
  }

  const FuncDecl *Entry = Prog.findFunc(Options.EntryPoint);
  if (!Entry)
    Entry = Prog.findFunc("main");
  if (!Entry)
    Entry = Prog.findFunc("main_fn");
  if (!Entry || !Entry->Body) {
    machineError("no entry point '" + Options.EntryPoint + "'");
    return std::move(Result);
  }
  ThreadCtx &Main = spawnThread(Entry, 0, false);
  emit(TraceEvent::Kind::ThreadStart, Main, 0);

  std::vector<ThreadCtx *> Runnable;
  std::vector<unsigned> RunnableTids;
  while (Result.Stats.Steps < Options.MaxSteps) {
    Runnable.clear();
    RunnableTids.clear();
    // Done and Failed are final: drop those threads from Live for good.
    size_t Kept = 0;
    for (ThreadCtx *T : Live) {
      if (T->State == ThreadCtx::St::Done)
        continue;
      if (T->State == ThreadCtx::St::Failed) {
        AnyFailed = true;
        continue;
      }
      if (T->State == ThreadCtx::St::Runnable) {
        Runnable.push_back(T);
        RunnableTids.push_back(T->TraceTid);
      }
      Live[Kept++] = T;
    }
    Live.resize(Kept);
    if (Runnable.empty()) {
      if (Live.empty()) {
        Result.Completed = !AnyFailed;
      } else {
        Result.Deadlocked = true;
        // Structured stall report: name every blocked thread, what it
        // waits on, and (for locks) which thread holds it.
        std::string D = "deadlock: all live threads are blocked";
        for (const ThreadCtx *T : Live) {
          if (T->State == ThreadCtx::St::BlockedLock) {
            D += "; tid " + std::to_string(T->Tid) + " waits on lock " +
                 std::to_string(T->BlockLock);
            auto Holder = LockOwner.find(T->BlockLock);
            if (Holder != LockOwner.end())
              D += " held by tid " + std::to_string(Holder->second);
          } else if (T->State == ThreadCtx::St::WaitingCond) {
            D += "; tid " + std::to_string(T->Tid) + " waits on cond " +
                 std::to_string(T->WaitCond);
          }
        }
        machineError(std::move(D));
      }
      return std::move(Result);
    }
    ChoicePoint CP{ChoiceKind::ThreadPick, RunnableTids.data(),
                   RunnableTids.size()};
    size_t Idx = Sched->choose(CP);
    if (Idx >= Runnable.size()) {
      // Schedule::Abort (or an out-of-range answer, treated the same):
      // the run stops here and proves nothing about the program.
      Result.ScheduleAborted = true;
      return std::move(Result);
    }
    ThreadCtx &Pick = *Runnable[Idx];
    ++Result.Stats.Steps;
    if (Options.Live) [[unlikely]] {
      if (Options.LivePollSteps == 0 ||
          Result.Stats.Steps % Options.LivePollSteps == 0)
        publishLive();
    }
    if (Options.CrashAtStep != 0 &&
        Result.Stats.Steps >= Options.CrashAtStep) {
      // Fault injection (SHARC_FAULT=crash:N): die by SIGSEGV mid-run so
      // tests can pin that the crash hooks leave a readable trace.
      std::raise(SIGSEGV);
    }
    step(Pick);
    if (PolicyHalt) {
      Result.PolicyHalted = true;
      return std::move(Result);
    }
    if (SchedAbort) {
      Result.ScheduleAborted = true;
      return std::move(Result);
    }
  }
  Result.OutOfSteps = true;
  machineError("step budget exhausted (possible livelock)");
  return std::move(Result);
}

} // namespace

rt::StatsSnapshot interp::toStatsSnapshot(const InterpResult &R) {
  constexpr uint64_t CellBytes = 8;
  rt::StatsSnapshot S;
  S.DynamicReads = R.Stats.Reads;
  S.DynamicWrites = R.Stats.Writes;
  S.DynamicReadBytes = R.Stats.Reads * CellBytes;
  S.DynamicWriteBytes = R.Stats.Writes * CellBytes;
  S.LockChecks = R.Stats.LockChecks;
  S.SharingCasts = R.Stats.SharingCasts;
  S.ReadConflicts = R.count(Violation::Kind::ReadConflict);
  S.WriteConflicts = R.count(Violation::Kind::WriteConflict);
  S.LockViolations = R.count(Violation::Kind::LockViolation);
  S.CastErrors = R.count(Violation::Kind::CastError);
  return S;
}

InterpResult Interp::run(const InterpOptions &Options) {
  Machine M(Prog, Instr, Options);
  return M.run();
}
