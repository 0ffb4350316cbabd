//===-- analysis/SharingAnalysis.cpp --------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/SharingAnalysis.h"

#include <algorithm>

using namespace sharc;
using namespace sharc::analysis;
using namespace sharc::minic;

SharingAnalysis::SharingAnalysis(Program &Prog, DiagnosticEngine &Diags)
    : Prog(Prog), Diags(Diags), CG(Prog) {}

bool SharingAnalysis::run() {
  unsigned ErrorsBefore = Diags.getNumErrors();
  applyDefaultingRules();
  seedFromThreads();
  computeStoreInvolvedFormals();
  generateConstraints();
  propagate();
  resolveAll();
  return Diags.getNumErrors() == ErrorsBefore;
}

//===----------------------------------------------------------------------===//
// Step 1: defaulting rules
//===----------------------------------------------------------------------===//

void SharingAnalysis::enforceLockVarsReadonly() {
  Prog.Context.forEachType([&](TypeNode *T) {
    if (T->Q.M != Mode::Locked && T->Q.M != Mode::RwLocked)
      return;
    VarDecl *Root = nullptr;
    if (auto *Name = dyn_cast<NameExpr>(T->Q.LockExpr))
      Root = Name->Var;
    else if (auto *Member = dyn_cast<MemberExpr>(T->Q.LockExpr))
      Root = Member->Field;
    if (!Root)
      return;
    TypeNode *RootType = Root->DeclType;
    if (RootType->Q.M == Mode::Unspec) {
      // "A field or variable used in a locked qualifier must be readonly,
      // to preserve soundness."
      RootType->Q.M = Mode::ReadOnly;
    } else if (RootType->Q.M != Mode::ReadOnly) {
      Diags.error(T->Loc, "lock '" + T->Q.LockExpr->spelling() +
                              "' used in locked(...) must be readonly, but "
                              "is annotated '" +
                              modeName(RootType->Q.M) + "'");
    }
  });
}

void SharingAnalysis::defaultFieldType(TypeNode *T, bool Outermost) {
  if (!T)
    return;
  if (Outermost) {
    if (T->Q.M == Mode::Private && T->Q.Explicit)
      Diags.error(T->Loc,
                  "the outermost annotation of a structure field cannot be "
                  "private (use a private instance instead)");
    if (T->Q.M == Mode::Unspec)
      T->Q.M = Mode::Poly; // inherit the instance's qualifier
  }
  switch (T->Kind) {
  case TypeKind::Pointer:
    // "Inside of a structure definition, unannotated pointer target types
    // are given the dynamic mode."
    if (T->Pointee->Kind != TypeKind::Func) {
      if (T->Pointee->Q.M == Mode::Unspec)
        T->Pointee->Q.M = Mode::Dynamic;
      defaultFieldType(T->Pointee, /*Outermost=*/false);
    } else {
      // Function pointer: parameter/return positions follow the normal
      // (non-struct) rules and are resolved later.
    }
    return;
  case TypeKind::Array:
    // An array is one object of the element type: element inherits the
    // array cell's qualifier by the Eq edge added during constraints.
    defaultFieldType(T->Pointee, /*Outermost=*/false);
    return;
  default:
    return;
  }
}

void SharingAnalysis::applyDefaultingRules() {
  // (a) mutex/cond are inherently racy, everywhere.
  Prog.Context.forEachType([&](TypeNode *T) {
    if (T->isRacyByNature() && T->Q.M == Mode::Unspec)
      T->Q.M = Mode::Racy;
  });
  // (b) lock variables/fields must be readonly.
  enforceLockVarsReadonly();
  // (c) struct field rules.
  for (StructDecl *S : Prog.Structs)
    for (VarDecl *Field : S->Fields)
      defaultFieldType(Field->DeclType, /*Outermost=*/true);
  // (d) arrays are single objects: tie element to array cell.
  Prog.Context.forEachType([&](TypeNode *T) {
    if (T->isArray() && T->Pointee) {
      linkEq(T, T->Pointee);
    }
  });
}

//===----------------------------------------------------------------------===//
// Step 2: seeding
//===----------------------------------------------------------------------===//

void SharingAnalysis::seedDynamic(TypeNode *T, SourceLoc Loc,
                                  const char *Why) {
  if (!T)
    return;
  if (T->Q.M == Mode::Private && T->Q.Explicit) {
    Diags.error(Loc, std::string("object is inherently shared (") + Why +
                         ") but annotated private");
    return;
  }
  if (T->Q.M != Mode::Unspec)
    return; // Explicit locked/racy/readonly/dynamic annotations stand.
  if (DynFlagged.insert(T).second)
    Worklist.push_back(T);
}

void SharingAnalysis::collectTouchedGlobalsExpr(Expr *E,
                                                std::set<VarDecl *> &Touched) {
  if (auto *Name = dyn_cast<NameExpr>(E))
    if (Name->Var && Name->Var->Storage == StorageKind::Global)
      Touched.insert(Name->Var);
  forEachChild(E,
               [&](Expr *Child) { collectTouchedGlobalsExpr(Child, Touched); });
}

void SharingAnalysis::collectTouchedGlobals(Stmt *S,
                                            std::set<VarDecl *> &Touched) {
  forEachChild(
      S, [&](Stmt *Child) { collectTouchedGlobals(Child, Touched); },
      [&](Expr *E) { collectTouchedGlobalsExpr(E, Touched); });
}

void SharingAnalysis::seedFromThreads() {
  ThreadReachable = CG.threadReachable();

  // Formals of spawned functions point at inherently shared objects.
  for (FuncDecl *Root : CG.getSpawnRoots())
    for (VarDecl *Param : Root->Params)
      if (Param->DeclType->isPointer())
        seedDynamic(Param->DeclType->Pointee, Param->Loc,
                    "argument of a spawned thread function");

  // Globals touched by thread-reachable code are inherently shared.
  std::set<VarDecl *> Touched;
  for (FuncDecl *F : ThreadReachable)
    if (F->Body)
      collectTouchedGlobals(F->Body, Touched);
  for (VarDecl *G : Touched)
    seedDynamic(G->DeclType, G->Loc, "global touched by a thread");

  // Explicitly dynamic annotations also seed the propagation.
  Prog.Context.forEachType([&](TypeNode *T) {
    if (T->Q.M == Mode::Dynamic)
      if (DynFlagged.insert(T).second)
        Worklist.push_back(T);
  });
}

//===----------------------------------------------------------------------===//
// Step 3: constraints and propagation
//===----------------------------------------------------------------------===//

void SharingAnalysis::linkEq(TypeNode *A, TypeNode *B) {
  if (!A || !B || A == B)
    return;
  Out[A].push_back(B);
  Out[B].push_back(A);
}

void SharingAnalysis::linkDirected(TypeNode *From, TypeNode *To) {
  if (!From || !To || From == To)
    return;
  Out[From].push_back(To);
}

/// Links the sub-top-level qualifier positions of two same-shaped types
/// with Fn(a, b) at each level.
template <typename FnT>
static void forEachPointeePair(TypeNode *A, TypeNode *B, FnT Fn) {
  if (!A || !B)
    return;
  if ((A->isPointer() || A->isArray()) &&
      (B->isPointer() || B->isArray())) {
    if (A->Pointee->Kind == TypeKind::Func &&
        B->Pointee->Kind == TypeKind::Func) {
      TypeNode *FA = A->Pointee, *FB = B->Pointee;
      // Function pointer assignment: parameter and return positions must
      // agree (invariance).
      for (size_t I = 0;
           I != std::min(FA->Params.size(), FB->Params.size()); ++I) {
        Fn(FA->Params[I], FB->Params[I]);
        forEachPointeePair(FA->Params[I], FB->Params[I], Fn);
      }
      if (FA->Ret && FB->Ret) {
        Fn(FA->Ret, FB->Ret);
        forEachPointeePair(FA->Ret, FB->Ret, Fn);
      }
      return;
    }
    Fn(A->Pointee, B->Pointee);
    forEachPointeePair(A->Pointee, B->Pointee, Fn);
  }
}

void SharingAnalysis::linkAssignment(TypeNode *Lhs, TypeNode *Rhs,
                                     Expr *RhsExpr) {
  if (!Lhs || !Rhs)
    return;
  // null constrains nothing; a sharing cast breaks the flow on purpose
  // (the cast's own target type was already used as Rhs by the caller).
  if (RhsExpr && isa<NullLitExpr>(RhsExpr))
    return;
  // Function-name decay: link the declared function's parameter/return
  // positions with the function pointer's.
  if (Lhs->isPointer() && Lhs->Pointee &&
      Lhs->Pointee->Kind == TypeKind::Func && Rhs->isFunc()) {
    TypeNode *FA = Lhs->Pointee;
    for (size_t I = 0; I != std::min(FA->Params.size(), Rhs->Params.size());
         ++I) {
      linkEq(FA->Params[I], Rhs->Params[I]);
      forEachPointeePair(FA->Params[I], Rhs->Params[I],
                         [&](TypeNode *A, TypeNode *B) { linkEq(A, B); });
    }
    if (FA->Ret && Rhs->Ret) {
      linkEq(FA->Ret, Rhs->Ret);
      forEachPointeePair(FA->Ret, Rhs->Ret,
                         [&](TypeNode *A, TypeNode *B) { linkEq(A, B); });
    }
    return;
  }
  forEachPointeePair(Lhs, Rhs,
                     [&](TypeNode *A, TypeNode *B) { linkEq(A, B); });
}

void SharingAnalysis::markStoreInvolved(Expr *Lhs) {
  // Find the root of the l-value; if it is a formal, stores go through it.
  Expr *E = Lhs;
  bool Indirect = false;
  while (E) {
    if (auto *Unary = dyn_cast<UnaryExpr>(E)) {
      if (Unary->Op == UnaryOp::Deref) {
        Indirect = true;
        E = Unary->Sub;
        continue;
      }
      return;
    }
    if (auto *Member = dyn_cast<MemberExpr>(E)) {
      Indirect = true;
      E = Member->Base;
      continue;
    }
    if (auto *Index = dyn_cast<IndexExpr>(E)) {
      Indirect = true;
      E = Index->Base;
      continue;
    }
    break;
  }
  auto *Name = dyn_cast<NameExpr>(E);
  if (Name && Name->Var && Name->Var->Storage == StorageKind::Param &&
      Indirect)
    StoreInvolved.insert(Name->Var);
}

void SharingAnalysis::computeStoreInvolvedFormals() {
  // A formal is "store-involved" when the callee stores through it or
  // stores it into non-local memory; dynamic may then flow back to the
  // actual (the paper's internal dynamic-in refinement).
  struct Scanner {
    SharingAnalysis &SA;
    void stmt(Stmt *S) {
      forEachChild(
          S, [&](Stmt *Child) { stmt(Child); }, [&](Expr *E) { expr(E); });
    }
    void expr(Expr *E) {
      if (auto *Assign = dyn_cast<AssignExpr>(E)) {
        SA.markStoreInvolved(Assign->Lhs);
        // Storing a formal itself into non-local memory (a global or any
        // indirect store target) also makes it store-involved.
        if (auto *Name = dyn_cast<NameExpr>(Assign->Rhs))
          if (Name->Var && Name->Var->Storage == StorageKind::Param) {
            bool LhsNonLocal = true;
            if (auto *LhsName = dyn_cast<NameExpr>(Assign->Lhs))
              LhsNonLocal = LhsName->Var && LhsName->Var->Storage ==
                                                StorageKind::Global;
            if (LhsNonLocal)
              SA.StoreInvolved.insert(Name->Var);
          }
      }
      forEachChild(E, [&](Expr *Child) { expr(Child); });
    }
  };
  Scanner S{*this};
  for (FuncDecl *F : Prog.Funcs)
    if (F->Body)
      S.stmt(F->Body);
}

void SharingAnalysis::constrainExpr(FuncDecl *F, Expr *E) {
  forEachChild(E, [&](Expr *Child) { constrainExpr(F, Child); });
  if (auto *Assign = dyn_cast<AssignExpr>(E)) {
    linkAssignment(Assign->Lhs->ExprType, Assign->Rhs->ExprType,
                   Assign->Rhs);
    return;
  }
  auto *Call = dyn_cast<CallExpr>(E);
  if (!Call)
    return;
  // Builtin calls are covered by trusted read/write summaries
  // (Section 4.4); no qualifier flow.
  if (auto *Name = dyn_cast<NameExpr>(Call->Callee))
    if (Name->Func && Name->Func->IsBuiltin)
      return;
  // Bind arguments: dynamic flows from actual to formal; back-flow only
  // for store-involved formals.
  FuncDecl *Direct = nullptr;
  if (auto *Name = dyn_cast<NameExpr>(Call->Callee))
    Direct = Name->Func;
  const TypeNode *FnType = Call->Callee->ExprType;
  if (FnType && FnType->isPointer())
    FnType = FnType->Pointee;
  if (!FnType || !FnType->isFunc())
    return;
  for (size_t I = 0; I != std::min(FnType->Params.size(), Call->Args.size());
       ++I) {
    TypeNode *Formal = const_cast<TypeNode *>(FnType->Params[I]);
    TypeNode *Actual = Call->Args[I]->ExprType;
    if (isa<NullLitExpr>(Call->Args[I]))
      continue;
    bool BackFlow = Direct && I < Direct->Params.size() &&
                    StoreInvolved.count(Direct->Params[I]) != 0;
    // Indirect calls conservatively back-flow (any type-compatible
    // function may be the callee).
    if (!Direct)
      BackFlow = true;
    forEachPointeePair(Actual, Formal, [&](TypeNode *A, TypeNode *B) {
      linkDirected(A, B);
      if (BackFlow)
        linkDirected(B, A);
    });
    // For direct calls also bind the *declared* parameter type (the
    // FuncType params share nodes with the declaration, but keep this
    // robust if they diverge).
    if (Direct && I < Direct->Params.size() &&
        Direct->Params[I]->DeclType != Formal) {
      forEachPointeePair(Actual, Direct->Params[I]->DeclType,
                         [&](TypeNode *A, TypeNode *B) {
                           linkDirected(A, B);
                           if (BackFlow)
                             linkDirected(B, A);
                         });
    }
  }
}

void SharingAnalysis::constrainStmt(FuncDecl *F, Stmt *S) {
  forEachChild(
      S, [&](Stmt *Child) { constrainStmt(F, Child); },
      [&](Expr *E) { constrainExpr(F, E); });
  if (auto *Ret = dyn_cast<ReturnStmt>(S)) {
    if (Ret->Value)
      linkAssignment(F->RetType, Ret->Value->ExprType, Ret->Value);
  } else if (auto *Decl = dyn_cast<DeclStmt>(S)) {
    if (Decl->Init)
      linkAssignment(Decl->Var->DeclType, Decl->Init->ExprType, Decl->Init);
  } else if (auto *Spawn = dyn_cast<SpawnStmt>(S)) {
    if (Spawn->Arg && Spawn->Callee && !Spawn->Callee->Params.empty() &&
        !isa<NullLitExpr>(Spawn->Arg)) {
      // The spawned object is shared on both sides of the handoff.
      forEachPointeePair(Spawn->Arg->ExprType,
                         Spawn->Callee->Params[0]->DeclType,
                         [&](TypeNode *A, TypeNode *B) { linkEq(A, B); });
    }
  }
}

void SharingAnalysis::generateConstraints() {
  for (FuncDecl *F : Prog.Funcs)
    if (F->Body)
      constrainStmt(F, F->Body);
}

void SharingAnalysis::propagate() {
  while (!Worklist.empty()) {
    TypeNode *T = Worklist.back();
    Worklist.pop_back();
    auto It = Out.find(T);
    if (It == Out.end())
      continue;
    for (TypeNode *Succ : It->second) {
      if (DynFlagged.count(Succ))
        continue;
      // Dynamic flows only into unannotated positions; explicit
      // annotations stand (mismatches surface as checker errors).
      if (Succ->Q.M != Mode::Unspec && Succ->Q.M != Mode::Dynamic)
        continue;
      DynFlagged.insert(Succ);
      Worklist.push_back(Succ);
    }
  }
}

//===----------------------------------------------------------------------===//
// Step 4: resolution
//===----------------------------------------------------------------------===//

void SharingAnalysis::resolveTree(TypeNode *T, bool InStructField) {
  if (!T)
    return;
  if (T->Q.M == Mode::Unspec)
    T->Q.M = DynFlagged.count(T) ? Mode::Dynamic : Mode::Private;

  if (T->isPointer() || T->isArray()) {
    TypeNode *Elem = T->Pointee;
    if (Elem->Kind == TypeKind::Func) {
      resolveTree(Elem, false);
      return;
    }
    if (Elem->Q.M == Mode::Unspec && !InStructField) {
      // "If the target type of a pointer is unannotated, then it is
      // assumed to be the type of the pointer."
      if (DynFlagged.count(Elem)) {
        Elem->Q.M = Mode::Dynamic;
      } else if (T->Q.M == Mode::Poly) {
        Elem->Q.M = Mode::Dynamic; // soundness: see Figure 2's `next`
      } else {
        Elem->Q.M = T->Q.M;
        Elem->Q.LockExpr = T->Q.LockExpr;
      }
    }
    resolveTree(Elem, InStructField);
    return;
  }
  if (T->isFunc()) {
    resolveTree(T->Ret, false);
    for (TypeNode *Param : T->Params)
      resolveTree(Param, false);
  }
}

void SharingAnalysis::resolveAll() {
  for (VarDecl *G : Prog.Globals)
    resolveTree(G->DeclType, false);
  for (StructDecl *S : Prog.Structs)
    for (VarDecl *Field : S->Fields)
      resolveTree(Field->DeclType, true);
  for (FuncDecl *F : Prog.Funcs) {
    if (F->RetType)
      resolveTree(F->RetType, false);
    for (VarDecl *Param : F->Params)
      resolveTree(Param->DeclType, false);
  }
  // Everything else (locals via their decl types, scast targets, new
  // types, synthesized nodes).
  Prog.Context.forEachType([&](TypeNode *T) { resolveTree(T, false); });
}
