//===-- checker/Checker.cpp -----------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"

using namespace sharc;
using namespace sharc::checker;
using namespace sharc::minic;

bool Checker::run() {
  unsigned ErrorsBefore = Diags.getNumErrors();
  // Well-formedness of all declared types (REF-CTOR rule).
  for (VarDecl *G : Prog.Globals)
    checkWellFormedType(G->DeclType, G->Loc);
  for (StructDecl *S : Prog.Structs)
    for (VarDecl *Field : S->Fields)
      checkWellFormedType(Field->DeclType, Field->Loc);
  for (FuncDecl *F : Prog.Funcs) {
    for (VarDecl *Param : F->Params)
      checkWellFormedType(Param->DeclType, Param->Loc);
    if (F->Body)
      checkFunc(F);
  }
  return Diags.getNumErrors() == ErrorsBefore;
}

void Checker::checkWellFormedType(const TypeNode *T, SourceLoc Loc) {
  if (!T)
    return;
  if (T->isPointer() && T->Pointee->Kind != TypeKind::Func) {
    // REF-CTOR: `m ref (m' s)` requires m = m' or m = private. In the full
    // system, any possibly-shared reference to private cells is rejected.
    if (T->Q.M != Mode::Private && T->Pointee->Q.M == Mode::Private)
      Diags.error(Loc.isValid() ? Loc : T->Loc,
                  "ill-formed type '" + typeToString(T) +
                      "': a non-private reference may not point to "
                      "private cells");
  }
  checkWellFormedType(T->Pointee, Loc);
  checkWellFormedType(T->Ret, Loc);
  for (const TypeNode *Param : T->Params)
    checkWellFormedType(Param, Loc);
}

//===----------------------------------------------------------------------===//
// Effective modes
//===----------------------------------------------------------------------===//

EffectiveMode Checker::effectiveMode(Expr *LValue) {
  EffectiveMode Result;
  auto FromType = [&](TypeNode *T, Expr *InstanceBase) {
    Result.M = T->Q.M;
    Result.LockExpr = T->Q.LockExpr;
    Result.LockBase = nullptr;
    if ((Result.M == Mode::Locked || Result.M == Mode::RwLocked) &&
        Result.LockExpr) {
      // A lock expression naming a struct field must be evaluated against
      // the instance the access goes through.
      if (auto *Name = dyn_cast<NameExpr>(Result.LockExpr))
        if (Name->Var && Name->Var->Storage == StorageKind::Field)
          Result.LockBase = InstanceBase;
    }
  };

  switch (LValue->Kind) {
  case ExprKind::Name: {
    auto *Name = cast<NameExpr>(LValue);
    if (Name->Var)
      FromType(Name->Var->DeclType, nullptr);
    return Result;
  }
  case ExprKind::Unary: {
    auto *Unary = cast<UnaryExpr>(LValue);
    if (Unary->Op == UnaryOp::Deref && Unary->Sub->ExprType &&
        Unary->Sub->ExprType->isPointer())
      FromType(Unary->Sub->ExprType->Pointee, nullptr);
    return Result;
  }
  case ExprKind::Member: {
    auto *Member = cast<MemberExpr>(LValue);
    if (!Member->Field)
      return Result;
    TypeNode *FieldType = Member->Field->DeclType;
    if (FieldType->Q.M == Mode::Poly) {
      // Struct qualifier polymorphism: the field takes its instance's
      // qualifier.
      if (Member->IsArrow) {
        TypeNode *BaseType = Member->Base->ExprType;
        if (BaseType && BaseType->isPointer())
          FromType(BaseType->Pointee, Member->Base);
      } else {
        Result = effectiveMode(Member->Base);
      }
      return Result;
    }
    FromType(FieldType, Member->Base);
    return Result;
  }
  case ExprKind::Index: {
    auto *Index = cast<IndexExpr>(LValue);
    TypeNode *BaseType = Index->Base->ExprType;
    if (BaseType && (BaseType->isPointer() || BaseType->isArray())) {
      if (BaseType->Pointee->Q.M == Mode::Poly) {
        Result = effectiveMode(Index->Base);
        return Result;
      }
      FromType(BaseType->Pointee, nullptr);
    }
    return Result;
  }
  default:
    return Result;
  }
}

void Checker::attachAccessCheck(Expr *LValue, bool IsWrite, SourceLoc Loc) {
  EffectiveMode EM = effectiveMode(LValue);
  switch (EM.M) {
  case Mode::Dynamic: {
    AccessCheck Check;
    Check.K = IsWrite ? AccessCheck::Kind::Write : AccessCheck::Kind::Read;
    Instr.add(LValue, Check);
    return;
  }
  case Mode::Locked:
  case Mode::RwLocked: {
    if (!EM.LockExpr) {
      Diags.error(Loc, "locked cell has no lock expression");
      return;
    }
    if (auto *Name = dyn_cast<NameExpr>(EM.LockExpr))
      if (Name->Var && Name->Var->Storage == StorageKind::Field &&
          !EM.LockBase) {
        Diags.error(Loc, "locked cell guarded by field '" + Name->Name +
                             "' accessed through a path with no instance");
        return;
      }
    checkLockExprConstant(EM.LockExpr, Loc);
    if (EM.LockBase)
      checkLockExprConstant(EM.LockBase, Loc);
    AccessCheck Check;
    // rwlocked reads accept a shared hold; rwlocked writes and all
    // locked-mode accesses require the exclusive hold.
    Check.K = (EM.M == Mode::RwLocked && !IsWrite)
                  ? AccessCheck::Kind::LockShared
                  : AccessCheck::Kind::Lock;
    Check.LockExpr = EM.LockExpr;
    Check.LockBase = EM.LockBase;
    Check.IsWrite = IsWrite;
    Instr.add(LValue, Check);
    return;
  }
  default:
    return;
  }
}

void Checker::checkLockExprConstant(Expr *Lock, SourceLoc Loc) {
  // "lock ... must be verifiably constant (uses only unmodified locals or
  // readonly values) for type-safety reasons".
  if (auto *Name = dyn_cast<NameExpr>(Lock)) {
    if (Name->Var && (Name->Var->Storage == StorageKind::Local ||
                      Name->Var->Storage == StorageKind::Param)) {
      if (isLocalModified(Name->Var))
        Diags.error(Loc, "lock expression '" + Name->Name +
                             "' uses a modified local; locks must be "
                             "verifiably constant");
    }
    return;
  }
  if (auto *Member = dyn_cast<MemberExpr>(Lock))
    return checkLockExprConstant(Member->Base, Loc);
}

bool Checker::isLocalModified(const VarDecl *Var) const {
  auto It = AssignCounts.find(Var);
  unsigned Count = It == AssignCounts.end() ? 0 : It->second;
  if (Var->Storage == StorageKind::Param)
    return Count >= 1; // params arrive initialized
  return Count >= 2; // one assignment is the local's initialization
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

namespace {

/// Counts assignments to locals and parameters, declaration initializers
/// included. A sharing cast nulls its source, but that does not disqualify
/// the local as a lock expression: a nulled local cannot reach a guarded
/// access afterwards (the live-after-cast check covers such uses).
void collectModifiedLocalsExpr(Expr *E,
                               std::map<const VarDecl *, unsigned> &Out) {
  if (auto *Assign = dyn_cast<AssignExpr>(E))
    if (auto *Name = dyn_cast<NameExpr>(Assign->Lhs))
      if (Name->Var && (Name->Var->Storage == StorageKind::Local ||
                        Name->Var->Storage == StorageKind::Param))
        ++Out[Name->Var];
  forEachChild(E,
               [&](Expr *Child) { collectModifiedLocalsExpr(Child, Out); });
}

void collectModifiedLocals(Stmt *S, std::map<const VarDecl *, unsigned> &Out) {
  if (auto *Decl = dyn_cast<DeclStmt>(S); Decl && Decl->Init)
    ++Out[Decl->Var]; // the initializer is the first assignment
  forEachChild(
      S, [&](Stmt *Child) { collectModifiedLocals(Child, Out); },
      [&](Expr *E) { collectModifiedLocalsExpr(E, Out); });
}

} // namespace

void Checker::checkFunc(FuncDecl *F) {
  CurrentFunc = F;
  AssignCounts.clear();
  collectModifiedLocals(F->Body, AssignCounts);
  checkStmt(F->Body);
  CurrentFunc = nullptr;
}

void Checker::checkStmt(Stmt *S) {
  // A declaration's type is checked before its initializer.
  auto *Decl = dyn_cast<DeclStmt>(S);
  if (Decl)
    checkWellFormedType(Decl->Var->DeclType, Decl->Var->Loc);
  forEachChild(
      S, [&](Stmt *Child) { checkStmt(Child); },
      [&](Expr *E) { checkExpr(E); });
  if (auto *Block = dyn_cast<BlockStmt>(S)) {
    checkLiveAfterCast(Block);
  } else if (auto *Ret = dyn_cast<ReturnStmt>(S)) {
    if (Ret->Value && CurrentFunc && CurrentFunc->RetType)
      checkAssignCompat(CurrentFunc->RetType, Ret->Value->ExprType,
                        Ret->Value, Ret->Loc, "return value");
  } else if (Decl && Decl->Init) {
    checkAssignCompat(Decl->Var->DeclType, Decl->Init->ExprType, Decl->Init,
                      Decl->Loc, "initializer");
  } else if (auto *Spawn = dyn_cast<SpawnStmt>(S)) {
    if (Spawn->Arg && Spawn->Callee && !Spawn->Callee->Params.empty())
      checkAssignCompat(Spawn->Callee->Params[0]->DeclType,
                        Spawn->Arg->ExprType, Spawn->Arg, Spawn->Loc,
                        "spawn argument");
  } else if (auto *Free = dyn_cast<FreeStmt>(S)) {
    if (Free->Ptr->ExprType && !Free->Ptr->ExprType->isPointer())
      Diags.error(Free->Loc, "free() requires a pointer");
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

static bool isLValue(const Expr *E) {
  switch (E->Kind) {
  case ExprKind::Name:
    return cast<NameExpr>(E)->Var != nullptr;
  case ExprKind::Member:
  case ExprKind::Index:
    return true;
  case ExprKind::Unary:
    return cast<UnaryExpr>(E)->Op == UnaryOp::Deref;
  default:
    return false;
  }
}

void Checker::checkExpr(Expr *E) {
  if (!E)
    return;
  switch (E->Kind) {
  case ExprKind::Name:
    attachAccessCheck(E, /*IsWrite=*/false, E->Loc);
    return;
  case ExprKind::Unary: {
    auto *Unary = cast<UnaryExpr>(E);
    if (Unary->Op == UnaryOp::AddrOf) {
      // &lv evaluates the base path but does not read the final cell.
      visitLValuePath(Unary->Sub);
      return;
    }
    checkExpr(Unary->Sub);
    if (Unary->Op == UnaryOp::Deref)
      attachAccessCheck(E, /*IsWrite=*/false, E->Loc);
    return;
  }
  case ExprKind::Binary: {
    auto *Binary = cast<BinaryExpr>(E);
    checkExpr(Binary->Lhs);
    checkExpr(Binary->Rhs);
    return;
  }
  case ExprKind::Assign: {
    auto *Assign = cast<AssignExpr>(E);
    checkExpr(Assign->Rhs);
    checkLValueWrite(Assign->Lhs, Assign->Loc);
    checkAssignCompat(Assign->Lhs->ExprType, Assign->Rhs->ExprType,
                      Assign->Rhs, Assign->Loc, "assignment");
    return;
  }
  case ExprKind::Call: {
    auto *Call = cast<CallExpr>(E);
    checkExpr(Call->Callee);
    for (Expr *Arg : Call->Args)
      checkExpr(Arg);
    FuncDecl *Direct = nullptr;
    if (auto *Name = dyn_cast<NameExpr>(Call->Callee))
      Direct = Name->Func;
    if (Direct && Direct->IsBuiltin) {
      // Builtin with trusted read/write summaries (Section 4.4): a dynamic
      // actual's pointee gets its reader/writer sets updated per the
      // summary; locked actuals are rejected.
      for (size_t I = 0;
           I != std::min(Call->Args.size(), Direct->Summaries.size()); ++I) {
        Expr *Arg = Call->Args[I];
        if (!Arg->ExprType || !Arg->ExprType->isPointer())
          continue;
        Mode PointeeMode = Arg->ExprType->Pointee->Q.M;
        const ParamSummary &Summary = Direct->Summaries[I];
        if (PointeeMode == Mode::Locked || PointeeMode == Mode::RwLocked) {
          Diags.error(Arg->Loc, "locked values may not be passed to "
                                "library functions (Section 4.4)");
          continue;
        }
        if (PointeeMode == Mode::ReadOnly && Summary.WritesPointee) {
          Diags.error(Arg->Loc,
                      "readonly value passed to library function that "
                      "writes its argument");
          continue;
        }
        if (PointeeMode == Mode::Dynamic && isLValue(Arg)) {
          // The call accesses *arg: record pointee checks on the arg node
          // itself; the interpreter applies them to the pointee.
          // (Represented as ordinary checks on the pointee cell via a
          // synthesized deref in the interpreter; here we only note the
          // intent with OnPointee semantics baked into the builtin call
          // handling of the interpreter.)
          continue;
        }
      }
      return;
    }
    // Ordinary call: argument modes must match formals (sub-top-level).
    const TypeNode *FnType = Call->Callee->ExprType;
    if (FnType && FnType->isPointer())
      FnType = FnType->Pointee;
    if (!FnType || !FnType->isFunc())
      return;
    for (size_t I = 0;
         I != std::min(FnType->Params.size(), Call->Args.size()); ++I)
      checkAssignCompat(const_cast<TypeNode *>(FnType->Params[I]),
                        Call->Args[I]->ExprType, Call->Args[I],
                        Call->Args[I]->Loc, "argument");
    return;
  }
  case ExprKind::Member: {
    auto *Member = cast<MemberExpr>(E);
    // Arrow access reads the base pointer (checked under the pointer
    // cell's own mode); dot access only names a subobject of the base
    // l-value and reads no cell of its own.
    if (Member->IsArrow)
      checkExpr(Member->Base);
    else
      visitLValuePath(Member->Base);
    attachAccessCheck(E, /*IsWrite=*/false, E->Loc);
    return;
  }
  case ExprKind::Index: {
    auto *Index = cast<IndexExpr>(E);
    checkExpr(Index->Base);
    checkExpr(Index->Idx);
    attachAccessCheck(E, /*IsWrite=*/false, E->Loc);
    return;
  }
  case ExprKind::Scast:
    checkScast(cast<ScastExpr>(E));
    return;
  case ExprKind::New:
    checkExpr(cast<NewExpr>(E)->Count);
    return;
  default:
    return;
  }
}

void Checker::visitLValuePath(Expr *LV) {
  // Visits an l-value used for its *location* (address-of, dot-access
  // base, assignment target): base pointers and indices are evaluated
  // (and checked) as reads, but the denoted cell itself is not read.
  if (auto *Member = dyn_cast<MemberExpr>(LV)) {
    if (Member->IsArrow)
      checkExpr(Member->Base);
    else
      visitLValuePath(Member->Base);
    return;
  }
  if (auto *Index = dyn_cast<IndexExpr>(LV)) {
    if (Index->Base->ExprType && Index->Base->ExprType->isArray())
      visitLValuePath(Index->Base);
    else
      checkExpr(Index->Base);
    checkExpr(Index->Idx);
    return;
  }
  if (auto *Unary = dyn_cast<UnaryExpr>(LV);
      Unary && Unary->Op == UnaryOp::Deref) {
    checkExpr(Unary->Sub);
    return;
  }
  // Name: naming a variable's location reads nothing.
}

void Checker::checkLValueWrite(Expr *LV, SourceLoc Loc) {
  if (!isLValue(LV)) {
    Diags.error(Loc, "assignment target is not an l-value");
    return;
  }
  // Evaluate the base path as reads.
  visitLValuePath(LV);

  EffectiveMode EM = effectiveMode(LV);
  if (EM.M == Mode::ReadOnly) {
    // The initialization exception: a readonly field of a private
    // instance is writable.
    bool Allowed = false;
    if (auto *Member = dyn_cast<MemberExpr>(LV)) {
      Mode InstanceMode;
      if (Member->IsArrow) {
        TypeNode *BaseType = Member->Base->ExprType;
        InstanceMode = BaseType && BaseType->isPointer()
                           ? BaseType->Pointee->Q.M
                           : Mode::ReadOnly;
      } else {
        InstanceMode = effectiveMode(Member->Base).M;
      }
      Allowed = InstanceMode == Mode::Private;
    }
    if (!Allowed) {
      Diags.error(Loc, "cannot write to readonly cell '" + LV->spelling() +
                           "' (only readonly fields of private structures "
                           "are writable)");
      return;
    }
  }
  attachAccessCheck(LV, /*IsWrite=*/true, Loc);
}

//===----------------------------------------------------------------------===//
// Assignment compatibility and cast suggestions
//===----------------------------------------------------------------------===//

/// \returns true if the referent levels of \p Lhs and \p Rhs carry equal
/// qualifiers; used for the invariance check on assignments. When one
/// side is void* the shape is erased but the referent mode must still
/// agree (void* keeps the sharing mode of what it points to).
static bool pointeesCompatible(const TypeNode *Lhs, const TypeNode *Rhs) {
  if (!Lhs->isPointer() && !Lhs->isArray())
    return true;
  if (!Rhs->isPointer() && !Rhs->isArray())
    return true;
  if (Lhs->Pointee->isVoid() || Rhs->Pointee->isVoid())
    return Lhs->Pointee->Q.M == Rhs->Pointee->Q.M;
  return sameTypeAndQuals(Lhs->Pointee, Rhs->Pointee);
}

void Checker::checkAssignCompat(TypeNode *Lhs, TypeNode *Rhs, Expr *RhsExpr,
                                SourceLoc Loc, const char *What) {
  if (!Lhs || !Rhs)
    return;
  if (RhsExpr && isa<NullLitExpr>(RhsExpr))
    return; // null is assignable to any pointer.
  // Function names decay to function pointers (h->fn = handler).
  if (Lhs->isPointer() && Lhs->Pointee && Lhs->Pointee->isFunc() &&
      Rhs->isFunc()) {
    if (!sameShape(Lhs->Pointee, Rhs))
      Diags.error(Loc, std::string("incompatible function type in ") + What +
                           ": '" + typeToString(Lhs) + "' vs '" +
                           typeToString(Rhs) + "'");
    return;
  }
  bool BothInts = Lhs->isInteger() && Rhs->isInteger();
  if (!BothInts && !sameShape(Lhs, Rhs)) {
    // void* concretization is permitted in the shape dimension (the
    // sharing cast rule still governs qualifier changes).
    bool VoidInvolved =
        (Lhs->isPointer() && Lhs->Pointee->isVoid()) ||
        (Rhs->isPointer() && Rhs->Pointee->isVoid());
    if (!VoidInvolved) {
      Diags.error(Loc, std::string("incompatible types in ") + What + ": '" +
                           typeToString(Lhs) + "' vs '" + typeToString(Rhs) +
                           "'");
      return;
    }
  }
  if (!pointeesCompatible(Lhs, Rhs)) {
    Diags.error(Loc, std::string("sharing modes differ in ") + What + ": '" +
                         typeToString(Lhs) + "' vs '" + typeToString(Rhs) +
                         "'");
    if (RhsExpr && isLValue(RhsExpr)) {
      // Render the suggested cast type without the outermost (cell)
      // qualifier: SCAST targets describe the value being transferred.
      std::string Target;
      if (Lhs->isPointer())
        Target = typeToString(Lhs->Pointee) + " *";
      else
        Target = typeToString(Lhs);
      Diags.note(Loc, "if ownership is being transferred, use SCAST(" +
                          Target + ", " + RhsExpr->spelling() + ")");
    }
  }
}

void Checker::checkScast(ScastExpr *Scast) {
  Expr *Src = Scast->Src;
  checkExpr(Src);
  if (!isLValue(Src)) {
    Diags.error(Scast->Loc,
                "SCAST source must be an l-value (it is nulled out)");
    return;
  }
  TypeNode *SrcType = Src->ExprType;
  TypeNode *TgtType = Scast->TargetType;
  if (!SrcType || !TgtType)
    return;
  if (!SrcType->isPointer() || !TgtType->isPointer()) {
    Diags.error(Scast->Loc, "SCAST requires pointer types");
    return;
  }
  bool SrcVoid = SrcType->Pointee->isVoid();
  bool TgtVoid = TgtType->Pointee->isVoid();
  if (SrcVoid || TgtVoid) {
    // Concretization cast: the referent qualifier must not change ("the
    // programmer must cast the (void*) pointer to a concrete type before
    // the sharing change").
    if (SrcType->Pointee->Q.M != TgtType->Pointee->Q.M)
      Diags.error(Scast->Loc,
                  "sharing casts may not change the qualifier of a void* "
                  "value; cast to a concrete type first");
  } else {
    if (!sameShape(SrcType, TgtType)) {
      Diags.error(Scast->Loc, "SCAST cannot change the shape of '" +
                                  typeToString(SrcType) + "' to '" +
                                  typeToString(TgtType) + "'");
      return;
    }
    // Only the outermost referent qualifier may change: deeper levels
    // must match exactly (soundness: one reference to the outer cell says
    // nothing about inner cells).
    const TypeNode *SrcInner = SrcType->Pointee;
    const TypeNode *TgtInner = TgtType->Pointee;
    if ((SrcInner->isPointer() || SrcInner->isArray()) &&
        !sameTypeAndQuals(SrcInner->Pointee, TgtInner->Pointee))
      Diags.error(Scast->Loc,
                  "SCAST may only change the outermost referent "
                  "qualifier; deeper levels differ between '" +
                      typeToString(SrcType) + "' and '" +
                      typeToString(TgtType) + "'");
  }
  // The cast reads and nulls its source cell: both intents are checked
  // under the source's own mode.
  EffectiveMode EM = effectiveMode(Src);
  if (EM.M == Mode::Locked || EM.M == Mode::RwLocked) {
    attachAccessCheck(Src, /*IsWrite=*/true, Scast->Loc);
  } else if (EM.M == Mode::Dynamic) {
    attachAccessCheck(Src, /*IsWrite=*/false, Scast->Loc);
    attachAccessCheck(Src, /*IsWrite=*/true, Scast->Loc);
  }
}

//===----------------------------------------------------------------------===//
// Live-after-cast warning
//===----------------------------------------------------------------------===//

namespace {

/// \returns true if \p E reads \p Var (ignoring positions where Var is the
/// direct target of an assignment).
bool readsVar(Expr *E, const VarDecl *Var) {
  if (auto *Name = dyn_cast<NameExpr>(E))
    return Name->Var == Var;
  // A plain-name assignment target is written, not read.
  auto *Assign = dyn_cast<AssignExpr>(E);
  bool Reads = false;
  forEachChild(E, [&](Expr *Child) {
    if (!(Assign && Child == Assign->Lhs && isa<NameExpr>(Child)))
      Reads = Reads || readsVar(Child, Var);
  });
  return Reads;
}

/// \returns true if \p S definitely assigns \p Var at its top level.
bool assignsVar(const Stmt *S, const VarDecl *Var) {
  if (auto *ES = dyn_cast<ExprStmt>(S))
    if (auto *Assign = dyn_cast<AssignExpr>(ES->E))
      if (auto *Name = dyn_cast<NameExpr>(Assign->Lhs))
        return Name->Var == Var;
  return false;
}

/// \returns the local variable nulled by a top-level SCAST in \p S, if
/// any.
const VarDecl *castNulledVar(const Stmt *S) {
  const Expr *E = nullptr;
  if (auto *ES = dyn_cast<ExprStmt>(S))
    E = ES->E;
  else if (auto *Decl = dyn_cast<DeclStmt>(S))
    E = Decl->Init;
  if (!E)
    return nullptr;
  if (auto *Assign = dyn_cast<AssignExpr>(E))
    E = Assign->Rhs;
  auto *Scast = dyn_cast<ScastExpr>(E);
  if (!Scast)
    return nullptr;
  auto *Name = dyn_cast<NameExpr>(Scast->Src);
  if (!Name || !Name->Var)
    return nullptr;
  if (Name->Var->Storage != StorageKind::Local &&
      Name->Var->Storage != StorageKind::Param)
    return nullptr;
  return Name->Var;
}

/// \returns true if \p S reads \p Var anywhere.
bool stmtReadsVar(Stmt *S, const VarDecl *Var) {
  bool Reads = false;
  forEachChild(
      S, [&](Stmt *Child) { Reads = Reads || stmtReadsVar(Child, Var); },
      [&](Expr *E) { Reads = Reads || readsVar(E, Var); });
  return Reads;
}

} // namespace

void Checker::checkLiveAfterCast(BlockStmt *Block) {
  // "SharC will emit a warning if a pointer is definitely live after being
  // nulled-out for a cast."
  for (size_t I = 0; I != Block->Body.size(); ++I) {
    const VarDecl *Var = castNulledVar(Block->Body[I]);
    if (!Var)
      continue;
    for (size_t J = I + 1; J != Block->Body.size(); ++J) {
      if (assignsVar(Block->Body[J], Var))
        break; // re-initialized; later uses are fine.
      if (stmtReadsVar(Block->Body[J], Var)) {
        Diags.warning(Block->Body[J]->Loc,
                      "pointer '" + Var->Name +
                          "' is used after being nulled by a sharing cast");
        break;
      }
    }
  }
}
