//===-- minic/ExprTyper.cpp -----------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "minic/ExprTyper.h"

using namespace sharc;
using namespace sharc::minic;

TypeNode *ExprTyper::freshInt(SourceLoc Loc) {
  return Prog.Context.makeType(TypeKind::Int, Loc);
}

TypeNode *ExprTyper::freshBool(SourceLoc Loc) {
  return Prog.Context.makeType(TypeKind::Bool, Loc);
}

bool ExprTyper::run() {
  unsigned ErrorsBefore = Diags.getNumErrors();
  for (FuncDecl *F : Prog.Funcs)
    if (F->Body)
      typeStmt(F->Body);
  // Lock expressions live inside type qualifiers; type them too so field
  // references resolve (locked(s->mut) must know which field mut is).
  Prog.Context.forEachType([&](TypeNode *T) {
    if ((T->Q.M == Mode::Locked || T->Q.M == Mode::RwLocked) &&
        T->Q.LockExpr)
      typeExpr(T->Q.LockExpr);
  });
  return Diags.getNumErrors() == ErrorsBefore;
}

void ExprTyper::typeStmt(Stmt *S) {
  forEachChild(
      S, [&](Stmt *Child) { typeStmt(Child); }, [&](Expr *E) { typeExpr(E); });
  if (auto *Spawn = dyn_cast<SpawnStmt>(S))
    if (Spawn->Callee && Spawn->Arg && Spawn->Callee->Params.empty())
      Diags.error(Spawn->Loc, "spawned function '" + Spawn->CalleeName +
                                  "' takes no argument");
}

TypeNode *ExprTyper::typeExpr(Expr *E) {
  if (!E)
    return nullptr;
  if (E->ExprType)
    return E->ExprType;

  switch (E->Kind) {
  case ExprKind::IntLit:
    E->ExprType = freshInt(E->Loc);
    break;
  case ExprKind::BoolLit:
    E->ExprType = freshBool(E->Loc);
    break;
  case ExprKind::NullLit: {
    // null has type "pointer to void"; assignment checking special-cases
    // null so the pointee qualifier is unconstrained.
    TypeNode *Ptr = Prog.Context.makeType(TypeKind::Pointer, E->Loc);
    Ptr->Pointee = Prog.Context.makeType(TypeKind::Void, E->Loc);
    E->ExprType = Ptr;
    break;
  }
  case ExprKind::StrLit: {
    // String literals are readonly character arrays.
    TypeNode *Char = Prog.Context.makeType(TypeKind::Char, E->Loc);
    Char->Q.M = Mode::ReadOnly;
    TypeNode *Ptr = Prog.Context.makeType(TypeKind::Pointer, E->Loc);
    Ptr->Pointee = Char;
    E->ExprType = Ptr;
    break;
  }
  case ExprKind::Name: {
    auto *Name = cast<NameExpr>(E);
    if (Name->Var) {
      E->ExprType = Name->Var->DeclType;
    } else if (Name->Func) {
      E->ExprType = Name->Func->FuncType;
    } else {
      E->ExprType = freshInt(E->Loc); // error recovery
    }
    break;
  }
  case ExprKind::Unary: {
    auto *Unary = cast<UnaryExpr>(E);
    TypeNode *Sub = typeExpr(Unary->Sub);
    switch (Unary->Op) {
    case UnaryOp::Deref:
      if (Sub && Sub->isPointer()) {
        E->ExprType = Sub->Pointee;
      } else {
        Diags.error(E->Loc, "cannot dereference non-pointer value");
        E->ExprType = freshInt(E->Loc);
      }
      break;
    case UnaryOp::AddrOf: {
      TypeNode *Ptr = Prog.Context.makeType(TypeKind::Pointer, E->Loc);
      Ptr->Pointee = Sub;
      E->ExprType = Ptr;
      break;
    }
    case UnaryOp::Not:
      E->ExprType = freshBool(E->Loc);
      break;
    case UnaryOp::Neg:
      E->ExprType = freshInt(E->Loc);
      break;
    }
    break;
  }
  case ExprKind::Binary: {
    auto *Binary = cast<BinaryExpr>(E);
    TypeNode *Lhs = typeExpr(Binary->Lhs);
    typeExpr(Binary->Rhs);
    switch (Binary->Op) {
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
    case BinaryOp::And:
    case BinaryOp::Or:
      E->ExprType = freshBool(E->Loc);
      break;
    default:
      // Pointer arithmetic keeps the pointer type.
      if (Lhs && Lhs->isPointer())
        E->ExprType = Lhs;
      else
        E->ExprType = freshInt(E->Loc);
      break;
    }
    break;
  }
  case ExprKind::Assign: {
    auto *Assign = cast<AssignExpr>(E);
    TypeNode *Lhs = typeExpr(Assign->Lhs);
    typeExpr(Assign->Rhs);
    E->ExprType = Lhs;
    break;
  }
  case ExprKind::Call: {
    auto *Call = cast<CallExpr>(E);
    TypeNode *Callee = typeExpr(Call->Callee);
    for (Expr *Arg : Call->Args)
      typeExpr(Arg);
    TypeNode *FuncType = nullptr;
    if (Callee && Callee->isFunc())
      FuncType = Callee;
    else if (Callee && Callee->isPointer() && Callee->Pointee &&
             Callee->Pointee->isFunc())
      FuncType = Callee->Pointee;
    if (!FuncType) {
      Diags.error(E->Loc, "called value is not a function");
      E->ExprType = freshInt(E->Loc);
      break;
    }
    if (FuncType->Params.size() != Call->Args.size())
      Diags.error(E->Loc,
                  "call argument count mismatch: expected " +
                      std::to_string(FuncType->Params.size()) + ", got " +
                      std::to_string(Call->Args.size()));
    E->ExprType = FuncType->Ret;
    break;
  }
  case ExprKind::Member: {
    auto *Member = cast<MemberExpr>(E);
    TypeNode *Base = typeExpr(Member->Base);
    const TypeNode *StructTy = nullptr;
    if (Member->IsArrow) {
      if (Base && Base->isPointer() && Base->Pointee &&
          Base->Pointee->isStruct())
        StructTy = Base->Pointee;
      else
        Diags.error(E->Loc, "'->' applied to non-struct-pointer");
    } else {
      if (Base && Base->isStruct())
        StructTy = Base;
      else
        Diags.error(E->Loc, "'.' applied to non-struct value");
    }
    if (StructTy && StructTy->Struct) {
      Member->Field = StructTy->Struct->findField(Member->FieldName);
      if (!Member->Field)
        Diags.error(E->Loc, "no field '" + Member->FieldName +
                                "' in struct '" + StructTy->Struct->Name +
                                "'");
    }
    E->ExprType =
        Member->Field ? Member->Field->DeclType : freshInt(E->Loc);
    break;
  }
  case ExprKind::Index: {
    auto *Index = cast<IndexExpr>(E);
    TypeNode *Base = typeExpr(Index->Base);
    typeExpr(Index->Idx);
    if (Base && (Base->isPointer() || Base->isArray())) {
      E->ExprType = Base->Pointee;
    } else {
      Diags.error(E->Loc, "subscripted value is not a pointer or array");
      E->ExprType = freshInt(E->Loc);
    }
    break;
  }
  case ExprKind::Scast: {
    auto *Scast = cast<ScastExpr>(E);
    typeExpr(Scast->Src);
    E->ExprType = Scast->TargetType;
    break;
  }
  case ExprKind::New: {
    auto *New = cast<NewExpr>(E);
    if (New->Count)
      typeExpr(New->Count);
    TypeNode *Ptr = Prog.Context.makeType(TypeKind::Pointer, E->Loc);
    Ptr->Pointee = New->ElemType;
    E->ExprType = Ptr;
    break;
  }
  case ExprKind::Sizeof:
    E->ExprType = freshInt(E->Loc);
    break;
  }
  return E->ExprType;
}
