//===-- minic/AST.h - MiniC abstract syntax tree ----------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for MiniC: expressions, statements, the child walker the passes
/// recurse through, declarations, and the ASTContext arena that owns
/// every node. Nodes use LLVM-style kind tags with classof() for
/// dyn_cast-style dispatch via llvm-free helpers
/// (sharc::minic::isa/cast/dyn_cast below).
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_MINIC_AST_H
#define SHARC_MINIC_AST_H

#include "minic/Type.h"
#include "support/SourceLoc.h"

#include <cassert>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sharc {
namespace minic {

class Decl;
class VarDecl;
class FuncDecl;
class StructDecl;
class Stmt;
class Expr;

//===----------------------------------------------------------------------===//
// Lightweight isa/cast/dyn_cast (LLVM-style, no RTTI)
//===----------------------------------------------------------------------===//

template <typename ToT, typename FromT> bool isa(const FromT *Node) {
  return ToT::classof(Node);
}

template <typename ToT, typename FromT> ToT *cast(FromT *Node) {
  assert(Node && ToT::classof(Node) && "cast to wrong node kind");
  return static_cast<ToT *>(Node);
}

template <typename ToT, typename FromT> const ToT *cast(const FromT *Node) {
  assert(Node && ToT::classof(Node) && "cast to wrong node kind");
  return static_cast<const ToT *>(Node);
}

template <typename ToT, typename FromT> ToT *dyn_cast(FromT *Node) {
  return Node && ToT::classof(Node) ? static_cast<ToT *>(Node) : nullptr;
}

template <typename ToT, typename FromT>
const ToT *dyn_cast(const FromT *Node) {
  return Node && ToT::classof(Node) ? static_cast<const ToT *>(Node)
                                    : nullptr;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntLit,
  BoolLit,
  StrLit,
  NullLit,
  Name,
  Unary,
  Binary,
  Assign,
  Call,
  Member,
  Index,
  Scast,
  New,
  Sizeof,
};

/// Base class for expressions. ExprType is filled by the checker; for
/// l-value expressions it is the TypeNode of the referenced cell.
class Expr {
public:
  const ExprKind Kind;
  SourceLoc Loc;
  TypeNode *ExprType = nullptr;

  explicit Expr(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
  virtual ~Expr() = default;

  /// Renders the expression's source spelling for reports ("S->sdata").
  virtual std::string spelling() const = 0;
};

class IntLitExpr : public Expr {
public:
  int64_t Value;
  IntLitExpr(int64_t Value, SourceLoc Loc)
      : Expr(ExprKind::IntLit, Loc), Value(Value) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::IntLit; }
  std::string spelling() const override { return std::to_string(Value); }
};

class BoolLitExpr : public Expr {
public:
  bool Value;
  BoolLitExpr(bool Value, SourceLoc Loc)
      : Expr(ExprKind::BoolLit, Loc), Value(Value) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::BoolLit; }
  std::string spelling() const override { return Value ? "true" : "false"; }
};

class StrLitExpr : public Expr {
public:
  std::string Value; ///< Decoded contents.
  StrLitExpr(std::string Value, SourceLoc Loc)
      : Expr(ExprKind::StrLit, Loc), Value(std::move(Value)) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::StrLit; }
  std::string spelling() const override { return "\"" + Value + "\""; }
};

class NullLitExpr : public Expr {
public:
  explicit NullLitExpr(SourceLoc Loc) : Expr(ExprKind::NullLit, Loc) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::NullLit; }
  std::string spelling() const override { return "null"; }
};

/// Reference to a variable or function by name. Var/Func is resolved
/// during parsing (locals/globals) or by the post-parse resolver
/// (forward-referenced functions).
class NameExpr : public Expr {
public:
  std::string Name;
  VarDecl *Var = nullptr;
  FuncDecl *Func = nullptr;
  NameExpr(std::string Name, SourceLoc Loc)
      : Expr(ExprKind::Name, Loc), Name(std::move(Name)) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Name; }
  std::string spelling() const override { return Name; }
};

enum class UnaryOp : uint8_t { Deref, AddrOf, Not, Neg };

class UnaryExpr : public Expr {
public:
  UnaryOp Op;
  Expr *Sub;
  UnaryExpr(UnaryOp Op, Expr *Sub, SourceLoc Loc)
      : Expr(ExprKind::Unary, Loc), Op(Op), Sub(Sub) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Unary; }
  std::string spelling() const override {
    const char *OpStr = Op == UnaryOp::Deref    ? "*"
                        : Op == UnaryOp::AddrOf ? "&"
                        : Op == UnaryOp::Not    ? "!"
                                                : "-";
    return std::string(OpStr) + Sub->spelling();
  }
};

enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
};

const char *binaryOpSpelling(BinaryOp Op);

class BinaryExpr : public Expr {
public:
  BinaryOp Op;
  Expr *Lhs;
  Expr *Rhs;
  BinaryExpr(BinaryOp Op, Expr *Lhs, Expr *Rhs, SourceLoc Loc)
      : Expr(ExprKind::Binary, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Binary; }
  std::string spelling() const override {
    return Lhs->spelling() + " " + binaryOpSpelling(Op) + " " +
           Rhs->spelling();
  }
};

class AssignExpr : public Expr {
public:
  Expr *Lhs;
  Expr *Rhs;
  AssignExpr(Expr *Lhs, Expr *Rhs, SourceLoc Loc)
      : Expr(ExprKind::Assign, Loc), Lhs(Lhs), Rhs(Rhs) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Assign; }
  std::string spelling() const override {
    return Lhs->spelling() + " = " + Rhs->spelling();
  }
};

class CallExpr : public Expr {
public:
  Expr *Callee;
  std::vector<Expr *> Args;
  CallExpr(Expr *Callee, std::vector<Expr *> Args, SourceLoc Loc)
      : Expr(ExprKind::Call, Loc), Callee(Callee), Args(std::move(Args)) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Call; }
  std::string spelling() const override {
    std::string S = Callee->spelling() + "(";
    for (size_t I = 0; I != Args.size(); ++I) {
      if (I)
        S += ", ";
      S += Args[I]->spelling();
    }
    return S + ")";
  }
};

class MemberExpr : public Expr {
public:
  Expr *Base;
  std::string FieldName;
  bool IsArrow;
  VarDecl *Field = nullptr; ///< Resolved by the checker/parser.
  MemberExpr(Expr *Base, std::string FieldName, bool IsArrow, SourceLoc Loc)
      : Expr(ExprKind::Member, Loc), Base(Base),
        FieldName(std::move(FieldName)), IsArrow(IsArrow) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Member; }
  std::string spelling() const override {
    return Base->spelling() + (IsArrow ? "->" : ".") + FieldName;
  }
};

class IndexExpr : public Expr {
public:
  Expr *Base;
  Expr *Idx;
  IndexExpr(Expr *Base, Expr *Idx, SourceLoc Loc)
      : Expr(ExprKind::Index, Loc), Base(Base), Idx(Idx) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Index; }
  std::string spelling() const override {
    return Base->spelling() + "[" + Idx->spelling() + "]";
  }
};

/// SCAST(type, lvalue): the sharing cast. Nulls the source l-value and
/// checks the object has no other references (Sections 2 and 4.2.3).
class ScastExpr : public Expr {
public:
  TypeNode *TargetType;
  Expr *Src;
  ScastExpr(TypeNode *TargetType, Expr *Src, SourceLoc Loc)
      : Expr(ExprKind::Scast, Loc), TargetType(TargetType), Src(Src) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Scast; }
  std::string spelling() const override {
    return "SCAST(" + typeToString(TargetType) + ", " + Src->spelling() + ")";
  }
};

/// new T or new T[n]: heap allocation (stands in for C's malloc, which the
/// paper assumes is 16-byte aligned).
class NewExpr : public Expr {
public:
  TypeNode *ElemType;
  Expr *Count; ///< Null for a single object.
  NewExpr(TypeNode *ElemType, Expr *Count, SourceLoc Loc)
      : Expr(ExprKind::New, Loc), ElemType(ElemType), Count(Count) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::New; }
  std::string spelling() const override {
    std::string S = "new " + typeToString(ElemType);
    if (Count)
      S += "[" + Count->spelling() + "]";
    return S;
  }
};

class SizeofExpr : public Expr {
public:
  TypeNode *OfType;
  SizeofExpr(TypeNode *OfType, SourceLoc Loc)
      : Expr(ExprKind::Sizeof, Loc), OfType(OfType) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Sizeof; }
  std::string spelling() const override {
    return "sizeof(" + typeToString(OfType) + ")";
  }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Block,
  If,
  While,
  For,
  Return,
  ExprStmt,
  DeclStmt,
  Spawn,
  Free,
  Break,
  Continue,
};

class Stmt {
public:
  const StmtKind Kind;
  SourceLoc Loc;
  explicit Stmt(StmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
  virtual ~Stmt() = default;
};

class BlockStmt : public Stmt {
public:
  std::vector<Stmt *> Body;
  BlockStmt(std::vector<Stmt *> Body, SourceLoc Loc)
      : Stmt(StmtKind::Block, Loc), Body(std::move(Body)) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Block; }
};

class IfStmt : public Stmt {
public:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else; ///< May be null.
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else, SourceLoc Loc)
      : Stmt(StmtKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::If; }
};

class WhileStmt : public Stmt {
public:
  Expr *Cond;
  Stmt *Body;
  WhileStmt(Expr *Cond, Stmt *Body, SourceLoc Loc)
      : Stmt(StmtKind::While, Loc), Cond(Cond), Body(Body) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::While; }
};

/// for (init; cond; step) body -- init is a declaration or expression
/// statement (or null); cond/step may be null.
class ForStmt : public Stmt {
public:
  Stmt *Init; ///< DeclStmt or ExprStmt, may be null.
  Expr *Cond; ///< May be null (infinite loop).
  Expr *Step; ///< May be null.
  Stmt *Body;
  ForStmt(Stmt *Init, Expr *Cond, Expr *Step, Stmt *Body, SourceLoc Loc)
      : Stmt(StmtKind::For, Loc), Init(Init), Cond(Cond), Step(Step),
        Body(Body) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::For; }
};

class ReturnStmt : public Stmt {
public:
  Expr *Value; ///< May be null.
  ReturnStmt(Expr *Value, SourceLoc Loc)
      : Stmt(StmtKind::Return, Loc), Value(Value) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Return; }
};

class ExprStmt : public Stmt {
public:
  Expr *E;
  ExprStmt(Expr *E, SourceLoc Loc) : Stmt(StmtKind::ExprStmt, Loc), E(E) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::ExprStmt; }
};

class DeclStmt : public Stmt {
public:
  VarDecl *Var;
  Expr *Init; ///< May be null.
  DeclStmt(VarDecl *Var, Expr *Init, SourceLoc Loc)
      : Stmt(StmtKind::DeclStmt, Loc), Var(Var), Init(Init) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::DeclStmt; }
};

/// spawn f(arg);  — creates a thread running f. f's formal seeds the
/// sharing analysis as inherently shared.
class SpawnStmt : public Stmt {
public:
  std::string CalleeName;
  FuncDecl *Callee = nullptr; ///< Resolved post-parse.
  Expr *Arg;                  ///< May be null for zero-arg thread functions.
  SpawnStmt(std::string CalleeName, Expr *Arg, SourceLoc Loc)
      : Stmt(StmtKind::Spawn, Loc), CalleeName(std::move(CalleeName)),
        Arg(Arg) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Spawn; }
};

class FreeStmt : public Stmt {
public:
  Expr *Ptr;
  FreeStmt(Expr *Ptr, SourceLoc Loc) : Stmt(StmtKind::Free, Loc), Ptr(Ptr) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Free; }
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(StmtKind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Break; }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(StmtKind::Continue, Loc) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Continue; }
};

//===----------------------------------------------------------------------===//
// Child walker
//===----------------------------------------------------------------------===//
//
// The one list of each node kind's children. A pass whose job is only to
// reach nodes recurses through forEachChild and keeps just its per-kind
// actions; a pass that interprets each kind (typing an expression,
// checking an access, printing, running) keeps its own switch. The
// switches below have no default, so -Wswitch flags a new kind here.

/// Calls \p Fn(Expr *) on each child of \p E in evaluation and source
/// order: a call's callee, then its arguments; an index's base, then the
/// index. An absent `new` count is skipped.
template <typename FnT> void forEachChild(Expr *E, FnT &&Fn) {
  switch (E->Kind) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::StrLit:
  case ExprKind::NullLit:
  case ExprKind::Name:
  case ExprKind::Sizeof:
    return;
  case ExprKind::Unary:
    Fn(cast<UnaryExpr>(E)->Sub);
    return;
  case ExprKind::Binary: {
    auto *Binary = cast<BinaryExpr>(E);
    Fn(Binary->Lhs);
    Fn(Binary->Rhs);
    return;
  }
  case ExprKind::Assign: {
    auto *Assign = cast<AssignExpr>(E);
    Fn(Assign->Lhs);
    Fn(Assign->Rhs);
    return;
  }
  case ExprKind::Call: {
    auto *Call = cast<CallExpr>(E);
    Fn(Call->Callee);
    for (Expr *Arg : Call->Args)
      Fn(Arg);
    return;
  }
  case ExprKind::Member:
    Fn(cast<MemberExpr>(E)->Base);
    return;
  case ExprKind::Index: {
    auto *Index = cast<IndexExpr>(E);
    Fn(Index->Base);
    Fn(Index->Idx);
    return;
  }
  case ExprKind::Scast:
    Fn(cast<ScastExpr>(E)->Src);
    return;
  case ExprKind::New:
    if (Expr *Count = cast<NewExpr>(E)->Count)
      Fn(Count);
    return;
  }
}

/// Calls \p OnStmt(Stmt *) on each child statement and \p OnExpr(Expr *)
/// on each child expression of \p S, in source order: a `for` loop's
/// init, condition, step, then body. Absent children (an else branch, a
/// `for` loop's init, condition or step, a return value, a declaration's
/// initializer, a spawn argument) are skipped.
template <typename OnStmtT, typename OnExprT>
void forEachChild(Stmt *S, OnStmtT &&OnStmt, OnExprT &&OnExpr) {
  switch (S->Kind) {
  case StmtKind::Block:
    for (Stmt *Child : cast<BlockStmt>(S)->Body)
      OnStmt(Child);
    return;
  case StmtKind::If: {
    auto *If = cast<IfStmt>(S);
    OnExpr(If->Cond);
    OnStmt(If->Then);
    if (If->Else)
      OnStmt(If->Else);
    return;
  }
  case StmtKind::While: {
    auto *While = cast<WhileStmt>(S);
    OnExpr(While->Cond);
    OnStmt(While->Body);
    return;
  }
  case StmtKind::For: {
    auto *For = cast<ForStmt>(S);
    if (For->Init)
      OnStmt(For->Init);
    if (For->Cond)
      OnExpr(For->Cond);
    if (For->Step)
      OnExpr(For->Step);
    OnStmt(For->Body);
    return;
  }
  case StmtKind::Return:
    if (Expr *Value = cast<ReturnStmt>(S)->Value)
      OnExpr(Value);
    return;
  case StmtKind::ExprStmt:
    OnExpr(cast<ExprStmt>(S)->E);
    return;
  case StmtKind::DeclStmt:
    if (Expr *Init = cast<DeclStmt>(S)->Init)
      OnExpr(Init);
    return;
  case StmtKind::Spawn:
    if (Expr *Arg = cast<SpawnStmt>(S)->Arg)
      OnExpr(Arg);
    return;
  case StmtKind::Free:
    OnExpr(cast<FreeStmt>(S)->Ptr);
    return;
  case StmtKind::Break:
  case StmtKind::Continue:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

enum class StorageKind : uint8_t { Global, Local, Param, Field };

class VarDecl {
public:
  std::string Name;
  TypeNode *DeclType;
  StorageKind Storage;
  SourceLoc Loc;
  /// For fields: index within the struct.
  unsigned FieldIndex = 0;
  /// Owning struct for fields.
  StructDecl *Parent = nullptr;

  VarDecl(std::string Name, TypeNode *DeclType, StorageKind Storage,
          SourceLoc Loc)
      : Name(std::move(Name)), DeclType(DeclType), Storage(Storage),
        Loc(Loc) {}
};

class StructDecl {
public:
  std::string Name;
  std::vector<VarDecl *> Fields;
  SourceLoc Loc;
  bool IsDefined = false;

  VarDecl *findField(std::string_view FieldName) const {
    for (VarDecl *Field : Fields)
      if (Field->Name == FieldName)
        return Field;
    return nullptr;
  }
};

/// Read/write summary for a builtin parameter (Section 4.4: trusted
/// annotations summarizing library calls let non-private actuals pass).
struct ParamSummary {
  bool ReadsPointee = false;
  bool WritesPointee = false;
};

class FuncDecl {
public:
  std::string Name;
  TypeNode *RetType = nullptr;
  std::vector<VarDecl *> Params;
  BlockStmt *Body = nullptr; ///< Null for builtins.
  SourceLoc Loc;
  bool IsBuiltin = false;
  std::vector<ParamSummary> Summaries; ///< Builtin-only, indexed by param.
  TypeNode *FuncType = nullptr;        ///< TypeKind::Func view of this decl.
};

//===----------------------------------------------------------------------===//
// ASTContext and Program
//===----------------------------------------------------------------------===//

/// Owns every AST node, type node, and declaration of one program.
class ASTContext {
public:
  template <typename NodeT, typename... ArgTs> NodeT *makeExpr(ArgTs &&...Args) {
    auto Node = std::make_unique<NodeT>(std::forward<ArgTs>(Args)...);
    NodeT *Raw = Node.get();
    Exprs.push_back(std::move(Node));
    return Raw;
  }

  template <typename NodeT, typename... ArgTs> NodeT *makeStmt(ArgTs &&...Args) {
    auto Node = std::make_unique<NodeT>(std::forward<ArgTs>(Args)...);
    NodeT *Raw = Node.get();
    Stmts.push_back(std::move(Node));
    return Raw;
  }

  TypeNode *makeType(TypeKind Kind, SourceLoc Loc = SourceLoc()) {
    auto Node = std::make_unique<TypeNode>();
    Node->Kind = Kind;
    Node->Loc = Loc;
    TypeNode *Raw = Node.get();
    Types.push_back(std::move(Node));
    return Raw;
  }

  /// Deep-copies a type tree (fresh nodes, same struct references). Used
  /// when one syntactic type describes several positions that must infer
  /// independently.
  TypeNode *cloneType(const TypeNode *T);

  VarDecl *makeVar(std::string Name, TypeNode *DeclType, StorageKind Storage,
                   SourceLoc Loc) {
    auto Node =
        std::make_unique<VarDecl>(std::move(Name), DeclType, Storage, Loc);
    VarDecl *Raw = Node.get();
    Vars.push_back(std::move(Node));
    return Raw;
  }

  StructDecl *makeStruct(std::string Name, SourceLoc Loc) {
    auto Node = std::make_unique<StructDecl>();
    Node->Name = std::move(Name);
    Node->Loc = Loc;
    StructDecl *Raw = Node.get();
    Structs.push_back(std::move(Node));
    return Raw;
  }

  FuncDecl *makeFunc(std::string Name, SourceLoc Loc) {
    auto Node = std::make_unique<FuncDecl>();
    Node->Name = std::move(Name);
    Node->Loc = Loc;
    FuncDecl *Raw = Node.get();
    Funcs.push_back(std::move(Node));
    return Raw;
  }

  /// Visits every TypeNode ever created (used by the sharing analysis's
  /// final resolution pass). Indexed iteration so visitors may create new
  /// types while running; the new types are visited too.
  template <typename FnT> void forEachType(FnT Fn) {
    for (size_t I = 0; I < Types.size(); ++I)
      Fn(Types[I].get());
  }

private:
  std::vector<std::unique_ptr<Expr>> Exprs;
  std::vector<std::unique_ptr<Stmt>> Stmts;
  std::vector<std::unique_ptr<TypeNode>> Types;
  std::vector<std::unique_ptr<VarDecl>> Vars;
  std::vector<std::unique_ptr<StructDecl>> Structs;
  std::vector<std::unique_ptr<FuncDecl>> Funcs;
};

/// A parsed MiniC translation unit.
class Program {
public:
  ASTContext Context;
  std::vector<StructDecl *> Structs;
  std::vector<VarDecl *> Globals;
  std::vector<FuncDecl *> Funcs;

  FuncDecl *findFunc(std::string_view Name) const {
    for (FuncDecl *F : Funcs)
      if (F->Name == Name)
        return F;
    return nullptr;
  }
  VarDecl *findGlobal(std::string_view Name) const {
    for (VarDecl *G : Globals)
      if (G->Name == Name)
        return G;
    return nullptr;
  }
  StructDecl *findStruct(std::string_view Name) const {
    for (StructDecl *S : Structs)
      if (S->Name == Name)
        return S;
    return nullptr;
  }
};

} // namespace minic
} // namespace sharc

#endif // SHARC_MINIC_AST_H
