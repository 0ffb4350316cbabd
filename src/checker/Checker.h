//===-- checker/Checker.h - SharC static semantics --------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static checker: Figure 4's typing judgments extended to full MiniC.
/// Runs after qualifier inference, verifies well-formedness, and emits the
/// runtime checks the dynamic semantics execute:
///
///   - REF-CTOR: a non-private reference must not point to private cells.
///   - Assignment/call/return compatibility: sub-top-level qualifiers must
///     match exactly; mismatches that a sharing cast could fix produce a
///     "suggest SCAST(...)" note (SharC suggests casts, it does not insert
///     them, since nulling the source may break the program).
///   - readonly cells are writable only when they are fields of a private
///     instance (the initialization exception of Section 2).
///   - Sharing casts may only change the outermost referent qualifier
///     ("you cannot cast from ref(dynamic ref(dynamic int)) to
///     ref(private ref(private int))").
///   - Lock expressions must be verifiably constant: unmodified locals or
///     readonly values.
///   - dynamic accesses get chkread/chkwrite; locked accesses get
///     lock-held checks, with struct-qualifier polymorphism resolved at
///     each access (a Poly field takes its instance's mode).
///   - A warning is emitted when a pointer local is definitely used after
///     being nulled by a sharing cast.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_CHECKER_CHECKER_H
#define SHARC_CHECKER_CHECKER_H

#include "checker/Instrumentation.h"
#include "minic/AST.h"
#include "support/Diagnostics.h"

#include <map>
#include <set>

namespace sharc {
namespace checker {

/// Effective sharing mode of an l-value occurrence, with the lock
/// expression and its instance base when the mode is Locked.
struct EffectiveMode {
  minic::Mode M = minic::Mode::Private;
  minic::Expr *LockExpr = nullptr;
  minic::Expr *LockBase = nullptr;
};

/// Runs the static semantics over an inference-annotated program.
class Checker {
public:
  Checker(minic::Program &Prog, DiagnosticEngine &Diags)
      : Prog(Prog), Diags(Diags) {}

  /// Checks the program and fills the instrumentation map.
  /// \returns true if no errors were reported.
  bool run();

  const Instrumentation &getInstrumentation() const { return Instr; }

  /// Computes the effective mode of an l-value (public for tests and the
  /// interpreter's diagnostics).
  EffectiveMode effectiveMode(minic::Expr *LValue);

private:
  void checkWellFormedType(const minic::TypeNode *T, SourceLoc Loc);
  void checkFunc(minic::FuncDecl *F);
  void checkStmt(minic::Stmt *S);
  /// Visits an expression in rvalue context: attaches read checks to
  /// l-value nodes and recurses.
  void checkExpr(minic::Expr *E);
  /// Visits an l-value used for its location only (address-of, dot-access
  /// base, assignment target): checks the base path, not the final cell.
  void visitLValuePath(minic::Expr *LV);
  /// Visits an assignment target: write check on the final cell, read
  /// checks on the base path.
  void checkLValueWrite(minic::Expr *LV, SourceLoc Loc);
  void checkAssignCompat(minic::TypeNode *Lhs, minic::TypeNode *Rhs,
                         minic::Expr *RhsExpr, SourceLoc Loc,
                         const char *What);
  void checkScast(minic::ScastExpr *Scast);
  void checkLockExprConstant(minic::Expr *Lock, SourceLoc Loc);
  void checkLiveAfterCast(minic::BlockStmt *Block);
  void attachAccessCheck(minic::Expr *LValue, bool IsWrite, SourceLoc Loc);

  /// \returns true if \p Var cannot be treated as an unmodified local for
  /// lock-constancy purposes: a parameter that is reassigned, or a local
  /// assigned more than once (one assignment is its initialization).
  bool isLocalModified(const minic::VarDecl *Var) const;

  minic::Program &Prog;
  DiagnosticEngine &Diags;
  Instrumentation Instr;
  minic::FuncDecl *CurrentFunc = nullptr;
  /// Number of assignments to each local/param in the current function
  /// (including declaration initializers, not SCAST null-outs).
  std::map<const minic::VarDecl *, unsigned> AssignCounts;
};

} // namespace checker
} // namespace sharc

#endif // SHARC_CHECKER_CHECKER_H
