//===-- minic/ExprTyper.h - Shape typing for expressions --------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes Expr::ExprType for every expression in a program: the *shape*
/// level of typing (pointers, structs, fields), shared by the sharing
/// analysis (which needs type positions to attach qualifier variables to)
/// and the static checker (which validates qualifiers on top).
///
/// Where possible an expression's type IS the TypeNode of the cell it
/// denotes (variable decl types, field decl types, pointee nodes), so that
/// qualifier constraints generated against expression types directly
/// constrain the underlying declarations.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_MINIC_EXPRTYPER_H
#define SHARC_MINIC_EXPRTYPER_H

#include "minic/AST.h"
#include "support/Diagnostics.h"

namespace sharc {
namespace minic {

/// Fills in ExprType for all expressions of a program. Reports shape
/// errors (dereferencing a non-pointer, unknown fields, call arity
/// mismatches) through the DiagnosticEngine.
class ExprTyper {
public:
  ExprTyper(Program &Prog, DiagnosticEngine &Diags)
      : Prog(Prog), Diags(Diags) {}

  /// Types the whole program. \returns true if no shape errors occurred.
  bool run();

  /// Types a single expression (used recursively and by tests).
  TypeNode *typeExpr(Expr *E);

private:
  void typeStmt(Stmt *S);

  TypeNode *freshInt(SourceLoc Loc);
  TypeNode *freshBool(SourceLoc Loc);

  Program &Prog;
  DiagnosticEngine &Diags;
};

} // namespace minic
} // namespace sharc

#endif // SHARC_MINIC_EXPRTYPER_H
