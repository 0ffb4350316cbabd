//===-- checker/Instrumentation.h - Inserted runtime checks -----*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static checker's output: for every l-value occurrence that needs a
/// runtime check (Figure 4's `when` guards), an AccessCheck record keyed
/// by the expression node. The interpreter executes these as the
/// operational semantics' chkread/chkwrite (Figure 6) and the lock-held
/// check of Section 4.2.2. Sharing casts (oneref) are intrinsic to
/// ScastExpr and are not recorded here.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_CHECKER_INSTRUMENTATION_H
#define SHARC_CHECKER_INSTRUMENTATION_H

#include "minic/AST.h"

#include <unordered_map>
#include <vector>

namespace sharc {
namespace checker {

/// One runtime check attached to an l-value occurrence.
struct AccessCheck {
  enum class Kind : uint8_t {
    Read,       ///< chkread of the denoted cell (dynamic mode)
    Write,      ///< chkwrite of the denoted cell (dynamic mode)
    Lock,       ///< exclusive lock-held check (locked mode; rwlocked writes)
    LockShared, ///< shared-or-exclusive hold check (rwlocked reads)
  };
  Kind K = Kind::Read;

  /// For Lock checks: the lock expression. When it names a struct field
  /// (locked(mut) inside the struct), LockBase is the instance expression
  /// to evaluate first; otherwise LockExpr is evaluated directly.
  minic::Expr *LockExpr = nullptr;
  minic::Expr *LockBase = nullptr;
  /// For Lock checks triggered by writes, both read and write intents
  /// share one lock check; IsWrite is informational.
  bool IsWrite = false;
};

/// All checks for one program, keyed by l-value occurrence. The
/// interpreter looks an occurrence up on every access it checks; no
/// caller depends on the order of the sites.
class Instrumentation {
public:
  void add(const minic::Expr *LValue, AccessCheck Check) {
    Checks[LValue].push_back(Check);
  }

  const std::vector<AccessCheck> *checksFor(const minic::Expr *LValue) const {
    auto It = Checks.find(LValue);
    return It == Checks.end() ? nullptr : &It->second;
  }

  size_t getNumChecks() const {
    size_t N = 0;
    for (const auto &[E, List] : Checks)
      N += List.size();
    return N;
  }

  size_t getNumInstrumentedSites() const { return Checks.size(); }

  /// Counts checks of one kind, for tests and the driver's summary.
  size_t countKind(AccessCheck::Kind K) const {
    size_t N = 0;
    for (const auto &[E, List] : Checks)
      for (const AccessCheck &C : List)
        if (C.K == K)
          ++N;
    return N;
  }

private:
  std::unordered_map<const minic::Expr *, std::vector<AccessCheck>> Checks;
};

} // namespace checker
} // namespace sharc

#endif // SHARC_CHECKER_INSTRUMENTATION_H
