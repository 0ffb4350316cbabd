//===-- fuzz/Minimizer.cpp ------------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Minimizer.h"

#include "analysis/SharingAnalysis.h"
#include "fuzz/Oracle.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"
#include "minic/Printer.h"

#include <memory>
#include <vector>

using namespace sharc;
using namespace sharc::minic;

namespace {

/// A deletable unit: one slot of some statement or declaration list.
struct Site {
  enum class Kind : uint8_t { BlockStmt, Global, Struct, Func };
  Kind K = Kind::BlockStmt;
  BlockStmt *Block = nullptr; ///< BlockStmt sites.
  size_t Index = 0;
};

void collectBlocks(Stmt *S, std::vector<BlockStmt *> &Blocks) {
  if (auto *B = dyn_cast<BlockStmt>(S))
    Blocks.push_back(B);
  forEachChild(
      S, [&](Stmt *Child) { collectBlocks(Child, Blocks); }, [](Expr *) {});
}

std::vector<Site> collectSites(Program &Prog) {
  std::vector<Site> Sites;
  // Statements first: most deletions that matter are inside bodies, and
  // removing a statement is the least disruptive shrink.
  std::vector<BlockStmt *> Blocks;
  for (FuncDecl *F : Prog.Funcs)
    if (!F->IsBuiltin && F->Body)
      collectBlocks(F->Body, Blocks);
  for (BlockStmt *B : Blocks)
    for (size_t I = 0; I < B->Body.size(); ++I)
      Sites.push_back({Site::Kind::BlockStmt, B, I});
  for (size_t I = 0; I < Prog.Funcs.size(); ++I)
    if (!Prog.Funcs[I]->IsBuiltin && Prog.Funcs[I]->Name != "main")
      Sites.push_back({Site::Kind::Func, nullptr, I});
  for (size_t I = 0; I < Prog.Globals.size(); ++I)
    Sites.push_back({Site::Kind::Global, nullptr, I});
  for (size_t I = 0; I < Prog.Structs.size(); ++I)
    Sites.push_back({Site::Kind::Struct, nullptr, I});
  return Sites;
}

/// Applies the deletion, prints, and restores the list. The AST was
/// inference-annotated before mutation, so the print carries qualifiers;
/// stripPolyMarkers makes it reparseable.
template <typename T>
std::string printWithout(Program &Prog, std::vector<T> &List, size_t Index) {
  T Saved = List[Index];
  List.erase(List.begin() + Index);
  std::string Text = fuzz::stripPolyMarkers(printProgram(Prog));
  List.insert(List.begin() + Index, Saved);
  return Text;
}

} // namespace

std::string sharc::fuzz::minimizeSource(
    const std::string &Source,
    const std::function<bool(const std::string &)> &StillFails,
    unsigned MaxCandidates) {
  std::string Best = Source;
  unsigned Budget = MaxCandidates;
  bool Progress = true;

  while (Progress && Budget > 0) {
    Progress = false;

    // Re-front-end the current best so deletions operate on a fresh,
    // annotated AST. If it stops compiling (e.g. the failure itself is a
    // front-end bug), structural shrinking is impossible; stop.
    SourceManager SM;
    FileId File = SM.addBuffer("min.mc", Best);
    DiagnosticEngine Diags(SM);
    Parser P(SM, File, Diags);
    std::unique_ptr<Program> Prog = P.parseProgram();
    if (Diags.hasErrors())
      break;
    ExprTyper Typer(*Prog, Diags);
    if (!Typer.run())
      break;
    analysis::SharingAnalysis SA(*Prog, Diags);
    if (!SA.run())
      break;

    for (const Site &S : collectSites(*Prog)) {
      if (Budget == 0)
        break;
      std::string Candidate;
      switch (S.K) {
      case Site::Kind::BlockStmt:
        Candidate = printWithout(*Prog, S.Block->Body, S.Index);
        break;
      case Site::Kind::Func:
        Candidate = printWithout(*Prog, Prog->Funcs, S.Index);
        break;
      case Site::Kind::Global:
        Candidate = printWithout(*Prog, Prog->Globals, S.Index);
        break;
      case Site::Kind::Struct:
        Candidate = printWithout(*Prog, Prog->Structs, S.Index);
        break;
      }
      --Budget;
      if (Candidate.size() < Best.size() && StillFails(Candidate)) {
        Best = Candidate;
        Progress = true;
        break; // Sites are stale; re-enumerate from the new best.
      }
    }
  }
  return Best;
}
