//===-- analysis/CallGraph.cpp --------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"

#include <algorithm>
#include <deque>

using namespace sharc;
using namespace sharc::analysis;
using namespace sharc::minic;

CallGraph::CallGraph(Program &Prog) : Prog(Prog) {
  for (FuncDecl *F : Prog.Funcs)
    if (F->Body)
      scanStmt(F, F->Body);
}

void CallGraph::addEdge(FuncDecl *From, FuncDecl *To) {
  auto &List = Edges[From];
  if (std::find(List.begin(), List.end(), To) == List.end())
    List.push_back(To);
}

void CallGraph::addIndirectEdges(FuncDecl *From, const TypeNode *FnType) {
  // A function pointer may alias any type-compatible function ("sound
  // under our type and memory safety assumption").
  for (FuncDecl *Candidate : Prog.Funcs) {
    if (Candidate->IsBuiltin || !Candidate->FuncType)
      continue;
    if (sameShape(Candidate->FuncType, FnType))
      addEdge(From, Candidate);
  }
}

void CallGraph::scanStmt(FuncDecl *F, Stmt *S) {
  forEachChild(
      S, [&](Stmt *Child) { scanStmt(F, Child); },
      [&](Expr *E) { scanExpr(F, E); });
  if (auto *Spawn = dyn_cast<SpawnStmt>(S); Spawn && Spawn->Callee) {
    SpawnRoots.push_back(Spawn->Callee);
    addEdge(F, Spawn->Callee);
  }
}

void CallGraph::scanExpr(FuncDecl *F, Expr *E) {
  forEachChild(E, [&](Expr *Child) { scanExpr(F, Child); });
  auto *Call = dyn_cast<CallExpr>(E);
  if (!Call)
    return;
  if (auto *Name = dyn_cast<NameExpr>(Call->Callee)) {
    if (Name->Func) {
      addEdge(F, Name->Func);
      return;
    }
  }
  // Indirect call: use the callee expression's type.
  const TypeNode *CalleeType = Call->Callee->ExprType;
  if (CalleeType && CalleeType->isPointer())
    CalleeType = CalleeType->Pointee;
  if (CalleeType && CalleeType->isFunc())
    addIndirectEdges(F, CalleeType);
}

const std::vector<FuncDecl *> &CallGraph::calleesOf(FuncDecl *F) const {
  auto It = Edges.find(F);
  return It == Edges.end() ? Empty : It->second;
}

std::set<FuncDecl *>
CallGraph::reachableFrom(const std::vector<FuncDecl *> &Roots) const {
  std::set<FuncDecl *> Seen;
  std::deque<FuncDecl *> Work(Roots.begin(), Roots.end());
  while (!Work.empty()) {
    FuncDecl *F = Work.front();
    Work.pop_front();
    if (!Seen.insert(F).second)
      continue;
    for (FuncDecl *Callee : calleesOf(F))
      Work.push_back(Callee);
  }
  return Seen;
}
