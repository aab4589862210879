//===--- SolverFactory.cpp - Solver backend registry ----------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/SolverFactory.h"

#include "solver/DnfSolver.h"
#include "solver/SmtSolver.h"

#include <map>
#include <mutex>

using namespace mix::smt;

namespace {

using BackendFactory =
    std::function<std::unique_ptr<ISolver>(TermArena &, const SmtOptions &)>;

struct Registry {
  std::mutex M;
  std::map<std::string, BackendFactory> Factories; // name-sorted

  Registry() {
    Factories["smtlite"] = [](TermArena &A, const SmtOptions &O) {
      return std::unique_ptr<ISolver>(new SmtSolver(A, O));
    };
    Factories["dnf"] = [](TermArena &A, const SmtOptions &O) {
      return std::unique_ptr<ISolver>(new DnfSolver(A, O));
    };
  }
};

Registry &registry() {
  static Registry R;
  return R;
}

} // namespace

bool mix::smt::registerSolverBackend(const std::string &Name,
                                     BackendFactory Factory) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return R.Factories.emplace(Name, std::move(Factory)).second;
}

std::vector<std::string> mix::smt::registeredBackends() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  std::vector<std::string> Names;
  Names.reserve(R.Factories.size());
  for (const auto &[Name, Factory] : R.Factories)
    Names.push_back(Name);
  return Names;
}

bool mix::smt::parseSolverBackend(const std::string &Name, SolverSpec &Out,
                                  std::string &Err) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  if (R.Factories.count(Name)) {
    Out.Backend = Name;
    return true;
  }
  Err = "unknown solver backend '" + Name + "' (available:";
  for (const auto &[Known, Factory] : R.Factories)
    Err += " " + Known;
  Err += ")";
  return false;
}

std::unique_ptr<ISolver> mix::smt::createBackend(const std::string &Name,
                                                 TermArena &Arena,
                                                 const SmtOptions &Opts) {
  BackendFactory Factory;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    auto It = R.Factories.find(Name);
    if (It == R.Factories.end())
      return nullptr;
    Factory = It->second;
  }
  return Factory(Arena, Opts);
}
