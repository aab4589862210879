//===--- SolverFactory.h - Solver backend registry --------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name-keyed registry of solver backends and the SolverSpec the driver
/// layer parses `--solver=` into. The built-in backends ("smtlite",
/// "dnf") self-register; tests may register extras.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_SOLVERFACTORY_H
#define MIX_SOLVER_SOLVERFACTORY_H

#include "solver/ISolver.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mix::smt {

/// Which backend to run. Every backend produces the same verdicts, so
/// the choice changes latency and the "decided by" attribution, never
/// findings.
struct SolverSpec {
  std::string Backend = "smtlite";
};

/// Validates and parses a `--solver=` value into \p Out. On failure
/// returns false with a message (listing the registered backends) in
/// \p Err.
bool parseSolverBackend(const std::string &Name, SolverSpec &Out,
                        std::string &Err);

/// Registered backend names, sorted (deterministic across runs).
std::vector<std::string> registeredBackends();

/// Registers a backend factory under \p Name (tests and extensions;
/// built-ins are pre-registered). Returns false if the name is taken.
bool registerSolverBackend(
    const std::string &Name,
    std::function<std::unique_ptr<ISolver>(TermArena &, const SmtOptions &)>
        Factory);

/// Creates the backend registered under \p Name over \p Arena. Returns
/// null for an unknown name.
std::unique_ptr<ISolver> createBackend(const std::string &Name,
                                       TermArena &Arena,
                                       const SmtOptions &Opts);

} // namespace mix::smt

#endif // MIX_SOLVER_SOLVERFACTORY_H
