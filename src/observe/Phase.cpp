//===--- Phase.cpp - Request telemetry and RAII phase timers ----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "observe/Phase.h"

using namespace mix::obs;

const char *mix::obs::phaseName(Phase P) {
  switch (P) {
  case Phase::Parse:
    return "parse";
  case Phase::Typecheck:
    return "typecheck";
  case Phase::Fixpoint:
    return "fixpoint";
  case Phase::BlockExec:
    return "block-exec";
  case Phase::Solver:
    return "solver";
  case Phase::Render:
    return "render";
  }
  return "unknown";
}

const char *mix::obs::phaseSpanName(Phase P) {
  switch (P) {
  case Phase::Parse:
    return "phase.parse";
  case Phase::Typecheck:
    return "phase.typecheck";
  case Phase::Fixpoint:
    return "phase.fixpoint";
  case Phase::BlockExec:
    return "phase.block-exec";
  case Phase::Solver:
    return "phase.solver";
  case Phase::Render:
    return "phase.render";
  }
  return "phase.unknown";
}
