//===--- TermEval.cpp - Concrete term evaluation --------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/TermEval.h"

#include <cassert>

using namespace mix::smt;

long long mix::smt::evalInt(const Term *T, const SmtModel &Model) {
  switch (T->kind()) {
  case TermKind::IntConst:
    return T->value();
  case TermKind::IntVar:
    return Model.intValue(T->varId());
  case TermKind::Add:
    return evalInt(T->operand(0), Model) + evalInt(T->operand(1), Model);
  case TermKind::Sub:
    return evalInt(T->operand(0), Model) - evalInt(T->operand(1), Model);
  case TermKind::Neg:
    return -evalInt(T->operand(0), Model);
  case TermKind::MulConst:
    return T->value() * evalInt(T->operand(0), Model);
  case TermKind::IteInt:
    return evalBool(T->operand(0), Model) ? evalInt(T->operand(1), Model)
                                          : evalInt(T->operand(2), Model);
  default:
    assert(false && "evalInt() on a boolean term");
    return 0;
  }
}

bool mix::smt::evalBool(const Term *T, const SmtModel &Model) {
  switch (T->kind()) {
  case TermKind::BoolConst:
    return T->value() != 0;
  case TermKind::BoolVar:
    return Model.boolValue(T->varId());
  case TermKind::EqInt:
    return evalInt(T->operand(0), Model) == evalInt(T->operand(1), Model);
  case TermKind::Lt:
    return evalInt(T->operand(0), Model) < evalInt(T->operand(1), Model);
  case TermKind::Le:
    return evalInt(T->operand(0), Model) <= evalInt(T->operand(1), Model);
  case TermKind::EqBool:
    return evalBool(T->operand(0), Model) == evalBool(T->operand(1), Model);
  case TermKind::Not:
    return !evalBool(T->operand(0), Model);
  case TermKind::And:
    return evalBool(T->operand(0), Model) && evalBool(T->operand(1), Model);
  case TermKind::Or:
    return evalBool(T->operand(0), Model) || evalBool(T->operand(1), Model);
  case TermKind::Implies:
    return !evalBool(T->operand(0), Model) || evalBool(T->operand(1), Model);
  case TermKind::IteBool:
    return evalBool(T->operand(0), Model) ? evalBool(T->operand(1), Model)
                                          : evalBool(T->operand(2), Model);
  default:
    assert(false && "evalBool() on an integer term");
    return false;
  }
}
