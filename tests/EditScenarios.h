//===--- EditScenarios.h - Programs and the edits a warm cache must see ---===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Used by MixyPersistTest and ServiceTest: programs paired with an edit
// after which a run that replays the first program's block summaries
// must still answer exactly as a run without a cache. Each edit once
// broke that: three moved a block without changing its printed form, so
// its summary replayed stale positions, and in the fourth a summary
// lacked a warning that an earlier block had reported first.
//
//===----------------------------------------------------------------------===//

#ifndef MIX_TESTS_EDITSCENARIOS_H
#define MIX_TESTS_EDITSCENARIOS_H

#include <string>
#include <vector>

namespace mix::testgen {

struct EditScenario {
  const char *Name;
  std::string Before;
  std::string After;
};

/// Replaces the first \p From in \p S with \p To.
inline std::string editOnce(std::string S, const std::string &From,
                            const std::string &To) {
  S.replace(S.find(From), From.size(), To);
  return S;
}

inline std::vector<EditScenario> editScenarios() {
  // use's dereference warns from inside its block run, and its typed
  // call to sink seeds a null whose flow note points into use.
  const std::string Base = "int *g_p;\n"
                           "int *g_q;\n"
                           "int other(int v) {\n"
                           "  return v + 1;\n"
                           "}\n"
                           "void sink(int * nonnull p) MIX(typed) {\n"
                           "}\n"
                           "void use(void) MIX(symbolic) {\n"
                           "  int x;\n"
                           "  x = *g_p;\n"
                           "  sink(g_q);\n"
                           "}\n"
                           "int main(void) {\n"
                           "  g_p = NULL;\n"
                           "  g_q = NULL;\n"
                           "  use();\n"
                           "  return other(1);\n"
                           "}\n";
  // a and b both pass a null to h, which dereferences it. a runs first;
  // the edit takes h out of a, so only b's summary can report it.
  const std::string SharedCallee = "void h(int *p) {\n"
                                   "  *p = 1;\n"
                                   "}\n"
                                   "void a(int *p) MIX(symbolic) {\n"
                                   "  h(p);\n"
                                   "}\n"
                                   "void b(int *p) MIX(symbolic) {\n"
                                   "  h(p);\n"
                                   "}\n"
                                   "int main(void) {\n"
                                   "  a(NULL);\n"
                                   "  b(NULL);\n"
                                   "  return 0;\n"
                                   "}\n";
  return {
      {"comment_above_unrelated_function", Base,
       editOnce(Base, "int other(", "// other adds one\nint other(")},
      {"blank_line_inside_the_block", Base,
       editOnce(Base, "  int x;\n", "  int x;\n\n")},
      {"line_among_the_globals", Base,
       editOnce(Base, "int *g_q;", "// the second global\nint *g_q;")},
      {"shared_callee", SharedCallee,
       editOnce(SharedCallee, "void a(int *p) MIX(symbolic) {\n  h(p);",
                "void a(int *p) MIX(symbolic) {\n  p = p;")},
  };
}

} // namespace mix::testgen

#endif // MIX_TESTS_EDITSCENARIOS_H
