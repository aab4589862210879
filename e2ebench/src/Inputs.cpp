//===--- Inputs.cpp - Seeded benchmark inputs with known answers ----------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "mixy/VsftpdMini.h"

#include <random>

using namespace e2e;

namespace {

/// Seeded source of choices. mt19937_64's output sequence is fixed by the
/// standard, and only `%` is applied to it, so a seed yields the same
/// inputs on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : Gen(Seed) {}
  unsigned below(unsigned N) { return (unsigned)(Gen() % N); }
  bool chance(unsigned OneIn) { return below(OneIn) == 0; }

private:
  std::mt19937_64 Gen;
};

/// Distinct seeds for independent streams drawn from one user seed.
uint64_t streamSeed(uint64_t Seed, uint64_t Stream) {
  return Seed * 0x9E3779B97F4A7C15ull + Stream;
}

std::string renderModule(const FillerModule &M) {
  static const char *Params[5] = {"a", "b", "c", "d", "e"};
  std::string N = M.Name;
  std::string Out;
  Out += "int *fill_src_" + N + "(int *p) { return p; }\n";
  Out += "int *fill_mid_" + N + "(int *p) { return fill_src_" + N + "(p); }\n";
  Out += "void fill_use_" + N + "(int *p, int a, int b, int c, int d, int e)" +
         std::string(M.Symbolic ? " MIX(symbolic)" : "") + " {\n";
  Out += "  int acc;\n  acc = 0;\n";
  // The cascade gives a symbolic block 2^5 paths, as in the corpus's own
  // scaled filler; the first test compares against a constant, the rest
  // chain the parameters.
  for (unsigned I = 0; I != 5; ++I) {
    std::string Rhs =
        I == 0 ? std::to_string(M.Bound) : std::string(Params[I - 1]);
    std::string Inc = std::to_string(M.Incs[I]);
    Out += "  if (" + std::string(Params[I]) + " " + M.Ops[I] + " " + Rhs +
           ") { acc = acc + " + Inc + "; } else { acc = acc - " + Inc +
           "; }\n";
  }
  Out += "  int *q = fill_mid_" + N + "(p);\n";
  Out += "  if (q != NULL) { if (acc > " + std::to_string(M.Threshold) +
         ") { sysutil_free((void*)q); } }\n";
  Out += "}\n";
  return Out;
}

} // namespace

std::string MixyProgram::source() const {
  // Without the corpus, the filler still needs the declarations of the
  // corpus prelude (the first four lines of vsftpdFull).
  std::string Out = WithCorpus ? mix::c::corpus::vsftpdFull(/*Annotated=*/true)
                               : "\nstruct sockaddr { int sa_family; };\n"
                                 "struct mystr { char *pbuf; };\n"
                                 "void sysutil_free(void * nonnull p_ptr) "
                                 "MIX(typed);\n";
  for (const FillerModule &M : Modules)
    Out += renderModule(M);
  Out += "int filler_main(void) {\n  int x;\n  x = 0;\n";
  for (const FillerModule &M : Modules) {
    Out += "  fill_use_" + M.Name + "(&x";
    for (int A : M.Args)
      Out += ", " + std::to_string(A);
    Out += ");\n";
  }
  Out += WithCorpus ? "  return main();\n}\n" : "  return 0;\n}\n";
  return Out;
}

MixyProgram e2e::makeMixyProgram(uint64_t Seed, unsigned Modules,
                                 unsigned SymbolicBlocks, bool WithCorpus) {
  Rng R(streamSeed(Seed, 1));
  MixyProgram P;
  P.WithCorpus = WithCorpus;
  // A per-seed salt in every filler name, so the names differ between
  // seeds too, not only the constants.
  std::string Salt = std::to_string(Seed % 100000);
  for (unsigned I = 0; I != Modules; ++I) {
    FillerModule M;
    M.Name = "s" + Salt + "_" + std::to_string(I);
    M.Bound = (int)R.below(10);
    for (unsigned B = 0; B != 5; ++B) {
      M.Ops[B] = R.chance(2) ? '<' : '>';
      M.Incs[B] = 1 + (int)R.below(9);
      M.Args[B] = (int)R.below(10);
    }
    M.Threshold = (int)R.below(4);
    P.Modules.push_back(M);
  }
  // Partial Fisher-Yates: the first SymbolicBlocks picks are symbolic.
  std::vector<unsigned> Order(Modules);
  for (unsigned I = 0; I != Modules; ++I)
    Order[I] = I;
  for (unsigned I = 0; I != SymbolicBlocks && I < Modules; ++I) {
    unsigned J = I + R.below(Modules - I);
    std::swap(Order[I], Order[J]);
    P.Modules[Order[I]].Symbolic = true;
  }
  return P;
}

std::vector<MixyEdit> e2e::makeMixyEdits(uint64_t Seed, const MixyProgram &P,
                                         unsigned Count) {
  std::vector<unsigned> Symbolic;
  for (unsigned I = 0; I != P.Modules.size(); ++I)
    if (P.Modules[I].Symbolic)
      Symbolic.push_back(I);
  std::vector<MixyEdit> Out;
  if (Symbolic.empty())
    return Out;
  Rng R(streamSeed(Seed, 2));
  for (unsigned I = 0; I != Count; ++I) {
    MixyEdit E;
    E.Module = Symbolic[R.below((unsigned)Symbolic.size())];
    E.Branch = R.below(5);
    E.Value = 10 + (int)R.below(1000000);
    Out.push_back(E);
  }
  return Out;
}

MixyProgram e2e::applyEdit(MixyProgram P, const MixyEdit &E) {
  P.Modules[E.Module].Incs[E.Branch] = E.Value;
  return P;
}

//===----------------------------------------------------------------------===//
// Core-language programs
//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, std::string>> &e2e::coreGamma() {
  static const std::vector<std::pair<std::string, std::string>> Gamma = {
      {"x", "int"}, {"y", "int"}, {"b", "bool"}, {"p", "int ref"}};
  return Gamma;
}

namespace {

/// Type-directed generator over Gamma = {x, y : int; b : bool; p : int
/// ref}. Every expression it returns has the requested type; analysis
/// blocks are sprinkled in, and the generator tracks whether the
/// innermost enclosing block is symbolic so a dead type error is only
/// ever planted where symbolic execution, not type checking, sees it.
class CoreGen {
public:
  CoreGen(Rng &R) : R(R) {}

  struct Scope {
    std::vector<std::string> Ints = {"x", "y"};
    std::vector<std::string> Bools = {"b"};
    std::vector<std::string> Refs = {"p"};
    bool Symbolic = false; ///< innermost enclosing block is {s ... s}
  };

  /// When set, the next symbolic-context int site becomes a guarded
  /// dead type error (consumed once).
  bool PlantDeadError = false;

  /// Branch points generated where symbolic execution runs them (if,
  /// and, or). Paths, and so a program's cost, grow exponentially in
  /// this count.
  unsigned SymBranches = 0;

  std::string genInt(const Scope &S, unsigned Depth) {
    return maybeBlock(S, Depth, [&](const Scope &In) {
      return genIntRaw(In, Depth);
    });
  }

  std::string genBool(const Scope &S, unsigned Depth) {
    return maybeBlock(S, Depth, [&](const Scope &In) {
      return genBoolRaw(In, Depth);
    });
  }

  static std::string lit(int V) {
    return V < 0 ? "(0 - " + std::to_string(-V) + ")" : std::to_string(V);
  }

private:
  template <typename Fn>
  std::string maybeBlock(const Scope &S, unsigned Depth, Fn Gen) {
    if (Depth == 0 || !R.chance(5))
      return Gen(S);
    Scope In = S;
    In.Symbolic = R.chance(2);
    std::string Body = Gen(In);
    return In.Symbolic ? "{s " + Body + " s}" : "{t " + Body + " t}";
  }

  // Every draw is sequenced through a named local: the operands of `+`
  // are unsequenced, and the inputs must not depend on the compiler's
  // evaluation order.
  std::string genIntRaw(const Scope &S, unsigned Depth) {
    if (PlantDeadError && S.Symbolic && Depth > 0) {
      PlantDeadError = false;
      // v < v holds for no v: the then-arm is unreachable, and only a
      // symbolic block can tell.
      ++SymBranches;
      std::string V = pick(S.Ints);
      std::string Else = genInt(S, Depth - 1);
      return "(if (" + V + " < " + V + ") then (1 + true) else " + Else + ")";
    }
    if (Depth == 0) {
      if (R.chance(2))
        return pick(S.Ints);
      return lit((int)R.below(9) - 4);
    }
    if (R.chance(8)) {
      std::string Param = fresh();
      Scope Inner = S;
      Inner.Ints.push_back(Param);
      std::string Body = genInt(Inner, Depth - 1);
      std::string Arg = genInt(S, Depth - 1);
      return "((fun (" + Param + ": int) : int -> " + Body + ") " + Arg + ")";
    }
    switch (R.below(8)) {
    case 0:
    case 1: {
      const char *Op = R.chance(2) ? " + " : " - ";
      std::string L = genInt(S, Depth - 1);
      std::string Rt = genInt(S, Depth - 1);
      return "(" + L + Op + Rt + ")";
    }
    case 2: {
      SymBranches += S.Symbolic;
      std::string C = genBool(S, Depth - 1);
      std::string T = genInt(S, Depth - 1);
      std::string E = genInt(S, Depth - 1);
      return "(if " + C + " then " + T + " else " + E + ")";
    }
    case 3: {
      std::string Name = fresh();
      std::string Init = genInt(S, Depth - 1);
      Scope Inner = S;
      Inner.Ints.push_back(Name);
      std::string Body = genInt(Inner, Depth - 1);
      return "(let " + Name + " = " + Init + " in " + Body + ")";
    }
    case 4: {
      std::string Name = fresh();
      std::string Init = genInt(S, Depth - 1);
      Scope Inner = S;
      Inner.Refs.push_back(Name);
      std::string Body = genInt(Inner, Depth - 1);
      return "(let " + Name + " = (ref " + Init + ") in " + Body + ")";
    }
    case 5:
      return "(!" + pick(S.Refs) + ")";
    case 6: {
      std::string Target = pick(S.Refs);
      std::string Value = genInt(S, Depth - 1);
      return "(" + Target + " := " + Value + ")";
    }
    default: {
      std::string First = genBool(S, Depth - 1);
      std::string Second = genInt(S, Depth - 1);
      return "(" + First + "; " + Second + ")";
    }
    }
  }

  std::string genBoolRaw(const Scope &S, unsigned Depth) {
    if (Depth == 0) {
      if (R.chance(2))
        return pick(S.Bools);
      return R.chance(2) ? "true" : "false";
    }
    switch (R.below(6)) {
    case 0: {
      static const char *Ops[3] = {" = ", " < ", " <= "};
      const char *Op = Ops[R.below(3)];
      std::string L = genInt(S, Depth - 1);
      std::string Rt = genInt(S, Depth - 1);
      return "(" + L + Op + Rt + ")";
    }
    case 1: {
      SymBranches += S.Symbolic;
      const char *Op = R.chance(2) ? " and " : " or ";
      std::string L = genBool(S, Depth - 1);
      std::string Rt = genBool(S, Depth - 1);
      return "(" + L + Op + Rt + ")";
    }
    case 2:
      return "(not " + genBool(S, Depth - 1) + ")";
    case 3: {
      SymBranches += S.Symbolic;
      std::string C = genBool(S, Depth - 1);
      std::string T = genBool(S, Depth - 1);
      std::string E = genBool(S, Depth - 1);
      return "(if " + C + " then " + T + " else " + E + ")";
    }
    default:
      return genBoolRaw(S, 0);
    }
  }

  std::string pick(const std::vector<std::string> &V) {
    return V[R.below((unsigned)V.size())];
  }

  std::string fresh() { return std::string("v") + std::to_string(Counter++); }

  Rng &R;
  unsigned Counter = 1;
};

} // namespace

std::vector<CoreProgram> e2e::makeCorePrograms(uint64_t Seed, unsigned Count,
                                               unsigned Depth) {
  // Programs with more symbolic branch points are drawn again: path
  // counts grow exponentially, and without the cap a handful of programs
  // would take most of a run's time, so the run's throughput would
  // depend on which few programs the seed happened to draw.
  constexpr unsigned MaxSymBranches = 6;
  Rng R(streamSeed(Seed, 3));
  std::vector<CoreProgram> Out;
  while (Out.size() != Count) {
    CoreGen G(R);
    CoreProgram P;
    // One program in eight carries a type error in the typed prefix
    // (always reached by the type checker), one in eight a dead one
    // inside the symbolic body.
    unsigned Roll = R.below(8);
    P.K = Roll == 0   ? CoreProgram::Kind::TypedError
          : Roll == 1 ? CoreProgram::Kind::DeadSymbolicError
                      : CoreProgram::Kind::WellTyped;
    CoreGen::Scope Typed;
    std::string Prefix = G.genInt(Typed, 2);
    if (P.K == CoreProgram::Kind::TypedError)
      Prefix = std::string("(") + Prefix + " + true)";
    CoreGen::Scope Body;
    Body.Ints.push_back("v0");
    Body.Symbolic = true;
    G.PlantDeadError = P.K == CoreProgram::Kind::DeadSymbolicError;
    bool IsInt = R.chance(2);
    std::string Main = IsInt ? G.genInt(Body, Depth) : G.genBool(Body, Depth);
    if (G.PlantDeadError) {
      // The body drew no int site of positive depth; plant at the top.
      Main = "(if (x < x) then (1 + true) else " +
             (IsInt ? Main : std::string("0")) + ")";
      IsInt = true;
    }
    if (G.SymBranches > MaxSymBranches)
      continue;
    P.Source = "(let v0 = " + Prefix + " in {s " + Main + " s})";
    P.Accepted = P.K != CoreProgram::Kind::TypedError;
    P.Type = P.Accepted ? (IsInt ? "int" : "bool") : "";
    Out.push_back(std::move(P));
  }
  return Out;
}
