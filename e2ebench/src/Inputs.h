//===--- Inputs.h - Seeded benchmark inputs with known answers --*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Input generators for the end-to-end benchmark. Every generator is a
/// pure function of its seed (same seed, byte-identical output) and
/// returns, beside the source text, the answer the analysis must give.
/// The answers are fixed by construction and by the documented case
/// studies, never by running the analysis:
///
///  - mini-C programs are seeded filler modules, clean by construction
///    (the only pointer they free is `&x`, passed down a helper chain and
///    null-checked before the free), optionally behind the merged vsftpd
///    corpus, whose one residual warning is documented in EXPERIMENTS.md
///    ("E1-E4").
///  - core-language programs are type-directed: well-typed programs the
///    checker must accept at the generated type, programs with a type
///    error in code the type checker always reaches (must be rejected),
///    and programs whose only type error sits on a branch of a symbolic
///    block that no input can take (must be accepted: Section 2's point
///    that symbolic execution ignores infeasible paths).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_E2EBENCH_INPUTS_H
#define MIX_E2EBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// One generated filler module of a mini-C program.
struct FillerModule {
  std::string Name;       ///< unique suffix of the module's functions
  bool Symbolic = false;  ///< the use function carries MIX(symbolic)
  char Ops[5] = {};       ///< '<' or '>' per branch of the cascade
  int Bound = 0;          ///< right-hand constant of the first branch test
  int Incs[5] = {};       ///< per-branch accumulator increments
  int Threshold = 0;      ///< the free happens only when acc > Threshold
  int Args[5] = {};       ///< scalar arguments filler_main passes
};

/// A mini-C program: filler modules reached from the entry
/// `filler_main`, after the annotated vsftpd corpus (whose `main` the
/// entry then calls) or after just the corpus's `sysutil_free` prelude.
struct MixyProgram {
  bool WithCorpus = true;
  std::vector<FillerModule> Modules;

  /// The full translation unit.
  std::string source() const;
};

/// The answer a MixyProgram must get. With the corpus: exactly one
/// warning, the corpus's documented alias-restoration residual, reported
/// at the nonnull parameter of `sysutil_free` (line 4 of the prelude).
/// Without it: clean.
struct MixyAnswer {
  explicit MixyAnswer(bool WithCorpus)
      : Exit(WithCorpus ? 1 : 0), Warnings(WithCorpus ? 1 : 0) {}
  int Exit;
  unsigned Warnings;
  unsigned WarningLine = 4;
  std::string WarningText = "param p_ptr of sysutil_free";
};

/// Builds a program with \p Modules filler modules, \p SymbolicBlocks of
/// them (seeded choice) annotated MIX(symbolic).
MixyProgram makeMixyProgram(uint64_t Seed, unsigned Modules,
                            unsigned SymbolicBlocks, bool WithCorpus = true);

/// One editor change: set the increment of branch \p Branch of module
/// \p Module to \p Value. The program stays clean (increments only move
/// the accumulator; the free stays null-checked).
struct MixyEdit {
  unsigned Module = 0;
  unsigned Branch = 0;
  int Value = 0;
};

/// Seeded edits that touch only the MIX(symbolic) modules of \p P, so
/// each one dirties a persisted symbolic block (and the blocks whose
/// dependency closure reaches it). Values are drawn from a range wide
/// enough that a repeated edit is rare.
std::vector<MixyEdit> makeMixyEdits(uint64_t Seed, const MixyProgram &P,
                                    unsigned Count);

/// \p P with \p E applied.
MixyProgram applyEdit(MixyProgram P, const MixyEdit &E);

/// The free variables every core program may use (Gamma), as the
/// (name, type) pairs an AnalysisRequest carries.
const std::vector<std::pair<std::string, std::string>> &coreGamma();

/// One core-language program and its known answer.
struct CoreProgram {
  enum class Kind { WellTyped, TypedError, DeadSymbolicError };
  Kind K = Kind::WellTyped;
  std::string Source;
  bool Accepted = true;
  std::string Type; ///< "int" or "bool" when accepted
};

/// \p Count programs of shape `let v = <typed> in {s <body> s}` with
/// typed and symbolic blocks nested in the body down to \p Depth and at
/// most six symbolic branch points. Negative literals are written
/// `(0 - n)`: the core parser has no unary minus.
std::vector<CoreProgram> makeCorePrograms(uint64_t Seed, unsigned Count,
                                          unsigned Depth);

} // namespace e2e

#endif // MIX_E2EBENCH_INPUTS_H
