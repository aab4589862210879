//===--- LinearArith.cpp - Linear integer arithmetic theory ---------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/LinearArith.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <numeric>

using namespace mix::smt;

long long &LinCoeffs::operator[](unsigned Var) {
  value_type *Begin = data(), *End = Begin + size();
  value_type *It = std::lower_bound(
      Begin, End, Var,
      [](const value_type &P, unsigned V) { return P.first < V; });
  if (It != End && It->first == Var)
    return It->second;
  size_t Pos = It - Begin;
  if (Spill.empty() && NumInline < InlineCapacity) {
    std::move_backward(Inline + Pos, Inline + NumInline,
                       Inline + NumInline + 1);
    Inline[Pos] = {Var, 0};
    ++NumInline;
    return Inline[Pos].second;
  }
  if (Spill.empty()) {
    Spill.reserve(2 * InlineCapacity);
    Spill.assign(Inline, Inline + NumInline);
    NumInline = 0;
  }
  return Spill.insert(Spill.begin() + Pos, {Var, 0})->second;
}

std::string LinConstraint::str() const {
  std::string Out;
  bool First = true;
  for (const auto &[Var, Coeff] : Coeffs) {
    if (!First)
      Out += " + ";
    Out += std::to_string(Coeff) + "*x" + std::to_string(Var);
    First = false;
  }
  if (First)
    Out += "0";
  switch (Rel) {
  case LinRel::Eq:
    Out += " = ";
    break;
  case LinRel::Le:
    Out += " <= ";
    break;
  case LinRel::Ne:
    Out += " != ";
    break;
  }
  Out += std::to_string(Rhs);
  return Out;
}

namespace {

/// Floor division for possibly negative operands.
long long floorDiv(long long A, long long B) {
  assert(B > 0 && "floorDiv expects a positive divisor");
  long long Q = A / B;
  if (A % B != 0 && A < 0)
    --Q;
  return Q;
}

/// One coefficient of a working row. Var is check-local: the rank of the
/// variable id among the input's variables, so local order is id order.
struct Entry {
  unsigned Var;
  long long Coeff;
};

/// A working row, `Entries[Begin, Begin + Size) REL Rhs`, sorted by
/// variable and free of zero coefficients. A row never changes once
/// added: a step that rewrites one adds a new row.
struct Row {
  unsigned Begin;
  unsigned Size;
  LinRel Rel;
  long long Rhs;
};

/// One step of the elimination history, for model reconstruction.
struct Step {
  /// The eliminated variable (check-local).
  unsigned Var;
  /// Substitution: Var's coefficient, +-1, in the equality row Def.
  /// Fourier–Motzkin: 0.
  long long VarCoeff;
  unsigned Def;
  /// Fourier–Motzkin: Retired[First, First + NumUpper) are the rows with
  /// a positive coefficient of Var, the NumLower after them the rows with
  /// a negative one.
  unsigned First, NumUpper, NumLower;
};

/// A variable of the check, at its local index.
struct VarInfo {
  unsigned Id;
  /// Its positive and negative occurrences (pickVariable).
  unsigned Pos, Neg;
  /// Its model value (extractModel).
  long long Value;
};

/// Outcome of normalizing a single constraint.
enum class NormStatus { Keep, Trivial, Contradiction, Overflow };

/// Outcome of adding a row.
enum class Added { Row, None, Contradiction };

LiaResult unsatWithCore(std::vector<unsigned> Core) {
  LiaResult R;
  R.Verdict = LiaVerdict::Unsat;
  R.Core = std::move(Core);
  return R;
}

/// One check of a conjunction: case-splits disequalities, then runs
/// elimination on each branch, in flat buffers it owns. The rows of a
/// branch's strict inequalities stay at the bottom of the buffers while
/// the branches below run; each elimination adds its rows on top and
/// drops them when it ends.
class Checker {
public:
  Checker(const std::vector<LinConstraint> &Input, const LiaOptions &Opts)
      : Input(Input), Opts(Opts),
        Words((unsigned)((Input.size() + 63) / 64)) {
    size_t NonZeros = 0;
    for (const LinConstraint &C : Input)
      NonZeros += C.Coeffs.size();
    Vars.reserve(NonZeros);
    for (const LinConstraint &C : Input)
      for (const auto &[V, Coeff] : C.Coeffs)
        if (Coeff != 0)
          Vars.push_back({V, 0, 0, 0});
    std::sort(Vars.begin(), Vars.end(),
              [](const VarInfo &A, const VarInfo &B) { return A.Id < B.Id; });
    Vars.erase(std::unique(Vars.begin(), Vars.end(),
                           [](const VarInfo &A, const VarInfo &B) {
                             return A.Id == B.Id;
                           }),
               Vars.end());
    // The input's rows and as many derived ones: what a chained branch
    // cascade needs, so its check never regrows a buffer.
    Rows.reserve(2 * Input.size());
    Entries.reserve(2 * NonZeros);
    Sources.reserve(2 * Input.size() * Words);
    Work.reserve(Input.size());
    Retired.reserve(Input.size());
    Steps.reserve(Vars.size());
  }

  LiaResult check() {
    unsigned NumNe = 0;
    for (const LinConstraint &C : Input)
      NumNe += C.Rel == LinRel::Ne;
    if (NumNe > Opts.MaxDisequalitySplits)
      return LiaResult();
    return split(0);
  }

private:
  // --- Rows --------------------------------------------------------------

  unsigned localOf(unsigned Var) const {
    return (unsigned)(std::lower_bound(Vars.begin(), Vars.end(), Var,
                                       [](const VarInfo &I, unsigned V) {
                                         return I.Id < V;
                                       }) -
                      Vars.begin());
  }

  /// Appends input constraint \p I's coefficients to Entries.
  void appendInput(unsigned I) {
    for (const auto &[V, Coeff] : Input[I].Coeffs)
      if (Coeff != 0)
        Entries.push_back({localOf(V), Coeff});
  }

  /// The coefficient of \p Var in row \p Idx (0 when absent).
  long long coeffOf(unsigned Idx, unsigned Var) const {
    const Row &R = Rows[Idx];
    auto Begin = Entries.begin() + R.Begin, End = Begin + R.Size;
    auto It = std::lower_bound(
        Begin, End, Var, [](const Entry &E, unsigned V) { return E.Var < V; });
    return It != End && It->Var == Var ? It->Coeff : 0;
  }

  /// Appends the cleared sources of the row being built; returns their
  /// offset in Sources.
  size_t newSources() {
    size_t At = Sources.size();
    Sources.resize(At + Words, 0);
    return At;
  }

  /// Adds row \p Idx's sources to those at \p At.
  void addSources(size_t At, unsigned Idx) {
    for (unsigned W = 0; W != Words; ++W)
      Sources[At + W] |= Sources[(size_t)Idx * Words + W];
  }

  /// Divides the row being built (Entries[Begin, end)) through by the gcd
  /// of its coefficients and tightens integer bounds; detects trivially
  /// true/false constraints.
  NormStatus normalize(unsigned Begin, LinRel Rel, long long &Rhs) {
    if (Entries.size() == Begin) {
      bool Holds = false;
      switch (Rel) {
      case LinRel::Eq:
        Holds = Rhs == 0;
        break;
      case LinRel::Le:
        Holds = 0 <= Rhs;
        break;
      case LinRel::Ne:
        Holds = Rhs != 0;
        break;
      }
      return Holds ? NormStatus::Trivial : NormStatus::Contradiction;
    }

    long long G = 0;
    for (size_t K = Begin, E = Entries.size(); K != E; ++K) {
      long long Coeff = Entries[K].Coeff;
      G = std::gcd(G, Coeff < 0 ? -Coeff : Coeff);
      if (Coeff > Opts.MaxCoefficient || Coeff < -Opts.MaxCoefficient)
        return NormStatus::Overflow;
    }
    assert(G > 0 && "gcd of nonempty coefficient set must be positive");
    if (G > 1) {
      switch (Rel) {
      case LinRel::Eq:
        // gcd divisibility test: g | rhs or the equality has no int
        // solution.
        if (Rhs % G != 0)
          return NormStatus::Contradiction;
        Rhs /= G;
        break;
      case LinRel::Le:
        // Integer tightening: sum (c/g) x <= floor(rhs/g).
        Rhs = floorDiv(Rhs, G);
        break;
      case LinRel::Ne:
        if (Rhs % G != 0)
          return NormStatus::Trivial; // lhs always divisible, rhs not
        Rhs /= G;
        break;
      }
      for (size_t K = Begin, E = Entries.size(); K != E; ++K)
        Entries[K].Coeff /= G;
    }
    return NormStatus::Keep;
  }

  /// Normalizes the row being built (Entries[Begin, end), its sources the
  /// last Words of Sources) and adds it as Rows.back(), or drops it: a
  /// trivial row silently, an overflowing one flagging the resource
  /// limit, a contradiction recording its sources as the core.
  Added finishRow(unsigned Begin, LinRel Rel, long long Rhs) {
    NormStatus S = normalize(Begin, Rel, Rhs);
    if (S == NormStatus::Keep) {
      Rows.push_back({Begin, (unsigned)(Entries.size() - Begin), Rel, Rhs});
      return Added::Row;
    }
    if (S == NormStatus::Contradiction) {
      Core.clear();
      size_t At = Rows.size() * Words;
      for (unsigned W = 0; W != Words; ++W)
        for (uint64_t Bits = Sources[At + W]; Bits; Bits &= Bits - 1)
          Core.push_back(W * 64 + (unsigned)std::countr_zero(Bits));
    }
    if (S == NormStatus::Overflow)
      HitResourceLimit = true;
    Entries.resize(Begin);
    Sources.resize(Rows.size() * Words);
    return S == NormStatus::Contradiction ? Added::Contradiction
                                          : Added::None;
  }

  /// finishRow, appending a kept row to the work list. Returns false on a
  /// contradiction.
  bool addRow(unsigned Begin, LinRel Rel, long long Rhs) {
    Added A = finishRow(Begin, Rel, Rhs);
    if (A == Added::Row)
      Work.push_back((unsigned)Rows.size() - 1);
    return A != Added::Contradiction;
  }

  /// Appends row \p Idx's coefficients times \p Sign to Entries.
  void appendRow(unsigned Idx, long long Sign) {
    const Row R = Rows[Idx];
    for (unsigned K = R.Begin; K != R.Begin + R.Size; ++K) {
      Entry E = Entries[K];
      E.Coeff *= Sign;
      Entries.push_back(E);
    }
  }

  bool outOfRange(__int128 V) const {
    return V > Opts.MaxCoefficient || V < -Opts.MaxCoefficient;
  }

  // --- Disequalities -----------------------------------------------------

  /// Splits the disequalities at input index \p From and later into
  /// strict < / > branches, then runs elimination. Unsat only when every
  /// branch is unsat; the core is the union of branch cores.
  LiaResult split(unsigned From) {
    unsigned I = From;
    while (I != Input.size() && Input[I].Rel != LinRel::Ne)
      ++I;
    if (I == Input.size())
      return runElimination();

    // Constant disequalities are decided directly.
    unsigned Begin = (unsigned)Entries.size();
    appendInput(I);
    long long Rhs = Input[I].Rhs;
    NormStatus S = normalize(Begin, LinRel::Ne, Rhs);
    if (S != NormStatus::Keep) {
      Entries.resize(Begin);
      if (S == NormStatus::Trivial)
        return split(I + 1);
      if (S == NormStatus::Contradiction)
        return unsatWithCore({I});
      return LiaResult(); // overflow
    }

    unsigned Size = (unsigned)(Entries.size() - Begin);
    std::vector<unsigned> MergedCore;
    bool SawUnknown = false;
    for (int Branch = 0; Branch != 2; ++Branch) {
      long long StrictRhs = Rhs - 1; // lhs < rhs  ==>  lhs <= rhs - 1
      if (Branch == 1) {
        // lhs > rhs  ==>  -lhs <= -rhs - 1
        for (size_t K = Begin; K != Begin + Size; ++K)
          Entries[K].Coeff = -Entries[K].Coeff;
        StrictRhs = -Rhs - 1;
      }
      size_t At = newSources();
      Sources[At + I / 64] |= uint64_t(1) << (I % 64);
      Rows.push_back({Begin, Size, LinRel::Le, StrictRhs});
      LiaResult R = split(I + 1);
      Rows.pop_back();
      Sources.resize(At);
      if (R.Verdict == LiaVerdict::Sat)
        return R;
      if (R.Verdict == LiaVerdict::Unknown) {
        SawUnknown = true;
        continue;
      }
      std::vector<unsigned> Union;
      std::set_union(MergedCore.begin(), MergedCore.end(), R.Core.begin(),
                     R.Core.end(), std::back_inserter(Union));
      MergedCore.swap(Union);
    }
    Entries.resize(Begin);
    if (SawUnknown)
      return LiaResult();
    return unsatWithCore(std::move(MergedCore));
  }

  // --- Elimination -------------------------------------------------------

  /// Eliminates over the Eq/Le inputs in input order, then the strict
  /// rows of the current disequality branches (the rows below the ones it
  /// adds), and drops its rows again when done.
  LiaResult runElimination() {
    unsigned BaseRows = (unsigned)Rows.size();
    unsigned BaseEntries = (unsigned)Entries.size();
    Work.clear();
    Steps.clear();
    Retired.clear();
    Failed = HitResourceLimit = false;
    LiaResult R = eliminateAll(BaseRows);
    Rows.resize(BaseRows);
    Entries.resize(BaseEntries);
    Sources.resize((size_t)BaseRows * Words);
    return R;
  }

  LiaResult eliminateAll(unsigned BaseRows) {
    for (unsigned I = 0; I != Input.size(); ++I) {
      const LinConstraint &C = Input[I];
      if (C.Rel == LinRel::Ne)
        continue;
      unsigned Begin = (unsigned)Entries.size();
      appendInput(I);
      size_t At = newSources();
      Sources[At + I / 64] |= uint64_t(1) << (I % 64);
      if (!addRow(Begin, C.Rel, C.Rhs))
        return unsatWithCore(std::move(Core));
    }
    for (unsigned Idx = 0; Idx != BaseRows; ++Idx) {
      unsigned Begin = (unsigned)Entries.size();
      appendRow(Idx, 1);
      addSources(newSources(), Idx);
      if (!addRow(Begin, Rows[Idx].Rel, Rows[Idx].Rhs))
        return unsatWithCore(std::move(Core));
    }

    LiaResult R;
    R.Verdict = run();
    if (R.Verdict == LiaVerdict::Unsat)
      R.Core = std::move(Core);
    if (R.Verdict == LiaVerdict::Sat && HitResourceLimit)
      return LiaResult();
    if (R.Verdict == LiaVerdict::Sat)
      R.HasModel = extractModel(R.Model);
    return R;
  }

  LiaVerdict run() {
    for (;;) {
      if (Failed)
        return LiaVerdict::Unsat;
      if (HitResourceLimit || Work.size() > Opts.MaxConstraints)
        return LiaVerdict::Unknown;

      if (substituteOneEquality())
        continue;
      if (splitOneEquality())
        continue;

      unsigned Var = 0;
      if (!pickVariable(Var))
        return LiaVerdict::Sat; // no variables left anywhere
      if (!eliminate(Var))
        return LiaVerdict::Unsat;
    }
  }

  /// Finds the first equality in work order with a +-1 coefficient and
  /// substitutes its lowest such variable away. Returns true if a
  /// substitution happened; a contradiction it derives sets Failed.
  bool substituteOneEquality() {
    for (size_t I = 0; I != Work.size(); ++I) {
      const Row &R = Rows[Work[I]];
      if (R.Rel != LinRel::Eq)
        continue;
      for (unsigned K = R.Begin; K != R.Begin + R.Size; ++K) {
        long long VarCoeff = Entries[K].Coeff;
        if (VarCoeff != 1 && VarCoeff != -1)
          continue;
        // x = (Rhs - rest) / VarCoeff; with |VarCoeff| == 1 this is
        // integral.
        unsigned Var = Entries[K].Var;
        unsigned Def = Work[I];
        Work.erase(Work.begin() + I);
        Steps.push_back({Var, VarCoeff, Def, 0, 0, 0});
        substitute(Var, VarCoeff, Def);
        return true;
      }
    }
    return false;
  }

  /// Replaces every occurrence of \p Var using the defining equality row
  /// \p Def (where Var has coefficient \p VarCoeff, +-1). A rewritten row
  /// keeps its place in the work list.
  void substitute(unsigned Var, long long VarCoeff, unsigned Def) {
    size_t Out = 0;
    for (size_t In = 0; In != Work.size(); ++In) {
      unsigned Idx = Work[In];
      long long K = coeffOf(Idx, Var);
      if (K == 0) {
        Work[Out++] = Idx;
        continue;
      }
      // lhs := lhs - K*x with x = VarCoeff*(Rhs_def - rest_def) (since
      // VarCoeff is +-1, 1/VarCoeff == VarCoeff).
      unsigned Begin = (unsigned)Entries.size();
      long long Rhs = 0;
      if (!combine(Idx, 1, Def, -K * VarCoeff, Var, Rhs)) {
        HitResourceLimit = true;
        Work[Out++] = Idx;
        continue;
      }
      size_t At = newSources();
      addSources(At, Idx);
      addSources(At, Def);
      Added Result = finishRow(Begin, Rows[Idx].Rel, Rhs);
      if (Result == Added::Contradiction) {
        Failed = true;
        Work.resize(Out);
        return;
      }
      if (Result == Added::Row)
        Work[Out++] = (unsigned)Rows.size() - 1;
    }
    Work.resize(Out);
  }

  /// Converts the first remaining (non-unit-coefficient) equality into a
  /// pair of inequalities. Sound; loses only integer-divisibility
  /// precision that normalize() has already exploited.
  bool splitOneEquality() {
    for (size_t I = 0; I != Work.size(); ++I) {
      unsigned Idx = Work[I];
      if (Rows[Idx].Rel != LinRel::Eq)
        continue;
      Work.erase(Work.begin() + I);
      for (long long Sign : {1LL, -1LL}) {
        unsigned Begin = (unsigned)Entries.size();
        appendRow(Idx, Sign);
        addSources(newSources(), Idx);
        if (!addRow(Begin, LinRel::Le, Sign * Rows[Idx].Rhs)) {
          Failed = true;
          return true;
        }
      }
      return true;
    }
    return false;
  }

  /// Chooses the variable whose elimination produces the fewest new
  /// constraints (classic FM heuristic): the lowest positive-times-
  /// negative count, then the lowest variable. Returns false when no
  /// constraint mentions a variable.
  bool pickVariable(unsigned &VarOut) {
    for (VarInfo &V : Vars)
      V.Pos = V.Neg = 0;
    bool Any = false;
    for (unsigned Idx : Work) {
      const Row &R = Rows[Idx];
      for (unsigned K = R.Begin; K != R.Begin + R.Size; ++K) {
        VarInfo &V = Vars[Entries[K].Var];
        ++(Entries[K].Coeff > 0 ? V.Pos : V.Neg);
        Any = true;
      }
    }
    if (!Any)
      return false;
    unsigned long long BestCost = ~0ULL;
    for (unsigned V = 0; V != Vars.size(); ++V) {
      unsigned Pos = Vars[V].Pos, Neg = Vars[V].Neg;
      if (Pos + Neg == 0)
        continue;
      unsigned long long Cost = (unsigned long long)Pos * Neg;
      if (Cost < BestCost) {
        BestCost = Cost;
        VarOut = V;
      }
    }
    return true;
  }

  /// Fourier–Motzkin elimination of \p Var. Returns false on
  /// contradiction.
  bool eliminate(unsigned Var) {
    // Uppers (a*x + e <= b, a > 0), then lowers (-a*x + e <= b), each in
    // work order, retire into the history; the rest keep their order.
    unsigned First = (unsigned)Retired.size();
    for (unsigned Idx : Work)
      if (coeffOf(Idx, Var) > 0)
        Retired.push_back(Idx);
    unsigned NumUpper = (unsigned)Retired.size() - First;
    size_t Out = 0;
    for (size_t In = 0; In != Work.size(); ++In) {
      unsigned Idx = Work[In];
      long long C = coeffOf(Idx, Var);
      if (C < 0)
        Retired.push_back(Idx);
      else if (C == 0)
        Work[Out++] = Idx;
    }
    Work.resize(Out);
    unsigned NumLower = (unsigned)Retired.size() - First - NumUpper;
    Steps.push_back({Var, 0, 0, First, NumUpper, NumLower});

    for (unsigned U = First; U != First + NumUpper; ++U) {
      unsigned UIdx = Retired[U];
      long long A = coeffOf(UIdx, Var);
      for (unsigned L = First + NumUpper; L != First + NumUpper + NumLower;
           ++L) {
        unsigned LIdx = Retired[L];
        long long B = -coeffOf(LIdx, Var);
        assert(A > 0 && B > 0 && "FM pair signs wrong");
        unsigned Begin = (unsigned)Entries.size();
        long long Rhs = 0;
        if (!combine(UIdx, B, LIdx, A, Var, Rhs)) {
          HitResourceLimit = true;
          continue;
        }
        size_t At = newSources();
        addSources(At, UIdx);
        addSources(At, LIdx);
        if (!addRow(Begin, LinRel::Le, Rhs))
          return false;
        if (Work.size() > Opts.MaxConstraints) {
          HitResourceLimit = true;
          return true;
        }
      }
    }
    return true;
  }

  /// Appends the coefficients of `MulX*(row X) + MulY*(row Y)` without
  /// \p Var (whose coefficient cancels or is substituted away) to Entries
  /// and sets \p Rhs to its right-hand side. Returns false, appending
  /// nothing, when a partial sum of a coefficient (MulX*x, then
  /// MulX*x + MulY*y) or the right-hand side leaves
  /// [-MaxCoefficient, MaxCoefficient].
  bool combine(unsigned XIdx, long long MulX, unsigned YIdx, long long MulY,
               unsigned Var, long long &Rhs) {
    const Row X = Rows[XIdx], Y = Rows[YIdx];
    unsigned Begin = (unsigned)Entries.size();
    unsigned I = X.Begin, IE = X.Begin + X.Size;
    unsigned J = Y.Begin, JE = Y.Begin + Y.Size;
    while (I != IE || J != JE) {
      bool FromX = J == JE || (I != IE && Entries[I].Var <= Entries[J].Var);
      bool FromY = I == IE || (J != JE && Entries[J].Var <= Entries[I].Var);
      unsigned V = FromX ? Entries[I].Var : Entries[J].Var;
      __int128 Sum = 0;
      if (FromX) {
        Sum = (__int128)MulX * Entries[I].Coeff;
        ++I;
        if (V != Var && outOfRange(Sum)) {
          Entries.resize(Begin);
          return false;
        }
      }
      if (FromY) {
        Sum += (__int128)MulY * Entries[J].Coeff;
        ++J;
        if (V != Var && outOfRange(Sum)) {
          Entries.resize(Begin);
          return false;
        }
      }
      if (V != Var && Sum != 0)
        Entries.push_back({V, (long long)Sum});
    }
    __int128 NewRhs = (__int128)MulX * X.Rhs + (__int128)MulY * Y.Rhs;
    if (outOfRange(NewRhs)) {
      Entries.resize(Begin);
      return false;
    }
    Rhs = (long long)NewRhs;
    return true;
  }

  /// After a Sat run: reconstructs an integer model by replaying the
  /// elimination history in reverse — later-eliminated variables are
  /// ground by the time earlier ones need them. Returns false when an
  /// integer gap (a hole the rational relaxation glossed over) blocks
  /// extraction; the variables assigned before it stay in \p Model.
  bool extractModel(std::map<unsigned, long long> &Model) {
    for (VarInfo &V : Vars)
      V.Value = 0;
    auto RestOf = [this](unsigned Idx, unsigned Var) {
      const Row &R = Rows[Idx];
      long long Rest = 0;
      for (unsigned K = R.Begin; K != R.Begin + R.Size; ++K)
        if (Entries[K].Var != Var)
          Rest += Entries[K].Coeff * Vars[Entries[K].Var].Value;
      return Rest;
    };

    for (auto It = Steps.rbegin(), E = Steps.rend(); It != E; ++It) {
      const Step &S = *It;
      long long Value = 0;
      if (S.VarCoeff != 0) {
        // Var*VarCoeff + rest = Rhs, |VarCoeff| == 1:
        // Var = (Rhs - rest) * VarCoeff.
        Value = (Rows[S.Def].Rhs - RestOf(S.Def, S.Var)) * S.VarCoeff;
      } else {
        // Fourier-Motzkin: intersect the bounds under the current
        // assignment and pick an integer (toward zero).
        bool HasHi = false, HasLo = false;
        long long Hi = 0, Lo = 0;
        for (unsigned K = S.First; K != S.First + S.NumUpper; ++K) {
          unsigned Idx = Retired[K];
          long long A = coeffOf(Idx, S.Var);
          long long Bound = floorDiv(Rows[Idx].Rhs - RestOf(Idx, S.Var), A);
          Hi = HasHi ? std::min(Hi, Bound) : Bound;
          HasHi = true;
        }
        for (unsigned K = S.First + S.NumUpper;
             K != S.First + S.NumUpper + S.NumLower; ++K) {
          unsigned Idx = Retired[K];
          long long B = -coeffOf(Idx, S.Var); // B > 0
          // -B*x + rest <= rhs  ==>  x >= ceil((rest - rhs) / B).
          long long Bound =
              -floorDiv(Rows[Idx].Rhs - RestOf(Idx, S.Var), B);
          Lo = HasLo ? std::max(Lo, Bound) : Bound;
          HasLo = true;
        }
        if (HasHi && HasLo && Lo > Hi)
          return false; // an integer gap: extraction fails, Sat stands
        if (HasLo && Lo > 0)
          Value = Lo;
        else if (HasHi && Hi < 0)
          Value = Hi;
      }
      Vars[S.Var].Value = Value;
      Model[Vars[S.Var].Id] = Value;
    }
    return true;
  }

  const std::vector<LinConstraint> &Input;
  const LiaOptions &Opts;
  /// Bitset words per row: one bit per input constraint.
  const unsigned Words;

  /// The input's variables, sorted by id; a check-local variable indexes
  /// it.
  std::vector<VarInfo> Vars;
  /// Every row's coefficients.
  std::vector<Entry> Entries;
  std::vector<Row> Rows;
  /// The sources of row I, Sources[I * Words, (I + 1) * Words).
  std::vector<uint64_t> Sources;

  /// The live rows, in work order.
  std::vector<unsigned> Work;
  std::vector<Step> Steps;
  /// The rows each Fourier–Motzkin step eliminated (see Step).
  std::vector<unsigned> Retired;

  bool Failed = false;
  bool HitResourceLimit = false;
  /// The sources of the last contradiction.
  std::vector<unsigned> Core;
};

} // namespace

LiaResult mix::smt::checkLinearConjunction(
    const std::vector<LinConstraint> &Constraints, const LiaOptions &Opts) {
  return Checker(Constraints, Opts).check();
}
