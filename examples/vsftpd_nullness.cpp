//===--- vsftpd_nullness.cpp - MIXY on the vsftpd case studies ------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Reproduces Section 4.5: runs pure type qualifier inference and the
// full MIXY analysis on each of the four vsftpd-derived case studies and
// prints the per-case warning counts — the paper's headline result is
// that every baseline false positive disappears under MIXY.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"

#include <iomanip>
#include <iostream>

using namespace mix::c;
using mix::DiagnosticEngine;

namespace {

unsigned baseline(const std::string &Source) {
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = parseC(Source, Ctx, Diags);
  if (!P) {
    std::cerr << Diags.str();
    return ~0u;
  }
  QualInference Inf(*P, Ctx, Diags);
  Inf.analyzeAll();
  Inf.solve();
  return Inf.reportWarnings();
}

unsigned mixy(const std::string &Source, MixyStats *StatsOut = nullptr,
              std::string *DiagsOut = nullptr) {
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = parseC(Source, Ctx, Diags);
  if (!P) {
    std::cerr << Diags.str();
    return ~0u;
  }
  MixyAnalysis Analysis(*P, Ctx, Diags);
  unsigned W = Analysis.run(MixyAnalysis::StartMode::Typed);
  if (StatsOut)
    *StatsOut = Analysis.stats();
  if (DiagsOut)
    *DiagsOut = Diags.str();
  return W;
}

} // namespace

int main() {
  const char *Names[] = {
      "Case 1: flow/path insensitivity in sockaddr_clear",
      "Case 2: path/context insensitivity in str_next_dirent",
      "Case 3: flow/path insensitivity in dns_resolve and main",
      "Case 4: symbolic function pointer in sysutil_exit",
  };

  std::cout << "MIXY on the vsftpd-derived case studies (Section 4.5)\n";
  std::cout << std::string(72, '-') << "\n";
  std::cout << std::left << std::setw(56) << "case" << std::setw(10)
            << "baseline" << "MIXY\n";
  std::cout << std::string(72, '-') << "\n";

  for (unsigned CaseNo = 1; CaseNo <= 4; ++CaseNo) {
    // Case 4 demonstrates the opposite direction (typed helping
    // symbolic), so its "baseline" is the un-annotated MIXY run.
    unsigned Base = CaseNo == 4
                        ? mixy(corpus::vsftpdCase(CaseNo, false))
                        : baseline(corpus::vsftpdCase(CaseNo, false));
    unsigned Mixed = mixy(corpus::vsftpdCase(CaseNo, true));
    std::cout << std::left << std::setw(56) << Names[CaseNo - 1]
              << std::setw(10) << Base << Mixed << "\n";
  }

  std::cout << std::string(72, '-') << "\n\n";

  // The merged corpus, with block-switching statistics.
  MixyStats Stats;
  MixyOptions Opts;
  std::string DiagText;
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const std::string Source = corpus::vsftpdFull(true);
  const CProgram *P = parseC(Source, Ctx, Diags);
  if (!P) {
    std::cerr << Diags.str();
    return 1;
  }
  MixyOptions NoAlias;
  NoAlias.RestoreAliasing = false;
  MixyAnalysis Analysis(*P, Ctx, Diags, NoAlias);
  unsigned W = Analysis.run(MixyAnalysis::StartMode::Typed);
  Stats = Analysis.stats();

  std::cout << "full corpus (annotated, aliasing restoration off): " << W
            << " warnings\n";
  std::cout << "  typed->symbolic switches : "
            << Stats.SymbolicCallsFromTyped << "\n";
  std::cout << "  symbolic->typed switches : "
            << Stats.TypedCallsFromSymbolic << "\n";
  std::cout << "  symbolic block runs      : " << Stats.SymbolicBlockRuns
            << " (+" << Stats.SymbolicCacheHits << " cache hits)\n";
  std::cout << "  fixpoint iterations      : " << Stats.FixpointIterations
            << "\n";
  std::cout << "\nnote: with aliasing restoration on, the merged corpus "
               "keeps one residual\nwarning from context-insensitive "
               "alias pollution -- the limitation the paper\nreports in "
               "Section 4.6.\n";
  return 0;
}
