//===--- Diagnostics.cpp - Diagnostic engine ------------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

#include "support/StringExtras.h"

#include <algorithm>
#include <set>
#include <tuple>

using namespace mix;

std::string SourceLoc::str() const {
  if (!isValid())
    return "<unknown>";
  return std::to_string(Line) + ":" + std::to_string(Column);
}

static const char *diagKindName(DiagKind Kind) {
  switch (Kind) {
  case DiagKind::Error:
    return "error";
  case DiagKind::Warning:
    return "warning";
  case DiagKind::Note:
    return "note";
  }
  return "unknown";
}

std::string mix::diagIdString(DiagID ID) {
  unsigned N = (unsigned)ID;
  std::string Digits = std::to_string(N);
  while (Digits.size() < 3)
    Digits.insert(Digits.begin(), '0');
  return "MIX" + Digits;
}

const char *mix::diagCategory(DiagID ID) {
  switch ((unsigned)ID / 100) {
  case 1:
    return "parse";
  case 2:
    return "type";
  case 3:
    return "path";
  case 4:
    return "null";
  case 5:
    return "driver";
  case 6:
    return "sign";
  default:
    return "general";
  }
}

std::string Diagnostic::str() const {
  return Loc.str() + ": " + diagKindName(Kind) + ": " + Message;
}

size_t DiagnosticEngine::report(DiagKind Kind, SourceLoc Loc,
                                std::string Message, DiagID ID) {
  Diagnostic D{Kind, Loc, std::move(Message), ID, Diagnostic::NoParent, {}};
  if (Kind == DiagKind::Error) {
    ++NumErrors;
  } else if (Kind == DiagKind::Warning) {
    ++NumWarnings;
  } else {
    // Attach the note to the most recent error or warning.
    for (size_t I = Diags.size(); I != 0; --I) {
      if (Diags[I - 1].Kind != DiagKind::Note) {
        D.Parent = I - 1;
        break;
      }
    }
  }
  Diags.push_back(std::move(D));
  return Diags.size() - 1;
}

std::vector<size_t> DiagnosticEngine::notesFor(size_t Parent) const {
  std::vector<size_t> Out;
  for (size_t I = Parent + 1; I < Diags.size(); ++I)
    if (Diags[I].Kind == DiagKind::Note && Diags[I].Parent == Parent)
      Out.push_back(I);
  return Out;
}

void DiagnosticEngine::dropRepeatedWarnings(size_t From) {
  std::set<std::tuple<uint32_t, uint32_t, std::string>> Seen;
  // Where each kept diagnostic moves; NoParent for a dropped one.
  std::vector<size_t> NewIndex(Diags.size());
  for (size_t I = 0; I != From; ++I)
    NewIndex[I] = I;
  size_t Out = From;
  for (size_t I = From; I != Diags.size(); ++I) {
    Diagnostic &D = Diags[I];
    NewIndex[I] = Diagnostic::NoParent;
    if (D.Kind == DiagKind::Note && D.Parent != Diagnostic::NoParent) {
      D.Parent = NewIndex[D.Parent];
      if (D.Parent == Diagnostic::NoParent)
        continue; // its warning was dropped
    } else if (D.Kind == DiagKind::Warning &&
               !Seen.emplace(D.Loc.Line, D.Loc.Column, D.Message).second) {
      --NumWarnings;
      continue;
    }
    NewIndex[I] = Out;
    if (Out != I)
      Diags[Out] = std::move(D);
    ++Out;
  }
  Diags.resize(Out);
}

void DiagnosticEngine::clear() {
  Diags.clear();
  NumErrors = 0;
  NumWarnings = 0;
}

std::string DiagnosticEngine::str() const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.str();
    Out += '\n';
  }
  return Out;
}

static void appendDiagJSON(std::string &Out, const Diagnostic &D,
                           const char *Indent) {
  Out += Indent;
  Out += "{\"id\": \"" + diagIdString(D.ID) + "\", \"category\": \"";
  Out += diagCategory(D.ID);
  Out += "\", \"severity\": \"";
  Out += diagKindName(D.Kind);
  Out += "\", \"line\": " + std::to_string(D.Loc.Line) +
         ", \"column\": " + std::to_string(D.Loc.Column) +
         ", \"message\": \"" + jsonEscape(D.Message) + "\"";
}

std::vector<size_t> DiagnosticEngine::sortedTopLevelIndices() const {
  std::vector<size_t> Top;
  for (size_t I = 0; I != Diags.size(); ++I)
    if (Diags[I].Kind != DiagKind::Note ||
        Diags[I].Parent == Diagnostic::NoParent)
      Top.push_back(I);
  std::stable_sort(Top.begin(), Top.end(), [this](size_t A, size_t B) {
    const Diagnostic &DA = Diags[A], &DB = Diags[B];
    if (DA.Loc.Line != DB.Loc.Line)
      return DA.Loc.Line < DB.Loc.Line;
    if (DA.Loc.Column != DB.Loc.Column)
      return DA.Loc.Column < DB.Loc.Column;
    return (unsigned)DA.ID < (unsigned)DB.ID;
  });
  return Top;
}

std::string DiagnosticEngine::renderJSON(bool Sorted) const {
  std::vector<size_t> Top;
  if (Sorted) {
    Top = sortedTopLevelIndices();
  } else {
    for (size_t I = 0; I != Diags.size(); ++I)
      if (Diags[I].Kind != DiagKind::Note ||
          Diags[I].Parent == Diagnostic::NoParent)
        Top.push_back(I);
  }
  std::string Out = "[";
  bool First = true;
  for (size_t I : Top) {
    const Diagnostic &D = Diags[I];
    Out += First ? "\n" : ",\n";
    First = false;
    appendDiagJSON(Out, D, "  ");
    Out += ", \"notes\": [";
    bool FirstNote = true;
    for (size_t N : notesFor(I)) {
      Out += FirstNote ? "\n" : ",\n";
      FirstNote = false;
      appendDiagJSON(Out, Diags[N], "    ");
      Out += "}";
    }
    Out += FirstNote ? "]}" : "\n  ]}";
  }
  Out += First ? "]\n" : "\n]\n";
  return Out;
}
