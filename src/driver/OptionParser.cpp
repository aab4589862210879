//===--- OptionParser.cpp - Shared CLI option parsing -----------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "driver/OptionParser.h"

#include "runtime/ThreadPool.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <sstream>

using namespace mix::driver;

void OptionParser::add(Option O) {
  // Registrations under an excluded group vanish: the option neither
  // parses nor appears in help, matching the contract that a front end
  // which excluded a group treats its flags as unknown.
  if (!ActiveGroup.empty() &&
      std::find(Excluded.begin(), Excluded.end(), ActiveGroup) !=
          Excluded.end())
    return;
  Options.push_back(std::move(O));
}

void OptionParser::flag(const std::string &Name, bool *Target,
                        const std::string &Help) {
  flag(Name, [Target] { *Target = true; }, Help);
}

void OptionParser::flag(const std::string &Name, std::function<void()> Fn,
                        const std::string &Help) {
  Option O;
  O.Name = Name;
  O.Run = std::move(Fn);
  O.Help = Help;
  add(std::move(O));
}

void OptionParser::value(const std::string &Name,
                         std::function<bool(const std::string &)> Fn,
                         const std::string &Meta, const std::string &Help) {
  Option O;
  O.Name = Name;
  O.TakesValue = true;
  O.Apply = std::move(Fn);
  O.Meta = Meta;
  O.Help = Help;
  add(std::move(O));
}

void OptionParser::separateValue(const std::string &Name,
                                 std::function<bool(const std::string &)> Fn,
                                 const std::string &Meta,
                                 const std::string &Help) {
  Option O;
  O.Name = Name;
  O.TakesValue = true;
  O.Separate = true;
  O.Apply = std::move(Fn);
  O.Meta = Meta;
  O.Help = Help;
  add(std::move(O));
}

void OptionParser::jobs(unsigned *Jobs, const std::string &Help) {
  value(
      "--jobs",
      [Jobs](const std::string &V) {
        if (!parseUnsigned(V, *Jobs))
          return false;
        if (*Jobs == 0)
          *Jobs = rt::ThreadPool::hardwareWorkers();
        return true;
      },
      "N",
      Help.empty() ? "analyze with N worker threads (0 = one per hardware "
                     "thread; default 1)"
                   : Help);
}

bool OptionParser::parseUnsigned(const std::string &Text, unsigned &Out) {
  // from_chars takes no sign or whitespace for an unsigned target and
  // reports overflow instead of throwing; the end check rejects trailing
  // non-digits.
  const char *End = Text.data() + Text.size();
  auto [Ptr, Err] = std::from_chars(Text.data(), End, Out);
  return Err == std::errc() && Ptr == End;
}

std::string OptionParser::renderHelp() const {
  // Left column: "--name" / "--name=META" / "--name META", padded to the
  // widest registered spelling so descriptions line up.
  std::vector<std::string> Spellings;
  size_t Widest = 0;
  for (const Option &O : Options) {
    std::string S = O.Name;
    if (O.TakesValue)
      S += (O.Separate ? " " : "=") + O.Meta;
    Widest = std::max(Widest, S.size());
    Spellings.push_back(std::move(S));
  }

  std::ostringstream OS;
  for (size_t I = 0; I != Options.size(); ++I) {
    OS << "  " << Spellings[I];
    if (!Options[I].Help.empty()) {
      // Continuation lines (after '\n' in the help text) indent to the
      // description column.
      OS << std::string(Widest - Spellings[I].size() + 2, ' ');
      std::string Indent(Widest + 4, ' ');
      const std::string &H = Options[I].Help;
      for (size_t Pos = 0;;) {
        size_t NL = H.find('\n', Pos);
        OS << H.substr(Pos, NL == std::string::npos ? NL : NL - Pos);
        if (NL == std::string::npos)
          break;
        OS << "\n" << Indent;
        Pos = NL + 1;
      }
    }
    OS << "\n";
  }
  return OS.str();
}

std::vector<std::string> OptionParser::optionNames() const {
  std::vector<std::string> Names;
  Names.reserve(Options.size());
  for (const Option &O : Options)
    Names.push_back(O.Name);
  return Names;
}

std::string OptionParser::suggestionFor(const std::string &Flag) const {
  // Compare the name parts only ("--strategy=fork" suggests against
  // "--strategy").
  std::string Name = Flag.substr(0, Flag.find('='));
  std::string Best;
  unsigned BestDist = ~0u;
  for (const Option &O : Options) {
    unsigned D = editDistance(Name, O.Name);
    if (D < BestDist) {
      BestDist = D;
      Best = O.Name;
    }
  }
  // Only suggest near-misses: at most one edit per three characters.
  if (Best.empty() || BestDist * 3 > (unsigned)Name.size())
    return std::string();
  return Best;
}

bool OptionParser::usageError(const std::string &Message) const {
  std::cerr << Tool << ": " << Message << "\n";
  return false;
}

bool OptionParser::parse(int Argc, char **Argv) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.empty() || Arg[0] != '-' || Arg == "-") {
      Positionals.push_back(Arg);
      continue;
    }

    std::string Name = Arg.substr(0, Arg.find('='));
    bool HasValue = Arg.size() != Name.size();
    std::string Value = HasValue ? Arg.substr(Name.size() + 1) : std::string();

    const Option *Match = nullptr;
    for (const Option &O : Options)
      if (O.Name == Name) {
        Match = &O;
        break;
      }
    if (!Match) {
      std::string Hint = suggestionFor(Arg);
      return usageError("unknown option '" + Arg + "'" +
                        (Hint.empty() ? "" : " (did you mean '" + Hint + "'?)"));
    }

    if (!Match->TakesValue) {
      if (HasValue)
        return usageError("option '" + Name + "' takes no value");
      Match->Run();
      continue;
    }
    if (Match->Separate) {
      if (HasValue)
        return usageError("option '" + Name +
                          "' takes its value as a separate argument");
      if (I + 1 == Argc)
        return usageError("option '" + Name + "' requires a value");
      Value = Argv[++I];
    } else if (!HasValue) {
      return usageError("option '" + Name + "' requires a value ('" + Name +
                        "=...')");
    }
    if (!Match->Apply(Value))
      return usageError("bad " + Name + " value '" + Value + "'");
  }
  return true;
}
