//===--- OptionParser.h - Shared CLI option parsing -------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flag-parsing half of the shared driver layer. Both tools register
/// their options here instead of hand-rolling an argv loop, which buys:
///
///  - one exit-code contract (ExitCode below),
///  - one error shape ("<tool>: unknown option '--x'"), with a
///    "did you mean" suggestion computed by edit distance over the
///    registered names,
///  - one --jobs parser (0 resolves to one worker per hardware thread).
///
/// Usage errors print to stderr and parse() returns false; the caller
/// exits with ExitUsage.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_DRIVER_OPTIONPARSER_H
#define MIX_DRIVER_OPTIONPARSER_H

#include <functional>
#include <string>
#include <vector>

namespace mix::driver {

/// The exit-code contract every tool follows: analysis findings are 1,
/// anything that prevented the analysis from running (bad flags, file not
/// found, parse errors) is 2.
enum ExitCode : int {
  ExitClean = 0,    ///< analysis ran; no findings
  ExitFindings = 1, ///< analysis ran; warnings or rejection
  ExitUsage = 2,    ///< usage, input, or parse error
};

/// Registers named options, parses argv, collects positionals.
///
/// Every registration carries the option's help text, and renderHelp()
/// generates the "options:" section of --help from the registrations in
/// order — so the help can never drift from what the parser actually
/// accepts (a golden test walks optionNames() against renderHelp()).
class OptionParser {
public:
  explicit OptionParser(std::string Tool) : Tool(std::move(Tool)) {}

  /// --name (no value): sets \p *Target.
  void flag(const std::string &Name, bool *Target,
            const std::string &Help = std::string());

  /// --name (no value): runs \p Fn.
  void flag(const std::string &Name, std::function<void()> Fn,
            const std::string &Help = std::string());

  /// --name=VALUE: runs \p Fn; returning false rejects the value (the
  /// parser reports "bad --name value 'VALUE'"). \p Meta is the value
  /// placeholder in help ("FILE", "N", "text|json").
  void value(const std::string &Name,
             std::function<bool(const std::string &)> Fn,
             const std::string &Meta = "VALUE",
             const std::string &Help = std::string());

  /// --name VALUE (value in the next argv slot).
  void separateValue(const std::string &Name,
                     std::function<bool(const std::string &)> Fn,
                     const std::string &Meta = "VALUE",
                     const std::string &Help = std::string());

  /// The shared --jobs=N option: digits only, 0 resolves to one worker
  /// per hardware thread, result stored into \p *Jobs.
  void jobs(unsigned *Jobs, const std::string &Help = std::string());

  /// The one parser behind every numeric flag: true, with \p Out set,
  /// when \p Text is all digits and at most UINT_MAX; false, with \p Out
  /// untouched, otherwise. An oversized value is a usage error, never an
  /// exception or a silent wrap-around. Each flag applies its own rule
  /// for 0.
  static bool parseUnsigned(const std::string &Text, unsigned &Out);

  /// Option groups let one registrar serve several front ends: wrap a
  /// set of registrations in beginGroup("name")/endGroup(), and a front
  /// end that has no use for them (the daemon has no --format — output
  /// format is per-request) calls excludeGroup("name") *before* the
  /// registrar runs. Registrations under an excluded group are dropped
  /// entirely: not parsed, absent from renderHelp()/optionNames(), and
  /// never offered as a did-you-mean suggestion, so an excluded flag gets
  /// the same "unknown option" exit-2 contract as a misspelled one.
  void beginGroup(const std::string &Name) { ActiveGroup = Name; }
  void endGroup() { ActiveGroup.clear(); }
  void excludeGroup(const std::string &Name) { Excluded.push_back(Name); }

  /// The "options:" body of --help: one line (or more, on '\n' in the
  /// help text) per registered option, in registration order.
  std::string renderHelp() const;

  /// Every registered option name, in registration order.
  std::vector<std::string> optionNames() const;

  /// Parses \p Argv. Returns false (after printing to stderr) on an
  /// unknown option, a missing/invalid value, or an unconsumed '='.
  /// Positional arguments (not starting with '-', or exactly "-") are
  /// collected in order.
  bool parse(int Argc, char **Argv);

  const std::vector<std::string> &positionals() const { return Positionals; }

  /// Closest registered option name to \p Flag, or empty when nothing is
  /// close enough to suggest (distance > 1/3 of the flag's length).
  std::string suggestionFor(const std::string &Flag) const;

  const std::string &tool() const { return Tool; }

private:
  struct Option {
    std::string Name;                              ///< including "--"
    bool TakesValue = false;                       ///< --name=VALUE
    bool Separate = false;                         ///< --name VALUE
    std::function<bool(const std::string &)> Apply; ///< value handler
    std::function<void()> Run;                     ///< flag handler
    std::string Meta;                              ///< value placeholder
    std::string Help;                              ///< one-line description
  };

  bool usageError(const std::string &Message) const;
  void add(Option O);

  std::string Tool;
  std::vector<Option> Options;
  std::vector<std::string> Positionals;
  std::string ActiveGroup;
  std::vector<std::string> Excluded;
};

} // namespace mix::driver

#endif // MIX_DRIVER_OPTIONPARSER_H
