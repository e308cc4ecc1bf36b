/// \file flags.h
/// \brief The one command-line flag table every executable parses with.
///
/// An executable declares its flags as a table — each entry a name, a
/// kind, a help line and a target variable — and hands argv to
/// ParseCommandLine. Both spellings are accepted, `--name V` and
/// `--name=V`; arguments that are not flags are collected as positionals
/// (a lone `-` is a positional: "read stdin"). Parsing is strict: an
/// unknown flag, a flag given twice, a malformed value and a missing value
/// are errors naming the flag, never a silent fall back to the default.
/// `--help` / `-h` prints the usage line and one line per flag, both
/// generated from the table.
///
/// Pools are owned at the edge (docs/ARCHITECTURE.md), so every executable
/// that takes a thread count declares it with FlagKind::kThreads, whose
/// range check keeps a typo from spawning thousands of threads.

#ifndef BDISK_RUNTIME_FLAGS_H_
#define BDISK_RUNTIME_FLAGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace bdisk::runtime {

/// Largest accepted thread count — far above any real machine, low enough
/// that a typo cannot wrap the unsigned conversion or exhaust the process
/// spawning threads.
inline constexpr unsigned kMaxThreadCount = 4096;

/// \brief Value grammar of a flag and the type of its target.
enum class FlagKind {
  kBool,          ///< Presence only; takes no value. Target: bool*.
  kUint,          ///< Decimal uint64. Target: std::uint64_t*.
  kPositiveUint,  ///< Decimal uint64 > 0. Target: std::uint64_t*.
  kDouble,        ///< Finite decimal number. Target: double*.
  kByteSize,      ///< ParseByteSizeToken grammar. Target: std::uint64_t*.
  kString,        ///< Any non-empty token. Target: const char** (into argv).
  kThreads,       ///< Integer in [1, kMaxThreadCount]. Target: unsigned*.
};

/// \brief One table entry. The target keeps its initial value when the
/// flag is absent, so it doubles as the default.
struct Flag {
  const char* name;  ///< Without the leading "--".
  FlagKind kind;
  const char* help;  ///< One line for --help.
  std::variant<bool*, std::uint64_t*, double*, const char**, unsigned*>
      target;
};

/// \brief What ParseFlags found besides the flag values it stored.
struct ParsedArgs {
  std::vector<const char*> positionals;
  /// Names of the flags that appeared, in command-line order.
  std::vector<std::string_view> given;
  /// `--help` or `-h` appeared (parsing stopped there).
  bool help = false;

  bool Given(std::string_view name) const;
};

/// \brief Parses argv[1, argc) against `flags`, storing each value in its
/// target. `positionals` describes the positional arguments for the usage
/// line; nullptr means the executable takes none, so any positional is an
/// error. Returns InvalidArgument naming the flag on an unknown flag, a
/// duplicate, a malformed value, a missing value, or a value given to a
/// bool flag.
Result<ParsedArgs> ParseFlags(int argc, char** argv,
                              const std::vector<Flag>& flags,
                              const char* positionals);

/// \brief `usage: ARGV0 [--name VALUE] ... POSITIONALS`, newline-terminated.
std::string UsageLine(const char* argv0, const std::vector<Flag>& flags,
                      const char* positionals);

/// \brief UsageLine plus one aligned `--name VALUE  help` line per flag
/// and the `-h, --help` line.
std::string HelpText(const char* argv0, const std::vector<Flag>& flags,
                     const char* positionals);

/// \brief ParseFlags for an executable's main: on --help prints HelpText
/// to stdout and exits 0; on an error prints it with the usage line to
/// stderr and exits 2. Otherwise returns the parse.
ParsedArgs ParseCommandLine(int argc, char** argv,
                            const std::vector<Flag>& flags,
                            const char* positionals = nullptr);

}  // namespace bdisk::runtime

#endif  // BDISK_RUNTIME_FLAGS_H_
