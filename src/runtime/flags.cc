#include "runtime/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/parse.h"

namespace bdisk::runtime {

namespace {

// Per FlagKind, in enum order: the value placeholder --help shows, and
// what a malformed value "is not".
struct KindText {
  const char* value_name;
  const char* expected;
};
constexpr KindText kKindText[] = {
    {"", ""},                                  // kBool
    {" N", "a non-negative integer"},          // kUint
    {" N", "a positive integer"},              // kPositiveUint
    {" X", "a finite number"},                 // kDouble
    {" SIZE",  // kByteSize
     "a byte size (decimal count with optional B/KiB/MiB/GiB)"},
    {" VALUE", ""},                            // kString
    {" N", "a thread count in [1, 4096]"},     // kThreads
};
static_assert(kMaxThreadCount == 4096);

const KindText& TextOf(FlagKind kind) {
  return kKindText[static_cast<int>(kind)];
}

// Parses `value` by `flag.kind` into its target; false when malformed. A
// target whose type does not match the kind is a bug in the executable's
// table, on which std::get terminates.
bool StoreValue(const Flag& flag, const char* value) {
  std::uint64_t n = 0;
  switch (flag.kind) {
    case FlagKind::kUint:
    case FlagKind::kPositiveUint:
      if (!ParseUint64Token(value, &n) ||
          (n == 0 && flag.kind == FlagKind::kPositiveUint)) {
        return false;
      }
      *std::get<std::uint64_t*>(flag.target) = n;
      return true;
    case FlagKind::kByteSize:
      if (!ParseByteSizeToken(value, &n)) return false;
      *std::get<std::uint64_t*>(flag.target) = n;
      return true;
    case FlagKind::kThreads:
      if (!ParseUint64Token(value, &n) || n == 0 || n > kMaxThreadCount) {
        return false;
      }
      *std::get<unsigned*>(flag.target) = static_cast<unsigned>(n);
      return true;
    case FlagKind::kDouble: {
      char* end = nullptr;
      const double x = std::strtod(value, &end);
      if (end == value || *end != '\0' || !std::isfinite(x)) return false;
      *std::get<double*>(flag.target) = x;
      return true;
    }
    case FlagKind::kString:
      *std::get<const char**>(flag.target) = value;
      return true;
    case FlagKind::kBool:
      break;
  }
  return false;
}

Status FlagError(const Flag& flag, const std::string& what) {
  return Status::InvalidArgument(std::string("flag --") + flag.name + what);
}

}  // namespace

bool ParsedArgs::Given(std::string_view name) const {
  return std::find(given.begin(), given.end(), name) != given.end();
}

Result<ParsedArgs> ParseFlags(int argc, char** argv,
                              const std::vector<Flag>& flags,
                              const char* positionals) {
  ParsedArgs parsed;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      parsed.help = true;
      return parsed;
    }
    if (arg.size() < 2 || arg[0] != '-') {
      if (positionals == nullptr) {
        return Status::InvalidArgument("unexpected argument '" +
                                       std::string(arg) + "'");
      }
      parsed.positionals.push_back(argv[i]);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view spelled = arg.substr(0, eq);
    const auto flag = std::find_if(
        flags.begin(), flags.end(), [spelled](const Flag& f) {
          return spelled.starts_with("--") && spelled.substr(2) == f.name;
        });
    if (flag == flags.end()) {
      return Status::InvalidArgument("unknown flag '" + std::string(spelled) +
                                     "'");
    }
    if (parsed.Given(flag->name)) {
      return FlagError(*flag, " given more than once");
    }
    parsed.given.push_back(flag->name);
    if (flag->kind == FlagKind::kBool) {
      if (eq != std::string_view::npos) {
        return FlagError(*flag, " takes no value");
      }
      *std::get<bool*>(flag->target) = true;
      continue;
    }
    const char* value = nullptr;
    if (eq != std::string_view::npos) {
      value = argv[i] + eq + 1;
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    if (value == nullptr || *value == '\0') {
      return FlagError(*flag, " requires a value");
    }
    if (!StoreValue(*flag, value)) {
      return FlagError(*flag, std::string(": '") + value + "' is not " +
                                  TextOf(flag->kind).expected);
    }
  }
  return parsed;
}

std::string UsageLine(const char* argv0, const std::vector<Flag>& flags,
                      const char* positionals) {
  std::string line = std::string("usage: ") + argv0;
  for (const Flag& flag : flags) {
    line += std::string(" [--") + flag.name + TextOf(flag.kind).value_name +
            "]";
  }
  if (positionals != nullptr) line += std::string(" ") + positionals;
  return line + "\n";
}

std::string HelpText(const char* argv0, const std::vector<Flag>& flags,
                     const char* positionals) {
  std::vector<std::pair<std::string, const char*>> rows;
  for (const Flag& flag : flags) {
    rows.emplace_back(
        std::string("--") + flag.name + TextOf(flag.kind).value_name,
        flag.help);
  }
  rows.emplace_back("-h, --help", "print this help and exit");
  std::size_t width = 0;
  for (const auto& row : rows) width = std::max(width, row.first.size());
  std::string text = UsageLine(argv0, flags, positionals);
  for (const auto& [head, help] : rows) {
    text += "  " + head + std::string(width - head.size() + 2, ' ') + help +
            "\n";
  }
  return text;
}

ParsedArgs ParseCommandLine(int argc, char** argv,
                            const std::vector<Flag>& flags,
                            const char* positionals) {
  auto parsed = ParseFlags(argc, argv, flags, positionals);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n%s", parsed.status().message().c_str(),
                 UsageLine(argv[0], flags, positionals).c_str());
    std::exit(2);
  }
  if (parsed->help) {
    std::fputs(HelpText(argv[0], flags, positionals).c_str(), stdout);
    std::exit(0);
  }
  return std::move(*parsed);
}

}  // namespace bdisk::runtime
