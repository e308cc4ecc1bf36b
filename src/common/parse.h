/// \file parse.h
/// \brief Strict whole-token number parsers shared by the spec grammars
/// (channel specs, device-fault specs, endpoints) and the command-line
/// flag table (runtime/flags.h).

#ifndef BDISK_COMMON_PARSE_H_
#define BDISK_COMMON_PARSE_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace bdisk {

/// \brief Strict decimal uint64 parse: the whole token, no sign, no
/// whitespace, no overflow (ERANGE would otherwise silently saturate to
/// ULLONG_MAX).
inline bool ParseUint64Token(const char* token, std::uint64_t* out) {
  if (token == nullptr || token[0] < '0' || token[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token, &end, 10);
  if (end == token || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<std::uint64_t>(value);
  return true;
}

/// \brief Strict byte-size parse: a decimal count with an optional binary
/// suffix (`B`, `KiB`, `MiB`, `GiB` — exact spelling, no space), so
/// capacities read as "256MiB" instead of nine-digit literals. Rejects
/// anything else: sign, whitespace, decimal fractions, SI suffixes (`KB`),
/// and products that overflow 64 bits.
inline bool ParseByteSizeToken(const char* token, std::uint64_t* out) {
  if (token == nullptr || token[0] < '0' || token[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token, &end, 10);
  if (end == token || errno == ERANGE) return false;
  unsigned shift = 0;
  if (*end != '\0') {
    if (std::strcmp(end, "B") == 0) {
      shift = 0;
    } else if (std::strcmp(end, "KiB") == 0) {
      shift = 10;
    } else if (std::strcmp(end, "MiB") == 0) {
      shift = 20;
    } else if (std::strcmp(end, "GiB") == 0) {
      shift = 30;
    } else {
      return false;
    }
  }
  if (shift != 0 && value > (~0ull >> shift)) return false;
  *out = static_cast<std::uint64_t>(value) << shift;
  return true;
}

}  // namespace bdisk

#endif  // BDISK_COMMON_PARSE_H_
