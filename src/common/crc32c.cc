#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define BDISK_CRC32C_SSE42 1
#endif

namespace bdisk {
namespace {

// Reflected CRC-32C table, generated at compile time from the Castagnoli
// polynomial (reflected form 0x82F63B78).
constexpr std::array<std::uint32_t, 256> MakeTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = MakeTable();

#ifdef BDISK_CRC32C_SSE42
// Three-way interleaving. One crc32 instruction has a latency of three
// cycles but the CPU issues one per cycle, so a single dependent chain
// runs at a third of the instruction's throughput. The kernel therefore
// checksums three adjacent streams of `stride` bytes at once and merges
// them with the CRC's linearity: for the raw register (no pre/post
// inversion), crc(A || B, s) = crc(A, s) * x^(8|B|) mod P  xor  crc(B, 0).
// Multiplying by x^(8|B|) is linear in the 32-bit register, so it is four
// byte-indexed table lookups per stride.

// Product of two polynomials modulo P, both in the reflected bit order the
// CRC register uses (bit 31 is x^0).
constexpr std::uint32_t MulModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b >> 1) ^ ((b & 1) ? 0x82F63B78u : 0u);  // b *= x
  }
  return product;
}

using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

// Table for "advance a raw register over `bytes` zero bytes":
// shift[k][v] = (v << 8k) * x^(8 * bytes) mod P.
constexpr ShiftTable MakeShiftTable(std::size_t bytes) {
  std::uint32_t op = 1u << 31;         // x^0
  std::uint32_t square = 1u << 23;     // x^8
  for (std::size_t n = bytes; n != 0; n >>= 1) {
    if (n & 1) op = MulModP(op, square);
    square = MulModP(square, square);
  }
  ShiftTable table{};
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t v = 0; v < 256; ++v) {
      table[k][v] = MulModP(op, v << (8 * k));
    }
  }
  return table;
}

// Two stride tiers: long strides carry the bulk of a block with the
// merge cost amortized; short strides take most of what is left.
constexpr std::size_t kLongStride = 2048;
constexpr std::size_t kShortStride = 256;
constexpr ShiftTable kLongShift = MakeShiftTable(kLongStride);
constexpr ShiftTable kShortShift = MakeShiftTable(kShortStride);

std::uint64_t Shift(const ShiftTable& t, std::uint64_t c) {
  return t[0][c & 0xFF] ^ t[1][(c >> 8) & 0xFF] ^ t[2][(c >> 16) & 0xFF] ^
         t[3][(c >> 24) & 0xFF];
}

std::uint64_t Load64(const std::uint8_t* p) {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

// Extends raw register `c` over 3 * stride bytes at `p`.
__attribute__((target("sse4.2"))) std::uint64_t ThreeWay(
    std::uint64_t c, const std::uint8_t* p, std::size_t stride,
    const ShiftTable& shift) {
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  for (std::size_t i = 0; i < stride; i += 8) {
    c = _mm_crc32_u64(c, Load64(p + i));
    c1 = _mm_crc32_u64(c1, Load64(p + stride + i));
    c2 = _mm_crc32_u64(c2, Load64(p + 2 * stride + i));
  }
  return Shift(shift, Shift(shift, c) ^ c1) ^ c2;
}

// The SSE4.2 crc32 instruction computes the same reflected Castagnoli
// update as the table, eight bytes per instruction. Compiled for SSE4.2
// per function, so the rest of the binary stays baseline x86-64 and this
// code runs only after the CPUID check in SelectKernel.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cExtendSse42(
    std::uint32_t crc, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = ~crc;
  for (; len >= 3 * kLongStride; p += 3 * kLongStride, len -= 3 * kLongStride) {
    c = ThreeWay(c, p, kLongStride, kLongShift);
  }
  for (; len >= 3 * kShortStride;
       p += 3 * kShortStride, len -= 3 * kShortStride) {
    c = ThreeWay(c, p, kShortStride, kShortShift);
  }
  for (; len >= 8; p += 8, len -= 8) c = _mm_crc32_u64(c, Load64(p));
  auto c32 = static_cast<std::uint32_t>(c);
  for (; len > 0; ++p, --len) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

using Kernel = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

Kernel SelectKernel() {
#ifdef BDISK_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2")) return Crc32cExtendSse42;
#endif
  return internal::Crc32cExtendTable;
}

}  // namespace

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t len) {
  static const Kernel kKernel = SelectKernel();
  return kKernel(crc, data, len);
}

namespace internal {

std::uint32_t Crc32cExtendTable(std::uint32_t crc, const void* data,
                                std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

}  // namespace internal

}  // namespace bdisk
