// Unit tests for the CRC-32C checksum: known-answer vectors, the
// CPUID-dispatched kernel against the portable byte-table reference, and
// incremental extension over arbitrary chunk splits.

#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"

namespace bdisk {
namespace {

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// RFC 3720 (iSCSI) appendix B.4 test vectors, plus the customary
// "123456789" check value of CRC-32C.
TEST(Crc32cTest, KnownAnswerVectors) {
  const std::vector<std::uint8_t> zeros(32, 0x00);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  std::vector<std::uint8_t> ascending(32);
  std::iota(ascending.begin(), ascending.end(), std::uint8_t{0});
  const std::string check = "123456789";

  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);

  // The reference kernel answers the same vectors.
  EXPECT_EQ(internal::Crc32cExtendTable(0, zeros.data(), zeros.size()),
            0x8A9136AAu);
  EXPECT_EQ(internal::Crc32cExtendTable(0, ones.data(), ones.size()),
            0x62A8AB43u);
  EXPECT_EQ(internal::Crc32cExtendTable(0, ascending.data(), ascending.size()),
            0x46DD794Eu);
  EXPECT_EQ(internal::Crc32cExtendTable(0, check.data(), check.size()),
            0xE3069283u);
}

// Every length from 0 to 1 KiB, a sweep up to 16 KiB, and the 32 KiB and
// 64 KiB block sizes, each at all 8 start misalignments and from a nonzero
// running CRC, must match the byte-table reference bit for bit.
TEST(Crc32cTest, DispatchedKernelMatchesTableReference) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  for (std::size_t n = 1025; n <= 16384; n += 127) lengths.push_back(n);
  lengths.push_back(32768);
  lengths.push_back(65536);
  const std::vector<std::uint8_t> buf = RandomBytes(65536 + 8, 12);
  for (const std::size_t n : lengths) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(p, n), internal::Crc32cExtendTable(0, p, n))
          << "length " << n << " offset " << offset;
      ASSERT_EQ(Crc32cExtend(0xDEADBEEFu, p, n),
                internal::Crc32cExtendTable(0xDEADBEEFu, p, n))
          << "length " << n << " offset " << offset;
    }
  }
}

TEST(Crc32cTest, ExtendOverChunkSplitsEqualsOneShot) {
  const std::vector<std::uint8_t> buf = RandomBytes(40000, 34);
  const std::uint32_t one_shot = Crc32c(buf.data(), buf.size());
  Rng rng(56);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t crc = 0;
    std::size_t pos = 0;
    while (pos < buf.size()) {
      // Mix empty, tiny, odd and multi-KiB chunks.
      const std::size_t max_chunk = (trial % 2 == 0) ? 17 : 9000;
      const std::size_t chunk =
          std::min<std::size_t>(rng.Uniform(max_chunk + 1), buf.size() - pos);
      crc = Crc32cExtend(crc, buf.data() + pos, chunk);
      pos += chunk;
    }
    ASSERT_EQ(crc, one_shot) << "trial " << trial;
  }
}

}  // namespace
}  // namespace bdisk
