/// \file crc32c.h
/// \brief CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) checksums.
///
/// Used to make broadcast blocks self-verifying: a client that receives a
/// block over a corrupting channel recomputes the checksum and discards the
/// block on mismatch. CRC-32C guarantees detection of any single error
/// burst of at most 32 bits; longer random corruption escapes with
/// probability 2^-32.
///
/// The checksum is on the serve and listen hot paths: blocks are stamped
/// once at store build, but the stamp is verified on every store read
/// (`store::BlockStore::ReadCodedBlock`) and on every block a listener
/// offers to a matching session (`sim::ReconstructingClient::OfferEx`).
/// The kernel is therefore chosen once per process by CPUID: the SSE4.2
/// `crc32` instruction on x86-64 CPUs that have it, the portable byte-table
/// kernel everywhere else. Both produce identical values.

#ifndef BDISK_COMMON_CRC32C_H_
#define BDISK_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace bdisk {

/// \brief Extends a running CRC-32C with `len` bytes. Start with crc = 0.
std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t len);

/// \brief CRC-32C of one buffer.
inline std::uint32_t Crc32c(const void* data, std::size_t len) {
  return Crc32cExtend(0, data, len);
}

namespace internal {

/// \brief The portable byte-table kernel, same contract as Crc32cExtend.
/// It is the dispatched kernel on CPUs without SSE4.2 and the reference the
/// tests compare the dispatched kernel against.
std::uint32_t Crc32cExtendTable(std::uint32_t crc, const void* data,
                                std::size_t len);

}  // namespace internal

}  // namespace bdisk

#endif  // BDISK_COMMON_CRC32C_H_
