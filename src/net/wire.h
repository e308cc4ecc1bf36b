/// \file wire.h
/// \brief The broadcast datagram format: one UDP datagram per slot.
///
/// The wire carries exactly what the in-process data plane hands a client —
/// a self-identifying coded block (ida/block.h) stamped with its CRC-32C
/// checksum — plus the two pieces of channel context a tuned-in receiver
/// cannot infer on its own: the absolute slot number (the broadcast clock)
/// and the program epoch governing that slot (sim/epoch.h). Everything a
/// client needs to participate mid-stream is in every datagram; there is no
/// handshake, no uplink, and no per-client state on the server.
///
/// Layout (little-endian, fixed 52-byte header):
///
///   offset size field
///   0      4    magic "BDK1"
///   4      1    type (0 = block, 1 = idle beacon, 2 = end of stream)
///   5      3    reserved, zero
///   8      8    slot
///   16     8    epoch
///   24     24   block identity (ida::SerializeIdentity: file, index, m, n,
///               version) — zero for control datagrams
///   48     4    block checksum (the CRC-32C stamp of ida::BlockChecksum;
///               0 = control datagram / unstamped)
///   52     ...  payload (block datagrams only)
///
/// The identity + checksum bytes are byte-identical to the in-process
/// block header, so `ReconstructingClient::OfferEx` rejects a corrupted
/// datagram through exactly the same integrity check as the in-process
/// path — the wire adds no second checksum and no second rejection policy.
///
/// Idle beacons mark slots the program leaves empty (they advance a
/// listener's clock and liveness timer); the end-of-stream datagram marks
/// the served horizon so a listener can distinguish "run over" from "wire
/// gone quiet".

#ifndef BDISK_NET_WIRE_H_
#define BDISK_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ida/block.h"

namespace bdisk::net {

/// \brief Datagram taxonomy. Values are the on-wire type byte.
enum class DatagramType : std::uint8_t {
  /// One coded block of one slot.
  kBlock = 0,
  /// An idle slot (nothing scheduled): header only.
  kIdle = 1,
  /// End of the served horizon: header only, slot = horizon.
  kEnd = 2,
};

/// Fixed header size; block payload follows.
inline constexpr std::size_t kWireHeaderBytes = 52;

/// Magic bytes "BDK1".
inline constexpr std::uint8_t kWireMagic[4] = {0x42, 0x44, 0x4B, 0x31};

/// Largest payload a single UDP datagram can carry (65535 minus IP + UDP
/// headers minus our wire header). The server rejects programs whose block
/// size exceeds this — the broadcast medium is one datagram per block.
inline constexpr std::size_t kMaxWirePayloadBytes =
    65507 - kWireHeaderBytes;

/// \brief A decoded datagram. `block` is meaningful only for kBlock.
struct WireDatagram {
  DatagramType type = DatagramType::kBlock;
  std::uint64_t slot = 0;
  std::uint64_t epoch = 0;
  ida::Block block;
};

/// \brief Encodes one coded block as a slot-`slot` datagram. The block's
/// stored checksum travels verbatim (the server stamps blocks once at
/// store build; encoding never re-hashes).
std::vector<std::uint8_t> EncodeBlockDatagram(std::uint64_t slot,
                                              std::uint64_t epoch,
                                              const ida::Block& block);

/// \brief Encodes a header-only control datagram (kIdle or kEnd).
std::vector<std::uint8_t> EncodeControlDatagram(DatagramType type,
                                                std::uint64_t slot,
                                                std::uint64_t epoch);

/// \brief Decodes a received datagram into `*out`, reusing its payload
/// capacity, so a listener that decodes every datagram into one
/// WireDatagram allocates nothing per datagram. Fails with InvalidArgument
/// on a bad magic, unknown type, short header, or a control datagram
/// carrying a payload; `*out` is then unspecified. A control datagram
/// leaves `out->block` as it was. Block payload bytes are copied out
/// verbatim — payload integrity is the block checksum's job, not the
/// decoder's.
Status DecodeDatagramInto(const std::uint8_t* data, std::size_t size,
                          WireDatagram* out);

/// \brief Decodes a received datagram into a fresh WireDatagram (see
/// DecodeDatagramInto).
Result<WireDatagram> DecodeDatagram(const std::uint8_t* data,
                                    std::size_t size);

/// \brief Reads the type byte of an encoded datagram without decoding it
/// (kWireHeaderBytes not required — any 5 bytes suffice).
Result<DatagramType> PeekType(const std::uint8_t* data, std::size_t size);

/// \brief Reads the slot of an encoded datagram without decoding it.
Result<std::uint64_t> PeekSlot(const std::uint8_t* data, std::size_t size);

}  // namespace bdisk::net

#endif  // BDISK_NET_WIRE_H_
