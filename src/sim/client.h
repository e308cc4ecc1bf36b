/// \file client.h
/// \brief Byte-level client: collects self-identifying coded blocks off the
/// broadcast channel and reconstructs the file with IDA.
///
/// Mirrors the paper's client model: no uplink, bounded buffer (it keeps at
/// most m blocks — IDA needs no more), blocks identified purely by their
/// headers ("this is block 4 out of 10 of object Z").

#ifndef BDISK_SIM_CLIENT_H_
#define BDISK_SIM_CLIENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "faults/channel_model.h"
#include "ida/block.h"
#include "ida/dispersal.h"
#include "sim/server.h"

namespace bdisk::sim {

/// \brief Why an offered block was (or was not) admitted into the
/// collection buffer. Every rejection is explicit and counted — a client on
/// a faulty channel must never silently treat an unusable block as
/// progress.
enum class OfferOutcome : std::uint8_t {
  /// Admitted; more blocks are still needed.
  kAccepted,
  /// Admitted, and the client now holds m distinct blocks.
  kCompleted,
  /// Ignored: the client already holds m distinct blocks.
  kAlreadyComplete,
  /// Ignored: the block belongs to a different file.
  kWrongFile,
  /// Rejected: header geometry does not match (wrong m/n, index >= n).
  kMalformedHeader,
  /// Rejected: a block with this index is already buffered (duplicates
  /// carry no new information under IDA).
  kDuplicate,
  /// Rejected: the block's version predates the version being collected —
  /// blocks of different update generations must never be combined.
  kStaleVersion,
  /// Rejected: the block is stamped and its checksum does not match, or
  /// checksums are required and it is unstamped — the payload (or header)
  /// was corrupted in transit.
  kChecksumMismatch,
};

/// True for the two outcomes that leave the client reconstructable.
inline bool OfferSatisfied(OfferOutcome outcome) {
  return outcome == OfferOutcome::kCompleted ||
         outcome == OfferOutcome::kAlreadyComplete;
}

/// \brief Incremental block collector + reconstructor for one file.
class ReconstructingClient {
 public:
  /// \param file        the file (program index / ida::FileId) to retrieve.
  /// \param m           reconstruction threshold.
  /// \param n           total dispersed blocks (for header validation).
  /// \param block_size  payload bytes per block.
  ReconstructingClient(ida::FileId file, std::uint32_t m, std::uint32_t n,
                       std::size_t block_size);

  /// Requires every admitted block to carry a valid checksum (the
  /// broadcast server stamps all transmissions). Default off so
  /// hand-built, unstamped blocks remain offerable; stamped-but-mismatched
  /// blocks are rejected in either mode.
  void set_require_checksums(bool require) { require_checksums_ = require; }

  /// Offers a received block and reports exactly what happened to it.
  ///
  /// `epoch` keys the block by the program epoch it was heard under
  /// (sim/epoch.h). Because hot swaps preserve dispersal geometry and
  /// contents, blocks from different epochs are mutually reconstructing —
  /// a stale-*epoch* block is deliberately NOT an error; the client keeps
  /// collecting across a swap and Reconstruct() is bit-identical to a
  /// single-epoch retrieval. Stale-*version* blocks (an older update
  /// generation than the one being collected) are rejected, and a *newer*
  /// version discards the stale partial collection and restarts, exactly
  /// like the versioned server's update semantics.
  OfferOutcome OfferEx(const ida::Block& block, std::uint64_t epoch = 0);

  /// Compatibility wrapper: returns true iff the client can reconstruct
  /// after the offer (OfferSatisfied(OfferEx(...))).
  bool Offer(const ida::Block& block, std::uint64_t epoch = 0) {
    return OfferSatisfied(OfferEx(block, epoch));
  }

  /// True iff m distinct blocks have been collected.
  bool CanReconstruct() const { return distinct_ >= m_; }

  /// Number of distinct blocks collected so far.
  std::uint32_t distinct_blocks() const { return distinct_; }

  /// Number of distinct program epochs among the collected blocks.
  std::uint32_t EpochsSpanned() const;

  /// Reconstructs the file. Fails with DataLoss before CanReconstruct().
  Result<std::vector<std::uint8_t>> Reconstruct() const;

  /// Drops all collected blocks (for reuse; rejection counters persist).
  void Clear();

  /// Duplicate-index blocks rejected so far.
  std::uint64_t duplicates_rejected() const { return duplicates_rejected_; }
  /// Stale-version blocks rejected so far.
  std::uint64_t stale_rejected() const { return stale_rejected_; }
  /// Checksum-mismatch blocks rejected so far.
  std::uint64_t checksum_rejected() const { return checksum_rejected_; }
  /// Partial collections discarded because a newer version appeared.
  std::uint32_t restarts() const { return restarts_; }

 private:
  ida::FileId file_;
  std::uint32_t m_;
  std::uint32_t n_;
  ida::Dispersal engine_;
  std::vector<bool> have_;
  std::uint32_t distinct_ = 0;
  std::vector<ida::Block> buffer_;
  // Epoch under which each buffered block was collected (parallel to
  // buffer_).
  std::vector<std::uint64_t> block_epochs_;
  // Version pinned by the first admitted block (collection invariant:
  // every buffered block carries this version).
  std::optional<std::uint64_t> version_;
  bool require_checksums_ = false;
  std::uint64_t duplicates_rejected_ = 0;
  std::uint64_t stale_rejected_ = 0;
  std::uint64_t checksum_rejected_ = 0;
  std::uint32_t restarts_ = 0;
};

/// \brief Outcome of a byte-level retrieval session.
struct SessionResult {
  bool completed = false;
  std::uint64_t completion_slot = 0;
  std::uint64_t latency = 0;
  /// Distinct program epochs the collected blocks were heard under (1 for
  /// a single-program server; >= 2 when the retrieval spanned a hot swap).
  std::uint32_t epochs_spanned = 0;
  /// Transmissions of the requested file erased by the channel.
  std::uint32_t lost_observed = 0;
  /// Transmissions of the requested file corrupted by the channel and
  /// rejected by the client (checksum or header validation).
  std::uint32_t corrupt_detected = 0;
  /// Latency minus the lossless-channel latency of the same session
  /// (valid when completed).
  std::uint64_t stall_slots = 0;
  std::vector<std::uint8_t> data;
};

/// \brief Runs a full retrieval session: from `start_slot`, listen to
/// `server` through `channel`'s deterministic fault trace until the file is
/// reconstructable or `horizon` is reached, then reconstruct. Lost slots
/// never reach the client; corrupted slots deliver a damaged copy of the
/// block, which the client must detect (the server stamps checksums, and
/// the session requires them) and discard. The trace is random-access, so
/// listening starts at `start_slot` directly, and the realization is the
/// index-level simulator's no matter where (or on how many threads)
/// sessions start.
Result<SessionResult> RunRetrievalSession(const BroadcastServer& server,
                                          const faults::ChannelModel& channel,
                                          broadcast::FileIndex file,
                                          std::uint64_t start_slot,
                                          std::uint64_t horizon);

}  // namespace bdisk::sim

#endif  // BDISK_SIM_CLIENT_H_
