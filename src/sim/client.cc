#include "sim/client.h"

#include <algorithm>

#include "common/check.h"
#include "sim/simulation.h"

namespace bdisk::sim {

ReconstructingClient::ReconstructingClient(ida::FileId file, std::uint32_t m,
                                           std::uint32_t n,
                                           std::size_t block_size)
    : file_(file), m_(m), n_(n),
      engine_([&] {
        auto e = ida::Dispersal::Create(m, n, block_size);
        BDISK_CHECK(e.ok());
        return std::move(*e);
      }()),
      have_(n, false) {
  buffer_.reserve(m);
}

OfferOutcome ReconstructingClient::OfferEx(const ida::Block& block,
                                           std::uint64_t epoch) {
  // The cheap file filter runs before the O(payload) checksum: on a
  // broadcast channel most offered blocks belong to other files and one
  // uint32 compare discards them. Filtering on the (unverified) file_id
  // is safe — a block whose damaged file_id points elsewhere is discarded
  // either way, and one damaged *into* our id still hits the integrity
  // check below before any other header field is trusted.
  if (block.header.file_id != file_) return OfferOutcome::kWrongFile;
  const ida::ChecksumState checksum = ida::VerifyChecksum(block);
  if (checksum == ida::ChecksumState::kMismatch ||
      (require_checksums_ && checksum == ida::ChecksumState::kUnstamped)) {
    ++checksum_rejected_;
    return OfferOutcome::kChecksumMismatch;
  }
  if (block.header.reconstruct_threshold != m_ ||
      block.header.total_blocks != n_ || block.header.block_index >= n_) {
    return OfferOutcome::kMalformedHeader;
  }
  if (CanReconstruct()) return OfferOutcome::kAlreadyComplete;
  if (version_.has_value() && block.header.version != *version_) {
    if (block.header.version < *version_) {
      // An older snapshot's block: IDA's linear combination only inverts
      // against one consistent snapshot, so it can never be combined with
      // the buffered ones. Reject explicitly instead of letting
      // Reconstruct() fail later (or worse, silently overwriting).
      ++stale_rejected_;
      return OfferOutcome::kStaleVersion;
    }
    // A newer snapshot appeared: the buffered partial collection is the
    // stale one now. Discard and restart on the new version.
    Clear();
    ++restarts_;
  }
  if (have_[block.header.block_index]) {
    ++duplicates_rejected_;
    return OfferOutcome::kDuplicate;
  }
  version_ = block.header.version;
  have_[block.header.block_index] = true;
  ++distinct_;
  buffer_.push_back(block);
  block_epochs_.push_back(epoch);
  return CanReconstruct() ? OfferOutcome::kCompleted
                          : OfferOutcome::kAccepted;
}

std::uint32_t ReconstructingClient::EpochsSpanned() const {
  std::uint32_t distinct_epochs = 0;
  for (std::size_t i = 0; i < block_epochs_.size(); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (block_epochs_[j] == block_epochs_[i]) {
        seen = true;
        break;
      }
    }
    if (!seen) ++distinct_epochs;
  }
  return distinct_epochs;
}

Result<std::vector<std::uint8_t>> ReconstructingClient::Reconstruct() const {
  if (!CanReconstruct()) {
    return Status::DataLoss("ReconstructingClient: only " +
                            std::to_string(distinct_) + " of " +
                            std::to_string(m_) + " blocks collected");
  }
  return engine_.Reconstruct(buffer_);
}

void ReconstructingClient::Clear() {
  have_.assign(n_, false);
  distinct_ = 0;
  buffer_.clear();
  block_epochs_.clear();
  version_.reset();
}

namespace {

// Completion slot of a faultless byte-level session (index walk only — no
// payload copies): the stall baseline, on the shared walk definition.
std::optional<std::uint64_t> LosslessSessionCompletion(
    const BroadcastServer& server, broadcast::FileIndex file,
    std::uint64_t start_slot, std::uint64_t horizon) {
  const broadcast::ProgramFile& pf = server.program().files()[file];
  return LosslessCompletionWalk(
      [&server](std::uint64_t t) {
        return server.schedule().TransmissionAt(t);
      },
      file, pf.m, pf.n, start_slot, horizon);
}

}  // namespace

Result<SessionResult> RunRetrievalSession(const BroadcastServer& server,
                                          const faults::ChannelModel& channel,
                                          broadcast::FileIndex file,
                                          std::uint64_t start_slot,
                                          std::uint64_t horizon) {
  if (file >= server.program().file_count()) {
    return Status::InvalidArgument("RunRetrievalSession: unknown file");
  }
  const broadcast::ProgramFile& pf = server.program().files()[file];
  ReconstructingClient client(static_cast<ida::FileId>(file), pf.m, pf.n,
                              server.block_size());
  // The server stamps every transmission, so an unstamped block can only
  // be a corruption artifact; require checksums outright.
  client.set_require_checksums(true);
  SessionResult result;
  // The channel trace is a pure function of the slot, so the session can
  // start listening at start_slot directly — no replay from slot 0. The
  // trace is fetched in chunks via FillFaults so frame-regenerative
  // models (Gilbert-Elliott) walk each frame once instead of O(frame)
  // work per FaultAt call.
  constexpr std::uint64_t kFaultChunk = 1024;
  std::vector<faults::FaultType> chunk;
  std::uint64_t chunk_begin = start_slot;
  for (std::uint64_t t = start_slot; t < horizon; ++t) {
    if (t >= chunk_begin + chunk.size()) {
      chunk_begin = t;
      chunk.resize(std::min(kFaultChunk, horizon - t));
      channel.FillFaults(chunk_begin, chunk_begin + chunk.size(),
                         chunk.data());
    }
    const faults::FaultType fault = chunk[t - chunk_begin];
    auto block = server.TransmissionAt(t);
    if (!block.has_value()) continue;
    const bool ours = block->header.file_id == file;
    if (fault == faults::FaultType::kLost) {
      if (ours) ++result.lost_observed;
      continue;
    }
    if (fault == faults::FaultType::kCorrupted) {
      channel.CorruptBlock(t, &*block);
      // The file identity is ground truth from the server, not from the
      // (possibly damaged) header.
      if (ours) ++result.corrupt_detected;
    }
    if (OfferSatisfied(
            client.OfferEx(*block, server.schedule().EpochIndexAt(t)))) {
      result.completed = true;
      result.completion_slot = t;
      result.latency = t - start_slot + 1;
      break;
    }
  }
  result.epochs_spanned = client.EpochsSpanned();
  if (result.completed) {
    if (result.lost_observed + result.corrupt_detected > 0) {
      const auto baseline =
          LosslessSessionCompletion(server, file, start_slot, horizon);
      BDISK_CHECK(baseline.has_value());  // Completes by result's slot.
      result.stall_slots = result.completion_slot - *baseline;
    }
    BDISK_ASSIGN_OR_RETURN(result.data, client.Reconstruct());
  }
  return result;
}

}  // namespace bdisk::sim
