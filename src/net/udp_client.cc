#include "net/udp_client.h"

#include <utility>

#include "net/wire.h"

namespace bdisk::net {

Result<UdpClient> UdpClient::Create(const UdpClientOptions& options) {
  if (options.block_size == 0) {
    return Status::InvalidArgument("net: client block_size must be set");
  }
  Endpoint ep;
  ep.host = options.bind_host;
  ep.port = options.port;
  BDISK_ASSIGN_OR_RETURN(UdpSocket socket, UdpSocket::Bind(ep));
  BDISK_RETURN_NOT_OK(socket.SetRecvBufferBytes(options.recv_buffer_bytes));
  return UdpClient(options, std::move(socket));
}

void UdpClient::AddSession(const WireSession& session) {
  sessions_.push_back(ActiveSession{
      session,
      sim::ReconstructingClient(static_cast<ida::FileId>(session.file),
                                session.m, session.n, options_.block_size),
      WireSessionResult{},
      /*tuned_in=*/false});
  sessions_.back().client.set_require_checksums(options_.require_checksums);
  if (session.start_slot.has_value()) {
    // Prefill so an incomplete result still reports where it listened from.
    sessions_.back().result.start_slot = *session.start_slot;
  }
}

bool UdpClient::AllComplete() const {
  for (const ActiveSession& s : sessions_) {
    if (!s.result.session.completed) return false;
  }
  return true;
}

void UdpClient::OfferToSessions(std::uint64_t slot, std::uint64_t epoch,
                                const ida::Block& block) {
  for (ActiveSession& s : sessions_) {
    if (!s.tuned_in) {
      if (s.spec.start_slot.has_value()) {
        if (slot < *s.spec.start_slot) continue;
        s.result.start_slot = *s.spec.start_slot;
      } else {
        // Mid-stream join: latency counts from the first slot heard.
        s.result.start_slot = slot;
      }
      s.tuned_in = true;
    }
    if (s.result.session.completed) continue;
    const sim::OfferOutcome outcome = s.client.OfferEx(block, epoch);
    if (outcome == sim::OfferOutcome::kChecksumMismatch &&
        block.header.file_id == static_cast<ida::FileId>(s.spec.file)) {
      // Attribution by claimed identity — see the header-comment caveat.
      ++s.result.session.corrupt_detected;
    }
    if (sim::OfferSatisfied(outcome)) {
      s.result.session.completed = true;
      s.result.session.completion_slot = slot;
      s.result.session.latency = slot - s.result.start_slot + 1;
    }
  }
}

Result<std::vector<WireSessionResult>> UdpClient::Run() {
  std::vector<std::uint8_t> buf(65536);
  // Every datagram decodes into this one object, so its payload capacity
  // carries over and the loop allocates nothing per datagram.
  WireDatagram d;
  // Tuning out the moment every session completes (!linger_until_end)
  // sounds like an optimization but silently breaks any sent-vs-received
  // datagram accounting: the unread stream tail looks exactly like kernel
  // loss to the harness. Lingering to the end marker is the default so
  // the stats cover the whole broadcast.
  while ((options_.linger_until_end || !AllComplete()) && !stats_.end_seen) {
    BDISK_ASSIGN_OR_RETURN(bool readable,
                           socket_.PollReadable(options_.idle_timeout_ms));
    if (!readable) {
      stats_.timed_out = true;
      break;
    }
    // Drain everything queued before polling again.
    for (;;) {
      BDISK_ASSIGN_OR_RETURN(std::optional<std::size_t> n,
                             socket_.Recv(buf.data(), buf.size()));
      if (!n.has_value()) break;
      ++stats_.datagrams;
      if (!DecodeDatagramInto(buf.data(), *n, &d).ok()) {
        // Not our traffic (or mangled beyond the header): ignore. Payload
        // corruption is NOT caught here — it rides to OfferEx's checksum.
        ++stats_.decode_errors;
        continue;
      }
      if (d.type == DatagramType::kEnd) {
        stats_.end_seen = true;
        break;
      }
      if (d.type == DatagramType::kIdle) {
        ++stats_.idle_datagrams;
        // An idle beacon still tunes mid-stream joiners in: it tells
        // them the broadcast clock.
        for (ActiveSession& s : sessions_) {
          if (!s.tuned_in && !s.spec.start_slot.has_value()) {
            s.result.start_slot = d.slot;
            s.tuned_in = true;
          }
        }
        continue;
      }
      ++stats_.block_datagrams;
      OfferToSessions(d.slot, d.epoch, d.block);
    }
  }
  std::vector<WireSessionResult> results;
  results.reserve(sessions_.size());
  for (ActiveSession& s : sessions_) {
    s.result.session.epochs_spanned = s.client.EpochsSpanned();
    if (s.result.session.completed) {
      BDISK_ASSIGN_OR_RETURN(s.result.session.data, s.client.Reconstruct());
    }
    results.push_back(std::move(s.result));
  }
  return results;
}

}  // namespace bdisk::net
