// The wire workloads: spec text -> planned program -> dispersed, stamped
// store -> ServeBroadcast -> loopback UDP -> UdpClient::Run -> reconstructed
// bytes, checked against the generated contents.
//
// A run is a sequence of rounds. Each round binds a fresh listener with
// that round's sessions, serves slots [0, horizon) to it from a second
// thread, and joins. Untraced rounds call the library entry points
// (ServeBroadcast, UdpClient::Run) and give the end-to-end numbers; the
// first of them is a warm-up and is not timed. With --trace 1, traced
// rounds alternate with untraced ones: they compose the same public calls
// in the same order as those two entry points, with a span around each
// call, and give the per-layer numbers. The traced set-up likewise
// composes what BroadcastServer::Create/CreateDiskBacked do.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

#include "alloc_count.h"
#include "bdisk/block_size.h"
#include "bdisk/delay_analysis.h"
#include "bdisk/pinwheel_builder.h"
#include "bdisk/spec_parser.h"
#include "common/random.h"
#include "faults/channel_spec.h"
#include "ida/dispersal.h"
#include "ledger.h"
#include "net/faulting_socket.h"
#include "net/rate_limiter.h"
#include "net/udp_client.h"
#include "net/udp_server.h"
#include "net/udp_socket.h"
#include "net/wire.h"
#include "pinwheel/composite_scheduler.h"
#include "runtime/rng_stream.h"
#include "sim/client.h"
#include "sim/server.h"
#include "store/block_device.h"
#include "store/block_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace broadcast = bdisk::broadcast;
namespace faults = bdisk::faults;
namespace ida = bdisk::ida;
namespace net = bdisk::net;
namespace sim = bdisk::sim;
namespace store = bdisk::store;

// ---------------------------------------------------------------------------
// Workload definitions.
// ---------------------------------------------------------------------------

struct WireConfig {
  std::string spec;
  bool disk_backed = false;
  bool paced = false;
  /// Channel spec without seeds ("" = lossless); each round gets its own
  /// seeds from the run seed.
  std::string channel;
  /// Slots served per round.
  std::uint64_t horizon = 0;
  /// Sessions per round; 0 = one per file.
  std::uint32_t sessions = 0;
  /// Check every session against its file's d^(r) bound.
  bool check_deadlines = false;
};

// 32 slot-domain files of 1..4 blocks, each tolerating one fault, with
// about 30 slots of window per block: the pinwheel planner packs them to
// about 90% utilization, so nearly every slot carries a 64-byte block.
std::string TinySpec() {
  bdisk::Rng rng(0x7111);
  std::string text;
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t m = 1 + rng.Uniform(4);
    const std::uint64_t d0 = (m + 1) * 30 * (100 + rng.Uniform(21)) / 100;
    text += "gfile t" + std::to_string(i) + " blocks=" + std::to_string(m) +
            " latencies=" + std::to_string(d0) + "," +
            std::to_string(d0 + 15) + "\n";
  }
  return text;
}

// 64 slot-domain files of 16 blocks tolerating 8 faults (so n = 24), 32 KiB
// blocks: 32 MiB of contents, 48 MiB of coded blocks on disk.
std::string BulkSpec() {
  std::string text = "blocksize 32768\n";
  for (int i = 0; i < 64; ++i) {
    text += "gfile b" + std::to_string(i) + " blocks=16 latencies=";
    for (int j = 0; j <= 8; ++j) {
      if (j > 0) text += ",";
      text += std::to_string(1800 + 64 * j);
    }
    text += "\n";
  }
  return text;
}

// 24 byte-domain files of 2..8 KiB with 30..60 ms latencies and 1..3
// faults on a 12 MiB/s channel: the planner's largest feasible block size
// is a few KiB, so the paced stream runs at a few thousand datagrams/s.
std::string PacedSpec() {
  bdisk::Rng rng(0x9ACE);
  std::string text = "channel 12582912\n";
  constexpr int kFaults[] = {1, 2, 2, 3};
  for (int i = 0; i < 24; ++i) {
    const std::uint64_t kib = 2 + 2 * rng.Uniform(4);
    const std::uint64_t latency_ms = 30 + rng.Uniform(31);
    text += "file p" + std::to_string(i) +
            " bytes=" + std::to_string(kib * 1024) + " latency=0.0" +
            std::to_string(latency_ms) +
            " faults=" + std::to_string(kFaults[rng.Uniform(4)]) + "\n";
  }
  return text;
}

WireConfig ConfigFor(const std::string& name) {
  WireConfig c;
  if (name == "wire_tiny") {
    c.spec = TinySpec();
    c.horizon = 60000;
  } else if (name == "wire_bulk_disk") {
    c.spec = BulkSpec();
    c.disk_backed = true;
    c.horizon = 8000;
  } else {
    c.spec = PacedSpec();
    c.paced = true;
    c.channel = "gilbert:pgb=0.01,pbg=0.2+corrupt:p=0.005";
    c.horizon = 6000;
    c.sessions = 3000;
    c.check_deadlines = true;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Set-up: spec text to the first datagram ready to send.
// ---------------------------------------------------------------------------

struct Plan {
  broadcast::BroadcastProgram program;
  std::size_t block_size = 0;
  /// The spec's channel rate in bytes/s (0 for slot-domain specs).
  std::uint64_t channel_rate = 0;
};

Plan PlanSpec(const std::string& text, ThreadLog* log) {
  const broadcast::WorkloadSpec spec = Traced(log, Layer::kBdiskParse, [&] {
    return Must(broadcast::ParseWorkloadSpec(text), "parse spec");
  });
  Span span(log, Layer::kBdiskPlan);
  const bdisk::pinwheel::CompositeScheduler scheduler;
  Plan plan;
  if (spec.IsByteDomain()) {
    std::vector<std::uint64_t> ladder;
    if (spec.block_size != 0) ladder.push_back(spec.block_size);
    broadcast::BlockSizeChoice choice =
        Must(broadcast::ChooseLargestFeasibleBlockSize(
                 spec.byte_files, spec.channel_bytes_per_second, scheduler,
                 std::move(ladder)),
             "plan byte-domain spec");
    plan.program = std::move(choice.build.program);
    plan.block_size = choice.block_size;
    plan.channel_rate = spec.channel_bytes_per_second;
  } else {
    broadcast::BuildResult built =
        Must(broadcast::BuildGeneralizedProgram(spec.generalized_files,
                                                scheduler),
             "plan slot-domain spec");
    plan.program = std::move(built.program);
    // The planner's payload for slot-domain specs, unless the spec fixes one.
    plan.block_size = spec.block_size != 0 ? spec.block_size : 64;
  }
  return plan;
}

std::vector<std::vector<std::uint8_t>> MakeContents(const Plan& plan,
                                                    std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> contents(plan.program.file_count());
  for (std::size_t f = 0; f < contents.size(); ++f) {
    bdisk::Rng rng = bdisk::runtime::StreamRng(seed ^ 0xC0DEull, f);
    contents[f].resize(plan.program.files()[f].m * plan.block_size);
    for (std::size_t i = 0; i < contents[f].size(); i += 8) {
      const std::uint64_t word = rng();
      for (std::size_t b = 0; b < 8 && i + b < contents[f].size(); ++b) {
        contents[f][i + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
  }
  return contents;
}

constexpr std::size_t kDeviceBlock = 4096;

// Device sized as the planner's --store does: every coded payload, two
// catalog extents, and slack.
std::uint64_t DeviceBlocksFor(const Plan& plan) {
  std::uint64_t blocks = store::BlockStore::kFirstDataBlock;
  std::uint64_t catalog_bytes = 8;
  for (const broadcast::ProgramFile& pf : plan.program.files()) {
    blocks += pf.n * ((plan.block_size + kDeviceBlock - 1) / kDeviceBlock);
    catalog_bytes += 28 + pf.n * 12;
  }
  return blocks + 2 * ((catalog_bytes + kDeviceBlock - 1) / kDeviceBlock) +
         16;
}

std::unique_ptr<store::BlockStore> FormatStore(const Plan& plan,
                                               const std::string& path) {
  auto device = Must(
      store::FileBlockDevice::Create(path, kDeviceBlock, DeviceBlocksFor(plan)),
      "create store device");
  return Must(store::BlockStore::Format(std::move(device)), "format store");
}

struct Station {
  Plan plan;
  std::vector<std::vector<std::uint8_t>> contents;
  std::unique_ptr<store::BlockStore> store;
  std::optional<sim::BroadcastServer> server;
  net::UdpSocket send_socket;
  /// Slot 0's datagram: set-up ends when it is ready to send.
  std::vector<std::uint8_t> first_datagram;
};

// One timed set-up. Content generation is input making, not set-up, so it
// is excluded from the returned time.
std::unique_ptr<Station> SetUp(const WireConfig& config,
                               const Options& options,
                               const std::string& store_path,
                               double* seconds) {
  auto st = std::make_unique<Station>();
  const std::uint64_t t0 = NowNs();
  st->plan = PlanSpec(config.spec, nullptr);
  const std::uint64_t t1 = NowNs();
  st->contents = MakeContents(st->plan, options.seed);
  const std::uint64_t t2 = NowNs();
  if (config.disk_backed) {
    st->store = FormatStore(st->plan, store_path);
    st->server.emplace(Must(
        sim::BroadcastServer::CreateDiskBacked(
            sim::EpochSchedule::Single(st->plan.program), st->contents,
            st->plan.block_size, st->store.get()),
        "create disk-backed server"));
  } else {
    st->server.emplace(Must(sim::BroadcastServer::Create(
                                st->plan.program, st->contents,
                                st->plan.block_size),
                            "create server"));
  }
  st->send_socket = Must(net::UdpSocket::Open(), "open send socket");
  const std::optional<ida::Block> first =
      Must(st->server->FetchTransmission(0), "fetch slot 0");
  st->first_datagram =
      first.has_value()
          ? net::EncodeBlockDatagram(0, 0, *first)
          : net::EncodeControlDatagram(net::DatagramType::kIdle, 0, 0);
  const std::uint64_t t3 = NowNs();
  *seconds = static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9;
  return st;
}

struct SetupLayers {
  double plan_ms = 0.0;
  double disperse_ns_per_block = 0.0;
  double commit_ms = 0.0;
};

// The traced set-up: the calls BroadcastServer::Create / CreateDiskBacked
// make, composed with a span around each. Uses the station's contents (the
// plan is deterministic) and a store file of its own.
SetupLayers TracedSetUp(const WireConfig& config, const Options& options,
                        const Station& station, Ledger* ledger) {
  ThreadLog* log = ledger->NewThread("setup");
  std::uint64_t coded_blocks = 0;
  {
    Span root(log, Layer::kRoot);
    const Plan plan = PlanSpec(config.spec, log);
    std::unique_ptr<store::BlockStore> st;
    if (config.disk_backed) {
      st = Traced(log, Layer::kStoreFormat, [&] {
        return FormatStore(plan, options.workdir + "/store-traced.bin");
      });
    }
    for (std::size_t f = 0; f < plan.program.file_count(); ++f) {
      const broadcast::ProgramFile& pf = plan.program.files()[f];
      std::vector<ida::Block> blocks = Traced(log, Layer::kIdaDisperse, [&] {
        const ida::Dispersal engine = Must(
            ida::Dispersal::Create(pf.m, pf.n, plan.block_size), "dispersal");
        std::vector<ida::Block> coded =
            Must(engine.Disperse(static_cast<ida::FileId>(f),
                                 station.contents[f]),
                 "disperse");
        ida::StampChecksums(&coded);
        return coded;
      });
      coded_blocks += blocks.size();
      if (st != nullptr) {
        Span stage(log, Layer::kStoreStage);
        Check(st->StageFile(blocks), "stage file");
      }
    }
    if (st != nullptr) {
      Span commit(log, Layer::kStoreCommit);
      Check(st->Commit(), "commit");
    }
    Traced(log, Layer::kSocketBind,
           [&] { return Must(net::UdpSocket::Open(), "open send socket"); });
  }
  std::remove((options.workdir + "/store-traced.bin").c_str());
  SetupLayers layers;
  layers.plan_ms =
      static_cast<double>(log->totals(Layer::kBdiskPlan).total_ns) / 1e6;
  layers.disperse_ns_per_block =
      static_cast<double>(log->totals(Layer::kIdaDisperse).total_ns) /
      static_cast<double>(std::max<std::uint64_t>(coded_blocks, 1));
  layers.commit_ms =
      static_cast<double>(log->totals(Layer::kStoreCommit).total_ns) / 1e6;
  return layers;
}

// ---------------------------------------------------------------------------
// Rounds.
// ---------------------------------------------------------------------------

struct RoundInput {
  std::vector<net::WireSession> sessions;
  /// Null on lossless workloads.
  std::unique_ptr<faults::ChannelModel> channel;
};

struct RoundStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Datagrams the station generated (block + idle + end).
  std::uint64_t generated = 0;
  std::uint64_t end_datagrams = 0;
  /// Datagrams handed to the socket (after fault drops).
  std::uint64_t socket_sent = 0;
  std::uint64_t received = 0;
  std::uint64_t block_received = 0;
  std::uint64_t server_allocs = 0;
  std::uint64_t client_allocs = 0;
  std::uint64_t fault_dropped = 0;
  std::uint64_t fault_corrupted = 0;
  /// Traced rounds of paced workloads: steady-state pacing error and the
  /// generator's lateness per sleep.
  double pace_error_pct = 0.0;
  std::vector<double> pace_late_us;
  std::vector<net::WireSessionResult> results;

  /// Datagrams the kernel lost between the two sockets. The listener stops
  /// at the first end-of-stream datagram, so the other repeats go unread.
  std::uint64_t KernelLost() const {
    const std::uint64_t expected = socket_sent - (end_datagrams - 1);
    return expected > received ? expected - received : 0;
  }
};

RoundInput MakeRound(const WireConfig& config, const Station& st,
                     std::uint64_t seed, int round, std::uint64_t tail) {
  RoundInput in;
  bdisk::Rng rng = bdisk::runtime::StreamRng(seed, round);
  const auto& files = st.plan.program.files();
  const std::uint64_t window = config.horizon - tail;
  const std::uint32_t count = config.sessions != 0
                                  ? config.sessions
                                  : static_cast<std::uint32_t>(files.size());
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto f = static_cast<broadcast::FileIndex>(
        config.sessions != 0 ? rng.Uniform(files.size()) : i);
    net::WireSession s;
    s.file = f;
    s.m = files[f].m;
    s.n = files[f].n;
    s.start_slot = rng.Uniform(window);
    in.sessions.push_back(s);
  }
  if (!config.channel.empty()) {
    const std::string& spec = config.channel;
    // Seed every member of the (possibly composed) channel.
    std::string seeded;
    std::size_t pos = 0;
    int member = 0;
    while (true) {
      const std::size_t plus = spec.find('+', pos);
      seeded += spec.substr(pos, plus - pos) + ",seed=" +
                std::to_string(bdisk::runtime::StreamSeed(
                    seed ^ 0xFA017ull, round * 8 + member++));
      if (plus == std::string::npos) break;
      seeded += "+";
      pos = plus + 1;
    }
    in.channel = Must(faults::ParseChannelSpec(seeded), "channel spec");
  }
  return in;
}

net::UdpServerOptions ServerOptions(const WireConfig& config,
                                    const Station& st) {
  net::UdpServerOptions o;
  o.horizon = config.horizon;
  o.bandwidth_bytes_per_sec = config.paced ? st.plan.channel_rate : 0;
  return o;
}

constexpr int kIdleTimeoutMs = 2000;

// An untraced round through the library entry points.
RoundStats RunRound(const WireConfig& config, Station* st,
                    const RoundInput& in) {
  net::UdpClientOptions copt;
  copt.block_size = st->plan.block_size;
  copt.idle_timeout_ms = kIdleTimeoutMs;
  net::UdpClient client = Must(net::UdpClient::Create(copt), "bind listener");
  for (const net::WireSession& s : in.sessions) client.AddSession(s);
  net::SocketSink sink(&st->send_socket,
                       net::Endpoint{"127.0.0.1", client.bound_port()});
  std::optional<net::FaultingSocket> faulting;
  if (in.channel != nullptr) faulting.emplace(in.channel.get(), &sink);
  net::WireSink* out = faulting.has_value()
                           ? static_cast<net::WireSink*>(&*faulting)
                           : &sink;
  const net::UdpServerOptions sopt = ServerOptions(config, *st);

  RoundStats r;
  std::optional<bdisk::Result<net::UdpServerStats>> served;
  const double cpu0 = ProcessCpuSeconds();
  const std::uint64_t t0 = NowNs();
  std::thread server([&] {
    const std::uint64_t a0 = ThreadAllocations();
    served.emplace(net::ServeBroadcast(&*st->server, out, sopt));
    r.server_allocs = ThreadAllocations() - a0;
  });
  const std::uint64_t c0 = ThreadAllocations();
  bdisk::Result<std::vector<net::WireSessionResult>> results = client.Run();
  r.client_allocs = ThreadAllocations() - c0;
  server.join();
  r.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  const net::UdpServerStats stats = Must(std::move(*served), "serve");
  r.results = Must(std::move(results), "listen");
  r.generated =
      stats.block_datagrams + stats.idle_datagrams + stats.end_datagrams;
  r.end_datagrams = stats.end_datagrams;
  r.socket_sent = sink.sent();
  r.received = client.stats().datagrams;
  r.block_received = client.stats().block_datagrams;
  if (faulting.has_value()) {
    r.fault_dropped = faulting->dropped();
    r.fault_corrupted = faulting->corrupted();
  }
  return r;
}

// A WireSink that spans the sink it forwards to.
class SpannedSink : public net::WireSink {
 public:
  SpannedSink(net::WireSink* next, ThreadLog* log) : next_(next), log_(log) {}
  bdisk::Status SendDatagram(const std::uint8_t* data,
                             std::size_t size) override {
    Span span(log_, Layer::kSocketSend);
    return next_->SendDatagram(data, size);
  }

 private:
  net::WireSink* next_;
  ThreadLog* log_;
};

struct PaceTally {
  /// Wake-up lateness against the bucket's granted instant, per sleep.
  std::vector<double> late_us;
  /// Steady state starts at the first datagram that had to wait: the
  /// bucket's primed burst credit is spent by then.
  bool steady = false;
  std::uint64_t steady_start_ns = 0;
  std::uint64_t steady_start_bytes = 0;
  std::uint64_t last_ns = 0;
  std::uint64_t bytes = 0;
  double rate = 0.0;

  /// Achieved rate over the steady window against the configured rate.
  double ErrorPct() const {
    if (!steady || last_ns <= steady_start_ns) return 0.0;
    const double achieved =
        static_cast<double>(bytes - steady_start_bytes) * 1e9 /
        static_cast<double>(last_ns - steady_start_ns);
    return 100.0 * (achieved - rate) / rate;
  }
};

// TokenBucket::Throttle, spelled out so the granted instant is visible.
void Pace(net::TokenBucket* bucket, std::size_t bytes, PaceTally* tally) {
  const std::uint64_t now = net::TokenBucket::MonotonicNowNs();
  const std::uint64_t send_at = bucket->ReserveAt(now, bytes);
  std::uint64_t sent_ns = now;
  if (send_at > now) {
    const std::uint64_t wait = send_at - now;
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000ull);
    ts.tv_nsec = static_cast<long>(wait % 1'000'000'000ull);
    while (nanosleep(&ts, &ts) != 0) {
    }
    sent_ns = net::TokenBucket::MonotonicNowNs();
    tally->late_us.push_back(static_cast<double>(sent_ns - send_at) / 1e3);
    if (!tally->steady) {
      tally->steady = true;
      tally->steady_start_ns = sent_ns;
      tally->steady_start_bytes = tally->bytes + bytes;
    }
  }
  tally->bytes += bytes;
  tally->last_ns = sent_ns;
}

struct ServeTally {
  std::uint64_t generated = 0;
  std::uint64_t end_datagrams = 0;
  PaceTally pace;
};

// ServeBroadcast, composed from the same public calls with spans. `sink`
// is the socket sink, or the fault shim in front of it when `faulted`.
void TracedServe(const WireConfig& config, const Station& st,
                 net::WireSink* sink, bool faulted, ThreadLog* log,
                 ServeTally* tally) {
  Span root(log, Layer::kRoot);
  const net::UdpServerOptions options = ServerOptions(config, st);
  const bool paced = options.bandwidth_bytes_per_sec > 0;
  net::TokenBucket bucket(paced ? options.bandwidth_bytes_per_sec : 1,
                          options.burst_bytes);
  tally->pace.rate = static_cast<double>(options.bandwidth_bytes_per_sec);
  const sim::EpochSchedule& schedule = st.server->schedule();
  // Paces, sends and releases one datagram. Buffers are released inside
  // the span of the call that ends their use, so the ledger charges the
  // free to a layer instead of to the loop.
  const auto send = [&](std::vector<std::uint8_t> datagram,
                        std::uint64_t slot) {
    if (paced) {
      Span span(log, Layer::kPaceWait, slot);
      Pace(&bucket, datagram.size(), &tally->pace);
    }
    Span span(log, faulted ? Layer::kFaultsVerdict : Layer::kSocketSend, slot);
    Check(sink->SendDatagram(datagram.data(), datagram.size()), "send");
    datagram = {};
    ++tally->generated;
  };
  for (std::uint64_t t = 0; t < options.horizon; ++t) {
    std::optional<ida::Block> block;
    std::uint64_t epoch = 0;
    {
      Span span(log, Layer::kServerFetch, t);
      if (st.store != nullptr) {
        // FetchTransmission of a disk-backed server: schedule, then store.
        const auto tx = schedule.TransmissionAt(t);
        if (tx.has_value()) {
          Span read(log, Layer::kStoreFetch, t);
          block = Must(st.store->ReadCodedBlock(
                           static_cast<ida::FileId>(tx->file), 0,
                           tx->block_index),
                       "store read");
        }
      } else {
        block = Must(st.server->FetchTransmission(t), "fetch");
      }
      epoch = schedule.EpochIndexAt(t);
    }
    send(Traced(log, Layer::kWireEncode,
                [&] {
                  std::vector<std::uint8_t> datagram =
                      block.has_value()
                          ? net::EncodeBlockDatagram(t, epoch, *block)
                          : net::EncodeControlDatagram(
                                net::DatagramType::kIdle, t, epoch);
                  block.reset();
                  return datagram;
                }),
         t);
  }
  const std::uint64_t end_epoch = schedule.EpochIndexAt(options.horizon - 1);
  for (int i = 0; i < options.end_repeats; ++i) {
    send(Traced(log, Layer::kWireEncode,
                [&] {
                  return net::EncodeControlDatagram(net::DatagramType::kEnd,
                                                    options.horizon, end_epoch);
                }),
         options.horizon);
    ++tally->end_datagrams;
  }
}

struct ListenTally {
  std::uint64_t received = 0;
  std::uint64_t block_received = 0;
  std::uint64_t offers = 0;
  std::uint64_t useful_offers = 0;
  std::uint64_t rejected_duplicate = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t rejected_checksum = 0;
};

// UdpClient::Run, composed from the same public calls with spans.
std::vector<net::WireSessionResult> TracedListen(
    net::UdpSocket* socket, const std::vector<net::WireSession>& specs,
    std::size_t block_size, ThreadLog* log, ListenTally* tally) {
  struct Active {
    net::WireSession spec;
    sim::ReconstructingClient client;
    net::WireSessionResult result;
    bool tuned_in = false;
  };
  std::vector<Active> sessions;
  sessions.reserve(specs.size());
  for (const net::WireSession& spec : specs) {
    sessions.push_back(Active{
        spec,
        sim::ReconstructingClient(static_cast<ida::FileId>(spec.file), spec.m,
                                  spec.n, block_size),
        net::WireSessionResult{}, false});
    sessions.back().client.set_require_checksums(true);
    if (spec.start_slot.has_value()) {
      sessions.back().result.start_slot = *spec.start_slot;
    }
  }
  std::vector<std::uint8_t> buf(65536);
  Span root(log, Layer::kRoot);
  bool end_seen = false;
  while (!end_seen) {
    const bool readable = Traced(log, Layer::kSocketPoll, [&] {
      return Must(socket->PollReadable(kIdleTimeoutMs), "poll");
    });
    if (!readable) break;
    for (;;) {
      const std::optional<std::size_t> n = Traced(log, Layer::kSocketRecv, [&] {
        return Must(socket->Recv(buf.data(), buf.size()), "recv");
      });
      if (!n.has_value()) break;
      ++tally->received;
      bdisk::Result<net::WireDatagram> decoded =
          Traced(log, Layer::kWireDecode,
                 [&] { return net::DecodeDatagram(buf.data(), *n); });
      if (!decoded.ok()) continue;
      if (decoded->type == net::DatagramType::kEnd) {
        end_seen = true;
        break;
      }
      // Declared after the span, so the payload is released inside it.
      Span offer(log, Layer::kClientOffer, decoded->slot);
      const net::WireDatagram d = std::move(decoded).value();
      if (d.type == net::DatagramType::kIdle) {
        for (Active& s : sessions) {
          if (!s.tuned_in && !s.spec.start_slot.has_value()) {
            s.result.start_slot = d.slot;
            s.tuned_in = true;
          }
        }
        continue;
      }
      ++tally->block_received;
      for (Active& s : sessions) {
        if (!s.tuned_in) {
          if (s.spec.start_slot.has_value()) {
            if (d.slot < *s.spec.start_slot) continue;
            s.result.start_slot = *s.spec.start_slot;
          } else {
            s.result.start_slot = d.slot;
          }
          s.tuned_in = true;
        }
        if (s.result.session.completed) continue;
        const sim::OfferOutcome outcome = s.client.OfferEx(d.block, d.epoch);
        ++tally->offers;
        if (outcome == sim::OfferOutcome::kAccepted ||
            outcome == sim::OfferOutcome::kCompleted) {
          ++tally->useful_offers;
        }
        if (outcome == sim::OfferOutcome::kChecksumMismatch &&
            d.block.header.file_id == static_cast<ida::FileId>(s.spec.file)) {
          ++s.result.session.corrupt_detected;
        }
        if (sim::OfferSatisfied(outcome)) {
          s.result.session.completed = true;
          s.result.session.completion_slot = d.slot;
          s.result.session.latency = d.slot - s.result.start_slot + 1;
        }
      }
    }
  }
  std::vector<net::WireSessionResult> results;
  results.reserve(sessions.size());
  for (Active& s : sessions) {
    s.result.session.epochs_spanned = s.client.EpochsSpanned();
    if (s.result.session.completed) {
      s.result.session.data = Traced(log, Layer::kIdaReconstruct, [&] {
        return Must(s.client.Reconstruct(), "reconstruct");
      });
    }
    tally->rejected_duplicate += s.client.duplicates_rejected();
    tally->rejected_stale += s.client.stale_rejected();
    tally->rejected_checksum += s.client.checksum_rejected();
    results.push_back(std::move(s.result));
  }
  return results;
}

RoundStats RunTracedRound(const WireConfig& config, Station* st,
                          const RoundInput& in, ThreadLog* server_log,
                          ThreadLog* client_log, ListenTally* listen_tally) {
  net::UdpSocket socket = Must(
      net::UdpSocket::Bind(net::Endpoint{"127.0.0.1", 0}), "bind listener");
  Check(socket.SetRecvBufferBytes(net::UdpClientOptions{}.recv_buffer_bytes),
        "recv buffer");
  net::SocketSink sink(&st->send_socket,
                       net::Endpoint{"127.0.0.1", socket.bound_port()});
  SpannedSink spanned(&sink, server_log);
  std::optional<net::FaultingSocket> faulting;
  if (in.channel != nullptr) faulting.emplace(in.channel.get(), &spanned);

  RoundStats r;
  ServeTally serve_tally;
  const ListenTally listen_before = *listen_tally;
  const std::uint64_t t0 = NowNs();
  std::thread server([&] {
    if (faulting.has_value()) {
      TracedServe(config, *st, &*faulting, true, server_log, &serve_tally);
    } else {
      TracedServe(config, *st, &sink, false, server_log, &serve_tally);
    }
  });
  r.results = TracedListen(&socket, in.sessions, st->plan.block_size,
                           client_log, listen_tally);
  server.join();
  r.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  r.generated = serve_tally.generated;
  r.end_datagrams = serve_tally.end_datagrams;
  r.pace_error_pct = serve_tally.pace.ErrorPct();
  r.pace_late_us = std::move(serve_tally.pace.late_us);
  r.socket_sent = sink.sent();
  r.received = listen_tally->received - listen_before.received;
  r.block_received =
      listen_tally->block_received - listen_before.block_received;
  if (faulting.has_value()) {
    r.fault_dropped = faulting->dropped();
    r.fault_corrupted = faulting->corrupted();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------

struct Verdicts {
  std::vector<double> latencies;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t guaranteed = 0;
  std::uint64_t guarantee_violations = 0;
};

// d^(r) per file: DelayAnalyzer::WorstCaseLatency at the file's fault level.
struct Bounds {
  std::vector<std::uint64_t> latency;
  std::vector<std::uint32_t> faults;
};

Bounds ComputeBounds(const broadcast::BroadcastProgram& program) {
  const broadcast::DelayAnalyzer analyzer(program);
  Bounds b;
  for (std::size_t f = 0; f < program.file_count(); ++f) {
    const auto& d = program.files()[f].latency_slots;
    const auto r = static_cast<std::uint32_t>(d.empty() ? 0 : d.size() - 1);
    b.faults.push_back(r);
    b.latency.push_back(
        Must(analyzer.WorstCaseLatency(static_cast<broadcast::FileIndex>(f), r,
                                       broadcast::ClientModel::kIda),
             "worst-case latency"));
  }
  return b;
}

void VerifyRound(const WireConfig& config, const Station& st,
                 const RoundInput& in, const RoundStats& r,
                 const Bounds& bounds, Verdicts* v, Outcome* out) {
  // Replay the round's channel: per slot, the transmitted file and whether
  // the channel faulted it (lost or corrupted).
  std::vector<faults::FaultType> fault(config.horizon,
                                       faults::FaultType::kNone);
  if (in.channel != nullptr) {
    in.channel->FillFaults(0, config.horizon, fault.data());
  }
  const sim::EpochSchedule& schedule = st.server->schedule();
  for (std::size_t i = 0; i < in.sessions.size(); ++i) {
    const net::WireSession& s = in.sessions[i];
    const sim::SessionResult& res = r.results[i].session;
    ++v->attempted;
    bool failed = !res.completed;
    if (res.completed) {
      v->latencies.push_back(static_cast<double>(res.latency));
      if (res.data != st.contents[s.file]) {
        failed = true;
        out->Fail("session " + std::to_string(i) + " (file " +
                  std::to_string(s.file) + ") reconstructed wrong bytes");
      }
    }
    if (failed) ++v->failed;
    if (!config.check_deadlines) continue;
    const std::uint64_t d = bounds.latency[s.file];
    const std::uint64_t start = *s.start_slot;
    std::uint64_t seen = 0;
    for (std::uint64_t t = start; t < start + d && t < config.horizon; ++t) {
      if (fault[t] == faults::FaultType::kNone) continue;
      const auto tx = schedule.TransmissionAt(t);
      if (tx.has_value() && tx->file == s.file) ++seen;
    }
    const bool missed = failed || res.latency > d;
    if (missed) ++v->deadline_missed;
    if (seen <= bounds.faults[s.file]) {
      ++v->guaranteed;
      if (missed) {
        ++v->guarantee_violations;
        ++v->failed;
        out->Fail("session " + std::to_string(i) + " (file " +
                  std::to_string(s.file) + ") saw " + std::to_string(seen) +
                  " faults <= r=" + std::to_string(bounds.faults[s.file]) +
                  " but took " +
                  (res.completed ? std::to_string(res.latency) + " slots"
                                 : std::string("forever")) +
                  " > d^(r)=" + std::to_string(d));
      }
    }
  }
}

/// `amount / count`, or 0 when nothing was counted (the layer is idle).
double Ratio(std::uint64_t amount, std::uint64_t count) {
  return count == 0 ? 0.0
                    : static_cast<double>(amount) / static_cast<double>(count);
}

}  // namespace

bool IsWireWorkload(const std::string& name) {
  return name == "wire_tiny" || name == "wire_bulk_disk" ||
         name == "wire_paced_fanout";
}

Outcome RunWireWorkload(const Options& options) {
  const WireConfig config = ConfigFor(options.workload);
  Outcome out;
  out.notes.push_back(
      "all traffic crosses the host loopback (127.0.0.1), not a real link");

  // The station that serves every round; more set-ups are sampled
  // between rounds.
  std::vector<double> setup_s(1);
  const std::unique_ptr<Station> st =
      SetUp(config, options, options.workdir + "/store.bin", &setup_s[0]);
  const auto sample_set_up = [&] {
    double seconds = 0.0;
    SetUp(config, options, options.workdir + "/setup.bin", &seconds);
    return seconds;
  };
  const broadcast::BroadcastProgram& program = st->plan.program;
  const Bounds bounds = ComputeBounds(program);
  std::uint64_t tail = program.period();
  for (std::size_t f = 0; f < program.file_count(); ++f) {
    const auto& d = program.files()[f].latency_slots;
    const std::uint64_t lossless = d.empty() ? program.period() : d.front();
    tail = std::max(tail, config.check_deadlines ? 3 * bounds.latency[f]
                                                 : lossless + lossless / 2 +
                                                       program.period());
  }
  if (tail >= config.horizon) {
    Check(bdisk::Status::Internal("round horizon too short for the program"),
          "sizing");
  }

  Ledger ledger;
  SetupLayers setup_layers;
  if (options.trace) setup_layers = TracedSetUp(config, options, *st, &ledger);
  ThreadLog* server_log = options.trace ? ledger.NewThread("server") : nullptr;
  ThreadLog* client_log = options.trace ? ledger.NewThread("client") : nullptr;
  ListenTally listen_tally;

  std::vector<RoundStats> plain;   // untraced, after the warm-up round
  std::vector<RoundStats> traced;
  Verdicts verdicts;
  std::uint64_t warm_lost = 0;
  const int min_rounds = options.trace ? 4 : 3;
  const std::uint64_t start = NowNs();
  for (int round = 0;; ++round) {
    const RoundInput in = MakeRound(config, *st, options.seed, round, tail);
    const bool is_traced = options.trace && round % 2 == 1;
    if (!options.trace) SampleSetUps(sample_set_up, &setup_s);
    RoundStats r = is_traced
                       ? RunTracedRound(config, st.get(), in, server_log,
                                        client_log,
                                        &listen_tally)
                       : RunRound(config, st.get(), in);
    VerifyRound(config, *st, in, r, bounds, &verdicts, &out);
    r.results.clear();
    if (is_traced) {
      traced.push_back(std::move(r));
    } else if (round == 0) {
      warm_lost = r.KernelLost();
    } else {
      plain.push_back(std::move(r));
    }
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (round + 1 >= min_rounds && elapsed >= options.seconds) break;
  }

  // Results.
  out.attempted = verdicts.attempted;
  out.failed = verdicts.failed;
  std::vector<double> rate, cpu_us;
  std::uint64_t sent = 0, lost = 0;
  for (const RoundStats& r : plain) {
    rate.push_back(static_cast<double>(r.received) / r.wall_s);
    cpu_us.push_back(r.cpu_s * 1e6 / static_cast<double>(r.generated));
    sent += r.socket_sent;
    lost += r.KernelLost();
  }
  const double p50 = Percentile(verdicts.latencies, 50);
  const double p99 = Percentile(verdicts.latencies, 99);
  out.end_to_end["setup_s"] = Median(setup_s);
  out.end_to_end["ops_per_s"] = Median(rate);
  out.end_to_end["cpu_us_per_op"] = Median(cpu_us);
  out.end_to_end["retrieval_slots_p50"] = p50;
  out.end_to_end["retrieval_slots_p99"] = p99;
  out.end_to_end["peak_rss_mb"] = PeakRssMb();

  out.Detail("block_size", static_cast<double>(st->plan.block_size), "B");
  out.Detail("program_period", static_cast<double>(program.period()), "slots");
  out.Detail("program_utilization_pct", 100.0 * program.Utilization(), "%");
  out.Detail("slots_per_round", static_cast<double>(config.horizon), "slots");
  out.Detail("sessions_per_round",
             static_cast<double>(config.sessions != 0 ? config.sessions
                                                      : program.file_count()),
             "count");
  out.Detail("timed_rounds", static_cast<double>(plain.size()), "count");
  out.Detail("setups", static_cast<double>(setup_s.size()), "count");
  if (config.paced) {
    out.Detail("channel_rate", static_cast<double>(st->plan.channel_rate),
               "B/s");
  }
  out.Detail("delivered_datagrams_per_s", Median(rate), "1/s");
  out.Detail("cpu_us_per_datagram", Median(cpu_us), "us");
  out.Detail("retrieval_samples",
             static_cast<double>(verdicts.latencies.size()), "count");
  out.Detail("retrieval_fail_ratio",
             Ratio(verdicts.failed, verdicts.attempted), "ratio");
  if (config.check_deadlines) {
    out.Detail("deadline_miss_ratio",
               static_cast<double>(verdicts.deadline_missed) /
                   static_cast<double>(verdicts.attempted),
               "ratio");
    out.Detail("deadline_guaranteed_sessions",
               static_cast<double>(verdicts.guaranteed), "count");
    out.Detail("deadline_guarantee_violations",
               static_cast<double>(verdicts.guarantee_violations), "count");
  }
  out.Detail("kernel_loss_ratio_timed",
             sent == 0 ? 0.0
                       : static_cast<double>(lost) / static_cast<double>(sent),
             "ratio");
  out.Detail("kernel_lost_warmup", static_cast<double>(warm_lost), "count");

  if (!options.trace) return out;

  // Per-layer metrics from the traced rounds and the traced set-up.
  std::uint64_t t_generated = 0, t_sent = 0, t_lost = 0, t_received = 0,
                t_blocks = 0, dropped = 0, corrupted = 0;
  std::vector<double> traced_wall, plain_wall, pace_error, pace_late;
  for (const RoundStats& r : traced) {
    t_generated += r.generated;
    t_sent += r.socket_sent;
    t_lost += r.KernelLost();
    t_received += r.received;
    t_blocks += r.block_received;
    dropped += r.fault_dropped;
    corrupted += r.fault_corrupted;
    traced_wall.push_back(r.wall_s);
    pace_error.push_back(r.pace_error_pct);
    pace_late.insert(pace_late.end(), r.pace_late_us.begin(),
                     r.pace_late_us.end());
  }
  std::uint64_t server_allocs = 0, client_allocs = 0, p_generated = 0,
                p_received = 0;
  for (const RoundStats& r : plain) {
    server_allocs += r.server_allocs;
    client_allocs += r.client_allocs;
    p_generated += r.generated;
    p_received += r.received;
    plain_wall.push_back(r.wall_s);
  }
  const auto sum = [&](Layer l) { return ledger.Sum(l); };
  auto& L = out.per_layer;
  L["bdisk.plan_ms"] = setup_layers.plan_ms;
  L["ida.disperse_ns_per_block"] = setup_layers.disperse_ns_per_block;
  L["store.commit_ms"] = setup_layers.commit_ms;
  L["store.fetch_ns_per_block"] =
      Ratio(sum(Layer::kStoreFetch).total_ns, sum(Layer::kStoreFetch).count);
  L["ida.reconstruct_us_per_file"] =
      Ratio(sum(Layer::kIdaReconstruct).total_ns,
               sum(Layer::kIdaReconstruct).count) / 1e3;
  L["server.fetch_ns_per_slot"] = Ratio(sum(Layer::kServerFetch).self_ns,
                                           sum(Layer::kServerFetch).count);
  L["wire.encode_ns_per_datagram"] = Ratio(
      sum(Layer::kWireEncode).total_ns, sum(Layer::kWireEncode).count);
  L["wire.decode_ns_per_datagram"] = Ratio(
      sum(Layer::kWireDecode).total_ns, sum(Layer::kWireDecode).count);
  L["socket.send_ns_per_datagram"] = Ratio(
      sum(Layer::kSocketSend).total_ns, sum(Layer::kSocketSend).count);
  L["socket.recv_ns_per_datagram"] =
      Ratio(sum(Layer::kSocketRecv).total_ns, t_received);
  L["alloc.server_per_datagram"] = Ratio(server_allocs, p_generated);
  L["alloc.client_per_datagram"] = Ratio(client_allocs, p_received);
  L["socket.poll_wait_ms"] =
      static_cast<double>(sum(Layer::kSocketPoll).total_ns) / 1e6 /
      (static_cast<double>(client_log->totals(Layer::kRoot).total_ns) / 1e9);
  L["socket.kernel_loss_ratio"] =
      t_sent == 0 ? 0.0
                  : static_cast<double>(t_lost) / static_cast<double>(t_sent);
  L["pace.wait_ns_per_datagram"] =
      Ratio(sum(Layer::kPaceWait).total_ns, t_generated);
  L["pace.error_pct"] = Median(pace_error);
  L["pace.late_us_p99"] = Percentile(pace_late, 99);
  L["faults.verdict_ns_per_datagram"] = Ratio(
      sum(Layer::kFaultsVerdict).self_ns, sum(Layer::kFaultsVerdict).count);
  L["faults.dropped"] = static_cast<double>(dropped);
  L["faults.corrupted"] = static_cast<double>(corrupted);
  L["client.offer_ns_per_datagram"] =
      Ratio(sum(Layer::kClientOffer).total_ns, t_blocks);
  L["client.offers_per_datagram"] = Ratio(listen_tally.offers, t_blocks);
  L["client.useful_offer_ratio"] =
      Ratio(listen_tally.useful_offers, listen_tally.offers);
  L["client.rejected_duplicate"] =
      static_cast<double>(listen_tally.rejected_duplicate);
  L["client.rejected_stale"] = static_cast<double>(listen_tally.rejected_stale);
  L["client.rejected_checksum"] =
      static_cast<double>(listen_tally.rejected_checksum);
  ReportLedger(ledger, traced_wall, plain_wall, options.spans_path, &out);
  return out;
}

}  // namespace perfbench
