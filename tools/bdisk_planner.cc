// bdisk_planner — command-line broadcast-disk planner.
//
// Reads a workload spec (see docs/SPEC_FORMAT.md for the grammar) from
// a file or stdin, plans the broadcast program, and prints: the bandwidth
// arithmetic (paper Eq. (2)), the chosen block size (byte-domain specs),
// the per-file pinwheel-algebra conversions (slot-domain specs), the
// program layout, and the exact worst-case retrieval latency per fault
// level.
//
// Usage:
//   bdisk_planner [--threads N] [--adaptive] [--channel SPEC]
//                 [--engine slot|event] [--requests N] [--seed S]
//                 workload.spec
//   bdisk_planner [...] - < workload.spec
//   bdisk_planner --help | -h
//
// --threads N fans the per-file worst-case delay analysis (the exact
// adversary computation, the planner's dominant cost on big specs) out
// across N workers; output is identical at any thread count.
//
// --adaptive additionally replays a synthetic drifting-Zipf demand trace
// (popularity ranking reverses mid-run) against the planned program and
// against the adaptive controller (src/adaptive/), printing the hot-swap
// timeline and the static vs adaptive mean retrieval delay.
//
// --channel SPEC additionally replays a random-start retrieval workload
// against the planned program over the given erasure channel (the grammar
// of src/faults/channel_spec.h, e.g. bernoulli:p=0.1,seed=7 or
// gilbert:pgb=0.02,pbg=0.2+corrupt:p=0.01), printing per-file latency,
// reconstruction stall, and undecodable-rate metrics. --requests sets the
// retrieval attempts per file (default 200), --seed the workload seed
// (default 42); the channel's own seed lives in SPEC, and the whole replay
// is deterministic. With --adaptive, the same channel also drives the
// adaptive replay; without --channel that replay runs over
// bernoulli:p=0.02,seed=99.
//
// --engine selects the simulation core for the channel replay: `slot` (the
// default) walks every slot; `event` runs the discrete-event engine
// (src/sim/event_engine.h), which produces byte-identical metrics but
// scales to million-client fleets.
//
// --metrics-out PATH streams periodic JSON-line snapshots of the replay
// (obs/snapshot.h; "-" = stdout) every --metrics-interval N slots
// (default: one program period). The stream is deterministic — identical
// at any thread count and across both engines — and is what `bdisk_top`
// tails. With --adaptive, the static and adaptive replays append their
// own streams to the same file; the global metric registry is reset
// between the two, so each stream's registry line covers only its own
// replay.
//
// --trace-out PATH writes a Chrome trace-event JSON document (open in
// chrome://tracing or Perfetto; "-" = stdout) of the causal spans the
// replays capture (obs/trace.h): --trace-sample 1/N (or plain N) samples
// every N-th request by global index, anomalies (deadline misses,
// undecodables, and — with --trace-stall S — stalls >= S slots) are
// always traced, and --trace-flight K keeps only the last K spans per
// shard, dumped when an anomaly fires. The trace covers the --channel
// replay and, with --adaptive, both adaptive-experiment replays plus the
// controller's per-interval swap decisions. Deterministic: byte-identical
// at any thread count and across both engines. `bdisk_trace` filters and
// summarizes the file.
//
// --store PATH materializes the planned program into a crash-safe
// persistent block store (src/store/) at PATH: deterministic per-file
// contents are dispersed, checksum-stamped, and committed, then one full
// broadcast period is served back FROM DISK and every coded block is
// re-read and verified bit-exact before the tool reports the store's
// stats. --store-bytes SIZE (byte-size grammar: 4096, 64KiB, 1MiB, ...)
// caps the device size; omitted, the device is sized to fit the program.
// An undersized cap surfaces the store's typed out-of-space error.
//
// --serve HOST:PORT broadcasts the planned program as real UDP datagrams
// (one per slot; wire format src/net/wire.h), paced by a token bucket at
// the spec's channel rate (--serve-bandwidth overrides; byte-size
// grammar). --serve-horizon N sets the slot count (default: the channel
// replay's horizon). With --channel, the datagrams pass through a
// FaultingSocket: the channel model's per-slot verdicts become deliberate
// drops and corruptions on the real wire.
//
// --listen HOST:PORT is the receiving side: it plans the same spec (for
// the program geometry and block size), binds the endpoint (port 0 =
// kernel-chosen, printed), tunes in mid-stream, reconstructs every file,
// and verifies the bytes against the spec's deterministic contents —
// exit status 0 iff every file reconstructed byte-exact.
//
// Example byte-domain spec:
//   channel 196608
//   file nav     bytes=16384 latency=0.5 faults=1
//   file weather bytes=8192  latency=2.0 faults=1
//
// Example slot-domain (generalized) spec:
//   gfile incidents blocks=2 latencies=12,14,16
//   gfile maps      blocks=8 latencies=150,170

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adaptive/adaptive_loop.h"
#include "bdisk/bandwidth.h"
#include "bdisk/block_size.h"
#include "bdisk/delay_analysis.h"
#include "bdisk/flat_builder.h"
#include "bdisk/pinwheel_builder.h"
#include "bdisk/spec_parser.h"
#include "common/random.h"
#include "faults/channel_spec.h"
#include "ida/dispersal.h"
#include "net/faulting_socket.h"
#include "net/udp_client.h"
#include "net/udp_server.h"
#include "net/udp_socket.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "pinwheel/composite_scheduler.h"
#include "runtime/flags.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "sim/server.h"
#include "sim/simulation.h"
#include "store/block_device.h"
#include "store/block_store.h"

namespace {

using namespace bdisk::broadcast;  // NOLINT

bdisk::runtime::ThreadPool* g_pool = nullptr;
const bdisk::faults::ChannelModel* g_channel = nullptr;
std::uint64_t g_requests_per_file = 200;
std::uint64_t g_workload_seed = 42;
bool g_evented_engine = false;
const char* g_metrics_out = nullptr;
std::uint64_t g_metrics_interval = 0;  // 0 = one program period.
// The first stream truncates the file; later runs (e.g. the two --adaptive
// replays) append to it.
bool g_metrics_append = false;
const char* g_store_path = nullptr;
// 0 = size the device to fit the program; otherwise a hard capacity cap.
std::uint64_t g_store_bytes = 0;
const char* g_trace_out = nullptr;
// --serve / --listen: the real UDP data plane.
const char* g_serve_endpoint = nullptr;
const char* g_listen_endpoint = nullptr;
std::uint64_t g_serve_bandwidth = 0;  // 0 = the spec's channel rate.
std::uint64_t g_serve_horizon = 0;    // 0 = tail + 50 periods.
// Capture policy; tracing is active iff g_trace_out is set.
bdisk::obs::TraceOptions g_trace_options;
// Sinks accumulated by the replays, written as one Chrome trace at the
// end of Plan (one process lane group per replay).
std::vector<std::pair<std::string, std::unique_ptr<bdisk::obs::TraceSink>>>
    g_trace_tracks;

// Streams `timeline` (plus the global registry) to --metrics-out, then
// resets the registry so the next stream's registry line covers only its
// own run — without this the phase timers of an earlier replay (e.g. the
// static half of --adaptive) bleed into every later stream.
int EmitMetricsStream(const bdisk::obs::Timeline& timeline) {
  auto status = bdisk::obs::WriteSnapshotStream(
      timeline, &bdisk::obs::GlobalRegistry(), g_metrics_out,
      g_metrics_append);
  if (!status.ok()) {
    std::fprintf(stderr, "metrics stream failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  g_metrics_append = true;
  bdisk::obs::GlobalRegistry().Reset();
  return 0;
}

// Writes the accumulated trace tracks to --trace-out as one Chrome
// trace-event JSON document.
int EmitTrace() {
  if (g_trace_out == nullptr) return 0;
  std::vector<bdisk::obs::TraceTrack> tracks;
  for (const auto& [label, sink] : g_trace_tracks) {
    tracks.push_back({sink.get(), label});
  }
  std::vector<std::pair<std::string, std::string>> metadata;
  metadata.emplace_back("engine", g_evented_engine ? "event" : "slot");
  if (g_channel != nullptr) {
    metadata.emplace_back("channel", g_channel->Describe());
  }
  auto status = bdisk::obs::WriteChromeTrace(tracks, metadata, g_trace_out);
  if (!status.ok()) {
    std::fprintf(stderr, "trace output failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

void PrintProgram(const BuildResult& result) {
  const BroadcastProgram& p = result.program;
  std::printf("\nprogram: period %llu slots, data cycle %llu, utilization "
              "%.0f%%, scheduled density %.3f\n",
              static_cast<unsigned long long>(p.period()),
              static_cast<unsigned long long>(p.DataCycleLength()),
              100.0 * p.Utilization(), result.scheduled_density);
  DelayAnalyzer analyzer(p);
  std::printf("%-16s %4s %4s %10s %8s  worst-case latency per fault level\n",
              "file", "m", "n", "slots/per", "max gap");
  // The exact adversary analysis is independent per file: shard it across
  // the pool (analysis only — the rendered table stays in file order).
  std::vector<std::string> latency_cols(p.file_count());
  bdisk::runtime::ParallelFor(
      g_pool, p.file_count(),
      bdisk::runtime::ShardCountFor(g_pool, p.file_count()),
      [&](unsigned, bdisk::runtime::ShardRange range) {
        for (std::uint64_t f = range.begin; f < range.end; ++f) {
          const ProgramFile& pf = p.files()[f];
          std::string col;
          for (std::size_t j = 0; j < pf.latency_slots.size(); ++j) {
            auto latency = analyzer.WorstCaseLatency(
                static_cast<FileIndex>(f), static_cast<std::uint32_t>(j),
                ClientModel::kIda);
            if (latency.ok()) {
              col += " " + std::to_string(*latency) + "<=" +
                     std::to_string(pf.latency_slots[j]);
            }
          }
          latency_cols[f] = std::move(col);
        }
      });
  for (FileIndex f = 0; f < p.file_count(); ++f) {
    const ProgramFile& pf = p.files()[f];
    std::printf("%-16s %4u %4u %10llu %8llu %s\n", pf.name.c_str(), pf.m,
                pf.n, static_cast<unsigned long long>(p.CountOf(f)),
                static_cast<unsigned long long>(p.MaxGapOf(f)),
                latency_cols[f].c_str());
  }
  if (!result.conversions.empty()) {
    std::printf("\npinwheel-algebra conversions:\n");
    for (std::size_t f = 0; f < result.conversions.size(); ++f) {
      const auto& conv = result.conversions[f];
      std::printf("  %-16s %-26s -> %-8s density %.4f (lower bound %.4f)\n",
                  p.files()[f].name.c_str(), conv.bc.ToString().c_str(),
                  conv.best().strategy.c_str(), conv.best().density(),
                  conv.density_lower_bound);
    }
  }
}

using bdisk::runtime::ParseUint64Token;

// --store: materialize the planned program into a crash-safe persistent
// block store at g_store_path, serve one full period back from disk, and
// re-read every coded block bit-exact before reporting the store's stats.
// Deterministic per-file contents (exactly m payloads each): the same
// bytes for the same spec on every run, so --store re-materializations are
// byte-identical and a --listen receiver can verify a --serve broadcast
// from a different process (or machine) without a side channel.
std::vector<std::vector<std::uint8_t>> DeterministicContents(
    const BroadcastProgram& planned, std::size_t payload_bytes) {
  std::vector<std::vector<std::uint8_t>> contents(planned.file_count());
  for (FileIndex f = 0; f < planned.file_count(); ++f) {
    bdisk::Rng rng(0x5702Eull + f);
    contents[f].resize(planned.files()[f].m * payload_bytes);
    for (auto& b : contents[f]) {
      b = static_cast<std::uint8_t>(rng.Uniform(256));
    }
  }
  return contents;
}

int MaterializeStore(const BroadcastProgram& planned,
                     std::size_t payload_bytes) {
  namespace store = bdisk::store;
  constexpr std::size_t kDeviceBlock = 4096;

  const std::vector<std::vector<std::uint8_t>> contents =
      DeterministicContents(planned, payload_bytes);

  std::uint64_t device_blocks;
  if (g_store_bytes != 0) {
    device_blocks = g_store_bytes / kDeviceBlock;
  } else {
    device_blocks = store::BlockStore::kFirstDataBlock;
    std::uint64_t catalog_bytes = 8;
    for (FileIndex f = 0; f < planned.file_count(); ++f) {
      const ProgramFile& pf = planned.files()[f];
      device_blocks +=
          pf.n * ((payload_bytes + kDeviceBlock - 1) / kDeviceBlock);
      catalog_bytes += 28 + pf.n * 12;
    }
    device_blocks +=
        2 * ((catalog_bytes + kDeviceBlock - 1) / kDeviceBlock) + 16;
  }

  std::remove(g_store_path);
  auto device =
      store::FileBlockDevice::Create(g_store_path, kDeviceBlock,
                                     device_blocks);
  if (!device.ok()) {
    std::fprintf(stderr, "store: %s\n", device.status().ToString().c_str());
    return 1;
  }
  auto built = store::BlockStore::Format(std::move(*device));
  if (!built.ok()) {
    std::fprintf(stderr, "store: %s\n", built.status().ToString().c_str());
    return 1;
  }
  store::BlockStore& st = **built;
  auto server = bdisk::sim::BroadcastServer::CreateDiskBacked(
      bdisk::sim::EpochSchedule::Single(planned), contents, payload_bytes,
      &st);
  if (!server.ok()) {
    std::fprintf(stderr, "store: %s\n", server.status().ToString().c_str());
    return 1;
  }

  // Serve one full period from disk, then re-read and re-verify every
  // cataloged block and reconstruct each file from its first m blocks.
  for (std::uint64_t t = 0; t < planned.period(); ++t) {
    auto tx = server->FetchTransmission(t);
    if (!tx.ok()) {
      std::fprintf(stderr, "store: slot %llu: %s\n",
                   static_cast<unsigned long long>(t),
                   tx.status().ToString().c_str());
      return 1;
    }
  }
  for (FileIndex f = 0; f < planned.file_count(); ++f) {
    const ProgramFile& pf = planned.files()[f];
    std::vector<bdisk::ida::Block> first_m;
    for (std::uint32_t k = 0; k < pf.n; ++k) {
      auto block = st.ReadCodedBlock(f, 0, k);
      if (!block.ok()) {
        std::fprintf(stderr, "store: %s block %u: %s\n", pf.name.c_str(), k,
                     block.status().ToString().c_str());
        return 1;
      }
      if (first_m.size() < pf.m) first_m.push_back(std::move(*block));
    }
    auto engine = bdisk::ida::Dispersal::Create(pf.m, pf.n, payload_bytes);
    if (!engine.ok()) {
      std::fprintf(stderr, "store: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    auto data = engine->Reconstruct(first_m);
    if (!data.ok() || *data != contents[f]) {
      std::fprintf(stderr,
                   "store: %s did not reconstruct to the bytes written\n",
                   pf.name.c_str());
      return 1;
    }
  }
  std::printf("\nstore: materialized to %s and verified (one period served "
              "from disk, every block re-read bit-exact)\n  %s\n",
              g_store_path, st.Stats().ToString().c_str());
  return 0;
}

// --channel replay: a random-start retrieval workload against the planned
// program over the parsed erasure channel, surfacing the
// reliability/latency frontier of the chosen (n, m) redundancy.
int ReplayChannel(const BroadcastProgram& planned) {
  // Horizon: room for every per-file tail (deadline or four data cycles)
  // plus a generous start range of 50 periods.
  std::uint64_t tail = 4 * planned.DataCycleLength();
  for (const ProgramFile& pf : planned.files()) {
    if (!pf.latency_slots.empty()) {
      tail = std::max(tail, pf.latency_slots.front());
    }
  }
  const std::uint64_t horizon = tail + 50 * planned.period() + 1;

  bdisk::sim::Simulator simulator(planned, *g_channel, horizon);
  bdisk::sim::WorkloadConfig config;
  config.requests_per_file = g_requests_per_file;
  config.seed = g_workload_seed;
  std::unique_ptr<bdisk::obs::Timeline> timeline;
  if (g_metrics_out != nullptr) {
    const std::uint64_t interval =
        g_metrics_interval > 0 ? g_metrics_interval : planned.period();
    timeline = std::make_unique<bdisk::obs::Timeline>(interval, horizon);
  }
  std::unique_ptr<bdisk::obs::TraceSink> trace;
  if (g_trace_out != nullptr) {
    trace = std::make_unique<bdisk::obs::TraceSink>(g_trace_options);
  }
  auto metrics =
      g_evented_engine
          ? simulator.RunWorkloadEvented(config, g_pool, timeline.get(),
                                         trace.get())
          : simulator.RunWorkload(config, g_pool, timeline.get(),
                                  trace.get());
  if (!metrics.ok()) {
    std::fprintf(stderr, "channel replay failed: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }
  if (timeline != nullptr) {
    const int rc = EmitMetricsStream(*timeline);
    if (rc != 0) return rc;
  }
  if (trace != nullptr) {
    g_trace_tracks.emplace_back("channel replay", std::move(trace));
  }
  std::printf("\nchannel replay (%s engine): %s over %llu slots "
              "(%llu faulty), %llu requests/file, workload seed %llu\n",
              g_evented_engine ? "event" : "slot",
              g_channel->Describe().c_str(),
              static_cast<unsigned long long>(horizon),
              static_cast<unsigned long long>(simulator.CorruptedSlotCount()),
              static_cast<unsigned long long>(g_requests_per_file),
              static_cast<unsigned long long>(g_workload_seed));
  std::printf("%s", metrics->ToString().c_str());
  std::printf("overall: mean latency %.2f slots, mean stall %.2f slots, "
              "undecodable rate %.4f, miss rate %.4f\n",
              metrics->OverallMeanLatency(), metrics->OverallMeanStall(),
              metrics->OverallUndecodableRate(), metrics->OverallMissRate());
  return 0;
}

// --adaptive replay: a drifting-Zipf demand trace (ranking reverses
// mid-run) against the planned program (static) and against the adaptive
// controller re-optimizing over the same file population.
int ReplayAdaptive(const BroadcastProgram& planned) {
  std::vector<FlatFileSpec> population;
  for (const ProgramFile& pf : planned.files()) {
    population.push_back({pf.name, pf.m, pf.n, pf.latency_slots});
  }

  bdisk::adaptive::DriftingZipfWorkload workload;
  workload.requests = 500 * planned.file_count();
  workload.theta = 0.95;
  workload.arrival_horizon = 300 * planned.period();
  workload.flip_slot = workload.arrival_horizon / 2;
  workload.seed = 7;
  const std::uint64_t interval = 25 * planned.period();

  std::uint64_t snapshot_interval = 0;
  if (g_metrics_out != nullptr) {
    snapshot_interval =
        g_metrics_interval > 0 ? g_metrics_interval : planned.period();
  }
  // Streams are emitted per replay through the experiment's callback, so
  // the registry reset in EmitMetricsStream lands *between* the static
  // and adaptive runs — each stream's registry line is its own run's.
  const auto on_replay =
      [](const bdisk::obs::Timeline& timeline, bool) -> bdisk::Status {
    if (EmitMetricsStream(timeline) != 0) {
      return bdisk::Status::Internal("metrics stream failed");
    }
    return bdisk::Status::OK();
  };
  const bdisk::obs::TraceOptions* trace_options =
      g_trace_out != nullptr ? &g_trace_options : nullptr;
  const bdisk::faults::BernoulliChannel default_channel(0.02, 99);
  auto replay = bdisk::adaptive::RunAdaptiveExperiment(
      population, workload, interval, {},
      g_channel != nullptr ? *g_channel : default_channel, g_pool, &planned,
      snapshot_interval, trace_options, on_replay);
  if (!replay.ok()) {
    std::fprintf(stderr, "adaptive replay failed: %s\n",
                 replay.status().ToString().c_str());
    return 1;
  }
  if (replay->static_trace != nullptr) {
    g_trace_tracks.emplace_back("static replay",
                                std::move(replay->static_trace));
  }
  if (replay->adaptive_trace != nullptr) {
    g_trace_tracks.emplace_back("adaptive replay",
                                std::move(replay->adaptive_trace));
  }
  std::printf("\nadaptive replay: Zipf(%.2f) demand over %llu slots, "
              "ranking reversed at slot %llu, %llu requests, "
              "re-optimization every %llu slots\n",
              workload.theta,
              static_cast<unsigned long long>(workload.arrival_horizon),
              static_cast<unsigned long long>(workload.flip_slot),
              static_cast<unsigned long long>(workload.requests),
              static_cast<unsigned long long>(interval));
  std::printf("  hot swaps: %zu\n", replay->swaps);
  for (std::size_t e = 1; e < replay->schedule.epoch_count(); ++e) {
    const auto& epoch = replay->schedule.epochs()[e];
    std::printf("    epoch %zu from slot %llu (period %llu slots)\n", e,
                static_cast<unsigned long long>(epoch.start_slot),
                static_cast<unsigned long long>(epoch.program.period()));
  }
  const double s = replay->static_metrics.OverallMeanLatency();
  const double a = replay->adaptive_metrics.OverallMeanLatency();
  std::printf("  mean retrieval delay: static %.1f slots, adaptive %.1f "
              "slots (%+.1f%%)\n",
              s, a, 100.0 * (a - s) / s);
  return 0;
}

// --serve: broadcast the planned program as real UDP datagrams — one per
// slot, paced by a token bucket at the spec's channel rate (or the
// --serve-bandwidth override). With --channel, the datagrams pass through
// a FaultingSocket first: the channel model's per-slot verdicts become
// deliberately dropped or corrupted packets on the real wire.
int ServeUdp(const BroadcastProgram& planned, std::size_t payload_bytes,
             std::uint64_t default_rate) {
  namespace net = bdisk::net;
  auto endpoint = net::ParseEndpoint(g_serve_endpoint);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "error: --serve: %s\n",
                 endpoint.status().ToString().c_str());
    return 2;
  }
  const auto contents = DeterministicContents(planned, payload_bytes);
  auto server =
      bdisk::sim::BroadcastServer::Create(planned, contents, payload_bytes);
  if (!server.ok()) {
    std::fprintf(stderr, "serve: %s\n", server.status().ToString().c_str());
    return 1;
  }
  std::uint64_t horizon = g_serve_horizon;
  if (horizon == 0) {
    std::uint64_t tail = 4 * planned.DataCycleLength();
    for (const ProgramFile& pf : planned.files()) {
      if (!pf.latency_slots.empty()) {
        tail = std::max(tail, pf.latency_slots.front());
      }
    }
    horizon = tail + 50 * planned.period() + 1;
  }
  auto socket = net::UdpSocket::Open();
  if (!socket.ok()) {
    std::fprintf(stderr, "serve: %s\n", socket.status().ToString().c_str());
    return 1;
  }
  net::SocketSink socket_sink(&*socket, *endpoint);
  std::unique_ptr<net::FaultingSocket> faulting;
  net::WireSink* sink = &socket_sink;
  if (g_channel != nullptr) {
    faulting = std::make_unique<net::FaultingSocket>(g_channel, &socket_sink);
    sink = faulting.get();
  }
  net::UdpServerOptions options;
  options.horizon = horizon;
  options.bandwidth_bytes_per_sec =
      g_serve_bandwidth != 0 ? g_serve_bandwidth : default_rate;
  std::printf("\nserving %llu slots to %s:%u at %llu bytes/s%s\n",
              static_cast<unsigned long long>(horizon),
              endpoint->host.c_str(), endpoint->port,
              static_cast<unsigned long long>(
                  options.bandwidth_bytes_per_sec),
              g_channel != nullptr ? " (channel faults injected)" : "");
  std::fflush(stdout);
  auto stats = bdisk::net::ServeBroadcast(&*server, sink, options);
  if (!stats.ok()) {
    std::fprintf(stderr, "serve: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  const double wall_s = static_cast<double>(stats->wall_ns) / 1e9;
  std::printf("served: %llu block + %llu idle + %llu end datagrams, "
              "%llu bytes in %.2fs (%.0f bytes/s)\n",
              static_cast<unsigned long long>(stats->block_datagrams),
              static_cast<unsigned long long>(stats->idle_datagrams),
              static_cast<unsigned long long>(stats->end_datagrams),
              static_cast<unsigned long long>(stats->bytes), wall_s,
              wall_s > 0 ? static_cast<double>(stats->bytes) / wall_s : 0.0);
  if (faulting != nullptr) {
    std::printf("channel on the wire: %llu dropped, %llu corrupted, "
                "%llu forwarded\n",
                static_cast<unsigned long long>(faulting->dropped()),
                static_cast<unsigned long long>(faulting->corrupted()),
                static_cast<unsigned long long>(faulting->forwarded()));
  }
  if (socket_sink.kernel_dropped() > 0) {
    std::printf("note: %llu datagrams refused by the local send buffer\n",
                static_cast<unsigned long long>(
                    socket_sink.kernel_dropped()));
  }
  return 0;
}

// --listen: tune in to a broadcast of this same spec (mid-stream join is
// fine — blocks are self-identifying), reconstruct every file, and verify
// the bytes against the spec's deterministic contents.
int ListenUdp(const BroadcastProgram& planned, std::size_t payload_bytes) {
  namespace net = bdisk::net;
  auto endpoint = net::ParseEndpoint(g_listen_endpoint);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "error: --listen: %s\n",
                 endpoint.status().ToString().c_str());
    return 2;
  }
  net::UdpClientOptions options;
  options.bind_host = endpoint->host;
  options.port = endpoint->port;
  options.block_size = payload_bytes;
  auto client = net::UdpClient::Create(options);
  if (!client.ok()) {
    std::fprintf(stderr, "listen: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  for (FileIndex f = 0; f < planned.file_count(); ++f) {
    net::WireSession session;
    session.file = f;
    session.m = planned.files()[f].m;
    session.n = planned.files()[f].n;
    client->AddSession(session);  // No start slot: join mid-stream.
  }
  std::printf("\nlistening on %s:%u for %zu files...\n",
              endpoint->host.c_str(), client->bound_port(),
              planned.file_count());
  std::fflush(stdout);
  auto results = client->Run();
  if (!results.ok()) {
    std::fprintf(stderr, "listen: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  const auto expected = DeterministicContents(planned, payload_bytes);
  const auto& stats = client->stats();
  std::printf("heard %llu datagrams (%llu blocks, %llu idle)%s%s\n",
              static_cast<unsigned long long>(stats.datagrams),
              static_cast<unsigned long long>(stats.block_datagrams),
              static_cast<unsigned long long>(stats.idle_datagrams),
              stats.end_seen ? ", end of stream" : "",
              stats.timed_out ? ", timed out" : "");
  int rc = 0;
  for (std::size_t f = 0; f < results->size(); ++f) {
    const auto& r = (*results)[f];
    if (!r.session.completed) {
      std::printf("  %-16s INCOMPLETE (tuned in at slot %llu)\n",
                  planned.files()[f].name.c_str(),
                  static_cast<unsigned long long>(r.start_slot));
      rc = 1;
      continue;
    }
    const bool byte_exact = r.session.data == expected[f];
    if (!byte_exact) rc = 1;
    std::printf("  %-16s reconstructed in %llu slots from slot %llu "
                "(%zu bytes, %s)\n",
                planned.files()[f].name.c_str(),
                static_cast<unsigned long long>(r.session.latency),
                static_cast<unsigned long long>(r.start_slot),
                r.session.data.size(),
                byte_exact ? "byte-exact" : "MISMATCH vs spec contents");
  }
  return rc;
}

int Plan(const std::string& text, bool adaptive) {
  auto spec = ParseWorkloadSpec(text);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  bdisk::pinwheel::CompositeScheduler scheduler;

  if (spec->IsByteDomain()) {
    std::printf("byte-domain workload: %zu files, channel %llu bytes/s\n",
                spec->byte_files.size(),
                static_cast<unsigned long long>(
                    spec->channel_bytes_per_second));
    std::vector<std::uint64_t> ladder;
    if (spec->block_size != 0) ladder.push_back(spec->block_size);
    auto choice = ChooseLargestFeasibleBlockSize(
        spec->byte_files, spec->channel_bytes_per_second, scheduler,
        std::move(ladder));
    if (!choice.ok()) {
      std::fprintf(stderr, "infeasible: %s\n",
                   choice.status().ToString().c_str());
      return 1;
    }
    std::printf("block size: %llu bytes  =>  bandwidth %llu blocks/s\n",
                static_cast<unsigned long long>(choice->block_size),
                static_cast<unsigned long long>(
                    choice->bandwidth_blocks_per_second));
    PrintProgram(choice->build);
    if (g_store_path != nullptr) {
      const int rc =
          MaterializeStore(choice->build.program, choice->block_size);
      if (rc != 0) return rc;
    }
    if (g_channel != nullptr) {
      const int rc = ReplayChannel(choice->build.program);
      if (rc != 0) return rc;
    }
    if (adaptive) {
      const int rc = ReplayAdaptive(choice->build.program);
      if (rc != 0) return rc;
    }
    if (g_serve_endpoint != nullptr) {
      // Pace at the spec's modeled channel rate unless overridden: the
      // wire then carries exactly the bandwidth the plan assumed.
      const int rc = ServeUdp(choice->build.program, choice->block_size,
                              spec->channel_bytes_per_second);
      if (rc != 0) return rc;
    }
    if (g_listen_endpoint != nullptr) {
      const int rc = ListenUdp(choice->build.program, choice->block_size);
      if (rc != 0) return rc;
    }
    return EmitTrace();
  }

  std::printf("slot-domain workload: %zu generalized files\n",
              spec->generalized_files.size());
  auto result = BuildGeneralizedProgram(spec->generalized_files, scheduler);
  if (!result.ok()) {
    std::fprintf(stderr, "infeasible: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  PrintProgram(*result);
  if (g_store_path != nullptr) {
    // Slot-domain specs have no byte size; store a fixed 64-byte payload
    // per coded block.
    const int rc = MaterializeStore(result->program, 64);
    if (rc != 0) return rc;
  }
  if (g_channel != nullptr) {
    const int rc = ReplayChannel(result->program);
    if (rc != 0) return rc;
  }
  if (adaptive) {
    const int rc = ReplayAdaptive(result->program);
    if (rc != 0) return rc;
  }
  if (g_serve_endpoint != nullptr) {
    // Slot-domain specs model no byte rate: unpaced unless
    // --serve-bandwidth is given (ServeUdp treats 0 as "as fast as the
    // kernel accepts").
    const int rc = ServeUdp(result->program, 64, g_serve_bandwidth);
    if (rc != 0) return rc;
  }
  if (g_listen_endpoint != nullptr) {
    const int rc = ListenUdp(result->program, 64);
    if (rc != 0) return rc;
  }
  return EmitTrace();
}

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--threads N] [--adaptive] [--channel SPEC] "
               "[--engine slot|event] [--requests N] [--seed S] "
               "[--metrics-out PATH] [--metrics-interval N] "
               "[--store PATH] [--store-bytes SIZE] "
               "[--trace-out PATH] [--trace-sample 1/N] [--trace-stall S] "
               "[--trace-flight K] [--serve HOST:PORT | --listen "
               "HOST:PORT] [--serve-bandwidth RATE] [--serve-horizon N] "
               "<spec-file | ->\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = bdisk::runtime::ConsumeThreadsFlag(&argc, argv);
  const bool adaptive =
      bdisk::runtime::ConsumeBoolFlag(&argc, argv, "adaptive");
  const char* channel_spec =
      bdisk::runtime::ConsumeStringFlag(&argc, argv, "channel");
  const char* requests_token =
      bdisk::runtime::ConsumeStringFlag(&argc, argv, "requests");
  const char* seed_token =
      bdisk::runtime::ConsumeStringFlag(&argc, argv, "seed");
  const char* engine_token =
      bdisk::runtime::ConsumeStringFlag(&argc, argv, "engine");
  g_metrics_out = bdisk::runtime::ConsumeStringFlag(&argc, argv,
                                                    "metrics-out");
  const char* metrics_interval_token =
      bdisk::runtime::ConsumeStringFlag(&argc, argv, "metrics-interval");
  g_store_path = bdisk::runtime::ConsumeStringFlag(&argc, argv, "store");
  const char* store_bytes_token =
      bdisk::runtime::ConsumeStringFlag(&argc, argv, "store-bytes");
  g_trace_out = bdisk::runtime::ConsumeStringFlag(&argc, argv, "trace-out");
  const auto serve_flag =
      bdisk::runtime::ConsumeStringFlagOnce(&argc, argv, "serve");
  if (!serve_flag.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 serve_flag.status().message().c_str());
    return 2;
  }
  g_serve_endpoint = *serve_flag;
  const auto listen_flag =
      bdisk::runtime::ConsumeStringFlagOnce(&argc, argv, "listen");
  if (!listen_flag.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 listen_flag.status().message().c_str());
    return 2;
  }
  g_listen_endpoint = *listen_flag;
  const auto serve_bandwidth_flag =
      bdisk::runtime::ConsumeByteSizeFlagOnce(&argc, argv,
                                              "serve-bandwidth", 0);
  if (!serve_bandwidth_flag.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 serve_bandwidth_flag.status().message().c_str());
    return 2;
  }
  g_serve_bandwidth = *serve_bandwidth_flag;
  const auto serve_horizon_flag =
      bdisk::runtime::ConsumeUintFlagOnce(&argc, argv, "serve-horizon", 0);
  if (!serve_horizon_flag.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 serve_horizon_flag.status().message().c_str());
    return 2;
  }
  g_serve_horizon = *serve_horizon_flag;
  const char* trace_sample_token =
      bdisk::runtime::ConsumeStringFlag(&argc, argv, "trace-sample");
  const char* trace_stall_token =
      bdisk::runtime::ConsumeStringFlag(&argc, argv, "trace-stall");
  const char* trace_flight_token =
      bdisk::runtime::ConsumeStringFlag(&argc, argv, "trace-flight");
  if (argc == 2 && (std::string(argv[1]) == "--help" ||
                    std::string(argv[1]) == "-h")) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  if (argc != 2) {
    PrintUsage(stderr, argv[0]);
    return 2;
  }
  if (store_bytes_token != nullptr) {
    auto parsed = bdisk::runtime::ParseByteSize(store_bytes_token);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: --store-bytes: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    g_store_bytes = *parsed;
    if (g_store_path == nullptr) {
      std::fprintf(stderr, "error: --store-bytes requires --store\n");
      return 2;
    }
  }
  if (trace_sample_token != nullptr) {
    // Accepted as "1/N" (the sampling-rate reading) or plain "N".
    std::string token(trace_sample_token);
    if (token.rfind("1/", 0) == 0) token = token.substr(2);
    if (!ParseUint64Token(token.c_str(), &g_trace_options.sample_every) ||
        g_trace_options.sample_every == 0) {
      std::fprintf(stderr, "error: --trace-sample must be 1/N or N with "
                   "positive N, got '%s'\n", trace_sample_token);
      return 2;
    }
  }
  if (trace_stall_token != nullptr &&
      (!ParseUint64Token(trace_stall_token,
                         &g_trace_options.stall_threshold) ||
       g_trace_options.stall_threshold == 0)) {
    std::fprintf(stderr, "error: --trace-stall must be a positive integer, "
                 "got '%s'\n", trace_stall_token);
    return 2;
  }
  if (trace_flight_token != nullptr &&
      (!ParseUint64Token(trace_flight_token,
                         &g_trace_options.flight_recorder_depth) ||
       g_trace_options.flight_recorder_depth == 0)) {
    std::fprintf(stderr, "error: --trace-flight must be a positive integer, "
                 "got '%s'\n", trace_flight_token);
    return 2;
  }
  if (g_trace_out == nullptr &&
      (trace_sample_token != nullptr || trace_stall_token != nullptr ||
       trace_flight_token != nullptr)) {
    std::fprintf(stderr, "error: --trace-sample/--trace-stall/--trace-flight "
                 "require --trace-out\n");
    return 2;
  }
  if (g_trace_out != nullptr && channel_spec == nullptr && !adaptive) {
    std::fprintf(stderr,
                 "error: --trace-out requires --channel or --adaptive "
                 "(nothing to trace otherwise)\n");
    return 2;
  }
  if (g_serve_endpoint != nullptr && g_listen_endpoint != nullptr) {
    std::fprintf(stderr, "error: --serve and --listen are exclusive (run "
                 "one process per role)\n");
    return 2;
  }
  if ((g_serve_bandwidth != 0 || g_serve_horizon != 0) &&
      g_serve_endpoint == nullptr) {
    std::fprintf(stderr,
                 "error: --serve-bandwidth/--serve-horizon require "
                 "--serve\n");
    return 2;
  }
  if (metrics_interval_token != nullptr) {
    if (!ParseUint64Token(metrics_interval_token, &g_metrics_interval) ||
        g_metrics_interval == 0) {
      std::fprintf(stderr, "error: --metrics-interval must be a positive "
                   "integer, got '%s'\n", metrics_interval_token);
      return 2;
    }
  }
  if (g_metrics_interval != 0 && g_metrics_out == nullptr) {
    std::fprintf(stderr,
                 "error: --metrics-interval requires --metrics-out\n");
    return 2;
  }
  if (engine_token != nullptr) {
    if (std::string(engine_token) == "event") {
      g_evented_engine = true;
    } else if (std::string(engine_token) != "slot") {
      std::fprintf(stderr, "error: --engine must be 'slot' or 'event', "
                   "got '%s'\n", engine_token);
      return 2;
    }
  }
  std::unique_ptr<bdisk::faults::ChannelModel> channel;
  if (channel_spec != nullptr) {
    auto parsed = bdisk::faults::ParseChannelSpec(channel_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    channel = std::move(*parsed);
    g_channel = channel.get();
  }
  if (requests_token != nullptr) {
    if (!ParseUint64Token(requests_token, &g_requests_per_file) ||
        g_requests_per_file == 0) {
      std::fprintf(stderr, "error: --requests must be a positive integer, "
                   "got '%s'\n", requests_token);
      return 2;
    }
  }
  if (seed_token != nullptr &&
      !ParseUint64Token(seed_token, &g_workload_seed)) {
    std::fprintf(stderr, "error: --seed must be a 64-bit non-negative "
                 "integer, got '%s'\n", seed_token);
    return 2;
  }
  const char* spec_arg = argv[1];
  std::unique_ptr<bdisk::runtime::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<bdisk::runtime::ThreadPool>(threads);
    g_pool = pool.get();
  }
  std::ostringstream text;
  if (std::string(spec_arg) == "-") {
    text << std::cin.rdbuf();
  } else {
    std::ifstream in(spec_arg);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", spec_arg);
      return 2;
    }
    text << in.rdbuf();
  }
  return Plan(text.str(), adaptive);
}
