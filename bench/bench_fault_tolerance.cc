// Fault-tolerance frontier: retrieval latency, reconstruction stall,
// periods-to-recovery, and undecodable-file rate as a function of the
// erasure channel and the AIDA redundancy knob n/m.
//
// This is the quantitative half of the paper's fault-tolerance claim: a
// client reconstructs from any m of n dispersed blocks, so raising n/m
// buys reliability (and lowers stall) at the price of bandwidth. The sweep
// runs every channel of the fault taxonomy (src/faults/) against
// redundancy ratios 1.0-2.0 and emits one JSON line per (channel, ratio,
// metric).
//
// The bench also enforces the subsystem's acceptance bar and exits
// non-zero on violation:
//   * under Bernoulli loss p=0.1 with redundancy >= 1.5, every file of the
//     byte-level data plane reconstructs byte-identically through the
//     corrupting/lossy channel, and the index-level workload has no
//     undecodable attempts;
//   * the identical fault seed produces bit-identical metrics (compared as
//     serialized JSON) at 1 and 8 threads.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bdisk/flat_builder.h"
#include "bench_util.h"
#include "common/random.h"
#include "faults/channel_spec.h"
#include "runtime/flags.h"
#include "runtime/thread_pool.h"
#include "sim/client.h"
#include "sim/server.h"
#include "sim/simulation.h"

namespace {

using namespace bdisk;             // NOLINT
using namespace bdisk::broadcast;  // NOLINT
using namespace bdisk::sim;       // NOLINT

// Large enough for the 4-data-cycle workload tail of every swept program
// (the block-rotation data cycle of the r=1.5 program is ~1320 periods).
constexpr std::uint64_t kHorizon = 200000;
constexpr std::uint64_t kWorkloadSeed = 404;
constexpr std::uint64_t kRequestsPerFile = 500;
constexpr std::size_t kBlockSize = 64;

bdisk::runtime::ThreadPool* g_pool = nullptr;
unsigned g_threads = 1;

// 6 files, m in 2..7, n = ceil(m * redundancy): one program per ratio.
BroadcastProgram Build(double redundancy) {
  std::vector<FlatFileSpec> files;
  for (std::uint32_t i = 0; i < 6; ++i) {
    const std::uint32_t m = 2 + i;
    const auto n = static_cast<std::uint32_t>(std::ceil(m * redundancy));
    files.push_back({"F" + std::to_string(i), m, n, {}});
  }
  auto p = BuildFlatProgram(files, FlatLayout::kSpread);
  if (!p.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 p.status().ToString().c_str());
    std::exit(1);
  }
  return *p;
}

SimulationMetrics RunPoint(const BroadcastProgram& program,
                           const faults::ChannelModel& channel,
                           bdisk::runtime::ThreadPool* pool) {
  Simulator sim(program, channel, kHorizon);
  WorkloadConfig config;
  config.requests_per_file = kRequestsPerFile;
  config.seed = kWorkloadSeed;
  auto metrics = sim.RunWorkload(config, pool);
  if (!metrics.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 metrics.status().ToString().c_str());
    std::exit(1);
  }
  return *metrics;
}

// Metric tag "<channel>_r<ratio>_<metric>"; ratios render as 1.50.
std::string Tag(const char* channel, double ratio, const char* metric) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s_r%.2f_%s", channel, ratio, metric);
  return buf;
}

// Acceptance: byte-identical end-to-end reconstruction through the lossy
// channel for every file of the r >= 1.5 program, from several starts.
int CheckByteLevel(const BroadcastProgram& program,
                   const faults::ChannelModel& channel) {
  Rng rng(2024);
  std::vector<std::vector<std::uint8_t>> contents(program.file_count());
  for (FileIndex f = 0; f < program.file_count(); ++f) {
    contents[f].resize(program.files()[f].m * kBlockSize);
    for (auto& b : contents[f]) {
      b = static_cast<std::uint8_t>(rng.Uniform(256));
    }
  }
  auto server = BroadcastServer::Create(program, contents, kBlockSize);
  if (!server.ok()) {
    std::fprintf(stderr, "server build failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  for (FileIndex f = 0; f < program.file_count(); ++f) {
    for (std::uint64_t start = 0; start < 3 * program.period();
         start += program.period() / 2 + 1) {
      auto session =
          RunRetrievalSession(*server, channel, f, start, kHorizon);
      if (!session.ok()) {
        std::fprintf(stderr, "session failed: %s\n",
                     session.status().ToString().c_str());
        return 1;
      }
      if (!session->completed) {
        std::fprintf(stderr,
                     "ACCEPTANCE: file %u from slot %llu did not complete\n",
                     f, static_cast<unsigned long long>(start));
        return 1;
      }
      if (session->data != contents[f]) {
        std::fprintf(stderr,
                     "ACCEPTANCE: file %u from slot %llu reconstructed "
                     "different bytes\n",
                     f, static_cast<unsigned long long>(start));
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  runtime::ParseCommandLine(argc, argv,
                            {{"threads", runtime::FlagKind::kThreads,
                              "worker threads (1)", &g_threads}});
  std::unique_ptr<bdisk::runtime::ThreadPool> pool;
  if (g_threads > 1) {
    pool = std::make_unique<bdisk::runtime::ThreadPool>(g_threads);
    g_pool = pool.get();
  }

  const std::vector<std::pair<const char*, std::string>> channels = {
      {"lossless", "lossless"},
      {"bernoulli0.05", "bernoulli:p=0.05,seed=7"},
      {"bernoulli0.10", "bernoulli:p=0.1,seed=7"},
      {"gilbert", "gilbert:pgb=0.02,pbg=0.2,seed=7"},
      {"corrupt0.05", "corrupt:p=0.05,seed=7"},
      {"outage", "outage:period=2048,start=512,len=192"},
  };
  const std::vector<double> ratios = {1.0, 1.25, 1.5, 2.0};

  std::printf("%-14s %6s %10s %10s %10s %10s\n", "channel", "n/m",
              "mean_lat", "mean_stall", "periods", "undecod");
  for (const auto& [name, spec] : channels) {
    auto channel = faults::ParseChannelSpec(spec);
    if (!channel.ok()) {
      std::fprintf(stderr, "bad channel spec '%s': %s\n", spec.c_str(),
                   channel.status().ToString().c_str());
      return 1;
    }
    for (const double ratio : ratios) {
      const BroadcastProgram program = Build(ratio);
      const SimulationMetrics metrics = RunPoint(program, **channel, g_pool);
      double mean_periods = 0.0;
      {
        RunningStats all;
        for (const FileMetrics& f : metrics.per_file) {
          all.Merge(f.periods_to_recovery);
        }
        mean_periods = all.mean();
      }
      std::printf("%-14s %6.2f %10.2f %10.2f %10.2f %10.4f\n", name, ratio,
                  metrics.OverallMeanLatency(), metrics.OverallMeanStall(),
                  mean_periods, metrics.OverallUndecodableRate());
      benchutil::EmitJson("bench_fault_tolerance",
                          Tag(name, ratio, "mean_latency_slots").c_str(),
                          metrics.OverallMeanLatency(), g_threads);
      benchutil::EmitJson("bench_fault_tolerance",
                          Tag(name, ratio, "mean_stall_slots").c_str(),
                          metrics.OverallMeanStall(), g_threads);
      benchutil::EmitJson("bench_fault_tolerance",
                          Tag(name, ratio, "mean_periods_to_recovery").c_str(),
                          mean_periods, g_threads);
      benchutil::EmitJson("bench_fault_tolerance",
                          Tag(name, ratio, "undecodable_rate").c_str(),
                          metrics.OverallUndecodableRate(), g_threads);
    }
  }

  // ---- Acceptance bar -----------------------------------------------------
  auto bern = faults::ParseChannelSpec("bernoulli:p=0.1,seed=7");
  if (!bern.ok()) return 1;
  const BroadcastProgram accept_program = Build(1.5);

  // Index level: no undecodable attempts at p=0.1, r=1.5.
  const SimulationMetrics serial = RunPoint(accept_program, **bern, nullptr);
  if (serial.OverallUndecodableRate() != 0.0) {
    std::fprintf(stderr,
                 "ACCEPTANCE: undecodable rate %.6f != 0 at p=0.1 r=1.5\n",
                 serial.OverallUndecodableRate());
    return 1;
  }

  // Byte level: every file reconstructs byte-identically.
  if (CheckByteLevel(accept_program, **bern) != 0) return 1;

  // Determinism: bit-identical metrics at 1 and 8 threads.
  {
    bdisk::runtime::ThreadPool eight(8);
    const SimulationMetrics parallel = RunPoint(accept_program, **bern,
                                                &eight);
    if (MetricsToJson(serial) != MetricsToJson(parallel)) {
      std::fprintf(stderr,
                   "ACCEPTANCE: metrics differ between 1 and 8 threads\n");
      return 1;
    }
  }
  std::printf("acceptance: p=0.1 r=1.5 all files byte-identical, "
              "undecodable 0, 1-vs-8-thread metrics bit-identical\n");
  benchutil::EmitJson("bench_fault_tolerance", "acceptance_pass", 1.0,
                      g_threads);
  return 0;
}
