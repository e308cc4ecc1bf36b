// perfbench: the repository's end-to-end broadcast benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Runs one workload (wire_tiny, wire_bulk_disk, wire_paced_fanout,
// sim_fleet), prints every metric by name with its unit, and ends with one
// JSON result line: the end-to-end metrics with --trace 0, the per-layer
// ledger with --trace 1. Correctness checks run in both modes; if any
// fails, the result line says "correct": false, carries no metrics, and
// the exit code is 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported on every workload. "op" is one broadcast datagram on the wire
// workloads and one engine event (a transmission heard by a simulated
// client) on sim_fleet.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"cpu_us_per_op", "us"},
    {"retrieval_slots_p50", "slots"},
    {"retrieval_slots_p99", "slots"},
    {"peak_rss_mb", "MiB"},
};

// Reported on every workload; 0 where the workload does not exercise the
// layer.
constexpr MetricDef kPerLayer[] = {
    {"bdisk.plan_ms", "ms"},
    {"ida.disperse_ns_per_block", "ns"},
    {"store.commit_ms", "ms"},
    {"store.fetch_ns_per_block", "ns"},
    {"ida.reconstruct_us_per_file", "us"},
    {"server.fetch_ns_per_slot", "ns"},
    {"wire.encode_ns_per_datagram", "ns"},
    {"wire.decode_ns_per_datagram", "ns"},
    {"socket.send_ns_per_datagram", "ns"},
    {"socket.recv_ns_per_datagram", "ns"},
    {"alloc.server_per_datagram", "count"},
    {"alloc.client_per_datagram", "count"},
    {"socket.poll_wait_ms", "ms/s"},
    {"socket.kernel_loss_ratio", "ratio"},
    {"pace.wait_ns_per_datagram", "ns"},
    {"pace.error_pct", "%"},
    {"pace.late_us_p99", "us"},
    {"faults.verdict_ns_per_datagram", "ns"},
    {"faults.dropped", "count"},
    {"faults.corrupted", "count"},
    {"client.offer_ns_per_datagram", "ns"},
    {"client.offers_per_datagram", "count"},
    {"client.useful_offer_ratio", "ratio"},
    {"client.rejected_duplicate", "count"},
    {"client.rejected_stale", "count"},
    {"client.rejected_checksum", "count"},
    {"engine.run_s", "s"},
    {"engine.events_per_client", "count"},
    {"arrivals.prepare_ns_per_client", "ns"},
    {"engine.drain_ns_per_event", "ns"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_min_pct", "%"},
};

const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload wire_tiny|wire_bulk_disk|"
               "wire_paced_fanout|sim_fleet --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n");
  return 2;
}

void PrintMetric(const char* name, double value, const char* unit) {
  std::printf("  %-34s %16.6g %s\n", name, value, unit);
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = FlagValue(argc, argv, "--workload");
  const char* seed = FlagValue(argc, argv, "--seed");
  const char* seconds = FlagValue(argc, argv, "--seconds");
  const char* trace = FlagValue(argc, argv, "--trace");
  const char* workdir = FlagValue(argc, argv, "--workdir");
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      trace == nullptr || workdir == nullptr) {
    return Usage();
  }
  Options options;
  options.workload = workload;
  options.seed = std::strtoull(seed, nullptr, 10);
  options.seconds = std::strtod(seconds, nullptr);
  options.trace = std::strcmp(trace, "1") == 0;
  options.workdir = workdir;
  options.spans_path =
      (std::filesystem::path(workdir).parent_path() /
       ("spans-" + options.workload + ".json"))
          .string();
  const bool wire = perfbench::IsWireWorkload(options.workload);
  if (!wire && options.workload != "sim_fleet") return Usage();
  if (!(options.seconds > 0.0)) return Usage();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload, static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::fflush(stdout);
  Outcome out = wire ? perfbench::RunWireWorkload(options)
                     : perfbench::RunSimFleet(options);

  for (const std::string& note : out.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("detail:\n");
  for (const Metric& m : out.detail) {
    PrintMetric(m.name.c_str(), m.value, m.unit.c_str());
  }

  // Every declared metric of the reported kind must be present (per-layer
  // metrics of layers a workload does not exercise read 0) and finite.
  const auto& values = options.trace ? out.per_layer : out.end_to_end;
  const MetricDef* defs = options.trace ? kPerLayer : kEndToEnd;
  const std::size_t count = options.trace
                                ? sizeof(kPerLayer) / sizeof(kPerLayer[0])
                                : sizeof(kEndToEnd) / sizeof(kEndToEnd[0]);
  std::string metrics_json;
  std::printf("%s:\n", options.trace ? "per-layer" : "end-to-end");
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    double value = 0.0;
    if (it != values.end()) {
      value = it->second;
    } else if (!options.trace) {
      out.Fail(std::string("missing end-to-end metric ") + defs[i].name);
    }
    if (!std::isfinite(value)) {
      out.Fail(std::string("metric ") + defs[i].name + " is not finite");
      value = 0.0;
    }
    PrintMetric(defs[i].name, value, defs[i].unit);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
    metrics_json += buf;
  }
  for (const auto& [name, value] : values) {
    bool declared = false;
    for (std::size_t i = 0; i < count; ++i) {
      declared = declared || name == defs[i].name;
    }
    if (!declared) out.Fail("undeclared metric " + name);
  }

  const bool correct = out.check_failures.empty();
  if (correct) {
    std::printf("checks: all passed (%llu retrievals, %llu failed)\n",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
  } else {
    for (const std::string& why : out.check_failures) {
      std::printf("CHECK FAILED: %s\n", why.c_str());
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(
          std::max<std::uint64_t>(out.attempted, 1)),
      static_cast<unsigned long long>(out.failed),
      correct ? metrics_json.c_str() : "");
  return correct ? 0 : 1;
}
