// IVHS navigation scenario (the paper's Section 1 motivation).
//
// An Intelligent Vehicle Highway System backbone broadcasts traffic data
// to vehicles over a satellite downlink; vehicles have no meaningful
// uplink. Different items degrade differently under transmission faults,
// which is exactly the generalized model of Section 4: each file carries a
// latency *vector* d = [d(0), d(1), ..., d(r)] — the tolerable retrieval
// latency when 0, 1, ..., r blocks are lost.
//
// The example builds the program via the pinwheel algebra + scheduler
// portfolio, prints the per-file conversion the optimizer chose, checks
// the worst-case latencies analytically, and then runs a stochastic
// simulation over a bursty channel to show the real-time promises holding.
//
// Build & run:  ./build/examples/ivhs_navigation

#include <cstdio>

#include "bdisk/delay_analysis.h"
#include "bdisk/pinwheel_builder.h"
#include "faults/channel_model.h"
#include "pinwheel/composite_scheduler.h"
#include "sim/simulation.h"

int main() {
  using namespace bdisk::broadcast;  // NOLINT

  // Latency vectors in slots. "incidents" must arrive fast even with two
  // lost blocks; "map-tiles" may degrade gracefully.
  const std::vector<GeneralizedFileSpec> files{
      {"incidents", 2, {12, 14, 16}},   // Accidents / lane closures.
      {"congestion", 3, {36, 40}},      // Live congestion grid.
      {"reroutes", 2, {30, 34, 38}},    // Suggested detours.
      {"map-tiles", 8, {150, 170}},     // Base map refresh.
  };

  bdisk::pinwheel::CompositeScheduler scheduler;
  auto result = BuildGeneralizedProgram(files, scheduler);
  if (!result.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const BroadcastProgram& program = result->program;

  std::printf("=== IVHS broadcast disk ===\n");
  std::printf("period %llu slots, data cycle %llu, scheduled density %.3f\n\n",
              static_cast<unsigned long long>(program.period()),
              static_cast<unsigned long long>(program.DataCycleLength()),
              result->scheduled_density);

  std::printf("per-file pinwheel-algebra conversions:\n");
  for (std::size_t f = 0; f < result->conversions.size(); ++f) {
    const auto& conv = result->conversions[f];
    std::printf("  %-12s %-22s -> %-10s density %.4f (lower bound %.4f)\n",
                files[f].name.c_str(), conv.bc.ToString().c_str(),
                conv.best().strategy.c_str(), conv.best().density(),
                conv.density_lower_bound);
  }

  std::printf("\nanalytic worst-case latency vs promise (slots):\n");
  DelayAnalyzer analyzer(program);
  for (FileIndex f = 0; f < program.file_count(); ++f) {
    const auto& pf = program.files()[f];
    std::printf("  %-12s", pf.name.c_str());
    for (std::size_t j = 0; j < pf.latency_slots.size(); ++j) {
      auto latency = analyzer.WorstCaseLatency(
          f, static_cast<std::uint32_t>(j), ClientModel::kIda);
      if (!latency.ok()) return 1;
      std::printf("  %llu faults: %llu <= %llu %s",
                  static_cast<unsigned long long>(j),
                  static_cast<unsigned long long>(*latency),
                  static_cast<unsigned long long>(pf.latency_slots[j]),
                  *latency <= pf.latency_slots[j] ? "ok" : "VIOLATED");
    }
    std::printf("\n");
  }

  // Stochastic check on a bursty channel at 5% loss.
  bdisk::faults::GilbertElliottChannel::Params params;
  params.p_bad_to_good = 0.25;
  params.p_good_to_bad = 0.05 * params.p_bad_to_good / 0.95;
  const bdisk::faults::GilbertElliottChannel channel(params, 2026);
  bdisk::sim::Simulator sim(program, channel,
                            400 * program.DataCycleLength());
  bdisk::sim::WorkloadConfig config;
  config.requests_per_file = 4000;
  auto metrics = sim.RunWorkload(config);
  if (!metrics.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }
  std::printf("\nsimulation on a bursty channel (~%.1f%% stationary loss), "
              "4000 retrievals per file:\n%s",
              100.0 * channel.StationaryLossRate(),
              metrics->ToString().c_str());
  std::printf("overall deadline miss rate: %.4f\n",
              metrics->OverallMissRate());
  return 0;
}
