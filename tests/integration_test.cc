// Full-pipeline integration tests: specs -> algebra -> pinwheel scheduling
// -> broadcast program -> analytic delay bounds -> simulation -> byte-level
// reconstruction. Cross-checks every layer against the others.

#include <gtest/gtest.h>

#include "bdisk/bandwidth.h"
#include "bdisk/delay_analysis.h"
#include "bdisk/pinwheel_builder.h"
#include "common/random.h"
#include "faults/channel_model.h"
#include "pinwheel/composite_scheduler.h"
#include "sim/client.h"
#include "sim/server.h"
#include "sim/simulation.h"

namespace bdisk {
namespace {

using broadcast::BroadcastProgram;
using broadcast::ClientModel;
using broadcast::DelayAnalyzer;
using broadcast::FileIndex;

// An IVHS-flavored workload (the paper's motivating application): traffic
// incidents are small and urgent; map tiles are large and relaxed.
std::vector<broadcast::GeneralizedFileSpec> IvhsFiles() {
  return {
      {"incidents", 2, {12, 16}},       // Urgent, tolerate 1 fault.
      {"routes", 3, {40, 48, 56}},      // Medium, tolerate 2 faults.
      {"map-tiles", 6, {120, 140}},     // Bulky, tolerate 1 fault.
  };
}

TEST(IntegrationTest, GeneralizedPipelineSatisfiesAllConstraints) {
  pinwheel::CompositeScheduler scheduler;
  auto result = broadcast::BuildGeneralizedProgram(IvhsFiles(), scheduler);
  ASSERT_TRUE(result.ok()) << result.status();
  const BroadcastProgram& p = result->program;

  // 1. Exact verification of every bc level.
  ASSERT_TRUE(p.VerifyBroadcastConditions().ok());

  // 2. Analytic check: the worst-case latency with j faults is within
  //    d^(j) for every file and level (this is the paper's core promise).
  DelayAnalyzer analyzer(p);
  for (FileIndex f = 0; f < p.file_count(); ++f) {
    const auto& pf = p.files()[f];
    for (std::size_t j = 0; j < pf.latency_slots.size(); ++j) {
      auto latency = analyzer.WorstCaseLatency(
          f, static_cast<std::uint32_t>(j), ClientModel::kIda);
      ASSERT_TRUE(latency.ok()) << latency.status();
      EXPECT_LE(*latency, pf.latency_slots[j])
          << pf.name << " with " << j << " faults";
    }
  }
}

TEST(IntegrationTest, SimulationNeverExceedsAnalyticWorstCase) {
  pinwheel::CompositeScheduler scheduler;
  auto result = broadcast::BuildGeneralizedProgram(IvhsFiles(), scheduler);
  ASSERT_TRUE(result.ok()) << result.status();
  const BroadcastProgram& p = result->program;
  DelayAnalyzer analyzer(p);

  // Fault-free simulation: every observed latency must be bounded by the
  // analytic zero-fault worst case.
  const faults::LosslessChannel channel;
  sim::Simulator simulator(p, channel, 50 * p.DataCycleLength());
  sim::WorkloadConfig config;
  config.requests_per_file = 500;
  auto metrics = simulator.RunWorkload(config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  for (FileIndex f = 0; f < p.file_count(); ++f) {
    auto analytic = analyzer.WorstCaseLatency(f, 0, ClientModel::kIda);
    ASSERT_TRUE(analytic.ok());
    EXPECT_LE(metrics->per_file[f].latency.max(),
              static_cast<double>(*analytic))
        << p.files()[f].name;
    EXPECT_EQ(metrics->per_file[f].MissRate(), 0.0);
  }
}

TEST(IntegrationTest, RegularPipelineAtSufficientBandwidth) {
  const std::vector<broadcast::FileSpec> files{
      {"aircraft", 4, 0.4, 1},
      {"tanks", 8, 6.0, 1},
      {"weather", 6, 2.0, 0},
  };
  auto bandwidth = broadcast::BandwidthPlanner::SufficientBandwidth(files);
  ASSERT_TRUE(bandwidth.ok());
  pinwheel::CompositeScheduler scheduler;
  auto result = broadcast::BuildProgram(files, *bandwidth, scheduler);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->program.VerifyBroadcastConditions().ok());

  // Lemma 2 style check: after one fault, retrieval still fits the window.
  DelayAnalyzer analyzer(result->program);
  for (FileIndex f = 0; f < 2; ++f) {  // Files with r = 1.
    auto latency = analyzer.WorstCaseLatency(f, 1, ClientModel::kIda);
    ASSERT_TRUE(latency.ok());
    EXPECT_LE(*latency, result->program.files()[f].latency_slots[1]);
  }
}

TEST(IntegrationTest, ByteLevelRoundTripOverPinwheelProgram) {
  pinwheel::CompositeScheduler scheduler;
  auto result = broadcast::BuildGeneralizedProgram(IvhsFiles(), scheduler);
  ASSERT_TRUE(result.ok()) << result.status();
  const BroadcastProgram& p = result->program;

  constexpr std::size_t kBlockSize = 32;
  Rng rng(42);
  std::vector<std::vector<std::uint8_t>> contents;
  for (FileIndex f = 0; f < p.file_count(); ++f) {
    std::vector<std::uint8_t> data(p.files()[f].m * kBlockSize);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.Uniform(256));
    contents.push_back(std::move(data));
  }
  auto server = sim::BroadcastServer::Create(p, contents, kBlockSize);
  ASSERT_TRUE(server.ok()) << server.status();

  // Random losses at 10%; every file must still reconstruct, byte-exact.
  const faults::BernoulliChannel channel(0.1, 1234);
  for (FileIndex f = 0; f < p.file_count(); ++f) {
    auto session = sim::RunRetrievalSession(*server, channel, f, 3,
                                            200 * p.DataCycleLength());
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE(session->completed) << p.files()[f].name;
    EXPECT_EQ(session->data, contents[f]) << p.files()[f].name;
  }
}

// Deterministic adversarial cross-check: inject exactly the worst-case
// fault pattern the analyzer assumes (corrupt r consecutive transmissions
// of a file from some start) and confirm the simulator's latency never
// exceeds the analyzer's bound for that fault count.
TEST(IntegrationTest, AdversarialInjectionWithinAnalyticBound) {
  pinwheel::CompositeScheduler scheduler;
  auto result = broadcast::BuildGeneralizedProgram(IvhsFiles(), scheduler);
  ASSERT_TRUE(result.ok()) << result.status();
  const BroadcastProgram& p = result->program;
  DelayAnalyzer analyzer(p);

  const FileIndex target = 0;
  const std::uint32_t faults_to_tolerate =
      static_cast<std::uint32_t>(p.files()[target].latency_slots.size() - 1);
  auto analytic = analyzer.WorstCaseLatency(target, faults_to_tolerate,
                                            ClientModel::kIda);
  ASSERT_TRUE(analytic.ok());

  // Try every start within one data cycle, corrupting the first r
  // transmissions the client hears.
  for (std::uint64_t start = 0; start < p.DataCycleLength(); ++start) {
    std::vector<std::uint64_t> dead;
    std::uint32_t injected = 0;
    for (std::uint64_t t = start; injected < faults_to_tolerate; ++t) {
      const auto tx = p.TransmissionAt(t);
      if (tx.has_value() && tx->file == target) {
        dead.push_back(t);
        ++injected;
      }
    }
    const auto channel = faults::LostSlots(dead);
    sim::Simulator simulator(p, *channel, 50 * p.DataCycleLength());
    sim::ClientRequest req;
    req.file = target;
    req.start_slot = start;
    auto outcome = simulator.Retrieve(req);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->completed);
    EXPECT_LE(outcome->latency, *analytic) << "start " << start;
  }
}

}  // namespace
}  // namespace bdisk
