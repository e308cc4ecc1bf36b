// Tests for the multi-speed Broadcast Disks generator (Acharya et al.
// substrate) and the mean-latency analysis.

#include "bdisk/multi_disk.h"

#include <gtest/gtest.h>

#include "bdisk/delay_analysis.h"
#include "faults/channel_model.h"
#include "sim/simulation.h"

namespace bdisk::broadcast {
namespace {

TEST(MultiDiskTest, Validation) {
  EXPECT_FALSE(BuildMultiDiskProgram({}).ok());
  EXPECT_FALSE(BuildMultiDiskProgram({{0, {{"A", 1, 1, {}}}}}).ok());
  EXPECT_FALSE(BuildMultiDiskProgram({{1, {}}}).ok());
  EXPECT_FALSE(BuildMultiDiskProgram({{1, {{"A", 0, 0, {}}}}}).ok());
}

TEST(MultiDiskTest, SingleDiskIsFlat) {
  auto result = BuildMultiDiskProgram(
      {{1, {{"A", 2, 2, {}}, {"B", 3, 3, {}}}}});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->minor_cycles, 1u);
  EXPECT_EQ(result->program.period(), 5u);
  EXPECT_EQ(result->program.CountOf(0), 2u);
  EXPECT_EQ(result->program.CountOf(1), 3u);
}

TEST(MultiDiskTest, FrequencyRatiosRespected) {
  // Fast disk (f=2): file H with 2 pages; slow disk (f=1): file C with 4.
  auto result = BuildMultiDiskProgram({
      {2, {{"H", 2, 2, {}}}},
      {1, {{"C", 4, 4, {}}}},
  });
  ASSERT_TRUE(result.ok()) << result.status();
  // lcm = 2 minor cycles; fast disk: C_1 = 1 chunk of 2; slow: C_2 = 2
  // chunks of 2. Period = 2 * (2 + 2) = 8; H appears twice per major
  // cycle per page => 4 H slots, 4 C slots.
  EXPECT_EQ(result->minor_cycles, 2u);
  EXPECT_EQ(result->program.period(), 8u);
  EXPECT_EQ(result->program.CountOf(0), 4u);  // H broadcast 2x as often.
  EXPECT_EQ(result->program.CountOf(1), 4u);
  // Layout: H0 H1 C0 C1 | H0 H1 C2 C3 (chunked interleave).
  const std::vector<FileIndex> expected{0, 0, 1, 1, 0, 0, 1, 1};
  EXPECT_EQ(result->program.slots(), expected);
}

TEST(MultiDiskTest, PaddingForUnevenChunks) {
  // Slow disk with 3 pages into 2 chunks: chunk size 2, one idle pad slot.
  auto result = BuildMultiDiskProgram({
      {2, {{"H", 1, 1, {}}}},
      {1, {{"C", 3, 3, {}}}},
  });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->program.period(), 2 * (1 + 2));
  EXPECT_EQ(result->program.CountOf(1), 3u);
  EXPECT_LT(result->program.Utilization(), 1.0);
}

TEST(MultiDiskTest, ThreeSpeedHierarchy) {
  auto result = BuildMultiDiskProgram({
      {4, {{"hot", 2, 4, {}}}},
      {2, {{"warm", 4, 6, {}}}},
      {1, {{"cold", 8, 8, {}}}},
  });
  ASSERT_TRUE(result.ok()) << result.status();
  const BroadcastProgram& p = result->program;
  EXPECT_EQ(result->minor_cycles, 4u);
  // Per major cycle: hot 2*4 = 8 slots, warm 4*2 = 8, cold 8.
  EXPECT_EQ(p.CountOf(0), 8u);
  EXPECT_EQ(p.CountOf(1), 8u);
  EXPECT_EQ(p.CountOf(2), 8u);
  // The hot file's pages recur 4x as often, so retrieving it is far
  // faster on average (max gap alone is chunk-boundary dominated and can
  // coincide across disks).
  EXPECT_LT(MeanRetrievalLatency(p, 0), MeanRetrievalLatency(p, 2) / 2);
}

TEST(MultiDiskTest, AidaRotationComposes) {
  auto result = BuildMultiDiskProgram({
      {2, {{"H", 2, 4, {}}}},
      {1, {{"C", 3, 6, {}}}},
  });
  ASSERT_TRUE(result.ok()) << result.status();
  // Rotation must cycle through all dispersed blocks across the data
  // cycle.
  const BroadcastProgram& p = result->program;
  std::vector<int> seen_h(4, 0);
  std::vector<int> seen_c(6, 0);
  for (std::uint64_t t = 0; t < p.DataCycleLength(); ++t) {
    auto tx = p.TransmissionAt(t);
    if (!tx.has_value()) continue;
    if (tx->file == 0) ++seen_h[tx->block_index];
    if (tx->file == 1) ++seen_c[tx->block_index];
  }
  for (int s : seen_h) EXPECT_GT(s, 0);
  for (int s : seen_c) EXPECT_GT(s, 0);
}

TEST(MeanLatencyTest, UniformSingleFile) {
  // One file, 2 of 4 slots (period 4, occurrences 0 and 2): retrieval
  // needs both blocks. Enumerate starts: s=0 -> done at 2 (lat 3),
  // s=1 -> occ 2, 4 (lat 4), s=2 -> 2,4 (3), s=3 -> 4,6 (4).
  std::vector<ProgramFile> files{{"A", 2, 2, {}}};
  std::vector<FileIndex> slots{0, BroadcastProgram::kIdleSlot, 0,
                               BroadcastProgram::kIdleSlot};
  auto p = BroadcastProgram::Create(std::move(files), std::move(slots));
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(MeanRetrievalLatency(*p, 0), (3 + 4 + 3 + 4) / 4.0);
}

TEST(MeanLatencyTest, HotFileBeatsColdOnFastDisk) {
  auto multi = BuildMultiDiskProgram({
      {4, {{"hot", 2, 2, {}}}},
      {1, {{"cold", 8, 8, {}}}},
  });
  ASSERT_TRUE(multi.ok()) << multi.status();
  const double hot = MeanRetrievalLatency(multi->program, 0);
  const double cold = MeanRetrievalLatency(multi->program, 1);
  EXPECT_LT(hot, cold / 2);  // The fast disk pays off.
}

// Cross-check: the closed-form mean latency must equal the simulator's
// empirical mean over every start slot on a fault-free channel.
TEST(MeanLatencyTest, ClosedFormMatchesSimulatorExactly) {
  auto multi = BuildMultiDiskProgram({
      {3, {{"hot", 2, 4, {}}}},
      {1, {{"cold", 5, 7, {}}, {"mid", 3, 3, {}}}},
  });
  ASSERT_TRUE(multi.ok()) << multi.status();
  const BroadcastProgram& p = multi->program;
  const faults::LosslessChannel channel;
  sim::Simulator simulator(p, channel,
                           p.DataCycleLength() * 20);
  for (FileIndex f = 0; f < p.file_count(); ++f) {
    double total = 0.0;
    for (std::uint64_t s = 0; s < p.DataCycleLength(); ++s) {
      sim::ClientRequest req;
      req.file = f;
      req.start_slot = s;
      auto outcome = simulator.Retrieve(req);
      ASSERT_TRUE(outcome.ok());
      ASSERT_TRUE(outcome->completed);
      total += static_cast<double>(outcome->latency);
    }
    const double empirical =
        total / static_cast<double>(p.DataCycleLength());
    EXPECT_NEAR(MeanRetrievalLatency(p, f), empirical, 1e-9)
        << p.files()[f].name;
  }
}

TEST(MeanLatencyTest, MultiDiskBeatsFlatForHotFiles) {
  // Same files; flat (single-speed) vs hot-on-fast-disk.
  const FlatFileSpec hot{"hot", 2, 2, {}};
  const FlatFileSpec cold{"cold", 12, 12, {}};
  auto flat = BuildFlatProgram({hot, cold}, FlatLayout::kSpread);
  auto multi = BuildMultiDiskProgram({{4, {hot}}, {1, {cold}}});
  ASSERT_TRUE(flat.ok());
  ASSERT_TRUE(multi.ok());
  EXPECT_LT(MeanRetrievalLatency(multi->program, 0),
            MeanRetrievalLatency(*flat, 0));
}

}  // namespace
}  // namespace bdisk::broadcast
