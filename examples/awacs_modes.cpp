// AWACS mode-dependent redundancy (paper, Sections 1 and 2.2).
//
// "The fault-tolerant timely access of a data object (e.g. 'location of
// nearby aircrafts') could be critical in a given mode of operation (e.g.
// 'combat'), but less critical in a different mode (e.g. 'landing')."
//
// AIDA makes this a *bandwidth allocation* knob: the server disperses each
// object once to N blocks and, per mode, transmits only n in [m, N] of
// them. This example sets up per-mode redundancy profiles, rebuilds the
// broadcast program when the mode changes, and demonstrates — on the real
// byte-level data plane — that in combat mode the aircraft track survives
// losses that would stall it in landing mode.
//
// Build & run:  ./build/examples/awacs_modes

#include <cstdio>
#include <string>
#include <vector>

#include "bdisk/delay_analysis.h"
#include "bdisk/flat_builder.h"
#include "common/random.h"
#include "faults/channel_model.h"
#include "ida/aida.h"
#include "sim/client.h"
#include "sim/server.h"

namespace {

using namespace bdisk;             // NOLINT
using namespace bdisk::broadcast;  // NOLINT

struct Object {
  const char* name;
  std::uint32_t m;            // Blocks needed to reconstruct.
  ida::RedundancyProfile profile;
};

BroadcastProgram BuildForMode(const std::vector<Object>& objects,
                              const std::string& mode) {
  std::vector<FlatFileSpec> files;
  for (const Object& o : objects) {
    files.push_back(
        {o.name, o.m, o.profile.BlocksForMode(mode), {}});
  }
  auto p = BuildFlatProgram(files, FlatLayout::kSpread);
  if (!p.ok()) {
    std::fprintf(stderr, "build failed: %s\n", p.status().ToString().c_str());
    std::exit(1);
  }
  return *p;
}

}  // namespace

int main() {
  // Aircraft tracks: 4 blocks, dispersed to at most 8. Terrain: 6 of 8.
  Object aircraft{"aircraft", 4, ida::RedundancyProfile(4, 8)};
  aircraft.profile.SetMode("combat", 8);   // Tolerate 4 lost blocks.
  aircraft.profile.SetMode("landing", 5);  // Tolerate 1.
  Object terrain{"terrain", 6, ida::RedundancyProfile(6, 8)};
  terrain.profile.SetMode("combat", 6);    // Scaled down: bandwidth for
  terrain.profile.SetMode("landing", 8);   // aircraft instead.

  const std::vector<Object> objects{aircraft, terrain};

  for (const std::string mode : {"combat", "landing"}) {
    const BroadcastProgram program = BuildForMode(objects, mode);
    std::printf("=== mode: %-8s period %llu slots ===\n", mode.c_str(),
                static_cast<unsigned long long>(program.period()));
    DelayAnalyzer analyzer(program);
    for (FileIndex f = 0; f < program.file_count(); ++f) {
      const auto& pf = program.files()[f];
      const std::uint32_t masked = pf.n - pf.m;
      auto d1 = analyzer.WorstCaseDelay(f, std::min(masked, 1u),
                                        ClientModel::kIda);
      std::printf("  %-9s n=%u (masks %u faults), worst delay after "
                  "1 fault: %llu slots\n",
                  pf.name.c_str(), pf.n, masked,
                  d1.ok() ? static_cast<unsigned long long>(*d1) : 0);
    }

    // Byte-level demonstration: lose 3 consecutive aircraft transmissions.
    constexpr std::size_t kBlockSize = 128;
    Rng rng(7);
    std::vector<std::vector<std::uint8_t>> contents;
    for (FileIndex f = 0; f < program.file_count(); ++f) {
      std::vector<std::uint8_t> data(program.files()[f].m * kBlockSize);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.Uniform(256));
      contents.push_back(std::move(data));
    }
    auto server = sim::BroadcastServer::Create(program, contents, kBlockSize);
    if (!server.ok()) return 1;

    std::vector<std::uint64_t> dead;
    for (std::uint64_t t = 0; dead.size() < 3; ++t) {
      const auto tx = program.TransmissionAt(t);
      if (tx.has_value() && tx->file == 0) dead.push_back(t);
    }
    const auto channel = faults::LostSlots(dead);
    auto session = sim::RunRetrievalSession(*server, *channel, 0, 0,
                                            20 * program.DataCycleLength());
    if (!session.ok()) return 1;
    std::printf("  aircraft retrieval with 3 lost blocks: %s in %llu slots "
                "(byte-exact: %s)\n\n",
                session->completed ? "reconstructed" : "NOT COMPLETED",
                static_cast<unsigned long long>(session->latency),
                session->completed && session->data == contents[0] ? "yes"
                                                                   : "no");
  }

  std::printf("reading: combat mode spends bandwidth on aircraft "
              "redundancy (n=8), so three lost blocks barely delay the "
              "track; landing mode (n=5) must wait for the rotation to "
              "bring replacement blocks around.\n");
  return 0;
}
