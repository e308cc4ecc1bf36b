// bench_store: throughput and memory discipline of the persistent block
// store. Builds a catalog of dispersal-shaped entries (default 256 MiB,
// one commit per entry — the two-generation swap under churn), then
// serves random coded-block reads through the checksum-verified path.
//
// The point of the bench is the memory claim: the catalog is at least 4x
// a configured cap (default 64 MiB) and PEAK RSS MUST STAY UNDER THE CAP
// — the store serves from disk, it does not become a cache. The process
// exits non-zero if VmHWM crosses the cap, so CI can gate on it.
//
// `bench_store --help` lists the flags; sizes take the byte-size grammar:
// plain bytes or B/KiB/MiB/GiB.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "ida/block.h"
#include "runtime/flags.h"
#include "store/block_device.h"
#include "store/block_store.h"

namespace {

using bdisk::Rng;
using bdisk::runtime::FlagKind;
namespace store = bdisk::store;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

void FillPayload(std::vector<std::uint8_t>* payload, Rng* rng) {
  std::size_t i = 0;
  for (; i + 8 <= payload->size(); i += 8) {
    const std::uint64_t x = (*rng)();
    std::memcpy(payload->data() + i, &x, 8);
  }
  for (; i < payload->size(); ++i) {
    (*payload)[i] = static_cast<std::uint8_t>((*rng)());
  }
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 1;
  std::uint64_t store_bytes = 256ull << 20;
  std::uint64_t cap_bytes = 64ull << 20;
  std::uint64_t reads = 1024;
  std::uint64_t device_block = 4096;
  const char* path = "/tmp/bdisk_bench_store.dev";
  bdisk::runtime::ParseCommandLine(
      argc, argv,
      {{"store-bytes", FlagKind::kByteSize, "catalog size (256MiB)",
        &store_bytes},
       {"cap-bytes", FlagKind::kByteSize, "peak-RSS cap (64MiB)", &cap_bytes},
       {"reads", FlagKind::kUint, "random coded-block reads (1024)", &reads},
       {"device-block", FlagKind::kByteSize, "device block size (4KiB)",
        &device_block},
       {"path", FlagKind::kString,
        "device file (/tmp/bdisk_bench_store.dev)", &path},
       {"threads", FlagKind::kThreads, "thread count reported (1)",
        &threads}});

  // Entry shape: 16 entries of an 8-of-16 dispersal; payload sized so the
  // 16 entries together approximate --store-bytes.
  constexpr std::uint32_t kEntries = 16;
  constexpr std::uint32_t kM = 8;
  constexpr std::uint32_t kN = 16;
  std::uint64_t payload_bytes =
      store_bytes / (kEntries * kN) / device_block * device_block;
  if (payload_bytes == 0) payload_bytes = device_block;
  const std::uint64_t data_bytes =
      static_cast<std::uint64_t>(kEntries) * kN * payload_bytes;
  const std::uint64_t device_blocks =
      store::BlockStore::kFirstDataBlock + data_bytes / device_block +
      4 * kEntries + 64;  // Catalog extents + slack.

  std::printf("bench_store: catalog %.1f MiB, cap %.1f MiB (%.1fx), "
              "device %s (%llu x %llu B)\n",
              static_cast<double>(data_bytes) / (1 << 20),
              static_cast<double>(cap_bytes) / (1 << 20),
              static_cast<double>(data_bytes) /
                  static_cast<double>(cap_bytes),
              path, static_cast<unsigned long long>(device_blocks),
              static_cast<unsigned long long>(device_block));

  std::remove(path);
  auto device = store::FileBlockDevice::Create(
      path, static_cast<std::size_t>(device_block), device_blocks);
  if (!device.ok()) {
    std::fprintf(stderr, "bench_store: %s\n",
                 device.status().ToString().c_str());
    return 1;
  }
  auto built = store::BlockStore::Format(std::move(*device));
  if (!built.ok()) {
    std::fprintf(stderr, "bench_store: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  store::BlockStore& st = **built;

  // Build: stream one entry at a time (generate -> stamp -> stage ->
  // drop), one commit per entry. In-memory footprint is a single entry.
  Rng rng(0xB345);
  const auto build_start = std::chrono::steady_clock::now();
  for (std::uint32_t e = 0; e < kEntries; ++e) {
    std::vector<bdisk::ida::Block> blocks(kN);
    for (std::uint32_t k = 0; k < kN; ++k) {
      blocks[k].header.file_id = e;
      blocks[k].header.block_index = k;
      blocks[k].header.reconstruct_threshold = kM;
      blocks[k].header.total_blocks = kN;
      blocks[k].header.version = 0;
      blocks[k].payload.resize(payload_bytes);
      FillPayload(&blocks[k].payload, &rng);
    }
    bdisk::ida::StampChecksums(&blocks);
    bdisk::Status status = st.StageFile(blocks);
    if (status.ok()) status = st.Commit();
    if (!status.ok()) {
      std::fprintf(stderr, "bench_store: entry %u: %s\n", e,
                   status.ToString().c_str());
      return 1;
    }
  }
  const double build_s = SecondsSince(build_start);
  const double build_mbps =
      static_cast<double>(data_bytes) / (1 << 20) / build_s;

  // Serve: random coded-block reads through checksum verification.
  std::uint64_t read_bytes = 0;
  const auto read_start = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < reads; ++r) {
    const auto e = static_cast<bdisk::ida::FileId>(rng.Uniform(kEntries));
    const auto k = static_cast<std::uint32_t>(rng.Uniform(kN));
    const auto block = st.ReadCodedBlock(e, 0, k);
    if (!block.ok()) {
      std::fprintf(stderr, "bench_store: read %llu: %s\n",
                   static_cast<unsigned long long>(r),
                   block.status().ToString().c_str());
      return 1;
    }
    read_bytes += block->payload.size();
  }
  const double read_s = SecondsSince(read_start);
  const double read_mbps =
      static_cast<double>(read_bytes) / (1 << 20) / read_s;

  const double peak_mb = static_cast<double>(PeakRssKb()) / 1024.0;
  std::printf("build : %.1f MiB in %.2f s (%.1f MiB/s, %llu generations)\n",
              static_cast<double>(data_bytes) / (1 << 20), build_s,
              build_mbps,
              static_cast<unsigned long long>(st.generation()));
  std::printf("read  : %llu reads, %.1f MiB in %.2f s (%.1f MiB/s)\n",
              static_cast<unsigned long long>(reads),
              static_cast<double>(read_bytes) / (1 << 20), read_s,
              read_mbps);
  std::printf("memory: peak RSS %.1f MiB, cap %.1f MiB\n", peak_mb,
              static_cast<double>(cap_bytes) / (1 << 20));

  benchutil::EmitJson("bench_store", "build_MBps", build_mbps, threads);
  benchutil::EmitJson("bench_store", "read_MBps", read_mbps, threads);
  benchutil::EmitJson("bench_store", "peak_rss_mb", peak_mb, threads);
  benchutil::EmitJson("bench_store", "catalog_mb",
                      static_cast<double>(data_bytes) / (1 << 20), threads);

  std::remove(path);
  if (peak_mb * (1 << 20) >= static_cast<double>(cap_bytes)) {
    std::fprintf(stderr,
                 "bench_store: FAIL — peak RSS %.1f MiB breached the "
                 "%.1f MiB cap; the store must serve from disk, not from "
                 "a resident copy\n",
                 peak_mb, static_cast<double>(cap_bytes) / (1 << 20));
    return 1;
  }
  return 0;
}
