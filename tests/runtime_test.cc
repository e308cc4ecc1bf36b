// Tests for the runtime layer: ThreadPool, ShardOf/ParallelFor,
// counter-based RNG streams, and the command-line flag table. The
// concurrency cases double as ThreadSanitizer targets (the CI tsan job runs
// this binary).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "common/parse.h"
#include "runtime/flags.h"
#include "runtime/parallel_for.h"
#include "runtime/rng_stream.h"
#include "runtime/thread_pool.h"

namespace bdisk::runtime {
namespace {

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, DrainsAllTasksOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, HardwareThreadsNeverZero) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ShardOfTest, PartitionsExactlyAndEvenly) {
  for (std::uint64_t total : {0ull, 1ull, 7ull, 8ull, 100ull, 12345ull}) {
    for (unsigned shards : {1u, 2u, 3u, 8u, 17u}) {
      std::uint64_t covered = 0;
      std::uint64_t expected_begin = 0;
      std::uint64_t min_size = ~0ull;
      std::uint64_t max_size = 0;
      for (unsigned s = 0; s < shards; ++s) {
        const ShardRange range = ShardOf(total, shards, s);
        EXPECT_EQ(range.begin, expected_begin);  // Contiguous, in order.
        expected_begin = range.end;
        covered += range.size();
        min_size = std::min(min_size, range.size());
        max_size = std::max(max_size, range.size());
      }
      EXPECT_EQ(covered, total);
      EXPECT_EQ(expected_begin, total);
      EXPECT_LE(max_size - min_size, 1u);  // Balanced within one item.
    }
  }
}

TEST(ShardOfTest, DeterministicAcrossCalls) {
  const ShardRange a = ShardOf(12345, 7, 3);
  const ShardRange b = ShardOf(12345, 7, 3);
  EXPECT_EQ(a.begin, b.begin);
  EXPECT_EQ(a.end, b.end);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::uint64_t total = 10000;
  std::vector<int> visits(total, 0);  // Disjoint ranges: no races.
  ParallelFor(&pool, total, 8, [&visits](unsigned, ShardRange range) {
    for (std::uint64_t i = range.begin; i < range.end; ++i) ++visits[i];
  });
  for (std::uint64_t i = 0; i < total; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInlineInShardOrder) {
  std::vector<unsigned> shard_order;
  ParallelFor(nullptr, 10, 4, [&shard_order](unsigned shard, ShardRange) {
    shard_order.push_back(shard);
  });
  EXPECT_EQ(shard_order, (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(ParallelForTest, PassesMatchingShardRanges) {
  ThreadPool pool(3);
  std::vector<ShardRange> seen(5);
  ParallelFor(&pool, 103, 5, [&seen](unsigned shard, ShardRange range) {
    seen[shard] = range;
  });
  for (unsigned s = 0; s < 5; ++s) {
    const ShardRange expected = ShardOf(103, 5, s);
    EXPECT_EQ(seen[s].begin, expected.begin);
    EXPECT_EQ(seen[s].end, expected.end);
  }
}

TEST(ParallelForTest, SkipsEmptyShards) {
  ThreadPool pool(4);
  std::atomic<int> invocations{0};
  ParallelFor(&pool, 3, 8, [&invocations](unsigned, ShardRange range) {
    EXPECT_GT(range.size(), 0u);
    invocations.fetch_add(1);
  });
  EXPECT_EQ(invocations.load(), 3);
  // Zero work: no invocation at all, and no hang.
  ParallelFor(&pool, 0, 8, [](unsigned, ShardRange) { FAIL(); });
}

TEST(ParallelForTest, SharedAtomicAccumulation) {
  // TSan target: concurrent writes to one atomic from all workers.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  ParallelFor(&pool, 100000, 16, [&sum](unsigned, ShardRange range) {
    std::uint64_t local = 0;
    for (std::uint64_t i = range.begin; i < range.end; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 100000ull * 99999ull / 2);
}

TEST(RngStreamTest, StreamSeedDeterministicAndDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 4096; ++s) {
    EXPECT_EQ(StreamSeed(42, s), StreamSeed(42, s));
    seeds.insert(StreamSeed(42, s));
  }
  EXPECT_EQ(seeds.size(), 4096u);  // Injective in the stream index.
}

TEST(RngStreamTest, DifferentBaseSeedsDecorrelate) {
  int same = 0;
  for (std::uint64_t s = 0; s < 256; ++s) {
    if (StreamRng(1, s)() == StreamRng(2, s)()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngStreamTest, StreamRngReplaysIdentically) {
  Rng a = StreamRng(7, 123);
  Rng b = StreamRng(7, 123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(ByteSizeTest, ParsesPlainAndBinarySuffixes) {
  const struct {
    const char* token;
    std::uint64_t expected;
  } kCases[] = {
      {"0", 0},
      {"123", 123},
      {"123B", 123},
      {"4KiB", 4096},
      {"64MiB", 64ull << 20},
      {"2GiB", 2ull << 30},
      {"16383GiB", 16383ull << 30},
  };
  for (const auto& c : kCases) {
    std::uint64_t value = 0;
    EXPECT_TRUE(ParseByteSizeToken(c.token, &value)) << c.token;
    EXPECT_EQ(value, c.expected) << c.token;
  }
}

TEST(ByteSizeTest, RejectsMalformedInput) {
  const char* kBad[] = {
      "",      "-1",    "1.5GiB", "12 KiB", "KiB",        "64MB",
      "64KB",  "64kib", "64GiB ", "0x10",   "99999999999GiB",  // Overflows.
      "18446744073709551616",                               // > 2^64-1.
  };
  for (const char* token : kBad) {
    std::uint64_t value = 0;
    EXPECT_FALSE(ParseByteSizeToken(token, &value)) << token;
  }
  std::uint64_t value = 0;
  EXPECT_FALSE(ParseByteSizeToken(nullptr, &value));
}

// A table with an entry of every kind, whose targets start at their
// defaults; Parse prepends the program name to `args`.
struct FlagFixture {
  bool follow = false;
  std::uint64_t port = 7;
  std::uint64_t rows = 20;
  double theta = 0.5;
  std::uint64_t cap = 64;
  const char* path = "default";
  unsigned threads = 1;
  std::uint64_t portable = 0;

  std::vector<Flag> Table() {
    return {
        {"follow", FlagKind::kBool, "keep polling", &follow},
        {"port", FlagKind::kUint, "port number", &port},
        {"rows", FlagKind::kPositiveUint, "rows shown", &rows},
        {"theta", FlagKind::kDouble, "Zipf skew", &theta},
        {"cap", FlagKind::kByteSize, "capacity", &cap},
        {"path", FlagKind::kString, "output path", &path},
        {"threads", FlagKind::kThreads, "worker threads", &threads},
        {"portable", FlagKind::kUint, "shares a prefix with --port",
         &portable},
    };
  }

  Result<ParsedArgs> Parse(std::vector<const char*> args,
                           const char* positionals = "FILE...") {
    args.insert(args.begin(), "prog");
    args.push_back(nullptr);
    return ParseFlags(static_cast<int>(args.size() - 1),
                      const_cast<char**>(args.data()), Table(), positionals);
  }
};

TEST(FlagTableTest, AcceptsBothSpellingsAndCollectsPositionals) {
  FlagFixture f;
  const auto parsed =
      f.Parse({"in", "--port", "9000", "--rows=3", "-", "--follow",
               "--theta", "-1.25", "--cap=8MiB", "--path", "out.json",
               "--threads", "4096", "last"});
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(f.follow);
  EXPECT_EQ(f.port, 9000u);
  EXPECT_EQ(f.rows, 3u);
  EXPECT_EQ(f.theta, -1.25);
  EXPECT_EQ(f.cap, 8ull << 20);
  EXPECT_STREQ(f.path, "out.json");
  EXPECT_EQ(f.threads, kMaxThreadCount);
  EXPECT_EQ(f.portable, 0u);  // Absent: the target keeps its default.
  ASSERT_EQ(parsed->positionals.size(), 3u);
  EXPECT_STREQ(parsed->positionals[0], "in");
  EXPECT_STREQ(parsed->positionals[1], "-");  // A lone '-' is positional.
  EXPECT_STREQ(parsed->positionals[2], "last");
  EXPECT_TRUE(parsed->Given("port"));
  EXPECT_TRUE(parsed->Given("follow"));
  EXPECT_FALSE(parsed->Given("portable"));
  EXPECT_FALSE(parsed->help);

  // --port and --portable are different flags, not a duplicate.
  FlagFixture g;
  const auto prefixed = g.Parse({"--port", "1", "--portable=2"});
  ASSERT_TRUE(prefixed.ok()) << prefixed.status();
  EXPECT_EQ(g.port, 1u);
  EXPECT_EQ(g.portable, 2u);
}

TEST(FlagTableTest, BadInputErrorsNamingTheFlag) {
  const struct {
    std::vector<const char*> args;
    const char* named;  // The flag or argument the message must name.
  } kCases[] = {
      {{"--bogus", "1"}, "--bogus"},                  // Unknown.
      {{"--bogus=1"}, "--bogus"},                     // Unknown, '=' form.
      {{"-x"}, "-x"},                                 // Unknown short flag.
      {{"--port", "1", "--port", "2"}, "--port"},     // Duplicate.
      {{"--port=1", "--port", "2"}, "--port"},        // Mixed spellings.
      {{"--follow", "--follow"}, "--follow"},         // Duplicate bool.
      {{"--port", "-3"}, "--port"},                   // Malformed uint.
      {{"--port", "100k"}, "--port"},                 // Unit suffix.
      {{"--rows", "0"}, "--rows"},                    // Not positive.
      {{"--theta", "x"}, "--theta"},                  // Malformed double.
      {{"--theta=inf"}, "--theta"},                   // Not finite.
      {{"--cap", "1GB"}, "--cap"},                    // SI suffix.
      {{"--threads", "0"}, "--threads"},              // Below range.
      {{"--threads", "4097"}, "--threads"},           // Above range.
      {{"--port"}, "--port"},                         // Missing value.
      {{"--port="}, "--port"},                        // Empty value.
      {{"--path", "--follow"}, "--path"},             // Value is a flag.
      {{"--follow=1"}, "--follow"},                   // Bool given a value.
  };
  for (const auto& c : kCases) {
    FlagFixture f;
    const auto parsed = f.Parse(c.args);
    ASSERT_FALSE(parsed.ok()) << c.args[0];
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
    EXPECT_NE(parsed.status().message().find(c.named), std::string::npos)
        << parsed.status();
  }
  // A malformed value is quoted next to the flag.
  FlagFixture g;
  const auto bad = g.Parse({"--cap=8MB"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("--cap: '8MB'"), std::string::npos)
      << bad.status();
  // An executable without positionals rejects one, naming it.
  FlagFixture f;
  const auto parsed = f.Parse({"--port", "1", "stray"}, nullptr);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("'stray'"), std::string::npos)
      << parsed.status();
}

TEST(FlagTableTest, HelpIsGeneratedFromTheTable) {
  for (const char* spelling : {"--help", "-h"}) {
    FlagFixture f;
    const auto parsed = f.Parse({"--port", "1", spelling, "--bogus"});
    ASSERT_TRUE(parsed.ok()) << parsed.status();  // Stops at the help flag.
    EXPECT_TRUE(parsed->help);
  }
  FlagFixture f;
  const std::vector<Flag> table = f.Table();
  const std::string help = HelpText("prog", table, "FILE...");
  EXPECT_EQ(help.rfind("usage: prog ", 0), 0u) << help;
  EXPECT_EQ(help.substr(0, help.find('\n') + 1),
            UsageLine("prog", table, "FILE..."));
  EXPECT_NE(help.find("--follow]"), std::string::npos) << help;
  EXPECT_NE(help.find("[--cap SIZE]"), std::string::npos) << help;
  EXPECT_NE(help.find(" FILE...\n"), std::string::npos) << help;
  for (const Flag& flag : table) {
    EXPECT_NE(help.find("\n  --" + std::string(flag.name)), std::string::npos)
        << flag.name;
    EXPECT_NE(help.find(flag.help), std::string::npos) << flag.name;
  }
  EXPECT_NE(help.find("\n  -h, --help"), std::string::npos) << help;
}

}  // namespace
}  // namespace bdisk::runtime
