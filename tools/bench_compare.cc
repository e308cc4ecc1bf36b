// bench_compare — bench-trajectory validator and perf-regression gate.
//
// The benches emit machine-readable JSON lines (bench/bench_util.h):
//   {"bench":"bench_ida","metric":"disperse_MBps","value":123.4,
//    "threads":1,"commit":"abc1234"}
// which CI scrapes into BENCH_<shortsha>.json trajectory files. This tool
// has two modes:
//
//   bench_compare --check FILE
//     Validates a capture: FILE must be non-empty and every line must
//     parse as a JSON object carrying string "bench"/"metric" and numeric
//     "value" members. Exit 0 iff valid — tools/bench_capture.sh runs this
//     so a silently-broken capture fails loudly instead of committing an
//     empty trajectory.
//
//   bench_compare BASELINE CURRENT [--threshold T]
//     Compares two trajectory files keyed by (bench, metric, threads) and
//     fails (exit 1) when any *headline* metric regresses by more than T
//     (default 0.10, overridable by --threshold or the
//     BDISK_PERF_THRESHOLD env var). Headline metrics and their
//     directions:
//       higher is better: *bytes_per_second, events_per_sec, *_MBps
//       lower  is better: *real_time_ns, mean_delay_slots,
//                         undecodable_rate
//     Non-headline metrics are reported but never gate. Keys present in
//     only one file are reported and skipped (the bench set may grow
//     between commits). Exit 2 on usage/parse errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "runtime/flags.h"

namespace {

using bdisk::obs::JsonValue;
using bdisk::obs::ParseJson;

struct MetricKey {
  std::string bench;
  std::string metric;
  std::uint64_t threads = 0;

  bool operator<(const MetricKey& other) const {
    if (bench != other.bench) return bench < other.bench;
    if (metric != other.metric) return metric < other.metric;
    return threads < other.threads;
  }
  std::string ToString() const {
    return bench + " " + metric + " (threads=" + std::to_string(threads) +
           ")";
  }
};

enum class Direction { kHigherBetter, kLowerBetter, kUntracked };

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Headline classification (see file comment). Anything else is untracked:
// reported, never gating.
Direction ClassifyMetric(const std::string& metric) {
  if (EndsWith(metric, "bytes_per_second") || EndsWith(metric, "_MBps") ||
      metric == "events_per_sec") {
    return Direction::kHigherBetter;
  }
  if (EndsWith(metric, "real_time_ns") || metric == "mean_delay_slots" ||
      metric == "undecodable_rate") {
    return Direction::kLowerBetter;
  }
  return Direction::kUntracked;
}

// Parses one trajectory line into (key, value); returns false with a
// diagnostic for malformed lines.
bool ParseLine(const std::string& line, std::size_t lineno,
               const char* path, MetricKey* key, double* value) {
  auto parsed = ParseJson(line);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s:%zu: %s\n", path, lineno,
                 parsed.status().ToString().c_str());
    return false;
  }
  if (!parsed->is_object()) {
    std::fprintf(stderr, "%s:%zu: not a JSON object\n", path, lineno);
    return false;
  }
  const JsonValue* bench = parsed->Find("bench");
  const JsonValue* metric = parsed->Find("metric");
  const JsonValue* val = parsed->Find("value");
  if (bench == nullptr || !bench->is_string() || metric == nullptr ||
      !metric->is_string() || val == nullptr || !val->is_number()) {
    std::fprintf(stderr,
                 "%s:%zu: missing string \"bench\"/\"metric\" or numeric "
                 "\"value\"\n",
                 path, lineno);
    return false;
  }
  key->bench = bench->string_value;
  key->metric = metric->string_value;
  const JsonValue* threads = parsed->Find("threads");
  key->threads = threads != nullptr && threads->is_number()
                     ? static_cast<std::uint64_t>(threads->number)
                     : 0;
  *value = val->number;
  return true;
}

// Loads a trajectory file. Later datapoints for the same key win (a capture
// may repeat a bench; the last run is the one that would be committed).
bool LoadTrajectory(const char* path, std::map<MetricKey, double>* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path);
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  std::size_t datapoints = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    MetricKey key;
    double value = 0.0;
    if (!ParseLine(line, lineno, path, &key, &value)) return false;
    (*out)[key] = value;
    ++datapoints;
  }
  if (datapoints == 0) {
    std::fprintf(stderr, "error: '%s' holds no datapoints\n", path);
    return false;
  }
  return true;
}

int CheckMode(const char* path) {
  std::map<MetricKey, double> trajectory;
  if (!LoadTrajectory(path, &trajectory)) return 1;
  std::printf("bench_compare: '%s' OK (%zu datapoints)\n", path,
              trajectory.size());
  return 0;
}

int CompareMode(const char* baseline_path, const char* current_path,
                double threshold) {
  std::map<MetricKey, double> baseline;
  std::map<MetricKey, double> current;
  if (!LoadTrajectory(baseline_path, &baseline)) return 2;
  if (!LoadTrajectory(current_path, &current)) return 2;

  std::size_t compared = 0;
  std::size_t regressions = 0;
  for (const auto& [key, base_value] : baseline) {
    const auto it = current.find(key);
    if (it == current.end()) {
      std::printf("  [gone]      %s\n", key.ToString().c_str());
      continue;
    }
    const double cur_value = it->second;
    const Direction dir = ClassifyMetric(key.metric);
    if (dir == Direction::kUntracked) {
      std::printf("  [untracked] %s: %.6g -> %.6g\n",
                  key.ToString().c_str(), base_value, cur_value);
      continue;
    }
    ++compared;
    // Relative change in the bad direction; <= 0 means no regression.
    double regression = 0.0;
    if (dir == Direction::kHigherBetter && base_value > 0.0) {
      regression = (base_value - cur_value) / base_value;
    } else if (dir == Direction::kLowerBetter && base_value > 0.0) {
      regression = (cur_value - base_value) / base_value;
    } else if (dir == Direction::kLowerBetter && base_value == 0.0) {
      // A zero baseline (e.g. undecodable_rate 0) regresses iff it becomes
      // meaningfully positive; treat any increase past the threshold as a
      // full-threshold regression.
      regression = cur_value > threshold ? threshold + 1.0 : 0.0;
    }
    const bool failed = regression > threshold;
    if (failed) ++regressions;
    std::printf("  [%s] %s: %.6g -> %.6g (%+.1f%% %s)\n",
                failed ? "REGRESSED" : "ok", key.ToString().c_str(),
                base_value, cur_value, 100.0 * regression,
                dir == Direction::kHigherBetter ? "slower/lower"
                                                : "worse");
  }
  for (const auto& [key, value] : current) {
    if (baseline.find(key) == baseline.end()) {
      std::printf("  [new]       %s = %.6g\n", key.ToString().c_str(),
                  value);
    }
  }
  std::printf("bench_compare: %zu headline metrics compared, %zu regressed "
              "(threshold %.0f%%)\n",
              compared, regressions, 100.0 * threshold);
  return regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* check_path = nullptr;
  double threshold = 0.10;
  if (const char* env = std::getenv("BDISK_PERF_THRESHOLD")) {
    threshold = std::atof(env);
  }
  const std::vector<bdisk::runtime::Flag> flags = {
      {"check", bdisk::runtime::FlagKind::kString,
       "validate one capture file instead of comparing two", &check_path},
      {"threshold", bdisk::runtime::FlagKind::kDouble,
       "headline regression that fails the gate (0.10 or "
       "$BDISK_PERF_THRESHOLD)",
       &threshold},
  };
  constexpr const char* kPositionals = "[BASELINE CURRENT]";
  const auto args =
      bdisk::runtime::ParseCommandLine(argc, argv, flags, kPositionals);
  if (threshold <= 0.0 || threshold >= 1.0) {
    std::fprintf(stderr, "error: threshold must be in (0, 1), got %g\n",
                 threshold);
    return 2;
  }

  if (args.positionals.size() != (check_path != nullptr ? 0u : 2u)) {
    std::fputs(bdisk::runtime::UsageLine(argv[0], flags, kPositionals).c_str(),
               stderr);
    return 2;
  }
  if (check_path != nullptr) return CheckMode(check_path);
  return CompareMode(args.positionals[0], args.positionals[1], threshold);
}
