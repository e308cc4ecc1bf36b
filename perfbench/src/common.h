// Shared helpers of the broadcast benchmark: clocks, process counters,
// order statistics, and the per-workload result record.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Steady-clock reading in nanoseconds.
std::uint64_t NowNs();

/// User + system CPU time of the whole process (getrusage), in seconds.
double ProcessCpuSeconds();

/// Peak resident set (VmHWM) of the process in MiB.
double PeakRssMb();

/// Median of `values` (mean of the middle two for even counts).
double Median(std::vector<double> values);

/// Nearest-rank percentile, `q` in (0, 100].
double Percentile(std::vector<double> values, double q);

/// Ends the process with exit code 2 when `status` is not OK: a harness
/// failure is not a measurement, so no result line is printed.
void Check(const bdisk::Status& status, const char* what);

template <typename T>
T Must(bdisk::Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Set-up time is sampled throughout a run rather than once at its start,
/// so that setup_s sees the same phases of machine load as the other
/// metrics: before each measured repetition, `set_up()` (which returns its
/// own duration in seconds) runs until 50 ms have passed, at least once.
/// The reported setup_s is the median of all samples.
template <typename Fn>
void SampleSetUps(Fn&& set_up, std::vector<double>* samples) {
  const std::uint64_t start = NowNs();
  do {
    samples->push_back(set_up());
  } while (NowNs() - start < 50'000'000ull);
}

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (disk-backed store files).
  std::string workdir;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` and `per_layer` are keyed by
/// the metric names main.cc declares (which carry the units); one of the
/// two goes into the result line, depending on --trace. `detail` metrics
/// and `notes` are printed only.
struct Outcome {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::vector<Metric> detail;
  std::vector<std::string> notes;
  /// Retrievals attempted and failed (incomplete, wrong bytes, or a
  /// guaranteed deadline missed).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness-check failures; any entry makes the run incorrect.
  std::vector<std::string> check_failures;

  void Detail(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) { check_failures.push_back(std::move(why)); }
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
