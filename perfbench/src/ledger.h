// The per-layer ledger: spans recorded by the benchmark's own code around
// each call into a library layer, self time computed online, and a bounded
// prefix of raw spans kept in memory for the trace file written at exit.
//
// A span's self time is its duration minus the time its child spans cover.
// Every traced section of a thread sits under one kRoot span, so "coverage"
// — the layer spans' summed self time over the root spans' wall time — says
// how much of the thread's time the ledger attributes to a layer rather
// than to harness glue.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kRoot,
  kBdiskParse,
  kBdiskPlan,
  kIdaDisperse,
  kStoreFormat,
  kStoreStage,
  kStoreCommit,
  kSocketBind,
  kServerFetch,
  kStoreFetch,
  kWireEncode,
  kPaceWait,
  kFaultsVerdict,
  kSocketSend,
  kSocketPoll,
  kSocketRecv,
  kWireDecode,
  kClientOffer,
  kIdaReconstruct,
  kFaultsTrace,
  kEngineBuild,
  kArrivals,
  kEngineDrain,
  kEngineCollect,
  kEngineRun,
  kCount,
};

/// Dotted span name, e.g. "store.fetch".
const char* LayerName(Layer layer);

struct LayerTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Spans of one logical thread. Not thread-safe: one thread at a time.
class ThreadLog {
 public:
  ThreadLog(std::string name, std::uint32_t tid)
      : name_(std::move(name)), tid_(tid) {}

  void Begin(Layer layer, std::uint64_t key);
  void End();

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<int>(layer)];
  }
  /// Layer self time over root wall time, in percent.
  double CoveragePct() const;
  const std::string& name() const { return name_; }

 private:
  friend class Ledger;

  struct Open {
    Layer layer;
    std::uint32_t id;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint64_t key;
  };
  struct Kept {
    Layer layer;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = none
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t key;
  };
  static constexpr std::size_t kMaxKept = 1 << 16;

  std::string name_;
  std::uint32_t tid_;
  std::uint32_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  LayerTotals totals_[static_cast<int>(Layer::kCount)] = {};
};

/// RAII span; a null log makes it free (the untraced path).
class Span {
 public:
  Span(ThreadLog* log, Layer layer, std::uint64_t key = 0) : log_(log) {
    if (log_ != nullptr) log_->Begin(layer, key);
  }
  ~Span() {
    if (log_ != nullptr) log_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadLog* log_;
};

/// Evaluates `fn()` inside a span and returns its result.
template <typename Fn>
auto Traced(ThreadLog* log, Layer layer, Fn&& fn) {
  Span span(log, layer);
  return fn();
}

/// Owns the thread logs of one traced run.
class Ledger {
 public:
  Ledger();

  /// Adds a log; call before the thread that uses it starts.
  ThreadLog* NewThread(const std::string& name);

  /// Totals of `layer` summed over every thread.
  LayerTotals Sum(Layer layer) const;

  /// The lowest coverage of any thread that recorded a root span, and
  /// that thread's name.
  double MinCoveragePct(std::string* thread_name) const;

  const std::vector<std::unique_ptr<ThreadLog>>& threads() const {
    return threads_;
  }

  /// Writes the kept spans as a Chrome trace-event file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::uint64_t epoch_ns_;
  std::vector<std::unique_ptr<ThreadLog>> threads_;
};

struct Outcome;

/// Reports the ledger of a traced run into `out`: trace.overhead_pct (the
/// traced against the untraced median wall time of one repetition),
/// trace.coverage_min_pct with a per-thread breakdown, and a check that
/// every thread's coverage is at least 90%. Writes the kept spans to
/// `spans_path`.
void ReportLedger(const Ledger& ledger, const std::vector<double>& traced_wall,
                  const std::vector<double>& plain_wall,
                  const std::string& spans_path, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
