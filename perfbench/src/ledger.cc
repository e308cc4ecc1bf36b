#include "ledger.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[] = {
      "thread",          "bdisk.parse",    "bdisk.plan",
      "ida.disperse",    "store.format",   "store.stage",
      "store.commit",    "socket.bind",    "server.fetch",
      "store.fetch",     "wire.encode",    "pace.wait",
      "faults.verdict",  "socket.send",    "socket.poll_wait",
      "socket.recv",     "wire.decode",    "client.offer",
      "ida.reconstruct", "faults.trace",   "engine.build",
      "arrivals.prepare", "engine.drain",  "engine.collect",
      "engine.run",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(Layer::kCount));
  return kNames[static_cast<int>(layer)];
}

void ThreadLog::Begin(Layer layer, std::uint64_t key) {
  stack_.push_back(Open{layer, next_id_++, NowNs(), 0, key});
}

void ThreadLog::End() {
  const std::uint64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = end - open.start_ns;
  LayerTotals& t = totals_[static_cast<int>(open.layer)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  std::uint32_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    parent = stack_.back().id;
  }
  if (kept_.size() < kMaxKept) {
    kept_.push_back(
        Kept{open.layer, open.id, parent, open.start_ns, end, open.key});
  }
}

double ThreadLog::CoveragePct() const {
  const std::uint64_t root = totals(Layer::kRoot).total_ns;
  if (root == 0) return 0.0;
  std::uint64_t layers = 0;
  for (int l = 1; l < static_cast<int>(Layer::kCount); ++l) {
    layers += totals_[l].self_ns;
  }
  return 100.0 * static_cast<double>(layers) / static_cast<double>(root);
}

Ledger::Ledger() : epoch_ns_(NowNs()) {}

ThreadLog* Ledger::NewThread(const std::string& name) {
  threads_.push_back(std::make_unique<ThreadLog>(
      name, static_cast<std::uint32_t>(threads_.size() + 1)));
  return threads_.back().get();
}

LayerTotals Ledger::Sum(Layer layer) const {
  LayerTotals sum;
  for (const auto& t : threads_) {
    const LayerTotals& x = t->totals(layer);
    sum.count += x.count;
    sum.total_ns += x.total_ns;
    sum.self_ns += x.self_ns;
  }
  return sum;
}

double Ledger::MinCoveragePct(std::string* thread_name) const {
  double min = 100.0;
  for (const auto& t : threads_) {
    if (t->totals(Layer::kRoot).count == 0) continue;
    const double c = t->CoveragePct();
    if (c < min) {
      min = c;
      if (thread_name != nullptr) *thread_name = t->name();
    }
  }
  return min;
}

bool Ledger::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const auto& t : threads_) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t->tid_, t->name_.c_str());
    first = false;
    for (const ThreadLog::Kept& k : t->kept_) {
      std::fprintf(
          f,
          ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
          "\"key\":%llu}}",
          LayerName(k.layer), t->tid_,
          static_cast<double>(k.start_ns - epoch_ns_) / 1e3,
          static_cast<double>(k.end_ns - k.start_ns) / 1e3, k.id, k.parent,
          static_cast<unsigned long long>(k.key));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void ReportLedger(const Ledger& ledger, const std::vector<double>& traced_wall,
                  const std::vector<double>& plain_wall,
                  const std::string& spans_path, Outcome* out) {
  out->per_layer["trace.overhead_pct"] =
      100.0 * (Median(traced_wall) - Median(plain_wall)) / Median(plain_wall);
  std::string worst;
  const double coverage = ledger.MinCoveragePct(&worst);
  out->per_layer["trace.coverage_min_pct"] = coverage;
  for (const auto& t : ledger.threads()) {
    out->Detail("trace.coverage_pct." + t->name(), t->CoveragePct(), "%");
  }
  if (coverage < 90.0) {
    out->Fail("ledger covers only " + std::to_string(coverage) +
              "% of thread '" + worst + "' (need >= 90%)");
  }
  if (ledger.WriteChromeTrace(spans_path)) {
    out->notes.push_back("spans: " + spans_path);
  }
}

}  // namespace perfbench
