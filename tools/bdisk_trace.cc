// bdisk_trace — filter and summarize a --trace-out Chrome trace.
//
// Reads the Chrome trace-event JSON written by `bdisk_planner --trace-out`
// (obs/trace.h) and renders the captured retrieval spans as a table, a
// top-N slowest summary with stall attribution, or a filtered Chrome
// document ready for chrome://tracing / Perfetto.
//
// --client / --file / --outcome keep only retrieval spans matching the
// given request id, file name, or outcome (controller swap-decision spans
// are dropped once any filter is set). --summary prints the top N spans
// (default 10, --top to change) ranked by reconstruction stall, then
// latency, with the faults behind each stall split into lost and corrupt
// transmissions. --chrome re-emits the surviving events as a valid Chrome
// trace document on stdout instead of a table, for drilling into a few
// requests without loading the full capture.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "runtime/flags.h"

namespace {

using bdisk::obs::JsonValue;
using bdisk::obs::ParseJson;
using bdisk::obs::ToCanonicalJson;

double Num(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

std::string Str(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_string() ? v->string_value : std::string();
}

std::uint64_t U64(const JsonValue& obj, const char* key) {
  return static_cast<std::uint64_t>(Num(obj, key));
}

// One parsed "X" (complete) event of the capture.
struct SpanRow {
  std::uint64_t pid = 0;
  std::uint64_t tid = 0;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  bool retrieval = false;
  // Retrieval fields.
  std::uint64_t request = 0;
  std::string file;
  std::string outcome;
  std::uint64_t latency = 0;
  std::uint64_t stall = 0;
  std::uint64_t errors = 0;
  std::uint64_t corrupt = 0;
  std::string trigger;
  // Controller fields.
  std::uint64_t interval = 0;
  bool swapped = false;
};

struct Filters {
  bool have_client = false;
  std::uint64_t client = 0;
  const char* file = nullptr;
  const char* outcome = nullptr;

  bool any() const {
    return have_client || file != nullptr || outcome != nullptr;
  }

  bool Keep(const SpanRow& row) const {
    if (!row.retrieval) return !any();
    if (have_client && row.request != client) return false;
    if (file != nullptr && row.file != file) return false;
    if (outcome != nullptr && row.outcome != outcome) return false;
    return true;
  }
};

std::vector<SpanRow> ExtractSpans(const JsonValue& events) {
  std::vector<SpanRow> rows;
  for (const JsonValue& e : events.array) {
    if (!e.is_object() || Str(e, "ph") != "X") continue;
    const JsonValue* args = e.Find("args");
    if (args == nullptr || !args->is_object()) continue;
    SpanRow row;
    row.pid = U64(e, "pid");
    row.tid = U64(e, "tid");
    row.ts = U64(e, "ts");
    row.dur = U64(e, "dur");
    row.trigger = Str(*args, "trigger");
    const std::string cat = Str(e, "cat");
    if (cat == "retrieval") {
      row.retrieval = true;
      row.request = U64(*args, "request");
      row.file = Str(*args, "file");
      row.outcome = Str(*args, "outcome");
      row.latency = U64(*args, "latency");
      row.stall = U64(*args, "stall_slots");
      row.errors = U64(*args, "errors_observed");
      row.corrupt = U64(*args, "corrupt_detected");
    } else if (cat == "controller") {
      row.interval = U64(*args, "interval");
      const JsonValue* swapped = args->Find("swapped");
      row.swapped = swapped != nullptr && swapped->bool_value;
    } else {
      continue;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void PrintTable(const std::vector<SpanRow>& rows) {
  std::size_t retrievals = 0;
  std::size_t controller = 0;
  for (const SpanRow& row : rows) (row.retrieval ? retrievals : controller)++;
  if (retrievals > 0) {
    std::printf("%10s %-16s %10s %8s %13s %6s %5s+%-5s %s\n", "request",
                "file", "start", "latency", "outcome", "stall", "lost",
                "corr", "trigger");
    for (const SpanRow& row : rows) {
      if (!row.retrieval) continue;
      std::printf("%10llu %-16s %10llu %8llu %13s %6llu %5llu+%-5llu %s\n",
                  static_cast<unsigned long long>(row.request),
                  row.file.c_str(),
                  static_cast<unsigned long long>(row.ts),
                  static_cast<unsigned long long>(row.latency),
                  row.outcome.c_str(),
                  static_cast<unsigned long long>(row.stall),
                  static_cast<unsigned long long>(row.errors - row.corrupt),
                  static_cast<unsigned long long>(row.corrupt),
                  row.trigger.c_str());
    }
  }
  if (controller > 0) {
    std::printf("%s%10s %10s %10s %8s\n", retrievals > 0 ? "\n" : "",
                "interval", "start", "end", "swapped");
    for (const SpanRow& row : rows) {
      if (row.retrieval) continue;
      std::printf("%10llu %10llu %10llu %8s\n",
                  static_cast<unsigned long long>(row.interval),
                  static_cast<unsigned long long>(row.ts),
                  static_cast<unsigned long long>(row.ts + row.dur),
                  row.swapped ? "yes" : "no");
    }
  }
  std::printf("\n%zu retrieval span(s), %zu controller span(s)\n",
              retrievals, controller);
}

void PrintSummary(const std::vector<SpanRow>& rows, std::uint64_t top) {
  std::vector<const SpanRow*> retrievals;
  std::map<std::string, std::size_t> by_outcome;
  std::uint64_t swaps = 0;
  std::size_t controller = 0;
  for (const SpanRow& row : rows) {
    if (!row.retrieval) {
      ++controller;
      if (row.swapped) ++swaps;
      continue;
    }
    retrievals.push_back(&row);
    ++by_outcome[row.outcome];
  }
  std::printf("%zu retrieval span(s)", retrievals.size());
  for (const auto& [outcome, count] : by_outcome) {
    std::printf(", %zu %s", count, outcome.c_str());
  }
  if (controller > 0) {
    std::printf("; %zu controller interval(s), %llu swap(s)", controller,
                static_cast<unsigned long long>(swaps));
  }
  std::printf("\n");
  if (retrievals.empty()) return;

  // Slowest first: stall, then latency, then request id for a total and
  // deterministic order (undecodables carry latency 0 but surface through
  // their stall-free "undecodable" outcome above and the table filter).
  std::sort(retrievals.begin(), retrievals.end(),
            [](const SpanRow* a, const SpanRow* b) {
              if (a->stall != b->stall) return a->stall > b->stall;
              if (a->latency != b->latency) return a->latency > b->latency;
              return a->request < b->request;
            });
  const std::size_t n =
      std::min<std::size_t>(retrievals.size(),
                            static_cast<std::size_t>(top));
  std::printf("\ntop %zu by reconstruction stall:\n", n);
  std::printf("%10s %-16s %8s %6s %13s  stall attribution\n", "request",
              "file", "latency", "stall", "outcome");
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRow& row = *retrievals[i];
    std::printf("%10llu %-16s %8llu %6llu %13s  %llu lost, %llu corrupt\n",
                static_cast<unsigned long long>(row.request),
                row.file.c_str(),
                static_cast<unsigned long long>(row.latency),
                static_cast<unsigned long long>(row.stall),
                row.outcome.c_str(),
                static_cast<unsigned long long>(row.errors - row.corrupt),
                static_cast<unsigned long long>(row.corrupt));
  }
}

// Re-emits the events surviving the filter as one Chrome trace document:
// metadata ("M") events pass through, "X"/"i" events survive iff their
// (pid, tid) lane belongs to a kept span.
void PrintChrome(const JsonValue& doc, const JsonValue& events,
                 const std::vector<SpanRow>& kept) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> lanes;
  for (const SpanRow& row : kept) lanes.insert({row.pid, row.tid});
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const JsonValue& e : events.array) {
    if (!e.is_object()) continue;
    const std::string ph = Str(e, "ph");
    if (ph != "M" && lanes.count({U64(e, "pid"), U64(e, "tid")}) == 0) {
      continue;
    }
    out += first ? "\n" : ",\n";
    first = false;
    out += ToCanonicalJson(e);
  }
  out += "\n],\n\"otherData\":";
  const JsonValue* other = doc.Find("otherData");
  out += other != nullptr ? ToCanonicalJson(*other) : "{}";
  out += ",\n\"displayTimeUnit\":";
  const JsonValue* unit = doc.Find("displayTimeUnit");
  out += unit != nullptr ? ToCanonicalJson(*unit) : "\"ms\"";
  out += "}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool summary = false;
  bool chrome = false;
  std::uint64_t top = 10;
  Filters filters;
  using bdisk::runtime::FlagKind;
  const std::vector<bdisk::runtime::Flag> flags = {
      {"client", FlagKind::kUint, "keep only this request id",
       &filters.client},
      {"file", FlagKind::kString, "keep only this file name", &filters.file},
      {"outcome", FlagKind::kString,
       "keep only ok, deadline_miss or undecodable spans", &filters.outcome},
      {"summary", FlagKind::kBool,
       "print the top spans by stall, with fault attribution", &summary},
      {"top", FlagKind::kPositiveUint, "spans in the summary (10)", &top},
      {"chrome", FlagKind::kBool,
       "re-emit the kept events as a Chrome trace document", &chrome},
  };
  constexpr const char* kPositionals = "<trace.json | ->";
  const auto args =
      bdisk::runtime::ParseCommandLine(argc, argv, flags, kPositionals);
  if (args.positionals.size() != 1) {
    std::fputs(bdisk::runtime::UsageLine(argv[0], flags, kPositionals).c_str(),
               stderr);
    return 2;
  }
  filters.have_client = args.Given("client");
  if (filters.outcome != nullptr) {
    const std::string o = filters.outcome;
    if (o != "ok" && o != "deadline_miss" && o != "undecodable") {
      std::fprintf(stderr, "error: --outcome must be ok, deadline_miss, or "
                   "undecodable, got '%s'\n", filters.outcome);
      return 2;
    }
  }

  const char* path = args.positionals[0];
  std::ostringstream text;
  if (std::string(path) == "-") {
    text << std::cin.rdbuf();
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", path);
      return 1;
    }
    text << in.rdbuf();
  }
  auto doc = ParseJson(text.str());
  if (!doc.ok()) {
    std::fprintf(stderr, "error: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  const JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "error: '%s' has no traceEvents array\n", path);
    return 1;
  }

  std::vector<SpanRow> rows = ExtractSpans(*events);
  std::vector<SpanRow> kept;
  for (SpanRow& row : rows) {
    if (filters.Keep(row)) kept.push_back(std::move(row));
  }
  if (chrome) {
    PrintChrome(*doc, *events, kept);
  } else if (summary) {
    PrintSummary(kept, top);
  } else {
    PrintTable(kept);
  }
  return 0;
}
