// bdisk_top — live dashboard over a --metrics-out snapshot stream.
//
// Reads the JSON-line stream written by `bdisk_planner --metrics-out` (or
// any obs::WriteSnapshotStream caller) and renders a table of the run's
// progress over the simulated clock: one row per snapshot line with
// completed retrievals, delay mean/max and p50/p90/p99, deadline misses,
// and observed channel errors; the final row adds the undecodable and
// miss rates that are only knowable at the horizon. When the stream
// carries a "registry" line, a footer derives throughput figures from the
// process-wide instruments: GF encode/decode GB/s, event-engine events/s,
// and adaptive hot swaps.
//
// --follow polls the file every 500 ms and redraws in place (ANSI),
// tailing a run that is still appending; only the bytes appended since
// the previous poll are parsed, and a truncated or replaced file (a new
// run re-creating it) restarts the tail from byte zero. Ctrl-C to stop.
// --rows N limits the table to the last N snapshot rows. A stream
// holding several runs (e.g. --adaptive appends static + adaptive
// replays) renders the last run, with a header count of the others.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/stream_tail.h"
#include "runtime/flags.h"

namespace {

using bdisk::obs::JsonValue;
using bdisk::obs::ParseJson;

double Num(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

struct Stream {
  std::size_t runs = 0;           // Header lines seen.
  std::vector<JsonValue> rows;    // Snapshot + final lines of the last run.
  JsonValue header;               // Last run's header.
  JsonValue registry;             // Last registry line (if any).
  bool has_registry = false;
  std::size_t bad_lines = 0;
};

// Folds one stream line into the state, keeping only the last run's rows
// (a file may hold several appended runs).
void FoldLine(Stream* s, const std::string& line) {
  if (line.empty()) return;
  auto parsed = ParseJson(line);
  if (!parsed.ok() || !parsed->is_object()) {
    ++s->bad_lines;
    return;
  }
  const JsonValue* type = parsed->Find("type");
  if (type == nullptr || !type->is_string()) {
    ++s->bad_lines;
    return;
  }
  if (type->string_value == "header") {
    ++s->runs;
    s->header = std::move(*parsed);
    s->rows.clear();
  } else if (type->string_value == "snapshot" ||
             type->string_value == "final") {
    s->rows.push_back(std::move(*parsed));
  } else if (type->string_value == "registry") {
    s->registry = std::move(*parsed);
    s->has_registry = true;
  } else {
    ++s->bad_lines;
  }
}

// Incremental tailing is obs::StreamTail's job: --follow polls every
// 500 ms, and re-parsing the whole stream on every tick makes the
// dashboard quadratic in run length; the tailer remembers how many bytes
// were folded and parses only what the producer appended since.
//
// Exactly-once framing: the authoritative Stream folds only completed
// lines. A trailing line the producer has not newline-terminated yet is
// *displayed* by folding it into a throwaway copy of the Stream each
// redraw (RenderView below) — so the dashboard shows it immediately, and
// when its newline finally arrives the authoritative fold parses it
// exactly once (no drop while pending, no double-count on completion).

void RenderRegistryFooter(const JsonValue& registry) {
  // Derived throughput: bytes counters over the matching phase-timer sums
  // (histogram "sum" is total microseconds spent in that phase).
  const auto phase_us = [&](const char* name) {
    const JsonValue* h = registry.Find(name);
    return h != nullptr && h->is_object() ? Num(*h, "sum") : 0.0;
  };
  const double encode_us = phase_us("phase.encode_us");
  const double decode_us = phase_us("phase.decode_us");
  const double drain_us = phase_us("phase.event_drain_us");
  const double encode_bytes = Num(registry, "ida.encode_bytes");
  const double decode_bytes = Num(registry, "ida.decode_bytes");
  const double events = Num(registry, "sim.events");
  const double swaps = Num(registry, "adaptive.swaps");

  std::printf("\nprocess instruments (wall clock):\n");
  if (encode_us > 0.0) {
    std::printf("  GF encode: %8.3f GB/s (%.0f MB in %.1f ms)\n",
                encode_bytes / 1e3 / encode_us, encode_bytes / 1e6,
                encode_us / 1e3);
  }
  if (decode_us > 0.0) {
    std::printf("  GF decode: %8.3f GB/s (%.0f MB in %.1f ms)\n",
                decode_bytes / 1e3 / decode_us, decode_bytes / 1e6,
                decode_us / 1e3);
  }
  if (drain_us > 0.0) {
    std::printf("  events:    %8.3f M events/s (%.0f events in %.1f ms)\n",
                events / drain_us, events, drain_us / 1e3);
  }
  if (swaps > 0.0) {
    std::printf("  hot swaps: %.0f\n", swaps);
  }
}

void Render(const Stream& s, std::size_t max_rows, const char* path) {
  if (s.runs == 0) {
    std::printf("bdisk_top: no snapshot stream in '%s' yet\n", path);
    return;
  }
  std::printf("bdisk_top: %s — showing run %zu (last of %zu), interval "
              "%llu slots, horizon %llu slots\n",
              path, s.runs, s.runs,
              static_cast<unsigned long long>(Num(s.header,
                                                  "interval_slots")),
              static_cast<unsigned long long>(Num(s.header, "horizon")));
  std::printf("%10s %10s %9s %9s %9s %6s %6s %6s %7s %8s\n", "slot",
              "completed", "+intvl", "mean_lat", "max_lat", "p50", "p90",
              "p99", "missed", "errors");
  const std::size_t begin =
      max_rows > 0 && s.rows.size() > max_rows ? s.rows.size() - max_rows
                                               : 0;
  if (begin > 0) {
    std::printf("  ... %zu earlier snapshots ...\n", begin);
  }
  for (std::size_t i = begin; i < s.rows.size(); ++i) {
    const JsonValue& r = s.rows[i];
    std::printf("%10llu %10llu %9llu %9.2f %9.0f %6llu %6llu %6llu "
                "%7llu %8llu\n",
                static_cast<unsigned long long>(Num(r, "slot")),
                static_cast<unsigned long long>(Num(r, "completed")),
                static_cast<unsigned long long>(
                    Num(r, "interval_completed")),
                Num(r, "mean_latency"), Num(r, "max_latency"),
                static_cast<unsigned long long>(Num(r, "p50_latency")),
                static_cast<unsigned long long>(Num(r, "p90_latency")),
                static_cast<unsigned long long>(Num(r, "p99_latency")),
                static_cast<unsigned long long>(Num(r, "missed_deadline")),
                static_cast<unsigned long long>(Num(r, "errors_observed")));
  }
  if (!s.rows.empty()) {
    const JsonValue& last = s.rows.back();
    const JsonValue* type = last.Find("type");
    if (type != nullptr && type->string_value == "final") {
      std::printf("final: %llu attempts, undecodable rate %.4f, miss rate "
                  "%.4f\n",
                  static_cast<unsigned long long>(Num(last, "attempts")),
                  Num(last, "undecodable_rate"), Num(last, "miss_rate"));
    } else {
      std::printf("(run in progress — no final line yet)\n");
    }
  }
  if (s.has_registry) RenderRegistryFooter(s.registry);
  if (s.bad_lines > 0) {
    std::printf("warning: %zu unparseable lines skipped\n", s.bad_lines);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool follow = false;
  std::uint64_t max_rows = 20;
  const std::vector<bdisk::runtime::Flag> flags = {
      {"follow", bdisk::runtime::FlagKind::kBool,
       "poll every 500 ms and redraw while the producer appends", &follow},
      {"rows", bdisk::runtime::FlagKind::kUint,
       "show the last N snapshot rows (20; 0 = all)", &max_rows},
  };
  constexpr const char* kPositionals = "stream.jsonl";
  const auto args =
      bdisk::runtime::ParseCommandLine(argc, argv, flags, kPositionals);
  if (args.positionals.size() != 1) {
    std::fputs(bdisk::runtime::UsageLine(argv[0], flags, kPositionals).c_str(),
               stderr);
    return 2;
  }
  const char* path = args.positionals[0];

  bdisk::obs::StreamTail tail;
  Stream stream;
  for (;;) {
    bool restarted = false;
    const bool opened = tail.PollFile(
        path, [&stream, &restarted](const std::string& line) {
          if (restarted) {
            // First line after a truncate/replace: the folded state
            // describes a file that no longer exists.
            stream = Stream{};
            restarted = false;
          }
          FoldLine(&stream, line);
        },
        &restarted);
    if (restarted) stream = Stream{};  // Restart with no complete line yet.
    if (!opened && !follow) {
      std::fprintf(stderr, "error: cannot open '%s'\n", path);
      return 1;
    }
    if (follow) {
      // Home + clear-to-end redraw keeps the table in place while the
      // producer appends.
      std::printf("\033[H\033[J");
    }
    if (opened) {
      // Speculatively fold the unterminated trailing line (if any) into a
      // throwaway view; the authoritative `stream` only ever folds on a
      // newline, so the completed line is never counted twice.
      if (!tail.pending().empty()) {
        Stream view = stream;
        FoldLine(&view, tail.pending());
        Render(view, static_cast<std::size_t>(max_rows), path);
      } else {
        Render(stream, static_cast<std::size_t>(max_rows), path);
      }
    } else {
      std::printf("bdisk_top: waiting for '%s'...\n", path);
    }
    if (!follow) break;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
  return 0;
}
