// Shared helpers for the bench executables (header-only: bench/*.cc each
// build into their own binary, so there is no bench library to link).
//
// Every bench emits at least one machine-readable line of the form
//   {"bench":"bench_ida","metric":"disperse_MBps","value":123.4,
//    "threads":1,"commit":"abc1234"}
// on stdout, so CI runs can be scraped into BENCH_*.json trajectory files
// with `grep '^{"bench"'`. The commit field is the short git SHA injected
// at configure time (CMakeLists.txt defines BDISK_BUILD_COMMIT), making
// trajectory artifacts attributable across PRs. Human-readable tables
// remain unchanged around these lines.

#ifndef BDISK_BENCH_BENCH_UTIL_H_
#define BDISK_BENCH_BENCH_UTIL_H_

#include <cstdio>

#include "obs/json.h"

// Injected by CMake (-DBDISK_BUILD_COMMIT="<short sha>"); "unknown" when
// building outside a git checkout.
#ifndef BDISK_BUILD_COMMIT
#define BDISK_BUILD_COMMIT "unknown"
#endif

namespace benchutil {

/// Emits one JSON metric line: {"bench":...,"metric":...,"value":...,
/// "threads":N,"commit":...}. Built on the canonical obs::JsonWriter, so
/// doubles stay %.17g-lossless for trajectory diffing and metric names
/// with reserved characters are escaped instead of corrupting the line.
inline void EmitJson(const char* bench, const char* metric, double value,
                     unsigned threads) {
  bdisk::obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String(bench);
  w.Key("metric");
  w.String(metric);
  w.Key("value");
  w.Double(value);
  w.Key("threads");
  w.Uint(threads);
  w.Key("commit");
  w.String(BDISK_BUILD_COMMIT);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace benchutil

#endif  // BDISK_BENCH_BENCH_UTIL_H_
