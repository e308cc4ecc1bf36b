// Per-thread allocation counter fed by the benchmark's replacement of the
// global operator new (alloc_count.cc).

#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Calls to any global operator new made by the calling thread so far.
std::uint64_t ThreadAllocations();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
