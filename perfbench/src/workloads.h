// The benchmark's workloads. Each runs in one process with at most two
// threads of its own and returns its metrics and correctness verdicts.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// wire_tiny, wire_bulk_disk, wire_paced_fanout: a broadcast station
/// (ServeBroadcast on its own thread) and a listener (UdpClient::Run on
/// the calling thread) over the host loopback.
bool IsWireWorkload(const std::string& name);
Outcome RunWireWorkload(const Options& options);

/// sim_fleet: the discrete-event engine over a pinwheel-planned program
/// with Poisson/Zipf clients under a Gilbert channel, on a 2-thread pool.
Outcome RunSimFleet(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
