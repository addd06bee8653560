#ifndef DRRS_PERFBENCH_PROBES_H_
#define DRRS_PERFBENCH_PROBES_H_

#include <cstdint>

namespace drrs::perfbench {

/// Monotonic host clock in nanoseconds (CLOCK_MONOTONIC, shared by every
/// process on the host, so spans of several processes line up).
int64_t NowNs();

/// Public-API probes: the same layer calls the workload makes, sized to its
/// own counts, timed in isolation. Each returns host ns per operation, or a
/// negative value if the probe lost work.
double ProbeQueueNsPerEvent(uint64_t events, uint32_t depth);
double ProbeChannelNsPerRecord(uint64_t records);
double ProbeStateNsPerUpdate(uint64_t updates, uint64_t keys, double skew,
                             uint64_t seed);

}  // namespace drrs::perfbench

#endif  // DRRS_PERFBENCH_PROBES_H_
