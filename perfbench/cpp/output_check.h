#ifndef DRRS_PERFBENCH_OUTPUT_CHECK_H_
#define DRRS_PERFBENCH_OUTPUT_CHECK_H_

#include <cstdint>
#include <set>
#include <vector>

#include "dataflow/stream_element.h"
#include "workloads/workloads.h"

namespace drrs::perfbench {

/// One record emitted by the observed operator.
struct Output {
  dataflow::KeyT key = 0;
  sim::SimTime event_time = 0;
  int64_t value = 0;
};

/// Everything the observed operator emitted during one run, in emission
/// order.
struct OutputLog {
  std::vector<Output> outputs;
};

/// Returns a copy of `spec` whose scaled operator (including instances a
/// rescale adds later) appends each record it emits to `log`. The wrapper
/// forwards every call unchanged, so the simulated run is the same event for
/// event as the one on `spec`.
workloads::WorkloadSpec WithCapture(const workloads::WorkloadSpec& spec,
                                    OutputLog* log);

/// How a run's outputs compare with the reference run's.
struct Comparison {
  uint64_t reference = 0;  ///< reference outputs (the base of failed_share)
  uint64_t missing = 0;    ///< reference outputs the run never produced
  uint64_t different = 0;  ///< produced with another value or out of order
  uint64_t extra = 0;      ///< produced but absent from the reference
  /// Where a loss sits: the keys of the missing outputs and the range of
  /// their window ends (panes) or event times (sequences).
  std::set<dataflow::KeyT> missing_keys;
  sim::SimTime missing_first = -1;
  sim::SimTime missing_last = -1;

  uint64_t failed() const { return missing + different + extra; }
};

/// Window panes: one output per (key, window end); a pane emitted twice is
/// extra.
Comparison ComparePanes(const OutputLog& run, const OutputLog& reference);

/// Running aggregates: the per-key sequence of emitted values must equal the
/// reference's, element by element (exactly-once, per-key order and final
/// keyed state).
Comparison CompareSequences(const OutputLog& run, const OutputLog& reference);

/// Order-independent across keys, order-sensitive within a key.
uint64_t Fingerprint(const OutputLog& log);

}  // namespace drrs::perfbench

#endif  // DRRS_PERFBENCH_OUTPUT_CHECK_H_
