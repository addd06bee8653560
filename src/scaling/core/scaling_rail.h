#ifndef DRRS_SCALING_CORE_SCALING_RAIL_H_
#define DRRS_SCALING_CORE_SCALING_RAIL_H_

#include <map>
#include <vector>

#include "net/channel.h"
#include "runtime/execution_graph.h"

namespace drrs::scaling {

/// \brief Lifecycle of the old->new scaling rails (migration / re-route
/// paths) of one scaling operation.
///
/// A rail is an ordered channel between two instances of the scaled operator
/// carrying state chunks, re-routed records, re-routed confirm barriers and
/// kScaleComplete teardown markers. Opening a rail registers it for
/// watermark forwarding, registers the sender at the receiver, and
/// (optionally) seeds the receiver's *side watermark* with the sender's
/// current operator watermark, so the receiver cannot fire event-time
/// windows ahead of in-flight state and re-routed records ("duplicated to
/// both input streams", Section III-A). Releasing a rail clears that
/// constraint and unregisters the sender, so watermarks still queued on the
/// rail are dropped on arrival.
class ScalingRails {
 public:
  explicit ScalingRails(runtime::ExecutionGraph* graph) : graph_(graph) {}

  ScalingRails(const ScalingRails&) = delete;
  ScalingRails& operator=(const ScalingRails&) = delete;

  /// Get-or-create the rail `from` -> `to` and register it for watermark
  /// forwarding. A newly opened rail registers `from` at `to` as a side
  /// sender and, when `seed_watermark` is set, seeds the receiver's side
  /// watermark immediately.
  net::Channel* Open(runtime::Task* from, runtime::Task* to,
                     bool seed_watermark = true);

  /// Push the sender's current operator watermark onto `rail` (re-seed;
  /// DRRS does this per subscale launch even on an already-open rail).
  static void SeedWatermark(net::Channel* rail, runtime::Task* from);

  /// Forward an advanced operator watermark over every open rail of `from`
  /// (the shared TaskHook::OnWatermarkAdvance behavior).
  void ForwardWatermark(runtime::Task* from, sim::SimTime wm);

  /// Push the kScaleComplete teardown marker closing one old->new path.
  /// (Member, not static: the audit hook needs the graph's simulator.)
  void PushComplete(net::Channel* rail, dataflow::InstanceId from,
                    dataflow::ScaleId scale, dataflow::SubscaleId subscale);

  /// Whether `from` currently has open rails (watermark forwarding active).
  bool HasRailsFrom(dataflow::InstanceId from) const {
    auto it = by_source_.find(from);
    return it != by_source_.end() && !it->second.empty();
  }

  /// Release one rail: clear the receiver's side-watermark constraint and
  /// stop forwarding over it.
  void Release(net::Channel* rail);

  /// Release every open rail (strategy teardown).
  void ReleaseAll();

  /// Forget all rails without touching the receivers' side watermarks (for
  /// strategies that clear the constraint through their own protocol, e.g.
  /// OTFS's receiver-side kScaleComplete handling).
  void Reset() { by_source_.clear(); }

 private:
  runtime::ExecutionGraph* graph_;
  // Rails per source in open order: watermark forwarding and teardown walk
  // this list, so it must not be keyed by channel address (pointer order is
  // not stable across runs).
  std::map<dataflow::InstanceId, std::vector<net::Channel*>> by_source_;
};

}  // namespace drrs::scaling

#endif  // DRRS_SCALING_CORE_SCALING_RAIL_H_
