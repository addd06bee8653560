#ifndef DRRS_SCALING_CORE_STATE_TRANSFER_H_
#define DRRS_SCALING_CORE_STATE_TRANSFER_H_

#include <cstdint>
#include <map>
#include <set>

#include "dataflow/stream_element.h"
#include "net/channel.h"
#include "runtime/task.h"
#include "state/keyed_state.h"

namespace drrs::runtime {
class ExecutionGraph;
}  // namespace drrs::runtime

namespace drrs::scaling {

/// Per-chunk ack/retransmission policy (off by default: fault-free runs pay
/// zero extra events). Acks are modeled as zero-cost control-plane feedback:
/// the shared in-transit registry *is* the ack channel — an entry still
/// present when the timeout fires means the chunk was never installed.
struct ChunkRetryPolicy {
  bool enabled = false;
  /// Base ack timeout; doubled per attempt up to `ack_timeout_max`.
  sim::SimTime ack_timeout_base = sim::Millis(20);
  sim::SimTime ack_timeout_max = sim::Millis(320);
  /// Size-proportional slack: big chunks legitimately occupy the wire
  /// longer. The default matches the modeled Gigabit link (125 bytes/µs).
  double timeout_bytes_per_us = 125.0;
  /// Retransmissions per chunk before giving up (the chunk then surfaces as
  /// a transfer leak in the audit / scale-abort machinery).
  uint32_t max_attempts = 10;
};

/// Ack-timeout backoff for the (0-based) retransmission attempt counter:
/// `ack_timeout_base` doubled per attempt, saturating at `ack_timeout_max`
/// exactly. The doubling stops the step *before* it would pass the cap, so
/// the sequence hits the cap value itself (never overshoots) and cannot
/// overflow sim::SimTime no matter how large `attempts` grows.
sim::SimTime ChunkRetryBackoff(const ChunkRetryPolicy& policy,
                               uint32_t attempts);

/// \brief Moves keyed state between instances as sized chunk elements over
/// scaling-path channels. The serialized cells travel out-of-band in an
/// in-transit registry; the chunk element models the wire cost.
///
/// Every entry is tagged with the scaling operation (ScaleId) that created
/// it, so a superseded scale can be cleaned up with AbortScale() and the
/// shared ScaleContext can assert leak-freedom (`in_transit_count(scale) ==
/// 0`) at strategy completion. Prefer the TransferSession view, which binds
/// the scale id once.
class StateTransfer {
 public:
  /// Extract the whole key-group from `from` (releasing its ownership) and
  /// enqueue a chunk on `rail`. Returns the chunk's modeled byte size.
  uint64_t SendKeyGroup(runtime::Task* from, net::Channel* rail,
                        dataflow::KeyGroupId kg, dataflow::ScaleId scale,
                        dataflow::SubscaleId subscale, bool priority = false);

  /// Extract one Meces-style sub-key-group (ownership flags untouched).
  uint64_t SendSubKeyGroup(runtime::Task* from, net::Channel* rail,
                           dataflow::KeyGroupId kg, uint32_t sub,
                           uint32_t fanout, dataflow::ScaleId scale,
                           dataflow::SubscaleId subscale,
                           bool priority = false);

  /// Install a received chunk into `to`. Whole-key-group chunks acquire
  /// ownership; sub-key-group chunks merge cells without flipping it.
  /// Returns false (and installs nothing) when the chunk belongs to a
  /// transfer dropped by AbortScale(); unknown transfers abort the process.
  bool Install(runtime::Task* to, const dataflow::StreamElement& chunk);

  /// Drop every in-transit entry of `scale` (superseded mid-flight). The
  /// extracted state is discarded — the superseding plan recomputes
  /// migrations from live ownership, so orphaned chunks must not install.
  void AbortScale(dataflow::ScaleId scale);

  /// Abort roll-forward: install every in-transit entry of `scale` directly
  /// at its planned receiver, bypassing the wire (the registry still holds
  /// the extracted cells, so nothing is lost even if the chunk element was
  /// dropped). The consumed ids are remembered as aborted so floating chunk
  /// elements are ignored on arrival. Returns the number of installs.
  size_t ForceComplete(dataflow::ScaleId scale, runtime::ExecutionGraph* graph,
                       metrics::MetricsHub* hub);

  /// Turn on per-chunk ack timeouts + retransmission and receiver-side
  /// duplicate-install suppression. `hub` (optional) receives the
  /// chunk_retransmits / duplicate_installs_suppressed counters.
  void EnableReliability(const ChunkRetryPolicy& policy,
                         metrics::MetricsHub* hub);
  const ChunkRetryPolicy& retry_policy() const { return policy_; }

  size_t in_transit_count() const { return in_transit_.size(); }
  /// Entries belonging to one scaling operation (leak check granularity).
  size_t in_transit_count(dataflow::ScaleId scale) const;
  /// Chunks ever enqueued for one scaling operation (monotone; feeds the
  /// watchdog's stage detection: enqueued > 0 with nothing in transit means
  /// the transfer stage finished).
  uint64_t enqueued_count(dataflow::ScaleId scale) const;

  /// Modeled sender-side staging footprint: the chunk bytes of every
  /// transfer still in transit (enqueued, not yet installed, force-completed
  /// or aborted). A counter only — no memory backs the modeled bytes.
  uint64_t staging_bytes() const { return staging_bytes_; }

 private:
  uint64_t Enqueue(runtime::Task* from, net::Channel* rail,
                   state::KeyGroupState state, bool whole,
                   const dataflow::StreamElement& proto, bool priority);
  void ArmAckTimer(uint64_t id);
  void OnAckTimeout(uint64_t id);

  uint64_t next_id_ = 1;
  struct Transit {
    state::KeyGroupState state;
    bool whole_group = false;
    dataflow::ScaleId scale = 0;
    /// Retransmission context (only populated fields cost anything; the
    /// element copy enables byte-identical re-sends).
    dataflow::StreamElement chunk;
    net::Channel* rail = nullptr;
    dataflow::InstanceId to = 0;
    uint32_t attempts = 0;
  };
  /// Ordered map: AbortScale and the per-scale count iterate it, and a
  /// decision path must not depend on hash-bucket order.
  std::map<uint64_t, Transit> in_transit_;
  /// Per-scale total of chunks ever enqueued (see enqueued_count()).
  std::map<dataflow::ScaleId, uint64_t> enqueued_;
  /// Simulator of the graph the chunks travel in, captured at first Enqueue
  /// (audit-hook access for AbortScale, which has no task handle).
  sim::Simulator* sim_ = nullptr;
  /// Transfer ids dropped by AbortScale (or consumed by ForceComplete)
  /// whose chunk element may still be on the wire; Install drops them on
  /// arrival, persistently — retransmissions can surface the same id twice.
  std::set<uint64_t> aborted_;
  /// Successfully installed ids (reliability mode only): the receiver-side
  /// idempotence filter for duplicated deliveries and late retransmissions.
  std::set<uint64_t> installed_;
  ChunkRetryPolicy policy_;
  metrics::MetricsHub* hub_ = nullptr;
  uint64_t staging_bytes_ = 0;
};

/// \brief View of a StateTransfer bound to one scaling operation: the
/// session API strategies use, so every send is tagged with the right
/// ScaleId and the ScaleContext teardown can account per scale.
class TransferSession {
 public:
  TransferSession() = default;
  TransferSession(StateTransfer* transfer, dataflow::ScaleId scale)
      : transfer_(transfer), scale_(scale) {}

  uint64_t SendKeyGroup(runtime::Task* from, net::Channel* rail,
                        dataflow::KeyGroupId kg, dataflow::SubscaleId subscale,
                        bool priority = false) {
    return transfer_->SendKeyGroup(from, rail, kg, scale_, subscale, priority);
  }
  uint64_t SendSubKeyGroup(runtime::Task* from, net::Channel* rail,
                           dataflow::KeyGroupId kg, uint32_t sub,
                           uint32_t fanout, dataflow::SubscaleId subscale,
                           bool priority = false) {
    return transfer_->SendSubKeyGroup(from, rail, kg, sub, fanout, scale_,
                                      subscale, priority);
  }
  bool Install(runtime::Task* to, const dataflow::StreamElement& chunk) {
    return transfer_->Install(to, chunk);
  }
  void Abort() { transfer_->AbortScale(scale_); }

  /// Chunks of this session still on the wire (0 at a leak-free teardown).
  size_t in_flight() const { return transfer_->in_transit_count(scale_); }
  dataflow::ScaleId scale() const { return scale_; }
  bool valid() const { return transfer_ != nullptr; }

 private:
  StateTransfer* transfer_ = nullptr;
  dataflow::ScaleId scale_ = 0;
};

}  // namespace drrs::scaling

#endif  // DRRS_SCALING_CORE_STATE_TRANSFER_H_
