#ifndef DRRS_NET_CHANNEL_H_
#define DRRS_NET_CHANNEL_H_

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/ring_deque.h"
#include "common/thread_annotations.h"
#include "dataflow/stream_element.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"

namespace drrs::net {

/// Link parameters for one point-to-point channel. Defaults model the
/// paper's Gigabit-Ethernet testbed (1 Gbps ~ 125 bytes/us, sub-millisecond
/// propagation).
struct NetworkConfig {
  sim::SimTime base_latency = sim::Micros(500);
  double bandwidth_bytes_per_us = 125.0;
  /// Credit window: max elements in (in-flight + receiver input queue).
  size_t input_buffer_capacity = 64;
  /// Sender-side cache size; at/above this the channel reports congestion
  /// and the sending task applies backpressure.
  size_t output_buffer_capacity = 256;
};

class Channel;
class FaultPlane;

/// \brief One readiness bit per input channel of a receiver: bit i is set
/// exactly while the receiver's i-th input cache holds an element.
///
/// Each channel flips its own bit on the empty <-> non-empty transitions of
/// its input cache, so the receiver finds the channels that hold input by
/// walking set bits instead of probing every channel, and "no input at all"
/// is one comparison.
class InputReadiness {
 public:
  /// Append a slot with its bit clear; returns the slot index.
  uint32_t AddSlot() {
    if ((size_ & 63) == 0) words_.push_back(0);
    return static_cast<uint32_t>(size_++);
  }

  void Set(uint32_t i) {
    words_[i >> 6] |= Bit(i);
    ++count_;
  }
  void Clear(uint32_t i) {
    words_[i >> 6] &= ~Bit(i);
    --count_;
  }

  bool test(size_t i) const { return (words_[i >> 6] & Bit(i)) != 0; }
  bool none() const { return count_ == 0; }

  /// Lowest set index >= `from`, or the slot count when there is none.
  size_t NextSet(size_t from) const {
    size_t w = from >> 6;
    if (w >= words_.size()) return size_;
    uint64_t bits = words_[w] & (~uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++w == words_.size()) return size_;
      bits = words_[w];
    }
    return (w << 6) + static_cast<size_t>(std::countr_zero(bits));
  }

  /// A cyclic walk over the set bits that starts at `start`: the same order
  /// as probing every index start, start+1, ..., size()-1, 0, ..., start-1.
  /// CyclicFirst gives its first index, CyclicNext the one after `i`; both
  /// return the slot count once the walk is done.
  size_t CyclicFirst(size_t start) const {
    const size_t i = NextSet(start);
    return i < size_ ? i : WrappedFirst(start);
  }
  size_t CyclicNext(size_t start, size_t i) const {
    const size_t next = NextSet(i + 1);
    if (i < start) return next < start ? next : size_;
    return next < size_ ? next : WrappedFirst(start);
  }

 private:
  /// First set index of the walk's second lap [0, start).
  size_t WrappedFirst(size_t start) const {
    const size_t i = NextSet(0);
    return i < start ? i : size_;
  }

  static uint64_t Bit(size_t i) { return uint64_t{1} << (i & 63); }

  std::vector<uint64_t> words_;
  size_t size_ = 0;   ///< slots
  size_t count_ = 0;  ///< set bits
};

/// \brief Posts cross-partition traffic into the PDES mailbox.
///
/// Implemented by sim::PdesEngine; declared here so net/ stays independent
/// of the engine header. A channel whose sender and receiver live on
/// different logical processes never arms receiver-side events directly —
/// it posts (channel, arrival, element) triples through this interface, and
/// the engine replays them on the receiver's simulator at the next window
/// barrier in canonical lane order.
class RemoteRouter {
 public:
  virtual ~RemoteRouter() = default;

  /// An element (wire path, or bypass path when `bypass`) departing the
  /// sender partition with its computed arrival time. May be called from
  /// the sender partition's worker thread mid-window.
  virtual void PostRemote(Channel* channel, sim::SimTime arrival,
                          dataflow::StreamElement element, bool bypass) = 0;

  /// `credits` input-cache credits released by the receiver for `channel`'s
  /// sender. May be called from the receiver partition's worker thread.
  virtual void PostRemoteCredit(Channel* channel, uint32_t credits) = 0;
};

/// Receiver-side callbacks, implemented by runtime::Task.
class ChannelReceiver {
 public:
  virtual ~ChannelReceiver() = default;

  /// A batch of `appended` elements was appended to the channel's input
  /// queue in one wire-event flush (elements sharing a deliverable window
  /// arrive together; `appended` is 1 for isolated arrivals). Per-element
  /// semantics — barrier handling, fault interception, audit hooks — have
  /// already run element by element on the delivery side.
  virtual void OnBatchAvailable(Channel* channel, size_t appended) = 0;

  /// A bypass (priority) control message arrived, skipping both caches —
  /// the delivery path of DRRS trigger barriers (paper Section III-A).
  virtual void OnControlBypass(Channel* channel,
                               const dataflow::StreamElement& element) = 0;
};

/// Sender-side callback, implemented by runtime::Task.
class ChannelSender {
 public:
  virtual ~ChannelSender() = default;

  /// The output cache just reached capacity: congested() turned true.
  virtual void OnOutputCongested(Channel* channel) = 0;
};

/// \brief Simulated point-to-point stream between two task instances.
///
/// Structure mirrors the paper's model of a Flink connection:
///
///   sender ->[output cache]->(in-flight: latency+bandwidth)->[input cache]-> receiver
///
/// * FIFO order is preserved end to end for normally pushed elements.
/// * `PushPriority` inserts at the *front* of the output cache (confirm
///   barriers: "treated as a priority message only in the output cache").
/// * `PushBypass` skips both caches entirely (trigger barriers: "bypasses all
///   in-flight data").
/// * Transmission is credit-gated by the receiver's input-cache capacity;
///   a full output cache raises `congested()` which the sending task treats
///   as backpressure.
/// * A `Push` into an empty output cache whose element the credit window and
///   the fault plane admit at once goes straight onto the wire (same hooks,
///   same timing) instead of being written into the cache and read back.
///   Only local channels whose cache holds at least two elements take this
///   path; with capacity 1 the cached element itself is a congestion onset.
///
/// Delivery is *batched*: wire entries whose arrival times share a
/// deliverable window (arrival <= now when the armed event fires) drain as
/// one RecordBatch with a single receiver notification, so N same-instant
/// records cost one simulator event instead of N. Conservation/FIFO audit
/// hooks and fault interception still run per record. All queue storage
/// (output cache, wire, input cache) lives in the simulator's arena: the
/// steady-state path performs no heap allocation.
class Channel {
 public:
  using ElementQueue = RingDeque<dataflow::StreamElement>;

  Channel(sim::Simulator* sim, const NetworkConfig& config,
          dataflow::InstanceId sender, dataflow::InstanceId receiver,
          ChannelReceiver* receiver_task);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  dataflow::InstanceId sender_id() const { return sender_id_; }
  dataflow::InstanceId receiver_id() const { return receiver_id_; }

  /// Marks this channel as a migration/re-route path between two instances
  /// of the *same* operator. Such channels are excluded from the receiver's
  /// watermark aggregation (they carry side watermarks instead) and their
  /// data elements are treated as eagerly consumable re-routed events.
  void set_scaling_path(bool v) { scaling_path_ = v; }
  bool scaling_path() const { return scaling_path_; }

  /// The task whose output cache this is; told of each congestion onset.
  /// Null (the default) when no sender listens.
  void set_sender(ChannelSender* sender) { sender_task_ = sender; }

  /// Count this channel in `*counter` while congested(): the sender's count
  /// of congested output-edge channels. Set once, when the channel joins an
  /// output edge (scaling rails join none, so they never count).
  void set_congestion_counter(uint32_t* counter);

  /// Keep bit `index` of `readiness` equal to HasInput(): the receiver's
  /// readiness bits. Set once, when the channel becomes a receiver input.
  void set_readiness(InputReadiness* readiness, uint32_t index);

  // ---- sender side ----

  /// Append to the output cache (normal data path).
  void Push(dataflow::StreamElement element);

  /// Insert at the front of the output cache, ahead of buffered records.
  void PushPriority(dataflow::StreamElement element);

  /// Deliver directly to the receiver's control handler after the base
  /// latency, ignoring both caches and the credit window.
  void PushBypass(dataflow::StreamElement element);

  /// True when the output cache is at/above capacity (backpressure signal).
  bool congested() const {
    return output_queue_.size() >= config_.output_buffer_capacity;
  }

  /// Register a persistent callback fired whenever the output cache drains
  /// below half capacity after having been congested.
  void AddDecongestListener(std::function<void()> cb) {
    decongest_listeners_.push_back(std::move(cb));
  }

  /// Remove-and-return all output-cache elements matching `pred`, preserving
  /// the relative order of both kept and extracted elements. Used by DRRS to
  /// redirect records bypassed by a confirm barrier (Section III-A) and by
  /// the checkpoint-interaction logic (Section IV-C).
  std::vector<dataflow::StreamElement> ExtractFromOutput(
      const std::function<bool(const dataflow::StreamElement&)>& pred);

  /// Like ExtractFromOutput but only considers elements positioned before
  /// the first element matching `stop`. Used when a checkpoint barrier sits
  /// in the output cache: "redirection concludes at the barrier"
  /// (Section IV-C, Fig 9a).
  std::vector<dataflow::StreamElement> ExtractFromOutputBefore(
      const std::function<bool(const dataflow::StreamElement&)>& pred,
      const std::function<bool(const dataflow::StreamElement&)>& stop);

  /// Insert `element` immediately after the first output-cache element
  /// matching `match`; returns false (and does not insert) when none
  /// matches. Implements the integrated checkpoint+scaling signal.
  bool InsertAfterFirst(
      const std::function<bool(const dataflow::StreamElement&)>& match,
      dataflow::StreamElement element);

  /// True if any output-cache element matches `pred`.
  bool OutputContains(
      const std::function<bool(const dataflow::StreamElement&)>& pred) const;

  size_t output_queue_size() const { return output_queue_.size(); }
  const ElementQueue& output_queue() const { return output_queue_; }
  size_t in_flight() const {
    return remote() ? remote_unacked_ : wire_.size();
  }

  // ---- cross-partition (PDES) mode ----

  /// Rebind this channel as a cross-partition link: transmissions post into
  /// the engine mailbox via `router` instead of arming wire events, and the
  /// receiver-side queues (input cache, remote FIFOs) move to the receiver
  /// partition's arena. Must be called before any traffic flows. The credit
  /// window switches to a sender-held unacked counter, with credits
  /// returned through the reverse mailbox lane — so a credit released at
  /// simulated time t reaches the sender at the end of t's synchronization
  /// window rather than instantaneously ("delayed-credit" link semantics).
  void BindRemote(RemoteRouter* router, uint32_t sender_partition,
                  uint32_t receiver_partition, sim::Simulator* receiver_sim);
  bool remote() const { return router_ != nullptr; }
  uint32_t sender_partition() const { return sender_partition_; }
  uint32_t receiver_partition() const { return receiver_partition_; }
  sim::Simulator* receiver_sim() { return remote() ? receiver_sim_ : sim_; }

  /// Coordinator-side mailbox replay (window barrier, workers parked):
  /// append one arrival to the receiver-side FIFO and arm its delivery
  /// event on the receiver simulator. Arrivals are nondecreasing per
  /// channel (lane FIFO preserves send order; the serializer model makes
  /// arrival monotone in send order). Requires the engine serial phase:
  /// replay touches receiver-partition state, which is legal only with
  /// every worker parked — under DRRS_THREAD_SAFETY a call without the
  /// phase token is a compile error.
  void AcceptRemote(sim::SimTime arrival, dataflow::StreamElement element,
                    bool bypass) DRRS_REQUIRES(kEngineSerialPhase);

  /// Coordinator-side credit replay: return `n` credits to the sender and
  /// re-attempt transmission (which may post fresh mailbox entries).
  /// Serial-phase only, like AcceptRemote: it mutates the sender-held
  /// credit counter from the coordinator thread.
  void ApplyRemoteCredits(uint32_t n) DRRS_REQUIRES(kEngineSerialPhase);

  // ---- receiver side ----

  bool HasInput() const { return !input_queue_.empty(); }
  const dataflow::StreamElement& PeekInput() const {
    return input_queue_.front();
  }
  dataflow::StreamElement PopInput();

  const ElementQueue& input_queue() const { return input_queue_; }

  /// Remove and return the input-cache element at `pos`, releasing its
  /// credit (intra-channel record scheduling takes a record from the middle
  /// of the cache).
  dataflow::StreamElement TakeInputAt(size_t pos);

  /// TakeInputAt for overload load shedding: also counts the element in
  /// shed_elements(). The caller is responsible for the conservation
  /// accounting of the removed record (Auditor::OnRecordShed).
  dataflow::StreamElement RemoveInputAt(size_t pos);

  /// Offer every input-cache element, in FIFO order, to `take`. An element
  /// for which `take` returns true has been moved out by it and leaves the
  /// cache; the rest keep their order. One credit per removed element is
  /// released after the pass. (Scaling moves pre-flip records of migrated
  /// key-groups onto rails this way.)
  void ExtractInput(
      const std::function<bool(dataflow::StreamElement&)>& take);

  /// Append `element` to the input cache directly: no wire, no credit, no
  /// receiver notification (scaling splices re-routed records onto a rail;
  /// the caller wakes the receiver).
  void AppendInput(dataflow::StreamElement element);

  size_t input_queue_size() const { return input_queue_.size(); }
  /// Elements removed from the input cache by load shedding.
  uint64_t shed_elements() const { return shed_elements_; }

  /// Re-attempt transmission after an external gate lifted (e.g. the fault
  /// plane healed a link partition). No-op when nothing can move.
  void PokeTransmit() { TryTransmit(); }

  /// When the serializer frees up (>= now while transmissions are queued on
  /// the wire). Retry timers use it to size ack timeouts to the backlog.
  sim::SimTime link_free_at() const { return link_free_at_; }

  // ---- barrier alignment (owned by the receiving task) ----

  /// Alignment flag: while set, the receiving task's input handlers skip
  /// this channel. Stored here (one flag per channel + a counter in the
  /// task) so the per-record selection loop avoids a hash-set probe.
  bool receiver_blocked() const { return receiver_blocked_; }
  void set_receiver_blocked(bool v) { receiver_blocked_ = v; }

  // ---- stats ----
  uint64_t delivered_elements() const { return delivered_elements_; }
  uint64_t delivered_bytes() const { return delivered_bytes_; }
  /// Number of wire-batch flushes (single receiver notifications); the mean
  /// batch size is delivered_elements()/delivered_batches().
  uint64_t delivered_batches() const { return delivered_batches_; }
  uint64_t max_batch_size() const { return max_batch_size_; }
  /// Pushes that went straight onto the wire past an empty output cache.
  uint64_t direct_transmits() const { return direct_transmits_; }
  /// Histogram of batch sizes by floor(log2(size)): bucket 0 counts
  /// singleton batches, bucket k counts sizes in [2^k, 2^(k+1)).
  const std::array<uint64_t, 16>& batch_size_log2_hist() const {
    return batch_size_log2_hist_;
  }

 private:
  /// One element travelling the simulated wire (or the bypass path), tagged
  /// with its computed arrival time. Arrival times are nondecreasing along
  /// each FIFO, so only the front entry ever needs a pending event.
  struct WireEntry {
    sim::SimTime arrival = 0;
    dataflow::StreamElement element;
  };

  /// Latch (and trace) backpressure once the output cache is congested.
  void LatchCongestion();
  /// Bring the sender's congestion count in line with congested() after the
  /// output cache changed size.
  void SyncCongestedCount() {
    const bool congested_now = congested();
    if (congested_now == counted_congested_) return;
    counted_congested_ = congested_now;
    if (congestion_counter_ == nullptr) return;
    if (congested_now) {
      ++*congestion_counter_;
    } else {
      --*congestion_counter_;
    }
  }
  /// The input cache just went from empty to non-empty, or the reverse.
  void MarkInputReady() {
    if (readiness_ != nullptr) readiness_->Set(ready_index_);
  }
  void MarkInputDrained() {
    if (readiness_ != nullptr) readiness_->Clear(ready_index_);
  }
  /// Release the credit of one element removed from the input cache.
  void NotifyInputConsumed();
  /// Tell the sender when a one-element growth made the cache congested.
  void NotifyCongestionOnset();
  void TryTransmit();
  /// Put one element that left the output cache (or, on the direct path,
  /// never entered it) on the wire: the per-element body of TryTransmit,
  /// fault verdicts included. Consumes `e`. The caller has already checked
  /// the credit window and the fault plane's AllowTransmit gate.
  void TransmitOne(dataflow::StreamElement& e, FaultPlane* faults);
  void DeliverDueBatch();
  void MaybeFireDecongest();
  void ArmWireEvent();
  void FireWireEvent();
  void ArmBypassEvent();
  void FireBypassEvent();
  /// Elements in flight against the receiver's credit window: local wire +
  /// input depth, or the sender-held unacked counter in remote mode (the
  /// receiver-side depths are not readable across the partition boundary).
  size_t CreditInFlight() const {
    return remote() ? remote_unacked_ : wire_.size() + input_queue_.size();
  }
  void ArmRemoteWireEvent();
  void FireRemoteWireEvent();
  void DeliverRemoteDueBatch();
  void ArmRemoteBypassEvent();
  void FireRemoteBypassEvent();

  sim::Simulator* sim_;
  NetworkConfig config_;
  dataflow::InstanceId sender_id_;
  dataflow::InstanceId receiver_id_;
  ChannelReceiver* receiver_task_;
  ChannelSender* sender_task_ = nullptr;

  ElementQueue output_queue_;
  ElementQueue input_queue_;
  /// In-flight FIFO: elements that left the output cache, keyed by arrival
  /// time. At most ONE event per channel is armed in the simulator's global
  /// queue (for the front entry); it re-arms itself after delivering. The
  /// due prefix drains as one batch with a single receiver notification.
  RingDeque<WireEntry> wire_;
  bool wire_event_armed_ = false;
  /// Bypass-path FIFO (trigger barriers), same single-armed-event scheme.
  RingDeque<WireEntry> bypass_;
  bool bypass_event_armed_ = false;
  sim::SimTime link_free_at_ = 0;  ///< serializer availability (FIFO wire)

  // ---- cross-partition mode (null/unused on local channels) ----
  RemoteRouter* router_ = nullptr;
  sim::Simulator* receiver_sim_ = nullptr;
  uint32_t sender_partition_ = 0;
  uint32_t receiver_partition_ = 0;
  /// Credits consumed but not yet returned by the receiver. Written by the
  /// sender's worker (TryTransmit) and the coordinator (ApplyRemoteCredits
  /// at barriers, workers parked) — never concurrently. The two writers
  /// alternate by *phase*, not by lock, so no GUARDED_BY applies; the
  /// coordinator half of the alternation is enforced by the serial-phase
  /// requirement on ApplyRemoteCredits above.
  size_t remote_unacked_ = 0;
  /// Receiver-side FIFOs of replayed mailbox arrivals; storage lives in the
  /// receiver partition's arena. Same single-armed-event scheme as wire_.
  RingDeque<WireEntry> remote_in_;
  bool remote_in_armed_ = false;
  RingDeque<WireEntry> remote_bypass_;
  bool remote_bypass_armed_ = false;

  std::vector<std::function<void()>> decongest_listeners_;

  /// Sender's congested output-edge count (null unless in an output edge),
  /// and whether this channel is counted in it.
  uint32_t* congestion_counter_ = nullptr;
  bool counted_congested_ = false;
  /// Receiver's readiness bits (null until the channel is a receiver input).
  InputReadiness* readiness_ = nullptr;
  uint32_t ready_index_ = 0;

  uint64_t delivered_elements_ = 0;
  uint64_t delivered_bytes_ = 0;
  uint64_t shed_elements_ = 0;
  uint64_t delivered_batches_ = 0;
  uint64_t max_batch_size_ = 0;
  uint64_t direct_transmits_ = 0;
  std::array<uint64_t, 16> batch_size_log2_hist_ = {};
  bool scaling_path_ = false;
  bool receiver_blocked_ = false;
  /// Set when the output cache hits capacity; cleared (with listeners fired)
  /// once it drains below half capacity.
  bool congestion_latched_ = false;
};

}  // namespace drrs::net

#endif  // DRRS_NET_CHANNEL_H_
