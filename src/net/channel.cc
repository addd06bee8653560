#include "net/channel.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/logging.h"
#include "net/fault_plane.h"
#include "trace/trace_hooks.h"
#include "verify/audit_hooks.h"

namespace drrs::net {

using dataflow::StreamElement;

namespace {
size_t Log2Bucket(size_t n) {
  size_t b = 0;
  while (n > 1 && b < 15) {
    n >>= 1;
    ++b;
  }
  return b;
}
}  // namespace

Channel::Channel(sim::Simulator* sim, const NetworkConfig& config,
                 dataflow::InstanceId sender, dataflow::InstanceId receiver,
                 ChannelReceiver* receiver_task)
    : sim_(sim),
      config_(config),
      sender_id_(sender),
      receiver_id_(receiver),
      receiver_task_(receiver_task) {
  DRRS_CHECK(receiver_task_ != nullptr);
  DRRS_CHECK(config_.bandwidth_bytes_per_us > 0);
  output_queue_.set_arena(sim_->arena());
  input_queue_.set_arena(sim_->arena());
  wire_.set_arena(sim_->arena());
  bypass_.set_arena(sim_->arena());
}

void Channel::set_congestion_counter(uint32_t* counter) {
  DRRS_CHECK(congestion_counter_ == nullptr) << "channel already counted";
  congestion_counter_ = counter;
  if (counted_congested_) ++*congestion_counter_;
}

void Channel::set_readiness(InputReadiness* readiness, uint32_t index) {
  DRRS_CHECK(readiness_ == nullptr) << "channel already has a receiver slot";
  readiness_ = readiness;
  ready_index_ = index;
  if (HasInput()) MarkInputReady();
}

void Channel::Push(StreamElement element) {
  DRRS_AUDIT_CALL(sim_->auditor(), OnElementPushed(&element));
  if (output_queue_.empty() && config_.output_buffer_capacity >= 2 &&
      !remote() && CreditInFlight() < config_.input_buffer_capacity) {
    // Direct transmit: the cached path would push, find no congestion
    // (one element, capacity >= 2), ask the gate once and pop it again.
    FaultPlane* faults = sim_->fault_plane();
    if (faults == nullptr || faults->AllowTransmit(*this)) {
      ++direct_transmits_;
      TransmitOne(element, faults);
      ArmWireEvent();
      MaybeFireDecongest();
      return;
    }
    // Refused (partitioned link): cache it without asking the gate again.
    output_queue_.push_back(std::move(element));
    SyncCongestedCount();
    return;
  }
  output_queue_.push_back(std::move(element));
  SyncCongestedCount();
  LatchCongestion();
  NotifyCongestionOnset();
  TryTransmit();
}

void Channel::PushPriority(StreamElement element) {
  DRRS_AUDIT_CALL(sim_->auditor(), OnElementPushed(&element));
  output_queue_.push_front(std::move(element));
  SyncCongestedCount();
  LatchCongestion();
  NotifyCongestionOnset();
  TryTransmit();
}

void Channel::LatchCongestion() {
  if (congested() && !congestion_latched_) {
    congestion_latched_ = true;
    DRRS_TRACE_CALL(sim_->tracer(),
                    OnBackpressureOnset(sender_id_, receiver_id_));
  }
}

void Channel::NotifyCongestionOnset() {
  // Called after the cache grew by one element, so congested() just turned
  // true exactly when the cache sits at capacity.
  if (sender_task_ != nullptr &&
      output_queue_.size() == config_.output_buffer_capacity) {
    sender_task_->OnOutputCongested(this);
  }
}

void Channel::PushBypass(StreamElement element) {
  // Control messages on the bypass path are tiny; model pure propagation.
  // now() is nondecreasing, so bypass arrivals are FIFO like the wire's.
  sim::SimTime arrival = sim_->now() + config_.base_latency;
  if (remote()) {
    router_->PostRemote(this, arrival, std::move(element), /*bypass=*/true);
    return;
  }
  bypass_.emplace_back(arrival, std::move(element));
  ArmBypassEvent();
}

void Channel::BindRemote(RemoteRouter* router, uint32_t sender_partition,
                         uint32_t receiver_partition,
                         sim::Simulator* receiver_sim) {
  DRRS_CHECK(router != nullptr && receiver_sim != nullptr);
  DRRS_CHECK(sender_partition != receiver_partition);
  DRRS_CHECK(output_queue_.empty() && input_queue_.empty() && wire_.empty() &&
             bypass_.empty())
      << "BindRemote must precede any traffic";
  router_ = router;
  sender_partition_ = sender_partition;
  receiver_partition_ = receiver_partition;
  receiver_sim_ = receiver_sim;
  // Receiver-side storage must live where the receiver's worker touches it.
  input_queue_.set_arena(receiver_sim_->arena());
  remote_in_.set_arena(receiver_sim_->arena());
  remote_bypass_.set_arena(receiver_sim_->arena());
}

void Channel::AcceptRemote(sim::SimTime arrival, StreamElement element,
                           bool bypass) {
  DRRS_CHECK(remote());
  if (bypass) {
    remote_bypass_.emplace_back(arrival, std::move(element));
    ArmRemoteBypassEvent();
  } else {
    // NOLINTNEXTLINE(drrs-audit-hook-coverage): ingress was audited on the
    // sender (OnElementRemotelyDeparted); delivery is the receiver-side
    // observation point (DeliverRemoteDueBatch).
    remote_in_.emplace_back(arrival, std::move(element));
    ArmRemoteWireEvent();
  }
}

void Channel::ApplyRemoteCredits(uint32_t n) {
  DRRS_CHECK(remote());
  DRRS_CHECK(remote_unacked_ >= n);
  remote_unacked_ -= n;
  TryTransmit();
}

std::vector<StreamElement> Channel::ExtractFromOutput(
    const std::function<bool(const StreamElement&)>& pred) {
  DRRS_CHECK(!remote()) << "output-cache surgery is partition-local only";
  std::vector<StreamElement> extracted;
  const size_t n = output_queue_.size();
  size_t r = 0;
  while (r < n && !pred(output_queue_[r])) ++r;
  if (r == n) return extracted;  // nothing matches: leave the cache untouched
  // Compact in place: kept elements slide forward over the extracted ones,
  // preserving the relative order of both sequences.
  size_t w = r;
  for (; r < n; ++r) {
    StreamElement& e = output_queue_[r];
    if (pred(e)) {
      extracted.push_back(std::move(e));
    } else {
      output_queue_[w++] = std::move(e);
    }
  }
  output_queue_.truncate(w);
  SyncCongestedCount();
  DRRS_AUDIT_CALL(sim_->auditor(), OnElementsExtracted(extracted));
  MaybeFireDecongest();
  return extracted;
}

std::vector<StreamElement> Channel::ExtractFromOutputBefore(
    const std::function<bool(const StreamElement&)>& pred,
    const std::function<bool(const StreamElement&)>& stop) {
  DRRS_CHECK(!remote()) << "output-cache surgery is partition-local only";
  std::vector<StreamElement> extracted;
  const size_t n = output_queue_.size();
  size_t r = 0;
  for (; r < n; ++r) {
    if (stop(output_queue_[r])) return extracted;  // barrier before any match
    if (pred(output_queue_[r])) break;
  }
  if (r == n) return extracted;
  size_t w = r;
  bool stopped = false;
  for (; r < n; ++r) {
    StreamElement& e = output_queue_[r];
    if (!stopped && stop(e)) stopped = true;
    if (!stopped && pred(e)) {
      extracted.push_back(std::move(e));
    } else {
      output_queue_[w++] = std::move(e);
    }
  }
  output_queue_.truncate(w);
  SyncCongestedCount();
  DRRS_AUDIT_CALL(sim_->auditor(), OnElementsExtracted(extracted));
  MaybeFireDecongest();
  return extracted;
}

bool Channel::InsertAfterFirst(
    const std::function<bool(const StreamElement&)>& match,
    StreamElement element) {
  for (size_t i = 0; i < output_queue_.size(); ++i) {
    if (match(output_queue_[i])) {
      output_queue_.insert(i + 1, std::move(element));
      SyncCongestedCount();
      NotifyCongestionOnset();
      return true;
    }
  }
  return false;
}

bool Channel::OutputContains(
    const std::function<bool(const StreamElement&)>& pred) const {
  for (const StreamElement& e : output_queue_) {
    if (pred(e)) return true;
  }
  return false;
}

StreamElement Channel::PopInput() {
  DRRS_CHECK(!input_queue_.empty());
  StreamElement e = std::move(input_queue_.front());
  // NOLINTNEXTLINE(drrs-audit-hook-coverage): consumption is observed at
  // delivery (OnElementDelivered) and extraction (OnElementsExtracted);
  // the pop itself is credit bookkeeping via NotifyInputConsumed().
  input_queue_.pop_front();
  if (input_queue_.empty()) MarkInputDrained();
  NotifyInputConsumed();
  return e;
}

StreamElement Channel::TakeInputAt(size_t pos) {
  DRRS_CHECK(pos < input_queue_.size());
  StreamElement e = std::move(input_queue_[pos]);
  // NOLINTNEXTLINE(drrs-audit-hook-coverage): the record was observed at
  // delivery; it is processed (OnRecordProcessed) or shed (OnRecordShed,
  // fired by the overload controller) by the caller. The erase itself is
  // credit bookkeeping via NotifyInputConsumed().
  input_queue_.erase(pos);
  if (input_queue_.empty()) MarkInputDrained();
  NotifyInputConsumed();
  return e;
}

StreamElement Channel::RemoveInputAt(size_t pos) {
  ++shed_elements_;
  return TakeInputAt(pos);
}

void Channel::ExtractInput(const std::function<bool(StreamElement&)>& take) {
  // In-place compaction: kept elements slide forward over taken ones,
  // preserving the FIFO order of both sequences.
  const size_t n = input_queue_.size();
  size_t w = 0;
  for (size_t r = 0; r < n; ++r) {
    StreamElement& e = input_queue_[r];
    if (take(e)) continue;
    if (w != r) input_queue_[w] = std::move(e);
    ++w;
  }
  // NOLINTNEXTLINE(drrs-audit-hook-coverage): taken records move to another
  // input cache (AppendInput) and stay tracked there; the truncation only
  // drops the moved-from tail.
  input_queue_.truncate(w);
  if (n > 0 && w == 0) MarkInputDrained();
  for (size_t i = w; i < n; ++i) NotifyInputConsumed();
}

void Channel::AppendInput(StreamElement element) {
  // NOLINTNEXTLINE(drrs-audit-hook-coverage): a splice between two input
  // caches of the same operator; the element was delivered, and observed,
  // on its original channel.
  input_queue_.push_back(std::move(element));
  if (input_queue_.size() == 1) MarkInputReady();
}

void Channel::NotifyInputConsumed() {
  if (remote()) {
    // The sender's transmit state is not touchable from the receiver's
    // worker; return the credit through the reverse mailbox lane instead.
    router_->PostRemoteCredit(this, 1);
    return;
  }
  // Credit released: the wire may admit the next buffered element.
  TryTransmit();
}

void Channel::TryTransmit() {
  FaultPlane* faults = sim_->fault_plane();
  bool sent = false;
  while (!output_queue_.empty() &&
         CreditInFlight() < config_.input_buffer_capacity) {
    if (faults != nullptr && !faults->AllowTransmit(*this)) break;
    StreamElement e = std::move(output_queue_.front());
    output_queue_.pop_front();
    sent = true;
    TransmitOne(e, faults);
  }
  if (sent) {
    SyncCongestedCount();
    ArmWireEvent();
    MaybeFireDecongest();
  }
}

void Channel::TransmitOne(StreamElement& e, FaultPlane* faults) {
  DRRS_AUDIT_CALL(sim_->auditor(), OnElementTransmitted(e));
  DRRS_TRACE_CALL(sim_->tracer(),
                  OnElementTransmitted(e, sender_id_, receiver_id_));
  double bandwidth = config_.bandwidth_bytes_per_us;
  sim::SimTime extra_delay = 0;
  bool duplicate = false;
  if (faults != nullptr) {
    bandwidth *= faults->BandwidthFactor(*this);
    if (e.kind == dataflow::ElementKind::kStateChunk) {
      ChunkFaultDecision verdict = faults->OnChunkTransmit(*this, e);
      if (verdict.drop) {
        // Lost on the wire: the serializer still spent the time, the
        // receiver never sees it. Recovery is the sender's ack timeout.
        sim::SimTime lost_depart = std::max(sim_->now(), link_free_at_);
        link_free_at_ =
            lost_depart + static_cast<sim::SimTime>(
                              static_cast<double>(e.WireBytes()) / bandwidth);
        DRRS_AUDIT_CALL(sim_->auditor(), OnChunkWireDropped(e));
        return;
      }
      extra_delay = verdict.extra_delay;
      duplicate = verdict.duplicate;
    }
  }
  sim::SimTime depart = std::max(sim_->now(), link_free_at_);
  auto transfer = static_cast<sim::SimTime>(
      static_cast<double>(e.WireBytes()) / bandwidth);
  link_free_at_ = depart + transfer + extra_delay;
  sim::SimTime arrival = link_free_at_ + config_.base_latency;
  if (e.kind == dataflow::ElementKind::kStateChunk) {
    DRRS_TRACE_CALL(sim_->tracer(),
                    OnChunkWireFlight(e, sender_id_, receiver_id_, depart,
                                      arrival));
  }
  // A duplicated chunk consumes one extra credit; skip the copy when the
  // window cannot admit it (the injector only best-effort duplicates).
  if (duplicate && CreditInFlight() + 1 < config_.input_buffer_capacity) {
    StreamElement copy = e;
    copy.audit_id = 0;  // untracked by conservation: same logical element
    if (remote()) {
      ++remote_unacked_;
      router_->PostRemote(this, arrival, std::move(copy), /*bypass=*/false);
    } else {
      wire_.emplace_back(arrival, std::move(copy));
    }
  }
  if (remote()) {
    // The element leaves this partition's audit domain: close its
    // lifecycle as a legal egress on the sender auditor and strip the
    // audit identity so the receiver partition's auditor treats it as
    // untracked (ordering stamps still travel with the element).
    DRRS_AUDIT_CALL(sim_->auditor(), OnElementRemotelyDeparted(e));
    e.audit_id = 0;
    ++remote_unacked_;
    router_->PostRemote(this, arrival, std::move(e), /*bypass=*/false);
  } else {
    wire_.emplace_back(arrival, std::move(e));
  }
}

void Channel::ArmWireEvent() {
  if (wire_event_armed_ || wire_.empty()) return;
  wire_event_armed_ = true;
  sim_->ScheduleArrivalAt(
      wire_.front().arrival,
      [](void* arg) { static_cast<Channel*>(arg)->FireWireEvent(); }, this);
}

void Channel::FireWireEvent() {
  // The armed flag stays set while draining so reentrant TryTransmit calls
  // (a receiver consuming synchronously releases credit) cannot double-arm.
  // The outer loop re-checks after each batch: a synchronous consumer can
  // release credit and admit fresh wire entries due at the same instant.
  while (!wire_.empty() && wire_.front().arrival <= sim_->now()) {
    DeliverDueBatch();
  }
  wire_event_armed_ = false;
  ArmWireEvent();
}

void Channel::DeliverDueBatch() {
  // RecordBatch flush: move the due prefix of the wire into the input cache
  // element by element (audit, trace and stats stay per-record), then notify
  // the receiver once for the whole batch.
  const sim::SimTime now = sim_->now();
  const bool was_empty = input_queue_.empty();
  size_t batch = 0;
  while (!wire_.empty() && wire_.front().arrival <= now) {
    // The element moves from the wire slot straight into the input cache;
    // the hooks see it (and the wire depth behind it) just before.
    StreamElement& e = wire_.front().element;
    ++delivered_elements_;
    delivered_bytes_ += e.WireBytes();
    DRRS_AUDIT_CALL(sim_->auditor(),
                    OnElementDelivered(e, wire_.size() - 1,
                                       input_queue_.size() + 1,
                                       config_.input_buffer_capacity,
                                       receiver_id_));
    DRRS_TRACE_CALL(sim_->tracer(),
                    OnElementDelivered(e, receiver_id_,
                                       input_queue_.size() + 1));
    input_queue_.push_back(std::move(e));
    wire_.pop_front();
    ++batch;
  }
  if (was_empty && batch > 0) MarkInputReady();
  ++delivered_batches_;
  max_batch_size_ = std::max<uint64_t>(max_batch_size_, batch);
  ++batch_size_log2_hist_[Log2Bucket(batch)];
  DRRS_TRACE_CALL(sim_->tracer(), OnBatchDelivered(receiver_id_, batch));
  receiver_task_->OnBatchAvailable(this, batch);
  // Note: we do not TryTransmit() here; credit was consumed, not released.
}

void Channel::ArmRemoteWireEvent() {
  if (remote_in_armed_ || remote_in_.empty()) return;
  remote_in_armed_ = true;
  receiver_sim_->ScheduleRawAt(
      remote_in_.front().arrival,
      [](void* arg) { static_cast<Channel*>(arg)->FireRemoteWireEvent(); },
      this);
}

void Channel::FireRemoteWireEvent() {
  // Mirrors FireWireEvent; runs on the receiver partition's worker. All
  // remote_in_ entries were replayed at a barrier strictly before their
  // arrival times (conservative lookahead), so the due-prefix drain is
  // complete for this instant.
  while (!remote_in_.empty() &&
         remote_in_.front().arrival <= receiver_sim_->now()) {
    DeliverRemoteDueBatch();
  }
  remote_in_armed_ = false;
  ArmRemoteWireEvent();
}

void Channel::DeliverRemoteDueBatch() {
  const sim::SimTime now = receiver_sim_->now();
  const bool was_empty = input_queue_.empty();
  size_t batch = 0;
  while (!remote_in_.empty() && remote_in_.front().arrival <= now) {
    StreamElement& e = remote_in_.front().element;
    ++delivered_elements_;
    delivered_bytes_ += e.WireBytes();
    DRRS_AUDIT_CALL(receiver_sim_->auditor(),
                    OnElementDelivered(e, remote_in_.size() - 1,
                                       input_queue_.size() + 1,
                                       config_.input_buffer_capacity,
                                       receiver_id_));
    DRRS_TRACE_CALL(receiver_sim_->tracer(),
                    OnElementDelivered(e, receiver_id_,
                                       input_queue_.size() + 1));
    input_queue_.push_back(std::move(e));
    remote_in_.pop_front();
    ++batch;
  }
  if (was_empty && batch > 0) MarkInputReady();
  ++delivered_batches_;
  max_batch_size_ = std::max<uint64_t>(max_batch_size_, batch);
  ++batch_size_log2_hist_[Log2Bucket(batch)];
  DRRS_TRACE_CALL(receiver_sim_->tracer(), OnBatchDelivered(receiver_id_, batch));
  receiver_task_->OnBatchAvailable(this, batch);
}

void Channel::ArmRemoteBypassEvent() {
  if (remote_bypass_armed_ || remote_bypass_.empty()) return;
  remote_bypass_armed_ = true;
  receiver_sim_->ScheduleRawAt(
      remote_bypass_.front().arrival,
      [](void* arg) { static_cast<Channel*>(arg)->FireRemoteBypassEvent(); },
      this);
}

void Channel::FireRemoteBypassEvent() {
  while (!remote_bypass_.empty() &&
         remote_bypass_.front().arrival <= receiver_sim_->now()) {
    StreamElement e = std::move(remote_bypass_.front().element);
    remote_bypass_.pop_front();
    receiver_task_->OnControlBypass(this, e);
  }
  remote_bypass_armed_ = false;
  ArmRemoteBypassEvent();
}

void Channel::ArmBypassEvent() {
  if (bypass_event_armed_ || bypass_.empty()) return;
  bypass_event_armed_ = true;
  sim_->ScheduleRawAt(
      bypass_.front().arrival,
      [](void* arg) { static_cast<Channel*>(arg)->FireBypassEvent(); }, this);
}

void Channel::FireBypassEvent() {
  while (!bypass_.empty() && bypass_.front().arrival <= sim_->now()) {
    StreamElement e = std::move(bypass_.front().element);
    bypass_.pop_front();
    receiver_task_->OnControlBypass(this, e);
  }
  bypass_event_armed_ = false;
  ArmBypassEvent();
}

void Channel::MaybeFireDecongest() {
  if (!congestion_latched_) return;
  if (output_queue_.size() >= config_.output_buffer_capacity / 2) return;
  congestion_latched_ = false;
  DRRS_TRACE_CALL(sim_->tracer(),
                  OnBackpressureRelease(sender_id_, receiver_id_));
  for (auto& cb : decongest_listeners_) cb();
}

}  // namespace drrs::net
