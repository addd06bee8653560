#ifndef DRRS_SIM_SIMULATOR_H_
#define DRRS_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/arena.h"
#include "common/logging.h"
#include "common/random.h"
#include "sim/event_queue.h"
#include "sim/sim_time.h"

namespace drrs::verify {
class Auditor;
}  // namespace drrs::verify

namespace drrs::net {
class FaultPlane;
}  // namespace drrs::net

namespace drrs::trace {
class Tracer;
}  // namespace drrs::trace

namespace drrs::sim {

/// \brief Discrete-event simulation driver.
///
/// Owns the virtual clock and the event queue. Engine entities (tasks,
/// channels, coordinators) schedule callbacks; the simulator executes them in
/// timestamp order, advancing the clock between events. Everything is
/// single-threaded and deterministic.
///
/// An event known to be a no-op when armed can be *elided*: its owner
/// reserves the (time, seq) key the event would have had (Reserve) and
/// enqueues it under that key only if something changes before the key is
/// reached (Redeem). A key below the execution frontier (the key of the
/// last popped event) or at or before the horizon of a finished RunUntil
/// stands for a no-op that ran; it is dropped and counted in
/// elided_events(). Keys stay drawn from the one insertion counter, so every
/// other event keeps the seq it always had, and the clock, NextEventTime()
/// and idle() treat reservations as the events they stand for.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute simulated time `at` (clamped to now()).
  void ScheduleAt(SimTime at, EventQueue::Callback cb);

  /// Schedule `cb` after a relative delay (>= 0).
  void ScheduleAfter(SimTime delay, EventQueue::Callback cb);

  /// Allocation-free scheduling for engine hot paths: a captureless function
  /// plus a context pointer. Shares the insertion-sequence counter with the
  /// boxed-callback path, so same-time ordering across both is the global
  /// FIFO schedule order.
  void ScheduleRawAt(SimTime at, EventQueue::RawFn fn, void* arg) {
    queue_.ScheduleRaw(at < now_ ? now_ : at, fn, arg);
  }

  /// Raw scheduling for link arrivals (channel wire events): same ordering
  /// as ScheduleRawAt, but the queue may hold the event in its FIFO arrival
  /// lane instead of the heap (see EventQueue::ScheduleArrival).
  void ScheduleArrivalAt(SimTime at, EventQueue::RawFn fn, void* arg) {
    queue_.ScheduleArrival(at < now_ ? now_ : at, fn, arg);
  }

  /// Raw counterpart of ScheduleAfter (delay must be >= 0).
  void ScheduleRawAfter(SimTime delay, EventQueue::RawFn fn, void* arg) {
    queue_.ScheduleRaw(now_ + delay, fn, arg);
  }

  /// Run events until the queue is empty or `horizon` is passed. Events at
  /// exactly `horizon` still execute. Returns the number of events executed.
  /// Reservations up to `horizon` count as no-op events that ran: the clock
  /// ends on the latest executed or reserved key.
  uint64_t RunUntil(SimTime horizon);

  /// Run until no events remain.
  uint64_t RunUntilIdle() { return RunUntil(kSimTimeMax); }

  /// Execute exactly one event if present (reservations before it pass as
  /// no-ops). Returns false when no event is queued; any reservations left
  /// then pass too, and the clock moves to the latest of them.
  bool Step();

  uint64_t executed_events() const { return executed_; }

  /// Reserved keys that passed without an event: the no-op events elided.
  /// executed_events() + elided_events() is the count of an engine that
  /// enqueued every reserved event.
  uint64_t elided_events() const { return elided_; }

  /// Timestamp of the earliest pending event or reservation, kSimTimeMax
  /// when idle. Meaningful between events (not from inside one).
  SimTime NextEventTime() const {
    SimTime t = queue_.PeekTime();
    if (live_reservations_ > 0) t = std::min(t, EarliestReservation());
    return t;
  }
  bool idle() const { return queue_.empty() && live_reservations_ == 0; }

  /// Advance the clock to `t` without executing anything. Only legal when no
  /// pending event is at or before `t`. The PDES engine uses this at window
  /// barriers so that work triggered at a barrier (credit-released
  /// transmissions, global samplers) is timestamped with the barrier time
  /// rather than the partition's last event time.
  void AdvanceTo(SimTime t);

  // ---- elided events (reserved keys) ----

  /// One owner's reservation slot; it holds at most one reservation.
  using ReservationSlot = uint32_t;
  ReservationSlot NewReservationSlot();

  /// Elide a no-op event at `at` (clamped to now()): draw its seq now and
  /// hold the key in `slot` (which must be empty) without enqueuing. Until
  /// the owner calls Redeem, the event it stands for must be a no-op.
  void Reserve(ReservationSlot slot, SimTime at) {
    Reservation& r = reservations_[slot];
    DRRS_CHECK(r.seq == kFreeSlot) << "slot already holds a reservation";
    r.time = at < now_ ? now_ : at;
    r.seq = queue_.ReserveSeq();
    ++live_reservations_;
  }

  /// The owner is about to change what its elided event would do: enqueue
  /// (fn, arg) under the reserved key and return true, if the key is still
  /// ahead of the execution frontier. A passed key is dropped (its no-op
  /// ran) and counted as elided. Returns false when nothing was enqueued.
  bool Redeem(ReservationSlot slot, EventQueue::RawFn fn, void* arg) {
    Reservation& r = reservations_[slot];
    if (r.seq == kFreeSlot) return false;
    const bool ahead = !Passed(r);
    if (ahead) {
      queue_.ScheduleReserved(r.time, r.seq, fn, arg);
    } else {
      ++elided_;
    }
    r.seq = kFreeSlot;
    --live_reservations_;
    return ahead;
  }

  /// True while `slot` holds a key the frontier has not passed.
  bool reserved(ReservationSlot slot) const {
    const Reservation& r = reservations_[slot];
    return r.seq != kFreeSlot && !Passed(r);
  }

  // ---- logical-process identity (PDES) ----

  /// Which logical process this simulator drives. 0 for standalone
  /// simulators and for the control partition of a partitioned run.
  uint32_t partition_id() const { return partition_id_; }
  void set_partition_id(uint32_t p) { partition_id_ = p; }

  /// Per-partition deterministic random stream: a function of the seed and
  /// the partition id only, never of thread count or scheduling. Partition
  /// sims are seeded by the PdesEngine; standalone simulators default to
  /// stream 0 of seed 0 until SeedRng is called.
  void SeedRng(uint64_t base_seed) {
    rng_ = Rng(base_seed ^ (0x9e3779b97f4a7c15ULL * (partition_id_ + 1)));
  }
  Rng& rng() { return rng_; }

  /// Install (or clear, with nullptr) the invariant auditor. The pointer is
  /// forwarded to the event queue and read by every engine hook site; the
  /// hooks themselves only exist in DRRS_AUDIT builds.
  void set_auditor(verify::Auditor* auditor);
  verify::Auditor* auditor() const { return auditor_; }

  /// Install (or clear, with nullptr) the fault plane consulted by channels.
  /// Null in fault-free runs, so the hot transmit path pays one pointer test.
  void set_fault_plane(net::FaultPlane* plane) { fault_plane_ = plane; }
  net::FaultPlane* fault_plane() const { return fault_plane_; }

  /// Install (or clear, with nullptr) the structured tracer. Like the
  /// auditor, the member exists in every build so layout is identical, but
  /// hook sites that read it only exist in DRRS_TRACE builds (trace_hooks.h).
  void set_tracer(trace::Tracer* tracer);
  trace::Tracer* tracer() const { return tracer_; }

  /// Cancelled periodic events that still fired (as no-ops). A cancelled
  /// PeriodicProcess leaves its already-armed event in the queue by design;
  /// this counter makes the "leak" observable, mirroring
  /// EventQueue::popped_count().
  uint64_t cancelled_fires() const { return cancelled_fires_; }
  void NoteCancelledFire() { ++cancelled_fires_; }

  /// Data-plane arena: channel queue storage and wire batch buffers draw
  /// from here instead of the global heap. Its lifetime is the simulation
  /// run; epoch resets are reserved for owners of private arenas (the
  /// simulator never resets this one mid-run, since channel queues live in
  /// it).
  Arena* arena() { return &arena_; }

 private:
  static constexpr uint64_t kFreeSlot = std::numeric_limits<uint64_t>::max();

  /// A reserved (time, seq) key; seq == kFreeSlot marks an empty slot.
  struct Reservation {
    SimTime time = 0;
    uint64_t seq = kFreeSlot;
  };

  bool Passed(const Reservation& r) const {
    return r.time < frontier_time_ ||
           (r.time == frontier_time_ && r.seq < frontier_seq_);
  }
  SimTime EarliestReservation() const;
  /// Drop every reservation keyed below (t, seq) as a no-op that ran, and
  /// move the clock to the latest of them.
  void PassReservationsBefore(SimTime t, uint64_t seq);

  SimTime now_ = 0;
  uint64_t executed_ = 0;
  uint64_t elided_ = 0;
  /// Key of the last popped event (the execution frontier).
  SimTime frontier_time_ = std::numeric_limits<SimTime>::min();
  uint64_t frontier_seq_ = 0;
  std::vector<Reservation> reservations_;
  size_t live_reservations_ = 0;
  EventQueue queue_;
  Arena arena_;
  verify::Auditor* auditor_ = nullptr;
  net::FaultPlane* fault_plane_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  uint64_t cancelled_fires_ = 0;
  uint32_t partition_id_ = 0;
  Rng rng_{0};
};

/// \brief Helper that re-schedules a callback at a fixed period until
/// cancelled, e.g. metric sampling or planner polling.
class PeriodicProcess {
 public:
  /// Starts firing at `start`, then every `period`. The callback may call
  /// Cancel(). The process must outlive the simulation or be cancelled.
  PeriodicProcess(Simulator* sim, SimTime start, SimTime period,
                  std::function<void()> body);
  ~PeriodicProcess() { Cancel(); }

  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  void Cancel() {
    if (cancel_hook_) cancel_hook_();
  }

 private:
  // Flips a shared cancellation flag owned by the scheduled event chain, so
  // destroying the process never leaves a dangling capture.
  std::function<void()> cancel_hook_;
};

}  // namespace drrs::sim

#endif  // DRRS_SIM_SIMULATOR_H_
