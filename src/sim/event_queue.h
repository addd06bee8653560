#ifndef DRRS_SIM_EVENT_QUEUE_H_
#define DRRS_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/ring_deque.h"
#include "sim/event_callback.h"
#include "sim/sim_time.h"

namespace drrs::verify {
class Auditor;
}  // namespace drrs::verify

namespace drrs::sim {

/// \brief Priority queue of timed callbacks, ordered by (time, insertion seq).
///
/// Tie-break rule: events scheduled for the same instant fire in the order
/// they were *scheduled* (FIFO by the monotonically increasing insertion
/// sequence). This is a hard guarantee, not a heap accident — the comparator
/// orders on (time, seq) and seq is unique — so simulations are fully
/// deterministic even when many events share a timestamp. The determinism
/// auditor (verify::Auditor, DRRS_AUDIT builds) checks the rule on every pop
/// and counts same-time pops as tie-break hazards.
///
/// The heap entry is a 32-byte POD `{time, seq, fn, arg}`: sift moves are
/// plain word copies, and the engine's hot scheduling sites (channel wire
/// events, task re-arms) pass a captureless-lambda function pointer plus a
/// context pointer directly — no callable object at all. General callables
/// still work through `Schedule(at, EventCallback)`: the callback is boxed
/// in a pooled arena slot and dispatched through a trampoline, with the box
/// recycled on pop. Both paths draw from the same insertion sequence, so
/// mixing them preserves the global FIFO tie-break.
///
/// A key can also be drawn ahead of its event: `ReserveSeq()` takes the next
/// seq without enqueuing anything, and `ScheduleReserved` later enqueues an
/// event under it. The event then orders exactly as if it had been scheduled
/// when its seq was drawn (the simulator's elided task re-arms rely on this).
///
/// In front of the heap sits a one-entry next-event slot that, when full,
/// holds the (time, seq) minimum of the slot and heap. An event that becomes
/// that minimum as it is pushed (typically a task run at now(), armed by a
/// delivery at now()) goes there, and is popped from there, without a sift.
///
/// Beside them runs a FIFO lane for link arrivals (`ScheduleArrival`). An
/// arrival whose key is not below the lane's tail is appended to the lane in
/// O(1); any other arrival takes the slot/heap path. The lane is therefore
/// sorted, and Pop() takes the least of the slot (or heap top) and the lane
/// head, so pop order is the one total (time, seq) order either way. The
/// lane is for arrivals only: wire arrivals of a busy pipeline come in
/// nearly nondecreasing time order, while a lane open to every event would
/// soon hold a far-future timer at its tail and refuse everything after it.
class EventQueue {
 public:
  using Callback = EventCallback;
  /// Hot-path event body: a captureless function taking the context pointer.
  using RawFn = void (*)(void*);

  /// Enqueue a boxed callback to fire at absolute time `at`.
  void Schedule(SimTime at, Callback cb);

  /// Enqueue a raw (function pointer, context) event — allocation-free.
  void ScheduleRaw(SimTime at, RawFn fn, void* arg) {
    Push(Event{at, next_seq_++, fn, arg});
  }

  /// Enqueue a raw link-arrival event: the FIFO lane takes it when its time
  /// is not below the lane's tail, the slot/heap otherwise.
  void ScheduleArrival(SimTime at, RawFn fn, void* arg) {
    const Event e{at, next_seq_++, fn, arg};
    if (lane_.empty() || lane_.back().time <= at) {
      lane_.push_back(e);
    } else {
      Push(e);
    }
  }

  /// Draw the next insertion seq without enqueuing an event.
  uint64_t ReserveSeq() { return next_seq_++; }

  /// Enqueue a raw event under a seq drawn earlier by ReserveSeq(). Each
  /// reserved seq may be used at most once.
  void ScheduleReserved(SimTime at, uint64_t seq, RawFn fn, void* arg) {
    Push(Event{at, seq, fn, arg});
  }

  bool empty() const { return !has_next_ && heap_.empty() && lane_.empty(); }
  size_t size() const {
    return heap_.size() + lane_.size() + (has_next_ ? 1 : 0);
  }

  /// Time of the earliest pending event; kSimTimeMax when empty.
  SimTime PeekTime() const {
    SimTime t = has_next_        ? next_.time
                : heap_.empty() ? kSimTimeMax
                                : heap_.front().time;
    if (!lane_.empty() && lane_.front().time < t) t = lane_.front().time;
    return t;
  }

  /// A popped event, ready to run: call `fn(arg)`. For boxed callbacks, `fn`
  /// is the unboxing trampoline (the box frees itself before invoking).
  struct Fired {
    SimTime time;
    uint64_t seq;
    RawFn fn;
    void* arg;
  };

  /// Pop the earliest event. Caller must check empty() first, then invoke
  /// `fired.fn(fired.arg)` exactly once.
  Fired Pop();

  /// Number of seqs drawn so far: every scheduled event plus every
  /// ReserveSeq() (monotonic insertion counter, also the tie-break
  /// sequence). Diagnostic.
  uint64_t scheduled_count() const { return next_seq_; }

  /// Number of events popped for execution so far. Diagnostic counterpart of
  /// scheduled_count(): `scheduled_count() - popped_count()` is size() plus
  /// the reserved seqs that never reached ScheduleReserved.
  uint64_t popped_count() const { return popped_; }

  /// Auditor notified on every pop (DRRS_AUDIT builds; ignored otherwise).
  void set_auditor(verify::Auditor* auditor) { auditor_ = auditor; }

 private:
  /// 32-byte POD heap entry; sift moves are trivial copies.
  struct Event {
    SimTime time;
    uint64_t seq;
    RawFn fn;
    void* arg;
  };

  /// Pooled home of a boxed EventCallback while its event is pending.
  struct CallbackBox {
    Callback cb;
    EventQueue* owner;
  };

  static void InvokeBox(void* arg);

  // 4-ary heap: half the depth of a binary heap, and the four children of a
  // node share one or two cache lines (32-byte entries), so sift-down does
  // fewer dependent loads. Pop order is unaffected — (time, seq) is a total
  // order, so any valid heap yields the same sequence.
  static constexpr size_t kAryLog2 = 2;
  static constexpr size_t kAry = size_t{1} << kAryLog2;

  /// Branch-free (time, seq) comparison: sifts and the three-way Pop select
  /// compile it to flag arithmetic and conditional moves.
  static bool Later(const Event& a, const Event& b) {
    return (a.time > b.time) | ((a.time == b.time) & (a.seq > b.seq));
  }

  /// Insert `e`, keeping next_ (when full) below every heap entry.
  void Push(const Event& e) {
    if (has_next_) {
      if (!Later(next_, e)) {
        HeapPush(e);
        return;
      }
      HeapPush(next_);
    } else if (!heap_.empty() && !Later(heap_.front(), e)) {
      HeapPush(e);
      return;
    }
    next_ = e;
    has_next_ = true;
  }

  void HeapPush(const Event& e) {
    heap_.push_back(e);
    SiftUp(heap_.size() - 1);
  }

  void SiftUp(size_t i);
  void SiftDown(size_t i);

  /// The next-event slot: valid while has_next_, and then earlier than every
  /// heap entry (the lane is ordered on its own).
  Event next_{};
  bool has_next_ = false;
  // Explicit 4-ary heap over a vector of POD events. Hand-rolled sifts (vs
  // std::push_heap/pop_heap over move-only payloads) keep every move a
  // 32-byte copy.
  std::vector<Event> heap_;
  /// Link arrivals in nondecreasing (time, seq) order.
  RingDeque<Event> lane_;
  uint64_t next_seq_ = 0;
  uint64_t popped_ = 0;
  verify::Auditor* auditor_ = nullptr;
  Arena box_arena_;
  Pool<CallbackBox> box_pool_{&box_arena_};
};

}  // namespace drrs::sim

#endif  // DRRS_SIM_EVENT_QUEUE_H_
