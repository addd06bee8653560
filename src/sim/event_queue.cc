#include "sim/event_queue.h"

#include <utility>

#include "common/logging.h"
#include "verify/audit_hooks.h"

namespace drrs::sim {

void EventQueue::Schedule(SimTime at, Callback cb) {
  CallbackBox* box = box_pool_.New();
  box->cb = std::move(cb);
  box->owner = this;
  ScheduleRaw(at, &EventQueue::InvokeBox, box);
}

void EventQueue::InvokeBox(void* arg) {
  auto* box = static_cast<CallbackBox*>(arg);
  // Move the callback out and recycle the box *before* invoking: the body
  // may schedule new boxed events, which can then reuse the slot.
  Callback cb = std::move(box->cb);
  box->owner->box_pool_.Delete(box);
  cb();
}

EventQueue::Fired EventQueue::Pop() {
  Event top;
  // The slot (else the heap top) competes with the lane head.
  const Event* rest = has_next_ ? &next_ : heap_.empty() ? nullptr : &heap_[0];
  if (!lane_.empty() && (rest == nullptr || Later(*rest, lane_.front()))) {
    top = lane_.front();
    lane_.pop_front();
  } else if (has_next_) {
    top = next_;
    has_next_ = false;
  } else {
    DRRS_CHECK(!heap_.empty());
    top = heap_.front();
    Event last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      SiftDown(0);
    }
  }
  DRRS_AUDIT_CALL(auditor_, OnEventPopped(top.time, top.seq));
  ++popped_;
  return Fired{top.time, top.seq, top.fn, top.arg};
}

void EventQueue::SiftUp(size_t i) {
  Event e = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) >> kAryLog2;
    if (!Later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::SiftDown(size_t i) {
  Event* h = heap_.data();
  const Event e = h[i];
  const size_t n = heap_.size();
  while (true) {
    const size_t first = (i << kAryLog2) + 1;
    if (first >= n) break;
    size_t child;
    static_assert(kAry == 4, "the tournament below assumes four children");
    if (first + kAry <= n) {
      // All four children present: a two-round tournament on index
      // arithmetic, no data-dependent branch.
      const size_t a = first + Later(h[first], h[first + 1]);
      const size_t b = first + 2 + Later(h[first + 2], h[first + 3]);
      child = Later(h[a], h[b]) ? b : a;
    } else {
      child = first;
      for (size_t c = first + 1; c < n; ++c) {
        if (Later(h[child], h[c])) child = c;
      }
    }
    if (!Later(e, h[child])) break;
    h[i] = h[child];
    i = child;
  }
  h[i] = e;
}

}  // namespace drrs::sim
