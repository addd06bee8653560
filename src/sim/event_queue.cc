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
  if (has_next_) {
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
  Event e = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t first = (i << kAryLog2) + 1;
    if (first >= n) break;
    size_t last = first + kAry < n ? first + kAry : n;
    size_t child = first;
    for (size_t c = first + 1; c < last; ++c) {
      if (Later(heap_[child], heap_[c])) child = c;
    }
    if (!Later(e, heap_[child])) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

}  // namespace drrs::sim
