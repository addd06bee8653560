#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "trace/trace_hooks.h"
#include "trace/tracer.h"
#include "verify/auditor.h"

namespace drrs::sim {

void Simulator::set_auditor(verify::Auditor* auditor) {
  auditor_ = auditor;
  queue_.set_auditor(auditor);
  if (auditor != nullptr) auditor->AttachSimulator(this);
}

void Simulator::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer != nullptr) tracer->AttachSimulator(this);
}

void Simulator::ScheduleAt(SimTime at, EventQueue::Callback cb) {
  if (at < now_) at = now_;
  queue_.Schedule(at, std::move(cb));
}

void Simulator::ScheduleAfter(SimTime delay, EventQueue::Callback cb) {
  DRRS_CHECK(delay >= 0);
  queue_.Schedule(now_ + delay, std::move(cb));
}

uint64_t Simulator::RunUntil(SimTime horizon) {
  uint64_t n = 0;
  while (!queue_.empty() && queue_.PeekTime() <= horizon) {
    EventQueue::Fired f = queue_.Pop();
    now_ = f.time;
    frontier_time_ = f.time;
    frontier_seq_ = f.seq;
    f.fn(f.arg);
    ++n;
    ++executed_;
    DRRS_TRACE_CALL(tracer_, OnEventExecuted(now_, queue_.size()));
  }
  // Every key up to the horizon has run: reserved ones as no-ops. The clock
  // does not advance past the last of them; callers that want
  // now() == horizon after a quiet period schedule a sentinel event.
  PassReservationsBefore(horizon, std::numeric_limits<uint64_t>::max());
  return n;
}

void Simulator::AdvanceTo(SimTime t) {
  if (t <= now_) return;
  DRRS_CHECK(NextEventTime() > t)
      << "AdvanceTo would skip over a pending event";
  now_ = t;
}

bool Simulator::Step() {
  if (queue_.empty()) {
    PassReservationsBefore(kSimTimeMax, std::numeric_limits<uint64_t>::max());
    return false;
  }
  EventQueue::Fired f = queue_.Pop();
  PassReservationsBefore(f.time, f.seq);
  now_ = f.time;
  frontier_time_ = f.time;
  frontier_seq_ = f.seq;
  f.fn(f.arg);
  ++executed_;
  DRRS_TRACE_CALL(tracer_, OnEventExecuted(now_, queue_.size()));
  return true;
}

Simulator::ReservationSlot Simulator::NewReservationSlot() {
  reservations_.emplace_back();
  return static_cast<ReservationSlot>(reservations_.size() - 1);
}

SimTime Simulator::EarliestReservation() const {
  SimTime t = kSimTimeMax;
  for (const Reservation& r : reservations_) {
    if (r.seq != kFreeSlot) t = std::min(t, r.time);
  }
  return t;
}

void Simulator::PassReservationsBefore(SimTime t, uint64_t seq) {
  if (live_reservations_ == 0) return;
  for (Reservation& r : reservations_) {
    if (r.seq == kFreeSlot) continue;
    if (r.time > t || (r.time == t && r.seq > seq)) continue;
    now_ = std::max(now_, r.time);
    r.seq = kFreeSlot;
    --live_reservations_;
    ++elided_;
  }
}

namespace {
// Shared cancellation token: the pending event holds the token by value so a
// destroyed PeriodicProcess never leaves a dangling capture.
struct PeriodicState {
  Simulator* sim;
  SimTime period;
  std::function<void()> body;
  bool cancelled = false;
};

void FirePeriodic(const std::shared_ptr<PeriodicState>& state) {
  if (state->cancelled) {
    // The armed event outlives its cancellation by design (the shared token
    // keeps captures valid); count the no-op fire so audits can see it.
    state->sim->NoteCancelledFire();
    return;
  }
  state->body();
  if (state->cancelled) return;
  state->sim->ScheduleAfter(state->period,
                            [state]() { FirePeriodic(state); });
}
}  // namespace

PeriodicProcess::PeriodicProcess(Simulator* sim, SimTime start, SimTime period,
                                 std::function<void()> body) {
  DRRS_CHECK(period > 0);
  auto state = std::make_shared<PeriodicState>();
  state->sim = sim;
  state->period = period;
  state->body = std::move(body);
  cancel_hook_ = [state]() { state->cancelled = true; };
  sim->ScheduleAt(start, [state]() { FirePeriodic(state); });
}

}  // namespace drrs::sim
