#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "common/random.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace drrs::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(30, [&] { fired.push_back(3); });
  q.Schedule(10, [&] { fired.push_back(1); });
  q.Schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) {
    EventQueue::Fired f = q.Pop();
    f.fn(f.arg);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBrokenByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) {
    EventQueue::Fired f = q.Pop();
    f.fn(f.arg);
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, TieBreakIsGlobalInsertionOrder) {
  // The tie-break rule is FIFO by the queue-wide insertion sequence, not a
  // per-timestamp counter: among same-time events, whichever was scheduled
  // first (at any point) pops first.
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(7, [&] { fired.push_back(1); });
  q.Schedule(5, [&] { fired.push_back(2); });
  q.Schedule(7, [&] { fired.push_back(3); });
  q.Schedule(5, [&] { fired.push_back(4); });
  while (!q.empty()) {
    EventQueue::Fired f = q.Pop();
    f.fn(f.arg);
  }
  EXPECT_EQ(fired, (std::vector<int>{2, 4, 1, 3}));
}

// Property: a random mix of raw events, boxed callbacks, reserved seqs
// (drawn by ReserveSeq, enqueued later by ScheduleReserved, or never) and
// link arrivals (ScheduleArrival, in and out of time order) pops in the order
// of a reference sort by (time, seq), and size(), empty() and PeekTime()
// agree with the reference after every operation. The next-event slot is
// full after a non-arrival push that made a new minimum of the slot and heap,
// and empty after it is popped. An arrival at or after the lane's tail joins
// the lane; an earlier one takes the slot/heap path. Pops from the slot, the
// heap and the lane must all occur, and so must both kinds of arrival.
TEST(EventQueue, RandomMixPopsInReferenceKeyOrder) {
  struct Pending {
    SimTime time;
    uint64_t seq;
    int id;
    bool lane = false;
  };
  auto earlier = [](const Pending& a, const Pending& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  };
  uint64_t slot_pops = 0;
  uint64_t heap_pops = 0;
  uint64_t lane_pops = 0;
  uint64_t heaped_arrivals = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<Pending> ref;
    std::vector<Pending> reserved;  // seqs drawn, not yet enqueued
    std::deque<int> ids;            // stable homes for raw-event args
    std::vector<int> fired;
    uint64_t next_seq = 0;
    uint64_t abandoned = 0;  // reserved seqs never enqueued
    SimTime floor = 0;       // time of the last pop
    bool slot_full = false;
    size_t lane_size = 0;
    SimTime lane_tail = 0;
    auto push_ref = [&](const Pending& e) {
      if (e.lane) {
        ++lane_size;
        lane_tail = e.time;
      } else {
        bool new_min = true;
        for (const Pending& p : ref) {
          if (!p.lane) new_min = new_min && earlier(e, p);
        }
        if (new_min) slot_full = true;
      }
      ref.push_back(e);
    };
    auto draw_time = [&] {
      return rng.NextBounded(3) == 0
                 ? floor
                 : floor + static_cast<SimTime>(rng.NextBounded(20));
    };
    for (int step = 0; step < 3000; ++step) {
      const uint64_t op = rng.NextBounded(120);
      const int id = static_cast<int>(ids.size());
      if (op >= 100) {
        // A link arrival: mostly at or after the lane's tail (a busy wire),
        // sometimes before it (a short link overtaking a long one).
        SimTime t = draw_time();
        if (op < 112 && lane_size > 0 && t < lane_tail) t = lane_tail;
        ids.push_back(id);
        Pending e{t, next_seq++, id};
        e.lane = lane_size == 0 || t >= lane_tail;
        heaped_arrivals += !e.lane;
        push_ref(e);
        q.ScheduleArrival(t, [](void*) {}, &ids.back());
      } else if (op < 30) {
        const SimTime t = draw_time();
        ids.push_back(id);
        push_ref({t, next_seq++, id});
        q.ScheduleRaw(t, [](void*) {}, &ids.back());
      } else if (op < 45) {
        const SimTime t = draw_time();
        ids.push_back(id);
        push_ref({t, next_seq++, id});
        q.Schedule(t, [&fired, id] { fired.push_back(id); });
      } else if (op < 60) {
        const SimTime t = draw_time();
        ids.push_back(id);
        const uint64_t seq = q.ReserveSeq();
        EXPECT_EQ(seq, next_seq++);
        reserved.push_back({t, seq, id});
      } else if (op < 72 && !reserved.empty()) {
        const size_t pick = rng.NextBounded(reserved.size());
        const Pending r = reserved[pick];
        reserved.erase(reserved.begin() + static_cast<ptrdiff_t>(pick));
        if (r.time < floor) {
          ++abandoned;  // its key was passed: the simulator drops these
        } else {
          push_ref(r);
          q.ScheduleReserved(r.time, r.seq, [](void*) {},
                             &ids[static_cast<size_t>(r.id)]);
        }
      } else if (!ref.empty()) {
        auto min_it = ref.begin();
        for (auto it = ref.begin(); it != ref.end(); ++it) {
          if (earlier(*it, *min_it)) min_it = it;
        }
        const Pending expect = *min_it;
        ref.erase(min_it);
        if (expect.lane) {
          --lane_size;
          ++lane_pops;
        } else {
          (slot_full ? slot_pops : heap_pops) += 1;
          slot_full = false;
        }
        EventQueue::Fired f = q.Pop();
        ASSERT_EQ(f.time, expect.time) << "seed " << seed << " step " << step;
        ASSERT_EQ(f.seq, expect.seq) << "seed " << seed << " step " << step;
        const size_t before = fired.size();
        f.fn(f.arg);
        if (fired.size() == before) {  // a raw event: identify it by arg
          ASSERT_EQ(f.arg, &ids[static_cast<size_t>(expect.id)]);
        } else {
          ASSERT_EQ(fired.back(), expect.id);
        }
        floor = f.time;
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.empty(), ref.empty());
      SimTime peek = kSimTimeMax;
      for (const Pending& p : ref) peek = std::min(peek, p.time);
      ASSERT_EQ(q.PeekTime(), peek);
      ASSERT_EQ(q.scheduled_count() - q.popped_count(),
                q.size() + reserved.size() + abandoned);
    }
  }
  EXPECT_GT(slot_pops, 0u);
  EXPECT_GT(heap_pops, 0u);
  EXPECT_GT(lane_pops, 0u);
  EXPECT_GT(heaped_arrivals, 0u);
}

TEST(EventQueue, PeekTimeEmpty) {
  EventQueue q;
  EXPECT_EQ(q.PeekTime(), kSimTimeMax);
  q.Schedule(42, [] {});
  EXPECT_EQ(q.PeekTime(), 42);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.ScheduleAt(100, [&] { seen = sim.now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime seen = -1;
  sim.ScheduleAt(50, [&] {
    sim.ScheduleAfter(25, [&] { seen = sim.now(); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(seen, 75);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(10, [&] { seen = sim.now(); });  // in the past
  });
  sim.RunUntilIdle();
  EXPECT_EQ(seen, 100);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  sim.ScheduleAt(30, [&] { ++fired; });
  uint64_t n = sim.RunUntil(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StepExecutesOne) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] { ++fired; });
  sim.ScheduleAt(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(Simulator, EventsCanCascade) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.ScheduleAfter(1, recurse);
  };
  sim.ScheduleAt(0, recurse);
  sim.RunUntilIdle();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

TEST(Simulator, ReservedKeysOrderAndPassLikeTheirEvents) {
  Simulator sim;
  std::vector<int> order;
  const Simulator::ReservationSlot slot = sim.NewReservationSlot();
  auto push4 = [](void* arg) { static_cast<std::vector<int>*>(arg)->push_back(4); };
  sim.ScheduleAt(10, [&] {
    order.push_back(1);
    sim.Reserve(slot, 20);  // seq drawn before the two events below
    sim.ScheduleAt(20, [&] { order.push_back(3); });
    sim.ScheduleAt(15, [&] {
      order.push_back(2);
      // Enqueued under the reserved key: ahead of 3 at the same instant.
      EXPECT_TRUE(sim.Redeem(slot, push4, &order));
    });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
  EXPECT_EQ(sim.elided_events(), 0u);

  // Unredeemed, a reservation is a pending no-op: it bounds the next event
  // time, and once passed it moves the clock and counts as elided.
  sim.ScheduleAt(30, [&] { sim.Reserve(slot, 50); });
  sim.RunUntil(40);
  EXPECT_EQ(sim.now(), 30);
  EXPECT_TRUE(sim.reserved(slot));
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.NextEventTime(), 50);
  sim.RunUntil(60);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.elided_events(), 1u);

  // Redeeming a key the frontier passed enqueues nothing.
  sim.ScheduleAt(70, [&] { sim.Reserve(slot, 70); });
  sim.ScheduleAt(80, [&] { EXPECT_FALSE(sim.Redeem(slot, push4, &order)); });
  sim.RunUntilIdle();
  EXPECT_EQ(sim.elided_events(), 2u);
  EXPECT_EQ(sim.executed_events(), 7u);
  EXPECT_EQ(order.size(), 4u);

  // Step passes reservations too, the last ones once the queue is empty.
  sim.ScheduleAt(90, [&] { sim.Reserve(slot, 95); });
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.now(), 95);
  EXPECT_EQ(sim.elided_events(), 3u);
}

TEST(PeriodicProcess, FiresAtPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicProcess p(&sim, 10, 5, [&] { fires.push_back(sim.now()); });
  sim.RunUntil(30);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 15, 20, 25, 30}));
  p.Cancel();
  sim.RunUntil(100);
  EXPECT_EQ(fires.size(), 5u);
}

TEST(PeriodicProcess, CancelFromBody) {
  Simulator sim;
  int count = 0;
  PeriodicProcess* handle = nullptr;
  PeriodicProcess p(&sim, 0, 1, [&] {
    if (++count == 3) handle->Cancel();
  });
  handle = &p;
  sim.RunUntilIdle();
  EXPECT_EQ(count, 3);
}

TEST(PeriodicProcess, DestructionCancelsSafely) {
  Simulator sim;
  int count = 0;
  {
    PeriodicProcess p(&sim, 0, 1, [&] { ++count; });
  }
  sim.RunUntil(10);  // must not crash or fire
  EXPECT_EQ(count, 0);
}

TEST(PeriodicProcess, CancelledFiresAreCountedNotExecuted) {
  // A cancelled process can still have one armed event in the queue; it
  // must fire as a no-op, and the simulator accounts for it so audits can
  // distinguish "no event" from "event swallowed by cancellation".
  Simulator sim;
  int count = 0;
  PeriodicProcess p(&sim, 10, 10, [&] { ++count; });
  sim.ScheduleAt(5, [&] { p.Cancel(); });  // cancel while armed for t=10
  sim.RunUntilIdle();
  EXPECT_EQ(count, 0);
  EXPECT_EQ(sim.cancelled_fires(), 1u);
}

}  // namespace
}  // namespace drrs::sim
