#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "dataflow/key_space.h"
#include "dataflow/operator.h"
#include "metrics/metrics_hub.h"
#include "net/channel.h"
#include "runtime/task.h"
#include "runtime/task_hook.h"
#include "sim/simulator.h"

namespace drrs::runtime {
namespace {

using dataflow::ElementKind;
using dataflow::MakeRecord;
using dataflow::StreamElement;

/// Records the order in which keys reach the operator.
class RecordingOperator : public dataflow::Operator {
 public:
  explicit RecordingOperator(std::vector<dataflow::KeyT>* sink)
      : sink_(sink) {}
  void ProcessRecord(const StreamElement& record,
                     dataflow::OperatorContext* /*ctx*/) override {
    sink_->push_back(record.key);
  }

 private:
  std::vector<dataflow::KeyT>* sink_;
};

/// Hook whose processability is controlled by a key blocklist.
class BlocklistHook : public TaskHook {
 public:
  bool IsProcessable(Task* /*task*/, net::Channel* /*channel*/,
                     const StreamElement& e) override {
    if (e.kind != ElementKind::kRecord || e.rerouted) return true;
    return blocked.count(e.key) == 0;
  }
  std::set<dataflow::KeyT> blocked;
};

class InputHandlerTest : public ::testing::Test {
 protected:
  InputHandlerTest() : key_space_(8) {
    dataflow::OperatorSpec spec;
    spec.name = "probe";
    spec.parallelism = 1;
    spec.is_stateful = false;
    spec.record_cost = sim::Micros(10);
    std::vector<dataflow::KeyT>* sink = &processed_;
    spec.factory = [sink]() {
      return std::make_unique<RecordingOperator>(sink);
    };
    task_ = std::make_unique<Task>(&sim_, spec, /*id=*/0, /*op=*/0,
                                   /*subtask=*/0, &key_space_, &hub_,
                                   /*check_invariants=*/false);
  }

  net::Channel* AddChannel(dataflow::InstanceId sender) {
    net::NetworkConfig cfg;
    cfg.base_latency = sim::Micros(10);
    channels_.push_back(std::make_unique<net::Channel>(&sim_, cfg, sender,
                                                       0, task_.get()));
    task_->AddInputChannel(channels_.back().get());
    return channels_.back().get();
  }

  sim::Simulator sim_;
  metrics::MetricsHub hub_;
  dataflow::KeySpace key_space_;
  std::vector<dataflow::KeyT> processed_;
  std::vector<std::unique_ptr<net::Channel>> channels_;
  std::unique_ptr<Task> task_;
};

TEST_F(InputHandlerTest, ProcessesFifoWithinChannel) {
  net::Channel* ch = AddChannel(100);
  for (uint64_t k = 1; k <= 5; ++k) ch->Push(MakeRecord(k, 0, 0, 0, 64));
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_, (std::vector<dataflow::KeyT>{1, 2, 3, 4, 5}));
}

TEST_F(InputHandlerTest, DefaultSuspendsOnActiveChannelHead) {
  // Channel A's head is blocked; channel B is fully processable. The default
  // (Flink-like) handler parks on the active channel and suspends — the
  // exact inefficiency Fig 6a illustrates.
  BlocklistHook hook;
  hook.blocked = {1};
  task_->set_hook(&hook);
  net::Channel* a = AddChannel(100);
  net::Channel* b = AddChannel(101);
  a->Push(MakeRecord(1, 0, 0, 0, 64));
  a->Push(MakeRecord(2, 0, 0, 0, 64));
  b->Push(MakeRecord(3, 0, 0, 0, 64));
  sim_.RunUntilIdle();
  // The handler may pick channel B first (it scans from its cursor), but as
  // soon as channel A becomes the active candidate it suspends on key 1:
  // key 2 must never be processed while 1 is blocked.
  EXPECT_EQ(std::count(processed_.begin(), processed_.end(), 2), 0);
  EXPECT_TRUE(task_->stalled());  // suspension interval is open
  // Unblocking resumes in order.
  hook.blocked.clear();
  task_->WakeUp();
  sim_.RunUntilIdle();
  EXPECT_EQ(std::count(processed_.begin(), processed_.end(), 1), 1);
  EXPECT_EQ(std::count(processed_.begin(), processed_.end(), 2), 1);
}

TEST_F(InputHandlerTest, ControlHeadsAreConsumedDuringSuspension) {
  BlocklistHook hook;
  hook.blocked = {1};
  task_->set_hook(&hook);
  net::Channel* a = AddChannel(100);
  net::Channel* b = AddChannel(101);
  a->Push(MakeRecord(1, 0, 0, 0, 64));
  // A watermark at the head of channel B must flow even while the task is
  // suspended on channel A's record.
  b->Push(dataflow::MakeWatermark(1234));
  sim_.RunUntilIdle();
  EXPECT_TRUE(processed_.empty());
  EXPECT_EQ(task_->current_watermark(), -1);  // b reported; a has not
  // Watermark was consumed from b's queue nonetheless.
  EXPECT_FALSE(b->HasInput());
}

TEST_F(InputHandlerTest, ReroutedRecordsBypassSuspension) {
  BlocklistHook hook;
  hook.blocked = {1};
  task_->set_hook(&hook);
  net::Channel* a = AddChannel(100);
  net::Channel* rail = AddChannel(200);
  rail->set_scaling_path(true);
  a->Push(MakeRecord(1, 0, 0, 0, 64));  // unprocessable head
  StreamElement rerouted = MakeRecord(7, 0, 0, 0, 64);
  rerouted.rerouted = true;
  rail->Push(rerouted);
  sim_.RunUntilIdle();
  // The re-routed record was handled as a special event despite suspension.
  EXPECT_EQ(processed_, (std::vector<dataflow::KeyT>{7}));
}

TEST_F(InputHandlerTest, BlockedChannelsAreNotServed) {
  net::Channel* a = AddChannel(100);
  net::Channel* b = AddChannel(101);
  a->Push(MakeRecord(1, 0, 0, 0, 64));
  b->Push(MakeRecord(2, 0, 0, 0, 64));
  sim_.RunUntil(sim::Micros(5));  // deliveries not yet complete
  task_->BlockChannel(a);
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_, (std::vector<dataflow::KeyT>{2}));
  task_->UnblockChannel(a);
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_, (std::vector<dataflow::KeyT>{2, 1}));
}

TEST_F(InputHandlerTest, WatermarkRequiresAllChannels) {
  net::Channel* a = AddChannel(100);
  net::Channel* b = AddChannel(101);
  a->Push(dataflow::MakeWatermark(sim::Seconds(5)));
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), -1);  // b never reported
  b->Push(dataflow::MakeWatermark(sim::Seconds(3)));
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(3));  // min over channels
  b->Push(dataflow::MakeWatermark(sim::Seconds(8)));
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(5));
}

TEST_F(InputHandlerTest, SideWatermarkHoldsOperatorWatermark) {
  net::Channel* a = AddChannel(100);
  task_->RegisterSideSender(50);  // what opening a rail from 50 does
  task_->MergeSideWatermark(/*from=*/50, sim::Seconds(2));
  a->Push(dataflow::MakeWatermark(sim::Seconds(10)));
  sim_.RunUntilIdle();
  // Held back by the migrating instance's side watermark.
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(2));
  task_->MergeSideWatermark(50, sim::Seconds(6));
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(6));
  task_->ClearSideWatermark(50);
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(10));
}

TEST_F(InputHandlerTest, ScalingPathWatermarksGoToSideMap) {
  net::Channel* a = AddChannel(100);
  net::Channel* rail = AddChannel(200);
  rail->set_scaling_path(true);
  task_->RegisterSideSender(rail->sender_id());
  // The side constraint must be in place before the regular watermark (the
  // strategies seed it at subscale launch); operator watermarks are
  // monotonic, so a late side watermark cannot lower an already-advanced
  // one.
  StreamElement w = dataflow::MakeWatermark(sim::Seconds(4));
  w.from_instance = 200;
  rail->Push(w);
  sim_.RunUntilIdle();
  a->Push(dataflow::MakeWatermark(sim::Seconds(9)));
  sim_.RunUntilIdle();
  // Held at the rail sender's watermark despite the regular channel's 9s.
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(4));
  task_->ClearSideWatermark(200);
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(9));
}

TEST_F(InputHandlerTest, LateRailWatermarkAfterReleaseIsDropped) {
  // A watermark forwarded before the rail was released can still be queued
  // on it; arriving after the release it must not re-create the constraint.
  net::Channel* a = AddChannel(100);
  net::Channel* rail = AddChannel(200);
  rail->set_scaling_path(true);
  task_->RegisterSideSender(rail->sender_id());
  StreamElement w = dataflow::MakeWatermark(sim::Seconds(4));
  w.from_instance = 200;
  rail->Push(w);
  sim_.RunUntilIdle();
  task_->ClearSideWatermark(rail->sender_id());
  rail->Push(w);  // the stale one
  sim_.RunUntilIdle();
  a->Push(dataflow::MakeWatermark(sim::Seconds(9)));
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(9));
  // An unregistered sender is ignored outright.
  task_->MergeSideWatermark(/*from=*/77, sim::Seconds(1));
  a->Push(dataflow::MakeWatermark(sim::Seconds(12)));
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(12));
}

TEST_F(InputHandlerTest, SuspensionMemoStillWakesOnNewHead) {
  BlocklistHook hook;
  hook.blocked = {1};
  task_->set_hook(&hook);
  net::Channel* a = AddChannel(100);
  net::Channel* b = AddChannel(101);
  a->Push(MakeRecord(1, 0, 0, 0, 64));
  sim_.RunUntilIdle();  // suspends; memo set
  EXPECT_TRUE(processed_.empty());
  // A processable record arriving at the head of an empty channel wakes the
  // task despite the memo. Under the *default* handler the task still parks
  // on the active channel (that is its Flink-like semantics), so nothing is
  // processed — but the memo must have been cleared and re-evaluated, which
  // we observe through the stall interval being re-entered, and through
  // instant progress once the head unblocks.
  b->Push(MakeRecord(5, 0, 0, 0, 64));
  sim_.RunUntilIdle();
  EXPECT_FALSE(task_->suspend_memo() && processed_.empty() &&
               !task_->stalled());
  hook.blocked.clear();
  task_->WakeUp();
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_.size(), 2u);
}

TEST_F(InputHandlerTest, FreezeDefersEverything) {
  net::Channel* a = AddChannel(100);
  task_->Freeze();
  a->Push(MakeRecord(1, 0, 0, 0, 64));
  sim_.RunUntilIdle();
  EXPECT_TRUE(processed_.empty());
  task_->Unfreeze();
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_.size(), 1u);
}

// ---------------------------------------------------------------------------
// Elided re-arms. When a dispatch leaves every input cache empty, the task's
// trailing re-arm is not enqueued: its (time, seq) key is reserved, and the
// first thing that would have found that event pending enqueues it under the
// reserved key. The expected values below were recorded with every re-arm
// enqueued as a real event; the elision must not move any of them.
// ---------------------------------------------------------------------------

/// Records (key, time) of every processed record.
class TimedRecordingOperator : public dataflow::Operator {
 public:
  using Log = std::vector<std::pair<dataflow::KeyT, sim::SimTime>>;
  explicit TimedRecordingOperator(Log* log) : log_(log) {}
  void ProcessRecord(const StreamElement& record,
                     dataflow::OperatorContext* ctx) override {
    log_->emplace_back(record.key, ctx->now());
  }

 private:
  Log* log_;
};

/// Consumes every delivered element at once, returning its credit.
class DrainingReceiver : public net::ChannelReceiver {
 public:
  void OnBatchAvailable(net::Channel* channel, size_t /*appended*/) override {
    while (channel->HasInput()) channel->PopInput();
  }
  void OnControlBypass(net::Channel* /*channel*/,
                       const StreamElement& /*element*/) override {}
};

TEST(ElidedRearm, KeepsSameInstantOrderStallsAndClock) {
  sim::Simulator sim;
  metrics::MetricsHub hub;
  dataflow::KeySpace key_space(8);
  TimedRecordingOperator::Log log;
  dataflow::OperatorSpec spec;
  spec.name = "probe";
  spec.parallelism = 1;
  spec.record_cost = sim::Micros(100);
  spec.factory = [&log]() {
    return std::make_unique<TimedRecordingOperator>(&log);
  };
  Task task(&sim, spec, /*id=*/0, /*op=*/0, /*subtask=*/0, &key_space, &hub,
            /*check_invariants=*/false);

  // Two inputs with different latencies; 64-byte records serialize in 0 us.
  net::NetworkConfig a_cfg;
  a_cfg.base_latency = sim::Micros(50);
  net::NetworkConfig b_cfg;
  b_cfg.base_latency = sim::Micros(150);
  net::Channel a(&sim, a_cfg, 100, 0, &task);
  net::Channel b(&sim, b_cfg, 101, 0, &task);
  task.AddInputChannel(&a);
  task.AddInputChannel(&b);
  // One output whose cache congests at 4 elements: one element in flight
  // (credit window 1) for 1 ms, the rest wait in the cache.
  DrainingReceiver downstream;
  net::NetworkConfig out_cfg;
  out_cfg.base_latency = sim::Micros(1000);
  out_cfg.input_buffer_capacity = 1;
  out_cfg.output_buffer_capacity = 4;
  net::Channel out(&sim, out_cfg, 0, 200, &downstream);
  out.set_sender(&task);
  OutputEdge edge;
  edge.channels.push_back(&out);
  task.AddOutputEdge(std::move(edge));

  auto push_at = [&sim](sim::SimTime t, net::Channel* ch, dataflow::KeyT k) {
    sim.ScheduleAt(t, [ch, k] { ch->Push(MakeRecord(k, 0, 0, 0, 64)); });
  };
  // Phase 1: k1 runs at 50 and leaves the re-arm at 150 elided. k2 lands on
  // b at 150 with a wire event armed before the reservation; k3 lands on a
  // at 110 (before the re-arm), k4 on a at 150 with a later seq.
  a.Push(MakeRecord(1, 0, 0, 0, 64));
  b.Push(MakeRecord(2, 0, 0, 0, 64));
  push_at(sim::Micros(60), &a, 3);
  push_at(sim::Micros(100), &a, 4);
  // Phase 2: k6 runs at 1000 (re-arm at 1100 elided). k7 lands on b at 1060
  // and wakes the task; k8's wire event on a is armed at 1050, between the
  // reservation and that wake-up, and lands at 1100 right after the
  // re-arm's key. Re-seq'ing the re-arm at the wake-up would let k8 arrive
  // first and be served first.
  push_at(sim::Micros(910), &b, 7);
  push_at(sim::Micros(950), &a, 6);
  push_at(sim::Micros(1050), &a, 8);
  // Phase 3: k9 runs at 2000 (re-arm at 2100 elided). At 2020 priority
  // pushes fill the output cache; the elided re-arm must still open the
  // backpressure stall at 2100, which lasts until the cache drains below
  // half at 5020.
  push_at(sim::Micros(1950), &a, 9);
  sim.ScheduleAt(sim::Micros(2020), [&out] {
    for (dataflow::KeyT k = 50; k < 55; ++k) {
      out.PushPriority(MakeRecord(k, 0, 0, 0, 64));
    }
  });
  // Phase 4: the last logical event before each horizon is an elided re-arm.
  push_at(sim::Micros(9950), &a, 10);
  push_at(sim::Micros(19950), &a, 11);

  sim.RunUntil(sim::Micros(2100));
  EXPECT_TRUE(task.stalled());
  EXPECT_EQ(task.stall_reason(), metrics::StallReason::kBackpressure);
  sim.RunUntil(sim::Micros(10200));
  EXPECT_EQ(sim.now(), sim::Micros(10100));
  EXPECT_FALSE(task.stalled());
  EXPECT_EQ(hub.scaling().BackpressureTime(), sim::Micros(2920));
  sim.RunUntilIdle();
  EXPECT_EQ(sim.now(), sim::Micros(20100));

  const TimedRecordingOperator::Log expected = {
      {1, sim::Micros(50)},    {3, sim::Micros(150)},
      {4, sim::Micros(250)},   {2, sim::Micros(350)},
      {6, sim::Micros(1000)},  {7, sim::Micros(1100)},
      {8, sim::Micros(1200)},  {9, sim::Micros(2000)},
      {10, sim::Micros(10000)}, {11, sim::Micros(20000)}};
  EXPECT_EQ(log, expected);
  // Every re-arm the engine used to run is either executed or elided.
  EXPECT_EQ(sim.executed_events() + sim.elided_events(), 40u);
  EXPECT_GT(sim.elided_events(), 0u);
}

/// Accepts deliveries and leaves them in the input cache.
class ParkingReceiver : public net::ChannelReceiver {
 public:
  void OnBatchAvailable(net::Channel* /*channel*/, size_t /*appended*/) override {}
  void OnControlBypass(net::Channel* /*channel*/,
                       const StreamElement& /*element*/) override {}
};

TEST(Readiness, BitsAndCongestionCountFollowEveryMutation) {
  size_t processed_total = 0;
  uint64_t congested_steps = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    sim::Simulator sim;
    metrics::MetricsHub hub;
    dataflow::KeySpace key_space(8);
    std::vector<dataflow::KeyT> processed;
    dataflow::OperatorSpec spec;
    spec.name = "probe";
    spec.parallelism = 1;
    spec.record_cost = sim::Micros(10);
    spec.factory = [&processed]() {
      return std::make_unique<RecordingOperator>(&processed);
    };
    Task task(&sim, spec, /*id=*/0, /*op=*/0, /*subtask=*/0, &key_space, &hub,
              /*check_invariants=*/false);
    task.Freeze();  // the test mutates the caches; "run" ops thaw it briefly

    // Inputs: six regular channels and two rails, small credit windows.
    std::vector<std::unique_ptr<net::Channel>> owned;
    std::vector<net::Channel*> inputs;
    std::vector<net::Channel*> rails;
    for (int i = 0; i < 8; ++i) {
      net::NetworkConfig cfg;
      cfg.base_latency = sim::Micros(5 + 5 * i);
      cfg.input_buffer_capacity = 2 + rng.NextBounded(4);
      owned.push_back(std::make_unique<net::Channel>(
          &sim, cfg, static_cast<dataflow::InstanceId>(100 + i), 0, &task));
      net::Channel* ch = owned.back().get();
      if (i >= 6) {
        ch->set_scaling_path(true);
        rails.push_back(ch);
      }
      task.AddInputChannel(ch);
      inputs.push_back(ch);
    }
    // Outputs: two edges of three channels plus an outgoing rail (in no
    // edge, so it never counts). Capacities 1..4 congest often.
    ParkingReceiver downstream;
    std::vector<net::Channel*> outputs;
    std::vector<net::Channel*> edge_channels;
    for (int e = 0; e < 2; ++e) {
      OutputEdge edge;
      for (int i = 0; i < 3; ++i) {
        net::NetworkConfig cfg;
        cfg.base_latency = sim::Micros(20);
        cfg.input_buffer_capacity = 1 + rng.NextBounded(3);
        cfg.output_buffer_capacity = 1 + rng.NextBounded(4);
        owned.push_back(std::make_unique<net::Channel>(
            &sim, cfg, 0, static_cast<dataflow::InstanceId>(200 + 3 * e + i),
            &downstream));
        owned.back()->set_sender(&task);
        edge.channels.push_back(owned.back().get());
      }
      if (e == 0) {
        for (net::Channel* ch : edge.channels) edge_channels.push_back(ch);
        task.AddOutputEdge(std::move(edge));
      } else {
        // The second edge starts empty and grows like a scale-out's.
        OutputEdge grown;
        task.AddOutputEdge(std::move(grown));
        for (net::Channel* ch : edge.channels) {
          task.AddOutputChannel(&task.output_edges().back(), ch);
          edge_channels.push_back(ch);
        }
      }
    }
    net::NetworkConfig rail_cfg;
    rail_cfg.output_buffer_capacity = 1;
    rail_cfg.input_buffer_capacity = 1;
    net::Channel out_rail(&sim, rail_cfg, 0, 300, &downstream);
    out_rail.set_sender(&task);
    outputs = edge_channels;
    outputs.push_back(&out_rail);

    auto element = [&rng](dataflow::KeyT key) {
      if (rng.NextBounded(8) == 0) return dataflow::MakeWatermark(0);
      return MakeRecord(key, 0, 0, 0, 64);
    };
    auto pick = [&rng](const std::vector<net::Channel*>& v) {
      return v[rng.NextBounded(v.size())];
    };
    auto is_odd = [](const StreamElement& e) { return (e.key & 1) != 0; };
    auto is_mark = [](const StreamElement& e) {
      return e.kind == ElementKind::kWatermark;
    };
    std::vector<StreamElement> trash;
    for (int step = 0; step < 1500; ++step) {
      const auto key = static_cast<dataflow::KeyT>(rng.NextBounded(64));
      const uint64_t op = rng.NextBounded(15);
      net::Channel* in = pick(inputs);
      net::Channel* out = pick(outputs);
      switch (op) {
        case 0:  // delivery: push upstream of an input, let the wire run
          in->Push(element(key));
          sim.RunUntil(sim.now() + sim::Micros(rng.NextBounded(60)));
          break;
        case 1:  // pop
          if (in->HasInput()) in->PopInput();
          break;
        case 2:  // shed
          if (in->HasInput()) {
            in->RemoveInputAt(rng.NextBounded(in->input_queue_size()));
          }
          break;
        case 3:  // DRRS intra-channel erase
          if (in->HasInput()) {
            in->TakeInputAt(rng.NextBounded(in->input_queue_size()));
          }
          break;
        case 4: {  // compaction onto a rail
          net::Channel* rail = pick(rails);
          if (in == rail) break;
          const uint64_t mode = rng.NextBounded(3);
          in->ExtractInput([&](StreamElement& e) {
            const bool take = mode == 0 || (mode == 1 && (e.key & 1) != 0);
            if (take) rail->AppendInput(std::move(e));
            return take;
          });
          break;
        }
        case 5:  // rail append
          pick(rails)->AppendInput(MakeRecord(key, 0, 0, 0, 64));
          break;
        case 6:
        case 7:  // emission
          out->Push(element(key));
          break;
        case 8:
          out->PushPriority(element(key));
          break;
        case 9:
          trash = out->ExtractFromOutput(is_odd);
          break;
        case 10:
          trash = out->ExtractFromOutputBefore(is_odd, is_mark);
          break;
        case 11:
          out->InsertAfterFirst(is_mark, MakeRecord(key, 0, 0, 0, 64));
          break;
        case 12:  // downstream consumes: credit flows back, caches drain
          if (out->HasInput()) out->PopInput();
          sim.RunUntil(sim.now() + sim::Micros(rng.NextBounded(40)));
          break;
        case 13:  // the task itself selects and dispatches for a while
          task.Unfreeze();
          sim.RunUntil(sim.now() + sim::Micros(rng.NextBounded(50)));
          task.Freeze();
          break;
        default:  // time passes
          sim.RunUntil(sim.now() + sim::Micros(rng.NextBounded(100)));
          break;
      }
      for (size_t i = 0; i < inputs.size(); ++i) {
        ASSERT_EQ(task.input_readiness().test(i), inputs[i]->HasInput())
            << "seed " << seed << " step " << step << " op " << op
            << " input " << i;
      }
      uint32_t congested = 0;
      for (net::Channel* ch : edge_channels) congested += ch->congested();
      ASSERT_EQ(task.congested_outputs(), congested)
          << "seed " << seed << " step " << step << " op " << op;
      congested_steps += congested > 0;
    }
    processed_total += processed.size();
  }
  EXPECT_GT(processed_total, 0u);
  EXPECT_GT(congested_steps, 0u);
}

}  // namespace
}  // namespace drrs::runtime
