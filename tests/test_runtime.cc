#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.h"
#include "metrics/metrics_hub.h"
#include "runtime/checkpoint.h"
#include "runtime/execution_graph.h"
#include "sim/simulator.h"
#include "workloads/workloads.h"

namespace drrs::runtime {
namespace {

using workloads::BuildCustomWorkload;
using workloads::CustomParams;

CustomParams SmallParams() {
  CustomParams p;
  p.events_per_second = 2000;
  p.num_keys = 500;
  p.duration = sim::Seconds(10);
  p.record_cost = sim::Micros(100);
  p.source_parallelism = 2;
  p.agg_parallelism = 4;
  p.sink_parallelism = 1;
  p.num_key_groups = 32;
  return p;
}

struct Engine {
  explicit Engine(const CustomParams& params)
      : workload(BuildCustomWorkload(params)),
        graph(&sim, workload.graph, runtime::EngineConfig{}, &hub) {
    Status st = graph.Build();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  sim::Simulator sim;
  metrics::MetricsHub hub;
  workloads::WorkloadSpec workload;
  ExecutionGraph graph;
};

TEST(ExecutionGraph, BuildsTasksAndChannels) {
  Engine e(SmallParams());
  EXPECT_EQ(e.graph.task_count(), 2u + 4u + 1u);
  EXPECT_EQ(e.graph.parallelism_of(e.workload.scaled_op), 4u);
  // Key-groups fully assigned across aggregator instances.
  size_t owned = 0;
  for (Task* t : e.graph.instances_of(e.workload.scaled_op)) {
    owned += t->state()->owned_key_groups().size();
  }
  EXPECT_EQ(owned, 32u);
  // Each aggregator instance has one input channel per source instance.
  EXPECT_EQ(e.graph.instance(e.workload.scaled_op, 0)->input_channels().size(),
            2u);
}

TEST(ExecutionGraph, EndToEndProcessesEverything) {
  Engine e(SmallParams());
  e.graph.Start();
  e.sim.RunUntilIdle();
  // ~2000 ev/s for 10 s across 2 sources (exponential gaps: allow slack).
  EXPECT_GT(e.hub.source_rate().total(), 15000u);
  // Aggregator emits one output per input; sink sees them all.
  EXPECT_EQ(e.hub.sink_rate().total(), e.hub.source_rate().total());
  EXPECT_TRUE(e.hub.invariants().Clean());
}

TEST(ExecutionGraph, ProcessedStateMatchesSourceCount) {
  Engine e(SmallParams());
  e.graph.Start();
  e.sim.RunUntilIdle();
  int64_t total_counter = 0;
  for (Task* t : e.graph.instances_of(e.workload.scaled_op)) {
    for (dataflow::KeyGroupId kg : t->state()->owned_key_groups()) {
      t->state()->ForEachKey(kg, [&](dataflow::KeyT key) {
        total_counter += t->state()->Get(kg, key)->counter;
      });
    }
  }
  EXPECT_EQ(static_cast<uint64_t>(total_counter),
            e.hub.source_rate().total());
}

TEST(ExecutionGraph, LatencyMarkersFlow) {
  Engine e(SmallParams());
  e.graph.Start();
  e.sim.RunUntilIdle();
  const auto& lat = e.hub.latency_ms();
  ASSERT_GT(lat.size(), 10u);
  // Uncongested pipeline: latency should be a few ms (network + queueing).
  EXPECT_LT(lat.MeanIn(0, sim::kSimTimeMax), 100.0);
  EXPECT_GT(lat.MeanIn(0, sim::kSimTimeMax), 0.0);
}

TEST(ExecutionGraph, WatermarksReachScaledOperator) {
  Engine e(SmallParams());
  e.graph.Start();
  e.sim.RunUntilIdle();
  for (Task* t : e.graph.instances_of(e.workload.scaled_op)) {
    EXPECT_GT(t->current_watermark(), sim::Seconds(5));
  }
}

TEST(ExecutionGraph, BackpressureSlowsSourceNotLosesData) {
  CustomParams p = SmallParams();
  p.record_cost = sim::Micros(3000);  // aggregator capacity << input rate
  p.duration = sim::Seconds(5);
  Engine e(p);
  e.graph.Start();
  e.sim.RunUntilIdle();
  // All records eventually processed despite sustained backpressure.
  EXPECT_EQ(e.hub.sink_rate().total(), e.hub.source_rate().total());
  EXPECT_TRUE(e.hub.invariants().Clean());
  // Latency reflects the backlog: far above the uncongested baseline.
  EXPECT_GT(e.hub.latency_ms().MaxIn(0, sim::kSimTimeMax), 500.0);
  // Backpressure stall time was recorded.
  EXPECT_GT(e.hub.scaling().BackpressureTime(), 0);
}

TEST(ExecutionGraph, AddInstancesWiresChannels) {
  Engine e(SmallParams());
  auto added = e.graph.AddInstances(e.workload.scaled_op, 2);
  ASSERT_EQ(added.size(), 2u);
  EXPECT_EQ(e.graph.parallelism_of(e.workload.scaled_op), 6u);
  // New instance: inputs from both sources, outputs to the sink.
  Task* fresh = added[0];
  EXPECT_EQ(fresh->input_channels().size(), 2u);
  ASSERT_EQ(fresh->output_edges().size(), 1u);
  EXPECT_EQ(fresh->output_edges()[0].channels.size(), 1u);
  // Predecessor edges grew to 6 channels.
  for (Task* pred : e.graph.PredecessorTasksOf(e.workload.scaled_op)) {
    EXPECT_EQ(e.graph.FindEdgeTo(pred, e.workload.scaled_op)->channels.size(),
              6u);
  }
  // New instances own nothing yet.
  EXPECT_TRUE(fresh->state()->owned_key_groups().empty());
}

TEST(ExecutionGraph, ScalingChannelIsCached) {
  Engine e(SmallParams());
  Task* a = e.graph.instance(e.workload.scaled_op, 0);
  Task* b = e.graph.instance(e.workload.scaled_op, 1);
  net::Channel* c1 = e.graph.GetOrCreateScalingChannel(a, b);
  net::Channel* c2 = e.graph.GetOrCreateScalingChannel(a, b);
  EXPECT_EQ(c1, c2);
  EXPECT_TRUE(c1->scaling_path());
  EXPECT_EQ(e.graph.FindScalingChannel(a->id(), b->id()), c1);
  EXPECT_EQ(e.graph.FindScalingChannel(b->id(), a->id()), nullptr);
}

TEST(ExecutionGraph, FreezeStopsProcessing) {
  Engine e(SmallParams());
  e.graph.Start();
  e.sim.RunUntil(sim::Seconds(2));
  uint64_t at_freeze = e.hub.source_rate().total();
  for (size_t i = 0; i < e.graph.task_count(); ++i) {
    e.graph.task(static_cast<dataflow::InstanceId>(i))->Freeze();
  }
  e.sim.RunUntil(sim::Seconds(4));
  EXPECT_EQ(e.hub.source_rate().total(), at_freeze);
  for (size_t i = 0; i < e.graph.task_count(); ++i) {
    e.graph.task(static_cast<dataflow::InstanceId>(i))->Unfreeze();
  }
  e.sim.RunUntilIdle();
  EXPECT_GT(e.hub.source_rate().total(), at_freeze);
  EXPECT_EQ(e.hub.sink_rate().total(), e.hub.source_rate().total());
}

TEST(Checkpoint, CompletesAndSnapshotsState) {
  Engine e(SmallParams());
  CheckpointCoordinator coordinator(&e.graph);
  e.graph.Start();
  uint64_t id = 0;
  e.sim.ScheduleAt(sim::Seconds(3), [&] { id = coordinator.Trigger(); });
  e.sim.RunUntilIdle();
  ASSERT_TRUE(coordinator.IsComplete(id));
  const CheckpointData* data = coordinator.Get(id);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->snapshots.size(), e.graph.task_count());
  EXPECT_GT(data->complete_time, data->trigger_time);
  // Aggregator snapshots are non-empty and their counters are consistent
  // with a prefix of the stream (barrier at ~3 s of a 10 s run).
  int64_t counted = 0;
  for (const auto& [instance, groups] : data->snapshots) {
    for (const auto& g : groups) {
      g.cells.ForEach([&](dataflow::KeyT, const state::StateCell& cell) {
        counted += cell.counter;
      });
    }
  }
  EXPECT_GT(counted, 0);
  EXPECT_LT(static_cast<uint64_t>(counted), e.hub.source_rate().total());
}

TEST(Checkpoint, RestoreRoundTrip) {
  Engine e(SmallParams());
  CheckpointCoordinator coordinator(&e.graph);
  e.graph.Start();
  uint64_t id = 0;
  e.sim.ScheduleAt(sim::Seconds(3), [&] { id = coordinator.Trigger(); });
  e.sim.RunUntilIdle();
  const CheckpointData* data = coordinator.Get(id);
  ASSERT_NE(data, nullptr);
  // Restore the aggregator instances from the snapshot and verify state.
  Task* agg0 = e.graph.instance(e.workload.scaled_op, 0);
  auto it = data->snapshots.find(agg0->id());
  ASSERT_NE(it, data->snapshots.end());
  int64_t snapshot_total = 0;
  for (const auto& g : it->second) {
    g.cells.ForEach([&](dataflow::KeyT, const state::StateCell& cell) {
      snapshot_total += cell.counter;
    });
  }
  agg0->state()->Restore(it->second);
  int64_t restored_total = 0;
  for (dataflow::KeyGroupId kg : agg0->state()->owned_key_groups()) {
    agg0->state()->ForEachKey(kg, [&](dataflow::KeyT key) {
      restored_total += agg0->state()->Get(kg, key)->counter;
    });
  }
  EXPECT_EQ(restored_total, snapshot_total);
}

TEST(Checkpoint, RestoreAfterMutationIsBitIdentical) {
  // The crash-recovery contract: snapshot, keep running (state mutates),
  // then restore — the backend must return to the snapshot exactly, field
  // for field, with no residue from the discarded post-snapshot updates.
  Engine e(SmallParams());
  CheckpointCoordinator coordinator(&e.graph);
  e.graph.Start();
  uint64_t id = 0;
  e.sim.ScheduleAt(sim::Seconds(3), [&] { id = coordinator.Trigger(); });
  e.sim.RunUntilIdle();
  const CheckpointData* data = coordinator.Get(id);
  ASSERT_NE(data, nullptr);
  Task* agg0 = e.graph.instance(e.workload.scaled_op, 0);
  auto it = data->snapshots.find(agg0->id());
  ASSERT_NE(it, data->snapshots.end());
  const std::vector<state::KeyGroupState>& snapshot = it->second;

  // Mutate live state well past the snapshot: bump every cell and add a key
  // the snapshot has never seen.
  for (dataflow::KeyGroupId kg : agg0->state()->owned_key_groups()) {
    agg0->state()->ForEachKey(kg, [&](dataflow::KeyT key) {
      state::StateCell* cell = agg0->state()->Get(kg, key);
      cell->counter += 1000;
      cell->sum -= 17;
      cell->windows.emplace_back(sim::Seconds(99), 1);
    });
    agg0->state()->GetOrCreate(kg, /*key=*/1u << 30)->counter = 5;
  }

  agg0->state()->Restore(snapshot);

  for (const state::KeyGroupState& g : snapshot) {
    ASSERT_TRUE(agg0->state()->OwnsKeyGroup(g.key_group));
    size_t live_keys = 0;
    agg0->state()->ForEachKey(g.key_group,
                              [&](dataflow::KeyT) { ++live_keys; });
    EXPECT_EQ(live_keys, g.cells.size()) << "kg " << g.key_group;
    g.cells.ForEach([&](dataflow::KeyT key, const state::StateCell& cell) {
      const state::StateCell* live = agg0->state()->Get(g.key_group, key);
      ASSERT_NE(live, nullptr) << "kg " << g.key_group << " key " << key;
      EXPECT_EQ(live->counter, cell.counter);
      EXPECT_EQ(live->sum, cell.sum);
      EXPECT_EQ(live->last_value, cell.last_value);
      EXPECT_EQ(live->windows, cell.windows);
      EXPECT_EQ(live->nominal_bytes, cell.nominal_bytes);
    });
  }
}

TEST(Checkpoint, SequentialCheckpointsIncrease) {
  Engine e(SmallParams());
  CheckpointCoordinator coordinator(&e.graph);
  e.graph.Start();
  uint64_t id1 = 0, id2 = 0;
  e.sim.ScheduleAt(sim::Seconds(2), [&] { id1 = coordinator.Trigger(); });
  e.sim.ScheduleAt(sim::Seconds(5), [&] { id2 = coordinator.Trigger(); });
  e.sim.RunUntilIdle();
  EXPECT_TRUE(coordinator.IsComplete(id1));
  EXPECT_TRUE(coordinator.IsComplete(id2));
  EXPECT_LT(id1, id2);
  EXPECT_EQ(coordinator.LatestComplete()->id, id2);
}

TEST(SourceTask, RespectsFeedTiming) {
  CustomParams p = SmallParams();
  p.duration = sim::Seconds(2);
  Engine e(p);
  e.graph.Start();
  e.sim.RunUntil(sim::Seconds(1));
  uint64_t mid = e.hub.source_rate().total();
  // Roughly half the stream should have been emitted after half the time.
  EXPECT_GT(mid, 1000u);
  EXPECT_LT(mid, 3200u);
}

}  // namespace
}  // namespace drrs::runtime
