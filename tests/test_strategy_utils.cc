#include <gtest/gtest.h>

#include "scaling/strategy.h"
#include "sim/simulator.h"
#include "workloads/workloads.h"

namespace drrs::scaling {
namespace {

struct Rig {
  Rig() {
    workloads::CustomParams p;
    p.events_per_second = 1000;
    p.num_keys = 400;
    p.duration = sim::Seconds(8);
    p.record_cost = sim::Micros(100);
    p.agg_parallelism = 4;
    p.num_key_groups = 32;
    workload = workloads::BuildCustomWorkload(p);
    graph = std::make_unique<runtime::ExecutionGraph>(
        &sim, workload.graph, runtime::EngineConfig{}, &hub);
    EXPECT_TRUE(graph->Build().ok());
  }
  sim::Simulator sim;
  metrics::MetricsHub hub;
  workloads::WorkloadSpec workload{"", dataflow::JobGraph(1), 0};
  std::unique_ptr<runtime::ExecutionGraph> graph;
};

TEST(StrategyUtils, CurrentAssignmentMatchesInitialDeployment) {
  Rig rig;
  auto assignment = CurrentAssignment(rig.graph.get(), rig.workload.scaled_op);
  auto expected = rig.graph->key_space().UniformAssignment(4);
  ASSERT_EQ(assignment.size(), expected.size());
  for (size_t kg = 0; kg < assignment.size(); ++kg) {
    EXPECT_EQ(assignment[kg], expected[kg]) << "kg " << kg;
  }
}

TEST(StrategyUtils, PlanRescaleUsesLiveOwnership) {
  Rig rig;
  // Manually move key-group 0 to subtask 3, then plan: the plan must treat
  // subtask 3 as the source.
  runtime::Task* owner = rig.graph->instance(
      rig.workload.scaled_op,
      rig.graph->key_space().UniformAssignment(4)[0]);
  runtime::Task* other = rig.graph->instance(rig.workload.scaled_op, 3);
  other->state()->InstallKeyGroup(owner->state()->ExtractKeyGroup(0));
  ScalePlan plan = PlanRescale(rig.graph.get(), rig.workload.scaled_op, 6);
  bool found = false;
  for (const Migration& m : plan.migrations) {
    if (m.key_group == 0) {
      EXPECT_EQ(m.from, 3u);
      found = true;
    }
  }
  // kg 0's 6-uniform owner is subtask 0, so it must migrate from 3.
  EXPECT_TRUE(found);
}

TEST(StrategyUtils, KeyGroupWeightsReflectKeyCounts) {
  Rig rig;
  rig.graph->Start();
  rig.sim.RunUntilIdle();
  auto weights = KeyGroupWeights(rig.graph.get(), rig.workload.scaled_op);
  ASSERT_EQ(weights.size(), 32u);
  double total = 0;
  for (double w : weights) total += w;
  // Every generated key has exactly one cell somewhere.
  uint64_t keys = 0;
  for (runtime::Task* t :
       rig.graph->instances_of(rig.workload.scaled_op)) {
    keys += t->state()->TotalKeys();
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(keys));
  EXPECT_GT(keys, 300u);  // most of the 400 keys appeared within 8 s
}

TEST(StrategyUtils, BalancedRescalePlanIsValidAgainstLiveState) {
  Rig rig;
  rig.graph->Start();
  rig.sim.RunUntilIdle();
  ScalePlan plan =
      PlanBalancedRescale(rig.graph.get(), rig.workload.scaled_op, 6);
  EXPECT_EQ(plan.new_parallelism, 6u);
  // Every migration source currently owns the key-group it gives away.
  for (const Migration& m : plan.migrations) {
    EXPECT_TRUE(rig.graph->instance(rig.workload.scaled_op, m.from)
                    ->state()
                    ->OwnsKeyGroup(m.key_group));
  }
}

TEST(StateTransferTest, RoundTripMovesCellsAndOwnership) {
  Rig rig;
  runtime::Task* a = rig.graph->instance(rig.workload.scaled_op, 0);
  runtime::Task* b = rig.graph->instance(rig.workload.scaled_op, 1);
  dataflow::KeyGroupId kg = *a->state()->owned_key_groups().begin();
  a->state()->GetOrCreate(kg, 12345)->counter = 99;
  // Modeled state: the chunk's 64 MiB price the wire and the staging
  // counter, but must not turn into real memory.
  constexpr uint64_t kModeledBytes = 64ull << 20;
  a->state()->Get(kg, 12345)->nominal_bytes = kModeledBytes;

  StateTransfer transfer;
  b->Freeze();  // inspect the chunk ourselves instead of the task's loop
  net::Channel* rail = rig.graph->GetOrCreateScalingChannel(a, b);
  const size_t reserved_before = rig.sim.arena()->bytes_reserved();
  uint64_t bytes = transfer.SendKeyGroup(a, rail, kg, 1, 0);
  EXPECT_LT(rig.sim.arena()->bytes_reserved() - reserved_before, 1u << 20);
  EXPECT_GE(bytes, kModeledBytes);
  EXPECT_EQ(transfer.staging_bytes(), bytes);
  EXPECT_FALSE(a->state()->OwnsKeyGroup(kg));
  EXPECT_EQ(transfer.in_transit_count(), 1u);

  // Deliver the chunk and install it at b.
  rig.sim.RunUntilIdle();
  ASSERT_TRUE(rail->HasInput());
  dataflow::StreamElement chunk = rail->PopInput();
  ASSERT_EQ(chunk.kind, dataflow::ElementKind::kStateChunk);
  EXPECT_EQ(chunk.chunk_bytes, bytes);
  EXPECT_EQ(transfer.staging_bytes(), bytes);  // still in flight
  transfer.Install(b, chunk);
  EXPECT_EQ(transfer.in_transit_count(), 0u);
  EXPECT_EQ(transfer.staging_bytes(), 0u);
  EXPECT_TRUE(b->state()->OwnsKeyGroup(kg));
  EXPECT_EQ(b->state()->Get(kg, 12345)->counter, 99);
}

TEST(StateTransferTest, SubKeyGroupTransferKeepsOwnershipManual) {
  Rig rig;
  runtime::Task* a = rig.graph->instance(rig.workload.scaled_op, 0);
  runtime::Task* b = rig.graph->instance(rig.workload.scaled_op, 1);
  dataflow::KeyGroupId kg = *a->state()->owned_key_groups().begin();
  for (uint64_t k = 0; k < 40; ++k) a->state()->GetOrCreate(kg, k)->counter = 1;

  StateTransfer transfer;
  b->Freeze();  // inspect the chunk ourselves instead of the task's loop
  net::Channel* rail = rig.graph->GetOrCreateScalingChannel(a, b);
  transfer.SendSubKeyGroup(a, rail, kg, 0, 4, 1, 0);
  // Sub-transfers do not flip key-group ownership.
  EXPECT_TRUE(a->state()->OwnsKeyGroup(kg));
  rig.sim.RunUntilIdle();
  dataflow::StreamElement chunk = rail->PopInput();
  transfer.Install(b, chunk);
  EXPECT_FALSE(b->state()->OwnsKeyGroup(kg));  // caller manages it
  // Cells split between the two backends, nothing lost.
  EXPECT_EQ(a->state()->KeyCount(kg) + b->state()->KeyCount(kg), 40u);
  EXPECT_GT(b->state()->KeyCount(kg), 0u);
}

TEST(StateTransferTest, AbortScaleDropsOnlyThatScalesChunks) {
  Rig rig;
  runtime::Task* a = rig.graph->instance(rig.workload.scaled_op, 0);
  runtime::Task* b = rig.graph->instance(rig.workload.scaled_op, 1);
  auto it = a->state()->owned_key_groups().begin();
  dataflow::KeyGroupId kg1 = *it++;
  dataflow::KeyGroupId kg2 = *it;

  StateTransfer transfer;
  b->Freeze();
  net::Channel* rail = rig.graph->GetOrCreateScalingChannel(a, b);
  transfer.SendKeyGroup(a, rail, kg1, /*scale=*/1, 0);
  uint64_t bytes2 = transfer.SendKeyGroup(a, rail, kg2, /*scale=*/2, 0);
  EXPECT_EQ(transfer.in_transit_count(), 2u);
  EXPECT_EQ(transfer.in_transit_count(1), 1u);

  transfer.AbortScale(1);
  EXPECT_EQ(transfer.in_transit_count(), 1u);  // scale 2 untouched
  EXPECT_EQ(transfer.in_transit_count(1), 0u);
  EXPECT_EQ(transfer.staging_bytes(), bytes2);  // scale 1's bytes released

  // Both chunk elements are still on the wire; the aborted one must be
  // consumed without installing anything.
  rig.sim.RunUntilIdle();
  dataflow::StreamElement first = rail->PopInput();   // kg1, aborted
  dataflow::StreamElement second = rail->PopInput();  // kg2, live
  EXPECT_FALSE(transfer.Install(b, first));
  EXPECT_FALSE(b->state()->OwnsKeyGroup(kg1));
  EXPECT_TRUE(transfer.Install(b, second));
  EXPECT_TRUE(b->state()->OwnsKeyGroup(kg2));
  EXPECT_EQ(transfer.in_transit_count(), 0u);
  EXPECT_EQ(transfer.staging_bytes(), 0u);

  // Aborting the last in-flight scale leaves nothing staged either.
  dataflow::KeyGroupId kg3 = *a->state()->owned_key_groups().begin();
  transfer.SendKeyGroup(a, rail, kg3, /*scale=*/3, 0);
  EXPECT_GT(transfer.staging_bytes(), 0u);
  transfer.AbortScale(3);
  EXPECT_EQ(transfer.staging_bytes(), 0u);
}

TEST(StateTransferTest, SessionAbortClearsInFlightAccounting) {
  Rig rig;
  runtime::Task* a = rig.graph->instance(rig.workload.scaled_op, 0);
  runtime::Task* b = rig.graph->instance(rig.workload.scaled_op, 1);
  dataflow::KeyGroupId kg = *a->state()->owned_key_groups().begin();

  StateTransfer transfer;
  TransferSession session(&transfer, /*scale=*/7);
  b->Freeze();
  net::Channel* rail = rig.graph->GetOrCreateScalingChannel(a, b);
  session.SendKeyGroup(a, rail, kg, /*subscale=*/0);
  EXPECT_EQ(session.in_flight(), 1u);
  // The leak check in ScaleContext::EndScale asserts in_flight() == 0; an
  // aborted session must satisfy it even with its chunk still on the wire.
  session.Abort();
  EXPECT_EQ(session.in_flight(), 0u);
  rig.sim.RunUntilIdle();
  EXPECT_FALSE(session.Install(b, rail->PopInput()));
}

TEST(StateTransferTest, EmptyKeyGroupStillShipsEnvelope) {
  Rig rig;
  runtime::Task* a = rig.graph->instance(rig.workload.scaled_op, 0);
  runtime::Task* b = rig.graph->instance(rig.workload.scaled_op, 1);
  dataflow::KeyGroupId kg = *a->state()->owned_key_groups().begin();
  StateTransfer transfer;
  b->Freeze();
  net::Channel* rail = rig.graph->GetOrCreateScalingChannel(a, b);
  uint64_t bytes = transfer.SendKeyGroup(a, rail, kg, 1, 0);
  EXPECT_GT(bytes, 0u);  // control envelope even with no cells
  rig.sim.RunUntilIdle();
  transfer.Install(b, rail->PopInput());
  EXPECT_TRUE(b->state()->OwnsKeyGroup(kg));
}

}  // namespace
}  // namespace drrs::scaling
