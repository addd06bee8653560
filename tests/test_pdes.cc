// Partitioned (PDES) simulation backend: partitioner correctness, remote
// channel mailbox semantics, engine-global timers, and the determinism
// contract — results are a pure function of the partitioning (itself a pure
// function of the job graph) and never of the thread count.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "metrics/metrics_hub.h"
#include "runtime/execution_graph.h"
#include "sim/partition.h"
#include "sim/simulator.h"
#include "workloads/workloads.h"

namespace drrs {
namespace {

void ExpectSeriesEqual(const metrics::TimeSeries& a,
                       const metrics::TimeSeries& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.samples()[i].time, b.samples()[i].time)
        << label << "[" << i << "]";
    ASSERT_EQ(a.samples()[i].value, b.samples()[i].value)
        << label << "[" << i << "]";
  }
}

void ExpectResultsBitIdentical(const harness::ExperimentResult& a,
                               const harness::ExperimentResult& b) {
  EXPECT_EQ(a.source_records, b.source_records);
  EXPECT_EQ(a.sink_records, b.sink_records);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.delivered_elements, b.delivered_elements);
  EXPECT_EQ(a.delivered_batches, b.delivered_batches);
  EXPECT_EQ(a.mechanism_duration, b.mechanism_duration);
  EXPECT_EQ(a.scaling_period, b.scaling_period);
  EXPECT_EQ(a.audit.violations.size(), b.audit.violations.size());
  ExpectSeriesEqual(a.hub->latency_ms(), b.hub->latency_ms(), "latency_ms");
  ExpectSeriesEqual(a.hub->state_bytes(), b.hub->state_bytes(), "state_bytes");
}

// FNV-1a over every (time, value-bits) pair: one constant pins a series.
uint64_t SeriesHash(const metrics::TimeSeries& series) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const metrics::Sample& s : series.samples()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &s.value, sizeof(bits));
    mix(static_cast<uint64_t>(s.time));
    mix(bits);
  }
  return h;
}

/// Outputs of a multi-partition run, pinned as constants. Thread-count
/// invariance only compares a run with itself, so a change that moved every
/// PDES window the same way for every thread count would pass it unseen.
struct OutputPin {
  uint64_t source_records;
  uint64_t sink_records;
  uint64_t latency_hash;
  uint64_t state_bytes_hash;
  sim::SimTime mechanism_duration;
  sim::SimTime sim_end;
};

void ExpectPinned(const harness::ExperimentResult& r, const OutputPin& pin) {
  EXPECT_EQ(r.source_records, pin.source_records);
  EXPECT_EQ(r.sink_records, pin.sink_records);
  EXPECT_EQ(SeriesHash(r.hub->latency_ms()), pin.latency_hash);
  EXPECT_EQ(SeriesHash(r.hub->state_bytes()), pin.state_bytes_hash);
  EXPECT_EQ(r.mechanism_duration, pin.mechanism_duration);
  EXPECT_EQ(r.sim_end, pin.sim_end);
}

workloads::WorkloadSpec SmallCustom() {
  workloads::CustomParams p;
  p.events_per_second = 3000;
  p.num_keys = 500;
  p.skew = 0.3;
  p.duration = sim::Seconds(15);
  p.record_cost = sim::Micros(150);
  p.agg_parallelism = 3;
  p.num_key_groups = 24;
  return workloads::BuildCustomWorkload(p);
}

workloads::MultiJobParams SmallMultiJob(uint32_t jobs) {
  workloads::MultiJobParams p;
  p.jobs = jobs;
  p.events_per_second = 1500;
  p.num_keys = 400;
  p.duration = sim::Seconds(12);
  p.record_cost = sim::Micros(200);
  p.agg_parallelism = 2;
  return p;
}

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

TEST(Partitioner, ConnectedComponentsBecomePartitions) {
  auto spec = workloads::BuildMultiJobWorkload(SmallMultiJob(4));
  sim::Simulator sim;
  sim::PdesEngine engine(&sim, {.threads = 1});
  metrics::MetricsHub hub;
  runtime::ExecutionGraph graph(&sim, spec.graph, runtime::EngineConfig{},
                                &hub);
  graph.AttachEngine(&engine, /*base_seed=*/1);
  ASSERT_TRUE(graph.Build().ok());

  EXPECT_EQ(graph.partition_count(), 4u);
  EXPECT_EQ(engine.partition_count(), 4u);
  // 3 operators per job, components labelled in min-op-id order.
  for (dataflow::OperatorId op = 0; op < 12; ++op) {
    EXPECT_EQ(graph.partition_of(op), op / 3) << "op " << op;
  }
  // Disconnected components share no channels, so nothing is remote.
  EXPECT_EQ(engine.lookahead(), sim::kSimTimeMax);
  EXPECT_EQ(graph.partition_of(spec.scaled_op), 0u);
}

TEST(Partitioner, SingleComponentStaysOnPrimary) {
  auto spec = SmallCustom();
  sim::Simulator sim;
  sim::PdesEngine engine(&sim, {.threads = 4});
  metrics::MetricsHub hub;
  runtime::ExecutionGraph graph(&sim, spec.graph, runtime::EngineConfig{},
                                &hub);
  graph.AttachEngine(&engine, 1);
  ASSERT_TRUE(graph.Build().ok());
  EXPECT_EQ(graph.partition_count(), 1u);
  EXPECT_EQ(engine.partition_sim(0), &sim);
}

// ---------------------------------------------------------------------------
// Remote channels (forced split of a connected job)
// ---------------------------------------------------------------------------

TEST(RemoteChannels, ForcedSplitRunsThroughMailbox) {
  auto spec = SmallCustom();
  sim::Simulator sim;
  sim::PdesEngine engine(&sim, {.threads = 2});
  metrics::MetricsHub hub;
  runtime::ExecutionGraph graph(&sim, spec.graph, runtime::EngineConfig{},
                                &hub);
  graph.AttachEngine(&engine, 1);
  graph.set_partition_override({0, 1, 2});  // source | aggregator | sink
  ASSERT_TRUE(graph.Build().ok());
  ASSERT_EQ(graph.partition_count(), 3u);
  // Cross-partition links exist, so the conservative window is finite.
  EXPECT_LT(engine.lookahead(), sim::kSimTimeMax);
  EXPECT_GE(engine.lookahead(), 1);

  graph.Start();
  uint64_t executed = engine.RunUntilIdle();
  graph.MergeHubShards();

  // Every source->agg and agg->sink element crossed the mailbox; the
  // destructor re-checks the posted/drained balance.
  EXPECT_GT(engine.mail_posted(), 0u);
  EXPECT_EQ(engine.mail_posted(), engine.mail_drained());
  EXPECT_EQ(executed, engine.ExecutedEvents());
  uint64_t per_partition = 0;
  for (uint32_t p = 0; p < 3; ++p) {
    per_partition += engine.partition_sim(p)->executed_events();
  }
  EXPECT_EQ(per_partition, engine.ExecutedEvents());

  EXPECT_GT(hub.source_rate().total(), 0u);
  EXPECT_GT(hub.sink_rate().total(), 0u);
  EXPECT_FALSE(hub.latency_ms().empty());
  EXPECT_TRUE(hub.invariants().Clean());
}

TEST(RemoteChannels, ForcedSplitMatchesLocalTotals) {
  // The same job unsplit and split across three partitions must agree on
  // every record count (timestamps are preserved by the remote path; only
  // same-timestamp interleavings may differ).
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kNoScale;
  c.scale_at = sim::Seconds(5);
  auto local = harness::RunExperiment(SmallCustom(), c);
  c.partition_override = {0, 1, 2};
  auto split = harness::RunExperiment(SmallCustom(), c);

  EXPECT_EQ(local.source_records, split.source_records);
  EXPECT_EQ(local.sink_records, split.sink_records);
  EXPECT_EQ(local.hub->latency_ms().size(), split.hub->latency_ms().size());
  EXPECT_TRUE(split.invariants.Clean());
#if DRRS_AUDIT
  EXPECT_TRUE(split.audit.enabled);
  EXPECT_TRUE(split.audit.clean()) << split.audit.Summary();
#endif
}

TEST(RemoteChannels, ForcedSplitIsThreadCountInvariant) {
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kNoScale;
  c.scale_at = sim::Seconds(5);
  c.partition_override = {0, 1, 2};
  c.threads = 1;
  auto t1 = harness::RunExperiment(SmallCustom(), c);
  c.threads = 2;
  auto t2 = harness::RunExperiment(SmallCustom(), c);
  c.threads = 4;
  auto t4 = harness::RunExperiment(SmallCustom(), c);

  ExpectResultsBitIdentical(t1, t2);
  ExpectResultsBitIdentical(t1, t4);
  EXPECT_EQ(t1.trace_events, t2.trace_events);
  EXPECT_EQ(t1.trace_events, t4.trace_events);
  ExpectPinned(t1, {44749, 44749, 0xde8da47ae4bd826dULL, 0xcd065005297c6d0bULL,
                    0, 15001375});
}

// ---------------------------------------------------------------------------
// Thread-count invariance on the partitioner's own (multi-component) shape,
// with a full DRRS rescale riding on partition 0.
// ---------------------------------------------------------------------------

TEST(PdesDeterminism, MultiJobWithRescaleIsThreadCountInvariant) {
  auto run = [](uint32_t threads) {
    harness::ExperimentConfig c;
    c.system = harness::SystemKind::kDrrs;
    c.target_parallelism = 4;
    c.scale_at = sim::Seconds(4);
    c.restab_hold = sim::Seconds(3);
    c.threads = threads;
    return harness::RunExperiment(
        workloads::BuildMultiJobWorkload(SmallMultiJob(5)), c);
  };
  auto t1 = run(1);
  auto t2 = run(2);
  auto t4 = run(4);

  EXPECT_GT(t1.source_records, 0u);
  ExpectResultsBitIdentical(t1, t2);
  ExpectResultsBitIdentical(t1, t4);
  EXPECT_EQ(t1.trace_events, t2.trace_events);
  EXPECT_EQ(t1.trace_events, t4.trace_events);
  ExpectPinned(t1, {90345, 90345, 0xfce424a42ffbb375ULL, 0xb381be34a16978b2ULL,
                    7700, 12000687});
}

// ---------------------------------------------------------------------------
// Window starts. The earliest pending key of a partition can be an elided
// re-arm (a reservation, Simulator::Reserve) or a link arrival waiting in the
// event queue's FIFO lane; either must open the next window exactly where the
// event it stands for would have. A one-credit window makes the split run
// credit-bound across partitions, so every window end (where delayed credits
// land) shows in the latency series.
// ---------------------------------------------------------------------------

harness::ExperimentResult RunCreditBoundSplit(
    std::vector<uint32_t> partitions) {
  workloads::CustomParams p;
  p.events_per_second = 3000;
  p.num_keys = 300;
  p.skew = 0.5;
  p.duration = sim::Seconds(6);
  p.record_cost = sim::Micros(120);
  p.agg_parallelism = 3;
  p.num_key_groups = 24;
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kNoScale;
  c.scale_at = sim::Seconds(3);
  c.partition_override = std::move(partitions);
  c.engine.net.input_buffer_capacity = 1;
  c.engine.net.base_latency = sim::Micros(300);
  return harness::RunExperiment(workloads::BuildCustomWorkload(p), c);
}

TEST(PdesWindows, WindowMayStartAtAReservation) {
  // Three partitions, every link remote: an idle aggregator's elided re-arm
  // is often the earliest key of all.
  auto r = RunCreditBoundSplit({0, 1, 2});
  EXPECT_GT(r.elided_events, 0u);
  ExpectPinned(r, {17818, 17818, 0x93c43f1a30cfccbdULL, 0xe56ae108785c8328ULL,
                   0, 6000643});
}

TEST(PdesWindows, WindowMayStartAtALaneEntry) {
  // Source and aggregator share a partition: their links are local, and
  // their arrivals wait in that partition's FIFO lane.
  auto r = RunCreditBoundSplit({0, 0, 1});
  ExpectPinned(r, {17818, 17818, 0xfb1c8e45a5355594ULL, 0xe56ae108785c8328ULL,
                   0, 6000643});
}

// ---------------------------------------------------------------------------
// Engine-global timers (the multi-partition state sampler path)
// ---------------------------------------------------------------------------

TEST(GlobalTimers, SamplerGridMatchesLegacyCadence) {
  // Unsplit (P=1) uses the legacy in-simulator sampler; multi-component
  // (P>1) uses an engine-global timer. Both must produce the same sample
  // grid: one sample per period until the sources dry up.
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kNoScale;
  c.scale_at = sim::Seconds(5);
  c.state_sample_period = sim::Seconds(2);

  auto single = harness::RunExperiment(SmallCustom(), c);
  auto multi = harness::RunExperiment(
      workloads::BuildMultiJobWorkload(SmallMultiJob(3)), c);

  ASSERT_FALSE(single.hub->state_bytes().empty());
  ASSERT_FALSE(multi.hub->state_bytes().empty());
  for (size_t i = 0; i < multi.hub->state_bytes().size(); ++i) {
    EXPECT_EQ(multi.hub->state_bytes().samples()[i].time,
              static_cast<sim::SimTime>(i + 1) * sim::Seconds(2))
        << "sample " << i;
  }
  // Sampling stopped shortly after the streams ended in both modes.
  EXPECT_LE(multi.hub->state_bytes().samples().back().time,
            sim::Seconds(12) + 2 * sim::Seconds(2));
  EXPECT_LE(single.hub->state_bytes().samples().back().time,
            sim::Seconds(15) + 2 * sim::Seconds(2));
}

TEST(GlobalTimers, FireInRegistrationOrderAndCancel) {
  sim::Simulator sim;
  sim::PdesEngine engine(&sim, {.threads = 1});
  engine.SetPartitionCount(1, 1);

  std::vector<int> order;
  engine.AddGlobalTimer(sim::Seconds(1), sim::Seconds(1),
                        [&](sim::SimTime) {
                          order.push_back(1);
                          return order.size() < 6;
                        });
  uint64_t second = engine.AddGlobalTimer(sim::Seconds(1), sim::Seconds(1),
                                          [&](sim::SimTime) {
                                            order.push_back(2);
                                            return true;
                                          });
  engine.RunUntil(sim::Seconds(2));
  ASSERT_EQ(order.size(), 4u);  // two ticks, two timers, registration order
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 2);

  engine.CancelGlobalTimer(second);
  engine.RunUntil(sim::Seconds(4));
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[4], 1);
  EXPECT_EQ(order[5], 1);  // body returned false here: timer self-cancelled

  engine.RunUntil(sim::Seconds(10));
  EXPECT_EQ(order.size(), 6u);
}

// ---------------------------------------------------------------------------
// Delegation: with one partition and no timers the engine must not perturb
// the primary simulator's loop at all.
// ---------------------------------------------------------------------------

TEST(PdesEngine, SinglePartitionDelegatesToPrimary) {
  sim::Simulator sim;
  sim::PdesEngine engine(&sim, {.threads = 8});
  engine.SetPartitionCount(1, 1);
  int fired = 0;
  sim.ScheduleAt(sim::Seconds(1), [&] { ++fired; });
  sim.ScheduleAt(sim::Seconds(3), [&] { ++fired; });
  uint64_t n = engine.RunUntil(sim::Seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(n, 1u);
  // Matches Simulator::RunUntil: the clock stops at the last executed event.
  EXPECT_EQ(sim.now(), sim::Seconds(1));
  n = engine.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(engine.ExecutedEvents(), sim.executed_events());
}

}  // namespace
}  // namespace drrs
