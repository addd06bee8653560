// Determinism golden test plus unit coverage for the event-engine pieces:
// RingBuffer, EventCallback (SBO + heap fallback), channel output-cache
// extraction, and the incremental state accounting.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/ring_buffer.h"
#include "harness/experiment.h"
#include "net/channel.h"
#include "sim/event_callback.h"
#include "state/keyed_state.h"
#include "workloads/generators.h"
#include "workloads/operators.h"
#include "workloads/workloads.h"

namespace drrs {
namespace {

// ---------------------------------------------------------------------------
// Golden determinism: a mid-size workload with a full DRRS rescale must be
// bit-identical across two runs in the same process. This pins the engine's
// (time, seq) tie-breaking and the per-channel single-armed-event scheme.
// ---------------------------------------------------------------------------

workloads::WorkloadSpec MidWorkload() {
  workloads::CustomParams p;
  p.events_per_second = 8000;
  p.num_keys = 1000;
  p.skew = 0.4;
  p.duration = sim::Seconds(30);
  p.record_cost = sim::Micros(150);
  p.agg_parallelism = 4;
  p.num_key_groups = 48;
  return workloads::BuildCustomWorkload(p);
}

void ExpectSeriesBitIdentical(const metrics::TimeSeries& a,
                              const metrics::TimeSeries& b,
                              const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.samples()[i].time, b.samples()[i].time) << label << "[" << i
                                                        << "]";
    // Bit-identical, not approximately equal: EXPECT_EQ on doubles.
    ASSERT_EQ(a.samples()[i].value, b.samples()[i].value) << label << "[" << i
                                                          << "]";
  }
}

TEST(Determinism, GoldenSameSeedRunsAreBitIdentical) {
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kDrrs;
  c.target_parallelism = 6;
  c.scale_at = sim::Seconds(10);
  c.restab_hold = sim::Seconds(5);

  auto a = harness::RunExperiment(MidWorkload(), c);
  auto b = harness::RunExperiment(MidWorkload(), c);

  EXPECT_EQ(a.source_records, b.source_records);
  EXPECT_EQ(a.sink_records, b.sink_records);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.mechanism_duration, b.mechanism_duration);
  EXPECT_EQ(a.scaling_period, b.scaling_period);
  EXPECT_EQ(a.cumulative_propagation, b.cumulative_propagation);
  EXPECT_EQ(a.avg_dependency_us, b.avg_dependency_us);
  EXPECT_EQ(a.cumulative_suspension, b.cumulative_suspension);
  EXPECT_EQ(a.transfers.total_transfers, b.transfers.total_transfers);
  EXPECT_TRUE(a.invariants.Clean());
  EXPECT_TRUE(b.invariants.Clean());

  ExpectSeriesBitIdentical(a.hub->latency_ms(), b.hub->latency_ms(),
                           "latency_ms");
  ExpectSeriesBitIdentical(a.hub->state_bytes(), b.hub->state_bytes(),
                           "state_bytes");
  // The state sampler must have produced samples and then stopped (the run
  // uses a run-to-completion horizon internally bounded by the workload).
  EXPECT_FALSE(a.hub->state_bytes().empty());

  // Batched delivery was actually exercised — the golden equality above is
  // only meaningful if the runs went through the RecordBatch path, i.e.
  // fewer receiver notifications than records delivered.
  EXPECT_GT(a.delivered_elements, 0u);
  EXPECT_LT(a.delivered_batches, a.delivered_elements)
      << "every record was a singleton batch; coalescing never fired";
  EXPECT_EQ(a.delivered_elements, b.delivered_elements);
  EXPECT_EQ(a.delivered_batches, b.delivered_batches);
}

// ---------------------------------------------------------------------------
// Cross-thread determinism: with the partitioned simulation backend the
// thread count must never be observable. The golden workload re-runs at
// --threads equivalents 2 and 4 and every series must stay bit-identical.
// ---------------------------------------------------------------------------

TEST(Determinism, GoldenRunIsThreadCountInvariant) {
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kDrrs;
  c.target_parallelism = 6;
  c.scale_at = sim::Seconds(10);
  c.restab_hold = sim::Seconds(5);

  auto t1 = harness::RunExperiment(MidWorkload(), c);
  c.threads = 2;
  auto t2 = harness::RunExperiment(MidWorkload(), c);
  c.threads = 4;
  auto t4 = harness::RunExperiment(MidWorkload(), c);

  for (const auto* other : {&t2, &t4}) {
    EXPECT_EQ(t1.source_records, other->source_records);
    EXPECT_EQ(t1.sink_records, other->sink_records);
    EXPECT_EQ(t1.executed_events, other->executed_events);
    EXPECT_EQ(t1.delivered_elements, other->delivered_elements);
    EXPECT_EQ(t1.delivered_batches, other->delivered_batches);
    EXPECT_EQ(t1.mechanism_duration, other->mechanism_duration);
    EXPECT_EQ(t1.trace_events, other->trace_events);
    ExpectSeriesBitIdentical(t1.hub->latency_ms(), other->hub->latency_ms(),
                             "latency_ms");
    ExpectSeriesBitIdentical(t1.hub->state_bytes(), other->hub->state_bytes(),
                             "state_bytes");
  }
}

// Property test: seeded random multi-component topologies (random chain
// lengths, parallelisms, rates per component) must produce bit-identical
// runs across thread counts. Exercises the component partitioner and the
// canonical metric/trace merges on shapes no golden pins down.
workloads::WorkloadSpec RandomTopology(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](uint32_t lo, uint32_t hi) {
    return lo + static_cast<uint32_t>(rng() % (hi - lo + 1));
  };
  const uint32_t components = pick(2, 5);
  dataflow::JobGraph graph(64);
  dataflow::OperatorId scaled_op = 0;

  for (uint32_t cidx = 0; cidx < components; ++cidx) {
    workloads::RateGenerator::Params gen;
    gen.events_per_second = 500 * pick(1, 4);
    gen.num_keys = 100 * pick(1, 5);
    gen.key_skew = 0.2 * pick(0, 3);
    gen.duration = sim::Seconds(pick(6, 10));
    gen.seed = rng();

    dataflow::OperatorSpec source;
    source.name = "src-" + std::to_string(cidx);
    source.parallelism = pick(1, 2);
    source.is_source = true;
    source.record_cost = sim::Micros(10);
    source.source_factory = workloads::MakeRateGeneratorFactory(gen);
    dataflow::OperatorId prev = graph.AddOperator(std::move(source));

    const uint32_t maps = pick(0, 2);
    for (uint32_t m = 0; m < maps; ++m) {
      dataflow::OperatorSpec map;
      map.name = "map-" + std::to_string(cidx) + "-" + std::to_string(m);
      map.parallelism = pick(1, 3);
      map.record_cost = sim::Micros(20);
      map.factory = []() {
        return std::make_unique<workloads::MapOperator>();
      };
      dataflow::OperatorId id = graph.AddOperator(std::move(map));
      DRRS_CHECK(
          graph.Connect(prev, id, dataflow::Partitioning::kRebalance).ok());
      prev = id;
    }

    dataflow::OperatorSpec agg;
    agg.name = "agg-" + std::to_string(cidx);
    agg.parallelism = pick(2, 4);
    agg.is_stateful = true;
    agg.record_cost = sim::Micros(100 * pick(1, 3));
    agg.emit_cost = sim::Micros(2);
    agg.factory = []() {
      return std::make_unique<workloads::KeyedAggregateOperator>(512);
    };
    dataflow::OperatorId agg_id = graph.AddOperator(std::move(agg));
    DRRS_CHECK(graph.Connect(prev, agg_id, dataflow::Partitioning::kHash).ok());
    if (cidx == 0) scaled_op = agg_id;

    dataflow::OperatorSpec sink;
    sink.name = "sink-" + std::to_string(cidx);
    sink.parallelism = 1;
    sink.is_sink = true;
    sink.record_cost = sim::Micros(5);
    dataflow::OperatorId sk = graph.AddOperator(std::move(sink));
    DRRS_CHECK(
        graph.Connect(agg_id, sk, dataflow::Partitioning::kRebalance).ok());
  }
  return workloads::WorkloadSpec{"random-" + std::to_string(seed),
                                 std::move(graph), scaled_op};
}

TEST(Determinism, RandomTopologiesAreThreadCountInvariant) {
  for (uint64_t seed : {11u, 23u, 47u}) {
    harness::ExperimentConfig c;
    c.system = harness::SystemKind::kNoScale;
    c.scale_at = sim::Seconds(3);
    auto t1 = harness::RunExperiment(RandomTopology(seed), c);
    c.threads = 3;
    auto t3 = harness::RunExperiment(RandomTopology(seed), c);

    EXPECT_GT(t1.source_records, 0u) << "seed " << seed;
    EXPECT_EQ(t1.source_records, t3.source_records) << "seed " << seed;
    EXPECT_EQ(t1.sink_records, t3.sink_records) << "seed " << seed;
    EXPECT_EQ(t1.executed_events, t3.executed_events) << "seed " << seed;
    EXPECT_EQ(t1.trace_events, t3.trace_events) << "seed " << seed;
    ExpectSeriesBitIdentical(t1.hub->latency_ms(), t3.hub->latency_ms(),
                             "latency_ms seed " + std::to_string(seed));
    ExpectSeriesBitIdentical(t1.hub->state_bytes(), t3.hub->state_bytes(),
                             "state_bytes seed " + std::to_string(seed));
  }
}

TEST(Determinism, EngineHotPathNeverHeapAllocatesCallbacks) {
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kNoScale;
  c.scale_at = sim::Seconds(5);
  workloads::CustomParams p;
  p.events_per_second = 2000;
  p.num_keys = 300;
  p.duration = sim::Seconds(10);
  p.record_cost = sim::Micros(150);
  p.agg_parallelism = 3;
  p.num_key_groups = 24;

  uint64_t before = sim::EventCallbackHeapFallbacks();
  auto r = harness::RunExperiment(workloads::BuildCustomWorkload(p), c);
  uint64_t after = sim::EventCallbackHeapFallbacks();
  EXPECT_GT(r.executed_events, 0u);
  EXPECT_EQ(before, after)
      << "a steady-state scheduling site outgrew EventCallback::kInlineBytes";
}

// ---------------------------------------------------------------------------
// RingBuffer
// ---------------------------------------------------------------------------

TEST(RingBuffer, FifoAcrossGrowthAndWrap) {
  RingBuffer<int> rb;
  EXPECT_TRUE(rb.empty());
  // Interleave pushes and pops so head_ walks around the buffer while it
  // grows through several capacities.
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 7; ++i) rb.push_back(next_push++);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(rb.front(), next_pop);
      rb.pop_front();
      ++next_pop;
    }
  }
  EXPECT_EQ(rb.size(), static_cast<size_t>(next_push - next_pop));
  // at(i) indexes from the front.
  for (size_t i = 0; i < rb.size(); ++i) {
    EXPECT_EQ(rb.at(i), next_pop + static_cast<int>(i));
  }
  while (!rb.empty()) {
    ASSERT_EQ(rb.front(), next_pop++);
    rb.pop_front();
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(RingBuffer, SteadyStateDoesNotGrow) {
  RingBuffer<int> rb;
  for (int i = 0; i < 8; ++i) rb.push_back(i);
  size_t cap = rb.capacity();
  for (int i = 0; i < 10000; ++i) {
    rb.push_back(i);
    rb.pop_front();
  }
  EXPECT_EQ(rb.capacity(), cap);
}

TEST(RingBuffer, ClearReleasesPayloads) {
  RingBuffer<std::shared_ptr<int>> rb;
  auto p = std::make_shared<int>(7);
  rb.push_back(p);
  rb.push_back(p);
  EXPECT_EQ(p.use_count(), 3);
  rb.pop_front();
  EXPECT_EQ(p.use_count(), 2);  // pop releases eagerly
  rb.clear();
  EXPECT_EQ(p.use_count(), 1);
  EXPECT_TRUE(rb.empty());
}

// ---------------------------------------------------------------------------
// EventCallback
// ---------------------------------------------------------------------------

TEST(EventCallback, SmallCapturesStayInline) {
  uint64_t before = sim::EventCallbackHeapFallbacks();
  int hits = 0;
  int* p = &hits;
  sim::EventCallback cb([p]() { ++*p; });
  EXPECT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim::EventCallbackHeapFallbacks(), before);
}

TEST(EventCallback, OversizedCapturesFallBackToHeapAndCount) {
  uint64_t before = sim::EventCallbackHeapFallbacks();
  struct Big {
    char pad[sim::EventCallback::kInlineBytes + 16];
  };
  Big big{};
  big.pad[0] = 42;
  char seen = 0;
  char* out = &seen;
  sim::EventCallback cb([big, out]() { *out = big.pad[0]; });
  EXPECT_EQ(sim::EventCallbackHeapFallbacks(), before + 1);
  cb();
  EXPECT_EQ(seen, 42);
}

TEST(EventCallback, MoveTransfersNonTrivialCaptures) {
  uint64_t before = sim::EventCallbackHeapFallbacks();
  auto payload = std::make_shared<int>(5);
  std::weak_ptr<int> watch = payload;
  int got = 0;
  int* out = &got;
  sim::EventCallback a([payload, out]() { *out = *payload; });
  payload.reset();
  EXPECT_FALSE(watch.expired());  // capture keeps it alive

  sim::EventCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(got, 5);

  sim::EventCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(got, 5);
  { sim::EventCallback sink = std::move(c); }
  EXPECT_TRUE(watch.expired());  // destroying the holder frees the capture
  EXPECT_EQ(sim::EventCallbackHeapFallbacks(), before);  // shared_ptr fits
}

// ---------------------------------------------------------------------------
// Channel output-cache extraction (short-circuit + in-place compaction)
// ---------------------------------------------------------------------------

class NullReceiver : public net::ChannelReceiver {
 public:
  void OnBatchAvailable(net::Channel*, size_t) override {}
  void OnControlBypass(net::Channel*,
                       const dataflow::StreamElement&) override {}
};

dataflow::StreamElement Rec(dataflow::KeyT key) {
  return dataflow::MakeRecord(key, 0, 0, 0, 100);
}

TEST(ChannelExtract, NoMatchLeavesQueueUntouched) {
  sim::Simulator sim;
  net::NetworkConfig cfg;
  cfg.input_buffer_capacity = 0;  // keep everything in the output cache
  NullReceiver receiver;
  net::Channel ch(&sim, cfg, 0, 1, &receiver);
  for (dataflow::KeyT k = 0; k < 6; ++k) ch.Push(Rec(k));
  ASSERT_EQ(ch.output_queue_size(), 6u);

  auto out = ch.ExtractFromOutput(
      [](const dataflow::StreamElement& e) { return e.key >= 100; });
  EXPECT_TRUE(out.empty());
  ASSERT_EQ(ch.output_queue_size(), 6u);
  for (dataflow::KeyT k = 0; k < 6; ++k) EXPECT_EQ(ch.output_queue()[k].key, k);
}

TEST(ChannelExtract, ExtractPreservesBothOrders) {
  sim::Simulator sim;
  net::NetworkConfig cfg;
  cfg.input_buffer_capacity = 0;
  NullReceiver receiver;
  net::Channel ch(&sim, cfg, 0, 1, &receiver);
  for (dataflow::KeyT k = 0; k < 10; ++k) ch.Push(Rec(k));

  auto odd = ch.ExtractFromOutput(
      [](const dataflow::StreamElement& e) { return e.key % 2 == 1; });
  ASSERT_EQ(odd.size(), 5u);
  for (size_t i = 0; i < odd.size(); ++i) EXPECT_EQ(odd[i].key, 2 * i + 1);
  ASSERT_EQ(ch.output_queue_size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(ch.output_queue()[i].key, 2 * i);
}

TEST(ChannelExtract, BeforeStopsAtBarrier) {
  sim::Simulator sim;
  net::NetworkConfig cfg;
  cfg.input_buffer_capacity = 0;
  NullReceiver receiver;
  net::Channel ch(&sim, cfg, 0, 1, &receiver);
  ch.Push(Rec(1));
  ch.Push(Rec(2));
  dataflow::StreamElement barrier;
  barrier.kind = dataflow::ElementKind::kCheckpointBarrier;
  ch.Push(barrier);
  ch.Push(Rec(3));

  auto got = ch.ExtractFromOutputBefore(
      [](const dataflow::StreamElement& e) { return e.IsData(); },
      [](const dataflow::StreamElement& e) {
        return e.kind == dataflow::ElementKind::kCheckpointBarrier;
      });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].key, 1u);
  EXPECT_EQ(got[1].key, 2u);
  // Barrier and the record behind it stay put, in order.
  ASSERT_EQ(ch.output_queue_size(), 2u);
  EXPECT_EQ(ch.output_queue()[0].kind,
            dataflow::ElementKind::kCheckpointBarrier);
  EXPECT_EQ(ch.output_queue()[1].key, 3u);

  // Stop before any match: nothing moves.
  auto none = ch.ExtractFromOutputBefore(
      [](const dataflow::StreamElement& e) { return e.IsData(); },
      [](const dataflow::StreamElement& e) {
        return e.kind == dataflow::ElementKind::kCheckpointBarrier;
      });
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(ch.output_queue_size(), 2u);
}

// ---------------------------------------------------------------------------
// Incremental state accounting (debug recount pins it to ground truth)
// ---------------------------------------------------------------------------

TEST(StateAccounting, IncrementalMatchesFullScan) {
  state::KeyedStateBackend backend(8);
  backend.set_debug_recount(true);
  for (uint32_t kg = 0; kg < 8; ++kg) backend.AcquireKeyGroup(kg);

  uint64_t expected = 0;
  for (uint64_t key = 0; key < 100; ++key) {
    state::StateCell* cell = backend.GetOrCreate(key % 8, key);
    cell->nominal_bytes = 100 + key;  // direct mutation through the pointer
    expected += 100 + key;
  }
  EXPECT_EQ(backend.TotalBytes(), expected);  // DebugRecount verifies too
  EXPECT_EQ(backend.TotalKeys(), 100u);

  // Re-touch and shrink some cells; deltas must fold correctly.
  for (uint64_t key = 0; key < 50; ++key) {
    state::StateCell* cell = backend.Get(key % 8, key);
    ASSERT_NE(cell, nullptr);
    cell->nominal_bytes = 10;
    expected -= (100 + key) - 10;
  }
  EXPECT_EQ(backend.TotalBytes(), expected);

  // Duplicate touches of the same cell in one flush window are harmless.
  state::StateCell* c0 = backend.GetOrCreate(0, 0);
  c0->nominal_bytes = 1000;
  state::StateCell* again = backend.Get(0, 0);
  again->nominal_bytes = 2000;
  expected = expected - 10 + 2000;
  EXPECT_EQ(backend.TotalBytes(), expected);
}

TEST(StateAccounting, SurvivesExtractInstallRoundTrip) {
  state::KeyedStateBackend a(4);
  state::KeyedStateBackend b(4);
  a.set_debug_recount(true);
  b.set_debug_recount(true);
  for (uint32_t kg = 0; kg < 4; ++kg) a.AcquireKeyGroup(kg);

  for (uint64_t key = 0; key < 40; ++key) {
    a.GetOrCreate(key % 4, key)->nominal_bytes = 256;
  }
  EXPECT_EQ(a.TotalBytes(), 40u * 256);
  uint64_t kg1_bytes = a.KeyGroupBytes(1);
  EXPECT_GT(kg1_bytes, 0u);

  state::KeyGroupState moved = a.ExtractKeyGroup(1);
  EXPECT_EQ(a.KeyGroupBytes(1), 0u);
  EXPECT_EQ(a.TotalBytes(), 40u * 256 - kg1_bytes);

  b.InstallKeyGroup(std::move(moved));
  EXPECT_TRUE(b.OwnsKeyGroup(1));
  EXPECT_EQ(b.TotalBytes(), kg1_bytes);
  EXPECT_EQ(b.KeyGroupBytes(1), kg1_bytes);

  // Mutations after installation keep accounting exact on both sides.
  b.Get(1, 1)->nominal_bytes = 1;
  EXPECT_EQ(b.TotalBytes(), kg1_bytes - 255);
}

TEST(StateAccounting, SubKeyGroupMergeCountsArrivingCells) {
  // Meces-style sub-key-group chunks merge into a group the receiver may
  // already hold cells of; both the new and the replaced cells must show up
  // in the counters (the debug recount aborts on any drift).
  state::KeyedStateBackend a(1);
  state::KeyedStateBackend b(1);
  a.set_debug_recount(true);
  b.set_debug_recount(true);
  a.AcquireKeyGroup(0);
  b.AcquireKeyGroup(0);
  for (uint64_t key = 0; key < 32; ++key) {
    a.GetOrCreate(0, key)->nominal_bytes = 100;
  }
  b.GetOrCreate(0, 0)->nominal_bytes = 7;
  b.GetOrCreate(0, 1000)->nominal_bytes = 7;
  for (uint32_t sub = 0; sub < 4; ++sub) {
    b.MergeKeyGroup(a.ExtractSubKeyGroup(0, sub, 4));
    b.TotalBytes();  // recount check after every merge
  }
  // Key 0 arrived over b's own cell for it; key 1000 stayed.
  EXPECT_EQ(b.TotalBytes(), 32u * 100 + 7);
  EXPECT_EQ(b.TotalKeys(), 33u);
  EXPECT_EQ(a.TotalKeys(), 0u);
}

TEST(StateAccounting, SubKeyGroupExtractAndRestore) {
  state::KeyedStateBackend backend(2);
  backend.set_debug_recount(true);
  backend.AcquireKeyGroup(0);
  backend.AcquireKeyGroup(1);
  for (uint64_t key = 0; key < 32; ++key) {
    backend.GetOrCreate(key % 2, key)->nominal_bytes = 64;
  }
  uint64_t total = backend.TotalBytes();
  EXPECT_EQ(total, 32u * 64);

  state::KeyGroupState sub = backend.ExtractSubKeyGroup(0, 0, 2);
  EXPECT_EQ(backend.TotalBytes(), total - sub.TotalBytes());

  auto snapshot = backend.Snapshot();
  state::KeyedStateBackend restored(2);
  restored.set_debug_recount(true);
  restored.Restore(std::move(snapshot));
  EXPECT_EQ(restored.TotalBytes(), backend.TotalBytes());
  EXPECT_EQ(restored.TotalKeys(), backend.TotalKeys());
}

}  // namespace
}  // namespace drrs
