#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "dataflow/stream_element.h"
#include "net/channel.h"
#include "net/fault_plane.h"
#include "sim/simulator.h"

namespace drrs::net {
namespace {

using dataflow::ElementKind;
using dataflow::MakeRecord;
using dataflow::StreamElement;

class RecordingReceiver : public ChannelReceiver {
 public:
  void OnBatchAvailable(Channel* channel, size_t appended) override {
    available_calls += static_cast<int>(appended);
    ++batch_calls;
    last_channel = channel;
  }
  void OnControlBypass(Channel* /*channel*/,
                       const StreamElement& element) override {
    bypassed.push_back(element);
  }

  int available_calls = 0;
  int batch_calls = 0;
  Channel* last_channel = nullptr;
  std::vector<StreamElement> bypassed;
};

class ChannelTest : public ::testing::Test {
 protected:
  NetworkConfig MakeConfig() {
    NetworkConfig c;
    c.base_latency = sim::Micros(100);
    c.bandwidth_bytes_per_us = 100;
    c.input_buffer_capacity = 4;
    c.output_buffer_capacity = 8;
    return c;
  }

  StreamElement Rec(uint64_t key) { return MakeRecord(key, 1, 0, 0, 100); }

  sim::Simulator sim_;
  RecordingReceiver receiver_;
};

TEST_F(ChannelTest, DeliversInFifoOrder) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  for (uint64_t k = 0; k < 4; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  ASSERT_EQ(ch.input_queue_size(), 4u);
  for (uint64_t k = 0; k < 4; ++k) EXPECT_EQ(ch.PopInput().key, k);
}

TEST_F(ChannelTest, DeliveryTakesLatencyAndBandwidth) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  ch.Push(Rec(0));  // 100 bytes at 100 B/us = 1us transfer + 100us latency
  sim_.RunUntil(100);
  EXPECT_EQ(ch.input_queue_size(), 0u);
  sim_.RunUntilIdle();
  EXPECT_EQ(ch.input_queue_size(), 1u);
  EXPECT_EQ(sim_.now(), 101);
}

TEST_F(ChannelTest, CreditWindowLimitsInFlight) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  for (uint64_t k = 0; k < 10; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  // Only input_buffer_capacity elements may be delivered until consumed.
  EXPECT_EQ(ch.input_queue_size(), 4u);
  EXPECT_EQ(ch.output_queue_size(), 6u);
  // Consuming releases credit and resumes transmission.
  ch.PopInput();
  ch.PopInput();
  sim_.RunUntilIdle();
  EXPECT_EQ(ch.input_queue_size(), 4u);
  EXPECT_EQ(ch.output_queue_size(), 4u);
}

TEST_F(ChannelTest, BatchedDeliveryCoalescesSameArrivalInstant) {
  // Fast wire: 100-byte records at 10000 B/us serialize in < 1 time unit, so
  // a burst shares one arrival instant and must land as ONE batch — a single
  // receiver notification covering all records, with per-record stats kept.
  NetworkConfig c = MakeConfig();
  c.bandwidth_bytes_per_us = 10000;
  Channel ch(&sim_, c, 1, 2, &receiver_);
  for (uint64_t k = 0; k < 4; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  EXPECT_EQ(receiver_.batch_calls, 1);
  EXPECT_EQ(receiver_.available_calls, 4);  // sum of `appended`
  EXPECT_EQ(ch.delivered_elements(), 4u);
  EXPECT_EQ(ch.delivered_batches(), 1u);
  EXPECT_EQ(ch.max_batch_size(), 4u);
  EXPECT_EQ(ch.batch_size_log2_hist()[2], 1u);  // one batch in [4, 8)
  for (uint64_t k = 0; k < 4; ++k) EXPECT_EQ(ch.PopInput().key, k);
}

TEST_F(ChannelTest, StaggeredArrivalsDeliverAsSingletonBatches) {
  // Slow wire: 1 us serialization per record staggers arrivals, so each
  // record is its own due prefix — batching must degrade to per-record
  // delivery without merging records that are not due yet.
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  for (uint64_t k = 0; k < 4; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  EXPECT_EQ(receiver_.batch_calls, 4);
  EXPECT_EQ(receiver_.available_calls, 4);
  EXPECT_EQ(ch.delivered_batches(), 4u);
  EXPECT_EQ(ch.max_batch_size(), 1u);
  EXPECT_EQ(ch.batch_size_log2_hist()[0], 4u);  // four singleton batches
}

TEST_F(ChannelTest, CongestionSignalsAtCapacity) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  for (uint64_t k = 0; k < 12; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  EXPECT_TRUE(ch.congested());  // 8 left in output cache (12 - 4 delivered)
  int decongest_fired = 0;
  ch.AddDecongestListener([&] { ++decongest_fired; });
  // Drain the input queue repeatedly: credit lets output drain below half.
  while (ch.HasInput()) {
    ch.PopInput();
    sim_.RunUntilIdle();
  }
  EXPECT_GT(decongest_fired, 0);
  EXPECT_FALSE(ch.congested());
}

TEST_F(ChannelTest, PushPriorityJumpsQueue) {
  NetworkConfig cfg = MakeConfig();
  cfg.input_buffer_capacity = 1;  // keep everything in the output cache
  Channel ch(&sim_, cfg, 1, 2, &receiver_);
  for (uint64_t k = 0; k < 3; ++k) ch.Push(Rec(k));
  StreamElement barrier;
  barrier.kind = ElementKind::kConfirmBarrier;
  ch.PushPriority(barrier);
  sim_.RunUntilIdle();
  // First delivery is record 0 (already in flight before the priority push),
  // but the barrier overtakes records 1 and 2.
  EXPECT_EQ(ch.PopInput().key, 0u);
  sim_.RunUntilIdle();
  EXPECT_EQ(ch.PopInput().kind, ElementKind::kConfirmBarrier);
}

TEST_F(ChannelTest, PushBypassSkipsQueues) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  for (uint64_t k = 0; k < 20; ++k) ch.Push(Rec(k));
  StreamElement trigger;
  trigger.kind = ElementKind::kTriggerBarrier;
  ch.PushBypass(trigger);
  sim_.RunUntil(sim::Micros(100));  // exactly base latency
  ASSERT_EQ(receiver_.bypassed.size(), 1u);
  EXPECT_EQ(receiver_.bypassed[0].kind, ElementKind::kTriggerBarrier);
  // Data is still queued behind.
  EXPECT_GT(ch.output_queue_size() + ch.in_flight(), 0u);
}

TEST_F(ChannelTest, ExtractFromOutputPreservesOrder) {
  NetworkConfig cfg = MakeConfig();
  cfg.input_buffer_capacity = 1;
  Channel ch(&sim_, cfg, 1, 2, &receiver_);
  for (uint64_t k = 0; k < 8; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  // key 0 is in flight/delivered; 1..7 remain in the output cache.
  auto odd = ch.ExtractFromOutput(
      [](const StreamElement& e) { return e.key % 2 == 1; });
  ASSERT_EQ(odd.size(), 4u);
  EXPECT_EQ(odd[0].key, 1u);
  EXPECT_EQ(odd[3].key, 7u);
  // Remaining even keys still deliver in order.
  std::vector<uint64_t> seen;
  while (true) {
    sim_.RunUntilIdle();
    if (!ch.HasInput()) break;
    seen.push_back(ch.PopInput().key);
  }
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 2, 4, 6}));
}

TEST_F(ChannelTest, ExtractBeforeStopsAtBarrier) {
  NetworkConfig cfg = MakeConfig();
  cfg.input_buffer_capacity = 1;
  Channel ch(&sim_, cfg, 1, 2, &receiver_);
  ch.Push(Rec(100));  // goes in flight
  ch.Push(Rec(1));
  ch.Push(Rec(2));
  StreamElement barrier;
  barrier.kind = ElementKind::kCheckpointBarrier;
  ch.Push(barrier);
  ch.Push(Rec(3));
  auto taken = ch.ExtractFromOutputBefore(
      [](const StreamElement& e) { return e.kind == ElementKind::kRecord; },
      [](const StreamElement& e) {
        return e.kind == ElementKind::kCheckpointBarrier;
      });
  ASSERT_EQ(taken.size(), 2u);  // records 1 and 2 only; 3 is past the barrier
  EXPECT_EQ(taken[0].key, 1u);
  EXPECT_EQ(taken[1].key, 2u);
}

TEST_F(ChannelTest, InsertAfterFirstBarrier) {
  NetworkConfig cfg = MakeConfig();
  cfg.input_buffer_capacity = 1;
  Channel ch(&sim_, cfg, 1, 2, &receiver_);
  ch.Push(Rec(0));
  StreamElement barrier;
  barrier.kind = ElementKind::kCheckpointBarrier;
  ch.Push(barrier);
  ch.Push(Rec(1));
  StreamElement confirm;
  confirm.kind = ElementKind::kConfirmBarrier;
  EXPECT_TRUE(ch.InsertAfterFirst(
      [](const StreamElement& e) {
        return e.kind == ElementKind::kCheckpointBarrier;
      },
      confirm));
  // Drain everything; the confirm must come right after the barrier.
  std::vector<ElementKind> kinds;
  while (true) {
    sim_.RunUntilIdle();
    if (!ch.HasInput()) break;
    kinds.push_back(ch.PopInput().kind);
  }
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[1], ElementKind::kCheckpointBarrier);
  EXPECT_EQ(kinds[2], ElementKind::kConfirmBarrier);
}

TEST_F(ChannelTest, InsertAfterFirstNoMatch) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  StreamElement confirm;
  confirm.kind = ElementKind::kConfirmBarrier;
  EXPECT_FALSE(ch.InsertAfterFirst(
      [](const StreamElement& e) {
        return e.kind == ElementKind::kCheckpointBarrier;
      },
      confirm));
}

TEST_F(ChannelTest, OnElementAvailableFires) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  ch.Push(Rec(0));
  sim_.RunUntilIdle();
  EXPECT_EQ(receiver_.available_calls, 1);
  EXPECT_EQ(receiver_.last_channel, &ch);
}

TEST_F(ChannelTest, StateChunkUsesChunkBytes) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  StreamElement chunk;
  chunk.kind = ElementKind::kStateChunk;
  chunk.chunk_bytes = 10000;  // 100us transfer at 100 B/us + 100us latency
  ch.Push(chunk);
  sim_.RunUntil(150);
  EXPECT_EQ(ch.input_queue_size(), 0u);
  sim_.RunUntilIdle();
  EXPECT_EQ(sim_.now(), 200);
  EXPECT_EQ(ch.delivered_bytes(), 10000u);
}

TEST_F(ChannelTest, ScalingPathFlag) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  EXPECT_FALSE(ch.scaling_path());
  ch.set_scaling_path(true);
  EXPECT_TRUE(ch.scaling_path());
}

// ---------------------------------------------------------------------------
// Direct transmit. A Push into an empty output cache that the credit window
// and the fault plane admit goes straight onto the wire; every case below
// must look exactly as it did when each element was cached and read back.
// The expected values were recorded on the cached-only channel.
// ---------------------------------------------------------------------------

/// Logs (arrival time, key, kind) of every delivered element; optionally
/// consumes it at once, returning its credit.
class LoggingReceiver : public ChannelReceiver {
 public:
  using Entry = std::tuple<sim::SimTime, uint64_t, ElementKind>;
  LoggingReceiver(sim::Simulator* sim, bool drain) : sim_(sim), drain_(drain) {}
  void OnBatchAvailable(Channel* channel, size_t appended) override {
    const auto& q = channel->input_queue();
    for (size_t i = q.size() - appended; i < q.size(); ++i) {
      log.emplace_back(sim_->now(), q[i].key, q[i].kind);
    }
    while (drain_ && channel->HasInput()) channel->PopInput();
  }
  void OnControlBypass(Channel* /*channel*/,
                       const StreamElement& /*element*/) override {}

  std::vector<Entry> log;

 private:
  sim::Simulator* sim_;
  bool drain_;
};

class OnsetCounter : public ChannelSender {
 public:
  void OnOutputCongested(Channel* /*channel*/) override { ++onsets; }
  int onsets = 0;
};

TEST(DirectTransmit, CapacityOneKeepsTheCachedPath) {
  // With room for one element, caching the element is itself a congestion
  // onset: the sender hears of it and the latch sets (and, at capacity 1,
  // never releases: half of 1 is 0).
  sim::Simulator sim;
  LoggingReceiver receiver(&sim, /*drain=*/false);
  NetworkConfig cfg;
  cfg.base_latency = sim::Micros(100);
  cfg.bandwidth_bytes_per_us = 100;
  cfg.input_buffer_capacity = 2;
  cfg.output_buffer_capacity = 1;
  Channel ch(&sim, cfg, 1, 2, &receiver);
  OnsetCounter sender;
  ch.set_sender(&sender);
  int decongested = 0;
  ch.AddDecongestListener([&] { ++decongested; });
  for (uint64_t k = 0; k < 4; ++k) ch.Push(MakeRecord(k, 0, 0, 0, 100));
  // k0 and k1 left at once; k2 and k3 wait for credit.
  EXPECT_EQ(sender.onsets, 3);
  EXPECT_EQ(ch.output_queue_size(), 2u);
  EXPECT_TRUE(ch.congested());
  sim.RunUntilIdle();
  ch.PopInput();
  ch.PopInput();
  sim.RunUntilIdle();
  EXPECT_EQ(ch.output_queue_size(), 0u);
  EXPECT_FALSE(ch.congested());
  EXPECT_EQ(decongested, 0);
  EXPECT_EQ(ch.direct_transmits(), 0u);
  const std::vector<LoggingReceiver::Entry> expected = {
      {101, 0, ElementKind::kRecord},
      {102, 1, ElementKind::kRecord},
      {203, 2, ElementKind::kRecord},
      {204, 3, ElementKind::kRecord}};
  EXPECT_EQ(receiver.log, expected);
}

/// Partitions the link in [50, 150) us, halves its bandwidth, drops every
/// second state chunk and duplicates every third; counts gate queries.
class ScriptedFaults : public FaultPlane {
 public:
  explicit ScriptedFaults(sim::Simulator* sim) : sim_(sim) {}
  bool AllowTransmit(const Channel& /*channel*/) override {
    ++allow_calls;
    return sim_->now() < 50 || sim_->now() >= 150;
  }
  double BandwidthFactor(const Channel& /*channel*/) override { return 0.5; }
  ChunkFaultDecision OnChunkTransmit(const Channel& /*channel*/,
                                     const StreamElement& /*chunk*/) override {
    ++chunks;
    ChunkFaultDecision d;
    d.drop = chunks % 2 == 0;
    d.duplicate = chunks % 3 == 0;
    return d;
  }
  int allow_calls = 0;
  int chunks = 0;

 private:
  sim::Simulator* sim_;
};

TEST(DirectTransmit, FaultPlaneGatesEveryPush) {
  sim::Simulator sim;
  ScriptedFaults faults(&sim);
  sim.set_fault_plane(&faults);
  LoggingReceiver receiver(&sim, /*drain=*/true);
  NetworkConfig cfg;
  cfg.base_latency = sim::Micros(100);
  cfg.bandwidth_bytes_per_us = 100;
  cfg.input_buffer_capacity = 4;
  cfg.output_buffer_capacity = 8;
  Channel ch(&sim, cfg, 1, 2, &receiver);
  auto chunk = [](uint64_t key) {
    StreamElement c;
    c.kind = ElementKind::kStateChunk;
    c.key = key;
    c.chunk_bytes = 1000;  // 20 us at the halved bandwidth
    return c;
  };
  auto push_at = [&](sim::SimTime t, StreamElement e) {
    sim.ScheduleAt(t, [&ch, e] { ch.Push(e); });
  };
  push_at(0, MakeRecord(1, 0, 0, 0, 100));
  push_at(10, chunk(2));   // sent
  push_at(20, chunk(3));   // dropped on the wire, link time still spent
  push_at(60, MakeRecord(4, 0, 0, 0, 100));   // partitioned: cached
  push_at(70, MakeRecord(5, 0, 0, 0, 100));   // behind it
  sim.ScheduleAt(150, [&ch] { ch.PokeTransmit(); });  // healed
  push_at(160, chunk(6));  // sent twice (duplicated)
  push_at(400, chunk(7));  // dropped
  push_at(500, MakeRecord(8, 0, 0, 0, 100));
  sim.RunUntilIdle();
  EXPECT_EQ(faults.allow_calls, 12);
  EXPECT_EQ(faults.chunks, 4);
  EXPECT_EQ(ch.link_free_at(), 502);
  EXPECT_EQ(ch.direct_transmits(), 6u);
  const std::vector<LoggingReceiver::Entry> expected = {
      {102, 1, ElementKind::kRecord},
      {130, 2, ElementKind::kStateChunk},
      {252, 4, ElementKind::kRecord},
      {254, 5, ElementKind::kRecord},
      {280, 6, ElementKind::kStateChunk},
      {280, 6, ElementKind::kStateChunk},
      {602, 8, ElementKind::kRecord}};
  EXPECT_EQ(receiver.log, expected);
}

/// Records what a cross-partition channel posts to the engine mailbox.
class RecordingRouter : public RemoteRouter {
 public:
  void PostRemote(Channel* /*channel*/, sim::SimTime arrival,
                  StreamElement element, bool bypass) override {
    posts.emplace_back(arrival, element.key, bypass);
  }
  void PostRemoteCredit(Channel* /*channel*/, uint32_t credits) override {
    credit_posts += credits;
  }
  std::vector<std::tuple<sim::SimTime, uint64_t, bool>> posts;
  uint32_t credit_posts = 0;
};

TEST(DirectTransmit, CrossPartitionChannelNeverTakesIt) {
  sim::Simulator sender_sim;
  sim::Simulator receiver_sim;
  LoggingReceiver receiver(&receiver_sim, /*drain=*/false);
  NetworkConfig cfg;
  cfg.base_latency = sim::Micros(100);
  cfg.bandwidth_bytes_per_us = 100;
  cfg.input_buffer_capacity = 2;
  cfg.output_buffer_capacity = 8;
  Channel ch(&sender_sim, cfg, 1, 2, &receiver);
  RecordingRouter router;
  ch.BindRemote(&router, /*sender_partition=*/0, /*receiver_partition=*/1,
                &receiver_sim);
  ch.Push(MakeRecord(1, 0, 0, 0, 100));
  ch.Push(MakeRecord(2, 0, 0, 0, 100));
  ch.Push(MakeRecord(3, 0, 0, 0, 100));  // out of credit: cached
  EXPECT_EQ(ch.output_queue_size(), 1u);
  sender_sim.ScheduleAt(50, [] {});
  sender_sim.RunUntilIdle();
  {
    SerialPhaseScope serial(kEngineSerialPhase);
    ch.ApplyRemoteCredits(1);
  }
  ch.Push(MakeRecord(4, 0, 0, 0, 100));  // empty cache, but remote: cached
  EXPECT_EQ(ch.output_queue_size(), 1u);
  EXPECT_EQ(ch.direct_transmits(), 0u);
  const std::vector<std::tuple<sim::SimTime, uint64_t, bool>> expected = {
      {101, 1, false}, {102, 2, false}, {151, 3, false}};
  EXPECT_EQ(router.posts, expected);
}

TEST(InputReadiness, WalksVisitSetBitsInProbeOrder) {
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    InputReadiness ready;
    std::vector<bool> ref;
    const size_t n = 1 + rng.NextBounded(150);  // up to three words
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ready.AddSlot(), i);
      ref.push_back(false);
      if (rng.NextBounded(4) == 0) {
        ready.Set(static_cast<uint32_t>(i));
        ref[i] = true;
      }
    }
    if (rng.NextBounded(2) == 0) {  // clear a few again
      for (size_t i = 0; i < n; ++i) {
        if (ref[i] && rng.NextBounded(3) == 0) {
          ready.Clear(static_cast<uint32_t>(i));
          ref[i] = false;
        }
      }
    }
    std::vector<size_t> ascending;
    for (size_t i = 0; i < n; ++i) {
      if (ref[i]) ascending.push_back(i);
      EXPECT_EQ(ready.test(i), ref[i]);
    }
    EXPECT_EQ(ready.none(), ascending.empty());
    std::vector<size_t> walked;
    for (size_t i = ready.NextSet(0); i < n; i = ready.NextSet(i + 1)) {
      walked.push_back(i);
    }
    EXPECT_EQ(walked, ascending);
    const size_t start = rng.NextBounded(n);
    std::vector<size_t> probe;
    for (size_t step = 0; step < n; ++step) {
      if (ref[(start + step) % n]) probe.push_back((start + step) % n);
    }
    walked.clear();
    for (size_t i = ready.CyclicFirst(start); i < n;
         i = ready.CyclicNext(start, i)) {
      walked.push_back(i);
    }
    EXPECT_EQ(walked, probe) << "round " << round << " start " << start;
  }
}

}  // namespace
}  // namespace drrs::net
