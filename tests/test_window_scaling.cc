#include <gtest/gtest.h>

#include <map>
#include <set>

#include "harness/experiment.h"
#include "runtime/execution_graph.h"
#include "sim/simulator.h"
#include "workloads/workloads.h"

namespace drrs {
namespace {

using harness::MakeStrategy;
using harness::SystemKind;

/// Collects fired window panes at the sink: (key, window_end) -> aggregate.
/// Window results are deterministic per (key, pane) regardless of execution
/// interleaving, so any pane fired by both runs must agree exactly — this is
/// the event-time-semantics preservation the side-watermark machinery exists
/// for (a pane fired early would have missed late re-routed records and
/// show a smaller aggregate).
class PaneCollector : public runtime::SinkCollector {
 public:
  void OnRecord(sim::SimTime /*t*/,
                const dataflow::StreamElement& record) override {
    auto key = std::make_pair(record.key, record.event_time);
    auto [it, inserted] = panes_.emplace(key, record.value);
    if (!inserted) {
      // The same pane must never fire twice.
      ++double_fires_;
    }
  }
  std::map<std::pair<dataflow::KeyT, sim::SimTime>, int64_t> panes_;
  uint64_t double_fires_ = 0;
};

struct WindowRun {
  std::map<std::pair<dataflow::KeyT, sim::SimTime>, int64_t> panes;
  uint64_t double_fires = 0;
  uint64_t source_records = 0;
  metrics::InvariantMonitor invariants;
};

WindowRun RunWindows(SystemKind kind, int query, uint64_t seed,
                     uint64_t state_padding_bytes) {
  workloads::NexmarkParams p;
  p.query = query;
  p.events_per_second = 1200;
  p.num_auctions = 400;
  p.duration = sim::Seconds(25);
  p.window_parallelism = 3;
  p.num_key_groups = 24;
  p.record_cost = sim::Micros(400);
  p.state_padding_bytes = state_padding_bytes;
  p.seed = seed;
  auto workload = workloads::BuildNexmarkWorkload(p);

  sim::Simulator sim;
  metrics::MetricsHub hub;
  runtime::ExecutionGraph graph(&sim, workload.graph, runtime::EngineConfig{},
                                &hub);
  EXPECT_TRUE(graph.Build().ok());
  PaneCollector collector;
  for (runtime::Task* t : graph.instances_of(graph.OperatorByName("sink"))) {
    t->set_sink_collector(&collector);
  }
  auto strategy = MakeStrategy(kind, &graph);
  if (strategy != nullptr) {
    sim.ScheduleAt(sim::Seconds(10), [&] {
      EXPECT_TRUE(
          strategy
              ->StartScale(scaling::PlanRescale(&graph, workload.scaled_op, 5))
              .ok());
    });
  }
  graph.Start();
  sim.RunUntilIdle();
  if (strategy != nullptr) {
    EXPECT_TRUE(strategy->done());
  }

  WindowRun out;
  out.panes = collector.panes_;
  out.double_fires = collector.double_fires_;
  out.source_records = hub.source_rate().total();
  out.invariants = hub.invariants();
  return out;
}

/// Padding of the default cases, and of the large-state ones: big enough
/// that migrations outlast many watermark intervals, so watermarks are still
/// queued on a rail when it closes.
constexpr uint64_t kSmallState = 4096;
constexpr uint64_t kLargeState = 768 * 1024;

struct WindowCase {
  SystemKind kind;
  int query;
  uint64_t seed;
  uint64_t state_padding_bytes = kSmallState;
};

std::string WindowCaseName(const ::testing::TestParamInfo<WindowCase>& info) {
  std::string name = harness::SystemName(info.param.kind);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_q" + std::to_string(info.param.query) + "_seed" +
         std::to_string(info.param.seed) +
         (info.param.state_padding_bytes == kLargeState ? "_large" : "");
}

class WindowScaling : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowScaling, PanesMatchNoScaleRun) {
  const WindowCase& c = GetParam();
  WindowRun scaled = RunWindows(c.kind, c.query, c.seed, c.state_padding_bytes);
  WindowRun reference =
      RunWindows(SystemKind::kNoScale, c.query, c.seed, c.state_padding_bytes);

  ASSERT_EQ(scaled.source_records, reference.source_records);
  EXPECT_EQ(scaled.double_fires, 0u);
  EXPECT_EQ(reference.double_fires, 0u);
  EXPECT_TRUE(scaled.invariants.Clean());

  // Every pane fired in both runs must carry the identical aggregate. (The
  // *set* of fired panes can differ slightly at the stream tail, where lazy
  // firing depends on whether another record/watermark arrived in time.)
  size_t compared = 0;
  for (const auto& [pane, value] : reference.panes) {
    auto it = scaled.panes.find(pane);
    if (it == scaled.panes.end()) continue;
    EXPECT_EQ(it->second, value)
        << "pane (key=" << pane.first << ", end=" << pane.second
        << ") diverged";
    ++compared;
  }
  // The overwhelming majority of panes must have fired in both runs.
  EXPECT_GT(compared, reference.panes.size() * 9 / 10);
  EXPECT_GT(compared, 100u);
  // With large state, every mechanism that migrates over scaling rails must
  // fire every reference pane: a watermark still queued on a rail when the
  // rail is released must not pin the receiver's watermark afterwards.
  if (c.state_padding_bytes == kLargeState &&
      c.kind != SystemKind::kStopRestart) {
    EXPECT_EQ(compared, reference.panes.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SystemsQueriesSeeds, WindowScaling,
    ::testing::Values(WindowCase{SystemKind::kDrrs, 7, 1},
                      WindowCase{SystemKind::kDrrs, 7, 2},
                      WindowCase{SystemKind::kDrrs, 8, 1},
                      WindowCase{SystemKind::kDrrsDR, 7, 1},
                      WindowCase{SystemKind::kDrrsSchedule, 7, 1},
                      WindowCase{SystemKind::kDrrsSubscale, 7, 1},
                      WindowCase{SystemKind::kMegaphone, 7, 1},
                      WindowCase{SystemKind::kOtfsFluid, 7, 1},
                      WindowCase{SystemKind::kOtfsFluid, 8, 1},
                      WindowCase{SystemKind::kOtfsAllAtOnce, 7, 1},
                      WindowCase{SystemKind::kStopRestart, 7, 1},
                      WindowCase{SystemKind::kDrrs, 7, 1, kLargeState},
                      WindowCase{SystemKind::kDrrs, 7, 2, kLargeState},
                      WindowCase{SystemKind::kDrrs, 8, 1, kLargeState},
                      WindowCase{SystemKind::kDrrsDR, 7, 1, kLargeState},
                      WindowCase{SystemKind::kDrrsSchedule, 7, 1, kLargeState},
                      WindowCase{SystemKind::kDrrsSubscale, 7, 1, kLargeState},
                      WindowCase{SystemKind::kMegaphone, 7, 1, kLargeState},
                      WindowCase{SystemKind::kOtfsFluid, 7, 1, kLargeState},
                      WindowCase{SystemKind::kOtfsFluid, 8, 1, kLargeState},
                      WindowCase{SystemKind::kOtfsAllAtOnce, 7, 1, kLargeState},
                      WindowCase{SystemKind::kStopRestart, 7, 1, kLargeState}),
    WindowCaseName);

// Sliding-window state travels inside the migrated cells: after a scaled
// run, no pane may be stranded on a drained instance.
TEST(WindowScaling, NoStrandedPanesAfterScaleIn) {
  workloads::NexmarkParams p;
  p.query = 7;
  p.events_per_second = 1000;
  p.num_auctions = 300;
  p.duration = sim::Seconds(20);
  p.window_parallelism = 5;
  p.num_key_groups = 20;
  p.record_cost = sim::Micros(300);
  auto workload = workloads::BuildNexmarkWorkload(p);
  sim::Simulator sim;
  metrics::MetricsHub hub;
  runtime::ExecutionGraph graph(&sim, workload.graph, runtime::EngineConfig{},
                                &hub);
  ASSERT_TRUE(graph.Build().ok());
  auto strategy = MakeStrategy(SystemKind::kDrrs, &graph);
  sim.ScheduleAt(sim::Seconds(8), [&] {
    ASSERT_TRUE(
        strategy->StartScale(scaling::PlanRescale(&graph, workload.scaled_op, 3))
            .ok());
  });
  graph.Start();
  sim.RunUntilIdle();
  ASSERT_TRUE(strategy->done());
  for (uint32_t i = 3; i < 5; ++i) {
    runtime::Task* t = graph.instance(workload.scaled_op, i);
    EXPECT_TRUE(t->state()->owned_key_groups().empty());
    EXPECT_EQ(t->state()->TotalKeys(), 0u);
  }
  EXPECT_TRUE(hub.invariants().Clean());
}

}  // namespace
}  // namespace drrs
