// Quickstart: build a small stateful job, run it on the simulated engine,
// rescale the aggregator 4 -> 6 with DRRS mid-stream, and print what
// happened. This is the smallest end-to-end use of the public API:
//
//   JobGraph -> ExecutionGraph -> DrrsStrategy::StartScale -> metrics.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "harness/experiment.h"
#include "metrics/metrics_hub.h"
#include "runtime/execution_graph.h"
#include "scaling/drrs/drrs.h"
#include "scaling/strategy.h"
#include "sim/partition.h"
#include "sim/simulator.h"
#include "trace/tracer.h"
#include "workloads/workloads.h"

using namespace drrs;

namespace {

[[noreturn]] void Reject(const char* flag, const std::string& why) {
  std::fprintf(stderr, "error: %s %s\n", flag, why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // `--trace=out.json` exports a Chrome/Perfetto trace of the run. The hook
  // sites only exist in DRRS_TRACE builds; elsewhere the export still works
  // but carries only track metadata. `--threads=N` sizes the partitioned
  // simulation backend's worker pool; output is bit-identical for every N.
  // An unknown flag or a malformed value exits 2 naming the flag.
  std::string trace_path;
  uint32_t threads = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path = arg + 8;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      const char* text = arg + 10;
      char* end = nullptr;
      errno = 0;
      long v = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || errno != 0 || v < 1 ||
          v > static_cast<long>(UINT32_MAX)) {
        Reject("--threads",
               std::string("wants an integer >= 1, got '") + text + "'");
      }
      threads = static_cast<uint32_t>(v);
    } else {
      Reject(arg, "is not a known flag (known: --trace=<path>, --threads=N)");
    }
  }

  // 1. Describe the job: generator -> keyed aggregator -> sink.
  workloads::CustomParams params;
  params.events_per_second = 3000;
  params.num_keys = 2000;
  params.skew = 0.5;
  params.duration = sim::Seconds(60);
  params.record_cost = sim::Micros(1100);  // aggregator near saturation
  params.agg_parallelism = 4;
  params.num_key_groups = 64;
  workloads::WorkloadSpec workload = workloads::BuildCustomWorkload(params);

  // 2. Deploy it on the simulated engine. The partitioned backend shards the
  //    job's connected components over `threads` workers; this job is one
  //    component, so every thread count produces the identical run.
  sim::Simulator sim;
  sim::PdesEngine pdes(&sim, {.threads = threads});
  std::optional<trace::Tracer> tracer;
  if (!trace_path.empty()) {
    trace::Tracer::Options topt;
    topt.flight_dump_path = trace_path + ".flight.json";
    tracer.emplace(topt);
    sim.set_tracer(&*tracer);
  }
  metrics::MetricsHub hub;
  runtime::EngineConfig engine;  // defaults: 1 Gbps links, invariants on
  runtime::ExecutionGraph graph(&sim, workload.graph, engine, &hub);
  graph.AttachEngine(&pdes, /*base_seed=*/1);
  Status st = graph.Build();
  if (!st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 3. Attach the DRRS scaling strategy and request a 4 -> 6 rescale at
  //    t = 20 s. The plan comes from live key-group ownership.
  scaling::DrrsStrategy drrs(&graph, scaling::FullDrrsOptions());
  sim.ScheduleAt(sim::Seconds(20), [&] {
    scaling::ScalePlan plan =
        scaling::PlanRescale(&graph, workload.scaled_op, 6);
    std::printf("[t=%.1fs] scaling 'aggregator' 4 -> 6: %zu of 64 key-groups "
                "migrate in %s\n",
                sim::ToSeconds(sim.now()), plan.migrations.size(),
                "independent subscales");
    Status s = drrs.StartScale(plan);
    if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
  });

  // 4. Run to completion.
  graph.Start();
  pdes.RunUntilIdle();

  // 5. Report.
  const metrics::ScalingMetrics& sm = hub.scaling();
  std::printf("\n--- results ---\n");
  std::printf("records processed:        %llu (exactly-once: %s)\n",
              static_cast<unsigned long long>(hub.source_rate().total()),
              hub.invariants().Clean() ? "yes" : "VIOLATED");
  std::printf("scaling mechanism time:   %.2f s\n",
              sim::ToSeconds(sm.scale_end() - sm.scale_start()));
  std::printf("cumulative propagation:   %.2f ms\n",
              sim::ToMillis(sm.CumulativePropagationDelay()));
  std::printf("avg dependency overhead:  %.2f ms\n",
              sm.AverageDependencyOverheadUs() / 1000.0);
  std::printf("cumulative suspension:    %.2f ms\n",
              sim::ToMillis(sm.CumulativeSuspension()));
  std::printf("pre-scale mean latency:   %.1f ms\n",
              hub.latency_ms().MeanIn(0, sim::Seconds(20)));
  std::printf("scaling-window peak:      %.1f ms\n",
              hub.latency_ms().MaxIn(sim::Seconds(20), sim::Seconds(40)));
  std::printf("post-scale mean latency:  %.1f ms\n",
              hub.latency_ms().MeanIn(sim::Seconds(45), sim::Seconds(60)));

  // Final deployment.
  for (runtime::Task* t : graph.instances_of(workload.scaled_op)) {
    std::printf("aggregator[%u] owns %zu key-groups, %llu records processed\n",
                t->subtask_index(), t->state()->owned_key_groups().size(),
                static_cast<unsigned long long>(t->processed_records()));
  }

  if (tracer.has_value()) {
    Status ts = tracer->ExportJson(trace_path);
    if (!ts.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", ts.ToString().c_str());
    }
  }
  return 0;
}
