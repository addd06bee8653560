#include "harness/experiment.h"

#include <cstdio>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "runtime/checkpoint.h"
#include "scaling/scale_service.h"
#include "sim/partition.h"

namespace drrs::harness {

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kNoScale:
      return "no-scale";
    case SystemKind::kDrrs:
      return "drrs";
    case SystemKind::kDrrsDR:
      return "drrs-dr";
    case SystemKind::kDrrsSchedule:
      return "drrs-schedule";
    case SystemKind::kDrrsSubscale:
      return "drrs-subscale";
    case SystemKind::kMegaphone:
      return "megaphone";
    case SystemKind::kMeces:
      return "meces";
    case SystemKind::kOtfsFluid:
      return "otfs-fluid";
    case SystemKind::kOtfsAllAtOnce:
      return "otfs-all-at-once";
    case SystemKind::kUnbound:
      return "unbound";
    case SystemKind::kStopRestart:
      return "stop-restart";
  }
  return "?";
}

scaling::Mechanism MechanismFor(SystemKind kind) {
  switch (kind) {
    case SystemKind::kNoScale:
      break;  // no mechanism; callers must not ask
    case SystemKind::kDrrs:
      return scaling::Mechanism::kDrrs;
    case SystemKind::kDrrsDR:
      return scaling::Mechanism::kDrrsDR;
    case SystemKind::kDrrsSchedule:
      return scaling::Mechanism::kDrrsSchedule;
    case SystemKind::kDrrsSubscale:
      return scaling::Mechanism::kDrrsSubscale;
    case SystemKind::kMegaphone:
      return scaling::Mechanism::kMegaphone;
    case SystemKind::kMeces:
      return scaling::Mechanism::kMeces;
    case SystemKind::kOtfsFluid:
      return scaling::Mechanism::kOtfsFluid;
    case SystemKind::kOtfsAllAtOnce:
      return scaling::Mechanism::kOtfsAllAtOnce;
    case SystemKind::kUnbound:
      return scaling::Mechanism::kUnbound;
    case SystemKind::kStopRestart:
      return scaling::Mechanism::kStopRestart;
  }
  DRRS_CHECK(false) << "no mechanism for system kind";
  return scaling::Mechanism::kDrrs;
}

std::unique_ptr<scaling::ScalingStrategy> MakeStrategy(
    SystemKind kind, runtime::ExecutionGraph* graph) {
  if (kind == SystemKind::kNoScale) return nullptr;
  scaling::ScaleService::Options options;
  options.mechanism = MechanismFor(kind);
  return scaling::MakeMechanismStrategy(options.mechanism, graph, options);
}

ExperimentResult RunExperiment(const workloads::WorkloadSpec& workload,
                               const ExperimentConfig& config) {
  sim::Simulator sim;
  // The partitioned backend is always attached, even at threads=1: the
  // logical partitioning must be a function of the job graph alone, never of
  // the thread count, or results would differ across --threads values.
  sim::PdesEngine::Options engine_options;
  engine_options.threads = config.threads == 0 ? 1 : config.threads;
  sim::PdesEngine engine(&sim, engine_options);

  auto hub = std::make_unique<metrics::MetricsHub>();
  runtime::ExecutionGraph graph(&sim, workload.graph, config.engine,
                                hub.get());
  graph.AttachEngine(&engine, /*base_seed=*/1);
  if (!config.partition_override.empty()) {
    graph.set_partition_override(config.partition_override);
  }
  Status st = graph.Build();
  DRRS_CHECK(st.ok()) << st.ToString();
  const uint32_t partitions = graph.partition_count();

  // Observers install after Build (which emits no audit/trace events) so
  // every logical process gets its own instance; the per-partition reports
  // and traces merge canonically after the run.
#if DRRS_AUDIT
  std::vector<std::unique_ptr<verify::Auditor>> auditors;
  if (config.audit) {
    for (uint32_t p = 0; p < partitions; ++p) {
      auditors.push_back(std::make_unique<verify::Auditor>());
      engine.partition_sim(p)->set_auditor(auditors[p].get());
    }
  }
#endif
#if DRRS_TRACE
  // Tracers are always installed in trace builds: with no --trace path they
  // run ring-only, so the flight recorder is armed at bounded cost.
  std::vector<std::unique_ptr<trace::Tracer>> tracers;
  for (uint32_t p = 0; p < partitions; ++p) {
    trace::Tracer::Options trace_options = config.trace;
    if (config.trace_path.empty()) {
      trace_options.ring_only = true;
    } else if (trace_options.flight_dump_path ==
               trace::Tracer::Options{}.flight_dump_path) {
      trace_options.flight_dump_path = config.trace_path + ".flight.json";
    }
    if (p > 0) trace_options.flight_dump_path += ".p" + std::to_string(p);
    tracers.push_back(std::make_unique<trace::Tracer>(trace_options));
    engine.partition_sim(p)->set_tracer(tracers[p].get());
  }
#if DRRS_AUDIT
  for (uint32_t p = 0; p < auditors.size(); ++p) {
    trace::Tracer* t = tracers[p].get();
    auditors[p]->set_on_violation([t](const verify::Violation& v) {
      t->DumpFlightRecorder("audit violation: " + v.message);
    });
  }
#endif
#endif

  // Fault machinery: a checkpoint coordinator whenever the schedule needs
  // recovery points, and the injector itself when any fault is declared.
  // Both are partition-local subsystems; exercise them on single-component
  // workloads.
  DRRS_CHECK(partitions == 1 || (!config.faults.any() &&
                                 config.faults.checkpoints.empty()))
      << "fault injection/checkpointing require a single-partition workload";
  std::optional<runtime::CheckpointCoordinator> checkpoints;
  if (!config.faults.checkpoints.empty() || !config.faults.crashes.empty()) {
    checkpoints.emplace(&graph);
  }
  std::optional<fault::FaultInjector> injector;
  if (config.faults.any()) {
    injector.emplace(&graph, config.faults);
    Status fault_st = injector->Arm();
    DRRS_CHECK(fault_st.ok()) << "invalid fault schedule: "
                              << fault_st.ToString();
  }

  // Every mechanism runs behind the same control plane (ScaleService).
  std::optional<scaling::ScaleService> service;
  scaling::ScalingStrategy* strategy = nullptr;
  dataflow::OperatorId op = workload.scaled_op;
  if (config.system != SystemKind::kNoScale) {
    scaling::ScaleService::Options service_options;
    service_options.mechanism = MechanismFor(config.system);
    service_options.retry = config.scale_retry;
    service_options.chunk_retry = config.chunk_retry;
    service_options.breaker = config.scale_breaker;
    service.emplace(&graph, service_options);
    strategy = service->Prepare(op);
    DRRS_CHECK(strategy != nullptr) << "workload scaled_op not rescalable";
    // The control plane lives on the primary simulator; the scaled operator
    // (and all operators it exchanges scaling traffic with, which share its
    // connected component by construction) must be in partition 0.
    DRRS_CHECK(graph.partition_of(op) == 0)
        << "scaled operator must live in partition 0";
    sim.ScheduleAt(config.scale_at, [&service, op, &config]() {
      Status s = service->RequestRescale(op, config.target_parallelism);
      if (!s.ok()) {
        DRRS_LOG(Error) << "RequestRescale failed: " << s.ToString();
      }
    });
  }

  // Overload control for the scaled operator. Like fault injection this is
  // a partition-local subsystem: a single logical process keeps every
  // shed/throttle decision in one deterministic event order.
  std::optional<overload::OverloadController> overload_ctl;
  if (config.overload.enabled) {
    DRRS_CHECK(partitions == 1)
        << "overload control requires a single-partition workload";
    overload_ctl.emplace(&graph, op, config.overload);
    overload_ctl->Arm();
    if (service) {
      service->set_pressure_provider(
          [&overload_ctl]() { return static_cast<int>(overload_ctl->level()); });
    }
  }

  // Telemetry sampler (runtime-gated, default off). Constructed before
  // Start() so the first sample's deltas are against true zeros.
  std::unique_ptr<telemetry::TelemetryRegistry> telemetry_reg;
  if (config.telemetry.enabled) {
    telemetry_reg =
        std::make_unique<telemetry::TelemetryRegistry>(&graph,
                                                       config.telemetry);
    if (overload_ctl) telemetry_reg->set_overload(&*overload_ctl, op);
    if (strategy != nullptr) telemetry_reg->set_strategy(strategy, op);
#if DRRS_TRACE
    // Counter tracks ride the primary tracer; samples are taken at engine
    // serialization points, so appending to partition 0's log is ordered.
    telemetry_reg->set_tracer(tracers[0].get());
#endif
  }

  graph.Start();

  // Periodic state-size sampling; self-cancels when the sources dry up so a
  // run-to-completion horizon still terminates.
  std::optional<sim::PeriodicProcess> state_sampler;
  sim::PeriodicProcess* sampler_handle = nullptr;
  if (config.state_sample_period > 0) {
    if (partitions == 1) {
      state_sampler.emplace(
          &sim, config.state_sample_period, config.state_sample_period, [&]() {
            hub->RecordStateBytes(sim.now(), graph.TotalStateBytes());
            for (runtime::SourceTask* s : graph.sources()) {
              if (!s->exhausted()) return;
            }
            if (sampler_handle != nullptr) sampler_handle->Cancel();
          });
      sampler_handle = &*state_sampler;
    } else {
      // Global timers are engine-level serialization points, so the sampler
      // sees a consistent cross-partition state snapshot.
      engine.AddGlobalTimer(
          config.state_sample_period, config.state_sample_period,
          [&hub, &graph](sim::SimTime t) {
            hub->RecordStateBytes(t, graph.TotalStateBytes());
            for (runtime::SourceTask* s : graph.sources()) {
              if (!s->exhausted()) return true;
            }
            return false;
          });
    }
  }

  // Telemetry sampling rides the same dual path as the state sampler and
  // registers after it, so the engine's global-timer order (and therefore
  // every existing golden) is unchanged when telemetry is off.
  std::optional<sim::PeriodicProcess> telemetry_sampler;
  sim::PeriodicProcess* telemetry_handle = nullptr;
  if (telemetry_reg && config.telemetry.sample_period > 0) {
    const sim::SimTime period = config.telemetry.sample_period;
    telemetry::TelemetryRegistry* reg = telemetry_reg.get();
    if (partitions == 1) {
      telemetry_sampler.emplace(&sim, period, period, [&, reg]() {
        reg->Sample(sim.now());
        for (runtime::SourceTask* s : graph.sources()) {
          if (!s->exhausted()) return;
        }
        if (telemetry_handle != nullptr) telemetry_handle->Cancel();
      });
      telemetry_handle = &*telemetry_sampler;
    } else {
      engine.AddGlobalTimer(period, period, [reg, &graph](sim::SimTime t) {
        reg->Sample(t);
        for (runtime::SourceTask* s : graph.sources()) {
          if (!s->exhausted()) return true;
        }
        return false;
      });
    }
  }

  sim::SimTime horizon = config.horizon;
  if (horizon <= 0) horizon = sim::kSimTimeMax;  // run to completion
  engine.RunUntil(horizon);
  graph.MergeHubShards();

  ExperimentResult result;
#if DRRS_AUDIT
  if (!auditors.empty()) {
    // Leak checks only make sense once the event queues fully drained.
    if (horizon == sim::kSimTimeMax) {
      for (auto& a : auditors) a->Finalize();
    }
    result.audit = auditors[0]->Report();
    for (size_t p = 1; p < auditors.size(); ++p) {
      result.audit.MergeFrom(auditors[p]->Report());
    }
  }
#endif
#if DRRS_TRACE
  for (const auto& t : tracers) {
    result.trace_events += t->event_count();
    result.flight_dumps += t->flight_dumps();
  }
  if (!config.trace_path.empty()) {
    Status trace_st;
    if (tracers.size() == 1) {
      trace_st = tracers[0]->ExportJson(config.trace_path);
    } else {
      std::vector<const trace::Tracer*> secondary;
      for (size_t p = 1; p < tracers.size(); ++p) {
        secondary.push_back(tracers[p].get());
      }
      trace_st = tracers[0]->ExportMergedJson(config.trace_path, secondary);
    }
    if (!trace_st.ok()) {
      DRRS_LOG(Error) << "trace export failed: " << trace_st.ToString();
    }
  }
#endif
  result.system = strategy ? strategy->name() : SystemName(config.system);
  result.workload = workload.name;
  result.scale_at = config.scale_at;

  const metrics::TimeSeries& latency = hub->latency_ms();
  sim::SimTime baseline_from =
      std::max<sim::SimTime>(0, config.scale_at - sim::Seconds(60));
  result.baseline_latency_ms =
      latency.MeanIn(baseline_from, config.scale_at - 1);

  if (strategy != nullptr) {
    sim::SimTime restab = metrics::DetectRestabilization(
        latency, config.scale_at,
        result.baseline_latency_ms * config.restab_tolerance +
            config.restab_slack_ms,
        config.restab_hold);
    result.scaling_period = restab - config.scale_at;
    const metrics::ScalingMetrics& sm = hub->scaling();
    if (sm.scale_end() >= 0 && sm.scale_start() >= 0) {
      result.mechanism_duration = sm.scale_end() - sm.scale_start();
    }
    result.cumulative_propagation = sm.CumulativePropagationDelay();
    result.avg_dependency_us = sm.AverageDependencyOverheadUs();
    result.cumulative_suspension = sm.CumulativeSuspension();
    result.transfers = sm.UnitTransferStats();
    // Statistics over the scaling period; when the run never destabilized
    // (period 0) fall back to the hold window so peak/avg stay meaningful.
    sim::SimTime stats_window =
        std::max(result.scaling_period, config.restab_hold);
    result.peak_latency_ms =
        latency.MaxIn(config.scale_at, config.scale_at + stats_window);
    result.avg_latency_ms =
        latency.MeanIn(config.scale_at, config.scale_at + stats_window);
  } else {
    result.peak_latency_ms = latency.MaxIn(config.scale_at, sim::kSimTimeMax);
    result.avg_latency_ms = latency.MeanIn(config.scale_at, sim::kSimTimeMax);
  }
  result.invariants = hub->invariants();
  result.source_records = hub->source_rate().total();
  result.sink_records = hub->sink_rate().total();
  result.executed_events = engine.ExecutedEvents();
  result.elided_events = engine.ElidedEvents();
  runtime::ExecutionGraph::DeliveryStats delivery = graph.TotalDeliveryStats();
  result.delivered_elements = delivery.elements;
  result.delivered_batches = delivery.batches;
  result.recovery = hub->recovery();
  result.overload = hub->overload();
  if (overload_ctl) {
    result.shed_log = overload_ctl->shed_log();
    result.final_pressure = overload_ctl->level();
  }
  // End-of-run clock: the furthest any logical process advanced — a pure
  // function of the job graph, so stable across --threads values.
  for (uint32_t p = 0; p < partitions; ++p) {
    result.sim_end = std::max(result.sim_end, engine.partition_sim(p)->now());
  }
  if (telemetry_reg) {
    if (!config.telemetry.csv_path.empty()) {
      Status csv_st = telemetry_reg->WriteCsv(config.telemetry.csv_path);
      if (!csv_st.ok()) {
        DRRS_LOG(Error) << "telemetry csv export failed: " << csv_st.ToString();
      }
    }
    result.telemetry = std::move(telemetry_reg);
  }
  result.hub = std::move(hub);
  return result;
}

void PrintSeries(const std::string& label, const metrics::TimeSeries& series,
                 sim::SimTime bucket, bool use_max) {
  std::printf("# series: %s (t_seconds value)\n", label.c_str());
  for (const metrics::Sample& s : series.Bucketed(bucket, use_max)) {
    std::printf("%8.1f  %12.2f\n", sim::ToSeconds(s.time), s.value);
  }
}

void PrintRateSeries(const std::string& label,
                     const metrics::RateCounter& rc) {
  PrintSeries(label, rc.ToRateSeries(), rc.bucket_width());
}

void PrintRunSummary(const ExperimentResult& result) {
  std::printf("# run: %s / %s\n", result.system.c_str(),
              result.workload.c_str());
  std::printf("#   records            %llu -> %llu (sink)\n",
              static_cast<unsigned long long>(result.source_records),
              static_cast<unsigned long long>(result.sink_records));
  std::printf("#   latency ms         base %.2f  peak %.2f  avg %.2f\n",
              result.baseline_latency_ms, result.peak_latency_ms,
              result.avg_latency_ms);
  std::printf("#   scaling period     %.2f s (mechanism %.2f s)\n",
              sim::ToSeconds(result.scaling_period),
              sim::ToSeconds(result.mechanism_duration));
  const metrics::RecoveryMetrics& r = result.recovery;
  if (r.any()) {
    std::printf(
        "#   faults             chunks dropped %llu dup %llu delayed %llu\n",
        static_cast<unsigned long long>(r.chunks_dropped),
        static_cast<unsigned long long>(r.chunks_duplicated),
        static_cast<unsigned long long>(r.chunks_delayed));
    std::printf(
        "#   recovery           retransmits %llu  dup-suppressed %llu  "
        "forced-installs %llu\n",
        static_cast<unsigned long long>(r.chunk_retransmits),
        static_cast<unsigned long long>(r.duplicate_installs_suppressed),
        static_cast<unsigned long long>(r.forced_chunk_installs));
    std::printf(
        "#   scale-retry        aborts %llu  retries %llu  cancellations "
        "%llu\n",
        static_cast<unsigned long long>(r.scale_aborts),
        static_cast<unsigned long long>(r.scale_retries),
        static_cast<unsigned long long>(r.scale_cancellations));
    std::printf(
        "#   crash/link         crashes %llu  recoveries %llu  replayed "
        "%llu  partitions %llu healed %llu\n",
        static_cast<unsigned long long>(r.crashes_injected),
        static_cast<unsigned long long>(r.crash_recoveries),
        static_cast<unsigned long long>(r.replayed_elements),
        static_cast<unsigned long long>(r.links_partitioned),
        static_cast<unsigned long long>(r.links_healed));
  }
  const metrics::OverloadMetrics& o = result.overload;
  if (o.any()) {
    std::printf(
        "#   overload           shed %llu (tail %llu rand %llu cold %llu)  "
        "transitions %llu\n",
        static_cast<unsigned long long>(o.records_shed),
        static_cast<unsigned long long>(o.shed_drop_tail),
        static_cast<unsigned long long>(o.shed_random),
        static_cast<unsigned long long>(o.shed_cold_key),
        static_cast<unsigned long long>(o.pressure_transitions));
    std::printf(
        "#   backlog/throttle   peak %llu  last %llu  throttle-episodes "
        "%llu\n",
        static_cast<unsigned long long>(o.peak_input_backlog),
        static_cast<unsigned long long>(o.last_input_backlog),
        static_cast<unsigned long long>(o.throttle_activations));
    std::printf(
        "#   breaker            opens %llu  probes %llu  rejections %llu\n",
        static_cast<unsigned long long>(o.breaker_opens),
        static_cast<unsigned long long>(o.breaker_probes),
        static_cast<unsigned long long>(o.breaker_rejections));
  }
}

}  // namespace drrs::harness
