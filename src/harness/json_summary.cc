#include "harness/json_summary.h"

#include <cinttypes>
#include <cstdio>

#include "metrics/histogram.h"

namespace drrs::harness {

namespace {

void AppendKey(std::string* out, const char* key) {
  *out += '"';
  *out += key;
  *out += "\":";
}

void AppendU64(std::string* out, const char* key, uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, key, v);
  *out += buf;
}

void AppendI64(std::string* out, const char* key, int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, key, v);
  *out += buf;
}

void AppendDouble(std::string* out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, v);
  *out += buf;
}

void AppendString(std::string* out, const char* key, const std::string& v) {
  AppendKey(out, key);
  *out += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') *out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) *out += c;
  }
  *out += '"';
}

void AppendHistogram(std::string* out, const char* key,
                     const metrics::LogHistogram& hist) {
  metrics::LogHistogram::Summary s = hist.Summarize();
  AppendKey(out, key);
  *out += '{';
  AppendU64(out, "count", s.count);
  *out += ',';
  AppendDouble(out, "mean", s.mean);
  *out += ',';
  AppendDouble(out, "p50", s.p50);
  *out += ',';
  AppendDouble(out, "p90", s.p90);
  *out += ',';
  AppendDouble(out, "p99", s.p99);
  *out += ',';
  AppendDouble(out, "p999", s.p999);
  *out += ',';
  AppendDouble(out, "max", s.max);
  *out += '}';
}

/// Windowed roll-up of one telemetry series: mean/max over the retained
/// window plus the final reading. The full series lives in the CSV/trace
/// exports; the summary carries enough to gate on.
void AppendSeriesStats(std::string* out, const char* key,
                       const telemetry::RingSeries& s) {
  AppendKey(out, key);
  *out += '{';
  AppendDouble(out, "mean", s.MeanIn(0, sim::kSimTimeMax));
  *out += ',';
  AppendDouble(out, "max", s.MaxIn(0, sim::kSimTimeMax));
  *out += ',';
  AppendDouble(out, "last", s.Last());
  *out += ',';
  AppendU64(out, "samples", s.total_pushed());
  *out += '}';
}

}  // namespace

std::string JsonSummary(const ExperimentResult& result) {
  std::string out;
  out.reserve(2048);
  out += '{';
  AppendU64(&out, "schema_version", 2);
  out += ',';
  AppendString(&out, "system", result.system);
  out += ',';
  AppendString(&out, "workload", result.workload);
  out += ',';
  AppendI64(&out, "scale_at_us", result.scale_at);
  out += ',';
  AppendI64(&out, "scaling_period_us", result.scaling_period);
  out += ',';
  AppendI64(&out, "mechanism_duration_us", result.mechanism_duration);
  out += ',';

  AppendKey(&out, "latency");
  out += '{';
  AppendDouble(&out, "baseline_ms", result.baseline_latency_ms);
  out += ',';
  AppendDouble(&out, "peak_ms", result.peak_latency_ms);
  out += ',';
  AppendDouble(&out, "avg_ms", result.avg_latency_ms);
  if (result.hub != nullptr) {
    out += ',';
    AppendHistogram(&out, "histogram_ms", result.hub->latency_histogram());
  }
  out += "},";

  // The paper's three overhead factors (Fig 12/13) plus the excluded
  // backpressure time, so the exclusion is checkable from the artifact.
  AppendKey(&out, "overheads");
  out += '{';
  AppendI64(&out, "cumulative_propagation_us", result.cumulative_propagation);
  out += ',';
  AppendDouble(&out, "avg_dependency_us", result.avg_dependency_us);
  out += ',';
  AppendI64(&out, "cumulative_suspension_us", result.cumulative_suspension);
  if (result.hub != nullptr) {
    const metrics::ScalingMetrics& sm = result.hub->scaling();
    out += ',';
    AppendI64(&out, "backpressure_us", sm.BackpressureTime());
    out += ',';
    AppendHistogram(&out, "stall_awaiting_state_ms",
                    sm.StallHistogram(metrics::StallReason::kAwaitingState));
    out += ',';
    AppendHistogram(&out, "stall_alignment_ms",
                    sm.StallHistogram(metrics::StallReason::kAlignment));
    out += ',';
    AppendHistogram(&out, "stall_backpressure_ms",
                    sm.StallHistogram(metrics::StallReason::kBackpressure));
    out += ',';
    AppendI64(&out, "throttled_us", sm.ThrottledTime());
    out += ',';
    AppendHistogram(&out, "stall_throttled_ms",
                    sm.StallHistogram(metrics::StallReason::kThrottled));
  }
  out += "},";

  AppendKey(&out, "transfers");
  out += '{';
  AppendU64(&out, "units", result.transfers.units);
  out += ',';
  AppendDouble(&out, "avg_transfers", result.transfers.avg_transfers);
  out += ',';
  AppendU64(&out, "max_transfers", result.transfers.max_transfers);
  out += ',';
  AppendU64(&out, "total_transfers", result.transfers.total_transfers);
  out += "},";

  AppendKey(&out, "invariants");
  out += '{';
  AppendU64(&out, "order_violations", result.invariants.order_violations);
  out += ',';
  AppendU64(&out, "state_miss_processing",
            result.invariants.state_miss_processing);
  out += ',';
  AppendU64(&out, "duplicate_processing",
            result.invariants.duplicate_processing);
  out += "},";

  const metrics::RecoveryMetrics& r = result.recovery;
  AppendKey(&out, "recovery");
  out += '{';
  AppendU64(&out, "chunk_retransmits", r.chunk_retransmits);
  out += ',';
  AppendU64(&out, "chunks_dropped", r.chunks_dropped);
  out += ',';
  AppendU64(&out, "chunks_duplicated", r.chunks_duplicated);
  out += ',';
  AppendU64(&out, "chunks_delayed", r.chunks_delayed);
  out += ',';
  AppendU64(&out, "duplicate_installs_suppressed",
            r.duplicate_installs_suppressed);
  out += ',';
  AppendU64(&out, "forced_chunk_installs", r.forced_chunk_installs);
  out += ',';
  AppendU64(&out, "scale_aborts", r.scale_aborts);
  out += ',';
  AppendU64(&out, "scale_retries", r.scale_retries);
  out += ',';
  AppendU64(&out, "scale_cancellations", r.scale_cancellations);
  out += ',';
  AppendU64(&out, "crashes_injected", r.crashes_injected);
  out += ',';
  AppendU64(&out, "crash_recoveries", r.crash_recoveries);
  out += ',';
  AppendU64(&out, "replayed_elements", r.replayed_elements);
  out += ',';
  AppendU64(&out, "links_partitioned", r.links_partitioned);
  out += ',';
  AppendU64(&out, "links_healed", r.links_healed);
  out += "},";

  const metrics::OverloadMetrics& o = result.overload;
  AppendKey(&out, "overload");
  out += '{';
  AppendU64(&out, "records_shed", o.records_shed);
  out += ',';
  AppendU64(&out, "shed_drop_tail", o.shed_drop_tail);
  out += ',';
  AppendU64(&out, "shed_random", o.shed_random);
  out += ',';
  AppendU64(&out, "shed_cold_key", o.shed_cold_key);
  out += ',';
  AppendU64(&out, "throttle_activations", o.throttle_activations);
  out += ',';
  AppendU64(&out, "pressure_transitions", o.pressure_transitions);
  out += ',';
  AppendU64(&out, "breaker_opens", o.breaker_opens);
  out += ',';
  AppendU64(&out, "breaker_probes", o.breaker_probes);
  out += ',';
  AppendU64(&out, "breaker_rejections", o.breaker_rejections);
  out += ',';
  AppendU64(&out, "peak_input_backlog", o.peak_input_backlog);
  out += ',';
  AppendU64(&out, "last_input_backlog", o.last_input_backlog);
  out += ',';
  AppendU64(&out, "final_pressure",
            static_cast<uint64_t>(result.final_pressure));
  out += "},";

  AppendKey(&out, "audit");
  out += '{';
  AppendU64(&out, "enabled", result.audit.enabled ? 1 : 0);
  out += ',';
  AppendU64(&out, "finalized", result.audit.finalized ? 1 : 0);
  out += ',';
  AppendU64(&out, "violations", result.audit.violations.size());
  out += ',';
  AppendU64(&out, "dropped_violations", result.audit.dropped_violations);
  out += "},";

  AppendKey(&out, "trace");
  out += '{';
  AppendU64(&out, "events", result.trace_events);
  out += ',';
  AppendU64(&out, "flight_dumps", result.flight_dumps);
  out += "},";

  AppendKey(&out, "telemetry");
  out += '{';
  if (result.telemetry == nullptr) {
    AppendU64(&out, "enabled", 0);
  } else {
    const telemetry::TelemetryRegistry& reg = *result.telemetry;
    AppendU64(&out, "enabled", 1);
    out += ',';
    AppendI64(&out, "sample_period_us", reg.options().sample_period);
    out += ',';
    AppendU64(&out, "samples", reg.sample_count());
    out += ',';
    AppendI64(&out, "last_sample_us", reg.last_sample_time());
    out += ',';
    AppendSeriesStats(&out, "latency_p50_ms", reg.latency_p50_ms());
    out += ',';
    AppendSeriesStats(&out, "latency_p99_ms", reg.latency_p99_ms());
    out += ',';
    AppendKey(&out, "operators");
    out += '[';
    for (size_t op = 0; op < reg.operator_count(); ++op) {
      if (op > 0) out += ',';
      out += '{';
      AppendU64(&out, "op", op);
      out += ',';
      AppendString(&out, "name", reg.operator_name(
                                     static_cast<dataflow::OperatorId>(op)));
      for (size_t k = 0; k < telemetry::kSeriesKindCount; ++k) {
        out += ',';
        AppendSeriesStats(
            &out, telemetry::SeriesName(static_cast<telemetry::SeriesKind>(k)),
            reg.series(static_cast<dataflow::OperatorId>(op),
                       static_cast<telemetry::SeriesKind>(k)));
      }
      const telemetry::CapacityEstimate& cap =
          reg.Capacity(static_cast<dataflow::OperatorId>(op));
      out += ',';
      AppendKey(&out, "capacity");
      out += '{';
      AppendDouble(&out, "rate_per_sec", cap.rate_per_sec);
      out += ',';
      AppendDouble(&out, "smoothed", cap.smoothed);
      out += ',';
      AppendU64(&out, "samples", cap.samples);
      out += ',';
      AppendI64(&out, "last_update_us", cap.last_update);
      out += '}';
      out += '}';
    }
    out += ']';
  }
  out += "},";

  AppendI64(&out, "sim_end_us", result.sim_end);
  out += ',';
  AppendU64(&out, "source_records", result.source_records);
  out += ',';
  AppendU64(&out, "sink_records", result.sink_records);
  out += ',';
  AppendU64(&out, "executed_events", result.executed_events);
  out += ',';
  AppendU64(&out, "elided_events", result.elided_events);
  out += "}\n";
  return out;
}

Status WriteJsonSummary(const ExperimentResult& result,
                        const std::string& path) {
  std::string json = JsonSummary(result);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open json summary file: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_err = std::fclose(f);
  if (written != json.size() || close_err != 0) {
    return Status::Internal("short write to json summary file: " + path);
  }
  return Status::OK();
}

}  // namespace drrs::harness
