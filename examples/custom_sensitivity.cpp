// Command-line explorer for the custom workload (paper Section V-D): pick a
// scaling system, input rate, per-key state size and Zipf skew, and see how
// one rescale behaves. Useful for reproducing individual Fig 15 cells or
// exploring configurations the paper didn't sweep.
//
// Usage:
//   custom_sensitivity [--system drrs|megaphone|meces|otfs-fluid|
//                        otfs-all-at-once|unbound|stop-restart]
//                      [--rate N] [--state-bytes N] [--skew F]
//                      [--from P] [--to P] [--keygroups N]

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/experiment.h"
#include "workloads/workloads.h"

using namespace drrs;
using harness::SystemKind;

namespace {

[[noreturn]] void Reject(const std::string& flag, const std::string& why) {
  std::fprintf(stderr, "error: %s %s\n", flag.c_str(), why.c_str());
  std::exit(2);
}

SystemKind ParseSystem(const char* name) {
  for (SystemKind kind :
       {SystemKind::kDrrs, SystemKind::kDrrsDR, SystemKind::kDrrsSchedule,
        SystemKind::kDrrsSubscale, SystemKind::kMegaphone, SystemKind::kMeces,
        SystemKind::kOtfsFluid, SystemKind::kOtfsAllAtOnce,
        SystemKind::kUnbound, SystemKind::kStopRestart}) {
    if (std::strcmp(name, harness::SystemName(kind)) == 0) return kind;
  }
  Reject("--system", std::string("got unknown system '") + name + "'");
}

/// A finite number >= `min`; `integer` also rejects fractions and values
/// past UINT32_MAX.
double ParseNumber(const char* flag, const char* text, double min,
                   bool integer) {
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < min ||
      (integer && (v != std::floor(v) || v > UINT32_MAX))) {
    Reject(flag, std::string("wants ") + (integer ? "an integer" : "a number") +
                     " >= " + std::to_string(static_cast<int>(min)) +
                     ", got '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  SystemKind system = SystemKind::kDrrs;
  double rate = 2000;
  uint64_t state_bytes = 8192;
  double skew = 0.5;
  uint32_t from_p = 8, to_p = 12, key_groups = 128;

  // Strict parsing: an unknown flag, a missing value or a malformed one
  // exits 2 naming the flag.
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Reject(flag, "needs a value");
      return argv[++i];
    };
    auto count = [&](double min) {
      return static_cast<uint32_t>(
          ParseNumber(flag.c_str(), value(), min, /*integer=*/true));
    };
    if (flag == "--system") {
      system = ParseSystem(value());
    } else if (flag == "--rate") {
      rate = ParseNumber("--rate", value(), 1, /*integer=*/false);
    } else if (flag == "--state-bytes") {
      state_bytes = count(0);
    } else if (flag == "--skew") {
      skew = ParseNumber("--skew", value(), 0, /*integer=*/false);
    } else if (flag == "--from") {
      from_p = count(1);
    } else if (flag == "--to") {
      to_p = count(1);
    } else if (flag == "--keygroups") {
      key_groups = count(1);
    } else {
      Reject(flag,
             "is not a known flag (known: --system, --rate, --state-bytes, "
             "--skew, --from, --to, --keygroups; each takes a value)");
    }
  }

  workloads::CustomParams p;
  p.events_per_second = rate;
  p.num_keys = 5000;
  p.skew = skew;
  p.state_bytes_per_key = state_bytes;
  p.duration = sim::Seconds(120);
  p.agg_parallelism = from_p;
  p.num_key_groups = key_groups;
  // Keep the operator near (but under) saturation at the old parallelism so
  // the scaling window is visible, like the paper's bottleneck setups.
  p.record_cost = sim::SimTime(0.8 * 1e6 * from_p / rate);

  harness::ExperimentConfig c;
  c.system = system;
  c.target_parallelism = to_p;
  c.scale_at = sim::Seconds(40);
  c.restab_hold = sim::Seconds(15);
  c.engine.check_invariants = false;

  std::printf("system=%s rate=%.0f/s state=%lluB/key skew=%.1f  %u -> %u "
              "instances, %u key-groups\n\n",
              harness::SystemName(system), rate,
              static_cast<unsigned long long>(state_bytes), skew, from_p,
              to_p, key_groups);

  auto r = harness::RunExperiment(workloads::BuildCustomWorkload(p), c);

  std::printf("baseline latency:        %8.1f ms\n", r.baseline_latency_ms);
  std::printf("peak / avg (scaling):    %8.1f / %.1f ms\n", r.peak_latency_ms,
              r.avg_latency_ms);
  std::printf("scaling period:          %8.1f s\n",
              sim::ToSeconds(r.scaling_period));
  std::printf("mechanism duration:      %8.1f s\n",
              sim::ToSeconds(r.mechanism_duration));
  std::printf("cumulative propagation:  %8.1f ms\n",
              sim::ToMillis(r.cumulative_propagation));
  std::printf("avg dependency overhead: %8.1f ms\n",
              r.avg_dependency_us / 1000.0);
  std::printf("cumulative suspension:   %8.1f ms\n",
              sim::ToMillis(r.cumulative_suspension));
  if (r.transfers.total_transfers > 0) {
    std::printf("unit transfers:          %llu total, avg %.2f, max %llu\n",
                static_cast<unsigned long long>(r.transfers.total_transfers),
                r.transfers.avg_transfers,
                static_cast<unsigned long long>(r.transfers.max_transfers));
  }
  std::printf("\nlatency series (2s buckets, max):\n");
  harness::PrintSeries("latency_ms", r.hub->latency_ms(), sim::Seconds(2),
                       /*use_max=*/true);
  return 0;
}
