// Reproduces Figs 10-13 (Section V-B) from one sweep: the bottleneck
// operator of NEXMark Q7, Q8 and the Twitch pipeline is rescaled from 8 to
// 12 instances (111/128 key-groups migrate) under DRRS, Megaphone and
// Meces. Each of the 9 (workload x system) cells runs once; the four
// figures are views of the same runs:
//
//  * Fig 10 — end-to-end latency over time, plus the peak/average-latency
//    and scaling-duration reductions quoted in the text.
//  * Fig 11 — source-output throughput: it drops when scaling begins,
//    overshoots the input rate while the backlog flushes, then
//    restabilizes; DRRS shows the smallest dip and the fastest return.
//  * Fig 12 — cumulative propagation delay (sum over scaling signals of
//    the interval between injection and first triggered migration) and
//    average dependency-related overhead (mean interval from a state
//    unit's signal injection to its migration start). Megaphone's
//    timestamp-driven sequential units give it the largest values;
//    Meces's single synchronization gives it the lowest propagation.
//  * Fig 13 — cumulative suspension time over the scaling period, plus
//    the Meces back-and-forth migration statistics the paper quotes for Q7
//    (55 sub-key-groups fetched, 6.25 transfers on average, up to 46).
//    Meces's fetch-on-demand conflicts dominate; Megaphone grows slowly;
//    DRRS stays lowest thanks to Record Scheduling.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_workloads.h"
#include "harness/json_summary.h"

namespace {

using drrs::harness::ExperimentResult;
using drrs::harness::RunExperiment;
using drrs::harness::SystemKind;
using drrs::bench::BenchArgs;
using drrs::bench::BenchSetups;
using drrs::bench::BuildByName;
namespace sim = drrs::sim;

/// One workload's runs, in drrs / megaphone / meces order.
struct WorkloadRuns {
  std::string workload;
  std::vector<ExperimentResult> results;
};

std::vector<WorkloadRuns> RunSweep(const BenchArgs& args) {
  std::vector<WorkloadRuns> sweep;
  drrs::bench::TagSet tags;
  for (const char* w : {"q7", "q8", "twitch"}) {
    WorkloadRuns runs{w, {}};
    for (SystemKind kind :
         {SystemKind::kDrrs, SystemKind::kMegaphone, SystemKind::kMeces}) {
      auto spec = BuildByName(runs.workload, args.scale);
      auto config = BenchSetups::Config(kind);
      config.threads = args.threads;
      const std::string tag =
          tags.Unique(runs.workload + "." + drrs::harness::SystemName(kind));
      args.ApplyTelemetry(config, tag);
      if (!args.trace.empty()) {
        config.trace_path = drrs::bench::TaggedPath(args.trace, tag);
      }
      runs.results.push_back(RunExperiment(spec, config));
      if (!args.json_summary.empty()) {
        drrs::Status js = drrs::harness::WriteJsonSummary(
            runs.results.back(),
            drrs::bench::TaggedPath(args.json_summary, tag));
        if (!js.ok()) std::fprintf(stderr, "%s\n", js.ToString().c_str());
      }
    }
    sweep.push_back(std::move(runs));
  }
  return sweep;
}

void PrintFig10(const std::vector<WorkloadRuns>& sweep, const BenchArgs& args) {
  std::printf("DRRS reproduction — Fig 10 (latency comparison)\n");
  for (const WorkloadRuns& runs : sweep) {
    const std::string& workload = runs.workload;
    const std::vector<ExperimentResult>& results = runs.results;
    std::printf(
        "\n=== Fig 10 (%s): end-to-end latency during 8->12 rescale ===\n",
        workload.c_str());
    // Paper methodology: statistics over the longest observed scaling
    // period.
    sim::SimTime longest = 0;
    for (const auto& r : results) {
      longest = std::max(longest, r.scaling_period);
    }
    sim::SimTime from = BenchSetups::ScaleAt();
    sim::SimTime to = from + longest;

    std::printf("%-12s %14s %14s %14s %16s %16s\n", "system", "baseline(ms)",
                "peak(ms)", "avg(ms)", "scaling-period(s)",
                "mech-duration(s)");
    for (const auto& r : results) {
      std::printf("%-12s %14.1f %14.1f %14.1f %16.1f %16.1f\n",
                  r.system.c_str(), r.baseline_latency_ms, r.PeakIn(from, to),
                  r.MeanIn(from, to), sim::ToSeconds(r.scaling_period),
                  sim::ToSeconds(r.mechanism_duration));
    }

    const ExperimentResult& drrs = results[0];
    for (size_t i = 1; i < results.size(); ++i) {
      const ExperimentResult& base = results[i];
      auto pct = [](double ours, double theirs) {
        return theirs <= 0 ? 0.0 : (1.0 - ours / theirs) * 100.0;
      };
      std::printf(
          "drrs vs %-10s: peak -%.1f%%  avg -%.1f%%  scaling time -%.1f%%\n",
          base.system.c_str(),
          pct(drrs.PeakIn(from, to), base.PeakIn(from, to)),
          pct(drrs.MeanIn(from, to), base.MeanIn(from, to)),
          pct(static_cast<double>(drrs.scaling_period),
              static_cast<double>(base.scaling_period)));
    }

    if (args.series) {
      for (const auto& r : results) {
        drrs::harness::PrintSeries(
            "fig10-" + workload + "-" + r.system + " latency_ms",
            r.hub->latency_ms(), sim::Seconds(2), /*use_max=*/true);
      }
    }
  }
}

double InputRate(const std::string& workload, double scale) {
  if (workload == "q7") return BenchSetups::Q7(scale).events_per_second;
  if (workload == "q8") return BenchSetups::Q8(scale).events_per_second;
  return BenchSetups::Twitch(scale).events_per_second;
}

void PrintFig11(const std::vector<WorkloadRuns>& sweep, const BenchArgs& args) {
  std::printf("DRRS reproduction — Fig 11 (throughput comparison)\n");
  for (const WorkloadRuns& runs : sweep) {
    const std::string& workload = runs.workload;
    std::printf("\n=== Fig 11 (%s): throughput during 8->12 rescale ===\n",
                workload.c_str());
    double input_rate = InputRate(workload, args.scale);
    sim::SimTime from = BenchSetups::ScaleAt();
    std::printf("input rate: %.0f rec/s\n", input_rate);
    std::printf("%-12s %14s %14s %18s %22s\n", "system", "min-tput(r/s)",
                "max-tput(r/s)", "drop-below-input",
                "mean-|dev|-during-scale");
    for (const auto& r : runs.results) {
      auto rates = r.hub->source_rate().ToRateSeries();
      sim::SimTime to = from + std::max<sim::SimTime>(r.scaling_period,
                                                      sim::Seconds(10));
      auto stats = rates.StatsIn(from, to);
      double dev = rates.MeanAbsDeviationIn(input_rate, from, to);
      std::printf("%-12s %14.0f %14.0f %17.1f%% %20.0f r/s\n",
                  r.system.c_str(), stats.min, stats.max,
                  (1.0 - stats.min / input_rate) * 100.0, dev);
    }

    if (args.series) {
      for (const auto& r : runs.results) {
        drrs::harness::PrintRateSeries(
            "fig11-" + workload + "-" + r.system + " throughput_rec_per_s",
            r.hub->source_rate());
      }
    }
  }
}

void PrintFig12(const std::vector<WorkloadRuns>& sweep) {
  std::printf(
      "DRRS reproduction — Fig 12 (cumulative propagation delay & average "
      "dependency-related overhead)\n\n");
  std::printf("%-8s %-12s %26s %26s\n", "workload", "system",
              "cum-propagation(ms)", "avg-dependency(ms)");
  for (const WorkloadRuns& runs : sweep) {
    for (const auto& r : runs.results) {
      std::printf("%-8s %-12s %26.1f %26.1f\n", runs.workload.c_str(),
                  r.system.c_str(), sim::ToMillis(r.cumulative_propagation),
                  r.avg_dependency_us / 1000.0);
    }
    std::printf("\n");
  }
}

void PrintFig13(const std::vector<WorkloadRuns>& sweep, const BenchArgs& args) {
  std::printf("DRRS reproduction — Fig 13 (cumulative suspension time)\n\n");
  for (const WorkloadRuns& runs : sweep) {
    const std::string& w = runs.workload;
    std::printf("=== %s ===\n", w.c_str());
    std::printf("%-12s %22s %28s\n", "system", "cum-suspension(ms)",
                "unit transfers (avg/max)");
    for (const auto& r : runs.results) {
      std::printf("%-12s %22.1f %15.2f / %-8llu\n", r.system.c_str(),
                  sim::ToMillis(r.cumulative_suspension),
                  r.transfers.avg_transfers,
                  static_cast<unsigned long long>(r.transfers.max_transfers));
    }
    if (w == "q7") {
      const auto& meces = runs.results.back();
      std::printf(
          "paper (Q7, Meces): 55 sub-key-groups fetched, avg 6.25 transfers, "
          "max 46 — measured: %llu units, avg %.2f, max %llu\n",
          static_cast<unsigned long long>(meces.transfers.units),
          meces.transfers.avg_transfers,
          static_cast<unsigned long long>(meces.transfers.max_transfers));
    }
    if (args.series) {
      for (const auto& r : runs.results) {
        drrs::harness::PrintSeries(
            "fig13-" + w + "-" + r.system + " cumulative_suspension_ms",
            r.hub->scaling().SuspensionSeries(), sim::Seconds(2),
            /*use_max=*/true);
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  std::printf(
      "DRRS reproduction — 8->12 rescale sweep (Figs 10-13), "
      "{q7, q8, twitch} x {drrs, megaphone, meces}\n\n");
  const std::vector<WorkloadRuns> sweep = RunSweep(args);
  PrintFig10(sweep, args);
  std::printf("\n");
  PrintFig11(sweep, args);
  std::printf("\n");
  PrintFig12(sweep);
  PrintFig13(sweep, args);
  return 0;
}
