// Telemetry layer: LogHistogram quantile edge cases (the sampler's latency
// snapshots lean on them), RingSeries retention and windowed queries, the
// capacity estimator, TagSet collision handling, strict BenchArgs flag
// parsing, and the headline PDES contract — every sampled value, including
// the CSV export, is a pure function of the job graph and never of
// --threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_workloads.h"
#include "harness/experiment.h"
#include "metrics/histogram.h"
#include "telemetry/telemetry.h"
#include "workloads/workloads.h"

namespace drrs {
namespace {

// ---------------------------------------------------------------------------
// LogHistogram quantile edge cases
// ---------------------------------------------------------------------------

TEST(LogHistogramQuantiles, EmptyHistogramIsAllZeros) {
  metrics::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(LogHistogramQuantiles, SingleSampleClampsEveryQuantileToIt) {
  metrics::LogHistogram h;
  h.Record(7.25);
  EXPECT_EQ(h.count(), 1u);
  // Bucket midpoints are clamped to the observed [min, max], which collapse
  // to the sample itself — so every quantile is exact, not ~6% off.
  EXPECT_EQ(h.Quantile(0.0), 7.25);
  EXPECT_EQ(h.Quantile(0.5), 7.25);
  EXPECT_EQ(h.Quantile(0.999), 7.25);
  EXPECT_EQ(h.Quantile(1.0), 7.25);
  EXPECT_EQ(h.mean(), 7.25);
}

TEST(LogHistogramQuantiles, SubResolutionValuesShareBucketZero) {
  metrics::LogHistogram h;
  h.Record(0.0);
  h.Record(1e-9);  // below the ~0.001 resolution floor
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // clamped to min
  EXPECT_LE(h.Quantile(1.0), 1e-9);
}

TEST(LogHistogramQuantiles, CrossShardMergeMatchesSequentialFeed) {
  // The registry merges per-partition shards before snapshotting quantiles;
  // the merge must be indistinguishable from one histogram fed everything.
  metrics::LogHistogram a, b, all;
  for (int i = 1; i <= 100; ++i) {
    double v = 0.5 * i;
    (i % 2 ? a : b).Record(v);
    all.Record(v);
  }
  metrics::LogHistogram merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  EXPECT_DOUBLE_EQ(merged.mean(), all.mean());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.Quantile(q), all.Quantile(q)) << "q=" << q;
  }
}

TEST(LogHistogramQuantiles, MergeFromEmptyShardIsIdentity) {
  metrics::LogHistogram h, empty;
  h.Record(3.0);
  h.MergeFrom(empty);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Quantile(0.5), 3.0);
  empty.MergeFrom(h);  // and merging INTO an empty one adopts the shard
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.Quantile(0.5), 3.0);
}

// ---------------------------------------------------------------------------
// RingSeries retention + windowed queries
// ---------------------------------------------------------------------------

TEST(RingSeries, EvictsOldestOnceFull) {
  telemetry::RingSeries s(3);
  for (int i = 0; i < 5; ++i) s.Push(sim::Seconds(i), i);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.total_pushed(), 5u);
  auto snap = s.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].time, sim::Seconds(2));  // 0 and 1 evicted
  EXPECT_EQ(snap[2].time, sim::Seconds(4));
  EXPECT_EQ(s.Last(), 4.0);
}

TEST(RingSeries, WindowedQueriesSeeOnlyTheWindow) {
  telemetry::RingSeries s(16);
  for (int i = 0; i < 10; ++i) s.Push(sim::Seconds(i), i);
  EXPECT_EQ(s.MeanIn(sim::Seconds(2), sim::Seconds(4)), 3.0);
  EXPECT_EQ(s.MaxIn(sim::Seconds(2), sim::Seconds(4)), 4.0);
  EXPECT_EQ(s.QuantileIn(0.0, sim::Seconds(2), sim::Seconds(4)), 2.0);
  EXPECT_EQ(s.QuantileIn(1.0, sim::Seconds(2), sim::Seconds(4)), 4.0);
  // An empty window (nothing retained in range) reads as 0.
  EXPECT_EQ(s.MeanIn(sim::Seconds(100), sim::Seconds(200)), 0.0);
  EXPECT_EQ(s.QuantileIn(0.5, sim::Seconds(100), sim::Seconds(200)), 0.0);
}

// ---------------------------------------------------------------------------
// TagSet (collision-safe per-run output tagging)
// ---------------------------------------------------------------------------

TEST(TagSet, RepeatedTagsGetOrdinalSuffixes) {
  bench::TagSet tags;
  EXPECT_EQ(tags.Unique("drrs"), "drrs");
  EXPECT_EQ(tags.Unique("drrs"), "drrs-2");
  EXPECT_EQ(tags.Unique("drrs"), "drrs-3");
  EXPECT_EQ(tags.Unique("meces"), "meces");
  EXPECT_EQ(tags.Path("out.json", "drrs"), "out.drrs-4.json");
}

TEST(TagSetDeathTest, ExplicitConflictingTagAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  bench::TagSet tags;
  tags.Unique("drrs");
  tags.Unique("drrs");  // takes "drrs-2"
  EXPECT_DEATH(tags.Unique("drrs-2"), "tag_collision");
}

// BenchArgs::Parse rejects what it cannot honour instead of running the
// sweep without it: exit status 2 and a message naming the flag.
bench::BenchArgs ParseArgs(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& f : flags) argv.push_back(f.data());
  return bench::BenchArgs::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, AcceptsEveryKnownFlag) {
  bench::BenchArgs args = ParseArgs(
      {"--scale", "0.5", "--no-series", "--faults", "--threads", "3",
       "--trace=t.json", "--json-summary=s.json", "--telemetry=x.csv",
       "--mechanism=breaker"});
  EXPECT_EQ(args.scale, 0.5);
  EXPECT_FALSE(args.series);
  EXPECT_TRUE(args.faults);
  EXPECT_EQ(args.threads, 3u);
  EXPECT_EQ(args.trace, "t.json");
  EXPECT_EQ(args.json_summary, "s.json");
  EXPECT_TRUE(args.telemetry);
  EXPECT_EQ(args.telemetry_csv, "x.csv");
  EXPECT_EQ(args.mechanism, "breaker");
  EXPECT_EQ(ParseArgs({"--threads=4"}).threads, 4u);
}

TEST(BenchArgsDeathTest, UnknownFlagExitsTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(ParseArgs({"--jsn-summary=x"}), ::testing::ExitedWithCode(2),
              "--jsn-summary=x");
  EXPECT_EXIT(ParseArgs({"stray"}), ::testing::ExitedWithCode(2), "stray");
}

TEST(BenchArgsDeathTest, BadScaleExitsTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"abc", "0", "-1", "2x", "nan"}) {
    EXPECT_EXIT(ParseArgs({"--scale", bad}), ::testing::ExitedWithCode(2),
                "--scale")
        << bad;
  }
  EXPECT_EXIT(ParseArgs({"--scale"}), ::testing::ExitedWithCode(2),
              "--scale needs a value");
}

TEST(BenchArgsDeathTest, BadThreadsExitsTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"--threads=0", "--threads=-2", "--threads=1.5",
                          "--threads=two", "--threads="}) {
    EXPECT_EXIT(ParseArgs({bad}), ::testing::ExitedWithCode(2), "--threads")
        << bad;
  }
  EXPECT_EXIT(ParseArgs({"--threads", "0"}), ::testing::ExitedWithCode(2),
              "--threads");
}

// ---------------------------------------------------------------------------
// Sampler end-to-end (single-partition): cadence, rates, capacity estimator
// ---------------------------------------------------------------------------

workloads::WorkloadSpec BusyCustom() {
  workloads::CustomParams p;
  p.events_per_second = 3000;
  p.num_keys = 500;
  p.skew = 0.3;
  p.duration = sim::Seconds(15);
  p.record_cost = sim::Micros(900);  // ~0.9 load/instance: capacity-eligible
  p.agg_parallelism = 3;
  p.num_key_groups = 24;
  return workloads::BuildCustomWorkload(p);
}

harness::ExperimentConfig TelemetryConfig() {
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kNoScale;
  c.scale_at = sim::Seconds(5);
  c.telemetry.enabled = true;
  return c;
}

TEST(TelemetrySampler, SamplesOnTheConfiguredCadence) {
  auto result = harness::RunExperiment(BusyCustom(), TelemetryConfig());
  ASSERT_NE(result.telemetry, nullptr);
  const auto& t = *result.telemetry;
  // One sample per 500 ms until the sources dry up at 15 s.
  EXPECT_GE(t.sample_count(), 28u);
  EXPECT_LE(t.sample_count(), 31u);
  EXPECT_EQ(t.last_sample_time() % t.options().sample_period, 0u);
  ASSERT_GT(t.operator_count(), 0u);
  // The aggregator saw real traffic: service rate near the offered rate.
  dataflow::OperatorId agg = 1;
  EXPECT_EQ(t.operator_name(agg).substr(0, 3), "agg");
  double svc = t.RateIn(agg, telemetry::SeriesKind::kServiceRate, 0,
                        sim::kSimTimeMax);
  EXPECT_GT(svc, 2000.0);
  EXPECT_LT(svc, 4000.0);
  double util = t.RateIn(agg, telemetry::SeriesKind::kUtilization, 0,
                         sim::kSimTimeMax);
  EXPECT_GT(util, 0.5);
  EXPECT_LE(util, 1.05);
  EXPECT_FALSE(t.latency_p99_ms().empty());
  EXPECT_GE(t.latency_p99_ms().Last(), t.latency_p50_ms().Last());
}

TEST(TelemetrySampler, CapacityEstimatorTracksBusyOperator) {
  auto result = harness::RunExperiment(BusyCustom(), TelemetryConfig());
  ASSERT_NE(result.telemetry, nullptr);
  const auto& cap = result.telemetry->Capacity(1);
  // Utilization ~0.9 clears the 0.5 floor, so candidates accumulated and
  // the extrapolated ceiling sits above the observed service rate.
  EXPECT_GT(cap.samples, 0u);
  EXPECT_GT(cap.rate_per_sec, 2500.0);
  EXPECT_GE(cap.rate_per_sec, cap.smoothed * 0.999);
  EXPECT_GT(cap.last_update, 0u);
}

TEST(TelemetrySampler, DisabledLeavesResultEmpty) {
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kNoScale;
  c.scale_at = sim::Seconds(5);
  auto result = harness::RunExperiment(BusyCustom(), c);
  EXPECT_EQ(result.telemetry, nullptr);
}

// ---------------------------------------------------------------------------
// PDES determinism: telemetry (including the CSV artifact) is byte-identical
// across --threads. Runs under whatever DRRS_TRACE/DRRS_AUDIT setting this
// binary was compiled with — CI exercises both the OFF (default) and ON
// (tracing job) configurations.
// ---------------------------------------------------------------------------

workloads::MultiJobParams SmallMultiJob() {
  workloads::MultiJobParams p;
  p.jobs = 4;
  p.events_per_second = 1500;
  p.num_keys = 400;
  p.duration = sim::Seconds(12);
  p.record_cost = sim::Micros(200);
  p.agg_parallelism = 2;
  return p;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TelemetryDeterminism, CsvIsByteIdenticalAcrossThreadCounts) {
  auto run = [](uint32_t threads, const std::string& csv) {
    harness::ExperimentConfig c;
    c.system = harness::SystemKind::kDrrs;
    c.target_parallelism = 4;
    c.scale_at = sim::Seconds(4);
    c.restab_hold = sim::Seconds(3);
    c.threads = threads;
    c.telemetry.enabled = true;
    c.telemetry.csv_path = csv;
    return harness::RunExperiment(
        workloads::BuildMultiJobWorkload(SmallMultiJob()), c);
  };
  const std::string dir = ::testing::TempDir();
  auto t1 = run(1, dir + "telemetry_t1.csv");
  auto t2 = run(2, dir + "telemetry_t2.csv");
  auto t4 = run(4, dir + "telemetry_t4.csv");

  ASSERT_NE(t1.telemetry, nullptr);
  ASSERT_NE(t2.telemetry, nullptr);
  ASSERT_NE(t4.telemetry, nullptr);
  EXPECT_GT(t1.source_records, 0u);
  EXPECT_EQ(t1.telemetry->sample_count(), t2.telemetry->sample_count());
  EXPECT_EQ(t1.telemetry->sample_count(), t4.telemetry->sample_count());

  const std::string csv1 = ReadFile(dir + "telemetry_t1.csv");
  ASSERT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, ReadFile(dir + "telemetry_t2.csv"));
  EXPECT_EQ(csv1, ReadFile(dir + "telemetry_t4.csv"));

  // Spot-check the series themselves, not just the serialization.
  for (dataflow::OperatorId op = 0; op < t1.telemetry->operator_count();
       ++op) {
    for (size_t k = 0; k < telemetry::kSeriesKindCount; ++k) {
      auto kind = static_cast<telemetry::SeriesKind>(k);
      auto s1 = t1.telemetry->series(op, kind).Snapshot();
      auto s4 = t4.telemetry->series(op, kind).Snapshot();
      ASSERT_EQ(s1.size(), s4.size()) << "op " << op << " kind " << k;
      for (size_t i = 0; i < s1.size(); ++i) {
        ASSERT_EQ(s1[i].time, s4[i].time) << "op " << op << " kind " << k;
        ASSERT_EQ(s1[i].value, s4[i].value) << "op " << op << " kind " << k;
      }
    }
  }
}

}  // namespace
}  // namespace drrs
