// Host-cost benchmark of the DRRS simulator: one process per measurement,
// driven by perfbench/run.py. Every mode prints one JSON object on stdout.
//
//   manifest                 build facts (optimised? hooks compiled in?)
//   measure  --workload W --seed S [--setup-reps N] [--horizon-us H]
//            [--out-dir D]   one timed RunExperiment plus set-up repetitions
//   check    --workload W --seed S
//                            the run's outputs against a no-scale reference
//   probes   --events N --depth D --records R --updates U --keys K
//            --skew Z --seed S
//                            layer probes sized to a workload's counts
//   selftest                 negative controls of the output check

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_workloads.h"
#include "common/logging.h"
#include "dataflow/key_space.h"
#include "harness/experiment.h"
#include "harness/json_summary.h"
#include "metrics/metrics_hub.h"
#include "output_check.h"
#include "probes.h"
#include "runtime/execution_graph.h"
#include "sim/partition.h"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace drrs::perfbench {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

/// Heap allocations made by this process so far (counted only in the traced
/// binary, by the replacement operator new at the end of this file).
std::atomic<uint64_t> g_allocations{0};

// ---- workloads ----

/// One benchmark workload: a bench setup from bench/bench_workloads.h plus
/// the system that runs it. The seed comes from the command line.
struct BenchWorkload {
  std::string name;
  bool twitch = true;  ///< Twitch pipeline, else NEXMark Q8
  harness::SystemKind system = harness::SystemKind::kNoScale;
};

BenchWorkload FindWorkload(const std::string& name) {
  using harness::SystemKind;
  if (name == "twitch-steady") return {name, true, SystemKind::kNoScale};
  if (name == "twitch-drrs") return {name, true, SystemKind::kDrrs};
  if (name == "q8-drrs") return {name, false, SystemKind::kDrrs};
  std::fprintf(stderr, "unknown workload %s\n", name.c_str());
  std::exit(2);
}

workloads::WorkloadSpec BuildSpec(const BenchWorkload& w, uint64_t seed) {
  if (w.twitch) {
    workloads::TwitchParams p = bench::BenchSetups::Twitch();
    p.seed = seed;
    return workloads::BuildTwitchWorkload(p);
  }
  workloads::NexmarkParams p = bench::BenchSetups::Q8();
  p.seed = seed;
  return workloads::BuildNexmarkWorkload(p);
}

harness::ExperimentConfig BuildConfig(harness::SystemKind system) {
  harness::ExperimentConfig c = bench::BenchSetups::Config(system);
  c.threads = 1;
  return c;
}

// ---- spans ----

/// \brief In-memory log of the benchmark's own calls into the layers.
///
/// Records (name, start, end, parent) only in the traced binary; in the
/// measuring binary every call is a no-op so the timed runs carry no
/// tracing cost. Span names are "<layer>.<call>".
class SpanLog {
 public:
  int Begin(const std::string& name) {
    if (!PERFBENCH_TRACED) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowNs(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }

  /// The spans as a JSON array of {name, start_ns, end_ns, parent}.
  std::string ToJson() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"start_ns\":%" PRId64
                    ",\"end_ns\":%" PRId64 ",\"parent\":%d}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start_ns, s.end_ns,
                    s.parent);
      out += buf;
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name) : id_(Spans().Begin(name)) {}
  ~ScopedSpan() { Spans().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// ---- output ----

/// Flat JSON object writer for the one-line results the modes print.
/// Doubles keep all 17 significant digits.
class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Key(key);
    body_ += buf;
    return *this;
  }
  JsonLine& Int(const std::string& key, uint64_t v) {
    Key(key);
    body_ += std::to_string(v);
    return *this;
  }
  JsonLine& Str(const std::string& key, const std::string& v) {
    Key(key);
    body_ += "\"" + v + "\"";
    return *this;
  }
  JsonLine& Raw(const std::string& key, const std::string& json) {
    Key(key);
    body_ += json;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":";
  }
  std::string body_;
};

// ---- command line ----

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  }
  uint64_t GetU64(const std::string& key, uint64_t def) const {
    auto it = flags.find(key);
    if (it == flags.end()) return def;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
      std::fprintf(stderr, "--%s expects an unsigned integer, got '%s'\n",
                   key.c_str(), it->second.c_str());
      std::exit(2);
    }
    return v;
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = flags.find(key);
    if (it == flags.end()) return def;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
      std::fprintf(stderr, "--%s expects a number, got '%s'\n", key.c_str(),
                   it->second.c_str());
      std::exit(2);
    }
    return v;
  }
};

/// The flags each mode accepts; anything else is an error, not ignored.
const std::map<std::string, std::set<std::string>>& ModeFlags() {
  static const std::map<std::string, std::set<std::string>> flags = {
      {"manifest", {}},
      {"measure", {"workload", "seed", "setup-reps", "horizon-us", "out-dir"}},
      {"check", {"workload", "seed"}},
      {"probes",
       {"events", "depth", "records", "updates", "keys", "skew", "seed"}},
      {"selftest", {}},
  };
  return flags;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  const auto mode = argc < 2 ? ModeFlags().end() : ModeFlags().find(argv[1]);
  if (mode == ModeFlags().end()) {
    std::fprintf(stderr, "usage: %s <manifest|measure|check|probes|selftest> "
                 "[--flag value]...\n", argv[0]);
    std::exit(2);
  }
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc ||
        mode->second.count(argv[i] + 2) == 0) {
      std::fprintf(stderr, "bad argument '%s' for mode %s\n", argv[i],
                   argv[1]);
      std::exit(2);
    }
    args.flags[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

// ---- host resource accounting ----

struct HostUsage {
  double cpu_s = 0;
  double max_rss_mb = 0;
};

/// Peak resident set of this process's address space (VmHWM, KiB). Unlike
/// getrusage's ru_maxrss, it starts afresh at exec instead of carrying over
/// the launching process's peak.
double PeakRssKiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib;
}

HostUsage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  const double kib = PeakRssKiB();
  u.max_rss_mb = (kib >= 0 ? kib : static_cast<double>(ru.ru_maxrss)) / 1024.0;
  return u;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---- modes ----

#if DRRS_AUDIT
constexpr bool kAuditHooks = true;
#else
constexpr bool kAuditHooks = false;
#endif
#if DRRS_TRACE
constexpr bool kTraceHooks = true;
#else
constexpr bool kTraceHooks = false;
#endif

int Manifest(JsonLine* out) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef PERFBENCH_BUILD_TYPE
  const char* build_type = PERFBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  out->Str("build_type", build_type)
      .Int("optimized", optimized)
      .Int("ndebug", ndebug)
      .Int("drrs_audit", kAuditHooks)
      .Int("drrs_trace", kTraceHooks)
      .Int("traced_binary", PERFBENCH_TRACED)
      .Str("compiler", __VERSION__);
  return 0;
}

/// Set-up as the benchmark defines it: build the workload, then
/// ExecutionGraph::Build and Start on a fresh simulator, as RunExperiment
/// does before its first event.
void SetupOnce(const BenchWorkload& w, uint64_t seed,
               const harness::ExperimentConfig& config, double* build_s,
               double* runtime_s) {
  const int64_t t0 = NowNs();
  workloads::WorkloadSpec spec = [&] {
    ScopedSpan span("workloads.Build");
    return BuildSpec(w, seed);
  }();
  const int64_t t1 = NowNs();
  {
    sim::Simulator sim;
    sim::PdesEngine::Options engine_options;
    engine_options.threads = 1;
    sim::PdesEngine engine(&sim, engine_options);
    metrics::MetricsHub hub;
    {
      ScopedSpan span("runtime.BuildStart");
      runtime::ExecutionGraph graph(&sim, spec.graph, config.engine, &hub);
      graph.AttachEngine(&engine, /*base_seed=*/1);
      Status st = graph.Build();
      DRRS_CHECK(st.ok()) << st.ToString();
      graph.Start();
      *runtime_s = static_cast<double>(NowNs() - t1) / 1e9;
    }
  }
  *build_s = static_cast<double>(t1 - t0) / 1e9;
}

/// The simulated outcome of a run: deterministic, identical across repeats.
JsonLine SimOutcome(const harness::ExperimentResult& r, double p99_ms,
                    double peak_state_mb) {
  JsonLine j;
  j.Num("p99_latency_ms", p99_ms)
      .Num("peak_latency_ms", r.peak_latency_ms)
      .Num("avg_latency_ms", r.avg_latency_ms)
      .Num("scaling_period_s", sim::ToSeconds(r.scaling_period))
      .Num("mechanism_s", sim::ToSeconds(r.mechanism_duration))
      .Num("propagation_ms", sim::ToMillis(r.cumulative_propagation))
      .Num("suspension_ms", sim::ToMillis(r.cumulative_suspension))
      .Num("dependency_us", r.avg_dependency_us)
      .Int("source_records", r.source_records)
      .Int("sink_records", r.sink_records)
      .Int("events", r.executed_events)
      .Int("delivered_elements", r.delivered_elements)
      .Int("delivered_batches", r.delivered_batches)
      .Num("peak_modeled_state_mb", peak_state_mb)
      .Int("sim_end_us", static_cast<uint64_t>(r.sim_end))
      .Int("scale_end_us", static_cast<uint64_t>(std::max<sim::SimTime>(
                               0, r.hub->scaling().scale_end())));
  return j;
}

/// Whole-run latency p99 from the samples themselves (the log histogram's
/// quantiles are bucket midpoints, ~9% apart), plus the peak modelled state.
void Analyse(const harness::ExperimentResult& r,
             const harness::ExperimentConfig& config, double* p99_ms,
             double* peak_state_mb) {
  ScopedSpan span("metrics.Analyse");
  const metrics::TimeSeries& latency = r.hub->latency_ms();
  *p99_ms = latency.QuantileIn(0.99, 0, sim::kSimTimeMax);
  *peak_state_mb =
      r.hub->state_bytes().MaxIn(0, sim::kSimTimeMax) / (1024.0 * 1024.0);
  // The harness's own queries on the result, repeated so that their host
  // cost is part of metrics.analysis_ms.
  (void)r.hub->latency_histogram().Summarize();
  (void)metrics::DetectRestabilization(
      latency, config.scale_at,
      r.baseline_latency_ms * config.restab_tolerance + config.restab_slack_ms,
      config.restab_hold);
  (void)latency.StatsIn(config.scale_at, sim::kSimTimeMax);
}

uint64_t TaskCount(const workloads::WorkloadSpec& spec) {
  uint64_t tasks = 0;
  for (const dataflow::OperatorSpec& op : spec.graph.operators()) {
    tasks += op.parallelism;
  }
  return tasks;
}

int Measure(const Args& args, JsonLine* out) {
  const BenchWorkload w = FindWorkload(args.Get("workload"));
  const uint64_t seed = args.GetU64("seed", 1);
  const uint64_t setup_reps = args.GetU64("setup-reps", 0);
  const std::string out_dir = args.Get("out-dir");
  harness::ExperimentConfig config = BuildConfig(w.system);
  config.horizon = static_cast<sim::SimTime>(args.GetU64("horizon-us", 0));

  // The timed run. The workload is built outside the timed region, as in
  // the figure benches; RunExperiment does Build/Start itself.
  const workloads::WorkloadSpec spec = BuildSpec(w, seed);
  const HostUsage before = ReadUsage();
  const uint64_t allocs_before = g_allocations.load();
  const int64_t t0 = NowNs();
  harness::ExperimentResult result = [&] {
    ScopedSpan span(config.horizon > 0 ? "harness.RunExperimentPrefix"
                                       : "harness.RunExperiment");
    return harness::RunExperiment(spec, config);
  }();
  const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  const uint64_t allocs = g_allocations.load() - allocs_before;
  const HostUsage after = ReadUsage();  // before any further work

  const int64_t a0 = NowNs();
  double p99_ms = 0, peak_state_mb = 0;
  Analyse(result, config, &p99_ms, &peak_state_mb);
  const double analysis_ms = static_cast<double>(NowNs() - a0) / 1e6;

  double summary_ms = 0;
  if (!out_dir.empty()) {
    const std::string path = out_dir + "/summary-" + w.name + "-" +
                             std::to_string(seed) + ".json";
    const int64_t s0 = NowNs();
    Status st = [&] {
      ScopedSpan span("harness.WriteJsonSummary");
      return harness::WriteJsonSummary(result, path);
    }();
    summary_ms = static_cast<double>(NowNs() - s0) / 1e6;
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  // Set-up repetitions come last, so that they leave no trace in the timed
  // run's peak RSS.
  std::vector<double> setup, build, runtime;
  for (uint64_t i = 0; i < setup_reps; ++i) {
    double b = 0, r = 0;
    SetupOnce(w, seed, config, &b, &r);
    build.push_back(b);
    runtime.push_back(r);
    setup.push_back(b + r);
  }

  out->Num("wall_s", wall_s)
      .Num("cpu_s", after.cpu_s - before.cpu_s)
      .Num("peak_rss_mb", after.max_rss_mb)
      .Num("setup_s", Median(setup))
      .Num("workloads_build_s", Median(build))
      .Num("runtime_build_s", Median(runtime))
      .Num("analysis_ms", analysis_ms)
      .Num("summary_ms", summary_ms)
      .Int("allocs", allocs)
      .Int("scale_at_us", static_cast<uint64_t>(config.scale_at))
      .Int("tasks", TaskCount(spec))
      .Int("keys", w.twitch ? bench::BenchSetups::Twitch().num_users
                            : bench::BenchSetups::Q8().num_auctions)
      .Num("key_skew", w.twitch ? bench::BenchSetups::Twitch().user_skew
                                : bench::BenchSetups::Q8().auction_skew)
      .Raw("sim", SimOutcome(result, p99_ms, peak_state_mb).Done());
  return 0;
}

/// One run with the scaled operator's outputs captured and the invariant
/// monitor on. The capture and the monitor only observe, so the simulated
/// run is the measured one, event for event.
struct CheckedRun {
  OutputLog log;
  harness::ExperimentResult result;
};

CheckedRun RunChecked(const BenchWorkload& w, uint64_t seed,
                      harness::SystemKind system) {
  CheckedRun run;
  harness::ExperimentConfig config = BuildConfig(system);
  config.engine.check_invariants = true;
  ScopedSpan span(std::string("check.RunExperiment.") +
                  harness::SystemName(system));
  run.result =
      harness::RunExperiment(WithCapture(BuildSpec(w, seed), &run.log), config);
  return run;
}

uint64_t InvariantViolations(const harness::ExperimentResult& r) {
  return r.invariants.order_violations + r.invariants.duplicate_processing +
         r.invariants.state_miss_processing;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Key-groups (of the workload's 128) holding the keys of missing outputs.
uint64_t MissingKeyGroups(const Comparison& c) {
  const dataflow::KeySpace key_space(bench::BenchSetups::kKeyGroups);
  std::set<dataflow::KeyGroupId> groups;
  for (dataflow::KeyT key : c.missing_keys) {
    groups.insert(key_space.KeyGroupOf(key));
  }
  return groups.size();
}

int Check(const Args& args, JsonLine* out) {
  const BenchWorkload w = FindWorkload(args.Get("workload"));
  const uint64_t seed = args.GetU64("seed", 1);

  CheckedRun run = RunChecked(w, seed, w.system);
  const std::string fingerprint = Hex(Fingerprint(run.log));
  Comparison c;
  std::string reference_fingerprint = fingerprint;
  uint64_t violations = InvariantViolations(run.result);
  if (w.system == harness::SystemKind::kNoScale) {
    // The run is its own no-scale reference; run.py compares its
    // fingerprint with the recorded one.
    c.reference = run.log.outputs.size();
  } else {
    CheckedRun reference = RunChecked(w, seed, harness::SystemKind::kNoScale);
    ScopedSpan span("check.Compare");
    c = w.twitch ? CompareSequences(run.log, reference.log)
                 : ComparePanes(run.log, reference.log);
    reference_fingerprint = Hex(Fingerprint(reference.log));
    violations += InvariantViolations(reference.result);
  }
  // Everything the operator emitted must reach the sink.
  const uint64_t emitted = run.log.outputs.size();
  const uint64_t sunk = run.result.sink_records;
  const uint64_t sink_gap = emitted > sunk ? emitted - sunk : sunk - emitted;

  double p99_ms = 0, peak_state_mb = 0;
  const harness::ExperimentConfig config = BuildConfig(w.system);
  Analyse(run.result, config, &p99_ms, &peak_state_mb);
  out->Int("reference_outputs", c.reference)
      .Int("missing", c.missing)
      .Int("different", c.different)
      .Int("extra", c.extra)
      .Int("sink_gap", sink_gap)
      .Int("invariant_violations", violations)
      .Int("missing_keys", c.missing_keys.size())
      .Int("missing_key_groups", MissingKeyGroups(c))
      .Num("missing_first_s", sim::ToSeconds(c.missing_first))
      .Num("missing_last_s", sim::ToSeconds(c.missing_last))
      .Str("reference_fingerprint", reference_fingerprint)
      .Str("fingerprint", fingerprint)
      .Raw("sim", SimOutcome(run.result, p99_ms, peak_state_mb).Done());
  return 0;
}

int Probes(const Args& args, JsonLine* out) {
  const uint64_t events = args.GetU64("events", 0);
  const auto depth = static_cast<uint32_t>(args.GetU64("depth", 1));
  const uint64_t records = args.GetU64("records", 0);
  const uint64_t updates = args.GetU64("updates", 0);
  const uint64_t keys = args.GetU64("keys", 1);
  const double skew = args.GetDouble("skew", 0);
  const uint64_t seed = args.GetU64("seed", 1);
  double queue = 0, channel = 0, state = 0;
  {
    ScopedSpan span("sim.ProbeQueue");
    queue = ProbeQueueNsPerEvent(events, depth);
  }
  {
    ScopedSpan span("net.ProbeChannel");
    channel = ProbeChannelNsPerRecord(records);
  }
  {
    ScopedSpan span("state.ProbeUpdate");
    state = ProbeStateNsPerUpdate(updates, keys, skew, seed);
  }
  if (queue < 0 || channel < 0 || state < 0) {
    std::fprintf(stderr, "a probe lost its work\n");
    return 1;
  }
  out->Num("queue_ns_per_event", queue)
      .Num("channel_ns_per_record", channel)
      .Num("state_ns_per_update", state);
  return 0;
}

/// Negative controls: the comparison must notice a dropped pane, a changed
/// value, a duplicate and a dropped running-aggregate output.
int SelfTest() {
  workloads::NexmarkParams p = bench::BenchSetups::Q8();
  p.duration = sim::Seconds(30);
  p.state_padding_bytes = 1024;
  OutputLog log;
  harness::ExperimentConfig config = BuildConfig(harness::SystemKind::kNoScale);
  harness::RunExperiment(WithCapture(workloads::BuildNexmarkWorkload(p), &log),
                         config);
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  expect(log.outputs.size() > 100, "reference run fired panes");
  Comparison same = ComparePanes(log, log);
  expect(same.failed() == 0 && same.reference > 0, "identical runs agree");

  OutputLog dropped = log;
  dropped.outputs.erase(dropped.outputs.begin() + dropped.outputs.size() / 2);
  Comparison d = ComparePanes(dropped, log);
  expect(d.missing == 1 && d.failed() == 1, "a dropped pane is missing");
  expect(static_cast<double>(d.failed()) / static_cast<double>(d.reference) >
             0,
         "a dropped pane raises failed_share");

  OutputLog changed = log;
  changed.outputs[0].value += 1;
  expect(ComparePanes(changed, log).different == 1,
         "a changed pane value is different");
  OutputLog doubled = log;
  doubled.outputs.push_back(doubled.outputs.back());
  expect(ComparePanes(doubled, log).extra == 1, "a pane fired twice is extra");

  Comparison seq = CompareSequences(dropped, log);
  expect(seq.failed() >= 1, "a dropped running-aggregate output is caught");
  expect(Fingerprint(dropped) != Fingerprint(log),
         "a dropped output changes the fingerprint");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace drrs::perfbench

#if PERFBENCH_TRACED
// Heap-allocation counting for runtime.allocs_per_record (traced binary
// only). Every replaceable allocation form funnels through these two.
namespace {
void* CountedAlloc(std::size_t n) {
  drrs::perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  drrs::perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) /
                                          a * a)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

int main(int argc, char** argv) {
  using namespace drrs::perfbench;
  const Args args = ParseArgs(argc, argv);
  if (args.mode == "selftest") return SelfTest();
  JsonLine out;
  int rc = 2;
  {
    ScopedSpan root("perfbench." + args.mode);
    if (args.mode == "manifest") {
      rc = Manifest(&out);
    } else if (args.mode == "measure") {
      rc = Measure(args, &out);
    } else if (args.mode == "check") {
      rc = Check(args, &out);
    } else if (args.mode == "probes") {
      rc = Probes(args, &out);
    }
  }
  if (rc != 0) return rc;
  if (PERFBENCH_TRACED) out.Raw("spans", Spans().ToJson());
  std::printf("%s\n", out.Done().c_str());
  return 0;
}
