#!/usr/bin/env python3
"""Host-cost benchmark of the DRRS simulator.

Runs one workload (each measurement in its own single-threaded process),
checks its outputs against a no-scale run of the same inputs, prints every
metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --workload twitch-drrs --seed 1 --seconds 10 --trace 0

`--trace 0` reports the end-to-end metrics (tracing off); `--trace 1` runs
the traced binary and reports the per-layer metrics, and writes the spans
as a Chrome trace. Without `--workload` every workload runs in both modes
and BENCHMARK.json is rewritten from the tables below. See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_SECONDS = 25
# Set-up repetitions per measuring process; setup_s is their median.
SETUP_REPS = 200
# Every run, build check included, must end well within 180 s.
RUN_DEADLINE_S = 170
# fingerprints.json records every workload family at this seed; runs at a
# seed it does not record check their no-scale output here instead, with the
# family's cheapest workload whose check yields that output.
RECORDED_SEED = 20250705
REFERENCE_WORKLOAD = {"twitch": "twitch-steady", "q8": "q8-drrs"}

WORKLOADS = {
    "twitch-steady": "Twitch 7-operator pipeline, no rescale: the per-record "
                     "data plane does all the work; bypass control for "
                     "scaling-layer changes",
    "twitch-drrs": "same inputs rescaled 8->12 by DRRS at 60 s: the scaling "
                   "layer on top of a busy data plane",
    "q8-drrs": "NEXMark Q8, ~3 GB modelled state, rescaled 8->12 by DRRS at "
               "60 s: record-light and state-heavy, the scaling layer "
               "dominates",
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("records_per_host_s", "rec/s", "higher", 0.25),
]

# (name, unit, better). Simulated-time metrics use sim_ms / sim_s units.
PER_LAYER = [
    ("sim_p99_latency_ms", "sim_ms", "lower"),
    ("sim_peak_latency_ms", "sim_ms", "lower"),
    ("sim_avg_latency_ms", "sim_ms", "lower"),
    ("sim_scaling_period_s", "sim_s", "lower"),
    ("sim_mechanism_s", "sim_s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_record", "event/rec", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.steady_host_ms_per_sim_s", "ms/sim_s", "lower"),
    ("sim.queue_ns_per_event", "ns", "lower"),
    ("net.delivered_elements", "count", "lower"),
    ("net.delivered_batches", "count", "lower"),
    ("net.mean_batch", "rec/batch", "higher"),
    ("net.channel_ns_per_record", "ns", "lower"),
    ("state.peak_modeled_mb", "MB", "lower"),
    ("state.update_ns_per_record", "ns", "lower"),
    ("runtime.allocs_per_record", "alloc/rec", "lower"),
    ("runtime.build_s", "s", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("scaling.window_host_s", "s", "lower"),
    ("scaling.window_share", "share", "lower"),
    ("scaling.window_rss_mb", "MB", "lower"),
    ("scaling.propagation_ms", "sim_ms", "lower"),
    ("scaling.suspension_ms", "sim_ms", "lower"),
    ("scaling.dependency_us", "sim_us", "lower"),
    ("metrics.analysis_ms", "ms", "lower"),
    ("harness.summary_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


class BenchError(Exception):
    pass


# ---- spec ----

def spec():
    """BENCHMARK.json, generated from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec_problems(s):
    """Reasons `s` breaks the naming rules of a benchmark definition."""
    problems = []
    names = [w["name"] for w in s["workloads"]]
    for m in s["end_to_end"] + s["per_layer"]:
        names.append(m["name"])
        if not UNIT_RE.fullmatch(m["unit"]):
            problems.append(f"bad unit {m['unit']!r} of {m['name']}")
        if m["better"] not in ("lower", "higher"):
            problems.append(f"bad direction of {m['name']}")
    for m in s["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    problems += [f"bad name {n!r}" for n in names if not NAME_RE.fullmatch(n)]
    problems += [f"name {n!r} used twice" for n in set(names)
                 if names.count(n) > 1]
    return problems


def write_spec():
    s = spec()
    problems = spec_problems(s)
    if problems:
        raise BenchError("; ".join(problems))
    (ROOT / "BENCHMARK.json").write_text(json.dumps(s, indent=2) + "\n")


def regressions(baseline, current):
    """End-to-end metrics of `current` worse than `baseline` by more than
    their bound; both are result objects as the last output line holds."""
    flagged = []
    for name, _, better, bound in END_TO_END:
        if name not in baseline["metrics"] or name not in current["metrics"]:
            continue
        base = baseline["metrics"][name]["value"]
        cur = current["metrics"][name]["value"]
        worse = (cur - base) / base if better == "lower" else (base - cur) / base
        if worse > bound:
            flagged.append(name)
    return flagged


# ---- build ----

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure and build the benchmark binaries (Release, hooks off)."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release",
         "-DDRRS_AUDIT=OFF", "-DDRRS_TRACE=OFF"],
        ["cmake", "--build", str(bdir), "-j", jobs],
    ]
    with open(log, "w") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=850).returncode
            if rc != 0:
                tail = log.read_text()[-3000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    return bdir / "perfbench_run", bdir / "perfbench_traced"


# ---- child processes ----

class Children:
    """Runs benchmark processes one at a time and keeps their spans."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.processes = []  # (label, start_ns, end_ns, spans)

    def run(self, binary, mode, label=None, **flags):
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise BenchError("out of time for the run")
        cmd = [str(binary), mode]
        for key, value in flags.items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        start = time.monotonic_ns()
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=remaining)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{mode} timed out") from e
        end = time.monotonic_ns()
        if p.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} exited {p.returncode}:\n"
                             f"{p.stdout[-1500:]}{p.stderr[-1500:]}")
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.processes.append((label or f"{binary.name} {mode}", start, end,
                               result.pop("spans", [])))
        return result


def manifest(binary, children, seed):
    m = children.run(binary, "manifest")
    if not m["optimized"] or m["drrs_audit"] or m["drrs_trace"]:
        raise BenchError(f"refusing to report from this build: {m}")
    m["seed"] = seed
    m["nproc"] = os.cpu_count()
    m["git_revision"] = git_revision()
    m["source_sha256"] = source_digest()
    return m


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def source_digest():
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "bench" / "bench_workloads.h"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


# ---- output check ----

def load_fingerprints():
    path = HERE / "fingerprints.json"
    return json.loads(path.read_text()) if path.exists() else {}


def record_fingerprints(seeds):
    """Records the no-scale reference output of each workload family for
    `seeds` into fingerprints.json (keeps entries for other seeds)."""
    binary = build()[0]
    table = load_fingerprints()
    for family, workload in (("twitch", "twitch-steady"), ("q8", "q8-drrs")):
        for seed in seeds:
            chk = Children(time.monotonic() + RUN_DEADLINE_S).run(
                binary, "check", workload=workload, seed=seed)
            entries = table.setdefault(family, {})
            entries[str(seed)] = {"fingerprint": chk["reference_fingerprint"],
                                  "outputs": chk["reference_outputs"]}
            table[family] = dict(sorted(entries.items(),
                                        key=lambda kv: int(kv[0])))
            (HERE / "fingerprints.json").write_text(
                json.dumps(table, indent=1) + "\n")
            print(f"{family} seed {seed}: {entries[str(seed)]}", flush=True)


def check_outputs(binary, children, workload, seed):
    """Compares the run's outputs with its no-scale reference, and that
    reference with the recorded one. Returns (correct, attempted, failed,
    check result, notes)."""
    family = "twitch" if workload.startswith("twitch") else "q8"
    table = load_fingerprints().get(family, {})
    chk = children.run(binary, "check", workload=workload, seed=seed)
    notes = []
    attempted = chk["reference_outputs"]
    if attempted < 1:
        raise BenchError("the reference run produced no outputs")
    failed = (chk["missing"] + chk["different"] + chk["extra"] +
              chk["sink_gap"] + chk["invariant_violations"])
    correct = chk["different"] == 0 and chk["extra"] == 0
    ref, ref_seed = chk, seed
    if str(seed) not in table:
        notes.append(f"no recorded output for {family} seed {seed}; checking "
                     f"the no-scale output of seed {RECORDED_SEED} instead")
        ref_seed = RECORDED_SEED
        ref = children.run(binary, "check", "check at the recorded seed",
                           workload=REFERENCE_WORKLOAD[family], seed=ref_seed)
    if str(ref_seed) not in table:
        raise BenchError(f"fingerprints.json records no {family} seed {ref_seed}")
    recorded = table[str(ref_seed)]
    if (recorded["fingerprint"] != ref["reference_fingerprint"] or
            recorded["outputs"] != ref["reference_outputs"]):
        notes.append(f"no-scale output of seed {ref_seed} differs from the "
                     f"recorded one: {ref['reference_fingerprint']}/"
                     f"{ref['reference_outputs']} vs {recorded['fingerprint']}/"
                     f"{recorded['outputs']}")
        correct = False
        failed += max(1, abs(recorded["outputs"] - ref["reference_outputs"]))
    return correct, attempted, failed, chk, notes


def deterministic(*groups):
    """Runs of one seed to one horizon must have one simulated outcome; each
    group holds such runs."""
    return all(len({json.dumps(r["sim"], sort_keys=True) for r in g}) <= 1
               for g in groups)


# ---- modes ----

def measure_loop(children, binary, workload, seed, seconds, out_dir):
    samples = []
    end = time.monotonic() + seconds
    while not samples or time.monotonic() < end:
        samples.append(children.run(binary, "measure", workload=workload,
                                    seed=seed, setup_reps=SETUP_REPS,
                                    out_dir=out_dir))
    return samples


def end_to_end(samples):
    return {
        "wall_s": median(s["wall_s"] for s in samples),
        "cpu_s": median(s["cpu_s"] for s in samples),
        "setup_s": median(s["setup_s"] for s in samples),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in samples),
        "records_per_host_s": median(s["sim"]["source_records"] / s["wall_s"]
                                     for s in samples),
    }


def traced_rounds(children, bins, workload, seed, seconds, out_dir):
    """Rounds of: traced full run, untraced full run, and untraced prefix
    runs to the scaling request and to the end of the mechanism."""
    rounds = []
    end = time.monotonic() + seconds
    while not rounds or time.monotonic() < end:
        r = {}
        r["traced"] = children.run(bins[1], "measure", "traced run",
                                   workload=workload, seed=seed,
                                   setup_reps=SETUP_REPS, out_dir=out_dir)
        r["plain"] = children.run(bins[0], "measure", "untraced run",
                                  workload=workload, seed=seed, setup_reps=0)
        r["pre"] = children.run(bins[0], "measure", "prefix to scale_at",
                                workload=workload, seed=seed, setup_reps=0,
                                horizon_us=r["traced"]["scale_at_us"])
        scale_end = r["traced"]["sim"]["scale_end_us"]
        if scale_end > 0:
            r["post"] = children.run(bins[0], "measure",
                                     "prefix to scale end",
                                     workload=workload, seed=seed,
                                     setup_reps=0, horizon_us=scale_end)
        rounds.append(r)
    return rounds


def per_layer(rounds, probes):
    first = rounds[0]["traced"]
    sim = first["sim"]
    records = sim["source_records"]
    traced_wall = median(r["traced"]["wall_s"] for r in rounds)
    plain_wall = median(r["plain"]["wall_s"] for r in rounds)
    rescaled = "post" in rounds[0]
    window = median(r["post"]["wall_s"] - r["pre"]["wall_s"]
                    for r in rounds) if rescaled else 0.0
    window_rss = median(r["post"]["peak_rss_mb"] - r["pre"]["peak_rss_mb"]
                        for r in rounds) if rescaled else 0.0
    return {
        "sim_p99_latency_ms": sim["p99_latency_ms"],
        "sim_peak_latency_ms": sim["peak_latency_ms"],
        "sim_avg_latency_ms": sim["avg_latency_ms"],
        "sim_scaling_period_s": sim["scaling_period_s"],
        "sim_mechanism_s": sim["mechanism_s"],
        "sim.events": sim["events"],
        "sim.events_per_record": sim["events"] / records,
        "sim.host_ns_per_event": plain_wall * 1e9 / sim["events"],
        "sim.steady_host_ms_per_sim_s":
            median(r["pre"]["wall_s"] for r in rounds) * 1e3 /
            (first["scale_at_us"] / 1e6),
        "sim.queue_ns_per_event": probes["queue_ns_per_event"],
        "net.delivered_elements": sim["delivered_elements"],
        "net.delivered_batches": sim["delivered_batches"],
        "net.mean_batch": sim["delivered_elements"] /
                          max(1, sim["delivered_batches"]),
        "net.channel_ns_per_record": probes["channel_ns_per_record"],
        "state.peak_modeled_mb": sim["peak_modeled_state_mb"],
        "state.update_ns_per_record": probes["state_ns_per_update"],
        "runtime.allocs_per_record": first["allocs"] / records,
        "runtime.build_s": median(r["traced"]["runtime_build_s"] for r in rounds),
        "workloads.build_s": median(r["traced"]["workloads_build_s"]
                                    for r in rounds),
        "scaling.window_host_s": window,
        "scaling.window_share": window / traced_wall,
        "scaling.window_rss_mb": window_rss,
        "scaling.propagation_ms": sim["propagation_ms"],
        "scaling.suspension_ms": sim["suspension_ms"],
        "scaling.dependency_us": sim["dependency_us"],
        "metrics.analysis_ms": median(r["traced"]["analysis_ms"] for r in rounds),
        "harness.summary_ms": median(r["traced"]["summary_ms"] for r in rounds),
        "trace.overhead_share": traced_wall / plain_wall - 1,
    }


def self_times(processes):
    """Self time per layer (ms): each span's duration minus its children's."""
    totals = {}
    for _, _, _, spans in processes:
        child_ns = [0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        for s, c in zip(spans, child_ns):
            layer = s["name"].split(".")[0]
            totals[layer] = totals.get(layer, 0) + (s["end_ns"] - s["start_ns"] - c)
    return {k: v / 1e6 for k, v in sorted(totals.items())}


def write_chrome_trace(path, processes, meta):
    t0 = min(p[1] for p in processes)
    events = []
    for pid, (label, start, end, spans) in enumerate(processes, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
                       "args": {"name": label}})
        events.append({"name": "process." + label.replace(" ", "_"), "ph": "X",
                       "pid": pid, "tid": 1, "ts": (start - t0) / 1e3,
                       "dur": (end - start) / 1e3})
        for s in spans:
            parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else None
            events.append({"name": s["name"], "ph": "X", "pid": pid, "tid": 1,
                           "ts": (s["start_ns"] - t0) / 1e3,
                           "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
                           "args": {"parent": parent}})
    path.write_text(json.dumps({"traceEvents": events, "metadata": meta}))


def run_workload(workload, seed, seconds, traced):
    bins = build()  # outside the deadline: a first build may take minutes
    children = Children(time.monotonic() + RUN_DEADLINE_S)
    out_dir = build_dir() / "out"
    out_dir.mkdir(exist_ok=True)
    meta = manifest(bins[1] if traced else bins[0], children, seed)
    print("manifest " + json.dumps(meta, sort_keys=True))

    if traced:
        rounds = traced_rounds(children, bins, workload, seed, seconds, out_dir)
        sim = rounds[0]["traced"]["sim"]
        first = rounds[0]["traced"]
        probes = children.run(bins[1], "probes", events=sim["events"],
                              depth=first["tasks"],
                              records=sim["delivered_elements"],
                              updates=sim["source_records"],
                              keys=first["keys"], skew=first["key_skew"],
                              seed=seed)
        samples = [r[k] for r in rounds for k in ("traced", "plain")]
        prefixes = [[r[k] for r in rounds if k in r] for k in ("pre", "post")]
        metrics = per_layer(rounds, probes)
        units = {n: u for n, u, _ in PER_LAYER}
        allocs = {r["traced"]["allocs"] for r in rounds}
    else:
        samples = measure_loop(children, bins[0], workload, seed, seconds,
                               out_dir)
        metrics = end_to_end(samples)
        prefixes = []
        units = {n: u for n, u, _, _ in END_TO_END}
        allocs = set()
    correct, attempted, failed, chk, notes = check_outputs(
        bins[1] if traced else bins[0], children, workload, seed)
    if not deterministic(samples + [chk], *prefixes) or len(allocs) > 1:
        notes.append("determinism break: the simulated outcome or a count "
                     "differs between runs of the same seed")
        correct = False

    print(f"workload {workload} seed {seed}: {len(samples)} full runs, "
          f"{'traced' if traced else 'tracing off'}")
    walls = sorted(s["wall_s"] for s in samples)
    if len(walls) >= 2:
        q1, _, q3 = statistics.quantiles(walls, n=4, method="inclusive")
        print(f"wall_s of the {len(walls)} full runs: min {walls[0]:.4f} "
              f"q1 {q1:.4f} median {median(walls):.4f} q3 {q3:.4f} "
              f"max {walls[-1]:.4f}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"failed_share {failed / attempted!r} ({failed} of {attempted} "
          f"reference outputs; missing {chk['missing']}, different "
          f"{chk['different']}, extra {chk['extra']}, sink gap "
          f"{chk['sink_gap']}, invariant violations "
          f"{chk['invariant_violations']})")
    if chk["missing"]:
        print(f"missing outputs: {chk['missing_keys']} keys in "
              f"{chk['missing_key_groups']} key-groups, window ends "
              f"{chk['missing_first_s']}-{chk['missing_last_s']} sim s")
    for note in notes:
        print("note " + note)
    if traced:
        for layer, ms in self_times(children.processes).items():
            print(f"self_ms {layer} {ms:.3f}")
        trace = out_dir / f"trace-{workload}-{seed}.json"
        write_chrome_trace(trace, children.processes, meta)
        print(f"trace {trace}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }


def seed_arg(text):
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be in [0, 2^64)")
    return seed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=seed_arg, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprints", metavar="FIRST-LAST",
                    help="record the no-scale reference outputs of seeds "
                         "FIRST..LAST into fingerprints.json and exit")
    args = ap.parse_args()

    if args.record_fingerprints:
        first, last = (int(x) for x in args.record_fingerprints.split("-"))
        record_fingerprints(range(first, last + 1))
        return 0
    try:
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
            print(json.dumps(result))
            return 0
        for workload in WORKLOADS:
            for traced in (False, True):
                print(json.dumps(run_workload(workload, args.seed,
                                              args.seconds, traced)))
        write_spec()
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
