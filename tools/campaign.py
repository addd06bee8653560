#!/usr/bin/env python3
"""Campaign runner: declarative sweeps over the DRRS bench binaries.

Each figure of the paper reproduction is a *campaign*: one bench binary run
with `--json-summary`, producing one schema-v2 summary per cell (system, or
workload x system, or grid point). This tool runs the requested campaigns in
parallel, harvests the per-cell summaries, reduces each to the figure-level
metrics the perf gate tracks (records/s, mechanism time, p99 latency, ...)
and appends one history row per figure to `BENCH_<figure>.json` at the repo
root — the committed perf-trajectory files that `tools/perf_gate.py
--figure` diffs against.

Usage:
    campaign.py --bench-dir build/bench                  # fig02, rescale
    campaign.py --figures fig02 --scale 0.05 --no-update # CI smoke
    campaign.py --figures all --jobs 4 --row v10

    --out-dir DIR     where raw per-cell summaries land (default: a temp dir)
    --emit-dir DIR    where BENCH_<figure>.json live (default: repo root)
    --row LABEL       history row label (default: "r<N>" = next index)
    --no-update       write candidate files as BENCH_<fig>.candidate.json
                      instead of appending to the committed history (gating)
    --telemetry       pass --telemetry to binaries that support it
    --trace DIR       also export Perfetto traces per cell into DIR
    --check FILE...   validate trajectory files against figure_schema.json
                      and exit (runs nothing; used by the CI smoke job)

Pure standard library; no third-party packages.

Exit status: 0 ok, 1 a campaign failed, 2 usage error.
"""

import argparse
import concurrent.futures
import glob
import json
import os
import subprocess
import sys
import tempfile

# Declarative sweep registry. `cells` documents the expected tag pattern;
# the harvester discovers actual cells from the emitted summary files, so a
# registry entry never goes stale when a binary adds a system.
FIGURES = {
    "fig02": {
        "binary": "bench_fig02_motivation",
        "sweep": "twitch x {unbound, otfs-fluid, no-scale}",
        "telemetry": True,
    },
    # Figs 10-13 are four views of one 8->12 rescale experiment; the
    # binary runs each cell once and prints all four tables.
    "rescale": {
        "binary": "bench_rescale",
        "sweep": "{q7, q8, twitch} x {drrs, megaphone, meces}",
        "telemetry": True,
    },
    "fig14": {
        "binary": "bench_fig14_ablation",
        "sweep": "twitch x {drrs, drrs-dr, drrs-schedule, drrs-subscale}",
        "telemetry": True,
    },
    "fig15": {
        "binary": "bench_fig15_sensitivity",
        "sweep": "rate x state-bytes x skew x {drrs, megaphone, meces} "
                 "(108 cells; slow)",
        "telemetry": True,
    },
    "flash_crowd": {
        "binary": "bench_flash_crowd",
        "sweep": "flash-crowd x {unprotected, shedding, throttle, breaker}",
        "telemetry": True,
    },
}
DEFAULT_FIGURES = ["fig02", "rescale"]

# The figure-level metrics extracted from each schema-v2 summary. Keep in
# sync with tools/figure_schema.json and perf_gate.py --figure.
CELL_METRICS = [
    "records_per_sec", "source_records", "sink_records",
    "mechanism_duration_us", "scaling_period_us",
    "p99_latency_ms", "peak_latency_ms", "avg_latency_ms",
]


def reduce_summary(doc):
    """One schema-v2 --json-summary document -> figure-level metrics."""
    version = doc.get("schema_version", 0)
    if version < 2:
        raise ValueError(f"schema_version {version} < 2 — rebuild the bench "
                         "binaries (records/s needs the sim_end_us field)")
    sim_end_s = doc["sim_end_us"] / 1e6
    hist = doc.get("latency", {}).get("histogram_ms", {})
    return {
        "records_per_sec": (doc["source_records"] / sim_end_s
                            if sim_end_s > 0 else 0.0),
        "source_records": doc["source_records"],
        "sink_records": doc["sink_records"],
        "mechanism_duration_us": doc["mechanism_duration_us"],
        "scaling_period_us": doc["scaling_period_us"],
        "p99_latency_ms": hist.get("p99", 0.0),
        "peak_latency_ms": doc["latency"]["peak_ms"],
        "avg_latency_ms": doc["latency"]["avg_ms"],
        "system": doc.get("system", ""),
        "workload": doc.get("workload", ""),
    }


def run_campaign(fig, spec, args, out_dir):
    """Run one bench binary, harvest its per-cell summaries."""
    binary = os.path.join(args.bench_dir, spec["binary"])
    if not os.path.exists(binary):
        return fig, None, f"binary not found: {binary}"
    summary_base = os.path.join(out_dir, f"{fig}.json")
    cmd = [binary, "--no-series", f"--json-summary={summary_base}"]
    if args.scale != 1.0:
        cmd += ["--scale", str(args.scale)]
    if args.threads != 1:
        cmd += [f"--threads={args.threads}"]
    if args.telemetry and spec.get("telemetry"):
        cmd.append("--telemetry")
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        cmd.append(f"--trace={os.path.join(args.trace, fig + '.json')}")
    print(f"campaign: [{fig}] {' '.join(cmd)}", flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    log_path = os.path.join(out_dir, f"{fig}.log")
    with open(log_path, "w", encoding="utf-8") as f:
        f.write(proc.stdout)
    if proc.returncode != 0:
        return fig, None, (f"{spec['binary']} exited {proc.returncode} "
                           f"(log: {log_path})")

    cells = {}
    pattern = os.path.join(out_dir, f"{fig}.*.json")
    for path in sorted(glob.glob(pattern)):
        tag = os.path.basename(path)[len(fig) + 1:-len(".json")]
        try:
            with open(path, encoding="utf-8") as f:
                cells[tag] = reduce_summary(json.load(f))
        except (ValueError, KeyError, json.JSONDecodeError) as e:
            return fig, None, f"bad summary {path}: {e}"
    if not cells:
        return fig, None, f"no summaries matched {pattern}"
    return fig, cells, None


def emit_trajectory(fig, spec, cells, args):
    """Append a history row to BENCH_<fig>.json (or write a candidate)."""
    committed = os.path.join(args.emit_dir, f"BENCH_{fig}.json")
    doc = {"figure": fig, "bench": spec["binary"], "sweep": spec["sweep"],
           "history": []}
    if os.path.exists(committed):
        with open(committed, encoding="utf-8") as f:
            prev = json.load(f)
        if prev.get("figure") == fig and isinstance(prev.get("history"), list):
            doc["history"] = prev["history"]
    row_label = args.row or f"r{len(doc['history'])}"
    doc["history"].append({
        "row": row_label,
        "scale": args.scale,
        "cells": cells,
    })
    out_path = committed
    if args.no_update:
        out_path = os.path.join(args.emit_dir, f"BENCH_{fig}.candidate.json")
        # A candidate carries only the fresh row: the gate compares it
        # against the committed history, never against itself.
        doc["history"] = doc["history"][-1:]
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"campaign: [{fig}] {len(cells)} cells -> {out_path} "
          f"(row '{row_label}')")
    return out_path


def check_files(paths, schema_path):
    """Validate BENCH_<figure>.json files against tools/figure_schema.json."""
    with open(schema_path, encoding="utf-8") as f:
        schema = json.load(f)
    findings = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            findings.append(f"{path}: unreadable or invalid JSON: {e}")
            continue
        for key in schema["top_level_required"]:
            if key not in doc:
                findings.append(f"{path}: missing top-level key '{key}'")
        history = doc.get("history")
        if not isinstance(history, list) or not history:
            findings.append(f"{path}: history is missing or empty")
            continue
        for i, row in enumerate(history):
            where = f"{path}: history[{i}]"
            for key in schema["row_required"]:
                if key not in row:
                    findings.append(f"{where}: missing '{key}'")
            cells = row.get("cells")
            if not isinstance(cells, dict) or not cells:
                findings.append(f"{where}: cells is missing or empty")
                continue
            for tag, cell in cells.items():
                for metric in schema["cell_metrics"]:
                    if metric not in cell:
                        findings.append(
                            f"{where}: cell '{tag}' missing '{metric}'")
                    elif not isinstance(cell[metric], (int, float)):
                        findings.append(
                            f"{where}: cell '{tag}' metric '{metric}' "
                            "is not numeric")
    for f in findings:
        print(f"campaign: {f}", file=sys.stderr)
    if findings:
        return 1
    print(f"campaign: check OK ({len(paths)} file(s))")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--figures", default=",".join(DEFAULT_FIGURES),
                        help="comma-separated figure list, or 'all' "
                             f"(default: {','.join(DEFAULT_FIGURES)})")
    parser.add_argument("--bench-dir", default="build/bench",
                        help="directory with the bench binaries")
    parser.add_argument("--out-dir", default=None,
                        help="raw summary/log directory (default: temp dir)")
    parser.add_argument("--emit-dir", default=".",
                        help="where BENCH_<figure>.json live (default: .)")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2,
                        help="campaigns run in parallel (default: cores)")
    parser.add_argument("--row", default=None,
                        help="history row label (default: next index)")
    parser.add_argument("--no-update", action="store_true",
                        help="emit BENCH_<fig>.candidate.json instead of "
                             "appending to the committed trajectory")
    parser.add_argument("--telemetry", action="store_true",
                        help="run the binaries with the telemetry sampler on")
    parser.add_argument("--trace", default=None,
                        help="directory for per-cell Perfetto traces")
    parser.add_argument("--check", nargs="+", metavar="FILE",
                        help="validate trajectory files against "
                             "figure_schema.json and exit")
    parser.add_argument(
        "--schema",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "figure_schema.json"))
    args = parser.parse_args()

    if args.check:
        return check_files(args.check, args.schema)

    names = (list(FIGURES) if args.figures == "all"
             else [f.strip() for f in args.figures.split(",") if f.strip()])
    for fig in names:
        if fig not in FIGURES:
            print(f"campaign: unknown figure '{fig}' "
                  f"(known: {', '.join(FIGURES)})", file=sys.stderr)
            return 2

    out_dir = args.out_dir or tempfile.mkdtemp(prefix="drrs_campaign_")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(args.emit_dir, exist_ok=True)

    failures = []
    results = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as ex:
        futures = [ex.submit(run_campaign, fig, FIGURES[fig], args, out_dir)
                   for fig in names]
        for fut in concurrent.futures.as_completed(futures):
            fig, cells, err = fut.result()
            if err:
                failures.append(f"{fig}: {err}")
            else:
                results[fig] = cells

    # Emit in registry order so reruns produce identical files.
    for fig in names:
        if fig in results:
            emit_trajectory(fig, FIGURES[fig], results[fig], args)

    if failures:
        print(f"campaign: {len(failures)} campaign(s) failed:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"campaign: OK ({len(results)} figure(s), summaries in {out_dir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
