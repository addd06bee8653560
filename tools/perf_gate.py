#!/usr/bin/env python3
"""Performance gate for the event-engine microbenchmarks and figure campaigns.

Engine mode (default): compares a fresh `bench_event_engine` run against the
committed BENCH_engine.json baseline (the *last* history row) and fails when
a bench regresses beyond the tolerance band:

  * allocs_per_item — near-deterministic (the allocation count of a fixed
    workload); gated tightly. A regression here means a hot path started
    heap-allocating again, which no amount of "the CI machine was slow"
    explains. Tolerance: committed value * (1 + --alloc-tol) + 0.005 abs.
  * items_per_sec — wall-clock, so noisy on shared runners; gated loosely.
    A candidate below committed * --min-speed-frac fails. The default (0.5)
    only catches structural slowdowns (an accidental O(n^2), a debug build),
    not scheduler jitter.

Figure mode (--figure): both candidate and baseline are BENCH_<figure>.json
trajectory files written by tools/campaign.py; the gate diffs the last
history row of each, per cell. Unlike the engine benches, figure metrics
come out of the deterministic simulator — they move only when the *modeled*
behavior changes — so the band (--fig-tol, default 0.10) is a real contract,
not noise headroom:

  * records_per_sec — floor: baseline * (1 - fig_tol)
  * mechanism_duration_us — ceiling: baseline * (1 + fig_tol) + 1000 us abs
  * p99_latency_ms — ceiling: baseline * (1 + fig_tol) + 0.5 ms abs

In both modes: benches/cells present in the candidate but not in the
baseline are reported and skipped (they gate from the row that first records
them). Benches/cells present in the baseline but missing from the candidate
FAIL — losing coverage silently is itself a regression.

Exit status: 0 pass, 1 regression, 2 usage/format error.
"""

import argparse
import json
import sys


def load_baseline(path, suite):
    """Return (results_dict, row_label) from BENCH_engine.json.

    Accepts the history format ({"history": [{"row": ..., "results": ...}]})
    and the legacy single-document format ({"results": {...}}). History rows
    are per-suite: a row's "bench" field (default "bench_event_engine" for
    rows predating suites) must match the candidate's; the gate uses the LAST
    matching row. Returns (None, None) when no row matches (a new suite's
    first run has nothing to gate against).
    """
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if "history" in doc:
        if not doc["history"]:
            print(f"error: {path} has an empty history", file=sys.stderr)
            sys.exit(2)
        for row in reversed(doc["history"]):
            if row.get("bench", "bench_event_engine") == suite:
                label = row.get("row", "<unlabeled>")
                if "results" not in row:
                    print(f"error: {path}: history row '{label}' for suite "
                          f"'{suite}' has no 'results' table — the baseline "
                          "row is malformed (re-record it with "
                          "bench_event_engine, or delete the row so the "
                          "suite gates from its next run)", file=sys.stderr)
                    sys.exit(2)
                return row["results"], label
        return None, None
    if "results" in doc:
        return doc["results"], "<legacy single row>"
    print(f"error: {path}: neither 'history' nor 'results'", file=sys.stderr)
    sys.exit(2)


def load_candidate(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if "results" not in doc:
        print(f"error: {path}: no 'results'", file=sys.stderr)
        sys.exit(2)
    return doc


def last_figure_row(path):
    """Return (figure, cells, row_label) from a BENCH_<figure>.json trajectory."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    history = doc.get("history")
    if not isinstance(history, list) or not history:
        print(f"error: {path}: no history rows (not a campaign.py trajectory "
              "file?)", file=sys.stderr)
        sys.exit(2)
    row = history[-1]
    if "cells" not in row:
        print(f"error: {path}: last history row has no 'cells' table",
              file=sys.stderr)
        sys.exit(2)
    return doc.get("figure", "<unknown>"), row["cells"], \
        row.get("row", "<unlabeled>")


def gate_figure(args):
    """Figure mode: diff two campaign.py trajectory files cell by cell."""
    fig_c, cand_cells, row_c = last_figure_row(args.candidate)
    fig_b, base_cells, row_b = last_figure_row(args.baseline)
    if fig_c != fig_b:
        print(f"error: figure mismatch: candidate is '{fig_c}', baseline is "
              f"'{fig_b}'", file=sys.stderr)
        sys.exit(2)

    print(f"perf_gate: figure '{fig_b}', baseline row '{row_b}' vs "
          f"candidate row '{row_c}' (tol {args.fig_tol:.0%})")
    failures = []
    # (metric, direction, relative tol factor, absolute slack)
    gates = [
        ("records_per_sec", "floor", 1 - args.fig_tol, 0.0),
        ("mechanism_duration_us", "ceiling", 1 + args.fig_tol, 1000.0),
        ("p99_latency_ms", "ceiling", 1 + args.fig_tol, 0.5),
    ]
    for cell in sorted(base_cells):
        if cell not in cand_cells:
            failures.append(f"{cell}: present in baseline but missing from "
                            "the candidate run")
            continue
        base, cand = base_cells[cell], cand_cells[cell]
        for metric, kind, factor, slack in gates:
            for side, table in (("baseline", base), ("candidate", cand)):
                if metric not in table:
                    print(f"error: cell '{cell}': {side} row has no "
                          f"'{metric}' field — regenerate with "
                          "tools/campaign.py", file=sys.stderr)
                    sys.exit(2)
            if kind == "floor":
                bound = base[metric] * factor - slack
                ok = cand[metric] >= bound
                word = "floor"
            else:
                bound = base[metric] * factor + slack
                ok = cand[metric] <= bound
                word = "ceiling"
            print(f"  {cell:<24} {metric:<22} {cand[metric]:>14.4g} "
                  f"({word} {bound:>14.4g}) {'OK' if ok else 'FAIL'}")
            if not ok:
                failures.append(
                    f"{cell}: {metric} {cand[metric]:.6g} vs {word} "
                    f"{bound:.6g} (baseline {base[metric]:.6g})")
    for cell in sorted(set(cand_cells) - set(base_cells)):
        print(f"  {cell:<24} new cell, no baseline yet — skipped")

    if failures:
        print(f"\nperf_gate: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("perf_gate: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("candidate", help="JSON written by bench_event_engine "
                        "(or, with --figure, by tools/campaign.py)")
    parser.add_argument("--baseline", default="BENCH_engine.json",
                        help="committed baseline (default: BENCH_engine.json)")
    parser.add_argument("--figure", action="store_true",
                        help="gate a BENCH_<figure>.json campaign trajectory "
                             "instead of the engine microbenches")
    parser.add_argument("--fig-tol", type=float, default=0.10,
                        help="relative tolerance band for figure metrics "
                             "(default 0.10; the simulated metrics are "
                             "deterministic, so this tracks modeled-behavior "
                             "drift, not machine noise)")
    parser.add_argument("--min-speed-frac", type=float, default=0.5,
                        help="fail if items_per_sec < frac * baseline "
                             "(default 0.5; loose on purpose — CI wall-clock "
                             "is noisy)")
    parser.add_argument("--alloc-tol", type=float, default=0.10,
                        help="relative tolerance on allocs_per_item "
                             "(default 0.10, plus 0.005 absolute slack)")
    parser.add_argument("--min-pdes-speedup", type=float, default=2.0,
                        help="minimum 4-thread wall-clock speedup for the "
                             "pdes scaling bench (default 2.0)")
    parser.add_argument("--pdes-min-cores", type=int, default=4,
                        help="only enforce --min-pdes-speedup when the "
                             "candidate machine reports at least this many "
                             "hardware threads (default 4)")
    args = parser.parse_args()

    if args.figure:
        return gate_figure(args)

    doc = load_candidate(args.candidate)
    candidate = doc["results"]
    suite = doc.get("bench", "bench_event_engine")
    baseline, row_label = load_baseline(args.baseline, suite)

    failures = []

    # Absolute gate on the PDES parallel speedup, independent of any baseline
    # row. Wall-clock parallelism needs real cores: a 1-core container runs
    # 4 workers at ~1x by construction, so the ratio check is conditional on
    # the candidate machine (recorded in the bench's `cores` field).
    pdes = doc.get("pdes")
    if pdes is not None:
        if not pdes.get("fingerprint_ok", False):
            failures.append("pdes: thread count leaked into simulation "
                            "results (fingerprint mismatch)")
        cores = pdes.get("cores", 0)
        speedup = pdes.get("speedup_4t", 0.0)
        if cores >= args.pdes_min_cores:
            ok = speedup >= args.min_pdes_speedup
            print(f"  pdes speedup @4t: {speedup:.2f}x on {cores} cores "
                  f"(floor {args.min_pdes_speedup:.2f}x) "
                  f"{'OK' if ok else 'FAIL'}")
            if not ok:
                failures.append(
                    f"pdes: 4-thread speedup {speedup:.2f}x < "
                    f"{args.min_pdes_speedup:.2f}x on {cores} cores")
        else:
            print(f"  pdes speedup @4t: {speedup:.2f}x — informational only "
                  f"({cores} cores < {args.pdes_min_cores})")

    if baseline is None:
        print(f"perf_gate: no '{suite}' row in {args.baseline} yet — "
              "first run of a new suite, results gate from the row that "
              "first records them")
        if failures:
            print(f"\nperf_gate: {len(failures)} regression(s):",
                  file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print("perf_gate: OK")
        return 0

    print(f"perf_gate: baseline row '{row_label}' from {args.baseline}")
    for name in sorted(baseline):
        if name not in candidate:
            failures.append(f"{name}: present in baseline but missing from "
                            "the candidate run")
            continue
        base = baseline[name]
        cand = candidate[name]
        for metric in ("items_per_sec", "allocs_per_item"):
            for side, table in (("baseline", base), ("candidate", cand)):
                if metric not in table:
                    print(f"error: bench '{name}': {side} row has no "
                          f"'{metric}' field — the {side} JSON is malformed "
                          "(expected the bench_event_engine result format)",
                          file=sys.stderr)
                    sys.exit(2)

        speed_floor = base["items_per_sec"] * args.min_speed_frac
        speed_ok = cand["items_per_sec"] >= speed_floor
        alloc_ceiling = base["allocs_per_item"] * (1 + args.alloc_tol) + 0.005
        alloc_ok = cand["allocs_per_item"] <= alloc_ceiling

        print(f"  {name:<20} items/s {cand['items_per_sec']:>12.0f} "
              f"(floor {speed_floor:>12.0f}) "
              f"allocs/item {cand['allocs_per_item']:.4f} "
              f"(ceiling {alloc_ceiling:.4f}) "
              f"{'OK' if speed_ok and alloc_ok else 'FAIL'}")
        if not speed_ok:
            failures.append(
                f"{name}: items_per_sec {cand['items_per_sec']:.0f} < "
                f"{args.min_speed_frac} * baseline "
                f"{base['items_per_sec']:.0f}")
        if not alloc_ok:
            failures.append(
                f"{name}: allocs_per_item {cand['allocs_per_item']:.4f} > "
                f"ceiling {alloc_ceiling:.4f} "
                f"(baseline {base['allocs_per_item']:.4f})")

    for name in sorted(set(candidate) - set(baseline)):
        print(f"  {name:<20} new bench, no baseline row yet — skipped")

    if failures:
        print(f"\nperf_gate: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("perf_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
