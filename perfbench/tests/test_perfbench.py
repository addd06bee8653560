#!/usr/bin/env python3
"""Self-tests of the benchmark: negative controls for its checks.

    python3 perfbench/tests/test_perfbench.py

The last test builds the benchmark binaries (as run.py does) and runs the
C++ negative controls of the output comparison.
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


def result(**values):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {n: {"value": v, "unit": "x"} for n, v in values.items()}}


BASELINE = result(wall_s=2.0, cpu_s=1.9, setup_s=0.001, peak_rss_mb=120.0,
                  records_per_host_s=300000.0)


class FakeChildren:
    """Stands in for run.Children: returns a canned check result for the
    run's seed, and the recorded no-scale output (or `recorded_seed_check`)
    at run.RECORDED_SEED."""

    def __init__(self, check, recorded_seed_check=None):
        self.check = check
        self.recorded_seed_check = recorded_seed_check or recorded_check(
            run.RECORDED_SEED)
        self.seeds = []

    def run(self, binary, mode, label=None, **flags):
        self.seeds.append(flags["seed"])
        if flags["seed"] == run.RECORDED_SEED:
            return copy.deepcopy(self.recorded_seed_check)
        return copy.deepcopy(self.check)


CLEAN_CHECK = {
    "reference_outputs": 1000, "missing": 0, "different": 0, "extra": 0,
    "sink_gap": 0, "invariant_violations": 0, "missing_keys": 0,
    "missing_key_groups": 0, "missing_first_s": -1e-06,
    "missing_last_s": -1e-06, "reference_fingerprint": "00000000000000aa",
    "reference_sink_records": 1000, "fingerprint": "00000000000000aa",
    "sim": {"events": 5},
}


def recorded_check(seed):
    """A clean check whose no-scale output is the one recorded for `seed`."""
    recorded = run.load_fingerprints()["q8"][str(seed)]
    return dict(CLEAN_CHECK, reference_outputs=recorded["outputs"],
                reference_fingerprint=recorded["fingerprint"])


class SpecTest(unittest.TestCase):
    def test_metric_names_and_units_follow_the_rules(self):
        self.assertEqual(run.spec_problems(run.spec()), [])
        for name, *_ in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")

    def test_a_bad_name_is_caught(self):
        s = run.spec()
        s["per_layer"].append({"name": "bad name", "unit": "s",
                               "better": "lower"})
        s["per_layer"].append(dict(s["per_layer"][0]))
        problems = run.spec_problems(s)
        self.assertTrue(any("bad name" in p for p in problems))
        self.assertTrue(any("used twice" in p for p in problems))

    def test_setup_has_the_largest_bound(self):
        bounds = {n: b for n, _, _, b in run.END_TO_END}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_benchmark_json_is_generated_from_the_tables(self):
        on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(on_disk, run.spec())


class RegressionTest(unittest.TestCase):
    def worsen(self, name, factor):
        cur = copy.deepcopy(BASELINE)
        cur["metrics"][name]["value"] *= factor
        return run.regressions(BASELINE, cur)

    def test_wall_time_beyond_its_bound_is_flagged(self):
        # wall_s has the widest bound the definition allows (0.25): on the
        # shared host the benchmark was tuned on, run-to-run spread reaches
        # 0.1-0.2, so a +20% wall time is within noise and +30% is not.
        self.assertEqual(self.worsen("wall_s", 1.3), ["wall_s"])
        self.assertEqual(self.worsen("cpu_s", 1.3), ["cpu_s"])

    def test_plus_20_percent_peak_rss_is_flagged(self):
        self.assertEqual(self.worsen("peak_rss_mb", 1.2), ["peak_rss_mb"])

    def test_throughput_loss_beyond_its_bound_is_flagged(self):
        self.assertEqual(self.worsen("records_per_host_s", 0.7),
                         ["records_per_host_s"])

    def test_small_changes_and_gains_pass(self):
        self.assertEqual(self.worsen("wall_s", 1.05), [])
        self.assertEqual(self.worsen("wall_s", 0.5), [])
        self.assertEqual(self.worsen("records_per_host_s", 1.5), [])


class OutputCheckTest(unittest.TestCase):
    def check(self, **changes):
        chk = dict(CLEAN_CHECK, **changes)
        return run.check_outputs(None, FakeChildren(chk), "q8-drrs", 10**12)

    def test_clean_run_passes(self):
        correct, attempted, failed, _, _ = self.check()
        self.assertEqual((correct, attempted, failed), (True, 1000, 0))

    def test_a_recorded_seed_is_checked_against_its_own_record(self):
        children = FakeChildren(recorded_check(1))
        correct, _, failed, _, notes = run.check_outputs(
            None, children, "q8-drrs", 1)
        self.assertEqual((correct, failed, notes), (True, 0, []))
        self.assertEqual(children.seeds, [1])

    def test_an_unrecorded_seed_checks_the_recorded_seed(self):
        children = FakeChildren(CLEAN_CHECK)
        run.check_outputs(None, children, "q8-drrs", 10**12)
        self.assertEqual(children.seeds, [10**12, run.RECORDED_SEED])
        changed = dict(recorded_check(run.RECORDED_SEED),
                       reference_fingerprint="ffffffffffffffff")
        correct, _, failed, _, notes = run.check_outputs(
            None, FakeChildren(CLEAN_CHECK, changed), "q8-drrs", 10**12)
        self.assertFalse(correct)
        self.assertGreaterEqual(failed, 1)
        self.assertTrue(any("differs from the recorded" in n for n in notes))

    def test_a_dropped_pane_raises_failed_share(self):
        correct, attempted, failed, _, _ = self.check(missing=1)
        self.assertGreater(failed / attempted, 0)
        self.assertTrue(correct)  # nothing produced is wrong, one is missing

    def test_a_wrong_or_duplicate_output_is_incorrect(self):
        self.assertFalse(self.check(different=1)[0])
        self.assertFalse(self.check(extra=1)[0])

    def test_invariant_violations_count_as_failures(self):
        self.assertEqual(self.check(invariant_violations=3)[2], 3)

    def test_a_changed_reference_output_is_incorrect(self):
        chk = dict(recorded_check(1), reference_fingerprint="ffffffffffffffff")
        correct, _, failed, _, notes = run.check_outputs(
            None, FakeChildren(chk), "q8-drrs", 1)
        self.assertFalse(correct)
        self.assertGreaterEqual(failed, 1)
        self.assertTrue(any("differs from the recorded" in n for n in notes))

    def test_a_determinism_break_is_caught(self):
        a = {"sim": {"events": 5, "p99_latency_ms": 1.0}}
        b = {"sim": {"events": 6, "p99_latency_ms": 1.0}}
        self.assertTrue(run.deterministic([a, a, a], [b, b]))
        self.assertFalse(run.deterministic([a, b, a]))
        self.assertFalse(run.deterministic([a, a], [a, b]))


class NativeCheckTest(unittest.TestCase):
    def test_native_negative_controls(self):
        binary = run.build()[0]
        p = subprocess.run([str(binary), "selftest"], capture_output=True,
                           text=True, timeout=170)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)


if __name__ == "__main__":
    unittest.main()
