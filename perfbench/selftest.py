"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # everything, about 70 s
    python3 perfbench/selftest.py -k Tracer  # one group

The file name keeps the repository's own pytest run from collecting it.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402  (puts src/ on sys.path)
import run  # noqa: E402
import sbmx.harness  # noqa: E402
from probe import SPAN_NAMES, Probe, Tracer  # noqa: E402
from sbmx.model import SbmParams  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TestTracer(unittest.TestCase):
    def test_self_time_subtracts_nested_children(self):
        # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
        tracer = Tracer(FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
        with tracer.span("outer"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        self.assertEqual(tracer.self_s, {"a": [3], "c": [1], "b": [3], "outer": [3]})
        self.assertEqual(tracer.total_self_s("outer"), 3)

    def test_exception_still_closes_span(self):
        tracer = Tracer(FakeClock([0, 2]))
        with self.assertRaises(ValueError), tracer.span("x"):
            raise ValueError
        self.assertEqual(tracer.self_s, {"x": [2]})


class TestRobustPass(unittest.TestCase):
    def test_slot_medians_are_summed(self):
        # three passes of two trials and a rest; a burst hits the second
        # trial of one pass and the first trial of another
        slots = [[1.0, 2.0, 0.1], [5.0, 2.2, 0.1], [1.2, 9.0, 0.3]]
        self.assertAlmostEqual(child.robust_pass_s(slots), 1.2 + 2.2 + 0.1)

    def test_equal_passes_give_the_pass_time(self):
        self.assertAlmostEqual(child.robust_pass_s([[0.5, 0.25, 0.25]] * 4), 1.0)


def captured_trial(method, n, alpha, beta, **options):
    with Probe() as probe:
        sbmx.harness.run_trial(method, SbmParams(n, alpha, beta), 11, 0, **options)
    (trial,) = probe.take_trials()
    return trial


class TestCheckers(unittest.TestCase):
    """A clean output passes its check; a corrupted labeling fails it."""

    grad_tol = 1e-6

    def assert_clean_then_corrupt(self, trial, key, corrupt):
        problems, _ = checks.check_trial(trial, self.grad_tol)
        self.assertEqual(problems, [])
        corrupt(trial, key)
        problems, _ = checks.check_trial(trial, self.grad_tol)
        self.assertNotEqual(problems, [])

    @staticmethod
    def flip_one(trial, key):
        labels = np.array(trial[key], copy=True)
        labels[0] = -labels[0]
        trial[key] = labels

    def test_certificate(self):
        trial = captured_trial("certificate", 100, 20, 2)
        self.assertTrue(trial["report"].certified)

        def swap_pair(trial, key):
            truth = np.array(trial[key], copy=True)
            i, j = np.flatnonzero(truth == 1)[0], np.flatnonzero(truth == -1)[0]
            truth[i], truth[j] = truth[j], truth[i]
            trial[key] = truth

        self.assert_clean_then_corrupt(trial, "truth", swap_pair)

    def test_sdp(self):
        trial = captured_trial("sdp", 100, 16, 1)

        def corrupt(trial, key):
            sol = trial[key]
            rounded = np.array(sol.rounded, copy=True)
            rounded[0] = -rounded[0]
            trial[key] = type(sol)(sol.factor, sol.objective, rounded, sol.rounds_used)

        self.assert_clean_then_corrupt(trial, "solution", corrupt)

    def test_two_phase(self):
        trial = captured_trial("two-phase", 200, 20, 2, split_c=1.0)
        self.assert_clean_then_corrupt(trial, "labels", self.flip_one)

    def test_ml(self):
        trial = captured_trial("ml", 12, 4, 1)

        def corrupt(trial, key):
            res = trial[key]
            best = np.array(res.best, copy=True)
            best[0] = -best[0]
            trial[key] = type(res)(best, res.min_cut, res.unique, res.optima_count)

        self.assert_clean_then_corrupt(trial, "ml", corrupt)

    def test_pool_check_rejects_other_counts(self):
        args = ("certificate", 100, (12.0,), (0.0, 2.0), 2, 5)
        points = sbmx.harness.phase_diagram(*args, workers=1)
        with child.checker_process() as conn:
            conn.send(("sweep", args, points))
            self.assertEqual(conn.recv(), [])
            points[1] = dataclasses.replace(points[1], successes=(points[1].successes + 1) % 3)
            conn.send(("sweep", args, points))
            self.assertNotEqual(conn.recv(), [])

    def test_bound(self):
        self.assertEqual(checks.check_bound(0.5), [])
        self.assertNotEqual(checks.check_bound(float("nan")), [])


class TestMetricNames(unittest.TestCase):
    def test_names_match_the_pattern(self):
        for group in ("end_to_end", "per_layer"):
            for metric in BENCHMARK[group]:
                self.assertRegex(metric["name"], NAME)
                self.assertEqual(NAME.fullmatch(metric["name"]).group(), metric["name"])

    def test_benchmark_json_lists_what_run_prints(self):
        self.assertEqual([m["name"] for m in BENCHMARK["end_to_end"]], list(run.END_TO_END_UNITS))
        tracer = Tracer()
        with tracer.span("harness.phase_diagram"):
            pass
        layers = child.per_layer(tracer, [], {False: 1.0, True: 1.0})
        self.assertEqual([m["name"] for m in BENCHMARK["per_layer"]], list(layers))
        for metric in BENCHMARK["per_layer"]:
            self.assertEqual(metric["unit"], run.per_layer_unit(metric["name"]))
        self.assertEqual(len(SPAN_NAMES), len(set(SPAN_NAMES)))

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))


class TestSmoke(unittest.TestCase):
    """A one-cell run of every workload, untraced and traced, through run.py."""

    def run_bench(self, workload, trace):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--smoke"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    res = self.run_bench(workload, trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    names = [m["name"] for m in BENCHMARK[group]]
                    self.assertEqual(list(res["metrics"]), names)


if __name__ == "__main__":
    unittest.main()
