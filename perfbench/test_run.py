"""Tests of the benchmark's own logic: percentile and sample-count reporting,
metric-name validation against BENCHMARK.json, the pin gate, and a smoke run
of the real harness that must pass with the committed pins and fail with a
wrong one.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def raw_result(**overrides):
    raw = {
        "workload": "dgemm_bulk", "input_seed": 4, "digest": "00ff",
        "virtual_s": 1.25, "attempted": 7, "failed": 0,
        "samples": {"setup_s": [0.3, 0.1, 0.2], "job_wall_s": [2.0, 1.0],
                    "job_wall_1t_s": [4.0], "jobs_per_s": [0.5]},
        "scalars": {"peak_rss_mb": 12.5},
        "layers": {},
    }
    raw.update(overrides)
    return raw


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertEqual(run.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(run.percentile(xs, 99), 99.01)
        self.assertEqual(run.percentile(xs, 0), 1.0)
        self.assertEqual(run.percentile(xs, 100), 100.0)

    def test_median_agrees_with_statistics_module(self):
        for xs in ([3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0]):
            self.assertEqual(run.median(xs), statistics.median(xs))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.percentile([], 50)


class EndToEndTest(unittest.TestCase):
    def test_metrics_and_sample_counts(self):
        m = run.end_to_end(raw_result())
        self.assertEqual(m["setup_s"], (0.2, 3))
        self.assertEqual(m["job_wall_s"], (1.5, 2))
        self.assertEqual(m["job_wall_1t_s"], (4.0, 1))
        self.assertEqual(m["jobs_per_s"], (0.5, 1))
        self.assertEqual(m["peak_rss_mb"], (12.5, 1))

    def test_missing_samples_are_an_error(self):
        raw = raw_result()
        raw["samples"]["job_wall_1t_s"] = []
        with self.assertRaises(run.BenchError):
            run.end_to_end(raw)

    def test_end_to_end_covers_benchmark_json(self):
        units = run.validate_spec(SPEC)["end_to_end"]
        run.check_names(run.end_to_end(raw_result()), units)


class NameValidationTest(unittest.TestCase):
    def test_committed_spec_is_valid(self):
        units = run.validate_spec(SPEC)
        self.assertIn("setup_s", units["end_to_end"])
        self.assertEqual(units["end_to_end"]["setup_s"], "s")

    def test_contract_limits(self):
        self.assertEqual(SPEC["command"][:2], ["python3", "perfbench/run.py"])
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_rejects_bad_names_units_and_duplicates(self):
        def spec(e2e, layers=()):
            return {"end_to_end": list(e2e), "per_layer": list(layers)}
        ok = {"name": "a", "unit": "s"}
        for bad in ({"name": "_a", "unit": "s"}, {"name": "a b", "unit": "s"},
                    {"name": "a" * 65, "unit": "s"},
                    {"name": "a", "unit": "sec onds"}):
            with self.assertRaises(run.BenchError):
                run.validate_spec(spec([bad]))
        with self.assertRaises(run.BenchError):
            run.validate_spec(spec([ok, ok]))
        with self.assertRaises(run.BenchError):
            run.validate_spec(spec([ok], [ok]))

    def test_reported_names_must_match_exactly(self):
        units = {"a": "s", "b": "ms"}
        run.check_names({"a": (1.0, 1), "b": (2.0, 1)}, units)
        with self.assertRaises(run.BenchError):
            run.check_names({"a": (1.0, 1)}, units)
        with self.assertRaises(run.BenchError):
            run.check_names({"a": (1.0, 1), "b": (2.0, 1), "c": (0.0, 1)},
                            units)
        with self.assertRaises(run.BenchError):
            run.check_names({"a": (1.0, 1), "b": (float("nan"), 1)}, units)


class PinGateTest(unittest.TestCase):
    PINS = {"dgemm_bulk": {"4": {"digest": "00ff", "virtual_s": 1.25}}}

    def test_accepts_exact_match(self):
        self.assertTrue(run.check_pin(raw_result(), self.PINS, "dgemm_bulk"))

    def test_rejects_digest_virtual_time_and_missing_pin(self):
        self.assertFalse(run.check_pin(raw_result(digest="00fe"), self.PINS,
                                       "dgemm_bulk"))
        self.assertFalse(run.check_pin(raw_result(virtual_s=1.2500000000000002),
                                       self.PINS, "dgemm_bulk"))
        self.assertFalse(run.check_pin(raw_result(input_seed=5), self.PINS,
                                       "dgemm_bulk"))

    def test_every_workload_and_seed_is_pinned(self):
        with open(run.PINS) as f:
            pins = json.load(f)
        for w in SPEC["workloads"]:
            for smoke in (False, True):
                seeds = set(pins[run.pin_key(w["name"], smoke)])
                self.assertEqual(seeds, {str(run.input_seed(s))
                                         for s in range(run.PIN_VARIANTS)})


@unittest.skipUnless(os.path.isfile(os.path.join(run.ROOT, "src",
                                                 "CMakeLists.txt")),
                     "needs the PRS sources to build the harness")
class SmokeTest(unittest.TestCase):
    """Runs the real harness on tiny inputs (builds it on first use)."""

    ARGS = ["--smoke", "--seed", "3", "--seconds", "1"]

    def bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), *self.ARGS,
             "--workload", workload, "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=900)
        return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_workload_passes_with_committed_pins(self):
        units = run.validate_spec(SPEC)
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                code, out = self.bench(w["name"], trace)
                self.assertEqual(code, 0, w["name"])
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                section = "per_layer" if trace else "end_to_end"
                self.assertEqual(set(out["metrics"]), set(units[section]))

    def test_wrong_pin_fails_the_run(self):
        with open(run.PINS) as f:
            pins = json.load(f)
        key = run.pin_key("dgemm_bulk", True)
        pins[key][str(run.input_seed(3))]["digest"] = "0" * 16
        os.makedirs(run.build_dir(), exist_ok=True)
        stdout = io.StringIO()
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         dir=run.build_dir()) as f:
            json.dump(pins, f)
            f.flush()
            with mock.patch.object(run, "PINS", f.name), \
                    contextlib.redirect_stdout(stdout):
                code = run.main(self.ARGS + ["--workload", "dgemm_bulk",
                                             "--trace", "0"])
        out = json.loads(stdout.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], out["attempted"])


if __name__ == "__main__":
    unittest.main()
