"""Unit tests of perfbench's own logic (no build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import compare
import run
import stats


class TailSelection(unittest.TestCase):
    def test_highest_rung_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail(range(1000))[1], 99.0)  # 10 beyond p99
        self.assertEqual(stats.tail(range(999))[1], 95.0)   # p99 leaves 9
        self.assertEqual(stats.tail(range(9999))[1], 99.0)
        self.assertEqual(stats.tail(range(10000))[1], 99.9)
        self.assertEqual(stats.tail(range(100))[1], 90.0)
        self.assertEqual(stats.tail(range(99))[1], 75.0)

    def test_every_chosen_rung_leaves_ten_beyond(self):
        for n in range(20, 3000, 7):
            _, pct, count = stats.tail(range(n))
            self.assertEqual(count, n)
            self.assertGreaterEqual(stats.beyond(n, pct), stats.MIN_BEYOND)

    def test_cap_keeps_the_rung_when_more_samples_arrive(self):
        for n in (200, 999, 1000, 20000):
            self.assertEqual(stats.tail(range(n), 95.0)[1], 95.0)
        self.assertEqual(stats.tail(range(45), 75.0)[1], 75.0)
        self.assertEqual(stats.tail(range(150), 75.0)[1], 75.0)
        self.assertEqual(stats.tail(range(39), 75.0)[1], 50.0)  # too few

    def test_value_is_the_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        self.assertEqual(stats.tail(reversed(values)), (90.0, 90.0, 100))

    def test_short_or_empty_sample_falls_back_to_median_rung(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (2.0, 50.0, 3))
        self.assertEqual(stats.tail([]), (0.0, 50.0, 0))


class LagAccounting(unittest.TestCase):
    def test_summary_is_median_and_max(self):
        self.assertEqual(stats.lag_summary([0.3, 0.1, 0.2]), (0.2, 0.3))
        self.assertEqual(stats.lag_summary([]), (0.0, 0.0))

    def test_a_run_that_fell_behind_is_invalid(self):
        self.assertIsNone(stats.lag_violation([0.001, 0.25], 0.25))
        msg = stats.lag_violation([0.001, 0.2501], 0.25)
        self.assertIn("invalid", msg)
        self.assertIsNone(stats.lag_violation([], 0.25))


class HostRecord(unittest.TestCase):
    HOST = {"nproc": 4, "cpu_model": "x", "simd": "avx2",
            "build_type": "Release", "compiler": "GNU 12.2.0"}

    def result(self, host, value):
        return {"workload": "w", "trace": 0, "host": host,
                "metrics": {"m": {"value": value, "unit": "s"}}}

    def test_compare_refuses_results_from_other_hosts(self):
        other = dict(self.HOST, nproc=8)
        self.assertEqual(stats.host_mismatch(self.HOST, other), ["nproc"])
        with self.assertRaises(ValueError):
            compare.compare([self.result(self.HOST, 1.0)],
                            [self.result(other, 1.0)])

    def test_compare_refuses_tails_at_different_percentiles(self):
        def tailed(pct):
            return dict(self.result(self.HOST, 1.0),
                        notes={"latency_tail_pct": pct})
        compare.compare([tailed(75.0)], [tailed(75.0)])
        with self.assertRaises(ValueError):
            compare.compare([tailed(75.0)], [tailed(50.0)])

    def test_compare_reports_median_change(self):
        rows = compare.compare(
            [self.result(self.HOST, v) for v in (1.0, 2.0, 3.0)],
            [self.result(self.HOST, 3.0)])
        self.assertEqual(rows, [("w", 0, "m", "s", 2.0, 3.0, 0.5, 1.0)])


class BenchmarkJson(unittest.TestCase):
    """BENCHMARK.json keeps its format limits and names exactly the
    end-to-end metrics run.py computes."""

    def setUp(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            self.doc = json.load(f)

    def test_limits(self):
        d = self.doc
        self.assertEqual(set(d), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in d["workloads"]]
        names += [m["name"] for m in d["end_to_end"] + d["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        for m in d["end_to_end"] + d["per_layer"]:
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in d["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        for w in d["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)
        self.assertEqual(max(m["bound"] for m in d["end_to_end"]),
                         next(m["bound"] for m in d["end_to_end"]
                              if m["name"] == "setup_s"))

    def test_not_run_layers_name_real_metrics(self):
        self.assertEqual(set(run.NOT_RUN), set(run.WORKLOADS))
        self.assertEqual(set(run.TAIL_CAP), set(run.WORKLOADS))
        names = [m["name"] for m in self.doc["per_layer"]]
        for workload, prefixes in run.NOT_RUN.items():
            for prefix in prefixes:
                self.assertTrue(any(n.startswith(prefix) for n in names),
                                "%s: %s matches no metric" % (workload, prefix))
        self.assertTrue(run.not_run("recon_single", "store.cache.find_s"))
        self.assertFalse(run.not_run("svc_store_mix", "store.cache.find_s"))
        self.assertFalse(run.not_run("recon_single", "core.host_cores_busy"))

    def test_end_to_end_names_match_run_py(self):
        job = {"ok": True, "on_device": True, "latency_s": 1.0, "lag_s": 0.0}
        raw = {"workload": "recon_single",
               "jobs": [job] * 30, "setup_s": [1.0, 2.0, 3.0],
               "window_s": 30.0, "cpu_s": 3.0, "heap_mb": 10.0,
               "modeled_device_s_per_job": 0.5}
        values, notes = run.end_to_end(raw)
        self.assertEqual(set(values),
                         {m["name"] for m in self.doc["end_to_end"]})
        self.assertEqual(values["setup_s"], 2.0)
        self.assertEqual(values["jobs_per_s"], 1.0)
        self.assertEqual(notes, {"latency_tail_pct": 50.0,
                                 "latency_samples": 30})


if __name__ == "__main__":
    unittest.main()
