#!/usr/bin/env python3
"""Self-tests for the benchmark's own logic (no build, no child processes):

    python3 perfbench/test_run.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        samples = list(range(1, 1001))
        self.assertEqual(run.tail_percentile(samples), (99, 990))
        # 999 samples leave only 9 beyond p99: fall back to p90.
        self.assertEqual(run.tail_percentile(samples[:999])[0], 90)

    def test_falls_back_to_p90_then_p50(self):
        self.assertEqual(run.tail_percentile(list(range(100))), (90, 89))
        self.assertEqual(run.tail_percentile(list(range(99)))[0], 50)
        self.assertEqual(run.tail_percentile(list(range(20))), (50, 9))

    def test_too_few_samples_give_no_percentile(self):
        self.assertIsNone(run.tail_percentile(list(range(19))))
        self.assertIsNone(run.tail_percentile([]))

    def test_order_does_not_matter(self):
        samples = [float(x) for x in range(1000)]
        self.assertEqual(run.tail_percentile(samples[::-1]),
                         run.tail_percentile(samples))


class MetricNames(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "mgl.insert.commit_ratio", "p99-ms", "0x"):
            self.assertTrue(run.valid_metric_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_lead", ".lead", "has space", "slash/name",
                     "x" * 65, "ünicode"):
            self.assertFalse(run.valid_metric_name(name), name)

    def test_every_declared_metric_is_valid(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertTrue(run.valid_metric_name(name), name)

    def test_result_line_rejects_unknown_and_missing_metrics(self):
        units = {"a_s": "s"}
        with self.assertRaises(ValueError):
            run.result_line(True, 1, 0, {"a_s": 1.0, "b": 2.0}, units)
        with self.assertRaises(ValueError):
            run.result_line(True, 1, 0, {}, units)
        line = json.loads(run.result_line(True, 3, 1, {"a_s": 0.5}, units))
        self.assertEqual(line, {"correct": True, "attempted": 3, "failed": 1,
                                "metrics": {"a_s": {"value": 0.5,
                                                    "unit": "s"}}})

    def test_benchmark_json_matches_the_emitted_metrics(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json next to this checkout")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))


class FailureAccounting(unittest.TestCase):
    def test_exit_codes(self):
        # 0 legal, 2 legal after guard degradation; 1 usage, 3 illegal,
        # 4 parse error, 5 internal, negative = killed by a signal.
        for code in (0, 2):
            self.assertFalse(run.run_failed(code))
        for code in (1, 3, 4, 5, -9, 137):
            self.assertTrue(run.run_failed(code))

    def test_serve_statuses(self):
        for status in ("ok", "degraded"):
            self.assertFalse(run.serve_failed(status))
        for status in ("infeasible", "parse-error", "malformed",
                       "unknown-tenant", "busy", "rejected", "internal", "bye",
                       None, ""):
            self.assertTrue(run.serve_failed(status))


class StageSeconds(unittest.TestCase):
    TABLE = (
        "MGL 0.60s (placed 2000, fallback 97, failed 0) | matching 0.02s\n"
        "pipeline guard:\n"
        "stage     status    attempts  seconds  score_in  score_out  detail\n"
        "------------------------------------------------------------------\n"
        "mgl       ok               1    0.601         -    32.1496       -\n"
        "maxdisp   ok               1    0.022   32.1496    18.9685       -\n"
        "mcf       ok               1    0.008   18.9685    18.8347       -\n"
        "ripup     disabled         0    0.000         -          -       -\n"
        "recovery  disabled         0    0.000         -          -       -\n"
        "generated: LEGAL avgDisp=4.780 maxDisp=64.2 score=18.835\n")

    def test_sums_the_guard_table(self):
        self.assertAlmostEqual(run.stage_seconds(self.TABLE), 0.631)

    def test_incomplete_table_is_none(self):
        self.assertIsNone(run.stage_seconds(""))
        partial = "\n".join(line for line in self.TABLE.splitlines()
                            if not line.startswith("mcf"))
        self.assertIsNone(run.stage_seconds(partial))


class LanesBusy(unittest.TestCase):
    def test_cpu_over_wall(self):
        self.assertAlmostEqual(run.lanes_busy(8.0, 2.0), 4.0)
        self.assertAlmostEqual(run.lanes_busy(18.2, 17.8), 18.2 / 17.8)
        self.assertAlmostEqual(run.lanes_busy(0.5, 2.0), 0.25)

    def test_zero_wall_is_zero_lanes(self):
        self.assertEqual(run.lanes_busy(1.0, 0.0), 0.0)


class Inputs(unittest.TestCase):
    DESIGN = ("MCLG 1\nCORE 100 20 1\nTYPE T 4 2 -1 0 0 1\n"
              "CELL 0 50.0 10.0 0 0 0 -1 -1\n"
              "CELL 0 99.0 19.0 0 0 0 -1 -1\n"
              "CELL 0 7 3 0 1 1 7 3\nEND\n")

    def test_perturbation_is_seeded_and_stays_in_the_core(self):
        a = run.perturb_design(self.DESIGN, 5, 0)
        self.assertEqual(a, run.perturb_design(self.DESIGN, 5, 0))
        self.assertNotEqual(a, run.perturb_design(self.DESIGN, 6, 0))
        self.assertNotEqual(a, run.perturb_design(self.DESIGN, 5, 1))
        cells = [line.split() for line in a.splitlines()
                 if line.startswith("CELL")]
        for fields in cells[:2]:
            self.assertTrue(0.0 <= float(fields[2]) <= 96.0)
            self.assertTrue(0.0 <= float(fields[3]) <= 18.0)
        self.assertEqual(cells[2], "CELL 0 7 3 0 1 1 7 3".split())

    def test_eco_stream_is_seeded_and_local(self):
        movable = [(c, 5 * c + 10, c) for c in range(50)]
        take = lambda seed: [next(s) for s in [run.eco_requests(  # noqa: E731
            seed, movable, 400)] for _ in range(20)]
        self.assertEqual(take(3), take(3))
        self.assertNotEqual(take(3), take(4))
        requests = take(3)
        verbs = [verb for _, verb in requests]
        self.assertEqual(verbs.count("rollback"), 2)
        self.assertEqual(verbs[9], "rollback")
        for moves, _ in requests:
            self.assertEqual(len(moves), run.ECO_OPS)
            for cell, x, y in moves:
                self.assertLessEqual(abs(x - 5 * cell - 10), run.ECO_MOVE_SITES)
                self.assertEqual(y, cell)


if __name__ == "__main__":
    unittest.main()
