"""Self-tests of the benchmark's arithmetic (perfbench/benchlib.py).

    python3 perfbench/test_benchlib.py
    python3 perfbench/run.py --self-test
"""

import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

FIXTURES = HERE / "fixtures"


def fixture(name):
    return benchlib.parse_csv((FIXTURES / name).read_text())


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7], 99), 7)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(list(range(19))))
        self.assertEqual(benchlib.tail_percentile(list(range(20)))[0], 50)
        self.assertEqual(benchlib.tail_percentile(list(range(99)))[0], 50)
        self.assertEqual(benchlib.tail_percentile(list(range(100))),
                         (90.0, 89))
        self.assertEqual(benchlib.tail_percentile(list(range(1000)))[0],
                         99)
        self.assertEqual(
            benchlib.tail_percentile(list(range(10000)))[0], 99.9)

    def test_relative_spread(self):
        # statistics.quantiles (exclusive): q1 = 1.5, q3 = 4.5.
        self.assertAlmostEqual(benchlib.relative_spread([1, 2, 3, 4, 5]),
                               1.0)
        self.assertEqual(benchlib.relative_spread([3.0]), 0.0)


class ErrorAndCoverage(unittest.TestCase):
    def test_r_error(self):
        ref = {"runtime": "2000"}
        self.assertAlmostEqual(benchlib.r_error({"runtime": "1800"}, ref),
                               0.1)
        self.assertEqual(benchlib.r_error({"runtime": "2000"}, ref), 0.0)

    def test_coverage_needs_bound_at_least_error(self):
        ref = {"runtime": "1000"}
        self.assertTrue(benchlib.covered(
            {"runtime": "1050", "est_err": "0.05"}, ref))
        self.assertFalse(benchlib.covered(
            {"runtime": "1051", "est_err": "0.05"}, ref))
        # A full replay claims an exact answer.
        self.assertTrue(benchlib.covered({"runtime": "1000"}, ref))
        self.assertFalse(benchlib.covered({"runtime": "1001"}, ref))

    def test_prediction_errors(self):
        answers = [b"ok predicted_cycles=110.000000 model=mosmodel "
                   b"source=warm",
                   b"ok predicted_cycles=95.5 model=mosmodel source=warm",
                   b"err config unknown model 'x'",
                   b"ok predicted_cycles=nan model=mosmodel source=warm"]
        bad, worst = benchlib.prediction_errors(answers, [100.0] * 4)
        self.assertEqual(bad, 2)
        self.assertAlmostEqual(worst, 10.0)
        # A missing answer is a failure too.
        bad, _ = benchlib.prediction_errors(answers[:1], [100.0, 100.0])
        self.assertEqual(bad, 1)


class ReferenceRows(unittest.TestCase):
    def setUp(self):
        _, self.ref_raw, self.ref_rows = fixture("reference.csv")

    def test_identical_rows_pass(self):
        check = benchlib.match_rows(self.ref_raw, self.ref_rows,
                                    self.ref_raw, self.ref_rows, True)
        self.assertEqual((check["attempted"], check["failed"]), (3, 0))
        self.assertEqual(check["accuracy"], 100.0)
        self.assertEqual(check["coverage"], 100.0)

    def test_changed_missing_and_extra_rows_fail(self):
        header, raw, rows = fixture("reference.csv")
        key = ("SandyBridge", "gups/8GB", "grow-0")
        raw = dict(raw)
        raw[key] = raw[key].replace(",2000,", ",2001,")
        rows = dict(rows)
        rows[key] = dict(rows[key], runtime="2001")
        del raw[("Broadwell", "gups/8GB", "grow-8")]
        extra = ("Broadwell", "gups/8GB", "grow-1")
        raw[extra] = "Broadwell,gups/8GB,grow-1," + ",".join(
            ["1"] * (len(header) - 3))
        rows[extra] = dict(rows[key], layout="grow-1")
        check = benchlib.match_rows(raw, rows, self.ref_raw,
                                    self.ref_rows, True)
        self.assertEqual(check["attempted"], 4)
        self.assertEqual(check["failed"], 3)
        self.assertEqual({kind for kind, _ in check["mismatches"]},
                         {"differs", "missing", "unexpected"})

    def test_sampled_rows_report_accuracy_and_coverage(self):
        _, raw, rows = fixture("sampled.csv")
        check = benchlib.match_rows(raw, rows, self.ref_raw,
                                    self.ref_rows, False)
        self.assertEqual(check["failed"], 0)
        # Worst row: |1800 - 2000| / 2000 = 10%.
        self.assertAlmostEqual(check["accuracy"], 90.0)
        # 5% <= 0.06 and 0 <= 0 are covered; 10% > 0.05 is not.
        self.assertAlmostEqual(check["coverage"], 200.0 / 3)

    def test_non_finite_bound_fails(self):
        _, raw, rows = fixture("sampled.csv")
        key = ("Broadwell", "gups/8GB", "grow-8")
        rows = dict(rows)
        rows[key] = dict(rows[key], est_err="nan")
        check = benchlib.match_rows(raw, rows, self.ref_raw,
                                    self.ref_rows, False)
        self.assertEqual(check["failed"], 1)

    def test_swap_bound(self):
        rows = {"a": {"s": "90", "runtime": "100"},
                "b": {"s": "101", "runtime": "100"}}
        self.assertEqual(benchlib.swap_bounded(rows), ["b"])


class Spans(unittest.TestCase):
    TSV = ("id\tparent\tunit\tname\tstart_ns\tend_ns\twork\n"
           "2\t1\t0\tcpu.replay\t10\t30\t4\n"
           "3\t1\t1\tcpu.replay\t20\t50\t6\n"
           "1\t0\t0\tcampaign\t0\t100\t1\n")

    def test_self_time_subtracts_union_of_children(self):
        spans = benchlib.read_spans(self.TSV)
        own = benchlib.self_times(spans)
        # Children overlap on [20, 30): they cover 40 ns of the parent.
        self.assertEqual(own, {1: 60, 2: 20, 3: 30})
        seconds = benchlib.layer_self_seconds(spans)
        self.assertAlmostEqual(seconds["cpu.replay"], 50e-9)
        self.assertAlmostEqual(seconds["campaign"], 60e-9)

    def test_ns_per_work(self):
        spans = benchlib.read_spans(self.TSV)
        self.assertAlmostEqual(benchlib.ns_per_work(spans, "cpu.replay"),
                               5.0)
        self.assertEqual(benchlib.ns_per_work(spans, "absent"), 0.0)

    def test_covered_length_clips_to_interval(self):
        self.assertEqual(benchlib.covered_length([(-5, 5), (8, 20)], 0,
                                                 10), 7)
        self.assertEqual(benchlib.covered_length([], 0, 10), 0)
        self.assertTrue(math.isclose(
            benchlib.covered_length([(0, 4), (4, 8)], 0, 8), 8))


if __name__ == "__main__":
    unittest.main()
