"""Unit tests of scripts/perf_gate.py's comparison, on canned run records.

Run from this directory with `python3 -m unittest perf_gate_test`.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import perf_gate  # noqa: E402

SPEC = {
    "workloads": [{"name": "skewed"}, {"name": "road"}],
    "end_to_end": [
        {"name": "pipeline_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
        {"name": "edges_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}


def record(failed=0, **metrics):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"}
                        for name, value in metrics.items()}}


BASE = dict(pipeline_ms=100.0, peak_rss_mb=200.0, edges_per_s=1000.0)


def same_as_base(**override):
    return record(**{**BASE, **override})


class PerfGateCompare(unittest.TestCase):
    def compare(self, parent, change):
        rows, failures = perf_gate.compare(SPEC, parent, change)
        verdicts = {(row["workload"], row["metric"]): row["verdict"] for row in rows}
        return verdicts, failures

    def test_metrics_within_their_bounds_pass(self):
        parent = {w: [same_as_base(), same_as_base(), same_as_base()]
                  for w in ("skewed", "road")}
        change = {w: [same_as_base(pipeline_ms=124.0),
                      same_as_base(peak_rss_mb=209.0),
                      same_as_base(pipeline_ms=124.0, peak_rss_mb=209.0,
                                   edges_per_s=760.0)]
                  for w in ("skewed", "road")}
        verdicts, failures = self.compare(parent, change)
        self.assertEqual(failures, [])
        self.assertEqual(set(verdicts.values()), {"ok"})

    def test_each_workload_is_judged_on_its_own(self):
        parent = {w: [same_as_base(), same_as_base(), same_as_base()]
                  for w in ("skewed", "road")}
        # road's median pipeline is 30 % slower; skewed's is unchanged,
        # and pooling both workloads would hide road's slowdown.
        change = {"skewed": [same_as_base(), same_as_base(), same_as_base()],
                  "road": [same_as_base(pipeline_ms=130.0),
                           same_as_base(pipeline_ms=130.0),
                           same_as_base()]}
        verdicts, failures = self.compare(parent, change)
        self.assertEqual(verdicts[("road", "pipeline_ms")], "WORSE")
        self.assertEqual(verdicts[("skewed", "pipeline_ms")], "ok")
        self.assertEqual(len(failures), 1)
        self.assertIn("road: pipeline_ms", failures[0])

    def test_a_tight_bound_fails_a_small_worsening(self):
        parent = {"skewed": [same_as_base()], "road": [same_as_base()]}
        change = {"skewed": [same_as_base(peak_rss_mb=212.0)],
                  "road": [same_as_base()]}
        verdicts, failures = self.compare(parent, change)
        self.assertEqual(verdicts[("skewed", "peak_rss_mb")], "WORSE")
        self.assertEqual(len(failures), 1)

    def test_higher_is_better_metrics_fail_when_they_drop(self):
        parent = {"skewed": [same_as_base()], "road": [same_as_base()]}
        change = {"skewed": [same_as_base(edges_per_s=700.0)],
                  "road": [same_as_base(edges_per_s=5000.0)]}
        verdicts, failures = self.compare(parent, change)
        self.assertEqual(verdicts[("skewed", "edges_per_s")], "WORSE")
        self.assertEqual(verdicts[("road", "edges_per_s")], "ok")
        self.assertEqual(len(failures), 1)

    def test_the_median_ignores_one_outlier(self):
        parent = {"skewed": [same_as_base()] * 3, "road": [same_as_base()]}
        change = {"skewed": [same_as_base(pipeline_ms=500.0), same_as_base(),
                             same_as_base()],
                  "road": [same_as_base()]}
        _, failures = self.compare(parent, change)
        self.assertEqual(failures, [])

    def test_a_failed_operation_in_the_change_fails(self):
        parent = {"skewed": [same_as_base()], "road": [same_as_base()]}
        change = {"skewed": [same_as_base(), record(failed=1, **BASE)],
                  "road": [same_as_base()]}
        verdicts, failures = self.compare(parent, change)
        self.assertEqual(set(verdicts.values()), {"ok"})
        self.assertEqual(len(failures), 1)
        self.assertIn("skewed", failures[0])
        self.assertIn("failed 1 of 10", failures[0])

    def test_an_unfinished_change_run_fails(self):
        parent = {"skewed": [same_as_base()], "road": [same_as_base()]}
        change = {"skewed": [same_as_base(), None], "road": [None]}
        verdicts, failures = self.compare(parent, change)
        self.assertEqual(verdicts[("road", "pipeline_ms")], "no run")
        self.assertEqual(len(failures), 2)

    def test_a_failed_operation_in_the_parent_is_not_the_change_fault(self):
        parent = {"skewed": [record(failed=3, **BASE)], "road": [same_as_base()]}
        change = {"skewed": [same_as_base()], "road": [same_as_base()]}
        _, failures = self.compare(parent, change)
        self.assertEqual(failures, [])

    def test_a_metric_the_parent_lacks_is_reported_not_gated(self):
        old = record(pipeline_ms=100.0, peak_rss_mb=200.0)
        parent = {"skewed": [old], "road": [old]}
        change = {"skewed": [same_as_base(edges_per_s=1.0)],
                  "road": [same_as_base()]}
        rows, failures = perf_gate.compare(SPEC, parent, change)
        self.assertEqual(failures, [])
        row = next(r for r in rows
                   if (r["workload"], r["metric"]) == ("skewed", "edges_per_s"))
        self.assertEqual(row["verdict"], "not gated (base lacks it)")
        self.assertEqual(row["change"], 1.0)
        self.assertIn("edges_per_s", perf_gate.format_rows(rows))

    def test_a_workload_the_parent_lacks_is_reported_not_gated(self):
        # The parent's perfbench rejects an unknown workload, so its runs
        # of a new workload do not finish.
        parent = {"skewed": [same_as_base()], "road": [None, None]}
        change = {"skewed": [same_as_base()],
                  "road": [same_as_base(pipeline_ms=900.0)]}
        verdicts, failures = self.compare(parent, change)
        self.assertEqual(failures, [])
        self.assertEqual(verdicts[("road", "pipeline_ms")], "not gated (base lacks it)")

    def test_a_metric_the_change_drops_fails(self):
        parent = {"skewed": [same_as_base()], "road": [same_as_base()]}
        change = {"skewed": [record(pipeline_ms=100.0, peak_rss_mb=200.0)],
                  "road": [same_as_base()]}
        verdicts, failures = self.compare(parent, change)
        self.assertEqual(verdicts[("skewed", "edges_per_s")], "MISSING")
        self.assertEqual(len(failures), 1)


class RelativeWorsening(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(perf_gate.relative_worsening(100, 125, "lower"), 0.25)
        self.assertAlmostEqual(perf_gate.relative_worsening(100, 75, "higher"), 0.25)
        self.assertAlmostEqual(perf_gate.relative_worsening(100, 80, "lower"), -0.2)


if __name__ == "__main__":
    unittest.main()
