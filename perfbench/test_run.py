"""Smoke test of the benchmark itself (stdlib only).

    python3 -m unittest perfbench/test_run.py

Runs every workload at a tiny size in both modes and checks that each metric
BENCHMARK.json names is emitted with its unit, then shows that the
correctness checks catch a corrupted verdict, witness and term. Corruption
is applied to the benchmark's copy of the outputs, never to the package.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


class MetricsEmitted(unittest.TestCase):
    def check_mode(self, trace: bool, declared: list):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                res = run.benchmark(workload, seed=1, seconds=0, trace=trace, tiny=True)
                emitted = {k: unit for k, (_, unit) in res["metrics"].items()}
                self.assertEqual(emitted, {m["name"]: m["unit"] for m in declared})
                self.assertEqual(res["tally"].failed, 0)
                self.assertGreater(res["tally"].attempted, 0)

    def test_end_to_end(self):
        self.check_mode(False, SPEC["end_to_end"])

    def test_per_layer(self):
        self.check_mode(True, SPEC["per_layer"])

    def test_workloads_match_spec(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), run.WORKLOADS)


class ChecksCatchCorruption(unittest.TestCase):
    def test_corrupted_verdict(self):
        jobs = next(run.classic_inputs(1, True))
        rec = run.verify_pass(jobs, run.Calibrator(ticking=False))
        self.assertEqual(rec.problems, [])
        json_text, csv_text = rec.outputs
        expected = {e.id: (run.grid_points(g), e.flagged) for e, g in jobs}
        bad = json_text.replace('"verified": true', '"verified": false', 1)
        self.assertTrue(checks.check_verify(bad, csv_text, expected))
        doc = json.loads(json_text)
        flagged = next(r for r in doc["reports"] if r["identity"] == "I10")
        flagged["variant_pass"]["as-printed"] = flagged["pass"]
        self.assertTrue(checks.check_verify(json.dumps(doc), csv_text, expected))

    def test_corrupted_witness(self):
        jobs, terms = next(run.big_index_inputs(1, True))
        rec = run.big_index_pass((jobs, terms), run.Calibrator(ticking=False))
        self.assertEqual(rec.problems, [])
        json_text, csv_text = rec.outputs[:2]           # D01 as JSON, then CSV
        eid, ranges = jobs[0]
        params = run.get_entry(eid).params
        points = run.range_points(ranges)
        self.assertEqual(checks.check_div(eid, json_text, csv_text, params, points), [])

        doc = json.loads(json_text)
        w = doc["reports"][0]["rows"][0]["witnesses"][0]
        w["quotient"] = str(int(w["quotient"]) + 1)
        found = checks.check_div(eid, json.dumps(doc), csv_text, params, points)
        self.assertTrue(any("json witness" in msg for _, msg in found))

        head, first, *rest = csv_text.splitlines()
        cells = first.split(",")
        cells[-1] = "1"                                  # a residue: no longer divisible
        bad_csv = "\n".join([head, ",".join(cells), *rest]) + "\n"
        found = checks.check_div(eid, json_text, bad_csv, params, points)
        self.assertTrue(any("csv witness" in msg for _, msg in found))

    def test_corrupted_term(self):
        terms = [("fib", (0, 1, 1, -1), -1001), ("horadam", (2, 3, 3, 1), -1000)]
        values = [run.fib(-1001), run.horadam_w(run.HoradamParams(2, 3, 3, 1), -1000)]
        self.assertEqual(checks.check_terms(terms, values), [])
        self.assertTrue(checks.check_terms(terms, [values[0] + 1, values[1]]))


if __name__ == "__main__":
    unittest.main()
