#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/test_bench.py

The process tests build qcarch (as run.py does) and run it.
"""

import json
import re
import shutil
import time
import unittest

import run
from workloads import ROOT

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def good_and_bad_specs(work):
    """An 8-bit QRCA spec and the same spec with bits: 0, which makes
    the whole sweep exit 1."""
    spec = {"name": "selftest", "runner": "experiment",
            "base": {"workload": "qrca", "schedule": "arch"},
            "axes": [{"field": "arch", "values": ["qla", "fma"]}]}
    paths = []
    for label, bits in (("good", 8), ("bad", 0)):
        spec["base"]["bits"] = bits
        path = work / f"{label}.json"
        path.write_text(json.dumps(spec))
        paths.append(path)
    return paths


class TailRule(unittest.TestCase):
    def test_reports_nothing_without_ten_beyond(self):
        self.assertIsNone(run.tail([]))
        self.assertIsNone(run.tail([1.0] * 10))
        self.assertIsNone(run.tail(list(range(30)), beyond=30))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail(list(range(11))), (0, 0.0, 11))
        value, percentile, n = run.tail(list(range(100))[::-1])
        self.assertEqual((value, percentile, n), (89, 89.0, 100))
        self.assertEqual(sum(1 for x in range(100) if x > value), 10)


class MetricNames(unittest.TestCase):
    def test_names_match_pattern_and_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for group, units in (("end_to_end", run.END_TO_END_UNITS),
                             ("per_layer", run.PER_LAYER_UNITS)):
            declared = {m["name"]: m["unit"] for m in spec[group]}
            self.assertEqual(declared, units)
            for name in declared:
                self.assertTrue(NAME.fullmatch(name), name)
        for w in spec["workloads"]:
            self.assertTrue(NAME.fullmatch(w["name"]), w["name"])
            self.assertIn(w["name"], run.WORKLOADS)


class References(unittest.TestCase):
    def setUp(self):
        self.doc = (ROOT / "BENCH_fig15_arch.json").read_bytes()
        self.ref = run.digest(self.doc)

    def test_identical_document_passes(self):
        checker = run.Checker()
        checker.check("fig15", self.doc, 0, [self.ref])
        self.assertEqual((checker.attempted, checker.failed), (60, 0))
        self.assertEqual(checker.mismatches, [])

    def test_tampered_reference_is_a_mismatch(self):
        tampered = dict(self.ref, sha256="0" * 64,
                        points=list(self.ref["points"]))
        tampered["points"][7] = "0" * 16
        checker = run.Checker()
        checker.check("fig15", self.doc, 0, [tampered])
        self.assertEqual((checker.attempted, checker.failed), (60, 1))
        self.assertEqual(len(checker.mismatches), 1)

    def test_changed_point_is_a_mismatch(self):
        doc = json.loads(self.doc)
        doc["points"][3]["makespan_ms"] += 1
        checker = run.Checker()
        checker.check("fig15", json.dumps(doc, indent=2).encode(), 0,
                      [self.ref])
        self.assertEqual(checker.failed, 1)

    def test_error_point_fails_even_when_it_matches(self):
        doc = json.loads(self.doc)
        doc["points"][0] = {"error": "boom"}
        data = json.dumps(doc).encode()
        checker = run.Checker()
        checker.check("fig15", data, 0, [run.digest(data)])
        self.assertEqual(checker.failed, 1)


class Processes(unittest.TestCase):
    def setUp(self):
        self.qcarch, _, qcspawn = run.build()
        self.runner = run.Runner(qcspawn)
        self.runner.limit_at = time.monotonic() + 60
        self.work = run.BUILD / "selftest"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def tearDown(self):
        self.runner.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def sweep(self, spec, out):
        return self.runner.run([self.qcarch, "sweep", spec, "--quiet",
                                "--out", out])

    def test_bits_zero_fails_every_point_of_its_sweep(self):
        good, bad = good_and_bad_specs(self.work)
        out = self.work / "good.out.json"
        self.assertEqual(self.sweep(good, out).status, 0)
        ref = run.digest(out.read_bytes())

        out = self.work / "bad.out.json"
        proc = self.sweep(bad, out)
        self.assertNotEqual(proc.status, 0)
        checker = run.Checker()
        doc = out.read_bytes() if out.exists() else None
        checker.check("bad", doc, proc.status, [ref])
        self.assertEqual((checker.attempted, checker.failed), (2, 2))

    def test_child_rss_excludes_the_harness_peak(self):
        spike = bytearray(160 << 20)
        spike[::4096] = b"\1" * len(spike[::4096])
        del spike
        good, _ = good_and_bad_specs(self.work)
        proc = self.sweep(good, self.work / "good.out.json")
        self.assertEqual(proc.status, 0)
        self.assertLess(proc.rss_mb, 96)


if __name__ == "__main__":
    unittest.main()
