"""Self-tests of the benchmark harness (not part of the liereduce suite).

    python3 bench/selftest.py

Checks that generated inputs depend only on the seed, that a planted wrong
reference (a zero-test truth label or a corpus verdict) is counted as a
failed item, that an exception fails only its own item, that tracing
rebinds and restores every copied name, and that the speed probe's scaling
leaves probes out of the work it scales.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import liereduce  # noqa: E402,F401 - registers the liereduce.* modules
import tracing  # noqa: E402
import workloads  # noqa: E402


def failed(results) -> int:
    return sum(1 for r in results if not r["ok"])


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in workloads.GENERATED.values():
            a = [(it.id, it.input, it.known_hard) for it in make(7)]
            b = [(it.id, it.input, it.known_hard) for it in make(7)]
            self.assertEqual(a, b)

    def test_other_seed_other_inputs(self):
        for make in workloads.GENERATED.values():
            self.assertNotEqual([it.input for it in make(7)],
                                [it.input for it in make(8)])

    def test_pairs_unique_with_fixed_shares(self):
        for seed in (1, 2):
            pairs = workloads.zero_test_pairs(seed)
            self.assertEqual(len(pairs), workloads.ZERO_TEST_PAIRS)
            self.assertEqual(len({(p["a"], p["b"]) for p in pairs}), len(pairs))
        shares = [sorted((p["family"], p["truth"], p["scale"], p["perturbation"])
                         for p in workloads.zero_test_pairs(s)) for s in (1, 2)]
        self.assertEqual(shares[0], shares[1])


class PlantedErrors(unittest.TestCase):
    def test_wrong_truth_label_fails(self):
        pairs = workloads.zero_test_pairs(3)[:40]
        ordinary = [p for p in pairs if p["scale"] == 0 and p["perturbation"] == 0]
        items = [workloads.pair_item(i, p) for i, p in enumerate(ordinary)]
        base = failed(workloads.run_items(items))
        self.assertEqual(base, 0)
        planted = dict(ordinary[0], truth=not ordinary[0]["truth"])
        items[0] = workloads.pair_item(0, planted)
        self.assertEqual(failed(workloads.run_items(items)), base + 1)

    def test_wrong_corpus_verdict_fails(self):
        reference = workloads.corpus_reference()
        self.assertEqual(failed(workloads.run_corpus_pass(reference)), 0)
        rec = json.loads(reference[5])
        rec["verdict"] = "fail"
        planted = list(reference)
        planted[5] = json.dumps(rec, sort_keys=True)
        results = workloads.run_corpus_pass(planted)
        self.assertEqual(failed(results), 1)
        self.assertEqual(results[5]["error"], "record-differs")

    def test_exception_fails_only_its_item(self):
        def boom():
            raise ZeroDivisionError("planted")

        items = [workloads.Item("boom", boom, ""),
                 workloads.Item("fine", lambda: (True, ""), "")]
        results = workloads.run_items(items)
        self.assertEqual([r["ok"] for r in results], [False, True])
        self.assertEqual(results[0]["error"], "ZeroDivisionError")


class Calibration(unittest.TestCase):
    def test_work_leaves_probes_out_and_scales_each_stretch(self):
        probes = calibrate.Probes()
        ref = calibrate.REFERENCE_S
        # Probes at [0, 1], [3, 4] and [6, 7]; the second one is twice as slow.
        probes.spans = [(0.0, 1.0, ref), (3.0, 4.0, 3 * ref), (6.0, 7.0, ref)]
        raw, scaled = probes.work(0.5, 6.5)
        self.assertAlmostEqual(raw, 4.0)
        self.assertAlmostEqual(scaled, 2.0 / 2 + 2.0 / 2)
        raw, scaled = probes.work(1.5, 2.5)
        self.assertAlmostEqual(raw, 1.0)
        self.assertAlmostEqual(scaled, 0.5)

    def test_probe_does_not_use_liereduce(self):
        with open(calibrate.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        modules = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names]
        modules += [node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)]
        self.assertTrue(modules)
        self.assertEqual([m for m in modules
                          if m.split(".")[0] not in sys.stdlib_module_names], [])


class Tracing(unittest.TestCase):
    def test_rebinds_copies_and_restores(self):
        charts = sys.modules["liereduce.charts"]
        expr = sys.modules["liereduce.expr"]
        orig = expr.mul
        self.assertIs(charts.mul, orig)
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIsNot(charts.mul, orig)
            self.assertIs(charts.mul, expr.mul)
            results = workloads.run_items(workloads.zero_test(4)[:30])
        finally:
            tr.uninstall()
        self.assertIs(charts.mul, orig)
        self.assertIs(sys.modules["liereduce.equiv"].equiv, liereduce.equiv)
        m = tr.layer_metrics()
        reported_by_run = {f"corpus.op.{op}.s" for op in tracing.CORPUS_OPS}
        reported_by_run |= {"trace.pass_s", "trace.overhead", "trace.self_share"}
        self.assertEqual(set(m) | reported_by_run, set(tracing.metric_units()))
        self.assertEqual(m["equiv.equiv.calls"], len(results))
        self.assertEqual(sum(m[f"equiv.path.{p}"] for p in tracing.EQUIV_PATHS),
                         len(results))
        total_self = sum(m[f"{n}.self_s"] for n in tracing.NAMES)
        self.assertAlmostEqual(total_self, tr.root_time(), places=9)


if __name__ == "__main__":
    unittest.main()
