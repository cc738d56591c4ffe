#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery.

Run from the repository root:

    python3 perfbench/selftest.py

They show that the correctness gate can fail (a tampered certificate or
a flipped verdict is rejected), that the tracer leaves no wrapper behind
and records consistent spans and repeatable counts, that the host probe
takes its samples when they are due, and that the metric names agree
with BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from types import SimpleNamespace

import run

run.import_program()

from checks import WrongAnswer, certificate_holds, check_decision  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import Battery  # noqa: E402

from orbitcal import decider, exactmath, repmodel  # noqa: E402

WORKDIR = run.OUT / "selftest"


def _decide(a):
    rep = repmodel.sl2_binary_forms(2)
    problem = decider.conic_problem(rep, a, (1, 2, 1), degree_bound_override=2)
    return decider.decide(problem, keep_system=True)


def _tampered(result, index):
    """The decision of result with one certificate entry changed."""
    decision, system = result
    vector = list(decision.certificate.vector)
    vector[index] += 1
    certificate = SimpleNamespace(kind=decision.certificate.kind, vector=vector)
    return SimpleNamespace(verdict=decision.verdict, certificate=certificate), system


class CertificateCheckTest(unittest.TestCase):
    def test_plug_back_on_a_small_system(self):
        entries = {(0, 0): Fraction(1), (1, 0): Fraction(2)}  # A = [[1], [2]]
        self.assertTrue(certificate_holds(entries, 2, 1, [1, 2], "SOLUTION", [1]))
        self.assertFalse(certificate_holds(entries, 2, 1, [1, 2], "SOLUTION", [2]))
        self.assertTrue(certificate_holds(entries, 2, 1, [1, 3], "REFUTATION", [2, -1]))
        # u A = 0 but u . v = 0: no refutation
        self.assertFalse(certificate_holds(entries, 2, 1, [1, 2], "REFUTATION", [2, -1]))
        self.assertFalse(certificate_holds(entries, 2, 1, [1, 3], "REFUTATION", [1, -1]))

    def test_rejects_tampered_witness_and_flipped_verdict(self):
        for a, expected_in in (((0, 1, 0), False), ((1, 0, 0), True)):
            result = _decide(a)
            check_decision(result, expected_in)
            with self.assertRaises(WrongAnswer):
                check_decision(result, not expected_in)
            decision, system = result
            flipped = "NOT_IN_CLOSURE" if expected_in else "IN_CLOSURE"
            with self.assertRaises(WrongAnswer):
                check_decision((SimpleNamespace(verdict=flipped, certificate=decision.certificate), system), expected_in)
            # change one entry that the plug-back reads: a column (solution)
            # or a row (refutation) of A with a nonzero entry
            axis = 1 if decision.certificate.kind == "SOLUTION" else 0
            touched = sorted({key[axis] for key in system.matrix.entries})
            for index in touched[:3] + touched[-3:]:
                with self.assertRaises(WrongAnswer, msg=(a, index)):
                    check_decision(_tampered(result, index), expected_in)


def _orbitcal_callables():
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "orbitcal" or name.startswith("orbitcal.")):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(name, attr)] = value
    found[("ConsistencyWitness", "verify")] = vars(exactmath.ConsistencyWitness)["verify"]
    return found


def _traced_battery_pass(seed):
    workload = Battery(seed, WORKDIR)
    ops = workload.make_pass(0)
    tracer = Tracer()
    tracer.install()
    try:
        latencies, failures = run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    return tracer, sum(latencies), failures


class CrosscheckReportTest(unittest.TestCase):
    def test_missing_report_fails_the_op(self):
        ops = Battery(0, WORKDIR).make_pass(0)
        crosscheck = next(op for op in ops if op.name.startswith("crosscheck-"))
        with self.assertRaises(WrongAnswer):
            crosscheck.check((0, ""))  # exit code 0 but no report written
        crosscheck.check(crosscheck.run())


class TracerTest(unittest.TestCase):
    def test_wraps_and_restores_every_attribute(self):
        before = _orbitcal_callables()
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(decider.solve_or_refute, before[("orbitcal.decider", "solve_or_refute")])
            self.assertIsNot(repmodel.orbit_dimension, before[("orbitcal.repmodel", "orbit_dimension")])
        finally:
            tracer.uninstall()
        after = _orbitcal_callables()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_spans_and_counts(self):
        first, wall, failures = _traced_battery_pass(seed=5)
        self.assertEqual(failures, [])
        self_times = first.self_times()
        self.assertTrue(all(t >= -1e-9 for t in self_times))
        self.assertLessEqual(sum(self_times), wall + 1e-9)
        second, _, failures = _traced_battery_pass(seed=5)
        self.assertEqual(failures, [])
        counts_1, counts_2 = layer_metrics(first), layer_metrics(second)
        for name in ("decider.system_nnz", "elim.s_polynomial.calls", "exactmath.witness_verify.calls"):
            self.assertGreater(counts_1[name][0], 0, name)
        for name, (value, unit) in counts_1.items():
            if unit != "s":
                self.assertEqual(value, counts_2[name][0], name)


class HostProbeTest(unittest.TestCase):
    def test_samples_when_due(self):
        probe = run.HostProbe("battery", 0)
        probe(force=True)
        self.assertEqual((len(probe.calib), len(probe.setup)), (1, 1))
        # 2.4 loop intervals since the last loop and none since the last
        # set-up sample: two loops are due and no set-up sample
        probe.last_calib = probe.last_setup = run.perf_counter()
        probe.last_calib -= 2.4 * run.CALIB_EVERY_S
        probe()
        self.assertEqual((len(probe.calib), len(probe.setup)), (3, 1))
        self.assertGreater(probe.factor(), 0)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        per_layer = {name: unit for name, (_, unit) in layer_metrics(Tracer()).items()}
        per_layer.update(run.TRACE_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, per_layer)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))

    def test_refuses_to_run_without_the_program(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "battery", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
