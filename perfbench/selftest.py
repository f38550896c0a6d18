"""The benchmark's own tests; run from the root of a checkout with

    python3 perfbench/selftest.py

They check the known-answer gate (a wrong expected answer makes the command
exit nonzero), the independent group-order oracle, the span wrapping (every
binding site patched, exercised layers nonzero, predicted bypasses zero),
that count metrics repeat for a seed and move with it, and that the command
fails without a program to measure.  The file name keeps pytest from
collecting it with the program's tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tpe.algebra import Poly  # noqa: E402
from tpe.curve import AFFINE, ReducedPoint, count_points_mod_p, make_curve  # noqa: E402
from tpe.jacobian import Jacobian, divisor_order  # noqa: E402

WORKLOADS = ("cert-docs", "order-scan", "torsion-exact")
SCRATCH = os.path.join(run.OUT, "selftest")
with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
    PREDICTIONS = json.load(fh)


def bench(*args, cwd=ROOT):
    """Run the command in a subprocess; (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


class OracleTest(unittest.TestCase):
    def test_point_counts_match_the_program(self):
        for f, p in (([3, 1, 0, 0, 0, 1], 101), ([5, 0, 1, 0, 2, 0, 0, 1], 19)):
            curve = make_curve(Poly.over_q(f))
            self.assertEqual(oracle.count_points(f, p, 1), count_points_mod_p(curve, p))

    def test_class_orders_match_the_scan(self):
        # (-1, 1) on y^2 = x^5 + x + 3: reduced orders 81, 144, 42, 205
        f = [3, 1, 0, 0, 0, 1]
        curve = make_curve(Poly.over_q(f))
        for p, order in ((7, 81), (11, 144), (13, 42), (17, 205)):
            jac = Jacobian.over_prime_field(curve, p)
            D = jac.embed(ReducedPoint(AFFINE, x=p - 1, y=1))
            group = oracle.jacobian_order(f, p)
            self.assertEqual(group % order, 0)
            self.assertEqual(oracle.class_order(jac, D, group), order)
            self.assertEqual(divisor_order(jac, D), order)

    def test_genus_3_group_order_is_a_multiple_of_the_scan(self):
        f = [5, 0, 1, 0, 2, 0, 0, 1]
        jac = Jacobian.over_prime_field(make_curve(Poly.over_q(f)), 19)
        D = jac.embed(ReducedPoint(AFFINE, x=1, y=3))
        self.assertEqual(oracle.jacobian_order(f, 19) % divisor_order(jac, D), 0)


class KnownAnswerGateTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(SCRATCH, exist_ok=True)

    def test_every_verdict_matches_on_one_round(self):
        for name in WORKLOADS:
            work = workloads.WORKLOADS[name](7, SCRATCH)
            _, failed, wrong = run.summarize(run.run_round(work.rounds[0], work.limit_s))
            self.assertEqual((failed, wrong), (0, []), name)

    def _exits_nonzero(self, name, attr, corrupt):
        original = getattr(workloads, attr)
        setattr(workloads, attr, corrupt(original))
        quiet = io.StringIO()
        try:
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01"])
        finally:
            setattr(workloads, attr, original)
        self.assertEqual(code, 1, f"{name} accepted a wrong expected answer")

    def test_wrong_expected_answer_fails_the_run(self):
        self._exits_nonzero("cert-docs", "_display", lambda f: lambda point: "(9, 9)")
        self._exits_nonzero(
            "order-scan", "_order_case",
            lambda f: lambda key, jac, D, n, group: f(key, jac, D, n + 1, group),
        )
        self._exits_nonzero(
            "torsion-exact", "_torsion_case",
            lambda f: lambda *a, **k: f(*a[:6], {"verdict": "torsion"}, *a[7:], **k),
        )


class TraceTest(unittest.TestCase):
    def test_binding_sites_patched_and_restored(self):
        before = _bindings()
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.unpatched_sites(), [])
            self.assertNotEqual(_bindings(), before)
        finally:
            tracer.uninstall()
        self.assertEqual(_bindings(), before)

    def test_counts_repeat_per_seed_and_move_with_it(self):
        for name in WORKLOADS:
            runs = [self._counts(name, seed) for seed in (5, 5, 6)]
            self.assertEqual(runs[0], runs[1], f"{name}: counts differ for one seed")
            self.assertNotEqual(runs[0], runs[2], f"{name}: the seed does not reach the inputs")
            layers = PREDICTIONS["workloads"][name]
            for metric in layers["exercises"]:
                self.assertGreater(runs[0][metric], 0, f"{name}: {metric} not exercised")
            for metric in layers["bypasses"]:
                self.assertEqual(runs[0][metric], 0, f"{name}: {metric} not bypassed")

    def _counts(self, name, seed):
        code, lines = bench("--workload", name, "--seed", str(seed), "--seconds", "1",
                            "--trace", "1")
        self.assertEqual(code, 0, name)
        metrics = json.loads(lines[-1])["metrics"]
        self.assertEqual({m["name"] for m in _per_layer()}, set(metrics))
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] in ("count", "bits", "B")}


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "cert-docs", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


def _bindings():
    """Identity of every tpe module global and class member, by name."""
    out = {}
    for module in spans._tpe_modules():
        for key, value in vars(module).items():
            out[f"{module.__name__}.{key}"] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[f"{module.__name__}.{key}.{attr}"] = id(member)
    return out


def _per_layer():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
