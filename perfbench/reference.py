"""Reference rows outside the gated workloads; run from the root of a checkout:

    python3 perfbench/reference.py           # sweep, quadratic verify, p = 101 scan
    python3 perfbench/reference.py --long    # adds the p = 1009 scan and p = 19 torsion

Each row is one fixed input timed with time.perf_counter (the median of a few
runs for the short rows, a single run for the long ones) and checked against
its known answer.  Prints one JSON object.  The long rows take minutes at
this commit; they are the baseline for the order scan without a linear scan.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from oracle import class_order, jacobian_order  # noqa: E402
from tpe.algebra import Poly  # noqa: E402
from tpe.curve import AFFINE, CurvePoint, ReducedPoint, make_curve  # noqa: E402
from tpe.jacobian import Jacobian, NotTorsion, divisor_order, torsion_decide  # noqa: E402
from tpe.tower import TowerSpec, split_places  # noqa: E402
from workloads import tpe_main  # noqa: E402

QUINTIC = [3, 1, 0, 0, 0, 1]  # y^2 = x^5 + x + 3, through (-1, 1)


def timed(fn, repeats):
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def row(name, fn, check, repeats=1):
    result, seconds = timed(fn, repeats)
    return {"name": name, "seconds": round(seconds, 4), "runs": repeats,
            "result": result, "correct": check(result)}


def sweep():
    code, out = tpe_main(["sweep", "cd", "--range", "-200..200", "--json"])
    return {"exit": code, "counts": json.loads(out)["counts"]}


def sweep_answer():
    """cd applies exactly when d = 1, 7 or 9 mod 11; d = 0 is skipped."""
    verified = sum(1 for d in range(-200, 201) if d and d % 11 in (1, 7, 9))
    counts = {"verified": verified, "inapplicable": 400 - verified, "skipped": 1}
    return {"exit": 0, "counts": counts}


def quadratic_verify():
    path = os.path.join(ROOT, "src", "tpe", "data", "quadratic_sqrt15.json")
    code, out = tpe_main(["verify", path, "--json"])
    return {"exit": code, "all_passed": json.loads(out)["report"]["all_passed"]}


def scan(p, point):
    """divisor_order on (x, y) - infinity of the quintic over F_p, checked
    against the order found from #J(F_p) by the point-count oracle."""
    jac = Jacobian.over_prime_field(make_curve(Poly.over_q(QUINTIC)), p)
    D = jac.embed(ReducedPoint(AFFINE, x=point[0] % p, y=point[1] % p))
    expected = class_order(jac, D, jacobian_order(QUINTIC, p))
    return row(f"divisor_order genus 2 p={p} at {point}",
               lambda: divisor_order(jac, D), lambda n: n == expected)


def point_of_order(p, cofactor):
    """The first affine point of the quintic over F_p whose class has order
    #J(F_p) / cofactor, found with the point-count oracle."""
    jac = Jacobian.over_prime_field(make_curve(Poly.over_q(QUINTIC)), p)
    group = jacobian_order(QUINTIC, p)
    for x in range(p):
        fx = sum(c * x**i for i, c in enumerate(QUINTIC)) % p
        for y in range(1, p):
            if y * y % p == fx:
                D = jac.embed(ReducedPoint(AFFINE, x=x, y=y))
                if class_order(jac, D, group) * cofactor == group:
                    return x, y
                break
    raise ValueError(f"no affine point of order #J/{cofactor} at p = {p}")


def torsion_p19():
    curve = make_curve(Poly.over_q(QUINTIC))
    tower = TowerSpec()
    point = CurvePoint.affine(tower.rational(-1), tower.rational(1))
    return type(torsion_decide(point, curve, tower, 19, split_places(tower, 19)[0])).__name__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--long", action="store_true", help="add the minutes-long rows")
    args = parser.parse_args(argv)
    rows = [
        row("sweep cd -200..200", sweep, lambda r: r == sweep_answer(), 3),
        row("verify quadratic_sqrt15.json", quadratic_verify,
            lambda r: r == {"exit": 1, "all_passed": False}, 5),
        scan(101, point_of_order(101, 1)),  # order 11978, the ROADMAP baseline
    ]
    if args.long:
        rows += [
            scan(1009, point_of_order(1009, 3)),  # order 336238, the ROADMAP baseline
            row("torsion_decide (-1, 1) on x^5+x+3 at p=19", torsion_p19,
                lambda r: r == NotTorsion.__name__),
        ]
    print(json.dumps({"rows": rows}, indent=1))
    return 0 if all(r["correct"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
