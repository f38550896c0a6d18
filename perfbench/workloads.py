"""The gated workloads: seeded inputs, the timed verdict, and the known answer.

Each workload builds a list of rounds; a round is a list of cases.  A case's
`run` is the only thing timed.  Its `check` compares the verdict with an
answer that does not come from the timed code path and returns a mismatch
message, or None when the verdict is right.

A round has a fixed make-up (so many inputs of each kind), so the verdict-time
distribution is the same from seed to seed; the seed picks the inputs of each
kind.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Callable

from tpe import cli, jacobian
from tpe.algebra import Poly, is_squarefree
from tpe.curve import AFFINE, ReducedPoint, has_good_reduction, make_curve
from tpe.families import corollary_case_analysis
from tpe.jacobian import Jacobian, class_group_bound

from oracle import class_order, jacobian_order, prime_factors


@dataclass
class Case:
    key: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    rounds: list[list[Case]]
    limit_s: float  # a verdict slower than this counts as failed
    warmup: Callable[[], None]


def tpe_main(argv: list[str]) -> tuple[int, str]:
    """One `tpe` invocation in-process, with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------------------
# cert-docs: `tpe family ... --out FILE --json`, then `tpe verify FILE --json`

CD_LIMIT = 3000  # |d| bound for the random cd values
CD_MIX = {"inapplicable": 8, 7: 8, 9: 16, 1: 10}
DD_PRIMES = [p for p in range(7, 200) if p % 4 == 3 and all(p % q for q in range(2, p))]
XPX_PRIMES = [p for p in range(5, 68) if all(p % q for q in range(2, p))]
CERT_ROUNDS = 24


def _display(point: tuple) -> str:
    """The CLI's rendering of a rational point: `infinity` or `(x, y)`."""
    if len(point) == 1:
        return point[0]
    return f"({point[1]}, {point[2]})"


def _family_case(key: str, family_argv: list[str], path: str, check) -> Case:
    def run():
        code, out = tpe_main(["family", *family_argv, "--out", path, "--json"])
        if code != 0:
            return code, out, None, None
        vcode, vout = tpe_main(["verify", path, "--json"])
        return code, out, vcode, vout

    return Case(key, run, check)


def _expect_cd(d: int):
    if d % 11 not in (1, 7, 9):
        def check(result):
            code, out, _, _ = result
            if code != 2 or not json.loads(out).get("inapplicable"):
                return f"d = {d}: expected inapplicable (exit 2), got exit {code}"
            return None
        return check
    expected = {_display(t) for t in corollary_case_analysis(d).points}

    def check(result):
        code, out, vcode, vout = result
        if (code, vcode) != (0, 0):
            return f"d = {d}: exit codes {code}/{vcode}, expected 0/0"
        for text in (out, vout):
            got = set(json.loads(text)["conclusion"]["rational_points"])
            if got != expected:
                return f"d = {d}: points {sorted(got)} != {sorted(expected)}"
        return None
    return check


def _expect_closed_form(p: int):
    """dd and xpx: f = x^(p-1) - 1 or f = 0 mod p, so #T = #C(F_p) = p + 1."""
    def check(result):
        code, _, vcode, vout = result
        if (code, vcode) != (0, 0):
            return f"p = {p}: exit codes {code}/{vcode}, expected 0/0"
        report = json.loads(vout)["report"]
        counts = (report["all_passed"], report["t_count"], report["curve_count"])
        if counts != (True, p + 1, p + 1):
            return f"p = {p}: (verified, #T, #C) = {counts}, expected (True, {p + 1}, {p + 1})"
        return None
    return check


def _cd_values(rng: random.Random) -> list[int]:
    def draw(ok) -> int:
        while True:
            d = rng.randint(-CD_LIMIT, CD_LIMIT)
            if d and ok(d % 11):
                return d

    values = [draw(lambda r: r not in (1, 7, 9)) for _ in range(CD_MIX["inapplicable"] - 1)]
    values.append(11 * rng.randint(1, CD_LIMIT // 11) * rng.choice((1, -1)))  # bad at 11
    values += [draw(lambda r: r == 7) for _ in range(CD_MIX[7])]
    # squares k^2 = 9 mod 11 need k = +-3 mod 11; they carry (0, +-k)
    values += [(11 * rng.randint(0, 9) + rng.choice((3, 8))) ** 2 for _ in range(2)]
    values += [draw(lambda r: r == 9) for _ in range(CD_MIX[9] - 2)]
    # r = 1: a square, a signed fifth power and a tenth power (both at once)
    values.append((11 * rng.randint(0, 9) + rng.choice((1, 10))) ** 2)
    k = rng.choice((2, 3, 4, 5, 6, 7))
    values.append(k**5 if k**5 % 11 == 1 else -(k**5))
    values.append(rng.choice((1, 1024, 59049)))
    values += [draw(lambda r: r == 1) for _ in range(CD_MIX[1] - 3)]
    return values


def cert_docs(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"cert-docs/{seed}")
    path = os.path.join(workdir, "document.json")
    ladder = [
        _family_case(f"dd:p={p}", ["dd", "--p", str(p), "--d", str(p)], path,
                     _expect_closed_form(p))
        for p in DD_PRIMES
    ] + [
        _family_case(f"xpx:p={p}", ["xpx", "--p", str(p)], path, _expect_closed_form(p))
        for p in XPX_PRIMES
    ]
    rounds = []
    for _ in range(CERT_ROUNDS):
        cd = [
            _family_case(f"cd:d={d}", ["cd", "--d", str(d)], path, _expect_cd(d))
            for d in _cd_values(rng)
        ]
        rounds.append(cd + ladder)

    def warmup():
        for case in (rounds[0][0], rounds[0][-1], ladder[0]):
            case.run()

    return Workload(rounds, 3.0, warmup)


# ---------------------------------------------------------------------------
# order-scan: jacobian.divisor_order on seeded classes over F_p

# (genus, p, order band, classes per round, curve pool).  A genus-2 scan
# takes about 0.55 s and a genus-3 scan about 0.35 s, so the two kinds form
# separate clusters of verdict times: with four genus-2 classes to two
# genus-3 ones per round, the median and the tail both fall inside the
# genus-2 cluster instead of on the seam between two seeded mixes.  Each
# genus takes all its classes from one curve, so each cluster has one order;
# the pools are large enough that set-up rarely draws a second one.
ORDER_KINDS = ((2, 101, (1200, 1300), 4, 64), (3, 19, (360, 440), 2, 16))
ORDER_ROUNDS = 2
CLASSES_PER_CURVE = 8


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _random_class(rng: random.Random, jac: Jacobian, f: list[int], p: int):
    """Sum of genus-many random affine points of y^2 = f(x) over F_p."""
    roots = {y * y % p: y for y in range(p)}
    D = jac.identity
    while D == jac.identity:
        for _ in range(jac.genus):
            while True:
                x = rng.randrange(p)
                fx = sum(c * pow(x, i, p) for i, c in enumerate(f)) % p
                if fx in roots:
                    break
            y = roots[fx] if rng.random() < 0.5 else -roots[fx] % p
            D = jac.add(D, jac.embed(ReducedPoint(AFFINE, x=x, y=y)))
    return D


def _seeded_classes(rng: random.Random, genus: int, p: int, band, count: int, pool: int):
    """Classes whose order m lies in `band`.

    Set-up draws a fixed pool of random curves and keeps those whose #J(F_p),
    from point counts (oracle.py), has a divisor in the band; a fixed pool
    keeps set-up time alike across seeds.  On a kept curve one random class R
    gets its exact order n from #J (class_order); when n has a divisor m in
    the band, E = (n/m)*R has order exactly m, and the curve gives
    CLASSES_PER_CURVE classes k*E for units k mod m."""
    out: list[tuple] = []
    while len(out) < count:
        candidates = []
        for _ in range(pool):
            f = [rng.randrange(p) for _ in range(2 * genus + 1)] + [1]
            poly = Poly.over_q(f)
            if not is_squarefree(poly) or not has_good_reduction(make_curve(poly), p):
                continue
            group = jacobian_order(f, p)
            if any(band[0] <= m <= band[1] for m in _divisors(group)):
                candidates.append((f, poly, group))
        rng.shuffle(candidates)
        for f, poly, group in candidates:
            if len(out) >= count:
                break
            jac = Jacobian.over_prime_field(make_curve(poly), p)
            R = _random_class(rng, jac, f, p)
            n = class_order(jac, R, group)
            orders = [m for m in _divisors(n) if band[0] <= m <= band[1]]
            if not orders:
                continue
            m = rng.choice(orders)
            E = jac.mul(n // m, R)
            units = rng.sample([k for k in range(2, m) if gcd(k, m) == 1], CLASSES_PER_CURVE - 1)
            out += [(f, jac, jac.mul(k, E), m, group) for k in [1, *units]]
    return out[:count]


def _order_case(key: str, jac: Jacobian, D, expected: int, group: int) -> Case:
    verified: dict[int, str | None] = {}

    def check(n):
        if n != expected:
            return f"{key}: order {n}, expected {expected}"
        if n not in verified:
            verified[n] = _order_evidence(jac, D, n, group)
        return verified[n] and f"{key}: {verified[n]}"

    return Case(key, lambda: jacobian.divisor_order(jac, D), check)


def _order_evidence(jac: Jacobian, D, n: int, group: int) -> str | None:
    """n*D = 0, (n/q)*D != 0 for each prime q | n, n | #J <= the Weil bound."""
    if jac.mul(n, D) != jac.identity:
        return "n*D != 0"
    for q in prime_factors(n):
        if jac.mul(n // q, D) == jac.identity:
            return f"(n/{q})*D = 0"
    if group % n or group > class_group_bound(jac.field.p, jac.genus):
        return f"#J = {group} is not a multiple of n within the Weil bound"
    return None


def order_scan(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"order-scan/{seed}")
    pools = [
        _seeded_classes(rng, genus, p, band, per_round * ORDER_ROUNDS, pool)
        for genus, p, band, per_round, pool in ORDER_KINDS
    ]
    rounds = []
    for r in range(ORDER_ROUNDS):
        cases = []
        for (genus, p, _, per_round, _), classes in zip(ORDER_KINDS, pools):
            for f, jac, D, m, group in classes[r * per_round:(r + 1) * per_round]:
                key = f"g{genus}:p={p}:f={f}:n={m}"
                cases.append(_order_case(key, jac, D, m, group))
        rounds.append(cases)

    def warmup():
        _, jac, D, _, _ = pools[0][0]
        jac.mul(1000, D)

    return Workload(rounds, 30.0, warmup)


# ---------------------------------------------------------------------------
# torsion-exact: `tpe torsion ... --json` and `tpe verify` on the bundled
# quadratic document; the cost is the exact multiple n*D over Q or Q(sqrt c)

EXTRA_PRIMES = (5, 7, 11, 13, 17, 19, 23)
EXTRA_BAND = (48, 72)  # reduced order at the decision prime
EXTRA_POOL = 48
TORSION_EXTRAS = 4


def _torsion_case(key, workdir, f, tower_gens, point, p, expected, extra=()):
    curve = _write_json(os.path.join(workdir, f"{key}.curve.json"), {"f": f})
    tower = _write_json(os.path.join(workdir, f"{key}.tower.json"), {"generators": tower_gens})
    argv = ["torsion", "--curve", curve, "--point", json.dumps(point),
            "--tower", tower, "--p", str(p), *extra, "--json"]
    want_code = 2 if expected["verdict"] == "undecidable" else 0

    def check(result):
        code, out = result
        got = json.loads(out) if out else None
        if code != want_code or got is None or any(got.get(k) != v for k, v in expected.items()):
            return f"{key}: exit {code} {out.strip()!r}, expected exit {want_code} {expected}"
        return None

    return Case(key, lambda: tpe_main(argv), check)


def _quadratic_case(path: str) -> Case:
    """The bundled document's torsion claim is false: condition (4) fails and
    both Cantor-checked entries are refuted; every other condition passes."""
    def check(result):
        code, out = result
        report = json.loads(out)["report"]
        failed = [c["key"] for c in report["conditions"] if not c["passed"]]
        cantor = [e for e in report["entries"] if e["kind"] == "CantorCheckedCert"]
        refuted = [e["detail"].startswith("refuted") and not e["ok"] for e in cantor]
        if code != 1 or failed != ["torsion-certificates"] or refuted != [True, True]:
            return f"quadratic document: exit {code}, failed {failed}, refuted {refuted}"
        return None

    return Case("verify:quadratic_sqrt15", lambda: tpe_main(["verify", path, "--json"]), check)


def _reduced_order(f, x0, c, p) -> int | None:
    """Order of (x0, sqrt c) - infinity at a good, split, unramified prime p,
    or None when p is not such a prime."""
    curve = make_curve(Poly.over_q(f))
    if c % p == 0 or not has_good_reduction(curve, p):
        return None
    roots = [y for y in range(1, p) if (y * y - c) % p == 0]
    if not roots:
        return None
    jac = Jacobian.over_prime_field(curve, p)
    D = jac.embed(ReducedPoint(AFFINE, x=x0 % p, y=roots[0]))
    return class_order(jac, D, jacobian_order(f, p))


def _extra_candidate(rng: random.Random):
    """A quadratic point (x0, sqrt f(x0)) on a seeded genus-2 curve, or None.

    It is not torsion when two good split primes give different reduced
    orders; the decision prime is the first whose reduced order lies in
    EXTRA_BAND.  Returns (f, x0, c, decision prime)."""
    f = [rng.randint(-3, 3) for _ in range(5)] + [1]
    x0 = rng.randint(-3, 3)
    c = sum(a * x0**i for i, a in enumerate(f))
    if c == 0 or (c > 0 and isqrt(c) ** 2 == c) or not is_squarefree(Poly.over_q(f)):
        return None
    orders, decision = set(), None
    for p in EXTRA_PRIMES:
        n = _reduced_order(f, x0, c, p)
        if n is None:
            continue
        orders.add(n)
        if decision is None and EXTRA_BAND[0] <= n <= EXTRA_BAND[1]:
            decision = p
        if decision and len(orders) > 1:
            return f, x0, c, decision
    return None


def _seeded_extras(rng: random.Random, workdir: str, count: int) -> list[Case]:
    """`count` extras drawn from a fixed pool of candidates, so set-up time
    is alike across seeds."""
    accepted = []
    while len(accepted) < count:
        accepted += [e for e in (_extra_candidate(rng) for _ in range(EXTRA_POOL)) if e]
    cases = []
    for i, (f, x0, c, p) in enumerate(rng.sample(accepted, count)):
        point = {"type": "affine", "x": x0, "y": [[[1], 1]]}
        gens = [{"name": "r", "relation": [-c, 0, 1]}]
        cases.append(_torsion_case(f"extra{i}", workdir, f, gens, point, p,
                                   {"verdict": "not_torsion"}))
    return cases


def torsion_exact(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"torsion-exact/{seed}")
    not_torsion = {"verdict": "not_torsion"}
    quintic = [3, 1, 0, 0, 0, 1]  # y^2 = x^5 + x + 3
    fixed = [
        _torsion_case(f"quintic-p{p}", workdir, quintic, [],
                      {"type": "affine", "x": -1, "y": 1}, p, not_torsion)
        for p in (7, 11, 13, 17)
    ]
    fixed += [
        _torsion_case("sqrt239", workdir, [-4, 0, 0, 0, 0, 1],
                      [{"name": "r", "relation": [-239, 0, 1]}],
                      {"type": "affine", "x": 3, "y": [[[1], 1]]}, 7, not_torsion),
        _torsion_case("order5", workdir, [9, 0, 0, 0, 0, 1], [],
                      {"type": "affine", "x": 0, "y": 3}, 11,
                      {"verdict": "torsion", "order": 5}),
        _torsion_case("sqrt3121-ceiling1", workdir, [-4, 0, 0, 0, 0, 1],
                      [{"name": "r", "relation": [-3121, 0, 1]}],
                      {"type": "affine", "x": 5, "y": [[[1], 1]]}, 19,
                      {"verdict": "undecidable"}, ("--height-ceiling", "1")),
        _quadratic_case(os.path.join(os.path.dirname(cli.__file__), "data",
                                     "quadratic_sqrt15.json")),
    ]
    extras = _seeded_extras(rng, workdir, TORSION_EXTRAS)
    # one seeded extra per round, so the fixed inputs keep the percentiles in place
    rounds = [fixed + [extra] for extra in extras]

    def warmup():
        fixed[5].run()

    return Workload(rounds, 60.0, warmup)


WORKLOADS = {
    "cert-docs": cert_docs,
    "order-scan": order_scan,
    "torsion-exact": torsion_exact,
}
