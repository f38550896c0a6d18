"""Curve model, point counting against the brute-force oracle, Weierstrass
points, and reduction of points."""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import brute_force_count, brute_force_points, qp
from tpe.algebra import (
    NonIntegralError,
    Poly,
    PrimeField,
    cyclotomic,
    discriminant,
    is_prime,
    reduce_poly_mod_p,
    roots_mod_p,
    splits_completely_mod_p,
)
from tpe.curve import (
    CurvePoint,
    ReducedPoint,
    count_points_mod_p,
    has_good_reduction,
    is_weierstrass,
    make_curve,
    on_curve,
    reduce_curve,
    reduce_point,
)
from tpe.envelope import verify_tpe
from tpe.families import generate_cd, generate_dd, generate_xpx
from tpe.jacobian import NotTorsion, torsion_decide
from tpe.tower import TowerSpec, split_places


def test_make_curve_shapes():
    c = make_curve(qp(7, 0, 0, 0, 0, 1))
    assert (c.genus, c.odd_model) == (2, True)
    c = make_curve(qp(-1, 0, 0, 42, 0, 0, 1))
    assert (c.genus, c.odd_model) == (2, False)
    c = make_curve(qp(*([0, -1] + [0] * 11 + [1])))  # x^13 - x
    assert (c.genus, c.odd_model) == (6, True)


def test_make_curve_rejections():
    with pytest.raises(ValueError):
        make_curve(qp(1, -2, 1) * qp(1, 0, 0, 1))  # (x-1)^2 (x^3+1)
    with pytest.raises(ValueError):
        make_curve(qp(1, 0, 1))  # degree too small
    low = make_curve(qp(1, 0, 0, 1), allow_low_genus=True)
    assert low.genus == 1 and low.low_genus


def test_good_reduction_examples():
    assert has_good_reduction(make_curve(qp(-1, 0, 0, 42, 0, 0, 1)), 7)
    assert not has_good_reduction(make_curve(qp(7, 0, 0, 0, 0, 1)), 5)
    assert has_good_reduction(make_curve(qp(12, 4, -15, -5, 3, 1)), 7)
    assert not has_good_reduction(make_curve(qp(11, 0, 0, 0, 0, 1)), 11)
    with pytest.raises(ValueError):
        has_good_reduction(make_curve(qp(7, 0, 0, 0, 0, 1)), 2)


def exact_q_good_reduction(f, p: int) -> bool:
    """The criterion decided over Q: f p-integral, p does not divide lc(f),
    and p does not divide the numerator of disc(f)."""
    if any(c.denominator % p == 0 for c in f.coeffs):
        return False
    if f.leading.numerator % p == 0:
        return False
    return discriminant(f).numerator % p != 0


def random_rational_poly(rng, degree: int, p: int):
    """A random f over Q of the given degree that often sits on a boundary of
    the criterion at p: a denominator divisible by p, p | lc(f), or
    f = (x - a)^2 g mod p, so that p | disc(f) while f stays squarefree."""
    def coeff():
        den = rng.choice((1, 1, 1, 2, 3, p)) if rng.random() < 0.3 else 1
        return Fraction(rng.randrange(-9, 10), den)

    if rng.random() < 0.4:
        a = rng.randrange(p)
        g = [rng.randrange(-5, 6) for _ in range(degree - 2)] + [rng.randrange(1, 6)]
        f = qp(a * a, -2 * a, 1) * qp(*g) + qp(*[p * rng.randrange(-3, 4) for _ in range(degree)])
    else:
        f = qp(*[coeff() for _ in range(degree)], rng.randrange(1, 10))
    if rng.random() < 0.25:
        f = f + qp(*[0] * degree, p * rng.randrange(1, 4))  # p | lc(f)
    return f


def test_good_reduction_in_fp_matches_exact_q():
    """has_good_reduction decides the discriminant in F_p; it must agree with
    the same criterion over Q on every curve, including p | deg f."""
    rng = random.Random(83)
    seen = Counter()
    for _ in range(700):
        p = rng.choice((3, 5, 7, 11, 13))
        degree = rng.choice((5, 6, 7, 8, 9, 10, 15))
        f = random_rational_poly(rng, degree, p)
        if f.degree != degree:
            continue
        try:
            curve = make_curve(f)
        except ValueError:
            continue  # not squarefree over Q
        good = has_good_reduction(curve, p)
        assert good == exact_q_good_reduction(f, p), (f, p)
        integral = all(c.denominator % p for c in f.coeffs)
        if not integral:
            seen["denominator"] += 1
        elif f.leading.numerator % p == 0:
            seen["p | lc"] += 1
        else:
            # reduction keeps the degree, so the value itself agrees
            assert discriminant(reduce_poly_mod_p(f, p)) == PrimeField(p).coerce(
                discriminant(f)
            )
            seen[("good" if good else "p | disc", degree % p == 0)] += 1
    for key in ("denominator", "p | lc", ("good", False), ("p | disc", False),
                ("good", True), ("p | disc", True)):
        assert seen[key] >= 15, seen


def test_count_points_family_values():
    for d, expected in ((7, 1), (18, 1), (29, 1), (9, 3), (20, 3), (31, 3),
                        (1, 8), (12, 8), (23, 8)):
        assert count_points_mod_p(make_curve(qp(d, 0, 0, 0, 0, 1)), 11) == expected
    for d in (2, 3, 4, 5, 6, 8, 21):
        assert count_points_mod_p(make_curve(qp(d, 0, 0, 0, 0, 1)), 11) >= 11


def test_count_points_other_curves():
    assert count_points_mod_p(make_curve(qp(12, 4, -15, -5, 3, 1)), 7) == 8
    for p in (5, 7, 11, 13):
        coeffs = [0] * p + [1]
        coeffs[1] = -1
        assert count_points_mod_p(make_curve(qp(*coeffs)), p) == p + 1
    assert count_points_mod_p(make_curve(qp(-1, 0, 0, 42, 0, 0, 1)), 7) == 8


def test_count_points_even_model_nonsquare_leading():
    # leading coefficient 3 is a non-residue mod 7: no rational infinities
    f = qp(1, 0, 0, 0, 0, 0, 3)
    curve = make_curve(f)
    assert count_points_mod_p(curve, 7) == brute_force_count(f, 7) == 14


def test_count_points_against_brute_force_oracle():
    """C mod p (`reduce_curve`) against the plain-int brute force over F_p^2
    on seeded dense quintics and sextics.  On good reduction its count and
    root list are the brute force's, the count is count_points_mod_p's, and
    disc is disc(f mod p) = disc(f) mod p.  At p | lc(f), at p | disc(f)
    and for f not p-integral, on odd and even models, it holds the refusal
    "bad reduction at p", which its count and roots raise, with disc 0."""
    rng = random.Random(43)
    seen = Counter()
    for _ in range(400):
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
        deg = rng.choice([5, 6])
        cs = [rng.randrange(-15, 16) for _ in range(deg)] + [rng.randrange(1, 10)]
        f = qp(*cs)
        shape = rng.randrange(4)
        if shape == 1:  # f = (x - a)^2 g mod p
            a = rng.randrange(p)
            f = qp(a * a, -2 * a, 1) * qp(*cs[: deg - 1]) + qp(*[p * c for c in cs[:deg]])
        elif shape == 2:
            f = f + qp(*[0] * deg, p * rng.randrange(1, 4) - cs[-1])  # p | lc(f)
        elif shape == 3:
            f = f + qp(*[0] * rng.randrange(deg), Fraction(1, p))  # not p-integral
        if f.degree != deg:
            continue
        try:
            curve = make_curve(f)
        except ValueError:
            continue
        red = reduce_curve(curve, p)
        assert red.curve == curve and red.field == PrimeField(p)
        if any(c.denominator % p == 0 for c in f.coeffs):
            kind = "denominator"
            assert red.fp is None
            with pytest.raises(NonIntegralError):
                red.f
        else:
            assert red.f == red.fp == reduce_poly_mod_p(f, p)
            kind = ("p | lc" if f.leading.numerator % p == 0
                    else "p | disc" if discriminant(f).numerator % p == 0
                    else "good")
        seen[kind, deg % 2] += 1
        if kind != "good":
            assert red.reason == f"bad reduction at {p}" and red.disc == 0, (f, p)
            assert not has_good_reduction(curve, p)
            for fact in ("count", "roots"):
                with pytest.raises(ValueError, match=f"^bad reduction at {p}$"):
                    getattr(red, fact)
            continue
        count, zeros = brute_force_points({e: int(c) % p for e, c in enumerate(f.coeffs)}, p)
        assert red.reason is None and has_good_reduction(curve, p)
        assert red.count == count_points_mod_p(curve, p) == brute_force_count(f, p) == count
        assert list(red.roots) == roots_mod_p(red.fp) == zeros
        assert red.disc == discriminant(red.fp) == PrimeField(p).coerce(discriminant(f)) != 0
    kinds = ("good", "p | lc", "p | disc", "denominator")
    assert all(seen[kind, parity] >= 20 for kind in kinds for parity in (0, 1)), seen


def _sparse_family_curves():
    """{e: c} of the dd curves x^(p-1) + d x^((p-1)/2) - 1 (p = 3 mod 4 in
    7..199, d in {p, -2p}) and the xpx curves x^p - x (p in 5..67), each
    with its own prime."""
    out = []
    for p in range(7, 200):
        if is_prime(p) and p % 4 == 3:
            out += [({0: -1, (p - 1) // 2: d, p - 1: 1}, p) for d in (p, -2 * p)]
    out += [({1: -1, p: 1}, p) for p in range(5, 68) if is_prime(p)]
    return out


def test_sparse_family_counts_and_roots_against_brute_force():
    """On every dd and xpx curve, at its own prime and at the least other
    prime of good reduction, count_points_mod_p equals the plain-int brute
    force over F_p^2, and roots_mod_p lists the x it finds with f(x) = 0."""
    checked = 0
    for terms, own in _sparse_family_curves():
        cs = [0] * (max(terms) + 1)
        for e, c in terms.items():
            cs[e] = c
        f = qp(*cs)
        curve = make_curve(f)
        other = next(q for q in (3, 5, 7, 11, 13) if q != own and has_good_reduction(curve, q))
        for p in (own, other):
            count, zeros = brute_force_points(terms, p)
            assert count_points_mod_p(curve, p) == count, (terms, p)
            assert roots_mod_p(reduce_poly_mod_p(f, p)) == zeros, (terms, p)
            checked += 1
    assert checked == 2 * (2 * 23 + 17)


def test_count_requires_good_reduction():
    with pytest.raises(ValueError):
        count_points_mod_p(make_curve(qp(7, 0, 0, 0, 0, 1)), 5)


def test_is_weierstrass():
    t = TowerSpec()
    xpx = make_curve(qp(*([0, -1] + [0] * 5 + [1])))  # x^7 - x
    origin = CurvePoint.affine(t.rational(0), t.rational(0))
    assert is_weierstrass(origin, xpx)
    assert is_weierstrass(CurvePoint.infinity(), xpx)
    even = make_curve(qp(-1, 0, 0, 42, 0, 0, 1))
    assert not is_weierstrass(CurvePoint.infinity_plus(), even)
    t15 = TowerSpec([("s", qp(-15, 0, 1))])
    c34 = make_curve(qp(12, 4, -15, -5, 3, 1))
    pt = CurvePoint.affine(t15.rational(3), 4 * t15.gen(0))
    assert not is_weierstrass(pt, c34)
    with pytest.raises(ValueError):
        is_weierstrass(CurvePoint.infinity(), even)


def test_on_curve_membership():
    t15 = TowerSpec([("s", qp(-15, 0, 1))])
    c34 = make_curve(qp(12, 4, -15, -5, 3, 1))
    assert on_curve(CurvePoint.affine(t15.rational(3), 4 * t15.gen(0)), c34)
    assert not on_curve(CurvePoint.affine(t15.rational(3), t15.rational(4)), c34)
    assert on_curve(CurvePoint.infinity(), c34)
    assert not on_curve(CurvePoint.infinity_plus(), c34)


def test_reduce_point_examples():
    t15 = TowerSpec([("s", qp(-15, 0, 1))])
    c34 = make_curve(qp(12, 4, -15, -5, 3, 1))
    w = split_places(t15, 7)[0]
    pt = CurvePoint.affine(t15.rational(3), 4 * t15.gen(0))
    assert reduce_point(pt, c34, w) == ReducedPoint("affine", x=3, y=4)
    assert reduce_point(CurvePoint.infinity(), c34, w) == ReducedPoint("infinity")

    t = TowerSpec()
    c9 = make_curve(qp(9, 0, 0, 0, 0, 1))
    w11 = split_places(t, 11)[0]
    p03 = CurvePoint.affine(t.rational(0), t.rational(3))
    assert reduce_point(p03, c9, w11) == ReducedPoint("affine", x=0, y=3)
    # C mod p in place of the curve gives the same point, and only at w.p
    assert reduce_point(p03, reduce_curve(c9, 11), w11) == ReducedPoint("affine", x=0, y=3)
    with pytest.raises(ValueError, match="lies over 11"):
        reduce_point(p03, reduce_curve(c9, 13), w11)


def test_reduce_point_non_integral():
    t = TowerSpec()
    c9 = make_curve(qp(9, 0, 0, 0, 0, 1))
    w11 = split_places(t, 11)[0]
    bad_x = Fraction(1, 11)
    bad = CurvePoint.affine(t.rational(bad_x), t.rational(0))
    with pytest.raises(NonIntegralError):
        reduce_point(bad, c9, w11)


def test_reduce_point_even_infinities():
    even = make_curve(qp(-1, 0, 0, 42, 0, 0, 1))
    t = TowerSpec()
    w7 = split_places(t, 7)[0]
    plus = reduce_point(CurvePoint.infinity_plus(), even, w7, sqrt_lc=t.rational(1))
    minus = reduce_point(CurvePoint.infinity_minus(), even, w7, sqrt_lc=t.rational(1))
    assert plus.winf == 1 and minus.winf == 6
    assert plus != minus
    with pytest.raises(ValueError):
        reduce_point(CurvePoint.infinity_plus(), even, w7)  # no declared sqrt


def test_weierstrass_count_on_odd_models():
    # reduced points fixed by (x, y) -> (x, -y): the roots of f mod p as
    # (r, 0), plus the odd-model point at infinity
    for d, p in ((1, 11), (9, 11), (7, 11), (12, 11)):
        f = qp(d, 0, 0, 0, 0, 1)
        fp = reduce_poly_mod_p(f, p)
        fixed = 0
        for x in range(p):
            fx = fp(x)
            for y in range(p):
                if y * y % p == fx and y == (-y) % p:
                    fixed += 1
        assert fixed + 1 == len(roots_mod_p(fp)) + 1
        assert fixed == len(roots_mod_p(fp))


def test_curve_equation_rendering():
    c = make_curve(qp(9, 0, 0, 0, 0, 1))
    assert c.equation() == "y^2 = x^5 + 9"


def _spy_on_reductions(monkeypatch, f):
    """Lists of the primes at which `PrimeField` is built, f is reduced (a
    `Poly` over F_p built from the coefficients of f, whatever builds it)
    and disc(f mod p) is taken (recognised by its coefficients), and of the
    x^p splitting tests run, while the spies are installed."""
    work = {"fields": [], "reduced": [], "disc": [], "split tests": []}

    def is_f_mod_p(g):
        p = getattr(g.field, "p", None)
        return p is not None and list(g.coeffs) == [
            c.numerator * pow(c.denominator, -1, p) % p for c in f.coeffs
        ]

    build, construct, disc, splits = (
        PrimeField.__init__, Poly.__init__, discriminant, splits_completely_mod_p
    )

    def building(field, p):
        work["fields"].append(p)
        build(field, p)

    def constructing(g, field, coeffs=()):
        construct(g, field, coeffs)
        if isinstance(field, PrimeField) and coeffs is f.coeffs:
            work["reduced"].append(field.p)

    def discriminating(g):
        if is_f_mod_p(g):
            work["disc"].append(g.field.p)
        return disc(g)

    def splitting(g, p):
        work["split tests"].append(p)
        return splits(g, p)

    monkeypatch.setattr(PrimeField, "__init__", building)
    monkeypatch.setattr(Poly, "__init__", constructing)
    for name, module in list(sys.modules.items()):
        if name == "tpe" or name.startswith("tpe."):
            for attr, spy, original in (
                ("discriminant", discriminating, disc),
                ("splits_completely_mod_p", splitting, splits),
            ):
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, spy)
    return work


def test_one_reduction_of_the_curve_per_prime(monkeypatch):
    """One verify_tpe of cd d = 100, dd p = 199 and xpx p = 67 reduces f
    (as C mod p) and takes disc(f mod p) once.  The only x^p splitting tests
    are split_places' one per tower generator, none for an attested split of
    f; with their fields that makes 4 / 2 / 2 fields (12 / 7 / 6 when each
    check built its own).  One torsion_decide of the quintic class (-1, 1) at
    p = 1009 does the same once at each of its three primes, with four
    fields (13 before)."""
    for doc in (generate_cd(100), generate_dd(199, 199), generate_xpx(67)):
        with monkeypatch.context() as patch:
            work = _spy_on_reductions(patch, doc.curve.f)
            assert verify_tpe(doc).all_passed
        # the dd family entry is h = f itself, which its check reduces as h
        families = sum(getattr(entry, "h", None) is doc.curve.f for entry in doc.entries)
        assert work["reduced"] == [doc.p] * (1 + families), (doc.p, work)
        assert work["disc"] == [doc.p], (doc.p, work)
        k = doc.tower.k
        assert work["split tests"] == [doc.p] * k, (doc.p, work)
        assert work["fields"] == [doc.p] * (2 + k), (doc.p, work)

    q = TowerSpec()
    quintic = make_curve(qp(3, 1, 0, 0, 0, 1))
    point = CurvePoint.affine(q.rational(-1), q.rational(1))
    place = split_places(q, 1009)[0]
    with monkeypatch.context() as patch:
        work = _spy_on_reductions(patch, quintic.f)
        verdict = torsion_decide(point, quintic, q, 1009, place)
    assert verdict == NotTorsion() and verdict.reason.endswith("mod 1009")
    assert sorted(work["reduced"]) == sorted(work["disc"]) == [3, 5, 1009], work
    assert len(work["fields"]) == 4, work
