"""Cantor arithmetic: group axioms, orders, the torsion decision procedure,
and reduction compatibility."""

import functools
import importlib.util
import itertools
import math
import random
import re
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from conftest import (
    adds_to_neg_by_addition,
    brute_force_count,
    cantor_add_reference,
    cantor_compose_reference,
    divisor_order_reference,
    exact_multiple_is_zero,
    first_match_reference,
    hasse_weil_order,
    linear_order,
    mul_from_lowest_bit,
    mumford_classes,
    narrowed_order,
    qp,
    random_reduced_class,
    reduced_orders_reference,
    second_match_reference,
    torsion_decide_reference,
)
from tpe.algebra import (
    QQ,
    NonIntegralError,
    Poly,
    PrimeField,
    exact_sqrt,
    is_prime,
    is_squarefree,
    small_divisors,
)
from tpe.curve import (
    CurveModP,
    CurvePoint,
    ReducedPoint,
    count_points_mod_p,
    has_good_reduction,
    make_curve,
    reduce_point,
)
from tpe.jacobian import (
    CertifiedTorsion,
    HeightLimitExceeded,
    Jacobian,
    MumfordDivisor,
    NotTorsion,
    Undecidable,
    _adds_to_neg,
    _exact_verdict,
    class_group_bound,
    class_group_interval,
    class_group_interval_from_count,
    divisor_order,
    reduce_divisor,
    torsion_decide,
)
from tpe.tower import ResidueAssignment, TowerElement, TowerSpec, split_places
import tpe.jacobian as jacobian_module

C9 = make_curve(qp(9, 0, 0, 0, 0, 1))
C1 = make_curve(qp(1, 0, 0, 0, 0, 1))
C34 = make_curve(qp(12, 4, -15, -5, 3, 1))
QTRIV = TowerSpec()
T15 = TowerSpec([("s", qp(-15, 0, 1))])


def test_embed_examples():
    jac = Jacobian.over_q(C9)
    assert jac.embed(CurvePoint.infinity()) == jac.identity
    D = jac.embed(CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3)))
    assert D.u == qp(0, 1) and D.v == qp(3)  # over QQ: Fraction coefficients
    j11 = Jacobian.over_prime_field(C1, 11)
    W = j11.embed(ReducedPoint("affine", x=10, y=0))
    assert list(W.u.coeffs) == [1, 1]  # x - 10 = x + 1 mod 11


def test_embed_rejects_even_model():
    even = make_curve(qp(-1, 0, 0, 42, 0, 0, 1))
    with pytest.raises(ValueError):
        Jacobian.over_prime_field(even, 7)


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 0, 0, 0, 0, 7),  # 7x^5 + 1: 7 divides lc(f)
        (-1, 0, 0, 42, 0, 0, 1),  # even model
        (1, 0, 0, 0, 0, 1, 7),  # 7x^6 + x^5 + 1: even model of degree 5 mod 7
    ],
)
def test_over_prime_field_needs_an_odd_model_of_the_same_degree(coeffs):
    curve = make_curve(qp(*coeffs))
    with pytest.raises(ValueError, match="Cantor arithmetic needs an odd-degree model"):
        Jacobian.over_prime_field(curve, 7)
    if not curve.odd_model:
        with pytest.raises(ValueError, match="Cantor arithmetic needs an odd-degree model"):
            Jacobian.over_q(curve)


def test_a_jacobian_over_a_prime_field_holds_c_mod_p():
    """F_p enters a Jacobian as C mod p, also when a bare PrimeField is
    passed, so the order search finds its count and class there."""
    jac = Jacobian(C9, PrimeField(11))
    assert isinstance(jac.reduction, CurveModP) and jac.reduction.p == 11
    assert jac.field == PrimeField(11) and jac.f == Jacobian.over_prime_field(C9, 11).f
    assert divisor_order(jac, jac.embed(ReducedPoint("affine", x=0, y=3))) == 5


def test_embed_rejects_off_curve_points():
    jac = Jacobian.over_q(C9)
    with pytest.raises(ValueError):
        jac.embed(CurvePoint.affine(QTRIV.rational(1), QTRIV.rational(1)))


def test_identity_and_inverse_laws():
    rng = random.Random(47)
    jac = Jacobian.over_prime_field(C9, 11)
    for _ in range(200):
        D = random_reduced_class(jac, rng)
        assert jac.add(D, jac.identity) == D
        assert jac.add(D, jac.neg(D)) == jac.identity


def test_group_axioms_randomized():
    rng = random.Random(53)
    for p in (11, 13):
        jac = Jacobian.over_prime_field(C9, p)
        for _ in range(500):
            D1 = random_reduced_class(jac, rng)
            D2 = random_reduced_class(jac, rng)
            assert jac.add(D1, D2) == jac.add(D2, D1)
        for _ in range(180):
            D1 = random_reduced_class(jac, rng)
            D2 = random_reduced_class(jac, rng)
            D3 = random_reduced_class(jac, rng)
            assert jac.add(jac.add(D1, D2), D3) == jac.add(D1, jac.add(D2, D3))


def test_mumford_invariant_preserved():
    rng = random.Random(59)
    jac = Jacobian.over_prime_field(C34, 7)
    for _ in range(300):
        D = random_reduced_class(jac, rng)
        assert jac.on_jacobian(D)
        assert D.u.degree <= jac.genus


def test_weierstrass_two_torsion():
    j11 = Jacobian.over_prime_field(C1, 11)
    W = j11.embed(ReducedPoint("affine", x=10, y=0))
    assert j11.add(W, W) == j11.identity
    assert divisor_order(j11, W) == 2
    # over an exact field too
    jq = Jacobian.over_q(C1)
    Wq = jq.embed(CurvePoint.affine(QTRIV.rational(-1), QTRIV.rational(0)))
    assert jq.mul(2, Wq) == jq.identity


def test_five_torsion_exact_over_q():
    jq = Jacobian.over_q(C9)
    D = jq.embed(CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3)))
    for n in range(1, 5):
        assert jq.mul(n, D) != jq.identity
    assert jq.mul(5, D) == jq.identity
    assert jq.mul(1, D) == D
    assert jq.mul(0, D) == jq.identity


def test_divisor_order_examples():
    j11 = Jacobian.over_prime_field(C9, 11)
    D = j11.embed(ReducedPoint("affine", x=0, y=3))
    assert divisor_order(j11, D) == 5
    j7 = Jacobian.over_prime_field(C34, 7)
    E = j7.embed(ReducedPoint("affine", x=3, y=4))
    assert divisor_order(j7, E) == 6
    assert divisor_order(j7, j7.embed(ReducedPoint("affine", x=3, y=3))) == 6


def test_divisor_order_divides_scaled():
    rng = random.Random(61)
    jac = Jacobian.over_prime_field(C9, 11)
    for _ in range(40):
        D = random_reduced_class(jac, rng)
        n = divisor_order(jac, D)
        m = rng.randrange(1, 12)
        from math import gcd

        assert divisor_order(jac, jac.mul(m, D)) == n // gcd(m, n)


def test_class_group_bound_dominates():
    rng = random.Random(67)
    for p in (7, 11, 13):
        jac = Jacobian.over_prime_field(C34 if p == 7 else C9, p)
        bound = class_group_bound(p, 2)
        for _ in range(25):
            assert divisor_order(jac, random_reduced_class(jac, rng)) <= bound


# odd models with good reduction at every prime in ORACLE_PRIMES; the genus-2
# curve has #J(F_3) = 29 and #J(F_5) = 26, so classes of order above the
# baby-step count exist where the Hasse-Weil lower bound is 0
ORACLE_CURVES = {1: [1, 1, 0, 1], 2: [1, 2, 0, 0, 0, 1], 3: [2, 1, 0, 0, 0, 0, 0, 1]}
ORACLE_PRIMES = (3, 5, 7, 11, 13, 19, 23)


def _oracle_jacobian(genus: int, p: int) -> Jacobian:
    return Jacobian.over_prime_field(make_curve(qp(*ORACLE_CURVES[genus]), allow_low_genus=True), p)


@pytest.mark.parametrize("genus", (1, 2, 3))
def test_divisor_order_matches_linear_scan(genus):
    """divisor_order, the generic Hasse-Weil baby-step giant-step and the
    linear scan agree; the sets below record that the giant steps of both
    searches run (orders above their baby-step counts)."""
    rng = random.Random(71 + genus)
    f = ORACLE_CURVES[genus]
    lo_zero, above = set(), set()  # primes with lo = 0; with an order above s
    narrowed_above = set()  # primes with an order above isqrt(nhi - nlo) + 1
    searched_above = set()  # primes with an order above divisor_order's s
    for p in ORACLE_PRIMES:
        jac = _oracle_jacobian(genus, p)
        roots = [a for a in range(p) if sum(c * a**i for i, c in enumerate(f)) % p == 0]
        for W in [jac.embed(ReducedPoint("affine", x=a, y=0)) for a in roots]:
            assert linear_order(jac, W) == hasse_weil_order(jac, W) == divisor_order(jac, W) == 2
        assert linear_order(jac, jac.identity) == divisor_order(jac, jac.identity) == 1
        assert hasse_weil_order(jac, jac.identity) == 1
        # a genus-3 linear scan at p = 19 or 23 runs to orders near 5000 and
        # takes seconds per class, so random genus-3 classes stop at p = 13
        classes = [random_reduced_class(jac, rng) for _ in range(0 if genus == 3 and p > 13 else 2)]
        lo, hi = class_group_interval(p, genus)
        if lo == 0:
            lo_zero.add(p)
            if genus < 3:  # every class, orders equal to s too
                classes += [
                    MumfordDivisor(Poly(jac.field, u), Poly(jac.field, v))
                    for u, v in mumford_classes(f, p, genus)
                ]
        nlo, nhi = class_group_interval_from_count(p, genus, jac.curve_point_count)
        for D in classes:
            n = linear_order(jac, D)
            assert divisor_order(jac, D) == hasse_weil_order(jac, D) == n, (p, D)
            if n > isqrt(hi - lo) + 1:
                above.add(p)
            if n > isqrt(nhi - nlo) + 1:
                narrowed_above.add(p)
            if n > isqrt((nhi - nlo + 1) // 2) + 1:
                searched_above.add(p)
    assert lo_zero == {3, 5} and above - lo_zero
    assert len(narrowed_above) >= 3
    assert len(searched_above) >= 3
    if genus < 3:
        assert lo_zero <= above


@pytest.mark.parametrize(
    "genus, p", [(g, p) for g in (1, 2) for p in (3, 5, 7, 11)] + [(3, 3), (3, 5)]
)
def test_class_group_interval_holds_enumerated_order(genus, p):
    """#J(F_p) from every reduced Mumford pair lies in the Hasse-Weil
    interval and in the one narrowed by #C(F_p), lies in the class
    #J = c mod M of `Jacobian.order_class`, and the order of each class
    divides it.  In genus 1 the narrowed interval is the single value
    #J = #C(F_p)."""
    jac = _oracle_jacobian(genus, p)
    classes = mumford_classes(ORACLE_CURVES[genus], p, genus)
    lo, hi = class_group_interval(p, genus)
    assert lo <= len(classes) <= hi == class_group_bound(p, genus)
    points = jac.curve_point_count
    assert points == brute_force_count(qp(*ORACLE_CURVES[genus]), p)
    nlo, nhi = class_group_interval_from_count(p, genus, points)
    assert 0 <= nlo <= len(classes) <= nhi
    if genus == 1:
        assert nlo == nhi == points == len(classes)
    M, c = jac.order_class
    assert len(classes) % M == c, (M, c, len(classes))
    rng = random.Random(73)
    for u, v in rng.sample(classes, min(len(classes), 24)):
        D = MumfordDivisor(Poly(jac.field, u), Poly(jac.field, v))
        assert jac.on_jacobian(D)
        assert len(classes) % divisor_order(jac, D) == 0


def _perfbench_oracle():
    """perfbench/oracle.py, loaded read-only from the checkout: #J(F_p) from
    point counts over F_(p^k), with no Cantor arithmetic."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the oracle's cubic extension needs p = 1 mod 3, hence genus 3 at 7, 13, 19
@pytest.mark.parametrize(
    "genus, p, curves", [(2, 101, 12), (2, 1009, 2), (3, 7, 6), (3, 13, 6), (3, 19, 6)]
)
def test_narrowed_interval_holds_oracle_order(genus, p, curves):
    """On random good-reduction curves, lo <= #J(F_p) <= hi for the interval
    narrowed by #C(F_p) and #J = c mod M for `Jacobian.order_class`, with
    #J from the point-count oracle; the count matches the oracle's, and the
    order of a random class divides #J."""
    oracle = _perfbench_oracle()
    rng = random.Random(101 * p + genus)
    checked = 0
    while checked < curves:
        f = [rng.randrange(p) for _ in range(2 * genus + 1)] + [1]
        if not is_squarefree(qp(*f)):
            continue
        curve = make_curve(qp(*f))
        if not has_good_reduction(curve, p):
            continue
        jac = Jacobian.over_prime_field(curve, p)
        assert jac.curve_point_count == oracle.count_points(f, p, 1)
        assert jac.curve_point_count == count_points_mod_p(curve, p)
        lo, hi = class_group_interval_from_count(p, genus, jac.curve_point_count)
        group = oracle.jacobian_order(f, p)
        assert 0 <= lo <= group <= hi, (f, lo, group, hi)
        M, c = jac.order_class
        assert group % M == c, (f, M, c, group)
        assert group % divisor_order(jac, random_reduced_class(jac, rng)) == 0
        checked += 1


def test_order_class_holds_oracle_order_in_every_kind():
    """#J(F_p) = c mod M for the (M, c) of `Jacobian.order_class`, with #J
    from the point-count oracle, on random good-reduction curves in genus 2
    at p = 3, 5, 7, 11, 13 and genus 3 at p = 7, 13, until every kind has
    occurred: #J odd (2, 1), 2^(r - 1) | #J for r = 2, 3, 4 irreducible
    factors of f mod p, and in genus 3 also r = 5 and the case where both
    r = 1 and r = 3 fit the roots and the discriminant, (1, 0)."""
    oracle = _perfbench_oracle()
    rng = random.Random(131)
    wanted = {
        2: {(2, 1), (2, 0), (4, 0), (8, 0)},
        3: {(1, 0), (2, 0), (4, 0), (8, 0), (16, 0)},
    }
    for genus, primes in ((2, (3, 5, 7, 11, 13)), (3, (7, 13))):
        kinds = set()
        for _ in range(4000):
            p = rng.choice(primes)
            f = [rng.randrange(p) for _ in range(2 * genus + 1)] + [1]
            curve = make_curve(qp(*f)) if is_squarefree(qp(*f)) else None
            if curve is None or not has_good_reduction(curve, p):
                continue
            M, c = Jacobian.over_prime_field(curve, p).order_class
            assert oracle.jacobian_order(f, p) % M == c, (f, p, M, c)
            kinds.add((M, c))
            if wanted[genus] <= kinds:
                break
        assert wanted[genus] <= kinds, (genus, kinds)


def test_divisor_order_refuses_bad_reduction():
    """f = x^5 + 9 is x^5 mod 3: the point count behind the narrowed
    interval is refused rather than a search run on a singular curve."""
    jac = Jacobian.over_prime_field(C9, 3)
    with pytest.raises(ValueError):
        divisor_order(jac, jac.embed(ReducedPoint("affine", x=1, y=1)))


@pytest.mark.parametrize("genus, p", [(g, p) for g in (1, 2) for p in (3, 5, 7)])
def test_group_axioms_over_enumerated_classes(genus, p):
    """Against every reduced Mumford pair of J(F_p): sums of sampled classes
    stay in the enumerated set, D + (-D) = 0 for every class, and sampled
    triples commute and associate."""
    jac = _oracle_jacobian(genus, p)
    pool = [
        MumfordDivisor(Poly(jac.field, u), Poly(jac.field, v))
        for u, v in mumford_classes(ORACLE_CURVES[genus], p, genus)
    ]
    classes = set(pool)
    assert jac.identity in classes
    for D in pool:
        assert jac.neg(D) in classes
        assert jac.add(D, jac.neg(D)) == jac.identity
        assert jac.add(D, jac.identity) == D
    rng = random.Random(83 + p)
    for _ in range(60):
        D1, D2, D3 = (rng.choice(pool) for _ in range(3))
        S = jac.add(D1, D2)
        assert S in classes
        assert S == jac.add(D2, D1)
        assert jac.add(S, D3) == jac.add(D1, jac.add(D2, D3))


# odd models at p = 3 whose narrowed interval starts at lo = 0, so the first
# giant step is 0*D and matches the baby step 0, which is not a multiple m > 0;
# p + 1 - b > 0 for p >= 5 (b = isqrt(4p) + 1), so lo = 0 needs p = 3
LO_ZERO_CURVES = {2: [0, 1, 0, 0, 0, 1], 3: [0, 1, 0, 0, 0, 0, 1, 1]}


def _enumerated(jac: Jacobian, f, genus: int) -> list[MumfordDivisor]:
    return [
        MumfordDivisor(Poly(jac.field, u), Poly(jac.field, v))
        for u, v in mumford_classes(f, jac.field.p, genus)
    ]


@pytest.mark.parametrize(
    "genus, p", [(g, p) for g in (1, 2) for p in (3, 5, 7)] + [(3, 3)]
)
def test_add_matches_full_cantor_on_every_pair(genus, p):
    """Jacobian.add equals Cantor's full composition bit for bit on every
    ordered pair of J(F_p): D + 0, 0 + D, D + (-D), coprime u's (the Garner
    lift) and Hensel doublings all occur, from genus 2 on u's that share a
    root but not D + (-D), and wherever J(F_p) has a class (u, 0) the
    doubling with gcd(u, 2v) != 1 that runs the full composition."""
    curves = [ORACLE_CURVES[genus]] + ([LO_ZERO_CURVES[genus]] if p == 3 and genus > 1 else [])
    kinds, expected = set(), {"hensel double", "inverse", "coprime"}
    if genus > 1:
        expected.add("common root")
    for f in curves:
        jac = Jacobian.over_prime_field(make_curve(qp(*f), allow_low_genus=True), p)
        pool = _enumerated(jac, f, genus)
        if any(D.u.degree and not D.v for D in pool):
            expected.add("weierstrass double")
        for D1 in pool:
            for D2 in pool:
                assert jac.add(D1, D2) == cantor_add_reference(jac, D1, D2), (D1, D2)
                kinds.add(_sum_kind(jac, D1, D2))
    assert kinds - {None} == expected


def _sum_kind(jac: Jacobian, D1: MumfordDivisor, D2: MumfordDivisor):
    """Which composition branch of Jacobian.add D1 + D2 takes, when both u's
    have a root: None for a sum with the identity."""
    if not (D1.u.degree and D2.u.degree):
        return None
    if D1 == D2:
        return "hensel double" if D1.u.gcd(D1.v + D1.v).degree == 0 else "weierstrass double"
    if D2 == jac.neg(D1):
        return "inverse"
    return "common root" if D1.u.gcd(D2.u).degree > 0 else "coprime"


@pytest.mark.parametrize("tower", [QTRIV, TowerSpec([("s", qp(-151, 0, 1))])], ids=["Q", "Q(sqrt151)"])
def test_add_matches_full_cantor_over_number_fields(tower):
    """Over Q and Q(sqrt c) the sums of points and of pairwise sums, the
    doubles and D + (-D) equal Cantor's full composition; Hensel doublings,
    coprime (Garner) sums and u's that share a root all occur."""
    jac, classes = _points_and_sums_over(tower)
    rng = random.Random(97)
    pairs = [(D, D) for D in classes] + [(D, jac.neg(D)) for D in classes]
    pairs += [tuple(rng.sample(classes, 2)) for _ in range(150)]
    kinds = set()
    for D1, D2 in pairs:
        assert jac.add(D1, D2) == cantor_add_reference(jac, D1, D2), (D1, D2)
        kinds.add(_sum_kind(jac, D1, D2))
    assert kinds - {None} == {"hensel double", "inverse", "coprime", "common root"}


def test_add_doubles_a_weierstrass_class_over_q_like_full_cantor():
    """Over Q, doublings of classes with a Weierstrass point in their
    support (gcd(u, 2v) != 1) run the full composition and equal it: the
    2-torsion (-1, 0) on y^2 = x^5 + 1, and its sums with (0, +-1), whose
    doubles have u = x^2 + x."""
    jac = Jacobian.over_q(C1)
    W = jac.embed(CurvePoint.affine(QTRIV.rational(-1), QTRIV.rational(0)))
    points = [jac.embed(CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(s))) for s in (1, -1)]
    for D in [W] + [jac.add(W, P) for P in points]:
        assert _sum_kind(jac, D, D) == "weierstrass double"
        assert jac.add(D, D) == cantor_add_reference(jac, D, D)
    assert jac.add(W, W) == jac.identity


def _hensel_steps(jac: Jacobian, D: MumfordDivisor):
    """How Jacobian.add reduces the Hensel doubling of D: None when D + D is
    no Hensel doubling or needs no reduction, else whether u' =
    monic((f - v^2) / u^2), for the (u, v) of the full composition, is
    reduced (deg u' <= g) or the reduction loop goes on from it.
    deg(f - v^2) = max(deg f, 2 deg v), as deg f is odd."""
    if _sum_kind(jac, D, D) != "hensel double":
        return None
    u, v = cantor_compose_reference(jac, D, D)
    if u.degree <= jac.genus:
        return None
    reduced = max(jac.f.degree, 2 * v.degree) - u.degree <= jac.genus
    return "one step" if reduced else "more steps"


def _max_bits(D: MumfordDivisor) -> int:
    """Largest numerator or denominator bit length in D over Q or Q(sqrt c)."""
    return max(
        x.bit_length()
        for poly in (D.u, D.v)
        for c in poly.coeffs
        for q in (c.coeffs.values() if isinstance(c, TowerElement) else (c,))
        for x in (q.numerator, q.denominator)
    )


def test_hensel_doublings_match_full_cantor_at_full_height():
    """Hensel doublings, whose first reduction step Jacobian.add takes from
    the lift's pieces, equal Cantor's full composition and reduction: the
    quintic class 2^k*D for k <= 6 and 51*D -> 102*D (16,413 bits) over Q,
    the classes of `_points_and_sums_over` Q(sqrt 151) and some doubles,
    and random genus-3 classes over F_19 and their doubles.  Both kinds of
    reduction run: u' from the pieces is reduced (genus 2, and genus 3 with
    deg u1 = 2), or the loop reduces it further (genus 3, deg u1 = 3)."""
    jq = Jacobian.over_q(QUINTIC)
    chain = [jq.embed(QUINTIC_POINT)]
    for _ in range(6):
        chain.append(jq.add(chain[-1], chain[-1]))
    B = jq.mul(51, chain[0])
    cases = [(jq, E) for E in chain + [B]]
    j151, classes = _points_and_sums_over(TowerSpec([("s", qp(-151, 0, 1))]))
    cases += [(j151, E) for E in classes + [j151.add(E, E) for E in classes[::5]]]
    j19, rng = _oracle_jacobian(3, 19), random.Random(109)
    for _ in range(30):
        E = random_reduced_class(j19, rng)
        cases += [(j19, E), (j19, j19.add(E, E))]
    steps = {}
    for jac, E in cases:
        assert jac.add(E, E) == cantor_add_reference(jac, E, E), E
        steps.setdefault(_hensel_steps(jac, E), set()).add(jac.field)
    assert _max_bits(jq.add(B, B)) == 16_413
    assert steps["one step"] == {QQ, j151.field, j19.field}
    assert steps["more steps"] == {j19.field}


def test_mul_is_repeated_addition():
    """mul(n, D) is n - 1 additions of D to D for n <= 40 and the identity
    for n = 0, over F_p in genus 2 and 3 and over Q."""
    rng = random.Random(101)
    jacs = [_oracle_jacobian(2, 101), _oracle_jacobian(3, 19)]
    classes = [(jac, random_reduced_class(jac, rng)) for jac in jacs]
    jq, exact = _points_and_sums_over(QTRIV)
    classes.append((jq, exact[0]))
    for jac, D in classes:
        assert jac.mul(0, D) == jac.identity
        acc = D
        for n in range(1, 41):
            assert jac.mul(n, D) == acc, n
            acc = jac.add(acc, D)


@pytest.mark.parametrize("domain", ["F_101 genus 2", "F_19 genus 3", "Q", "Q(sqrt151)"])
def test_mul_matches_the_chain_from_the_lowest_bit(domain):
    """The left-to-right chain gives the reduced pair of the right-to-left
    one for n <= 64, and over F_p also for n in 100..250 (orders there are
    larger, so these multiples are not the identity)."""
    if domain.startswith("F_"):
        jac = _oracle_jacobian(2, 101) if domain == "F_101 genus 2" else _oracle_jacobian(3, 19)
        classes = [random_reduced_class(jac, random.Random(107))]
        assert divisor_order(jac, classes[0]) > 250
        scalars = [*range(65), 100, 127, 128, 205, 250]
    else:
        tower = QTRIV if domain == "Q" else TowerSpec([("s", qp(-151, 0, 1))])
        jac, exact = _points_and_sums_over(tower)
        classes = [exact[0], exact[-1]] if domain == "Q" else [exact[-1]]
        scalars = range(65)
    for D in classes:
        for n in scalars:
            assert jac.mul(n, D) == mul_from_lowest_bit(jac, n, D), n


def test_mul_height_checks_like_addition_from_the_identity():
    """With a one-digit ceiling (19 bits) the class of (2^20, 1) on
    y^2 = x^5 + 1 - 2^100 breaches it itself: mul(1, D) and mul(3, D) raise,
    as adding D to the identity would, and the exact check at its reduced
    order at p = 7 is Undecidable.  The torsion decision refutes the class
    from its reduced orders at other primes before it builds a multiple."""
    x0 = 2**20
    curve = make_curve(qp(1 - x0**5, 0, 0, 0, 0, 1))
    point = CurvePoint.affine(QTRIV.rational(x0), QTRIV.rational(1))
    jac = Jacobian.over_q(curve, height_ceiling=1)
    D = jac.embed(point)
    for n in (1, 3):
        with pytest.raises(HeightLimitExceeded):
            jac.mul(n, D)
    place = split_places(QTRIV, 7)[0]
    j7 = Jacobian.over_prime_field(curve, 7)
    n = divisor_order(j7, j7.embed(reduce_point(point, curve, place)))
    assert isinstance(_exact_verdict(jac, point, n), Undecidable)
    assert torsion_decide(point, curve, QTRIV, 7, place, height_ceiling=1) == NotTorsion()


@pytest.mark.parametrize("genus", (1, 2, 3))
def test_divisor_order_matches_oracle_order_searches(genus):
    """divisor_order equals the one-prime-at-a-time search over the narrowed
    interval and the search over the generic Hasse-Weil interval, on every
    class at small p and random classes up to p = 101.  The cases the ±
    table and the product tree must get right all occur: orders in [s, 2s),
    where +j*D and -k*D collide; lo = 0, where the giant step 0*D matches
    the baby step 0 and m = 0 is refused; in genus 1 an interval of width 1;
    and orders with three distinct primes, where the tree recurses twice."""
    rng = random.Random(103 + genus)
    primes = ORACLE_PRIMES + ((101,) if genus < 3 else ())
    cases = [(ORACLE_CURVES[genus], p) for p in primes]
    if genus > 1:
        cases.append((LO_ZERO_CURVES[genus], 3))
    seen = set()
    for f, p in cases:
        jac = Jacobian.over_prime_field(make_curve(qp(*f), allow_low_genus=True), p)
        lo, hi = class_group_interval_from_count(p, genus, jac.curve_point_count)
        s = isqrt((hi - lo + 1) // 2) + 1
        if p <= (7 if genus < 3 else 3):
            classes = _enumerated(jac, f, genus)
        else:
            classes = [random_reduced_class(jac, rng) for _ in range(8 if genus < 3 else 3)]
        for D in classes:
            n = divisor_order(jac, D)
            assert n == narrowed_order(jac, D) == hasse_weil_order(jac, D), (p, f, D)
            if s <= n < 2 * s:
                seen.add("collision")
            if lo == 0 and n >= s:
                seen.add("lo = 0")
            if lo == hi:
                seen.add("width 1")
            if sum(map(is_prime, small_divisors(n))) >= 3:
                seen.add("three primes")
    assert seen == {"collision", "three primes", "width 1" if genus == 1 else "lo = 0"}


def test_divisor_order_matches_the_first_match_search(monkeypatch):
    """divisor_order equals the search that recovers from its first match
    with plain `mul` (`divisor_order_reference`), the second-match search
    over the whole interval (`second_match_reference`) and, at p <= 13, the
    linear scan, on seeded classes: genus 2 at p = 7, 11, 13, 101, genus 3
    at p = 7, 19, the quintic's (-1, 1) at every good p from 7 to 31 and
    four more of its classes at p = 31, the identity, 2-torsion classes and
    a class of order below s.  The search runs over m = c + M*K for the
    (M, c, s, giants) of `_search_plan`; with n the order, m1 the first
    match and C the divisors d of m1 with lcm(d, M) >= M*s and
    m1 - first < lcm(d, M) <= last - m1, a second match m (m | m1, n | m)
    can follow only when n is in C, and m1 is recovered from otherwise.
    Each branch runs: M = 1, M > 1 with c = 0 and with c = 1, a return in
    the baby steps, a baby-step hit with M > 1 (recovered from M*j), no
    candidate (C empty), a second match inside a class with M > 1 that
    leaves a smaller multiple, a walk that ends without one (C not empty,
    n not in C), a table multiple k*E = q*(t*E) + r*E with r < 0 and a
    multiple k*D with k mod M != 0, which adds from the doubling chain;
    every table multiple equals `mul`'s, and for c = 1 the tree runs on
    E = M*D."""
    roots = []  # (class the tree runs on, multiple handed to it, [k of each table multiple])
    firsts = []  # the first match of each search, as divisor_order factors it

    def spy(jac, D, factors, times=None):
        if times is not None:  # the root: D is the searched class, or E
            ks = []

            def checked(k):
                E = times(k)
                assert E == jac.mul(k, D), k
                ks.append(k)
                return E

            roots.append((D, math.prod(q**e for q, e in factors), ks))
            return order_dividing(jac, D, factors, checked)
        return order_dividing(jac, D, factors)

    def divisors_spy(m):
        firsts.append(m)
        return small_divisors(m)

    order_dividing = jacobian_module._order_dividing
    monkeypatch.setattr(jacobian_module, "_order_dividing", spy)
    monkeypatch.setattr(jacobian_module, "small_divisors", divisors_spy)
    rng = random.Random(107)
    cases = []
    for genus, primes in ((2, (7, 11, 13, 101)), (3, (7, 19))):
        f = ORACLE_CURVES[genus]
        for p in primes:
            jac = _oracle_jacobian(genus, p)
            roots_f = [a for a in range(p) if sum(c * a**i for i, c in enumerate(f)) % p == 0]
            classes = [jac.identity] + [jac.embed(ReducedPoint("affine", x=a, y=0)) for a in roots_f]
            classes += [random_reduced_class(jac, rng) for _ in range(6)]
            cases += [(jac, D) for D in classes]
    for p in range(7, 32):
        if is_prime(p) and has_good_reduction(QUINTIC, p):
            jac = Jacobian.over_prime_field(QUINTIC, p)
            cases.append((jac, jac.embed(reduce_point(QUINTIC_POINT, QUINTIC, split_places(QTRIV, p)[0]))))
    # at p = 31 most classes have an order whose next multiple leaves the range
    cases += [(jac, random_reduced_class(jac, rng)) for _ in range(4)]

    def plan(jac):
        lo, hi = class_group_interval_from_count(jac.field.p, jac.genus, jac.curve_point_count)
        return jacobian_module._search_plan(lo, hi, *jac.order_class)

    small_order_added = False
    for jac, D in list(cases):
        n = divisor_order(jac, D)
        s = plan(jac)[2]
        if not small_order_added and n >= s:
            d = next((d for d in small_divisors(n) if 2 < d < s), None)
            if d is not None:
                cases.append((jac, jac.mul(n // d, D)))
                small_order_added = True
    seen = set()
    orders = set()
    for jac, D in cases:
        roots.clear()
        firsts.clear()
        n = divisor_order(jac, D)
        assert n == divisor_order_reference(jac, D), (jac.field, D)
        assert n == second_match_reference(jac, D)["order"], (jac.field, D)
        orders.add(n)
        if jac.field.p <= 13:
            assert n == linear_order(jac, D), (jac.field, D)
        M, c, s, giants = plan(jac)
        seen.add("M = 1" if M == 1 else f"M > 1, c = {c}")
        if n // math.gcd(n, M) < s:  # the order of E = M*D
            assert not firsts
            if M == 1 or c:
                assert not roots
                seen.add("baby steps")
            else:
                (_, m, _), = roots
                assert m == M * (n // math.gcd(n, M))
                seen.add("baby steps, M > 1")
            continue
        (m1,), ((root, m, ks),) = firsts, roots
        assert root == (jac.mul(M, D) if c else D)
        first, last = c + M * (giants[0] - s + 1), c + M * (giants[-1] + s - 1)
        C = [d for d in small_divisors(m1) if M * s <= math.lcm(d, M) and m1 - first < math.lcm(d, M) <= last - m1]
        assert m1 % m == 0 and m % n == 0, (m1, m, n)
        if n in C:
            if m < m1:
                seen.add("second match" + (", M > 1" if M > 1 else ""))
        else:
            seen.add("walk without a second match" if C else "no candidate")
            assert m == m1, (m1, m, n)
        t = 2 * s - 1
        for k in ks:
            e = k if c else k // M  # k*E or (k // M)*E off the tables
            if e >= s and (e + s - 1) % t < s - 1:
                seen.add("r < 0")
            if k % M and not c:
                seen.add("k mod M != 0")
    assert small_order_added and {1, 2} <= orders
    assert {
        "M = 1", "M > 1, c = 0", "M > 1, c = 1", "baby steps", "baby steps, M > 1",
        "no candidate", "second match, M > 1", "walk without a second match", "r < 0",
        "k mod M != 0",
    } <= seen, seen


def _points_and_sums_over(tower: TowerSpec):
    """y^2 = x(x^2 - 1)(x - 2)(x - 3) + (x^2 + x + 2)^2 over `tower`, with
    the integral points (a, +-(a^2 + a + 2)) for a in -1..3, distinct mod
    every p >= 5, and over Q(sqrt 151) also (4, +-2 sqrt 151)
    (f(4) = 604 = 4 * 151): the Jacobian, and the class of each point
    followed by each pairwise sum."""
    xs = (-1, 0, 1, 2, 3)
    v = qp(2, 1, 1)
    prod = qp(1)
    for a in xs:
        prod = prod * qp(-a, 1)
    curve = make_curve(prod + v * v)
    jac = Jacobian.over_tower(curve, tower)
    points = [
        CurvePoint.affine(tower.rational(a), tower.rational(s * v(a))) for a in xs for s in (1, -1)
    ]
    if tower.k:
        points += [CurvePoint.affine(tower.rational(4), s * 2 * tower.gen(0)) for s in (1, -1)]
    classes = [jac.embed(P) for P in points]
    return jac, classes + [jac.add(P, Q) for P, Q in itertools.combinations(classes, 2)]


def test_cantor_over_fp_matches_exact_q_addition_reduced():
    """Reduction mod p is a homomorphism: F_p Cantor addition of reduced
    classes equals the exact addition over Q, reduced by reduce_divisor, on
    the integral points of `_points_and_sums_over` and their sums."""
    jq, classes = _points_and_sums_over(QTRIV)
    curve = jq.curve
    rng = random.Random(89)
    checked = 0
    for p in (5, 7, 11, 13):
        jp = Jacobian.over_prime_field(curve, p)
        w = split_places(QTRIV, p)[0]
        for _ in range(40):
            D1, D2 = rng.choice(classes), rng.choice(classes)
            try:
                expected = reduce_divisor(jq.add(D1, D2), w, jp)
            except NonIntegralError:
                continue  # support points of the sum collide mod p
            assert jp.add(reduce_divisor(D1, w, jp), reduce_divisor(D2, w, jp)) == expected
            checked += 1
    assert checked >= 120


@pytest.mark.parametrize("p, point, order", [(101, (1, 45), 11978), (1009, (0, 149), 336238)])
def test_divisor_order_certificate_at_large_p(p, point, order):
    """n*D = 0 and (n/q)*D != 0 for every prime q | n make n the exact order;
    orders this large were out of reach of the linear scan in tests."""
    jac = Jacobian.over_prime_field(make_curve(qp(3, 1, 0, 0, 0, 1)), p)
    D = jac.embed(ReducedPoint("affine", x=point[0], y=point[1]))
    n = divisor_order(jac, D)
    assert n == order <= class_group_bound(p, 2)
    assert jac.mul(n, D) == jac.identity
    for q in filter(is_prime, small_divisors(n)):
        assert jac.mul(n // q, D) != jac.identity


@pytest.mark.parametrize("p, order, most", [(101, 5989, 62), (1009, 72051, 142)])
def test_reference_class_search_additions(monkeypatch, p, order, most):
    """The order search on (-1, 1) of y^2 = x^5 + x + 3 makes at most 62
    Cantor additions at p = 101 and 142 at p = 1009 (57 and 140 in the
    class #J = 0 mod 2, against 62 and 168 for the second-match search over
    the whole interval), counted through `Jacobian.add` after #C(F_p)."""
    jac = Jacobian.over_prime_field(QUINTIC, p)
    D = jac.embed(ReducedPoint("affine", x=p - 1, y=1))
    assert jac.order_class == (2, 0)
    calls = []
    add = Jacobian.add
    monkeypatch.setattr(Jacobian, "add", lambda self, D1, D2: calls.append(1) or add(self, D1, D2))
    assert divisor_order(jac, D) == order
    assert len(calls) <= most, len(calls)


def test_torsion_decide_certified():
    point = CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3))
    place = split_places(QTRIV, 11)[0]
    verdict = torsion_decide(point, C9, QTRIV, 11, place)
    assert verdict == CertifiedTorsion(5)


def test_torsion_decide_place_independent_order():
    point = CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3))
    for p in (7, 11, 13):  # disc = 5^5 * 9^4, so any p outside {3, 5} is good
        place = split_places(QTRIV, p)[0]
        assert torsion_decide(point, C9, QTRIV, p, place) == CertifiedTorsion(5)
    # quadratic field: both places over 11 agree
    t20 = TowerSpec([("s", qp(-20, 0, 1))])
    c20 = make_curve(qp(20, 0, 0, 0, 0, 1))
    pt = CurvePoint.affine(t20.rational(0), t20.gen(0))
    for place in split_places(t20, 11):
        assert torsion_decide(pt, c20, t20, 11, place) == CertifiedTorsion(5)


def test_torsion_decide_not_torsion():
    # found by scanning small-height points on the fixture curve y^2 = x^5 - 4:
    # x = 3 gives y^2 = 239, and the reduced class at the two primes below has
    # orders 5 and 10, already incompatible with torsion; the exact check refutes.
    curve = make_curve(qp(-4, 0, 0, 0, 0, 1))
    tower = TowerSpec([("r", qp(-239, 0, 1))])
    point = CurvePoint.affine(tower.rational(3), tower.gen(0))
    j7 = Jacobian.over_prime_field(curve, 7)
    w7 = split_places(tower, 7)[0]
    assert divisor_order(j7, j7.embed(reduce_point(point, curve, w7))) == 5
    assert torsion_decide(point, curve, tower, 7, w7) == NotTorsion()
    j19 = Jacobian.over_prime_field(curve, 19)
    w19 = split_places(tower, 19)[0]
    assert divisor_order(j19, j19.embed(reduce_point(point, curve, w19))) == 10


def test_torsion_decide_quadratic_example_is_refuted():
    # the bundled quadratic-field example: reduced order is 6 at both places
    # of Q(sqrt 15) over 7, but the exact sextuple is nonzero, so the class
    # is not torsion (see also orders 16 at p=11 and 12 at p=17).
    point = CurvePoint.affine(T15.rational(3), 4 * T15.gen(0))
    for place in split_places(T15, 7):
        assert torsion_decide(point, C34, T15, 7, place) == NotTorsion()
    j11 = Jacobian.over_prime_field(C34, 11)
    w11 = split_places(T15, 11)[0]
    assert divisor_order(j11, j11.embed(reduce_point(point, C34, w11))) == 16


QUINTIC = make_curve(qp(3, 1, 0, 0, 0, 1))  # y^2 = x^5 + x + 3
QUINTIC_POINT = CurvePoint.affine(QTRIV.rational(-1), QTRIV.rational(1))
T20 = TowerSpec([("s", qp(-20, 0, 1))])
T239 = TowerSpec([("r", qp(-239, 0, 1))])


@pytest.mark.parametrize(
    "point, curve, tower, p, index, n, torsion",
    [
        (QUINTIC_POINT, QUINTIC, QTRIV, 7, 0, 81, False),
        (QUINTIC_POINT, QUINTIC, QTRIV, 11, 0, 144, False),
        (QUINTIC_POINT, QUINTIC, QTRIV, 13, 0, 42, False),
        (CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3)), C9, QTRIV, 11, 0, 5, True),
        (CurvePoint.affine(QTRIV.rational(-1), QTRIV.rational(0)), C1, QTRIV, 11, 0, 2, True),
        *(
            (CurvePoint.affine(T20.rational(0), T20.gen(0)), make_curve(qp(20, 0, 0, 0, 0, 1)),
             T20, 11, index, 5, True)
            for index in (0, 1)
        ),
        *(
            (CurvePoint.affine(T15.rational(3), 4 * T15.gen(0)), C34, T15, 7, index, 6, False)
            for index in (0, 1)
        ),
        (CurvePoint.affine(T239.rational(3), T239.gen(0)), make_curve(qp(-4, 0, 0, 0, 0, 1)),
         T239, 7, 0, 5, False),
    ],
    ids=[
        "quintic-p7", "quintic-p11", "quintic-p13", "order5-p11", "weierstrass-p11",
        "sqrt20-place0", "sqrt20-place1", "sqrt15-place0", "sqrt15-place1", "sqrt239-p7",
    ],
)
def test_torsion_decide_agrees_with_the_full_multiple(point, curve, tower, p, index, n, torsion):
    """The half-multiple comparison gives the verdict of building n*D in
    full, on both verdicts and both parities of n (n <= 144 keeps the oracle
    cheap)."""
    place = split_places(tower, p)[index]
    jp = Jacobian.over_prime_field(curve, p)
    assert divisor_order(jp, jp.embed(reduce_point(point, curve, place))) == n
    jac = Jacobian.over_tower(curve, tower)
    assert exact_multiple_is_zero(jac, n, jac.embed(point)) is torsion
    expected = CertifiedTorsion(n) if torsion else NotTorsion()
    assert torsion_decide(point, curve, tower, p, place) == expected


def test_torsion_decide_refutes_the_quintic_class_at_p17():
    place = split_places(QTRIV, 17)[0]
    jp = Jacobian.over_prime_field(QUINTIC, 17)
    assert divisor_order(jp, jp.embed(reduce_point(QUINTIC_POINT, QUINTIC, place))) == 205
    assert torsion_decide(QUINTIC_POINT, QUINTIC, QTRIV, 17, place) == NotTorsion()


def test_torsion_decide_certifies_the_point_at_infinity():
    """The odd-model base point is the identity class, of order 1: n = 1 is
    odd and D is the identity, so the odd check adds B and D."""
    place = split_places(QTRIV, 11)[0]
    assert torsion_decide(CurvePoint.infinity(), C9, QTRIV, 11, place) == CertifiedTorsion(1)
    c20 = make_curve(qp(20, 0, 0, 0, 0, 1))
    for place in split_places(T20, 11):
        assert torsion_decide(CurvePoint.infinity(), c20, T20, 11, place) == CertifiedTorsion(1)


ORDER7_CURVE = make_curve(qp(Fraction(1, 4), 0, 0, -1, -1, -1))  # y^2 = -x^5 - x^4 - x^3 + 1/4
ORDER7_POINT = CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(Fraction(1, 2)))


def _spy_on_searches_and_counts(monkeypatch):
    """The primes that `divisor_order` and the point-count pass of C mod p
    (`CurveModP._counted`) see, in call order."""
    searched, counted = [], []
    count = CurveModP._counted.func

    def counting(red):
        counted.append(red.p)
        return count(red)

    def searching(jac, D):
        searched.append(jac.field.p)
        return divisor_order(jac, D)

    spy = functools.cached_property(counting)
    spy.__set_name__(CurveModP, "_counted")
    monkeypatch.setattr(CurveModP, "_counted", spy)
    monkeypatch.setattr(jacobian_module, "divisor_order", searching)
    return searched, counted


WALK_PRIMES = (*filter(is_prime, range(3, 48, 2)), 101, 1009)


def _assert_walk_matches_the_search_at_p(monkeypatch, point, curve, p, ceiling=None):
    """torsion_decide at p gives the verdict of the reference that finds n
    at p; its one order search and its one point count run at the smallest
    prime the reference consults, and a certified order is the reduced
    order at p."""
    with monkeypatch.context() as patch:
        searched, counted = _spy_on_searches_and_counts(patch)
        verdict = torsion_decide(point, curve, QTRIV, p, split_places(QTRIV, p)[0], ceiling)
    orders = reduced_orders_reference(point, curve, p)
    assert verdict == torsion_decide_reference(point, curve, p, ceiling), (curve, point, p)
    assert searched == counted == [min(orders)], (curve, point, p)
    if isinstance(verdict, CertifiedTorsion):
        assert verdict.order == orders[p]
    return verdict


@pytest.mark.parametrize(
    "point, curve, n",
    [
        (CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3)), C9, 5),
        (CurvePoint.affine(QTRIV.rational(-1), QTRIV.rational(0)), C1, 2),
        (CurvePoint.infinity(), C9, 1),
        (ORDER7_POINT, ORDER7_CURVE, 7),
    ],
    ids=["order5", "weierstrass", "infinity", "order7"],
)
def test_reduced_orders_never_refute_a_torsion_class(monkeypatch, point, curve, n):
    """Reduction is injective on torsion at every odd prime of good
    reduction, so the reduced orders at other primes never refute a torsion
    class: at every odd p <= 47 and at p = 101 and 1009 where torsion_decide
    accepts the input it certifies the order, which it finds at the
    smallest usable prime and which is the reduced order at p.  The order-7
    curve is f = (A^2 - x^7)/t^2 with t = x - 1 and
    A = 1 + (7/2)t + 3t^2 + t^3, and P = (0, A(0)/t(0)) = (0, 1/2)."""
    accepted = 0
    for p in WALK_PRIMES:
        if not has_good_reduction(curve, p):
            continue
        verdict = _assert_walk_matches_the_search_at_p(monkeypatch, point, curve, p)
        assert verdict == CertifiedTorsion(n), p
        accepted += 1
    assert accepted >= 12


def _seeded_points_over_q(genus):
    """Seeded small-height points over Q on random curves of the given
    genus, each with a random prime p < 30 of good reduction."""
    rng = random.Random(271 + genus)
    while True:
        curve, _, point = _curve_through_a_point(rng, genus, 1, False)
        p = rng.choice([q for q in range(3, 30) if is_prime(q) and has_good_reduction(curve, q)])
        yield curve, point, p


@pytest.mark.parametrize("genus", (2, 3))
def test_refutations_from_other_primes_agree_with_the_full_multiple(genus):
    """On seeded small-height points over Q on random curves, every class
    whose reduced orders at p and the two other usable primes differ, with
    n <= 150 at p, has n*D != 0 when n*D is built in full over Q, and
    torsion_decide refutes it; classes whose orders agree are left to the
    exact check."""
    refuted = 0
    for curve, point, p in _seeded_points_over_q(genus):
        if refuted == 8:
            break
        orders = reduced_orders_reference(point, curve, p)
        n = orders[p]
        if n > 150 or len(set(orders.values())) == 1:
            continue
        jq = Jacobian.over_q(curve)
        assert not exact_multiple_is_zero(jq, n, jq.embed(point)), (curve, point, p)
        assert torsion_decide(point, curve, QTRIV, p, split_places(QTRIV, p)[0]) == NotTorsion()
        refuted += 1


@pytest.mark.parametrize("genus", (2, 3))
def test_walk_agrees_with_the_search_at_p_on_seeded_points(monkeypatch, genus):
    """On the first seeded points of
    test_refutations_from_other_primes_agree_with_the_full_multiple, at every
    good odd p <= 47 and at p = 101 and 1009, torsion_decide gives the
    reference's verdict (a 40-digit ceiling bounds the exact checks of both
    sides, which run with the same n)."""
    for curve, point, _ in itertools.islice(_seeded_points_over_q(genus), 6):
        for p in WALK_PRIMES:
            if has_good_reduction(curve, p):
                _assert_walk_matches_the_search_at_p(monkeypatch, point, curve, p, 40)


@pytest.mark.parametrize("p", [1009, 10**9 + 7])
def test_no_count_or_search_at_p_when_a_smaller_prime_is_usable(monkeypatch, p):
    """The quintic class has order 6 mod 3, its smallest usable prime: the
    one search and the one point count run there, never at p, and p
    refutes the order with 6*D_p != 0.  The reason names that check."""
    searched, counted = _spy_on_searches_and_counts(monkeypatch)
    verdict = torsion_decide(QUINTIC_POINT, QUINTIC, QTRIV, p, split_places(QTRIV, p)[0])
    assert verdict == NotTorsion()
    assert verdict.reason == f"reduced order 6 mod 3, but 6*D != 0 mod {p}"
    assert searched == [3] and counted == [3]


def test_order_step_skips_a_prime_where_the_point_is_not_integral(monkeypatch):
    """(1/9, 59048/243) lies on y^2 = x^5 + 59047, which has good reduction
    at 3: at p = 7 the walk skips 3 (P is not 3-integral) and 5 (bad
    reduction), so the order search and the point count run at p itself,
    and 11 refutes the class as n*D does."""
    curve = make_curve(qp(59047, 0, 0, 0, 0, 1))
    point = CurvePoint.affine(QTRIV.rational(Fraction(1, 9)), QTRIV.rational(Fraction(59048, 243)))
    assert has_good_reduction(curve, 3) and not has_good_reduction(curve, 5)
    searched, counted = _spy_on_searches_and_counts(monkeypatch)
    built = []
    over_reduction = Jacobian.over_reduction
    monkeypatch.setattr(
        Jacobian, "over_reduction",
        classmethod(lambda cls, red: built.append(red.p) or over_reduction(red)),
    )
    verdict = torsion_decide(point, curve, QTRIV, 7, split_places(QTRIV, 7)[0])
    monkeypatch.undo()
    assert searched == [7] and counted == [7] and built == [7, 11]
    n = reduced_orders_reference(point, curve, 7)[7]
    assert verdict == NotTorsion() and verdict.reason.startswith(f"reduced order {n} mod 7, ")
    assert verdict.reason.endswith(" mod 11")
    jq = Jacobian.over_q(curve)
    assert n <= 150 and not exact_multiple_is_zero(jq, n, jq.embed(point))


@pytest.mark.parametrize("p, n", [(5, 6), (11, 144), (101, 5989), (1009, 72051)])
def test_quintic_class_refuted_without_an_exact_multiple(monkeypatch, p, n):
    """The quintic class is refuted under a one-digit ceiling with no Cantor
    addition over Q.  Its order 6 is found at 3.  At p = 5 the reduced order
    is 6 too, and the next usable prime, 7 (not p itself), refutes with
    order 81; at p = 11, 101 and 1009, where the exact half multiples ran
    past 100 s, 6*D_p != 0 refutes at p."""
    place = split_places(QTRIV, p)[0]
    jp = Jacobian.over_prime_field(QUINTIC, p)
    assert divisor_order(jp, jp.embed(reduce_point(QUINTIC_POINT, QUINTIC, place))) == n
    exact = []
    add = Jacobian.add

    def counting_add(self, D1, D2):
        if self.field == QQ:
            exact.append((D1, D2))
        return add(self, D1, D2)

    monkeypatch.setattr(Jacobian, "add", counting_add)
    verdict = torsion_decide(QUINTIC_POINT, QUINTIC, QTRIV, p, place, height_ceiling=1)
    assert verdict == NotTorsion() and verdict.reason.endswith(f" mod {7 if p == 5 else p}")
    assert not exact


def test_walk_refutes_a_reduced_order_that_divides_n(monkeypatch):
    """(3, 4) on y^2 = x^5 + 2x^4 + 3x^3 + 3x^2 + 2x - 503 has reduced order
    36 mod 5, its smallest usable prime, and 12 mod 7: 36*D_7 = 0, so only
    (36/3)*D_7 = 0 refutes it, at every p from 7 to 1009, with no exact
    multiple under a one-digit ceiling; the full 36*D over Q is nonzero."""
    curve = make_curve(qp(-503, 2, 3, 3, 2, 1))
    point = CurvePoint.affine(QTRIV.rational(3), QTRIV.rational(4))
    assert reduced_orders_reference(point, curve, 7) == {7: 12, 5: 36, 11: 163}
    for p in (7, 11, 101, 1009):
        verdict = _assert_walk_matches_the_search_at_p(monkeypatch, point, curve, p, 1)
        assert verdict.reason == "reduced order 36 mod 5, but 12*D = 0 mod 7", p
    jq = Jacobian.over_q(curve)
    assert not exact_multiple_is_zero(jq, 36, jq.embed(point))


def _random_poly(rng, degree, lead):
    return [rng.randint(-4, 4) for _ in range(degree)] + [lead]


def _curve_through_a_point(rng, genus, lc, quadratic):
    """A squarefree f of degree 2g + 1 with lc(f) = lc and a point P on it:
    over Q, f's constant is set so that f(a) = b^2; over Q(sqrt c), P is
    (a, s) with s^2 = c = f(a), not a square."""
    while True:
        a = rng.randint(-3, 3)
        cs = _random_poly(rng, 2 * genus + 1, lc)
        fa = sum(c * a**i for i, c in enumerate(cs))
        if quadratic:
            if fa == 0 or exact_sqrt(fa) is not None:
                continue
            tower = TowerSpec([("s", qp(-fa, 0, 1))])
            y = tower.gen(0)
        else:
            b = rng.randint(-4, 4)
            cs[0] += b * b - fa
            tower, y = QTRIV, QTRIV.rational(b)
        if is_squarefree(qp(*cs)):
            return make_curve(qp(*cs)), tower, CurvePoint.affine(tower.rational(a), y)


def _principal_pair(rng, genus, lc, quadratic, v_at_a):
    """(jac, B, D) with 2B + D the divisor of y - V, so B + D = -B.

    With u monic of degree g, u(a) != 0, lam != 0, and v = (x - a) r + v_at_a
    of degree < g, V = c^(1/2) (v + lam u) and f = V^2 + lc u^2 (x - a) over
    Q (c = 1 over Q).  B = (u, V mod u), D = (a, V(a)).  If v(a) = 0, -D
    gives -lam in place of lam: the x^2g coefficients agree, and only the
    full identity refutes B - D = -B."""
    while True:
        a = rng.randint(-3, 3)
        u = qp(*_random_poly(rng, genus, 1))
        lam = rng.choice([-3, -2, -1, 1, 2, 3])
        if u(a) == 0:
            continue
        v = qp(-a, 1) * qp(*_random_poly(rng, genus - 2, rng.randint(-4, 4))) + v_at_a
        c = rng.choice([2, 3, -5, 7]) if quadratic else 1
        w = v + u * lam
        f = w * w * c + u * u * qp(-a, 1) * lc
        if not is_squarefree(f):
            continue
        tower = TowerSpec([("s", qp(-c, 0, 1))]) if quadratic else QTRIV
        jac = Jacobian.over_tower(make_curve(f), tower)
        root = tower.gen(0) if quadratic else tower.one
        vB = v.map_domain(tower) * root if quadratic else v
        B = MumfordDivisor(u.map_domain(jac.field), vB)
        D = jac.embed(CurvePoint.affine(tower.rational(a), root * w(a)))
        assert jac.on_jacobian(B)
        return jac, B, D


def _first_multiples(jac, D):
    """(jac, m*D, D) for m = 0, ..., 11."""
    out, B = [], jac.identity
    for _ in range(12):
        out.append((jac, B, D))
        B = jac.add(B, D)
    return out


def test_odd_check_matches_building_b_plus_d(monkeypatch):
    """_adds_to_neg(B, D) agrees with building B + D and comparing it with
    -B, over Q and Q(sqrt c), in genus 2 and 3, with lc(f) in {1, 2, -3}:
    on B = m*D for m <= 11 on random curves, on the order-(2g + 1) family
    f = (c + dx)^2 + lc x^(2g+1) with P = (0, c) (y - c - dx vanishes to
    order 2g + 1 at P, so "yes" answers occur), and on principal pairs.
    Each branch runs: deg u < g, the fallback for u(a) = 0 (and only it
    adds), and the x^2g test and full identity with both answers."""
    rng = random.Random(14)
    cases = []
    for genus, quadratic, lc in itertools.product((2, 3), (False, True), (1, 2, -3)):
        curve, tower, point = _curve_through_a_point(rng, genus, lc, quadratic)
        jac = Jacobian.over_tower(curve, tower)
        cases += _first_multiples(jac, jac.embed(point))
        c, d = rng.choice([-3, -1, 2, 5]), rng.randint(-2, 2)
        if quadratic:  # (0, s) on y^2 = c + lc x^(2g+1), s^2 = c
            tower = TowerSpec([("s", qp(-c, 0, 1))])
            f, y = qp(c), tower.gen(0)
        else:
            tower = QTRIV
            f, y = qp(c, d) ** 2, tower.rational(c)
        f = f + qp(*[0] * (2 * genus + 1), lc)
        jac = Jacobian.over_tower(make_curve(f), tower)
        cases += _first_multiples(jac, jac.embed(CurvePoint.affine(tower.rational(0), y)))
        for v_at_a in (0, rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2])):
            jac, B, D = _principal_pair(rng, genus, lc, quadratic, v_at_a)
            cases += [(jac, B, D), (jac, B, jac.neg(D))]

    seen = set()
    for jac, B, D in cases:
        adds = []
        monkeypatch.setattr(jac, "add", lambda B, D, add=jac.add: adds.append(1) or add(B, D))
        got = _adds_to_neg(jac, B, D)
        monkeypatch.undo()
        expected = adds_to_neg_by_addition(jac, B, D)
        assert got is expected
        if B.u.degree < jac.genus:
            branch = "deg u < g"
        elif B.u(-D.u.coeffs[0]) == jac.field.zero:
            branch = "u(a) = 0"
        else:
            branch = "identity"
        assert bool(adds) is (branch == "u(a) = 0")
        seen.add((branch, expected))
    assert seen == {
        ("deg u < g", False), ("u(a) = 0", True), ("u(a) = 0", False),
        ("identity", True), ("identity", False),
    }


def test_odd_check_has_no_ceiling_on_the_class_it_never_builds():
    """The quintic class at p = 7 has odd reduced order 81.  The exact check
    builds 40*D (2,519 bits) and never 41*D (2,652 bits), so a ceiling of
    770 digits (2,582 bits) that 41*D breaches still refutes; 700 digits
    (2,349 bits) stops 40*D and cannot decide.  The torsion decision
    refutes at both ceilings from the reduced orders at other primes."""
    D = Jacobian.over_q(QUINTIC).embed(QUINTIC_POINT)
    Jacobian.over_q(QUINTIC, 770).mul(40, D)
    with pytest.raises(HeightLimitExceeded):
        Jacobian.over_q(QUINTIC, 770).mul(41, D)
    with pytest.raises(HeightLimitExceeded):
        Jacobian.over_q(QUINTIC, 700).mul(40, D)
    assert _exact_verdict(Jacobian.over_q(QUINTIC, 770), QUINTIC_POINT, 81) == NotTorsion()
    below = _exact_verdict(Jacobian.over_q(QUINTIC, 700), QUINTIC_POINT, 81)
    assert isinstance(below, Undecidable)
    place = split_places(QTRIV, 7)[0]
    for ceiling in (770, 700):
        verdict = torsion_decide(QUINTIC_POINT, QUINTIC, QTRIV, 7, place, height_ceiling=ceiling)
        assert verdict == NotTorsion()


def test_reduce_divisor_over_q_needs_p_integral_coefficients():
    """On a Jacobian over QQ, reduce_divisor reduces Fraction coefficients
    with PrimeField.coerce: 3*D and 4*D of the quintic class (-1, 1), whose
    denominators divide 8 and 2 * 67^3, reduce to the F_p multiples at
    p = 11 and 13, and at p = 67 the reduction of 4*D is refused."""
    jq = Jacobian.over_q(QUINTIC)
    assert jq.field == QQ
    D = jq.embed(QUINTIC_POINT)
    multiples = {n: jq.mul(n, D) for n in (3, 4)}
    assert all(isinstance(c, Fraction) for c in multiples[4].u.coeffs + multiples[4].v.coeffs)
    for p in (11, 13):
        jp = Jacobian.over_prime_field(QUINTIC, p)
        w = split_places(QTRIV, p)[0]
        Dp = jp.embed(reduce_point(QUINTIC_POINT, QUINTIC, w))
        for n, E in multiples.items():
            assert reduce_divisor(E, w, jp) == jp.mul(n, Dp)
    assert any(c.denominator % 67 == 0 for c in multiples[4].u.coeffs + multiples[4].v.coeffs)
    j67 = Jacobian.over_prime_field(QUINTIC, 67)
    with pytest.raises(NonIntegralError, match="divisible by 67"):
        reduce_divisor(multiples[4], split_places(QTRIV, 67)[0], j67)


def _digits(D: MumfordDivisor) -> int:
    """Largest decimal digit count of a numerator or denominator of D over Q."""
    return max(
        len(str(abs(x)))
        for poly in (D.u, D.v)
        for q in poly.coeffs
        for x in (q.numerator, q.denominator)
    )


def test_height_ceiling_bounds_the_half_multiple():
    """The quintic class at p = 13 has reduced order 42.  The exact check's
    ceiling bounds 21*D, not 42*D: a ceiling between their digit counts,
    which building 42*D would breach, still decides, and one below 21*D's
    does not.  The torsion decision refutes at both ceilings from the
    reduced orders at other primes."""
    jac = Jacobian.over_q(QUINTIC)
    D = jac.embed(QUINTIC_POINT)
    d21, d42 = _digits(jac.mul(21, D)), _digits(jac.mul(42, D))
    between = 2 * d21
    assert d21 < between < d42
    with pytest.raises(HeightLimitExceeded):
        Jacobian.over_q(QUINTIC, between).mul(42, D)
    assert _exact_verdict(Jacobian.over_q(QUINTIC, between), QUINTIC_POINT, 42) == NotTorsion()
    below = _exact_verdict(Jacobian.over_q(QUINTIC, d21 // 2), QUINTIC_POINT, 42)
    assert isinstance(below, Undecidable)
    place = split_places(QTRIV, 13)[0]
    for ceiling in (between, d21 // 2):
        verdict = torsion_decide(QUINTIC_POINT, QUINTIC, QTRIV, 13, place, height_ceiling=ceiling)
        assert verdict == NotTorsion()


def test_torsion_decide_undecidable_on_reducible_relation():
    t16 = TowerSpec([("s", qp(-16, 0, 1))])  # reducible: (s-4)(s+4)
    c16 = make_curve(qp(16, 0, 0, 0, 0, 1))
    pt = CurvePoint.affine(t16.rational(0), t16.gen(0))
    place = split_places(t16, 11)[0]
    verdict = torsion_decide(pt, c16, t16, 11, place)
    # (0, s) reduces like (0, 4): order 5; the exact phase meets s as a
    # zero divisor only if an inversion is required; either outcome is sound
    assert isinstance(verdict, (CertifiedTorsion, Undecidable))


def test_torsion_decide_height_ceiling():
    curve = make_curve(qp(-4, 0, 0, 0, 0, 1))
    tower = TowerSpec([("r", qp(-3121, 0, 1))])  # x = 5: y^2 = 3121
    point = CurvePoint.affine(tower.rational(5), tower.gen(0))
    place = split_places(tower, 19)[0]
    verdict = torsion_decide(point, curve, tower, 19, place, height_ceiling=1)
    assert isinstance(verdict, Undecidable)


def test_height_ceiling_from_environment(monkeypatch):
    from tpe.jacobian import DEFAULT_HEIGHT_CEILING, height_ceiling_from_env

    monkeypatch.delenv("TPE_HEIGHT_CEILING", raising=False)
    assert height_ceiling_from_env() == DEFAULT_HEIGHT_CEILING
    monkeypatch.setenv("TPE_HEIGHT_CEILING", "1")
    assert height_ceiling_from_env() == 1
    curve = make_curve(qp(-4, 0, 0, 0, 0, 1))
    tower = TowerSpec([("r", qp(-3121, 0, 1))])
    point = CurvePoint.affine(tower.rational(5), tower.gen(0))
    place = split_places(tower, 19)[0]
    assert isinstance(torsion_decide(point, curve, tower, 19, place), Undecidable)
    monkeypatch.setenv("TPE_HEIGHT_CEILING", "0")
    with pytest.raises(ValueError):
        height_ceiling_from_env()
    # an explicit ceiling goes through the same check
    for ceiling in (0, -5):
        with pytest.raises(ValueError):
            Jacobian.over_tower(curve, tower, ceiling)
    assert Jacobian.over_tower(curve, tower, 1).height_ceiling == 1


def test_torsion_decide_preconditions():
    point = CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3))
    place = split_places(QTRIV, 11)[0]
    with pytest.raises(ValueError):
        torsion_decide(point, C9, QTRIV, 5, split_places(QTRIV, 5)[0])  # bad reduction
    big = TowerSpec([("a", qp(-2, 0, 1)), ("b", qp(-3, 0, 1))])
    with pytest.raises(ValueError):
        torsion_decide(point, C9, big, 11, place)
    even = make_curve(qp(-1, 0, 0, 42, 0, 0, 1))
    with pytest.raises(ValueError):
        torsion_decide(CurvePoint.infinity_plus(), even, QTRIV, 7, split_places(QTRIV, 7)[0])


def test_reduction_compatibility_on_example_points():
    # reduce-then-add equals add-then-reduce while the exact classes stay
    # w-integral with distinct reductions
    jq = Jacobian.over_tower(C34, T15)
    w = split_places(T15, 7)[0]
    j7 = Jacobian.over_prime_field(C34, 7)
    P = CurvePoint.affine(T15.rational(3), 4 * T15.gen(0))
    Q = CurvePoint.affine(T15.rational(-3), T15.rational(0))
    D1, D2 = jq.embed(P), jq.embed(Q)
    exact_sum = jq.add(D1, D2)
    assert reduce_divisor(exact_sum, w, j7) == j7.add(
        reduce_divisor(D1, w, j7), reduce_divisor(D2, w, j7)
    )
    # and over Q on the five-torsion example
    jq9 = Jacobian.over_q(C9)
    w11 = split_places(QTRIV, 11)[0]
    j11 = Jacobian.over_prime_field(C9, 11)
    D = jq9.embed(CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3)))
    for n in (2, 3, 4):
        assert reduce_divisor(jq9.mul(n, D), w11, j11) == j11.mul(n, j11.embed(ReducedPoint("affine", x=0, y=3)))


def test_neg_is_involution_negation():
    jac = Jacobian.over_prime_field(C9, 11)
    D = jac.embed(ReducedPoint("affine", x=0, y=3))
    E = jac.embed(ReducedPoint("affine", x=0, y=8))  # (0, -3)
    assert jac.neg(D) == E


def test_neg_is_minus_v_reduced_mod_u_over_every_domain():
    """neg(D) = (u, -v) equals (u, (-v) mod u), and D + neg(D) = 0, on
    random reduced classes over F_p (genus 2 and 3) and on the point
    classes and pairwise sums of `_points_and_sums_over` over Q and
    Q(sqrt 151)."""
    rng = random.Random(109)
    pairs = []
    for genus, p in ((2, 101), (3, 19)):
        jac = _oracle_jacobian(genus, p)
        pairs += [(jac, random_reduced_class(jac, rng)) for _ in range(20)]
    for tower in (QTRIV, TowerSpec([("s", qp(-151, 0, 1))])):
        jac, classes = _points_and_sums_over(tower)
        pairs += [(jac, D) for D in classes]
    assert {D.u.degree for _, D in pairs} >= {0, 1, 2}
    for jac, D in pairs:
        assert jac.neg(D) == MumfordDivisor(D.u, (-D.v) % D.u), D
        assert jac.add(D, jac.neg(D)) == jac.identity


@pytest.mark.parametrize(
    "case",
    ["place-over-13", "place-over-17", "residue-not-a-root", "p-2", "p-9",
     "p-minus-11", "p-2-pow-70", "ramified", "relation-not-p-integral"],
)
def test_torsion_decide_refuses_a_place_that_is_not_split_over_p(case):
    """torsion_decide runs only at a completely split place over an odd prime
    of good reduction; every other (p, place) pair is a ValueError."""
    rational = CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3))
    quadratic = CurvePoint.affine(T15.rational(3), 4 * T15.gen(0))
    c15 = make_curve(qp(15, 1, 0, 0, 0, 1))  # good reduction at 5
    t7 = TowerSpec([("s", qp(Fraction(1, 7), 0, 1))])
    args = {
        "place-over-13": (rational, C9, QTRIV, 11, split_places(QTRIV, 13)[0]),
        "place-over-17": (quadratic, C34, T15, 11, split_places(T15, 17)[0]),
        "residue-not-a-root": (quadratic, C34, T15, 7, ResidueAssignment(7, (2,))),
        "p-2": (rational, C9, QTRIV, 2, ResidueAssignment(2, ())),
        "p-9": (rational, C9, QTRIV, 9, ResidueAssignment(9, ())),
        "p-minus-11": (rational, C9, QTRIV, -11, ResidueAssignment(-11, ())),
        "p-2-pow-70": (rational, C9, QTRIV, 2**70, ResidueAssignment(2**70, ())),
        "ramified": (
            CurvePoint.affine(T15.rational(0), T15.gen(0)), c15, T15, 5,
            ResidueAssignment(5, (0,)),
        ),
        "relation-not-p-integral": (
            CurvePoint.affine(t7.rational(0), t7.rational(3)), C9, t7, 7,
            ResidueAssignment(7, (3,)),
        ),
    }[case]
    assert has_good_reduction(C9, 11) and has_good_reduction(c15, 5)
    with pytest.raises(ValueError):
        torsion_decide(*args)


@pytest.mark.parametrize(
    "p, message",
    [(9, "p = 9 is not an odd prime"),
     (2**70, f"p = {2**70} is beyond the 64-bit primality test")],
)
def test_one_message_for_a_p_that_is_not_an_odd_prime(p, message):
    """PrimeField is the only odd-prime test; every caller reports its text."""
    point = CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3))
    calls = [
        lambda: PrimeField(p),
        lambda: has_good_reduction(C9, p),
        lambda: split_places(QTRIV, p),
        lambda: split_places(T15, p),
        lambda: torsion_decide(point, C9, QTRIV, p, ResidueAssignment(p, ())),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
