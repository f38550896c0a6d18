"""Tower ring arithmetic, inversion, split places, and reduction maps."""

import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import qp
from tpe.algebra import NonIntegralError, cyclotomic, discriminant
from tpe.curve import CurvePoint, make_curve
from tpe.docio import parse_document
from tpe.envelope import verify_tpe
from tpe.families import bundled_document_text
from tpe.jacobian import CertifiedTorsion, torsion_decide
from tpe.tower import (
    ResidueAssignment,
    TowerElement,
    TowerSpec,
    ZeroDivisorError,
    reduce_element,
    split_places,
    tower_invert,
)


def quad(d):
    return TowerSpec([("s", qp(-d, 0, 1))])


def test_relation_application():
    t = quad(15)
    s = t.gen(0)
    assert (s * s).is_rational() == 15
    t2 = TowerSpec([("u", qp(-2, 0, 0, 0, 0, 1))])
    u = t2.gen(0)
    assert (u ** 5).is_rational() == 2
    z5 = TowerSpec([("z", cyclotomic(5))])
    z = z5.gen(0)
    assert z ** 5 == z5.one
    assert (z + z ** 2 + z ** 3 + z ** 4).is_rational() == -1


def test_mixed_tower_products():
    t = TowerSpec([("z", cyclotomic(5)), ("u", qp(-12, 0, 0, 0, 0, 1))])
    z, u = t.gen(0), t.gen(1)
    x = -(z * u)
    assert (x ** 5).is_rational() == -12  # (-zu)^5 = -z^5 u^5 = -12
    assert (z * u) * (z ** 4 * u ** 4) == t.rational(12)


def test_tower_mismatch_rejected():
    a = quad(15).gen(0)
    b = quad(17).gen(0)
    with pytest.raises(ValueError):
        a + b


def test_invert_examples():
    t = quad(15)
    s = t.gen(0)
    assert tower_invert(s) * s == t.one
    assert tower_invert(s) == t.element({(1,): Fraction(1, 15)})
    inv = tower_invert(t.rational(1) + s)
    assert inv == t.element({(0,): Fraction(-1, 14), (1,): Fraction(1, 14)})
    assert inv * (t.rational(1) + s) == t.one


def test_invert_zero_divisor():
    t = quad(16)  # s^2 - 16 = (s-4)(s+4) is reducible
    with pytest.raises(ZeroDivisorError):
        tower_invert(t.gen(0) - t.rational(4))


def test_invert_rational_and_zero():
    t = TowerSpec()
    assert tower_invert(t.rational(Fraction(2, 3))) == t.rational(Fraction(3, 2))
    with pytest.raises(ZeroDivisionError):
        tower_invert(t.rational(0))
    big = TowerSpec([("a", qp(-2, 0, 1)), ("b", qp(-3, 0, 1))])
    with pytest.raises(ValueError):
        tower_invert(big.gen(0))


def test_division_operator():
    t = quad(15)
    s = t.gen(0)
    assert (t.one / s) * s == t.one
    assert s / s == t.one


def test_is_rational():
    t = quad(7)
    assert t.rational(3).is_rational() == 3
    assert t.gen(0).is_rational() is None
    assert t.zero.is_rational() == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        TowerSpec([("s", qp(-15, 0, 2))])  # not monic
    with pytest.raises(ValueError):
        TowerSpec([("s", qp(1, -2, 1))])  # (x-1)^2 not squarefree
    with pytest.raises(ValueError):
        TowerSpec([("s", qp(-15, 0, 1)), ("s", qp(-2, 0, 1))])  # dup name
    with pytest.raises(ValueError):
        TowerSpec([("s", qp(5))])  # degree 0


def test_split_places_quadratic():
    t = quad(15)
    places = split_places(t, 7)
    assert [w.residues for w in places] == [(1,), (6,)]
    assert split_places(quad(2), 11) == []  # 2 is a non-residue mod 11


def test_split_places_cartesian_product():
    from tpe.algebra import PrimeField

    t = TowerSpec(
        [("z", cyclotomic(5)), ("s", qp(-12, 0, 1)), ("u", qp(-12, 0, 0, 0, 0, 1))]
    )
    places = split_places(t, 11)
    assert len(places) == 4 * 2 * 5
    for w in places:
        for (name, rel), r in zip(t.generators, w.residues):
            assert rel.map_domain(PrimeField(11))(r) == 0


def test_split_places_trivial_tower():
    assert split_places(TowerSpec(), 11) == [ResidueAssignment(11, ())]


def test_split_places_rejections():
    t = quad(15)
    with pytest.raises(ValueError):
        split_places(t, 2)
    with pytest.raises(ValueError):
        split_places(t, 9)
    with pytest.raises(ValueError):
        split_places(t, 5)  # 5 | disc(s^2 - 15) = 60: ramified
    with pytest.raises(NonIntegralError):
        split_places(TowerSpec([("s", qp(Fraction(1, 7), 0, 1))]), 7)


def test_split_places_ramified_examples():
    for relation, p in ((qp(-15, 0, 1), 3), (qp(-15, 0, 1), 5), (cyclotomic(5), 5)):
        with pytest.raises(ValueError, match="ramified"):
            split_places(TowerSpec([("s", relation)]), p)


def test_split_places_ramification_matches_exact_q():
    """The ramification test runs in F_p; it must reject exactly the primes
    that divide the discriminant of a relation over Q."""
    rng = random.Random(89)
    seen = Counter()
    for _ in range(400):
        p = rng.choice((3, 5, 7, 11, 13))
        degree = rng.randrange(2, 7)
        if rng.random() < 0.5:
            a = rng.randrange(p)
            rest = qp(*[rng.randrange(-4, 5) for _ in range(degree - 2)], 1)
            noise = qp(*[p * rng.randrange(-2, 3) for _ in range(degree)])
            relation = qp(a * a, -2 * a, 1) * rest + noise
        else:
            den = rng.choice((1, 2, 3, 5, 7, 11, 13))
            coeffs = [Fraction(rng.randrange(-9, 10), den) for _ in range(degree)]
            relation = qp(*coeffs, 1)
        try:
            tower = TowerSpec([("a", relation)])
        except ValueError:
            continue  # not squarefree over Q
        if any(c.denominator % p == 0 for c in relation.coeffs):
            continue
        ramified = discriminant(relation).numerator % p == 0
        try:
            split_places(tower, p)
            assert not ramified, (relation, p)
        except ValueError as exc:
            assert ramified and "ramified" in str(exc), (relation, p)
        seen[ramified] += 1
    assert seen[True] >= 40 and seen[False] >= 40, seen


def test_all_or_nothing_splitting():
    rng = random.Random(31)
    for _ in range(60):
        d1 = rng.randrange(2, 40)
        t = TowerSpec([("a", qp(-d1, 0, 1)), ("b", cyclotomic(5))])
        p = rng.choice([7, 11, 13, 17, 19, 23])
        try:
            places = split_places(t, p)
        except ValueError:
            continue  # ramified draw
        assert len(places) in (0, 2 * 4)


def test_reduce_element_examples():
    t = quad(15)
    s = t.gen(0)
    w = split_places(t, 7)[0]
    assert w.residues == (1,)
    assert reduce_element(s, w) == 1
    assert reduce_element(4 * s, w) == 4
    with pytest.raises(NonIntegralError):
        reduce_element(t.rational(Fraction(1, 7)), w)


def test_reduce_element_is_homomorphism():
    t = TowerSpec([("z", cyclotomic(5)), ("u", qp(-12, 0, 0, 0, 0, 1))])
    places = split_places(t, 11)
    rng = random.Random(37)

    def random_elt():
        coeffs = {}
        for _ in range(rng.randrange(1, 5)):
            exps = (rng.randrange(4), rng.randrange(5))
            num = rng.randrange(-20, 21)
            den = rng.choice([1, 2, 3, 5, 7, 13])  # units mod 11
            coeffs[exps] = Fraction(num, den)
        return t.element(coeffs)

    for _ in range(1000):
        a, b = random_elt(), random_elt()
        w = places[rng.randrange(len(places))]
        p = w.p
        assert reduce_element(a + b, w) == (reduce_element(a, w) + reduce_element(b, w)) % p
        assert reduce_element(a * b, w) == (reduce_element(a, w) * reduce_element(b, w)) % p


def test_invert_consistency_randomized():
    rng = random.Random(41)
    t = quad(7)
    for _ in range(200):
        a = t.element({(0,): rng.randrange(-9, 10), (1,): rng.randrange(-9, 10)})
        if not a:
            continue
        assert tower_invert(a) * a == t.one


def test_only_polynomial_code_tests_tower_elements_for_truth(monkeypatch):
    """A tower element is false exactly when zero, and that truth test is
    asked only by the polynomial code in algebra.py.  A tower element was
    always true before it had __bool__, so a truth test anywhere else in
    the library would have changed meaning.  Recorded over the exact paths
    that handle tower elements: verifying the bundled Q(sqrt 15) document
    (a refutation) and deciding the order-5 class of (0, s) on
    y^2 = x^5 + 20 over Q(s), s^2 = 20, at both places over 11."""
    callers = Counter()

    def recorded(self):
        callers[os.path.basename(sys._getframe(1).f_code.co_filename)] += 1
        return bool(self.coeffs)

    monkeypatch.setattr(TowerElement, "__bool__", recorded)
    assert not verify_tpe(parse_document(bundled_document_text("quadratic_sqrt15.json"))).all_passed
    t20 = quad(20)
    curve = make_curve(qp(20, 0, 0, 0, 0, 1))
    point = CurvePoint.affine(t20.rational(0), t20.gen(0))
    for place in split_places(t20, 11):
        assert torsion_decide(point, curve, t20, 11, place) == CertifiedTorsion(5)
    assert callers and set(callers) == {"algebra.py"}, callers
