"""Kernel tests: integers, Legendre symbols, polynomials, discriminants,
splitting tests.  Expected values are either immediate or frozen from the
independent oracles in conftest."""

import math
import operator
import random
from fractions import Fraction

import pytest

from conftest import (
    construction_reference,
    divmod_dense_reference,
    horner_dense_reference,
    qp,
    sylvester_resultant,
)
from tpe.algebra import (
    NonIntegralError,
    Poly,
    PrimeField,
    QQ,
    cyclotomic,
    discriminant,
    integer_power_classification,
    is_prime,
    is_squarefree,
    legendre_symbol,
    rational_roots,
    reduce_poly_mod_p,
    resultant,
    roots_mod_p,
    small_divisors,
    splits_completely_mod_p,
    values_mod_p,
)
from tpe.tower import TowerElement, TowerSpec


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1)
    with pytest.raises(ValueError):
        is_prime(2**65)


def test_legendre_basics():
    assert legendre_symbol(0, 11) == 0
    assert legendre_symbol(1, 11) == 1
    # 15 = 1 mod 7 is a square: 1^2 = 15 mod 7
    assert legendre_symbol(15, 7) == 1
    assert legendre_symbol(2, 11) == -1


def test_legendre_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice([7, 11, 13, 31])
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)


def test_power_classification():
    p100 = integer_power_classification(100)
    assert (p100.tenth_power_free, p100.perfect_square, p100.perfect_fifth_power) == (
        True, True, False,
    )
    p1 = integer_power_classification(1)
    assert (p1.tenth_power_free, p1.perfect_square, p1.perfect_fifth_power) == (
        True, True, True,
    )
    p1024 = integer_power_classification(1024)
    assert (p1024.tenth_power_free, p1024.perfect_square, p1024.perfect_fifth_power) == (
        False, True, True,
    )
    neg = integer_power_classification(-32)
    assert not neg.perfect_square and neg.perfect_fifth_power
    with pytest.raises(ValueError):
        integer_power_classification(0)


def test_poly_divmod_identity_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a = qp(*[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(rng.randrange(0, 7))])
        b = qp(*[rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))])
        if not b:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert not r or r.degree < b.degree


def test_poly_ring_axioms_randomized():
    rng = random.Random(13)
    for _ in range(150):
        a, b, c = (
            qp(*[rng.randrange(-5, 6) for _ in range(rng.randrange(0, 5))])
            for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_poly_gcd_examples():
    assert qp(-1, 0, 1).gcd(qp(-1, 1)) == qp(-1, 1)
    f = qp(7, 0, 0, 0, 0, 1)
    assert f.gcd(f.derivative()).degree == 0
    q, r = divmod(qp(9, 0, 0, 0, 0, 1), qp(0, 1))
    assert q == qp(0, 0, 0, 0, 1) and r == qp(9)
    with pytest.raises(ZeroDivisionError):
        divmod(qp(1, 1), qp())


def test_xgcd_bezout_randomized():
    rng = random.Random(17)
    for _ in range(100):
        a = qp(*[rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))])
        b = qp(*[rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))])
        if not a or not b:
            continue
        g, s = a.xgcd(b)
        t = (g - s * a).exact_div(b)
        assert s * a + t * b == g
        assert not a % g and not b % g


def test_discriminant_examples():
    # x^2 - 15: disc = -4c for x^2 + c
    assert discriminant(qp(-15, 0, 1)) == 60
    # x^5 + d: closed form 5^5 d^4
    assert discriminant(qp(1, 0, 0, 0, 0, 1)) == 5**5
    assert discriminant(qp(7, 0, 0, 0, 0, 1)) == 5**5 * 7**4
    # x^6 + 42x^3 - 1
    assert discriminant(qp(-1, 0, 0, 42, 0, 0, 1)) == 3**6 * (4 + 42**2) ** 3
    with pytest.raises(ValueError):
        discriminant(qp(1, 1))


def test_resultant_against_sylvester_oracle():
    rng = random.Random(19)
    for _ in range(120):
        f = qp(*[rng.randrange(-6, 7) for _ in range(rng.randrange(2, 7))])
        g = qp(*[rng.randrange(-6, 7) for _ in range(rng.randrange(2, 7))])
        if f.degree < 1 or g.degree < 1:
            continue
        assert resultant(f, g) == sylvester_resultant(f, g)


def test_discriminant_vs_squarefree_randomized():
    rng = random.Random(23)
    for _ in range(150):
        f = qp(*[rng.randrange(-4, 5) for _ in range(rng.randrange(3, 9))])
        if f.degree < 2:
            continue
        assert (discriminant(f) != 0) == is_squarefree(f)


def test_is_squarefree_examples():
    assert is_squarefree(qp(7, 0, 0, 0, 0, 1))
    assert not is_squarefree(qp(1, -2, 1))  # (x-1)^2
    assert is_squarefree(qp(12, 4, -15, -5, 3, 1))  # roots 1,-1,2,-2,-3


def test_splits_completely_examples():
    assert splits_completely_mod_p(qp(-15, 0, 1), 7)
    assert splits_completely_mod_p(cyclotomic(5), 11)
    assert not splits_completely_mod_p(qp(-2, 0, 1), 11)
    # repeated roots mod p must fail the distinctness half
    assert not splits_completely_mod_p(qp(1, 2, 1), 7)  # (x+1)^2
    with pytest.raises(NonIntegralError):
        splits_completely_mod_p(qp(Fraction(1, 7), 0, 1), 7)
    with pytest.raises(ValueError):
        splits_completely_mod_p(Poly.over_q([1, 0, 7]), 7)  # lc = 0 mod p


def test_splits_vs_root_enumeration_oracle():
    rng = random.Random(29)
    for _ in range(250):
        p = rng.choice([3, 5, 7, 11, 13, 17, 23, 31, 41, 47])
        deg = rng.randrange(1, 7)
        coeffs = [rng.randrange(-10, 11) for _ in range(deg)] + [1]
        g = qp(*coeffs)
        expected = len(roots_mod_p(reduce_poly_mod_p(g, p))) == deg
        assert splits_completely_mod_p(g, p) == expected


def test_roots_mod_p_examples():
    assert roots_mod_p(reduce_poly_mod_p(qp(-15, 0, 1), 7)) == [1, 6]
    xp = qp(*([-1] + [0] * 5 + [1]))  # x^6 - 1 mod 7
    assert roots_mod_p(reduce_poly_mod_p(xp, 7)) == [1, 2, 3, 4, 5, 6]
    assert roots_mod_p(reduce_poly_mod_p(qp(1, 0, 1), 7)) == []


def test_cyclotomic_small():
    assert cyclotomic(1) == qp(-1, 1)
    assert cyclotomic(2) == qp(1, 1)
    assert cyclotomic(5) == qp(1, 1, 1, 1, 1)
    assert cyclotomic(12) == qp(1, 0, -1, 0, 1)
    assert cyclotomic(16) == qp(*([1] + [0] * 7 + [1]))
    # product of all Phi_d over d | n recovers x^n - 1
    for n in (6, 10, 12):
        prod = qp(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == qp(*([-1] + [0] * (n - 1) + [1]))


def test_rational_roots():
    assert rational_roots(qp(-1, 0, 0, 0, 0, 0, 1)) == [-1, 1]  # x^6 - 1
    assert rational_roots(qp(0, -1, 0, 0, 0, 0, 0, 1)) == [-1, 0, 1]  # x^7 - x
    f = qp(12, 4, -15, -5, 3, 1)
    assert rational_roots(f) == [-3, -2, -1, 1, 2]
    assert rational_roots(qp(-2, 0, 1)) == []  # x^2 - 2
    third = qp(Fraction(-1, 3), 1)  # x - 1/3
    assert rational_roots(third) == [Fraction(1, 3)]


def test_prime_field_arithmetic():
    field = PrimeField(11)
    a, b = field.coerce(7), field.coerce(9)
    assert field.coerce(a + b) == 5
    assert field.coerce(a * b) == 8
    assert field.coerce(field.div(a, b) * b) == a
    assert field.coerce(-a) == 4
    assert Poly.const(field, a) ** 10 == Poly.const(field, field.one)  # Fermat
    assert field.coerce(Fraction(3, 4)) == 9  # 4 * 9 = 36 = 3 mod 11
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(NonIntegralError):
        field.coerce(Fraction(1, 11))


def test_prime_field_refuses_mixed_moduli_and_zero_division():
    # F_p elements are plain ints, so a modulus mix-up is refused by the
    # domain checks of Poly, not by the elements
    f7, f11 = reduce_poly_mod_p(qp(1, 2, 3), 7), reduce_poly_mod_p(qp(1, 2, 3), 11)
    assert f7.coeffs == f11.coeffs and f7 != f11
    for op in (operator.add, operator.sub, operator.mul, divmod, Poly.gcd, Poly.xgcd, resultant):
        with pytest.raises(ValueError):
            op(f7, f11)
    field = PrimeField(7)
    for zero in (0, 14, -7):
        with pytest.raises(ZeroDivisionError):
            field.div(3, zero)
    with pytest.raises(ZeroDivisionError):
        divmod(f7, Poly(field))
    with pytest.raises(NonIntegralError):
        field.coerce(Fraction(1, 7))
    assert field.coerce(-1) == 6 and field.div(-1, 3) == 2  # 3 * 2 = -1 mod 7


def test_fp_poly_ops_match_q_reduced():
    """Each F_p operation on reductions equals the same operation over Q
    (Fraction arithmetic, the independent side), reduced mod p, whenever the
    leading coefficients are units mod p."""
    rng = random.Random(31)

    def rand_poly(max_deg):
        return qp(*[rng.randrange(-9, 10) for _ in range(rng.randrange(1, max_deg + 2))])

    gcd_checked = nontrivial = 0
    for _ in range(400):
        p = rng.choice((3, 5, 7, 11, 13))
        field = PrimeField(p)
        common = rand_poly(2)
        a, b = rand_poly(5) * common, rand_poly(3) * common
        ap, bp = reduce_poly_mod_p(a, p), reduce_poly_mod_p(b, p)
        assert ap * bp == reduce_poly_mod_p(a * b, p)
        assert ap - bp == reduce_poly_mod_p(a - b, p)
        if not a or not b or ap.degree != a.degree or bp.degree != b.degree:
            continue
        q, r = divmod(a, b)
        assert divmod(ap, bp) == (reduce_poly_mod_p(q, p), reduce_poly_mod_p(r, p))
        assert bp.monic() == reduce_poly_mod_p(b.monic(), p)
        g, s = ap.xgcd(bp)
        t = (g - s * ap).exact_div(bp)
        assert s * ap + t * bp == g == ap.gcd(bp)
        assert g.leading == 1 and not ap % g and not bp % g
        assert resultant(ap, bp) == field.coerce(resultant(a, b))
        if a.degree >= 2:
            assert discriminant(ap) == field.coerce(discriminant(a))
        # gcd commutes with reduction exactly when the cofactors stay coprime
        G = a.gcd(b)
        Gp = reduce_poly_mod_p(G, p)
        assert not g % Gp
        if field.coerce(resultant(a.exact_div(G), b.exact_div(G))) != 0:
            assert g == Gp
            gcd_checked += 1
            nontrivial += G.degree > 0
    assert gcd_checked >= 100 and nontrivial >= 50


def _domains():
    """(name, field, random coefficient) for QQ, F_3, F_101, F_199 and
    Q(sqrt 151); about a quarter of the rationals and F_p elements drawn are
    zero."""
    q151 = TowerSpec([("s", qp(-151, 0, 1))])
    s = q151.gen(0)

    def rational(rng):
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) if rng.random() > 0.25 else 0

    def residue(p):
        return lambda rng: rng.randrange(p) if rng.random() > 0.25 else 0

    return [
        ("QQ", QQ, rational),
        ("F_3", PrimeField(3), residue(3)),
        ("F_101", PrimeField(101), residue(101)),
        ("F_199", PrimeField(199), residue(199)),
        ("Q(sqrt151)", q151, lambda rng: rational(rng) + rational(rng) * s),
    ]


def _sparse_and_dense(field, coeff, rng, count, max_deg):
    """The zero polynomial, constants, x^k, and `count` seeded polynomials
    of degree below max_deg: half sparse (one to four nonzero terms, gaps
    above 1, often a trailing x^k factor), half dense (gaps of 1, and of 2
    where a zero is drawn)."""

    def nonzero(rng):
        c = field.zero
        while c == field.zero:
            c = field.coerce(coeff(rng))
        return c

    polys = [Poly(field), Poly.const(field, nonzero(rng)), Poly(field, (0, 0, 0, 1))]
    for n in range(count):
        deg = rng.randrange(1, max_deg)
        if n % 2:
            polys.append(Poly(field, [coeff(rng) for _ in range(deg)] + [nonzero(rng)]))
            continue
        low = rng.choice((0, 0, 1, rng.randrange(deg + 1)))
        support = {low, deg} | set(rng.sample(range(low, deg + 1), min(2, deg + 1 - low)))
        cs = [field.zero] * (deg + 1)
        for e in support:
            cs[e] = nonzero(rng)
        polys.append(Poly(field, cs))
    return polys


@pytest.mark.parametrize("name, field, coeff", _domains(), ids=[d[0] for d in _domains()])
def test_evaluation_matches_dense_horner(name, field, coeff):
    """P(x) (Horner over the nonzero terms, x^gap between them and x^k for a
    trailing factor) equals Horner over every coefficient, at every residue
    over F_p (where values_mod_p must agree too) and at x = 0, 1 and seeded
    x elsewhere; over the tower, a rational P at a tower point equals its
    lift there."""
    rng = random.Random(47)
    fp = isinstance(field, PrimeField)
    xs = range(field.p) if fp else [field.zero, field.one] + [coeff(rng) for _ in range(4)]
    for P in _sparse_and_dense(field, coeff, rng, 40, 40):
        expected = [horner_dense_reference(P, x) for x in xs]
        assert [P(x) for x in xs] == expected, P
        if fp:
            assert values_mod_p(P, xs) == expected, P
    if isinstance(field, TowerSpec):
        for P in _sparse_and_dense(QQ, lambda rng: rng.randrange(-9, 10), rng, 20, 30):
            for x in xs:
                assert P(x) == horner_dense_reference(P.map_domain(field), x), (P, x)


@pytest.mark.parametrize("name, field, coeff", _domains(), ids=[d[0] for d in _domains()])
def test_division_matches_dense_long_division(name, field, coeff):
    """divmod (updates at the divisor's nonzero terms below its leading
    one) equals long division over every divisor coefficient, for sparse
    and dense dividends and divisors, divisors that are not monic and have
    zeros inside, constant divisors and a zero dividend."""
    rng = random.Random(53)
    dividends = _sparse_and_dense(field, coeff, rng, 16, 30)
    divisors = [b for b in _sparse_and_dense(field, coeff, rng, 16, 10) if b]
    assert divisors[0].degree == 0
    assert any(b.leading != field.one and field.zero in b.coeffs[1:-1] for b in divisors)
    for a in dividends:
        for b in rng.sample(divisors, 6) + [divisors[0]]:
            q, r = divmod(a, b)
            assert (q, r) == divmod_dense_reference(a, b), (a, b)
            assert q * b + r == a and r.degree < b.degree


@pytest.mark.parametrize("name, field, coeff", _domains(), ids=[d[0] for d in _domains()])
def test_square_equals_the_general_product(name, field, coeff):
    """P * P (the square path, a_i ** 2 and 2 a_i a_j) equals P times a copy
    of P (the general product), with zero coefficients inside and at the
    low end, and for the zero and constant polynomials."""
    rng = random.Random(41)
    polys = [Poly(field), Poly.const(field, field.one), Poly(field, (0, 0, 3, 0, 1))]
    polys += [Poly(field, [coeff(rng) for _ in range(rng.randrange(1, 9))]) for _ in range(60)]
    for P in polys:
        assert P * P == P * Poly(P.field, P.coeffs), P


@pytest.mark.parametrize("name, field, coeff", _domains(), ids=[d[0] for d in _domains()])
def test_xgcd_bezout_monic_common_divisor(name, field, coeff):
    """g = s a + t b with g monic, g | a, g | b and g = a.gcd(b) (plain
    Euclid), on seeded pairs with and without a common factor, constant and
    zero arguments, and a = b.  The kinds of chain end are recorded: a
    nonzero constant remainder (gcd 1) and a zero remainder."""
    rng = random.Random(43)

    def rand(max_len):
        return Poly(field, [coeff(rng) for _ in range(rng.randrange(1, max_len + 1))])

    pairs = []
    for _ in range(40):
        common = rand(3)
        pairs.append((rand(5), rand(4)))
        pairs.append((rand(4) * common, rand(3) * common))
    c = Poly.const(field, field.coerce(3))
    pairs += [(c, rand(5)), (rand(5), c), (Poly(field), rand(4)), (rand(4), Poly(field))]
    pairs += [(P, P) for P in (rand(5), rand(5), c)] + [(Poly(field), Poly(field))]
    ends = set()
    for a, b in pairs:
        g, s = a.xgcd(b)
        t = (g - s * a).exact_div(b) if b else Poly(field)
        assert s * a + t * b == g and g == a.gcd(b), (a, b)
        if not a and not b:
            assert not g
            continue
        assert g.leading == field.one and not a % g and not b % g, (a, b)
        ends.add("gcd 1" if g.degree == 0 else "gcd of positive degree")
    assert ends == {"gcd 1", "gcd of positive degree"}


def test_power_is_repeated_products_and_a_square_one_product(monkeypatch):
    """x ** e equals x * ... * x (e factors, 1 for e = 0) for e = 0..9 over
    Fraction, Q(sqrt 151) and Poly over QQ, F_p and a tower; x ** 2 calls
    __mul__ once for TowerElement and Poly."""
    q151 = TowerSpec([("s", qp(-151, 0, 1))])
    s = q151.gen(0)
    values = [
        (Fraction(-3, 7), Fraction(1)),
        (Fraction(2, 3) + Fraction(-5, 4) * s, q151.one),
        (qp(Fraction(1, 2), -3, 0, 2), qp(1)),
        (Poly(PrimeField(13), (5, 0, 7)), Poly(PrimeField(13), (1,))),
        (Poly(q151, (s, 0, Fraction(1, 3) - s)), Poly(q151, (q151.one,))),
    ]
    for x, one in values:
        acc = one
        for e in range(10):
            assert x**e == acc, (x, e)
            acc = acc * x
    for cls, x in ((TowerElement, values[1][0]), (Poly, values[2][0]), (Poly, values[4][0])):
        calls = []
        mul = cls.__mul__
        monkeypatch.setattr(cls, "__mul__", lambda a, b, mul=mul: calls.append(1) or mul(a, b))
        assert x**2 == mul(x, x)
        assert len(calls) == 1, (cls, x)
        monkeypatch.undo()


Q151 = TowerSpec([("s", qp(-151, 0, 1))])
CONSTRUCTION_DOMAINS = [QQ, PrimeField(3), PrimeField(199), Q151]


def _construction_input(field, rng):
    """One constructor input for `field`: a negative int, an int >= p, a
    bool, an integral, a non-integral or a zero Fraction, a plain 0, a small
    int, or (over the tower) an element of that tower, zero included;
    non-integral denominators are prime to p (p = 7 off F_p)."""
    p = getattr(field, "p", 7)
    kind = rng.randrange(9 if isinstance(field, TowerSpec) else 7)
    if kind == 0:
        return -rng.randrange(1, 3 * p)
    if kind == 1:
        return rng.randrange(p, 3 * p)
    if kind == 2:
        return rng.random() < 0.5
    if kind == 3:
        return Fraction(rng.randrange(-3 * p, 3 * p))
    if kind == 4:
        den = rng.choice([d for d in range(2, 10) if d % p])
        return Fraction(rng.randrange(-9, 10), den)
    if kind == 5:
        return rng.choice((0, Fraction(0)))
    if kind == 6:
        return rng.randrange(-5, 6)
    s = field.gen(0)
    return field.zero if kind == 7 else Fraction(rng.randrange(-4, 5), 3) + rng.randrange(-3, 4) * s


def _zero_inputs(field):
    """Inputs that are zero in `field`: 0, False, Fraction(0), p and -2p over
    F_p, and the tower's zero."""
    zeros = [0, False, Fraction(0)]
    if isinstance(field, PrimeField):
        zeros += [field.p, -2 * field.p]
    if isinstance(field, TowerSpec):
        zeros += [field.zero]
    return zeros


@pytest.mark.parametrize("field", CONSTRUCTION_DOMAINS, ids=repr)
def test_construction_and_coefficient_passes_match_the_dense_reference(field):
    """Poly(field, coeffs) (bulk coercion, zero tests by truthiness) equals
    one coerce call per coefficient with trailing zeros stripped, value and
    type, on seeded mixed inputs with trailing zeros; the derivative, scalar
    products and monic (which skip zero coefficients) equal their forms
    over every coefficient."""
    rng = random.Random(59)
    zeros = _zero_inputs(field)
    seen = set()
    for _ in range(150):
        cs = [_construction_input(field, rng) for _ in range(rng.randrange(0, 9))]
        cs += rng.sample(zeros, rng.randrange(0, 3))
        P = Poly(field, cs)
        ref = construction_reference(field, cs)
        assert P.coeffs == ref and list(map(type, P.coeffs)) == list(map(type, ref)), cs
        seen.update(type(c).__name__ for c in cs)
        assert P.derivative().coeffs == construction_reference(
            field, [c * i for i, c in enumerate(P.coeffs)][1:]
        ), P
        for c in (0, 1, _construction_input(field, rng)):
            c = field.coerce(c)
            assert (P * c).coeffs == construction_reference(field, [a * c for a in P.coeffs]), (P, c)
        if P:
            inv = field.div(field.one, P.leading)
            assert P.monic().coeffs == construction_reference(field, [a * inv for a in P.coeffs]), P
    assert {"int", "bool", "Fraction"} <= seen
    assert ("TowerElement" in seen) == isinstance(field, TowerSpec)


def test_rational_roots_match_fraction_scaling():
    """rational_roots (integer scaling numerator * (lcm // denominator)) gives
    the roots found by scaling with Fraction products and testing every
    candidate with dense Horner, on seeded products of linear factors with
    non-integral coefficients, x^k factors included; the planted roots are
    among them."""
    rng = random.Random(61)
    for _ in range(40):
        planted = {Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))}
        f = qp(*([0] * rng.randrange(0, 3) + [Fraction(rng.randrange(1, 5), rng.randrange(1, 7))]))
        for r in planted:
            f = f * qp(-r, 1)
        f = f * qp(Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)), Fraction(1, rng.randrange(1, 5)), 1)
        cs = list(f.coeffs)
        roots = {Fraction(0)} if cs[0] == 0 else set()
        while cs[0] == 0:
            cs.pop(0)
        lcm = math.lcm(*(c.denominator for c in cs))
        ics = [int(c * lcm) for c in cs]
        candidates = {
            sign * Fraction(num, den)
            for num in small_divisors(ics[0]) for den in small_divisors(ics[-1]) for sign in (1, -1)
        }
        roots |= {r for r in candidates if horner_dense_reference(f, r) == 0}
        assert rational_roots(f) == sorted(roots), f
        assert planted <= roots, f


@pytest.mark.parametrize("field", CONSTRUCTION_DOMAINS, ids=repr)
def test_construction_refuses_exactly_what_coerce_refuses(field):
    """Poly(field, [1, bad]) raises what field.coerce(bad) raises, same type
    and message, falsy values included (none of them becomes a zero
    coefficient): a p-adic denominator gives NonIntegralError over F_p, an
    element of another tower ValueError over a tower, the rest TypeError."""
    other = TowerSpec([("r", qp(-2, 0, 1))])
    bads = [None, 0.0, "", 1.5, [], other.gen(0), other.zero]
    if isinstance(field, PrimeField):
        bads += [Fraction(1, field.p), Fraction(5, 2 * field.p)]
    for bad in bads:
        with pytest.raises(Exception) as want:
            field.coerce(bad)
        if isinstance(bad, Fraction):
            assert want.type is NonIntegralError
        elif isinstance(bad, TowerElement) and isinstance(field, TowerSpec):
            assert want.type is ValueError
        else:
            assert want.type is TypeError
        for cs in ([1, bad], [bad], [bad, 1]):
            with pytest.raises(Exception) as got:
                Poly(field, cs)
            assert (got.type, str(got.value)) == (want.type, str(want.value)), (field, cs)


def test_tower_elements_are_false_exactly_when_zero():
    s = Q151.gen(0)
    assert bool(Q151.zero) is False and bool(Q151.one) is True
    assert bool(s - s) is False and bool(s) is True and bool(s * s - 151) is False
    assert bool(Q151.rational(Fraction(1, 3))) is True and bool(Q151.rational(0)) is False
