"""Shared helpers: independent oracles kept deliberately separate from the
implementation paths they check (Sylvester determinants for resultants,
polynomial construction one coerce call per coefficient, Horner's rule and
long division over every coefficient, zeros included,
plain-int brute-force point counts and roots, the extended Euclid on
Polys, enumeration square roots,
Cantor's full composition and reduction with squares taken as general products,
double-and-add from the lowest set bit, linear order scans, baby-step
giant-step over the generic Hasse-Weil interval and over the narrowed one,
the narrowed search recovering from its first match with plain `mul`, and
from a second match over the whole interval,
enumerated Jacobian orders, the exact n*D = 0 built in full,
B + D = -B by building B + D, the torsion decision with n found at p and
each other reduced order found by its own search, and the two-pass
Weierstrass family check)."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from tpe.algebra import (
    NonIntegralError,
    Poly,
    QQ,
    is_prime,
    reduce_poly_mod_p,
    roots_mod_p,
    small_divisors,
    splits_completely_mod_p,
)
from tpe.curve import (
    AFFINE,
    CurvePoint,
    ReducedPoint,
    has_good_reduction,
    is_weierstrass,
    reduce_point,
)
from tpe.jacobian import (
    Jacobian,
    MumfordDivisor,
    NotTorsion,
    _exact_verdict,
    class_group_bound,
    class_group_interval,
    class_group_interval_from_count,
    divisor_order,
)
from tpe.tower import TowerSpec, split_places


def qp(*coeffs) -> Poly:
    """Rational polynomial from low-to-high coefficients."""
    return Poly.over_q(coeffs)


def xgcd_reference(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Poly.xgcd as it stood with every remainder and cofactor a Poly:
    (g, s) with g = gcd(a, b) monic (or zero) and g = s*a mod b, the chain
    ending at a nonzero constant remainder."""
    field = a.field
    s0, s1 = Poly.const(field, field.one), Poly(field)
    while b.degree > 0:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
    if b:
        a, s0 = b, s1
    if not a:
        return a, s0
    inv = field.div(field.one, a.leading)
    return a * inv, s0 * inv


def sylvester_resultant(f: Poly, g: Poly) -> Fraction:
    """res(f, g) as the determinant of the Sylvester matrix, by fraction-exact
    Gaussian elimination; independent of the Euclidean-chain implementation."""
    m, n = f.degree, g.degree
    assert m >= 0 and n >= 0
    size = m + n
    if size == 0:
        return Fraction(1)
    rows = []
    fc = [f.coeff(m - i) for i in range(m + 1)]  # high to low
    gc = [g.coeff(n - i) for i in range(n + 1)]
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def construction_reference(field, coeffs) -> tuple:
    """The coefficients of Poly(field, coeffs) built one `coerce` call per
    coefficient, with trailing entries equal to field.zero stripped."""
    cs = [field.coerce(c) for c in coeffs]
    while cs and cs[-1] == field.zero:
        cs.pop()
    return tuple(cs)


def horner_dense_reference(f: Poly, x):
    """f(x) by Horner's rule over every coefficient, zeros included; x in
    the coefficient domain."""
    field = f.field
    x = field.coerce(x)
    acc = field.zero
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return field.coerce(acc)


def divmod_dense_reference(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(quotient, remainder) by long division that updates the remainder at
    every coefficient of b, the leading one and zero ones included."""
    field = a.field
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    dq = a.degree - b.degree
    if dq < 0:
        return Poly(field), a
    inv = field.div(field.one, b.leading)
    rem = list(a.coeffs)
    quo = [field.zero] * (dq + 1)
    for i in range(dq, -1, -1):
        c = field.coerce(rem[i + b.degree] * inv)
        quo[i] = c
        for j, bj in enumerate(b.coeffs):
            rem[i + j] = rem[i + j] - c * bj
    return Poly(field, quo), Poly(field, rem)


def brute_force_points(terms: dict[int, int], p: int) -> tuple[int, list[int]]:
    """(#C(F_p), [x in F_p with f(x) = 0]) for y^2 = f(x), f = sum of
    c * x^e over the int {e: c} of `terms`, lc(f) prime to p.  Every (x, y)
    in F_p^2 is tried, with f(x) summed term by term (no Horner, no Poly);
    infinity adds 1 on odd models and, on even ones, 2 when lc(f) is a
    square mod p (found by enumeration), else 0."""
    deg = max(terms)
    total, zeros = 0, []
    for x in range(p):
        fx = sum(c * pow(x, e, p) for e, c in terms.items()) % p
        if fx == 0:
            zeros.append(x)
        total += sum(1 for y in range(p) if y * y % p == fx)
    lc = terms[deg] % p
    if deg % 2:
        total += 1
    elif any(y * y % p == lc for y in range(1, p)):
        total += 2
    return total, zeros


def brute_force_count(f: Poly, p: int) -> int:
    """#C(F_p) of y^2 = f(x) for a p-integral rational f, by
    `brute_force_points` on its coefficients mod p."""
    terms = {}
    for e, c in enumerate(f.coeffs):
        assert c.denominator % p != 0
        terms[e] = c.numerator * pow(c.denominator, -1, p) % p
    return brute_force_points(terms, p)[0]


def sqrt_mod(a: int, p: int):
    """Smallest square root of a mod p, by enumeration; None if non-residue."""
    a %= p
    for y in range((p + 1) // 2 + 1):
        if y * y % p == a:
            return y
    return None


def random_reduced_class(jac: Jacobian, rng: random.Random):
    """A random nonzero divisor class: the sum of two random point classes,
    drawn again while that sum is the identity."""
    p = jac.field.p
    cs = jac.f.coeffs

    def random_point():
        while True:
            x = rng.randrange(p)
            fx = 0
            for c in reversed(cs):
                fx = (fx * x + c) % p
            y = sqrt_mod(fx, p)
            if y is not None:
                return ReducedPoint("affine", x=x, y=rng.choice([y, (-y) % p]))

    while True:
        D = jac.add(jac.embed(random_point()), jac.embed(random_point()))
        if D != jac.identity:
            return D


def _times(a: Poly, b: Poly) -> Poly:
    """a * b through the general product: a square multiplies by a copy, so
    Poly.__mul__'s path for `other is self` is never taken."""
    return a * Poly(b.field, b.coeffs)


def cantor_compose_reference(jac: Jacobian, D1, D2):
    """The unreduced (u, v) of Cantor's composition with every step spelled
    out: two xgcds, each second cofactor from its Bezout identity, the s3
    term and both exact divisions by d, whatever d is."""
    u1, v1 = D1.u, D1.v
    u2, v2 = D2.u, D2.v
    d1, e1 = u1.xgcd(u2)
    e2 = (d1 - e1 * u1).exact_div(u2)
    w = v1 + v2
    d, c1 = d1.xgcd(w)
    c2 = (d - c1 * d1).exact_div(w) if w else Poly(d.field)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u = _times(u1, u2).exact_div(_times(d, d))
    mixed = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (_times(v1, v2) + jac.f)
    return u, mixed.exact_div(d) % u


def cantor_add_reference(jac: Jacobian, D1, D2):
    """D1 + D2 by Cantor's full composition (`cantor_compose_reference`),
    then reduction to deg u <= g, each step forming f - v^2 in full."""
    u, v = cantor_compose_reference(jac, D1, D2)
    while u.degree > jac.genus:
        u_next = (jac.f - _times(v, v)).exact_div(u).monic()
        v = (-v) % u_next
        u = u_next
    return MumfordDivisor(u, v)


def mul_from_lowest_bit(jac: Jacobian, n: int, D):
    """n*D by double-and-add from the lowest set bit: the chain Jacobian.mul
    ran before it went left to right, which adds a doubled D to a running
    sum of large classes.  No height check of its own."""
    if n == 0:
        return jac.identity
    while not n & 1:
        D = jac.add(D, D)
        n >>= 1
    acc = D
    n >>= 1
    while n:
        D = jac.add(D, D)
        if n & 1:
            acc = jac.add(acc, D)
        n >>= 1
    return acc


def exact_multiple_is_zero(jac: Jacobian, n: int, D) -> bool:
    """n*D = 0 by building n*D and comparing it with the identity: the exact
    check that torsion_decide's half-multiple comparison replaced."""
    return jac.mul(n, D) == jac.identity


def adds_to_neg_by_addition(jac: Jacobian, B, D) -> bool:
    """B + D = -B by building B + D and comparing it with -B: the check of
    an odd n*D = 0 that the divisor-of-(y - V) test in torsion_decide
    replaced."""
    return jac.add(B, D) == jac.neg(B)


def linear_order(jac: Jacobian, D) -> int:
    """Order of a class over F_p by one Cantor addition per step until the
    identity: the linear scan that baby-step giant-step replaced."""
    zero = jac.identity
    acc = D
    for n in range(1, class_group_bound(jac.field.p, jac.genus) + 1):
        if acc == zero:
            return n
        acc = jac.add(acc, D)
    raise AssertionError("no order within the class-group bound")


def hasse_weil_order(jac: Jacobian, D) -> int:
    """Order of a class over F_p by baby-step giant-step over the generic
    Hasse-Weil interval, with no point count: s = isqrt(hi - lo) + 1 baby
    steps, giant steps from lo*D, and the primes of the first multiple m
    stripped while the cofactor, at least s, still kills D."""
    lo, hi = class_group_interval(jac.field.p, jac.genus)
    s = math.isqrt(hi - lo) + 1
    zero = jac.identity
    baby = {zero: 0}
    acc = D
    for j in range(1, s):
        if acc == zero:
            return j
        baby[acc] = j
        acc = jac.add(acc, D)
    giant = jac.mul(lo, D)
    for i in range(s + 1):
        j = baby.get(giant)
        if j is not None and lo + i * s > j:
            m = lo + i * s - j
            break
        giant = jac.add(giant, acc)
    else:
        raise AssertionError("no multiple of the order within the Hasse-Weil interval")
    for q in filter(is_prime, small_divisors(m)):
        while m % q == 0 and m // q >= s and jac.mul(m // q, D) == zero:
            m //= q
    return m


def narrowed_order(jac: Jacobian, D) -> int:
    """Order of a class over F_p by baby-step giant-step over the interval
    narrowed by #C(F_p): s = isqrt(hi - lo) + 1 baby steps j*D, giant steps
    lo*D + i*s*D, and the order recovered from the first multiple m one
    prime power at a time, with one (m/q^e)*D per prime q of m."""
    lo, hi = class_group_interval_from_count(jac.field.p, jac.genus, jac.curve_point_count)
    s = math.isqrt(hi - lo) + 1
    zero = jac.identity
    baby = {zero: 0}
    acc = D
    for j in range(1, s):
        if acc == zero:
            return j
        baby[acc] = j
        acc = jac.add(acc, D)
    giant = jac.mul(lo, D)
    for i in range(s + 1):
        j = baby.get(giant)
        if j is not None and lo + i * s > j:
            m = lo + i * s - j
            break
        giant = jac.add(giant, acc)
    else:
        raise AssertionError("no multiple of the order within the narrowed interval")
    order = 1
    for q in filter(is_prime, small_divisors(m)):
        k = m
        while k % q == 0:
            k //= q
        E = jac.mul(k, D)
        while E != zero:
            E = jac.mul(q, E)
            order *= q
    return order


def first_match_reference(jac: Jacobian, D) -> dict:
    """The order search as it stood before the second match: baby steps
    j*D for j < s = isqrt((hi - lo + 1) // 2) + 1 over the interval narrowed
    by #C(F_p), a table of +-j*D (+j wins a collision) and giant steps of
    stride t = 2s - 1 from q0*t, q0 = (lo + s - 1) // t.  Returns s, the
    start `first` and end `last` of the range the giant windows scan, and
    either the order found by the baby steps ("order") or the first
    multiple m1 a giant step matches ("m1")."""
    lo, hi = class_group_interval_from_count(jac.field.p, jac.genus, jac.curve_point_count)
    s = math.isqrt((hi - lo + 1) // 2) + 1
    t = 2 * s - 1
    q0 = (lo + s - 1) // t
    giants = range(q0 * t, hi + s, t)
    out = {"s": s, "first": giants[0] - s + 1, "last": giants[-1] + s - 1}
    zero = jac.identity
    baby = {zero: 0}
    prev, acc = zero, D
    for j in range(1, s):
        if acc == zero:
            return {**out, "order": j}
        baby[acc] = j
        baby.setdefault(jac.neg(acc), -j)
        prev, acc = acc, jac.add(acc, D)
    step = jac.add(acc, prev)
    giant = jac.mul(q0, step)
    for g in giants:
        j = baby.get(giant)
        if j is not None and g > j:
            return {**out, "m1": g - j}
        giant = jac.add(giant, step)
    raise AssertionError("no multiple of the order within the narrowed interval")


def order_dividing_reference(jac: Jacobian, D, m: int) -> int:
    """Order of D from a multiple m of it, by the product tree over the
    prime powers of m with every multiple built by plain `Jacobian.mul`."""
    factors = []
    for q in filter(is_prime, small_divisors(m)):
        e = 0
        while m % q**(e + 1) == 0:
            e += 1
        factors.append((q, e))

    def tree(E, factors):
        if E == jac.identity:
            return 1
        if len(factors) == 1:
            (q, e), = factors
            for k in range(1, e):
                E = jac.mul(q, E)
                if E == jac.identity:
                    return q**k
            return q**e
        half = len(factors) // 2
        left, right = factors[:half], factors[half:]
        right_part = math.prod(q**e for q, e in right)
        left_part = math.prod(q**e for q, e in left)
        return tree(jac.mul(right_part, E), left) * tree(jac.mul(left_part, E), right)

    return tree(D, factors)


def divisor_order_reference(jac: Jacobian, D) -> int:
    """The order search that took the second match and the table
    multiples: the first giant-step match (`first_match_reference`), then
    the product tree on m1 with plain `Jacobian.mul`
    (`order_dividing_reference`)."""
    found = first_match_reference(jac, D)
    if "order" in found:
        return found["order"]
    return order_dividing_reference(jac, D, found["m1"])


def second_match_reference(jac: Jacobian, D) -> dict:
    """The order search as it stood before the class that J(F_p)[2] fixes:
    the tables and giant steps of `first_match_reference` over the whole
    narrowed interval, then a walk past the first match m1 while a divisor
    d of m1 with d >= s, d > m1 - first and m1 + d <= last can still be the
    order, taking gcd(m1, m2) from a second match m2.  Returns s, first,
    last and either the order found by the baby steps ("order") or m1, the
    multiple m handed to the recovery and the order recovered from it with
    plain `mul` (`order_dividing_reference`)."""
    lo, hi = class_group_interval_from_count(jac.field.p, jac.genus, jac.curve_point_count)
    s = math.isqrt((hi - lo + 1) // 2) + 1
    t = 2 * s - 1
    q0 = (lo + s - 1) // t
    giants = range(q0 * t, hi + s, t)
    out = {"s": s, "first": giants[0] - s + 1, "last": giants[-1] + s - 1}
    zero = jac.identity
    baby = {zero: 0}
    prev, acc = zero, D
    for j in range(1, s):
        if acc == zero:
            return {**out, "order": j}
        baby[acc] = j
        baby.setdefault(jac.neg(acc), -j)
        prev, acc = acc, jac.add(acc, D)
    step = jac.add(acc, prev)
    giant = jac.mul(q0, step)
    m1 = m = None
    for g in giants:
        j = baby.get(giant)
        if j is not None and g > j:
            if m1 is not None:
                m = math.gcd(m1, g - j)
                break
            m1 = m = g - j
            low = max(s, m1 - out["first"] + 1)
            ds = [d for d in small_divisors(m1) if low <= d <= out["last"] - m1]
            reach = m1 + max(ds, default=0)
        if m1 is not None and g + s > reach:
            break
        giant = jac.add(giant, step)
    assert m1 is not None, "no multiple of the order within the narrowed interval"
    return {**out, "m1": m1, "m": m, "order": order_dividing_reference(jac, D, m)}


def reduced_orders_reference(point: CurvePoint, curve, p: int) -> dict[int, int]:
    """{q: order of P - infinity mod q} for p and the first two odd primes
    q != p of good reduction at which P, a point over Q, is q-integral (the
    primes torsion_decide consults), each order found by `divisor_order`."""
    q_tower = TowerSpec()

    def order_at(q: int) -> int:
        jac = Jacobian.over_prime_field(curve, q)
        reduced = reduce_point(point, curve, split_places(q_tower, q)[0])
        return divisor_order(jac, jac.embed(reduced))

    orders = {p: order_at(p)}
    q = 1
    while len(orders) < 3:
        q += 2
        if q == p or not is_prime(q) or not has_good_reduction(curve, q):
            continue
        try:
            orders[q] = order_at(q)
        except NonIntegralError:
            continue
    return orders


def torsion_decide_reference(point: CurvePoint, curve, p: int, height_ceiling=None):
    """torsion_decide for a point over Q as it stood with n found at p: the
    class is refuted when its reduced order at one of the first two usable
    primes q != p is not n, its reduced order at p, and goes to the exact
    check with n otherwise."""
    orders = reduced_orders_reference(point, curve, p)
    n = orders[p]
    if any(order != n for order in orders.values()):
        return NotTorsion()
    return _exact_verdict(Jacobian.over_q(curve, height_ceiling), point, n)


def mumford_classes(f: list[int], p: int, genus: int) -> list[tuple[list[int], list[int]]]:
    """Every element of J(F_p) for y^2 = f(x) of odd degree, as the reduced
    Mumford pairs (u, v): u monic with deg u <= genus, deg v < deg u and
    u | v^2 - f.  Polynomials are low-to-high int lists mod p."""

    def rem(a: list[int], u: list[int]) -> list[int]:
        a = [c % p for c in a]
        d = len(u) - 1
        for top in range(len(a) - 1, d - 1, -1):
            c = a[top]
            for i, ui in enumerate(u):
                a[top - d + i] = (a[top - d + i] - c * ui) % p
        return a[:d]

    def polys(length: int):
        for k in range(p**length):
            yield [(k // p**i) % p for i in range(length)]

    out = []
    for d in range(genus + 1):
        for low in polys(d):
            u = low + [1]
            for v in polys(d):
                sq = [0] * max(2 * d - 1, len(f))
                for i, a in enumerate(v):
                    for j, b in enumerate(v):
                        sq[i + j] += a * b
                for i, c in enumerate(f):
                    sq[i] -= c
                if not any(rem(sq, u)):
                    out.append((u, v))
    return out


def two_pass_family_check(h: Poly, doc) -> tuple[bool, str, tuple]:
    """(ok, detail, reductions) of a Weierstrass family entry with h, decided
    in two passes: the x^p test of `splits_completely_mod_p`, then
    `roots_mod_p` of a fresh reduction of h for the residues.  The refusals
    and their order are those of the one-pass check in `tpe.envelope`."""
    curve = doc.curve
    if h.degree < 1:
        return False, "family polynomial must be nonconstant", ()
    if curve.f % h:
        return False, "h does not divide f", ()
    if curve.odd_model and not is_weierstrass(doc.base_point, curve):
        return False, "odd-model Weierstrass certificate needs a Weierstrass base point", ()
    try:
        if not splits_completely_mod_p(h, doc.p):
            return False, f"h does not split into distinct linear factors mod {doc.p}", ()
    except ValueError as exc:
        return False, f"splitting test failed: {exc}", ()
    roots = roots_mod_p(reduce_poly_mod_p(h, doc.p))
    reductions = tuple(ReducedPoint(AFFINE, x=r, y=0) for r in sorted(roots))
    return True, f"{h.degree} Weierstrass points of h | f", reductions
