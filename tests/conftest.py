"""Shared helpers: independent oracles kept deliberately separate from the
implementation paths they check (Sylvester determinants for resultants,
brute-force point counts, enumeration square roots, Cantor's full
composition, double-and-add from the lowest set bit, linear order scans,
baby-step giant-step over the generic Hasse-Weil interval and over the
narrowed one, enumerated Jacobian orders, and the exact n*D = 0 built in
full)."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from tpe.algebra import Poly, QQ, is_prime, legendre_symbol, small_divisors
from tpe.curve import CurvePoint, ReducedPoint
from tpe.jacobian import (
    Jacobian,
    MumfordDivisor,
    class_group_bound,
    class_group_interval,
    class_group_interval_from_count,
)


def qp(*coeffs) -> Poly:
    """Rational polynomial from low-to-high coefficients."""
    return Poly.over_q(coeffs)


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


def brute_force_count(f: Poly, p: int) -> int:
    """#C(F_p) by enumerating all (x, y) in F_p^2, plus infinity points."""
    cs = []
    for c in f.coeffs:
        assert c.denominator % p != 0
        cs.append(c.numerator * pow(c.denominator, -1, p) % p)
    total = 0
    for x in range(p):
        fx = 0
        for c in reversed(cs):
            fx = (fx * x + c) % p
        for y in range(p):
            if y * y % p == fx:
                total += 1
    if f.degree % 2 == 1:
        total += 1
    else:
        total += 2 if legendre_symbol(cs[-1], p) == 1 else 0
    return total


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


def cantor_add_reference(jac: Jacobian, D1, D2):
    """D1 + D2 by Cantor's composition with every step spelled out: two
    xgcds, the s3 term and both exact divisions by d, whatever d is; then
    reduction to deg u <= g."""
    u1, v1 = D1.u, D1.v
    u2, v2 = D2.u, D2.v
    d1, e1, e2 = u1.xgcd(u2)
    d, c1, c2 = d1.xgcd(v1 + v2)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u = (u1 * u2).exact_div(d * d)
    mixed = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + jac.f)
    v = mixed.exact_div(d) % u
    while u.degree > jac.genus:
        u_next = (jac.f - v * v).exact_div(u).monic()
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
