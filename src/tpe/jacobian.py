"""Divisor-class arithmetic in Mumford representation via Cantor's algorithm.

Only odd-degree (imaginary) models are supported: a reduced class is a pair
(u, v) with u monic of degree <= g, deg v < deg u and u | v^2 - f, and the
identity is (1, 0).  The same code runs over F_p (ints), over Q (`QQ`,
plain Fractions, also for the tower with no generator) and over a
single-generator number field; exact runs guard against coefficient
blow-up with a configurable digit ceiling.  A Jacobian is built from its
curve and asks the curve module for facts about C: #C(F_p), and with it the
refusal of bad reduction, is `count_points_mod_p`.

Addition is one Cantor composition that skips the steps whose outcome is
known and lifts v with small polynomials (a Garner CRT lift for coprime
u's, a Hensel lift for doublings off the Weierstrass points);
multiplication is double-and-add from the highest bit, so it only ever
adds D itself to a large class.  The order of a class over F_p is a
baby-step giant-step search over the interval for #J(F_p) narrowed by
#C(F_p): a table of +-j*D for j < s, giant steps of stride 2s - 1, and the
order recovered from the multiple found with a product tree over its
primes.  The exact torsion
check decides n*D = 0 by comparing ceil(n/2)*D with -floor(n/2)*D, built
as B = floor(n/2)*D and B + D, so its height ceiling bounds the half
multiples and the binary prefixes of floor(n/2) built on the way, about a
quarter of the bits of n*D.

Everything is pure and immutable, except that a Jacobian over F_p caches
#C(F_p) on first use (two threads may both count it, with one result); an
order search over F_p is internally sequential, but independent torsion
decisions can run concurrently.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from tpe.algebra import QQ, NonIntegralError, Poly, PrimeField
from tpe.curve import (
    AFFINE,
    CurvePoint,
    HyperellipticCurve,
    INF,
    ReducedPoint,
    count_points_mod_p,
    has_good_reduction,
    on_curve,
    reduce_point,
)
from tpe.tower import (
    ResidueAssignment,
    TowerElement,
    TowerSpec,
    ZeroDivisorError,
    reduce_element,
    split_places,
)

DEFAULT_HEIGHT_CEILING = 1_000_000  # decimal digits per numerator/denominator


def resolve_height_ceiling(value: int | None = None) -> int:
    """The digit ceiling: `value`, or TPE_HEIGHT_CEILING (default 1000000)
    when it is None.  One check serves the flag, the variable and the
    library: a ceiling below 1 is refused with ValueError."""
    if value is None:
        value = int(os.environ.get("TPE_HEIGHT_CEILING", DEFAULT_HEIGHT_CEILING))
    if value < 1:
        raise ValueError(f"height ceiling must be a positive digit count, not {value}")
    return value


def height_ceiling_from_env() -> int:
    return resolve_height_ceiling()


class HeightLimitExceeded(ArithmeticError):
    """Exact coefficients outgrew the configured digit ceiling."""


@dataclass(frozen=True)
class MumfordDivisor:
    u: Poly
    v: Poly

    def __repr__(self):
        return f"[u = {self.u!r}, v = {self.v!r}]"


class Jacobian:
    """The divisor class group of an odd-model curve over an exact field,
    built by `over_prime_field`, `over_tower` or `over_q`: F_p (ints), Q
    (`QQ`, plain Fractions, also for a tower with no generator) or a
    one-generator tower.  The one test is that f keeps its odd degree in the
    field: it refuses even models and a p dividing lc(f)."""

    def __init__(self, curve: HyperellipticCurve, field, height_ceiling: int | None = None):
        f = curve.f.map_domain(field)
        if not curve.odd_model or f.degree != curve.degree:
            raise ValueError("Cantor arithmetic needs an odd-degree model")
        self.curve = curve
        self.field = field
        self.f = f
        self.genus = curve.genus
        self.height_ceiling = height_ceiling

    @classmethod
    def over_prime_field(cls, curve: HyperellipticCurve, p: int) -> "Jacobian":
        return cls(curve, PrimeField(p))

    @classmethod
    def over_tower(
        cls,
        curve: HyperellipticCurve,
        tower: TowerSpec,
        height_ceiling: int | None = None,
    ) -> "Jacobian":
        if tower.k > 1:
            raise ValueError("exact arithmetic supports at most one generator")
        return cls(curve, tower if tower.k else QQ, resolve_height_ceiling(height_ceiling))

    @classmethod
    def over_q(cls, curve: HyperellipticCurve, height_ceiling: int | None = None):
        return cls.over_tower(curve, TowerSpec(), height_ceiling)

    @cached_property
    def curve_point_count(self) -> int:
        """#C(F_p) over a prime field, counted on first use by
        `count_points_mod_p`, which refuses bad reduction with ValueError."""
        return count_points_mod_p(self.curve, self.field.p)

    @property
    def identity(self) -> MumfordDivisor:
        one = Poly.const(self.field, self.field.one)
        return MumfordDivisor(one, Poly(self.field))

    def embed(self, point) -> MumfordDivisor:
        """The class of P minus the point at infinity: (x - a, b) for affine
        P = (a, b), identity for the base point at infinity.  Over Q the
        coordinates of a point of the tower Q (no generator) enter as their
        rational values."""
        if not isinstance(point, (CurvePoint, ReducedPoint)):
            raise TypeError("embed expects a CurvePoint or ReducedPoint")
        if point.kind == INF:
            return self.identity
        if point.kind != AFFINE:
            raise ValueError("even-model infinity cannot be embedded")
        x, y = point.x, point.y
        if self.field == QQ and isinstance(x, TowerElement):
            if x.tower.k:
                raise ValueError("tower mismatch")
            x, y = x.is_rational(), y.is_rational()
        u = Poly(self.field, (-x, self.field.one))
        v = Poly.const(self.field, y)
        D = MumfordDivisor(u, v)
        if not self.on_jacobian(D):
            raise ValueError("point does not satisfy y^2 = f(x) in this domain")
        return D

    def on_jacobian(self, D: MumfordDivisor) -> bool:
        if D.u.is_zero or D.u.leading != self.field.one:
            return False
        if not D.v.is_zero and D.v.degree >= D.u.degree:
            return False
        return ((D.v * D.v - self.f) % D.u).is_zero

    def neg(self, D: MumfordDivisor) -> MumfordDivisor:
        return MumfordDivisor(D.u, (-D.v) % D.u)

    def add(self, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
        """Cantor composition followed by reduction to deg u <= g.

        Composition skips the steps whose result is known in advance and
        lifts v with the smallest polynomials that give it.  A doubling takes
        (d1, e1, e2) = (u1, 0, 1), which is what u1.xgcd(u1) returns for a
        monic u1.  When u1 and u2 are coprime (d1 = 1, the generic sum) the
        second xgcd and the s3 term (multiplied by 0) go: v is the CRT lift
        of v1 mod u1 and v2 mod u2 in Garner form,
        v1 + u1 ((v2 - v1) e1 mod u2).  A doubling with gcd(u, 2v) = 1 (no
        Weierstrass point in the support) is a Hensel lift: with
        c = (2v)^-1 mod u, v' = v + u (c (f - v^2)/u mod u) is v mod u with
        u^2 | v'^2 - f.  Every other case runs the full composition, never
        dividing by a d of 1.  A reduced (u, v) is unique, so the sum is the
        one full Cantor gives.
        """
        u1, v1 = D1.u, D1.v
        u2, v2 = D2.u, D2.v
        doubling = D1 == D2
        if doubling:
            d1, e1, e2 = u1, Poly(self.field), Poly.const(self.field, self.field.one)
        else:
            d1, e1, e2 = u1.xgcd(u2)
        if d1.degree == 0:
            u = u1 * u2
            v = v1 + u1 * ((v2 - v1) * e1 % u2)
        else:
            d, c1, c2 = d1.xgcd(v1 + v2)
            if doubling and d.degree == 0:
                u = u1 * u1
                v = v1 + u1 * (c2 * (self.f - v1 * v1).exact_div(u1) % u1)
            else:
                s1, s2, s3 = c1 * e1, c1 * e2, c2
                mixed = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + self.f)
                if d.degree == 0:
                    u = u1 * u2
                else:
                    u = (u1 * u2).exact_div(d * d)
                    mixed = mixed.exact_div(d)
                v = mixed % u
        while u.degree > self.genus:
            u_next = (self.f - v * v).exact_div(u).monic()
            v = (-v) % u_next
            u = u_next
        result = MumfordDivisor(u, v)
        self._check_height(result)
        return result

    def mul(self, n: int, D: MumfordDivisor) -> MumfordDivisor:
        """n-fold sum by double-and-add from the highest bit of n, so every
        addition adds D itself to the running multiple; n must be
        nonnegative.  D is height-checked for n >= 1, as the chain's first
        step (D added to the identity) would."""
        if n < 0:
            raise ValueError("scalar must be nonnegative")
        if n == 0:
            return self.identity
        self._check_height(D)
        acc = D
        for bit in bin(n)[3:]:
            acc = self.add(acc, acc)
            if bit == "1":
                acc = self.add(acc, D)
        return acc

    def _check_height(self, D: MumfordDivisor):
        if self.height_ceiling is None:
            return
        limit_bits = self.height_ceiling * 10 // 3 + 16
        for poly in (D.u, D.v):
            for c in poly.coeffs:
                for q in _fractions_of(c):
                    if (
                        q.numerator.bit_length() > limit_bits
                        or q.denominator.bit_length() > limit_bits
                    ):
                        raise HeightLimitExceeded(
                            f"coefficient exceeds {self.height_ceiling} digits"
                        )


def _fractions_of(c):
    if isinstance(c, Fraction):
        return (c,)
    if isinstance(c, TowerElement):
        return tuple(c.coeffs.values())
    return ()


def class_group_interval(p: int, genus: int) -> tuple[int, int]:
    """Integers lo <= #J(F_p) <= hi from the Hasse-Weil bounds
    (sqrt(p) -+ 1)^(2g), rounded outward: with r = ceil(sqrt(p)),
    lo = max(p + 1 - 2r, 0)^g and hi = (p + 1 + 2r)^g."""
    r = math.isqrt(p)
    if r * r < p:
        r += 1
    return max(p + 1 - 2 * r, 0) ** genus, (p + 1 + 2 * r) ** genus


def class_group_bound(p: int, genus: int) -> int:
    """Integer upper bound for #J(F_p): (sqrt(p) + 1)^(2g), rounded up."""
    return class_group_interval(p, genus)[1]


def class_group_interval_from_count(p: int, genus: int, points: int) -> tuple[int, int]:
    """Integers lo <= #J(F_p) <= hi for a curve with #C(F_p) = points.

    #J(F_p) = prod(p + 1 - t_i) over real t_i with |t_i| <= 2 sqrt(p) <= b,
    b = isqrt(4p) + 1, and sum(t_i) = s = p + 1 - points.  Every factor is
    at least p + 1 - b >= 0.  By AM-GM the product is at most
    ((g(p + 1) - s) / g)^g, rounded up.  The product is log-concave, so
    its minimum over the box cut by the plane sum(t_i) = s lies at a
    vertex: g - 1 coordinates at -b or b and the last one s minus their
    sum, kept when it lies in [-b, b].  Genus 1 gives lo = hi = points.
    """
    s = p + 1 - points
    b = math.isqrt(4 * p) + 1
    hi = -(-((genus * (p + 1) - s) ** genus) // genus**genus)
    lo = min(
        math.prod(p + 1 - t for t in (*ts, s - sum(ts)))
        for ts in itertools.product((-b, b), repeat=genus - 1)
        if abs(s - sum(ts)) <= b
    )
    return lo, hi


def divisor_order(jac: Jacobian, D: MumfordDivisor) -> int:
    """Exact order of a reduced class over F_p, by baby-step giant-step.

    The interval lo <= #J(F_p) <= hi narrowed by #C(F_p) (counted once per
    Jacobian) holds a multiple of the order.  Baby steps j*D for
    j < s = isqrt((hi - lo + 1) // 2) + 1 return any order below s
    directly; the table matches both j*D and -j*D (negation costs no
    addition; +j wins a collision), so each giant step g*D covers the
    2s - 1 multiples g - s < m < g + s.  Giant steps run at multiples of
    the stride t = 2s - 1 from q0*t, q0 = (lo + s - 1) // t, the first
    whose window reaches lo, and the first match gives m > 0 with m*D = 0.
    The order is recovered from m's prime powers with a product tree
    (Sutherland 2007).  Finding no m means the inputs were inconsistent.
    """
    if not isinstance(jac.field, PrimeField):
        raise TypeError("divisor_order runs over a prime field")
    lo, hi = class_group_interval_from_count(jac.field.p, jac.genus, jac.curve_point_count)
    s = math.isqrt((hi - lo + 1) // 2) + 1
    zero = jac.identity
    baby = {zero: 0}
    prev, acc = zero, D
    for j in range(1, s):
        if acc == zero:
            return j
        baby[acc] = j
        baby.setdefault(jac.neg(acc), -j)
        prev, acc = acc, jac.add(acc, D)
    # the order is at least s, so the +j entries are distinct; acc = s*D
    t = 2 * s - 1
    step = jac.add(acc, prev)
    q0 = (lo + s - 1) // t
    giant = jac.mul(q0, step)
    for g in range(q0 * t, hi + s, t):
        j = baby.get(giant)
        if j is not None and g > j:
            return _order_dividing(jac, D, _prime_powers(g - j))
        giant = jac.add(giant, step)
    raise RuntimeError("order search exceeded the class-group bound")


def _prime_powers(m: int) -> list[tuple[int, int]]:
    """The (q, e) with q^e exactly dividing m >= 1, by trial division."""
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            out.append((q, e))
        q += 1 if q == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def _order_dividing(jac: Jacobian, D: MumfordDivisor, factors: list[tuple[int, int]]) -> int:
    """Order of D, given that it divides the product of q^e over `factors`.

    A product tree: D times the right half's product has the left half's
    part of the order, and the other way round.  At one prime the order is
    q^k for the first k with q^k*D = 0, and q^e when no k < e gives 0."""
    if D == jac.identity:
        return 1
    if len(factors) == 1:
        (q, e), = factors
        for k in range(1, e):
            D = jac.mul(q, D)
            if D == jac.identity:
                return q**k
        return q**e
    half = len(factors) // 2
    left, right = factors[:half], factors[half:]
    return _order_dividing(jac, jac.mul(_product(right), D), left) * _order_dividing(
        jac, jac.mul(_product(left), D), right
    )


def _product(factors: list[tuple[int, int]]) -> int:
    return math.prod(q**e for q, e in factors)


def reduce_divisor(
    D: MumfordDivisor, w: ResidueAssignment, target: Jacobian
) -> MumfordDivisor:
    """Coefficient-wise reduction of a divisor over Q or a number field to
    F_p at w (over Q the place is p itself).

    Valid for pointwise-reduced representatives: the support points must be
    w-integral with no collisions under reduction, else coefficients pick up
    denominators divisible by p and the reduction is refused."""
    field = target.field

    def red(poly: Poly) -> Poly:
        if poly.field == QQ:
            return poly.map_domain(field)  # PrimeField.coerce checks p-integrality
        return Poly(field, [reduce_element(c, w) for c in poly.coeffs])

    out = MumfordDivisor(red(D.u), red(D.v))
    if not target.on_jacobian(out):
        raise ValueError("reduced divisor leaves the reduced Jacobian")
    return out


# ---------------------------------------------------------------------------
# torsion decision


@dataclass(frozen=True)
class CertifiedTorsion:
    order: int


@dataclass(frozen=True)
class NotTorsion:
    pass


@dataclass(frozen=True)
class Undecidable:
    reason: str


TorsionVerdict = CertifiedTorsion | NotTorsion | Undecidable


def torsion_decide(
    point: CurvePoint,
    curve: HyperellipticCurve,
    tower: TowerSpec,
    p: int,
    place: ResidueAssignment,
    height_ceiling: int | None = None,
) -> TorsionVerdict:
    """Decide whether the class of P minus infinity is torsion, with exact order.

    At an odd, completely split prime of good reduction, reduction is
    injective on the torsion subgroup, so a torsion class has the same order
    n as its reduction.  The procedure finds n over F_p (divisor_order), then
    checks n*D = 0 exactly over Q or the number field: success certifies
    torsion of exact order n, failure refutes torsion outright.  n*D = 0 is
    decided by comparing ceil(n/2)*D with -floor(n/2)*D: B = floor(n/2)*D
    comes from `mul`, and A = B + D for odd n (A = B for even n).  Their sum
    is n*D and a reduced (u, v) is unique, so the comparison is exact, and
    the height-n^2 multiple n*D is never built.  Zero divisors, or a
    coefficient beyond the height ceiling in A or in a multiple built on the
    way to B, yield Undecidable.

    `place` must be one of `split_places(tower, p)`, which also refuses a p
    that is not an odd prime (PrimeField), a ramified p and a relation that is
    not p-integral; good reduction is `has_good_reduction`.  Each failure is a
    ValueError.
    """
    if not curve.odd_model:
        raise ValueError("torsion decision needs an odd-degree model")
    if tower.k > 1:
        raise ValueError("torsion decision supports at most one generator")
    if place not in split_places(tower, p):
        raise ValueError(f"{place} is not a completely split place over p = {p}")
    if not has_good_reduction(curve, p):
        raise ValueError(f"bad reduction at {p}")
    if not on_curve(point, curve):
        raise ValueError("point is not on the curve")

    jac_p = Jacobian.over_prime_field(curve, p)
    try:
        reduced = reduce_point(point, curve, place)
    except NonIntegralError as exc:
        raise ValueError(f"point is not w-integral: {exc}") from exc
    n = divisor_order(jac_p, jac_p.embed(reduced))

    jac_f = Jacobian.over_tower(curve, tower, height_ceiling)
    try:
        D = jac_f.embed(point)
        B = jac_f.mul(n // 2, D)
        A = jac_f.add(B, D) if n & 1 else B
        killed = A == jac_f.neg(B)
    except (ZeroDivisorError, HeightLimitExceeded) as exc:
        return Undecidable(str(exc))
    return CertifiedTorsion(n) if killed else NotTorsion()
