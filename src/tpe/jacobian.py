"""Divisor-class arithmetic in Mumford representation via Cantor's algorithm.

Only odd-degree (imaginary) models are supported: a reduced class is a pair
(u, v) with u monic of degree <= g, deg v < deg u and u | v^2 - f, and the
identity is (1, 0).  The same code runs over F_p, over Q, and over a
single-generator number field; number-field runs guard against coefficient
blow-up with a configurable digit ceiling.  A Jacobian is built from its
curve and asks the curve module for facts about C: #C(F_p), and with it the
refusal of bad reduction, is `count_points_mod_p`.

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

from tpe.algebra import NonIntegralError, Poly, PrimeField, is_prime, small_divisors
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
    built by `over_prime_field`, `over_tower` or `over_q`.  The one test is
    that f keeps its odd degree in the field: it refuses even models and a
    p dividing lc(f)."""

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
        return cls(curve, tower, resolve_height_ceiling(height_ceiling))

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
        P = (a, b), identity for the base point at infinity."""
        if not isinstance(point, (CurvePoint, ReducedPoint)):
            raise TypeError("embed expects a CurvePoint or ReducedPoint")
        if point.kind == INF:
            return self.identity
        if point.kind != AFFINE:
            raise ValueError("even-model infinity cannot be embedded")
        u = Poly(self.field, (-point.x, self.field.one))
        v = Poly.const(self.field, point.y)
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
        """Cantor composition followed by reduction to deg u <= g."""
        field = self.field
        u1, v1 = D1.u, D1.v
        u2, v2 = D2.u, D2.v
        d1, e1, e2 = u1.xgcd(u2)
        d, c1, c2 = d1.xgcd(v1 + v2)
        s1, s2, s3 = c1 * e1, c1 * e2, c2
        u = (u1 * u2).exact_div(d * d)
        mixed = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + self.f)
        v = mixed.exact_div(d) % u
        while u.degree > self.genus:
            u_next = (self.f - v * v).exact_div(u).monic()
            v = (-v) % u_next
            u = u_next
        result = MumfordDivisor(u, v)
        self._check_height(result)
        return result

    def mul(self, n: int, D: MumfordDivisor) -> MumfordDivisor:
        """n-fold sum by double-and-add; n must be nonnegative."""
        if n < 0:
            raise ValueError("scalar must be nonnegative")
        acc = self.identity
        base = D
        while n:
            if n & 1:
                acc = self.add(acc, base)
            n >>= 1
            if n:
                base = self.add(base, base)
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
    j < s = isqrt(hi - lo) + 1 return any order below s directly; giant
    steps lo*D + i*s*D meet a baby step at some m = lo + i*s - j with
    m*D = 0.  The order is then recovered one prime power at a time: for
    q^e exactly dividing m, (m/q^e)*D is multiplied by q until it vanishes.
    Finding no m means the inputs were inconsistent.
    """
    if not isinstance(jac.field, PrimeField):
        raise TypeError("divisor_order runs over a prime field")
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
    # the order is at least s, so the baby steps are distinct; acc = s*D
    giant = jac.mul(lo, D)
    for i in range(s + 1):
        j = baby.get(giant)
        if j is not None and lo + i * s > j:
            m = lo + i * s - j
            break
        giant = jac.add(giant, acc)
    else:
        raise RuntimeError("order search exceeded the class-group bound")
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


def reduce_divisor(
    D: MumfordDivisor, w: ResidueAssignment, target: Jacobian
) -> MumfordDivisor:
    """Coefficient-wise reduction of a number-field divisor to F_p at w.

    Valid for pointwise-reduced representatives: the support points must be
    w-integral with no collisions under reduction, else coefficients pick up
    denominators divisible by p and the reduction is refused."""
    field = target.field

    def red(poly: Poly) -> Poly:
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
    checks n*D = 0 exactly over the number field: success certifies torsion
    of exact order n, failure refutes torsion outright.  Zero divisors or a
    breached height ceiling yield Undecidable.

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
        nD = jac_f.mul(n, D)
    except (ZeroDivisorError, HeightLimitExceeded) as exc:
        return Undecidable(str(exc))
    if nD == jac_f.identity:
        return CertifiedTorsion(n)
    return NotTorsion()
