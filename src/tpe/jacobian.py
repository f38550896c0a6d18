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
known, reads one cofactor from each xgcd and lifts v with small
polynomials (a Garner CRT lift for coprime u's, a Hensel lift for
doublings off the Weierstrass points); negation is (u, -v), already
reduced.  A Hensel doubling takes its first reduction step from the
lift's pieces, (f - v^2)/u^2 = (w - 2 v1 t)/u1 - t^2 for v = v1 + u1 t
and w = (f - v1^2)/u1, so f - v^2 is never formed at full height; the
reduced pair is unchanged, since a reduced (u, v) is unique.
Multiplication is double-and-add from the highest bit, so it only ever
adds D itself to a large class.  The order of a class over F_p is a
baby-step giant-step search over the interval for #J(F_p) narrowed by
#C(F_p): a table of +-j*D for j < s, giant steps of stride 2s - 1, a
second match when a smaller multiple can still follow the first, and the
order recovered from the multiple found with a product tree over its
primes whose multiples of D come from the search's own tables.  The
exact torsion check decides n*D = 0 from B = floor(n/2)*D alone: B = -B
for even n, and for odd n B + D = -B, tested as 2B + D being the divisor
of y - V for the V of the composition of B and D.  So its height ceiling
bounds B and the binary prefixes of floor(n/2) built on the way, about a
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
from functools import cached_property, partial

from tpe.algebra import QQ, NonIntegralError, Poly, PrimeField, small_divisors
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
        raw = os.environ.get("TPE_HEIGHT_CEILING", str(DEFAULT_HEIGHT_CEILING))
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"TPE_HEIGHT_CEILING must be a positive digit count, not {raw!r}"
            ) from None
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
        if not D.u or D.u.leading != self.field.one:
            return False
        if D.v and D.v.degree >= D.u.degree:
            return False
        return not (D.v * D.v - self.f) % D.u

    def neg(self, D: MumfordDivisor) -> MumfordDivisor:
        """-D = (u, -v): -v needs no reduction mod u, since deg v < deg u."""
        return MumfordDivisor(D.u, -D.v)

    def add(self, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
        """Cantor composition followed by reduction to deg u <= g.

        Composition reads one cofactor from each xgcd (`Poly.xgcd` gives
        (g, s) with g = s*self mod other), skips the steps whose result is
        known in advance and lifts v with the smallest polynomials that give
        it.  A doubling takes d1 = u1 and e1 = 0, which is what u1.xgcd(u1)
        returns for a monic u1.  When u1 and u2 are coprime (d1 = 1, the
        generic sum) the second xgcd and the s3 term (multiplied by 0) go:
        v is the CRT lift of v1 mod u1 and v2 mod u2 in Garner form,
        v1 + u1 ((v2 - v1) e1 mod u2).  A doubling with gcd(u, 2v) = 1 (no
        Weierstrass point in the support) is a Hensel lift: with
        c = (2v)^-1 mod u, w = (f - v^2)/u and t = c w mod u,
        v' = v + u t is v mod u with u^2 | v'^2 - f.  When u^2 needs
        reduction, its first step comes from these pieces: u'' =
        monic((f - v'^2)/u^2) is monic((w - 2 v t)/u - t^2), so f - v'^2 is
        never formed, and -v' mod u'' follows; any further step (genus >= 3)
        runs the usual reduction loop.  Every other case runs the full
        composition in terms of the cofactors at hand: with
        e1 u1 + e2 u2 = d1 and c1 d1 + c2 (v1 + v2) = d, Cantor's
        c1 e1 u1 v2 + c1 e2 u2 v1 + c2 (v1 v2 + f) is
        d v1 + c2 (f - v1^2) + c1 e1 u1 (v2 - v1), so e2 is never built and
        c1 = (d - c2 (v1 + v2))/d1 only when e1 != 0; it never divides by a
        d of 1.  A reduced (u, v) is unique, so the sum is the one full
        Cantor gives.
        """
        u1, v1 = D1.u, D1.v
        u2, v2 = D2.u, D2.v
        doubling = D1 == D2
        if doubling:
            d1, e1 = u1, Poly(self.field)
        else:
            d1, e1 = u1.xgcd(u2)
        if d1.degree == 0:
            u = u1 * u2
            v = v1 + u1 * ((v2 - v1) * e1 % u2)
        else:
            d, c2 = (v1 + v2).xgcd(d1)
            if doubling and d.degree == 0:
                w = (self.f - v1 * v1).exact_div(u1)
                t = c2 * w % u1
                v = v1 + u1 * t
                if 2 * u1.degree <= self.genus:
                    u = u1 * u1
                else:
                    # the first reduction step, from the lift's pieces:
                    # (f - v^2) / u1^2 = (w - 2 v1 t) / u1 - t^2
                    u = ((w - v1 * t * 2).exact_div(u1) - t * t).monic()
                    v = (-v) % u
            else:
                mixed = d * v1 + c2 * (self.f - v1 * v1)
                if e1:
                    c1 = (d - c2 * (v1 + v2)).exact_div(d1)
                    mixed = mixed + c1 * e1 * u1 * (v2 - v1)
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
    whose window reaches lo, and the first match gives m1 > 0 with
    m1*D = 0.  No multiple lies below m1 in the windows walked, so the
    order is a divisor d of m1 with d >= s and d > m1 - (the first
    window's start).  While such a d with m1 + d inside the scanned range
    can still be the order, the walk goes on: a second match m2 hands
    gcd(m1, m2) to the recovery instead of m1, and a walk past every such
    m1 + d (or no such d at all) leaves m1.  The order is recovered from
    the multiple's prime powers with a product tree (Sutherland 2007),
    which reads the multiples k*D it needs off the tables:
    k*D = q*(t*D) + r*D for k = q*t + r with |r| < s.  A match is an
    exact equality of reduced pairs, so every multiple found is exact and
    the tree returns the exact order from any of them.  Finding no m1
    means the inputs were inconsistent.
    """
    if not isinstance(jac.field, PrimeField):
        raise TypeError("divisor_order runs over a prime field")
    lo, hi = class_group_interval_from_count(jac.field.p, jac.genus, jac.curve_point_count)
    s = math.isqrt((hi - lo + 1) // 2) + 1
    zero = jac.identity
    baby = {zero: 0}
    multiples = [zero, D]  # j*D for j <= s
    for j in range(1, s):
        acc = multiples[j]
        if acc == zero:
            return j
        baby[acc] = j
        baby.setdefault(jac.neg(acc), -j)
        multiples.append(jac.add(acc, D))
    # the order is at least s, so the +j entries are distinct
    t = 2 * s - 1
    step = jac.add(multiples[s], multiples[s - 1])

    def times(k: int) -> MumfordDivisor:
        q, r = divmod(k + s - 1, t)
        r -= s - 1
        small = multiples[r] if r >= 0 else jac.neg(multiples[-r])
        if q == 0:
            return small
        big = jac.mul(q, step)
        return big if r == 0 else jac.add(big, small)

    q0 = (lo + s - 1) // t
    giants = range(q0 * t, hi + s, t)
    first, last = giants[0] - s + 1, giants[-1] + s - 1  # the scanned range
    giant = jac.mul(q0, step)
    m = None  # the first multiple found, then its gcd with a second one
    for g in giants:
        j = baby.get(giant)
        if j is not None and g > j:
            if m is not None:
                m = math.gcd(m, g - j)
                break
            m = g - j
            # the order is a divisor d of m with d >= s and d > m - first
            # (no multiple in the windows before); one with m + d <= last
            # can still show as a second match
            low = max(s, m - first + 1)
            reach = m + max((d for d in small_divisors(m) if low <= d <= last - m), default=0)
        if m is not None and g + s > reach:
            break  # the next window starts past m + d for every such d
        giant = jac.add(giant, step)
    if m is None:
        raise RuntimeError("order search exceeded the class-group bound")
    return _order_dividing(jac, D, _prime_powers(m), times)


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


def _order_dividing(
    jac: Jacobian, D: MumfordDivisor, factors: list[tuple[int, int]], times=None
) -> int:
    """Order of D, given that it divides the product of q^e over `factors`.

    A product tree: D times the right half's product has the left half's
    part of the order, and the other way round.  At one prime the order is
    q^k for the first k with q^k*D = 0, and q^e when no k < e gives 0.
    times(k) gives k*D: `divisor_order` passes one that reads the multiples
    of its own class off its tables, and the classes inside the tree are
    multiplied with `Jacobian.mul`."""
    if D == jac.identity:
        return 1
    if times is None:
        times = partial(jac.mul, D=D)
    if len(factors) == 1:
        (q, e), = factors
        for k in range(1, e):
            D = times(q)
            if D == jac.identity:
                return q**k
            times = partial(jac.mul, D=D)
        return q**e
    half = len(factors) // 2
    left, right = factors[:half], factors[half:]
    return _order_dividing(jac, times(_product(right)), left) * _order_dividing(
        jac, times(_product(left)), right
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


def _adds_to_neg(jac: Jacobian, B: MumfordDivisor, D: MumfordDivisor) -> bool:
    """Whether B + D = -B, for the class D of a point, without building B + D.

    With D = (x - a, b), B = (u, v), deg u = g and u(a) != 0, the
    composition of B and D is (u (x - a), V) with V = v + lam u and
    lam = (b - v(a)) / u(a).  It reduces in one step to
    ((f - V^2) / (lc(f) u (x - a)), -V), which is -B = (u, -v) exactly when
    f - V^2 = lc(f) u^2 (x - a), that is, when 2B + D is the divisor of
    y - V (Cantor 1987).  The x^2g coefficients, f_2g - lam^2 against
    lc(f) (2 u_(g-1) - a), are compared first, so a "no" for a large B
    costs one square.  If deg u < g, B + D is already reduced and of
    another degree than -B.  For the identity D, or u(a) = 0, B and D are
    added.  Coefficients must be exact (Q or a number field)."""
    if D != jac.identity:
        u, v, g = B.u, B.v, jac.genus
        if u.degree < g:
            return False
        a, b = -D.u.coeffs[0], D.v.coeff(0)
        ua = u(a)
        if ua != jac.field.zero:
            f = jac.f
            lam = jac.field.div(b - v(a), ua)
            if f.coeff(2 * g) - lam**2 != f.leading * (2 * u.coeff(g - 1) - a):
                return False
            V = v + u * lam
            return f - V * V == u * u * D.u * f.leading
    return jac.add(B, D) == jac.neg(B)


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
    decided from B = floor(n/2)*D, which comes from `mul`: B = -B for even
    n, and B + D = -B for odd n (`_adds_to_neg`, which does not build
    B + D).  A reduced (u, v) is unique, so the test is exact, and neither
    the height-n^2 multiple n*D nor ceil(n/2)*D is built.  Zero divisors, or
    a coefficient beyond the height ceiling in B or in a multiple built on
    the way to it, yield Undecidable.

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
        killed = _adds_to_neg(jac_f, B, D) if n & 1 else B == jac_f.neg(B)
    except (ZeroDivisorError, HeightLimitExceeded) as exc:
        return Undecidable(str(exc))
    return CertifiedTorsion(n) if killed else NotTorsion()
