"""Hyperelliptic curve models y^2 = f(x), their points, and reduction mod p.

Odd models (deg f = 2g+1) have a single point at infinity, which is a
Weierstrass point; even models (deg f = 2g+2) have two, distinguished by the
two square roots of the leading coefficient, and both are non-Weierstrass.
Every fact about C mod p is read off one value, `CurveModP`, built once per
(curve, p) by `reduce_curve`.  Good reduction is certified by the
sufficient criterion p does not divide 2 * lc(f) * disc(f), decided in F_p.
Whether p is an odd prime, and whether a coefficient is p-integral, is
decided by `PrimeField`, never here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from tpe.algebra import (
    NonIntegralError,
    Poly,
    PrimeField,
    QQ,
    discriminant,
    is_squarefree,
    legendre_symbol,
    poly_str,
    values_mod_p,
)
from tpe.tower import ResidueAssignment, TowerElement, reduce_element

AFFINE = "affine"
INF = "infinity"
INF_PLUS = "infinity+"
INF_MINUS = "infinity-"


@dataclass(frozen=True)
class HyperellipticCurve:
    f: Poly
    genus: int
    odd_model: bool
    low_genus: bool = False

    @property
    def degree(self) -> int:
        return self.f.degree

    @property
    def leading(self) -> Fraction:
        return self.f.leading

    def equation(self) -> str:
        return f"y^2 = {poly_str(self.f)}"


def make_curve(f: Poly, allow_low_genus: bool = False) -> HyperellipticCurve:
    """Build a curve from squarefree f; genus from ceil(deg/2) - 1.

    deg f in {3, 4} (genus 1) is admitted only with allow_low_genus, and the
    resulting curve carries a warning flag: the envelope machinery targets
    genus >= 2.
    """
    if f.field != QQ:
        raise ValueError("curve polynomial must be over Q")
    n = f.degree
    if n < 3:
        raise ValueError(f"degree {n} too small for a hyperelliptic model")
    if n < 5 and not allow_low_genus:
        raise ValueError(
            f"degree {n} gives genus 1; pass allow_low_genus to accept"
        )
    if not is_squarefree(f):
        raise ValueError("f is not squarefree")
    genus = (n + 1) // 2 - 1
    return HyperellipticCurve(
        f=f, genus=genus, odd_model=(n % 2 == 1), low_genus=(genus < 2)
    )


@dataclass(frozen=True)
class CurveModP:
    """C mod p, built once per (curve, p) by `reduce_curve`: the field, f mod p
    (`fp`, None when f is not p-integral) and disc(f mod p) (0 when f mod p
    loses the degree of f).  `count`, #C(F_p), and `roots`, the roots of
    f mod p in ascending order, come from one pass on first use (two threads
    may both count, with one result); both refuse bad reduction (ValueError)."""

    curve: HyperellipticCurve
    field: PrimeField
    fp: Poly | None
    disc: int

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def f(self) -> Poly:  # coerce raises its NonIntegralError again for no fp
        return self.fp if self.fp is not None else self.curve.f.map_domain(self.field)

    @property
    def reason(self) -> str | None:
        return None if self.disc else f"bad reduction at {self.p}"

    @cached_property
    def _counted(self) -> tuple[int, tuple[int, ...]]:
        if self.reason:
            raise ValueError(self.reason)
        p, fp = self.p, self.fp
        symbols = [legendre_symbol(v, p) for v in values_mod_p(fp, range(p))]
        infinity = 1 if self.curve.odd_model else 1 + legendre_symbol(fp.leading, p)
        return p + sum(symbols) + infinity, tuple(x for x, s in enumerate(symbols) if not s)

    @property
    def count(self) -> int:
        return self._counted[0]

    @property
    def roots(self) -> tuple[int, ...]:
        return self._counted[1]


def reduce_curve(curve: HyperellipticCurve, p: int) -> CurveModP:
    """C mod p; PrimeField refuses a p that is not an odd prime.  Once f mod p
    keeps the degree of f, disc(f mod p) = disc(f) mod p, also for p | deg f."""
    field = PrimeField(p)
    try:
        fp = curve.f.map_domain(field)
    except NonIntegralError:
        return CurveModP(curve, field, None, 0)
    return CurveModP(curve, field, fp, discriminant(fp) if fp.degree == curve.degree else 0)


def has_good_reduction(curve: HyperellipticCurve, p: int) -> bool:
    """Sufficient criterion: f p-integral, p | neither lc(f) nor disc(f)."""
    return reduce_curve(curve, p).reason is None


def count_points_mod_p(curve: HyperellipticCurve, p: int) -> int:
    """#C(F_p); bad reduction is refused with ValueError."""
    return reduce_curve(curve, p).count


@dataclass(frozen=True)
class CurvePoint:
    """A point with tower-ring coordinates, or a point at infinity."""

    kind: str
    x: TowerElement | None = None
    y: TowerElement | None = None

    @classmethod
    def affine(cls, x: TowerElement, y: TowerElement) -> "CurvePoint":
        if x.tower != y.tower:
            raise ValueError("coordinates live in different towers")
        return cls(AFFINE, x, y)

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(INF)

    @classmethod
    def infinity_plus(cls) -> "CurvePoint":
        return cls(INF_PLUS)

    @classmethod
    def infinity_minus(cls) -> "CurvePoint":
        return cls(INF_MINUS)

    @property
    def is_affine(self) -> bool:
        return self.kind == AFFINE

    def involution(self) -> "CurvePoint":
        """The hyperelliptic involution (x, y) -> (x, -y); swaps even infinities."""
        if self.kind == AFFINE:
            return CurvePoint(AFFINE, self.x, -self.y)
        if self.kind == INF_PLUS:
            return CurvePoint(INF_MINUS)
        if self.kind == INF_MINUS:
            return CurvePoint(INF_PLUS)
        return self

    def __repr__(self):
        if self.kind == AFFINE:
            return f"({self.x!r}, {self.y!r})"
        return self.kind


def on_curve(point: CurvePoint, curve: HyperellipticCurve) -> bool:
    """Exact membership: y^2 = f(x) as a tower-ring identity, or a
    model-compatible infinity variant."""
    if point.kind == INF:
        return curve.odd_model
    if point.kind in (INF_PLUS, INF_MINUS):
        return not curve.odd_model
    return point.y * point.y == curve.f(point.x)


def is_weierstrass(point: CurvePoint, curve: HyperellipticCurve) -> bool:
    """Fixed points of the involution: affine points with y = 0; the odd-model
    infinity is Weierstrass, even-model infinities are not."""
    if point.kind == INF:
        if not curve.odd_model:
            raise ValueError("odd-model infinity on an even-model curve")
        return True
    if point.kind in (INF_PLUS, INF_MINUS):
        if curve.odd_model:
            raise ValueError("even-model infinity on an odd-model curve")
        return False
    return point.y == point.y.tower.zero


@dataclass(frozen=True)
class ReducedPoint:
    """A point of the reduced curve over F_p.

    kind "infinity" is the odd-model point at infinity; even-model infinities
    are encoded by the residue `winf` of the chosen square root of lc(f),
    which distinguishes the plus and minus branches.
    """

    kind: str
    x: int | None = None
    y: int | None = None
    winf: int | None = None

    def __repr__(self):
        if self.kind == AFFINE:
            return f"({self.x}, {self.y})"
        if self.winf is not None:
            return f"{self.kind}[w={self.winf}]"
        return self.kind


def reduce_point(
    point: CurvePoint,
    curve: HyperellipticCurve | CurveModP,
    w: ResidueAssignment,
    sqrt_lc: TowerElement | None = None,
) -> ReducedPoint:
    """Coordinate-wise reduction at the place w, on C mod w.p (`reduce_curve`;
    a bare curve is reduced here, a convenience for one-off calls).

    Even-model infinities need the declared square root of lc(f) to pick the
    correct branch mod p.  Raises NonIntegralError when a coordinate is not
    w-integral, and refuses reduced points that violate the reduced equation.
    """
    red = curve if isinstance(curve, CurveModP) else reduce_curve(curve, w.p)
    curve, p = red.curve, red.p
    if w.p != p:
        raise ValueError(f"the place lies over {w.p}, the reduction at {p}")
    if point.kind == INF:
        if not curve.odd_model:
            raise ValueError("odd-model infinity on an even-model curve")
        return ReducedPoint(INF)
    if point.kind in (INF_PLUS, INF_MINUS):
        if curve.odd_model:
            raise ValueError("even-model infinity on an odd-model curve")
        if sqrt_lc is None:
            raise ValueError("even-model infinity needs a declared sqrt of lc(f)")
        wbar = reduce_element(sqrt_lc, w)
        if wbar * wbar % p != red.field.coerce(curve.leading):
            raise ValueError("declared sqrt of lc(f) fails mod p")
        if point.kind == INF_MINUS:
            wbar = (-wbar) % p
        return ReducedPoint(point.kind, winf=wbar)
    xb = reduce_element(point.x, w)
    yb = reduce_element(point.y, w)
    if (yb * yb - values_mod_p(red.f, [xb])[0]) % p != 0:
        raise ValueError("reduced point violates the reduced curve equation")
    return ReducedPoint(AFFINE, x=xb, y=yb)
