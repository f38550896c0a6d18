"""Document generators for the three curve families, rank fixtures, and sweeps.

Families (CLI names):
  cd   y^2 = x^5 + d at p = 11, for d = 1, 7, 9 mod 11
  dd   y^2 = x^(p-1) + d*x^((p-1)/2) - 1 for p = 3 mod 4 and p | d
  xpx  y^2 = x^p - x at p, for prime p >= 5

Rank-0 assertions are never computed: they ship as fixture files whose
provenance is an external Magma 2-descent computation, and are attached to
generated documents on request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from tpe.algebra import (
    Poly,
    cyclotomic,
    discriminant,
    exact_fifth_root,
    exact_sqrt,
    integer_power_classification,
    is_prime,
)
from tpe.curve import (
    AFFINE,
    CurvePoint,
    count_points_mod_p,
    make_curve,
)
from tpe.envelope import (
    BasePointCert,
    EvenModelInfinityCert,
    PointEntry,
    PrincipalDivisorCert,
    RankAssertion,
    TPEDocument,
    WeierstrassFamilyEntry,
    WeierstrassTwoTorsionCert,
    theorem_conclusion,
    verify_tpe,
)
from tpe.tower import TowerSpec


@dataclass
class Inapplicable:
    """The envelope method does not apply; carries what was established."""

    reason: str
    count: int | None = None
    note: str = ""


COLEMAN_NOTE = (
    "a qualifying torsion set would need at least 11 points, but the full "
    "torsion packet of these curves is known to contain only 10"
)


# ---------------------------------------------------------------------------
# rank fixtures


@dataclass(frozen=True)
class RankFixture:
    family: str
    classes: tuple[tuple[str, tuple[int, ...]], ...]
    source: str
    p: int | None = None

    @property
    def values(self) -> frozenset[int]:
        out = set()
        for _, vals in self.classes:
            out.update(vals)
        return frozenset(out)

    def contains(self, value: int) -> bool:
        return value in self.values

    def class_values(self, label: str) -> tuple[int, ...]:
        for name, vals in self.classes:
            if name == label:
                return vals
        raise KeyError(label)

    @classmethod
    def from_obj(cls, obj) -> "RankFixture":
        rows = obj if isinstance(obj, list) else [obj]
        family = None
        source = None
        p = None
        classes = []
        for row in rows:
            if not isinstance(row, dict) or "rank0_values" not in row:
                raise ValueError("fixture rows need a rank0_values list")
            family = family or row.get("family")
            source = source or row.get("source", "")
            p = p if p is not None else row.get("p")
            label = str(row.get("residue_class", ""))
            values = row["rank0_values"]
            if not isinstance(values, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in values
            ):
                raise ValueError("rank0_values must be a list of integers")
            values = tuple(sorted(values))
            classes.append((label, values))
        return cls(str(family or ""), tuple(classes), str(source or ""), p)

    @classmethod
    def load(cls, path) -> "RankFixture":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_obj(json.load(fh))


def builtin_fixture(name: str) -> RankFixture:
    """Bundled rank fixtures: 'cd', 'dd-p7', or 'xpx'."""
    files = {"cd": "cd_rank0_table.json", "dd-p7": "dd_rank0_p7.json", "xpx": "xpx_rank0.json"}
    if name not in files:
        raise KeyError(name)
    text = resources.files("tpe.data").joinpath(files[name]).read_text("utf-8")
    return RankFixture.from_obj(json.loads(text))


def bundled_document_text(name: str) -> str:
    return resources.files("tpe.data").joinpath(name).read_text("utf-8")


def _rank_assertion(
    value: int, rank0: bool, fixture: RankFixture | None
) -> RankAssertion:
    if fixture is not None and fixture.contains(value):
        return RankAssertion(True, fixture.source)
    if rank0:
        return RankAssertion(True, "asserted by caller (--rank0)")
    return RankAssertion(False, "")


# ---------------------------------------------------------------------------
# family: y^2 = x^5 + d


def generate_cd(
    d: int, rank0: bool = False, fixture: RankFixture | None = None
) -> TPEDocument | Inapplicable:
    """Envelope document for y^2 = x^5 + d at p = 11, or Inapplicable.

    The tower is kept minimal: sqrt(d) and the fifth root of d enter as
    generators only when irrational, so the quotient ring stays a field.
    A violation of tenth-power-freeness only warns; the curve is still
    defined, the normalization is just not unique.
    """
    if d == 0:
        raise ValueError("d must be nonzero")
    profile = integer_power_classification(d)
    warnings = []
    if not profile.tenth_power_free:
        warnings.append(
            f"d = {d} is not tenth-power free; the family normalization "
            "is not unique"
        )
    p = 11
    f = Poly.over_q([d, 0, 0, 0, 0, 1])
    r = d % p
    if r == 0:
        return Inapplicable(
            reason=f"p = {p} divides d = {d}: the curve has bad reduction at {p}",
        )
    curve = make_curve(f)
    if r not in (1, 7, 9):
        count = count_points_mod_p(curve, p)
        return Inapplicable(
            reason=(
                f"d = {r} mod {p}: #C(F_{p}) = {count} >= 11, so no suitable "
                "torsion set exists"
            ),
            count=count,
            note=COLEMAN_NOTE,
        )

    meta: dict = {"family": "cd", "d": d}
    if warnings:
        meta["warnings"] = warnings
    rank = _rank_assertion(d, rank0, fixture)
    base = CurvePoint.infinity()

    # r = 1: Q(zeta_5, sqrt(d), d^(1/5)), r = 9: Q(sqrt(d)), r = 7: Q;
    # irrational roots only, so the tower stays minimal per d
    sq, fifth = exact_sqrt(d), exact_fifth_root(d)
    gens = []
    if r == 1:
        gens.append(("z", cyclotomic(5)))
    if r != 7 and sq is None:
        gens.append(("s", Poly.over_q([-d, 0, 1])))
    if r == 1 and fifth is None:
        gens.append(("u", Poly.over_q([-d, 0, 0, 0, 0, 1])))
    tower = TowerSpec(gens)
    zero = tower.rational(0)
    entries = [PointEntry(base, BasePointCert())]
    if r != 7:
        sqrt_d = tower.rational(sq) if sq is not None else tower.gen_by_name("s")
        for y in (sqrt_d, -sqrt_d):
            entries.append(
                PointEntry(CurvePoint.affine(zero, y), PrincipalDivisorCert((y,), 5))
            )
    if r == 1:
        zeta = tower.gen_by_name("z")
        fifth_d = tower.rational(fifth) if fifth is not None else tower.gen_by_name("u")
        power = tower.one
        for _ in range(5):
            x = -(power * fifth_d)
            entries.append(PointEntry(CurvePoint.affine(x, zero), WeierstrassTwoTorsionCert()))
            power = power * zeta
    return TPEDocument(curve, base, tower, p, tuple(entries), rank, meta=meta)


# ---------------------------------------------------------------------------
# family: y^2 = x^(p-1) + d x^((p-1)/2) - 1


def generate_dd(
    p: int, d: int, rank0: bool = False, fixture: RankFixture | None = None
) -> TPEDocument:
    """Envelope document for the even-model family at its own prime p.

    The splitting field of f is attested rather than constructed: every
    torsion certificate in T is coordinate-free (a Weierstrass family plus
    the two points at infinity), and complete splitting is certified by f
    factoring into distinct linear factors mod p.  The discriminant is
    cross-checked against the closed form ((p-1)/2)^(p-1) (4+d^2)^((p-1)/2),
    whose residue is 1 mod p.  Splitting and good reduction at p are left to
    `verify_tpe` (conditions 2 and 3): f = x^(p-1) - 1 mod p passes both.
    """
    if not is_prime(p) or p % 4 != 3:
        raise ValueError("p must be a prime with p = 3 mod 4")
    if d % p != 0:
        raise ValueError("d must be a multiple of p")
    half = (p - 1) // 2
    coeffs = [0] * p
    coeffs[0] = -1
    coeffs[half] = d
    coeffs[p - 1] = 1
    f = Poly.over_q(coeffs)
    curve = make_curve(f)  # rejects non-squarefree f
    disc = discriminant(f)
    formula = Fraction(half) ** (p - 1) * Fraction(4 + d * d) ** half
    if abs(disc) != formula:
        raise ValueError("discriminant does not match the closed form")
    if formula.numerator % p != 1:
        raise ValueError("discriminant is not 1 mod p")
    tower = TowerSpec()
    base = CurvePoint.infinity_plus()
    entries = (
        PointEntry(base, EvenModelInfinityCert()),
        PointEntry(CurvePoint.infinity_minus(), EvenModelInfinityCert()),
        WeierstrassFamilyEntry(f),
    )
    meta = {
        "family": "dd",
        "p": p,
        "d": d,
        "conclusion_style": "inclusion",
        "discriminant_check": (
            f"|disc(f)| = ((p-1)/2)^(p-1) * (4+d^2)^((p-1)/2) = {formula}; "
            f"disc(f) = {disc}; residue 1 mod {p}"
        ),
    }
    rank = _rank_assertion(d, rank0, fixture)
    return TPEDocument(
        curve,
        base,
        tower,
        p,
        entries,
        rank,
        field_attestation=(
            "splitting field of f; complete splitting at p certified by "
            "factorization into distinct linear factors mod p"
        ),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# family: y^2 = x^p - x


def generate_xpx(
    p: int, rank0: bool = False, fixture: RankFixture | None = None
) -> TPEDocument:
    """Envelope document for y^2 = x^p - x over the (p-1)st cyclotomic field.

    p = 1 mod (p-1), so p splits completely; T is the point at infinity,
    the origin, and the p-1 Weierstrass points over the roots of x^(p-1) - 1.
    """
    if not is_prime(p) or p < 5:
        raise ValueError("p must be a prime with p >= 5")
    coeffs = [0] * p + [1]
    coeffs[1] = -1
    f = Poly.over_q(coeffs)
    curve = make_curve(f)
    tower = TowerSpec([("z", cyclotomic(p - 1))])
    base = CurvePoint.infinity()
    zero = tower.rational(0)
    unity = Poly.over_q([-1] + [0] * (p - 2) + [1])  # x^(p-1) - 1
    entries = (
        PointEntry(base, BasePointCert()),
        PointEntry(CurvePoint.affine(zero, zero), WeierstrassTwoTorsionCert()),
        WeierstrassFamilyEntry(unity),
    )
    meta = {"family": "xpx", "p": p}
    rank = _rank_assertion(p, rank0, fixture)
    return TPEDocument(curve, base, tower, p, entries, rank, meta=meta)


# ---------------------------------------------------------------------------
# expected rational points for the cd family (the six-case table)


@dataclass
class CaseExpectation:
    points: frozenset
    warning: str | None
    claim: str  # "equality" under rank 0, else "torsion-intersection"


def point_tuple(x: Fraction, y: Fraction) -> tuple:
    return (AFFINE, Fraction(x), Fraction(y))


INFINITY_TUPLE = ("infinity",)


def rational_point_set(points) -> frozenset:
    """Canonical hashable form of a list of rational CurvePoints."""
    out = set()
    for pt in points:
        if pt.kind == AFFINE:
            out.add((AFFINE, pt.x.is_rational(), pt.y.is_rational()))
        else:
            out.add((pt.kind,))
    return frozenset(out)


def corollary_case_analysis(d: int, rank0: bool = True) -> CaseExpectation:
    """Expected rational point set of y^2 = x^5 + d, straight from the
    residue of d mod 11 and the square/fifth-power shape of d.

    d both a square and a fifth power (d = 1 up to tenth powers) falls
    outside the six-case table: the union of the square and fifth-power
    rows is reported with a warning.
    """
    if d == 0:
        raise ValueError("d must be nonzero")
    r = d % 11
    if r not in (1, 7, 9):
        raise ValueError(f"d = {r} mod 11 is outside the applicable classes")
    profile = integer_power_classification(d)
    warning = None
    inf = INFINITY_TUPLE
    if r == 7:
        points = {inf}
    elif r == 9:
        if profile.perfect_square:
            root = exact_sqrt(d)
            points = {inf, point_tuple(0, root), point_tuple(0, -root)}
        else:
            points = {inf}
    else:
        sq = profile.perfect_square
        fifth = profile.perfect_fifth_power
        points = {inf}
        if sq:
            root = exact_sqrt(d)
            points |= {point_tuple(0, root), point_tuple(0, -root)}
        if fifth:
            points.add(point_tuple(-exact_fifth_root(d), 0))
        if sq and fifth:
            warning = (
                f"d = {d} is both a perfect square and a perfect fifth power; "
                "outside the six-case table, reporting the rational members of T"
            )
    return CaseExpectation(
        frozenset(points), warning, "equality" if rank0 else "torsion-intersection"
    )


# ---------------------------------------------------------------------------
# sweep


@dataclass
class SweepRow:
    d: int
    residue: int
    status: str  # "verified", "inapplicable", "skipped"
    rank0: bool
    points: frozenset | None


@dataclass
class SweepResult:
    lo: int
    hi: int
    rows: list[SweepRow]
    source: str

    def census(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {"7": [], "9": [], "1": []}
        for row in self.rows:
            if row.rank0 and row.status == "verified":
                out[str(row.residue)].append(row.d)
        return out

    def to_obj(self) -> dict:
        census = self.census()
        conclusions = {
            str(row.d): sorted(_tuple_display(t) for t in row.points)
            for row in self.rows
            if row.rank0 and row.points is not None
        }
        return {
            "range": [self.lo, self.hi],
            "source": self.source,
            "classes": [
                {"residue_class": label, "rank0_values": values}
                for label, values in census.items()
            ],
            "conclusions": conclusions,
            "counts": {
                "verified": sum(1 for r in self.rows if r.status == "verified"),
                "inapplicable": sum(
                    1 for r in self.rows if r.status == "inapplicable"
                ),
                "skipped": sum(1 for r in self.rows if r.status == "skipped"),
            },
        }

    def text(self) -> str:
        census = self.census()
        lines = [
            f"census of y^2 = x^5 + d for d in [{self.lo}, {self.hi}] "
            f"with rank-0 fixture ({self.source})"
        ]
        for label in ("7", "9", "1"):
            values = " ".join(str(v) for v in census[label])
            lines.append(f"  d = {label} mod 11:  {values}")
        obj = self.to_obj()["counts"]
        lines.append(
            f"  verified {obj['verified']}, inapplicable {obj['inapplicable']}, "
            f"skipped {obj['skipped']}"
        )
        return "\n".join(lines)


def _tuple_display(t: tuple) -> str:
    if t == INFINITY_TUPLE or len(t) == 1:
        return t[0]
    return f"({t[1]}, {t[2]})"


def sweep_cd(lo: int, hi: int, fixture: RankFixture) -> SweepResult:
    """Generate, verify, and conclude for every d in [lo, hi].

    Independent values of d share no state, so this loop parallelizes
    trivially; rows are reported in increasing d either way.
    """
    rows = []
    for d in range(lo, hi + 1):
        if d == 0:
            rows.append(SweepRow(d, 0, "skipped", False, None))
            continue
        doc = generate_cd(d, fixture=fixture)
        if isinstance(doc, Inapplicable):
            rows.append(SweepRow(d, d % 11, "inapplicable", False, None))
            continue
        report = verify_tpe(doc)
        if not report.all_passed:
            raise RuntimeError(f"generated document for d = {d} failed verification")
        conclusion = theorem_conclusion(report, doc)
        rows.append(
            SweepRow(
                d,
                d % 11,
                "verified",
                doc.rank_assertion.claimed,
                rational_point_set(conclusion.rational_points),
            )
        )
    return SweepResult(lo, hi, rows, fixture.source)
