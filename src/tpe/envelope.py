"""Torsion packet envelope documents, the condition verifier, and conclusions.

A torsion packet envelope (TPE) for a curve C over Q with base point P0 is a
triple (F, T, w): a number field F given as a tower, a finite subset T of
C(F) whose divisor classes P - P0 are all torsion, and a place w of F over an
odd prime p that splits completely in F, such that C has good reduction at p
and #T >= #C(F_p).  When all five conditions hold, every rational point of C
whose class is torsion lies in T, and reduction T -> C(F_p) is a bijection.

The verifier checks the five conditions plus that bijectivity (distinct
reduction images force #T = #C(F_p); any excess or collision is reported as
inconsistent certificates).  Condition failures are report entries, never
exceptions.  Entries are independent, so their checks could run concurrently;
the report preserves entry order either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from tpe.algebra import (
    Poly,
    exact_sqrt,
    rational_roots,
    values_mod_p,
)
from tpe.curve import (
    AFFINE,
    INF,
    INF_MINUS,
    INF_PLUS,
    CurveModP,
    CurvePoint,
    HyperellipticCurve,
    ReducedPoint,
    is_weierstrass,
    on_curve,
    reduce_curve,
    reduce_point,
)
from tpe.jacobian import CertifiedTorsion, NotTorsion, torsion_decide
from tpe.tower import (
    ResidueAssignment,
    TowerElement,
    TowerSpec,
    split_places,
)


# ---------------------------------------------------------------------------
# certificates and entries


@dataclass(frozen=True)
class BasePointCert:
    """The entry point is the base point itself; its class is the identity."""


@dataclass(frozen=True)
class WeierstrassTwoTorsionCert:
    """The entry is a Weierstrass point; its class is killed by 2."""


@dataclass(frozen=True)
class EvenModelInfinityCert:
    """An even-model point at infinity; its class is killed by 2."""


@dataclass(frozen=True)
class PrincipalDivisorCert:
    """v(x)^2 - f(x) = c(x - a)^m exhibits div(y - v(x)) = m(P - P_inf),
    so the class of P = (a, v(a)) is killed by m.  v has coefficients in the
    document tower, low degree first."""

    v: tuple[TowerElement, ...]
    m: int


@dataclass(frozen=True)
class CantorCheckedCert:
    """The torsion decision procedure certifies this exact order."""

    expected_order: int


Certificate = (
    BasePointCert
    | WeierstrassTwoTorsionCert
    | EvenModelInfinityCert
    | PrincipalDivisorCert
    | CantorCheckedCert
)


@dataclass(frozen=True)
class PointEntry:
    point: CurvePoint
    certificate: Certificate


@dataclass(frozen=True)
class WeierstrassFamilyEntry:
    """The deg(h) Weierstrass points {(a, 0) : h(a) = 0} for squarefree h | f,
    without explicit coordinates; their residues are the roots of h mod p."""

    h: Poly


Entry = PointEntry | WeierstrassFamilyEntry


@dataclass(frozen=True)
class RankAssertion:
    """Externally supplied rank-0 claim; never computed here."""

    claimed: bool
    source: str = ""


@dataclass
class TPEDocument:
    curve: HyperellipticCurve
    base_point: CurvePoint
    tower: TowerSpec
    p: int
    entries: tuple[Entry, ...]
    rank_assertion: RankAssertion
    place: tuple[int, ...] | None = None  # residues per generator; None = first
    sqrt_lc: TowerElement | None = None
    field_attestation: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.entries = tuple(self.entries)
        if not self.entries:
            raise ValueError("a document needs at least one entry")
        if self.field_attestation is not None and self.tower.k != 0:
            raise ValueError("a field attestation excludes explicit generators")


# ---------------------------------------------------------------------------
# reports


@dataclass
class EntryResult:
    index: int
    kind: str
    ok: bool
    detail: str
    order_divides: int | None = None
    points: int = 0
    reductions: tuple[ReducedPoint, ...] = ()


@dataclass
class ConditionResult:
    key: str
    passed: bool
    detail: str
    evidence: dict


@dataclass
class VerificationReport:
    conditions: list[ConditionResult]
    entries: list[EntryResult]
    t_count: int | None
    curve_count: int | None
    place: ResidueAssignment | None
    place_index: int | None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, key: str) -> ConditionResult:
        for c in self.conditions:
            if c.key == key:
                return c
        raise KeyError(key)


# ---------------------------------------------------------------------------
# helpers


def resolve_sqrt_lc(doc: TPEDocument) -> TowerElement | None:
    """The declared or implied square root of lc(f) in the document tower.

    An explicit declaration must square to lc(f); otherwise a rational square
    root is derived when lc(f) is a square in Q.  Returns None if neither
    applies (even-model infinity entries then fail their checks)."""
    lc = doc.curve.leading
    if doc.sqrt_lc is not None:
        if doc.sqrt_lc * doc.sqrt_lc == doc.tower.rational(lc):
            return doc.sqrt_lc
        return None
    num = exact_sqrt(lc.numerator)
    den = exact_sqrt(lc.denominator)
    if num is None or den is None:
        return None
    return doc.tower.rational(Fraction(num, den))


def _weierstrass_base_refusal(
    doc: TPEDocument, index: int, kind: str
) -> EntryResult | None:
    """Both Weierstrass entry kinds: on an odd model, 2(P - P0) = 0 for a
    Weierstrass point P only when P0 is a Weierstrass point too."""
    if doc.curve.odd_model and not is_weierstrass(doc.base_point, doc.curve):
        return EntryResult(
            index, kind, False,
            "odd-model Weierstrass certificate needs a Weierstrass base point",
        )
    return None


def _point_is_rational(point: CurvePoint, sqrt_lc: TowerElement | None) -> bool:
    if point.kind == INF:
        return True
    if point.kind in (INF_PLUS, INF_MINUS):
        return sqrt_lc is not None and sqrt_lc.is_rational() is not None
    return (
        point.x.is_rational() is not None and point.y.is_rational() is not None
    )


# ---------------------------------------------------------------------------
# certificate verification


def verify_certificate(
    entry: Entry,
    doc: TPEDocument,
    place: ResidueAssignment | None = None,
    index: int = 0,
    height_ceiling: int | None = None,
) -> EntryResult:
    """Check one entry's torsion certificate against the document."""
    curve, tower = doc.curve, doc.tower
    if isinstance(entry, WeierstrassFamilyEntry):
        return _verify_family(entry, doc, index, None)

    point, cert = entry.point, entry.certificate
    kind = type(cert).__name__
    if point.is_affine and point.x.tower != tower:
        return EntryResult(index, kind, False, "coordinates outside the document tower")
    if not on_curve(point, curve):
        return EntryResult(index, kind, False, "point fails y^2 = f(x)")

    if isinstance(cert, BasePointCert):
        if point != doc.base_point:
            return EntryResult(index, kind, False, "entry is not the base point")
        return EntryResult(index, kind, True, "identity class", 1, points=1)

    if isinstance(cert, WeierstrassTwoTorsionCert):
        if not is_weierstrass(point, curve):
            return EntryResult(index, kind, False, "point is not a Weierstrass point")
        if refusal := _weierstrass_base_refusal(doc, index, kind):
            return refusal
        return EntryResult(index, kind, True, "Weierstrass point", 2, points=1)

    if isinstance(cert, EvenModelInfinityCert):
        if curve.odd_model:
            return EntryResult(index, kind, False, "even-model certificate on an odd model")
        if point.kind not in (INF_PLUS, INF_MINUS):
            return EntryResult(index, kind, False, "entry is not a point at infinity")
        if doc.base_point.kind not in (INF_PLUS, INF_MINUS):
            return EntryResult(
                index, kind, False, "base point must also lie at infinity"
            )
        if resolve_sqrt_lc(doc) is None:
            return EntryResult(
                index, kind, False, "no valid square root of lc(f) is available"
            )
        return EntryResult(index, kind, True, "point at infinity", 2, points=1)

    if isinstance(cert, PrincipalDivisorCert):
        return _verify_principal(point, cert, doc, index)

    if isinstance(cert, CantorCheckedCert):
        if place is None:
            return EntryResult(index, kind, False, "no split place available")
        try:
            verdict = torsion_decide(
                point, curve, tower, doc.p, place, height_ceiling
            )
        except ValueError as exc:
            return EntryResult(index, kind, False, f"precondition failed: {exc}")
        if isinstance(verdict, CertifiedTorsion):
            if verdict.order != cert.expected_order:
                return EntryResult(
                    index, kind, False,
                    f"certified order {verdict.order} != expected {cert.expected_order}",
                )
            return EntryResult(
                index, kind, True, "exact Cantor check", verdict.order, points=1
            )
        if isinstance(verdict, NotTorsion):
            return EntryResult(
                index, kind, False,
                f"refuted: the class is not torsion ({verdict.reason})",
            )
        return EntryResult(index, kind, False, f"undecidable: {verdict.reason}")

    return EntryResult(index, type(cert).__name__, False, "unknown certificate")


def _verify_principal(
    point: CurvePoint, cert: PrincipalDivisorCert, doc: TPEDocument, index: int
) -> EntryResult:
    kind = "PrincipalDivisorCert"
    curve, tower = doc.curve, doc.tower
    if not curve.odd_model:
        return EntryResult(index, kind, False, "principal-divisor form needs an odd model")
    if doc.base_point.kind != INF:
        return EntryResult(index, kind, False, "base point must be the point at infinity")
    if not point.is_affine:
        return EntryResult(index, kind, False, "entry must be affine")
    for c in cert.v:
        if c.tower != tower:
            return EntryResult(index, kind, False, "v has coefficients outside the tower")
    v = Poly(tower, cert.v)
    if v.degree > curve.genus:
        return EntryResult(index, kind, False, f"deg v = {v.degree} exceeds the genus")
    if v(point.x) != point.y:
        return EntryResult(index, kind, False, "v(a) differs from the y-coordinate")
    g = v * v - curve.f.map_domain(tower)
    if cert.m != g.degree:
        return EntryResult(
            index, kind, False,
            f"multiplicity {cert.m} != deg(v^2 - f) = {g.degree}",
        )
    if g != Poly(tower, (-point.x, tower.one)) ** cert.m * g.leading:
        return EntryResult(
            index, kind, False, "v^2 - f is not a perfect power of (x - a)"
        )
    return EntryResult(
        index, kind, True, f"div(y - v) = {cert.m}(P - inf)", cert.m, points=1
    )


def _verify_family(
    entry: WeierstrassFamilyEntry, doc: TPEDocument, index: int, red: CurveModP | None
) -> EntryResult:
    kind = "WeierstrassFamilyEntry"
    h, curve = entry.h, doc.curve
    if h.degree < 1:
        return EntryResult(index, kind, False, "family polynomial must be nonconstant")
    if curve.f % h:  # f is squarefree (make_curve), so h is too
        return EntryResult(index, kind, False, "h does not divide f")
    if refusal := _weierstrass_base_refusal(doc, index, kind):
        return refusal
    try:  # PrimeField refuses a bad p, coerce a non-p-integral h
        red = red or reduce_curve(curve, doc.p)
        hp = h.map_domain(red.field)
        if hp.degree != h.degree:
            raise ValueError("leading coefficient divisible by p")
    except ValueError as exc:
        return EntryResult(index, kind, False, f"splitting test failed: {exc}")
    # deg h distinct roots split h mod p; on good reduction h | f mod p
    candidates = range(red.p) if red.reason else red.roots
    roots = [r for r, v in zip(candidates, values_mod_p(hp, candidates)) if not v]
    if len(roots) != h.degree:
        return EntryResult(
            index, kind, False,
            f"h does not split into distinct linear factors mod {doc.p}",
        )
    return EntryResult(
        index, kind, True,
        f"{h.degree} Weierstrass points of h | f", 2,
        points=h.degree,
        reductions=tuple(ReducedPoint(AFFINE, x=r, y=0) for r in roots),
    )


# ---------------------------------------------------------------------------
# the five-condition verifier


def verify_tpe(
    doc: TPEDocument,
    place_index: int | None = None,
    height_ceiling: int | None = None,
) -> VerificationReport:
    """Check the five envelope conditions plus reduction injectivity.

    Failures become report entries; only malformed arguments raise."""
    curve, tower, p = doc.curve, doc.tower, doc.p
    conditions: list[ConditionResult] = []

    # (1) the field tower is a well-formed finite-dimensional Q-algebra
    ev1 = {
        "generators": list(tower.names),
        "dimension": tower.dimension,
        "attestation": doc.field_attestation,
    }
    conditions.append(
        ConditionResult(
            "field-tower", True,
            doc.field_attestation or tower.describe(), ev1,
        )
    )

    # (2) p is odd and splits completely; resolve the working place
    place = None
    chosen_index = None
    ok2, det2 = True, ""
    places: list[ResidueAssignment] = []
    red = None  # C mod p, which every check of C mod p reads; None for a bad p
    try:
        red = reduce_curve(curve, p)
        places = split_places(tower, p)
    except ValueError as exc:
        ok2, det2 = False, str(exc)
    if ok2 and not places:
        ok2, det2 = False, f"p = {p} does not split completely in the tower"
    # an attested field splits when f mod p has deg f roots (squarefree: good reduction)
    if ok2 and doc.field_attestation is not None and (red.reason or len(red.roots) < curve.degree):
        ok2, det2 = False, f"attested field: f does not split into distinct linear factors mod {p}"
    if ok2:
        if place_index is not None:
            if not 0 <= place_index < len(places):
                ok2, det2 = False, (
                    f"place index {place_index} out of range "
                    f"(only {len(places)} places)"
                )
            else:
                place, chosen_index = places[place_index], place_index
        elif doc.place is not None:
            cand = ResidueAssignment(p, tuple(doc.place))
            if cand in places:
                place, chosen_index = cand, places.index(cand)
            else:
                ok2, det2 = False, f"declared residues {doc.place} name no place over {p}"
        else:
            place, chosen_index = places[0], 0
    if ok2:
        det2 = (
            f"p = {p} splits completely ({len(places)} place(s)); "
            f"using place #{chosen_index}"
            + (f" {place.mapping(tower)}" if tower.k else "")
        )
    conditions.append(
        ConditionResult(
            "split-prime", ok2, det2,
            {"p": p, "places": len(places),
             "residues": list(place.residues) if place else None},
        )
    )

    # (3) good reduction at p
    ok3 = red is not None and red.reason is None
    det3 = det2 if red is None else (
        "p divides neither lc(f) nor disc(f)" if ok3
        else f"p = {p} divides lc(f) or disc(f) (or f is not p-integral)"
    )
    conditions.append(ConditionResult("good-reduction", ok3, det3, {"p": p}))

    # (4) base point and per-entry torsion certificates; T is counted on the
    # same walk (distinct explicit points plus deg h per family)
    sqrt_lc = resolve_sqrt_lc(doc)
    entry_results: list[EntryResult] = []
    explicit: dict[CurvePoint, None] = {}
    family_degree = 0
    ok4 = True
    det4_parts = []
    if not on_curve(doc.base_point, curve):
        ok4 = False
        det4_parts.append("base point is not on the curve")
    if not _point_is_rational(doc.base_point, sqrt_lc):
        ok4 = False
        det4_parts.append("base point is not Q-rational")
    for i, entry in enumerate(doc.entries):
        if isinstance(entry, PointEntry):
            explicit[entry.point] = None
            res = verify_certificate(entry, doc, place, i, height_ceiling)
        else:  # a family reads the roots of f mod p off C mod p
            family_degree += entry.h.degree
            res = _verify_family(entry, doc, i, red)
        entry_results.append(res)
        if not res.ok:
            ok4 = False
            det4_parts.append(f"entry {i}: {res.detail}")
    n_ok = sum(1 for r in entry_results if r.ok)
    det4 = (
        f"{n_ok}/{len(entry_results)} certificates verified"
        if ok4 else "; ".join(det4_parts)
    )
    conditions.append(
        ConditionResult(
            "torsion-certificates", ok4, det4,
            {"verified": n_ok, "total": len(entry_results)},
        )
    )

    # (5) #T >= #C(F_p)
    t_count = len(explicit) + family_degree
    curve_count = red.count if ok3 else None
    ok5 = curve_count is not None and t_count >= curve_count
    det5 = (
        f"#T = {t_count} >= #C(F_{p}) = {curve_count}" if ok5
        else (
            f"#T = {t_count} < #C(F_{p}) = {curve_count}"
            if curve_count is not None
            else "reduced point count unavailable"
        )
    )
    conditions.append(
        ConditionResult(
            "count-domination", ok5, det5,
            {"t_count": t_count, "curve_count": curve_count},
        )
    )

    # injectivity of T -> C(F_p): distinct residues force #T = #C(F_p)
    ok6, det6 = True, ""
    images: list[ReducedPoint] = []
    if place is None:
        ok6, det6 = False, "skipped: no split place available"
    else:
        try:
            for pt in explicit:
                images.append(reduce_point(pt, red, place, sqrt_lc))
            for res in entry_results:
                images.extend(res.reductions)
        except ValueError as exc:
            ok6, det6 = False, f"inconsistent certificates: {exc}"
        if ok6 and len(set(images)) != t_count:
            ok6, det6 = False, (
                "inconsistent certificates: entries collide under reduction "
                f"({len(set(images))} images for {t_count} points)"
            )
        if ok6 and curve_count is not None and t_count != curve_count:
            ok6, det6 = False, (
                f"inconsistent certificates: #T = {t_count} differs from "
                f"#C(F_{p}) = {curve_count}"
            )
        if ok6:
            det6 = f"{t_count} pairwise distinct residue points; #T = #C(F_{p})"
    conditions.append(
        ConditionResult(
            "reduction-injectivity", ok6, det6,
            {"distinct_images": len(set(images)) if images else 0},
        )
    )

    return VerificationReport(
        conditions=conditions,
        entries=entry_results,
        t_count=t_count,
        curve_count=curve_count,
        place=place,
        place_index=chosen_index,
    )


# ---------------------------------------------------------------------------
# conclusions


@dataclass
class Conclusion:
    t_count: int
    rational_points: list[CurvePoint]
    rank_claimed: bool
    rank_source: str
    claim_style: str  # "equality" or "inclusion"
    statements: list[str]
    warnings: list[str]


def _point_sort_key(point: CurvePoint):
    if point.kind == AFFINE:
        return (0, point.x.is_rational(), point.y.is_rational())
    return (1, point.kind)


def point_display(point: CurvePoint) -> str:
    if point.kind == AFFINE:
        return f"({point.x.is_rational()}, {point.y.is_rational()})"
    return point.kind


def theorem_conclusion(report: VerificationReport, doc: TPEDocument) -> Conclusion:
    """The statements earned by an all-pass report.

    Unconditionally, the rational points with torsion class are exactly the
    Q-rational members of T; with an asserted rank-0 Jacobian this upgrades
    to a statement about all rational points.
    """
    if not report.all_passed:
        raise ValueError("conclusion requires an all-pass report")
    tower = doc.tower
    sqrt_lc = resolve_sqrt_lc(doc)
    rational: list[CurvePoint] = []
    seen = set()

    def push(pt: CurvePoint):
        if pt not in seen:
            seen.add(pt)
            rational.append(pt)

    for entry in doc.entries:
        if isinstance(entry, PointEntry):
            if _point_is_rational(entry.point, sqrt_lc):
                push(entry.point)
        else:
            for root in rational_roots(entry.h):
                push(
                    CurvePoint.affine(
                        tower.rational(root), tower.rational(0)
                    )
                )
    rational.sort(key=_point_sort_key)
    for pt in rational:
        if not on_curve(pt, doc.curve):
            raise RuntimeError("rational member fails the curve equation")

    display = "{" + ", ".join(point_display(pt) for pt in rational) + "}"
    statements = [
        f"every rational point of C with torsion class lies in the verified "
        f"set T (#T = {report.t_count})",
        f"C(Q) n J(Q)_tor = {display}",
    ]
    claim_style = doc.meta.get("conclusion_style", "equality")
    warnings = list(doc.meta.get("warnings", []))
    if doc.rank_assertion.claimed:
        if claim_style == "inclusion":
            statements.append(
                f"rank 0 asserted ({doc.rank_assertion.source}): C(Q) is "
                f"contained in T; its members are the rational points among "
                f"T, a subset of {display}"
            )
        else:
            statements.append(
                f"rank 0 asserted ({doc.rank_assertion.source}): "
                f"C(Q) = {display}"
            )
    return Conclusion(
        t_count=report.t_count,
        rational_points=rational,
        rank_claimed=doc.rank_assertion.claimed,
        rank_source=doc.rank_assertion.source,
        claim_style=claim_style,
        statements=statements,
        warnings=warnings,
    )
