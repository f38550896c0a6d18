"""Canonical JSON encoding of TPE documents, reports, and conclusions.

Canonical form: UTF-8, object keys sorted, no insignificant whitespace, a
single trailing newline.  Rationals are encoded as a bare int when integral
and as a reduced [numerator, denominator] pair (denominator > 0) otherwise.
Tower elements are a bare rational when constant and otherwise a list of
[exponents, rational] terms sorted by exponent tuple.  The verifier accepts
any equivalent spelling and re-emits canonical form.
"""

from __future__ import annotations

import json
from fractions import Fraction

from tpe.algebra import Poly
from tpe.curve import (
    AFFINE,
    INF,
    INF_MINUS,
    INF_PLUS,
    CurvePoint,
    make_curve,
)
from tpe.envelope import (
    BasePointCert,
    CantorCheckedCert,
    Certificate,
    Conclusion,
    Entry,
    EvenModelInfinityCert,
    PointEntry,
    PrincipalDivisorCert,
    RankAssertion,
    TPEDocument,
    VerificationReport,
    WeierstrassFamilyEntry,
    WeierstrassTwoTorsionCert,
    point_display,
)
from tpe.tower import TowerElement, TowerSpec


class DocumentError(ValueError):
    """Malformed document content."""


# ---------------------------------------------------------------------------
# scalars


def fraction_to_obj(q: Fraction):
    if q.denominator == 1:
        return int(q)
    return [q.numerator, q.denominator]


def fraction_from_obj(obj) -> Fraction:
    if isinstance(obj, bool):
        raise DocumentError(f"not a rational: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if (
        isinstance(obj, list)
        and len(obj) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in obj)
    ):
        if obj[1] == 0:
            raise DocumentError("zero denominator")
        return Fraction(obj[0], obj[1])
    raise DocumentError(f"not a rational: {obj!r}")


def element_to_obj(a: TowerElement):
    r = a.is_rational()
    if r is not None:
        return fraction_to_obj(r)
    return [
        [list(exps), fraction_to_obj(c)]
        for exps, c in sorted(a.coeffs.items())
    ]


def element_from_obj(obj, tower: TowerSpec) -> TowerElement:
    if isinstance(obj, int) and not isinstance(obj, bool):
        return tower.rational(obj)
    if isinstance(obj, list):
        if len(obj) == 2 and all(
            isinstance(x, int) and not isinstance(x, bool) for x in obj
        ):
            return tower.rational(fraction_from_obj(obj))
        coeffs = {}
        for term in obj:
            if not (isinstance(term, list) and len(term) == 2 and isinstance(term[0], list)):
                raise DocumentError(f"bad element term: {term!r}")
            exps, raw = term
            if not all(isinstance(e, int) and e >= 0 for e in exps):
                raise DocumentError(f"bad exponents: {exps!r}")
            key = tuple(exps)
            if key in coeffs:
                raise DocumentError(f"duplicate exponent tuple: {exps!r}")
            coeffs[key] = fraction_from_obj(raw)
        try:
            return tower.element(coeffs)
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    raise DocumentError(f"not a tower element: {obj!r}")


def poly_to_obj(f: Poly) -> list:
    return [fraction_to_obj(c) for c in f.coeffs]


def poly_from_obj(obj) -> Poly:
    if not isinstance(obj, list):
        raise DocumentError(f"not a coefficient list: {obj!r}")
    return Poly.over_q([fraction_from_obj(c) for c in obj])


# ---------------------------------------------------------------------------
# points, towers, certificates, entries


_POINT_KINDS = {
    "affine": AFFINE,
    "infinity": INF,
    "infinity+": INF_PLUS,
    "infinity-": INF_MINUS,
}
_KIND_NAMES = {v: k for k, v in _POINT_KINDS.items()}


def point_to_obj(point: CurvePoint):
    if point.kind == AFFINE:
        return {
            "type": "affine",
            "x": element_to_obj(point.x),
            "y": element_to_obj(point.y),
        }
    return {"type": _KIND_NAMES[point.kind]}


def _require(obj, keys, what: str) -> None:
    for key in keys:
        if key not in obj:
            raise DocumentError(f"{what} is missing {key!r}")


def _list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise DocumentError(f"{what} must be a list")
    return obj


def _positive_int(obj, message: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < 1:
        raise DocumentError(message)
    return obj


def point_from_obj(obj, tower: TowerSpec) -> CurvePoint:
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise DocumentError(f"not a point: {obj!r}")
    kind = obj["type"]
    if kind == "affine":
        _require(obj, ("x", "y"), "affine point")
        return CurvePoint.affine(
            element_from_obj(obj["x"], tower), element_from_obj(obj["y"], tower)
        )
    if kind in _POINT_KINDS:
        return CurvePoint(_POINT_KINDS[kind])
    raise DocumentError(f"unknown point type: {kind!r}")


def tower_to_obj(tower: TowerSpec):
    return {
        "generators": [
            {"name": name, "relation": poly_to_obj(rel)}
            for name, rel in tower.generators
        ]
    }


def tower_from_obj(obj) -> TowerSpec:
    if not isinstance(obj, dict) or "generators" not in obj:
        raise DocumentError("tower needs a generators list")
    gens = []
    for g in _list(obj["generators"], "generators"):
        if not isinstance(g, dict) or "name" not in g or "relation" not in g:
            raise DocumentError(f"bad generator: {g!r}")
        gens.append((g["name"], poly_from_obj(g["relation"])))
    try:
        return TowerSpec(gens)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


_CERT_NAMES = {
    BasePointCert: "base_point",
    WeierstrassTwoTorsionCert: "weierstrass_two_torsion",
    EvenModelInfinityCert: "even_model_infinity",
    PrincipalDivisorCert: "principal_divisor",
    CantorCheckedCert: "cantor_checked",
}
_CERT_TYPES = {v: k for k, v in _CERT_NAMES.items()}


def cert_to_obj(cert: Certificate):
    name = _CERT_NAMES[type(cert)]
    if isinstance(cert, PrincipalDivisorCert):
        return {
            "type": name,
            "v": [element_to_obj(c) for c in cert.v],
            "m": cert.m,
        }
    if isinstance(cert, CantorCheckedCert):
        return {"type": name, "expected_order": cert.expected_order}
    return {"type": name}


def cert_from_obj(obj, tower: TowerSpec) -> Certificate:
    if not isinstance(obj, dict) or "type" not in obj:
        raise DocumentError(f"not a certificate: {obj!r}")
    name = obj["type"]
    cls = _CERT_TYPES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise DocumentError(f"unknown certificate type: {name!r}")
    if cls is PrincipalDivisorCert:
        v = tuple(
            element_from_obj(c, tower)
            for c in _list(obj.get("v", []), "principal_divisor v")
        )
        m = _positive_int(obj.get("m"), "principal_divisor needs integer m >= 1")
        return PrincipalDivisorCert(v, m)
    if cls is CantorCheckedCert:
        n = _positive_int(
            obj.get("expected_order"),
            "cantor_checked needs integer expected_order >= 1",
        )
        return CantorCheckedCert(n)
    return cls()


def entry_to_obj(entry: Entry):
    if isinstance(entry, PointEntry):
        return {
            "kind": "point",
            "point": point_to_obj(entry.point),
            "certificate": cert_to_obj(entry.certificate),
        }
    return {"kind": "weierstrass_family", "h": poly_to_obj(entry.h)}


def entry_from_obj(obj, tower: TowerSpec) -> Entry:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DocumentError(f"not an entry: {obj!r}")
    if obj["kind"] == "point":
        _require(obj, ("point", "certificate"), "point entry")
        return PointEntry(
            point_from_obj(obj["point"], tower),
            cert_from_obj(obj["certificate"], tower),
        )
    if obj["kind"] == "weierstrass_family":
        _require(obj, ("h",), "weierstrass_family entry")
        return WeierstrassFamilyEntry(poly_from_obj(obj["h"]))
    raise DocumentError(f"unknown entry kind: {obj['kind']!r}")


# ---------------------------------------------------------------------------
# documents


def document_to_obj(doc: TPEDocument) -> dict:
    obj = {
        "curve": {"f": poly_to_obj(doc.curve.f)},
        "base_point": point_to_obj(doc.base_point),
        "tower": tower_to_obj(doc.tower),
        "p": doc.p,
        "place": (
            "first" if doc.place is None
            else dict(zip(doc.tower.names, doc.place))
        ),
        "entries": [entry_to_obj(e) for e in doc.entries],
        "rank_assertion": {
            "claimed": doc.rank_assertion.claimed,
            "source": doc.rank_assertion.source,
        },
    }
    if doc.sqrt_lc is not None:
        obj["sqrt_lc"] = element_to_obj(doc.sqrt_lc)
    if doc.field_attestation is not None:
        obj["field_attestation"] = doc.field_attestation
    if doc.meta:
        obj["meta"] = doc.meta
    return obj


def document_from_obj(obj) -> TPEDocument:
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    _require(
        obj, ("curve", "base_point", "tower", "p", "entries", "rank_assertion"),
        "document",
    )
    if not isinstance(obj["curve"], dict) or "f" not in obj["curve"]:
        raise DocumentError("curve needs a coefficient list f")
    try:
        curve = make_curve(poly_from_obj(obj["curve"]["f"]))
    except ValueError as exc:
        raise DocumentError(f"bad curve: {exc}") from exc
    tower = tower_from_obj(obj["tower"])
    p = obj["p"]
    if not isinstance(p, int) or isinstance(p, bool):
        raise DocumentError("p must be an integer")
    base_point = point_from_obj(obj["base_point"], tower)
    place_obj = obj.get("place", "first")
    if place_obj == "first":
        place = None
    elif isinstance(place_obj, dict):
        try:
            place = tuple(place_obj[name] for name in tower.names)
        except KeyError as exc:
            raise DocumentError(f"place is missing residue for {exc}") from exc
        if not all(isinstance(r, int) and not isinstance(r, bool) for r in place):
            raise DocumentError("place residues must be integers")
        if len(place_obj) != tower.k:
            raise DocumentError("place names unknown generators")
    else:
        raise DocumentError("place must be 'first' or a residue mapping")
    entries = tuple(
        entry_from_obj(e, tower) for e in _list(obj["entries"], "entries")
    )
    ra = obj["rank_assertion"]
    if not isinstance(ra, dict) or not isinstance(ra.get("claimed"), bool):
        raise DocumentError("rank_assertion needs a boolean 'claimed'")
    rank = RankAssertion(ra["claimed"], str(ra.get("source", "")))
    sqrt_lc = (
        element_from_obj(obj["sqrt_lc"], tower) if "sqrt_lc" in obj else None
    )
    attestation = obj.get("field_attestation")
    if attestation is not None and not isinstance(attestation, str):
        raise DocumentError("field_attestation must be a string")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise DocumentError("meta must be an object")
    warnings = meta.get("warnings", [])
    if not all(isinstance(w, str) for w in _list(warnings, "meta.warnings")):
        raise DocumentError("meta.warnings must be a list of strings")
    try:
        return TPEDocument(
            curve=curve,
            base_point=base_point,
            tower=tower,
            p=p,
            entries=entries,
            rank_assertion=rank,
            place=place,
            sqrt_lc=sqrt_lc,
            field_attestation=attestation,
            meta=meta,
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def document_to_json(doc: TPEDocument) -> str:
    return dumps_canonical(document_to_obj(doc))


def parse_document(text: str) -> TPEDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return document_from_obj(obj)


def load_document(path) -> TPEDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


# ---------------------------------------------------------------------------
# reports and conclusions


def report_to_obj(report: VerificationReport) -> dict:
    return {
        "all_passed": report.all_passed,
        "conditions": [
            {
                "key": c.key,
                "passed": c.passed,
                "detail": c.detail,
                "evidence": c.evidence,
            }
            for c in report.conditions
        ],
        "entries": [
            {
                "index": r.index,
                "kind": r.kind,
                "ok": r.ok,
                "detail": r.detail,
                "order_divides": r.order_divides,
                "points": r.points,
                "reductions": [repr(pt) for pt in r.reductions],
            }
            for r in report.entries
        ],
        "t_count": report.t_count,
        "curve_count": report.curve_count,
        "place": list(report.place.residues) if report.place else None,
        "place_index": report.place_index,
    }


def conclusion_to_obj(conclusion: Conclusion) -> dict:
    return {
        "t_count": conclusion.t_count,
        "rational_points": [
            point_display(pt) for pt in conclusion.rational_points
        ],
        "rank_claimed": conclusion.rank_claimed,
        "rank_source": conclusion.rank_source,
        "claim_style": conclusion.claim_style,
        "statements": conclusion.statements,
        "warnings": conclusion.warnings,
    }
