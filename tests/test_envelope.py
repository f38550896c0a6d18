"""Certificate checks, the five-condition verifier, conclusions, and the
single-field mutation fuzz suite."""

import dataclasses
from fractions import Fraction

import pytest

from conftest import qp, two_pass_family_check
from tpe.algebra import is_prime
from tpe.curve import CurvePoint, make_curve
from tpe.envelope import (
    BasePointCert,
    CantorCheckedCert,
    EvenModelInfinityCert,
    PointEntry,
    PrincipalDivisorCert,
    RankAssertion,
    TPEDocument,
    WeierstrassFamilyEntry,
    WeierstrassTwoTorsionCert,
    resolve_sqrt_lc,
    theorem_conclusion,
    verify_certificate,
    verify_tpe,
)
from tpe.families import (
    Inapplicable,
    generate_cd,
    generate_dd,
    generate_xpx,
    rational_point_set,
)
from tpe.jacobian import Jacobian
from tpe.tower import TowerSpec, split_places

QTRIV = TowerSpec()


def simple_cd_doc(d, tower=None, ys=None, rank=False):
    """T = {infinity, (0, +sqrt d), (0, -sqrt d)} with principal-divisor
    certificates; sqrt d passed explicitly so tests control the tower."""
    tower = tower or QTRIV
    f = qp(d, 0, 0, 0, 0, 1)
    curve = make_curve(f)
    base = CurvePoint.infinity()
    y = ys if ys is not None else tower.rational(3)
    entries = (
        PointEntry(base, BasePointCert()),
        PointEntry(CurvePoint.affine(tower.rational(0), y), PrincipalDivisorCert((y,), 5)),
        PointEntry(CurvePoint.affine(tower.rational(0), -y), PrincipalDivisorCert((-y,), 5)),
    )
    return TPEDocument(curve, base, tower, 11, entries, RankAssertion(rank, "test"))


# ---------------------------------------------------------------------------
# verify_certificate


@pytest.mark.parametrize("d,root", [(9, 3), (100, 10), (4, 2)])
def test_principal_divisor_certificate_and_cantor_cross_check(d, root):
    doc = simple_cd_doc(d, ys=QTRIV.rational(root))
    entry = doc.entries[1]
    res = verify_certificate(entry, doc)
    assert res.ok and res.order_divides == 5
    # soundness cross-check: the same class dies under 5 via Cantor, exactly
    jac = Jacobian.over_q(doc.curve)
    D = jac.embed(entry.point)
    assert jac.mul(5, D) == jac.identity
    for n in range(1, 5):
        assert jac.mul(n, D) != jac.identity


def test_principal_divisor_certificate_over_quadratic_tower():
    t20 = TowerSpec([("s", qp(-20, 0, 1))])
    doc = simple_cd_doc(20, tower=t20, ys=t20.gen(0))
    res = verify_certificate(doc.entries[1], doc)
    assert res.ok
    jac = Jacobian.over_tower(doc.curve, t20)
    assert jac.mul(5, jac.embed(doc.entries[1].point)) == jac.identity


def test_principal_divisor_rejections():
    doc = simple_cd_doc(9)
    good = doc.entries[1]
    # wrong multiplicity
    bad = PointEntry(good.point, PrincipalDivisorCert(good.certificate.v, 3))
    assert not verify_certificate(bad, doc).ok
    # v not matching the y-coordinate
    bad = PointEntry(good.point, PrincipalDivisorCert((QTRIV.rational(4),), 5))
    assert not verify_certificate(bad, doc).ok
    # non-infinity base point
    doc2 = simple_cd_doc(9)
    doc2.base_point = good.point
    assert not verify_certificate(good, doc2).ok


def test_principal_identity_refuses_a_second_root():
    """v^2 - f = c (x - a)^(m-1) (x - b) has degree m but is not a perfect
    power of (x - a); a wrong m is refused first, by the degree."""
    # y^2 = x^5 - x^4 + 9, v = 3 at (0, 3): v^2 - f = -x^4 (x - 1)
    curve = make_curve(qp(9, 0, 0, 0, -1, 1))
    base = CurvePoint.infinity()
    doc = TPEDocument(
        curve, base, QTRIV, 11, (PointEntry(base, BasePointCert()),),
        RankAssertion(False, "test"),
    )
    point = CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3))
    v = (QTRIV.rational(3),)
    res = verify_certificate(PointEntry(point, PrincipalDivisorCert(v, 5)), doc)
    assert not res.ok and res.detail == "v^2 - f is not a perfect power of (x - a)"
    res = verify_certificate(PointEntry(point, PrincipalDivisorCert(v, 4)), doc)
    assert not res.ok and res.detail == "multiplicity 4 != deg(v^2 - f) = 5"


def test_every_cd_principal_entry_verifies():
    checked = 0
    for d in [*range(-300, 0), *range(1, 301)]:
        doc = generate_cd(d)
        if isinstance(doc, Inapplicable):
            continue
        for i, entry in enumerate(doc.entries):
            if isinstance(entry, PointEntry) and isinstance(
                entry.certificate, PrincipalDivisorCert
            ):
                res = verify_certificate(entry, doc, index=i)
                assert res.ok and res.order_divides == entry.certificate.m, (d, i)
                checked += 1
    assert checked == 220


def test_base_point_certificate():
    doc = simple_cd_doc(9)
    assert verify_certificate(doc.entries[0], doc).ok
    stray = PointEntry(
        CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3)), BasePointCert()
    )
    assert not verify_certificate(stray, doc).ok


def test_weierstrass_certificate():
    xpx = generate_xpx(5)
    origin = xpx.entries[1]
    assert verify_certificate(origin, xpx, index=1).ok
    off = PointEntry(
        CurvePoint.affine(xpx.tower.rational(0), xpx.tower.rational(0)),
        WeierstrassTwoTorsionCert(),
    )
    # same point but against a curve where it is not Weierstrass
    doc9 = simple_cd_doc(9)
    bad = PointEntry(
        CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3)),
        WeierstrassTwoTorsionCert(),
    )
    assert not verify_certificate(bad, doc9).ok


def test_weierstrass_family_certificate():
    dd = generate_dd(7, 42)
    fam = dd.entries[2]
    res = verify_certificate(fam, dd, index=2)
    assert res.ok and res.points == 6
    assert sorted(pt.x for pt in res.reductions) == [1, 2, 3, 4, 5, 6]
    bad = WeierstrassFamilyEntry(qp(-1, 0, 0, 0, 0, 0, 1))  # x^6 - 1 does not divide f
    assert not verify_certificate(bad, dd).ok
    notsf = WeierstrassFamilyEntry(qp(1, 2, 1))
    assert not verify_certificate(notsf, dd).ok


def test_family_entry_squarefree_over_q_but_not_mod_p():
    """h = x^2 - 5 divides f = (x^2 - 5)(x^3 + 2), which is squarefree over
    Q, but h = x^2 mod 5: the splitting test refuses the double root."""
    curve = make_curve(qp(-10, 0, 2, -5, 0, 1))
    base = CurvePoint.infinity()
    doc = TPEDocument(
        curve, base, QTRIV, 5, (PointEntry(base, BasePointCert()),),
        RankAssertion(False, "test"),
    )
    res = verify_certificate(WeierstrassFamilyEntry(qp(-5, 0, 1)), doc)
    assert not res.ok
    assert res.detail == "h does not split into distinct linear factors mod 5"


def _family_outcome(entry, doc):
    res = verify_certificate(entry, doc)
    return res.ok, res.detail, res.reductions


def test_family_check_matches_two_pass_oracle_on_generated_families():
    """One root pass decides what the x^p test and a second root pass
    decided: on every generated dd family (p = 3 mod 4, 7..199) and xpx family
    (5..67), at the document's prime and at primes where h fails to split or
    p divides lc(h)."""
    docs = [
        generate_dd(p, d)
        for p in range(7, 200) if p % 4 == 3 and is_prime(p)
        for d in (p, -2 * p)
    ] + [generate_xpx(p) for p in range(5, 68) if is_prime(p)]
    checked = 0
    for doc in docs:
        for entry in doc.entries:
            if not isinstance(entry, WeierstrassFamilyEntry):
                continue
            for p in (doc.p, 3, 5, 7, 11, 13):
                moved = dataclasses.replace(doc, p=p)
                assert _family_outcome(entry, moved) == two_pass_family_check(
                    entry.h, moved
                ), (doc.curve.f, p)
                checked += 1
    assert checked == 6 * len(docs)


# (h, cofactor, p, base point or None for infinity): f = h * cofactor is
# squarefree over Q
HAND_BUILT_FAMILIES = {
    "split": ([2, -3, 1], [3, 0, 0, 1], 7, None),  # (x-1)(x-2), x^3+3
    "p divides lc(h)": ([-1, 7], [2, 0, 0, 0, 1], 7, None),  # 7x-1, x^4+2
    "double root mod p": ([8, -9, 1], [3, 0, 0, 1], 7, None),  # (x-1)(x-8)
    "irreducible quadratic mod p": ([-2, 1, -2, 1], [3, 0, 1], 7, None),  # (x^2+1)(x-2)
    "not p-integral": ([Fraction(-1, 7), 1], [2, 0, 0, 0, 1], 7, None),
    "p = 9": ([-1, 1], [2, 0, 0, 0, 1], 9, None),
    "non-Weierstrass base, h not split": ([1, 0, 1], [3, 0, 0, 1], 7, (-1, 2)),
}


def _hand_built_family(case):
    """(entry, document) for a HAND_BUILT_FAMILIES case."""
    h, cofactor, p, base = HAND_BUILT_FAMILIES[case]
    h = qp(*h)
    curve = make_curve(h * qp(*cofactor))
    base_point = CurvePoint.infinity()
    if base is not None:
        base_point = CurvePoint.affine(QTRIV.rational(base[0]), QTRIV.rational(base[1]))
        assert Fraction(base[1]) ** 2 == curve.f(Fraction(base[0]))
    doc = TPEDocument(
        curve, base_point, QTRIV, p, (PointEntry(base_point, BasePointCert()),),
        RankAssertion(False, "test"),
    )
    return WeierstrassFamilyEntry(h), doc


@pytest.mark.parametrize("case", sorted(HAND_BUILT_FAMILIES))
def test_family_check_matches_two_pass_oracle_on_hand_built_entries(case):
    entry, doc = _hand_built_family(case)
    outcome = _family_outcome(entry, doc)
    assert outcome == two_pass_family_check(entry.h, doc)
    assert outcome[0] == (case == "split"), outcome


def test_family_refusals_keep_their_text_and_order():
    """The base-point rule comes before any splitting failure; a p dividing
    lc(h), a non-p-integral h and a p that is not an odd prime are all
    "splitting test failed" refusals."""
    expected = {
        "split": "2 Weierstrass points of h | f",
        "p divides lc(h)": "splitting test failed: leading coefficient divisible by p",
        "double root mod p": "h does not split into distinct linear factors mod 7",
        "irreducible quadratic mod p": "h does not split into distinct linear factors mod 7",
        "not p-integral": "splitting test failed: denominator 7 divisible by 7",
        "p = 9": "splitting test failed: p = 9 is not an odd prime",
        "non-Weierstrass base, h not split":
            "odd-model Weierstrass certificate needs a Weierstrass base point",
    }
    assert set(expected) == set(HAND_BUILT_FAMILIES)
    for case, detail in expected.items():
        res = verify_certificate(*_hand_built_family(case))
        assert res.detail == detail, case
    assert [r.x for r in verify_certificate(*_hand_built_family("split")).reductions] == [1, 2]


def test_even_infinity_certificate():
    dd = generate_dd(7, 42)
    assert verify_certificate(dd.entries[0], dd).ok
    assert verify_certificate(dd.entries[1], dd, index=1).ok
    on_odd = simple_cd_doc(9)
    bad = PointEntry(CurvePoint.infinity(), EvenModelInfinityCert())
    assert not verify_certificate(bad, on_odd).ok


def test_cantor_checked_certificate_passes_on_true_torsion():
    doc = simple_cd_doc(9)
    entry = PointEntry(
        CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(3)), CantorCheckedCert(5)
    )
    place = split_places(QTRIV, 11)[0]
    assert verify_certificate(entry, doc, place).ok
    wrong = PointEntry(entry.point, CantorCheckedCert(3))
    assert not verify_certificate(wrong, doc, place).ok
    assert not verify_certificate(entry, doc, None).ok  # no place


def test_membership_checked_first():
    doc = simple_cd_doc(9)
    off_curve = PointEntry(
        CurvePoint.affine(QTRIV.rational(1), QTRIV.rational(1)), BasePointCert()
    )
    res = verify_certificate(off_curve, doc)
    assert not res.ok and "y^2" in res.detail


# ---------------------------------------------------------------------------
# verify_tpe


def test_verify_simple_documents():
    doc = simple_cd_doc(9)
    report = verify_tpe(doc)
    assert report.all_passed
    assert report.t_count == 3 and report.curve_count == 3

    d7 = generate_cd(7)
    report = verify_tpe(d7)
    assert report.all_passed and report.t_count == 1 and report.curve_count == 1


def test_verify_quadratic_tower_document():
    t20 = TowerSpec([("s", qp(-20, 0, 1))])
    doc = simple_cd_doc(20, tower=t20, ys=t20.gen(0))
    report = verify_tpe(doc)
    assert report.all_passed
    assert report.t_count == 3
    assert report.place.residues == (3,)  # roots of s^2 - 20 mod 11 are {3, 8}


def test_verify_count_domination_failure():
    # d = 2 mod 11: a document with T = {infinity} passes everything except
    # the count condition (#C(F_11) = 21)
    f = qp(2, 0, 0, 0, 0, 1)
    curve = make_curve(f)
    base = CurvePoint.infinity()
    doc = TPEDocument(
        curve, base, QTRIV, 11,
        (PointEntry(base, BasePointCert()),),
        RankAssertion(False, ""),
    )
    report = verify_tpe(doc)
    assert not report.all_passed
    cond5 = report.condition("count-domination")
    assert not cond5.passed and cond5.evidence["curve_count"] == 21
    assert report.condition("torsion-certificates").passed


def test_verify_place_selection():
    t20 = TowerSpec([("s", qp(-20, 0, 1))])
    doc = simple_cd_doc(20, tower=t20, ys=t20.gen(0))
    r0 = verify_tpe(doc, place_index=0)
    r1 = verify_tpe(doc, place_index=1)
    assert r0.all_passed and r1.all_passed
    assert r0.place != r1.place
    bad = verify_tpe(doc, place_index=5)
    assert not bad.all_passed and not bad.condition("split-prime").passed
    doc.place = (8,)
    assert verify_tpe(doc).all_passed
    doc.place = (5,)
    assert not verify_tpe(doc).condition("split-prime").passed


def test_verify_non_split_prime_fails():
    t2 = TowerSpec([("s", qp(-2, 0, 1))])
    f = qp(2, 0, 0, 0, 0, 1)
    curve = make_curve(f)
    base = CurvePoint.infinity()
    doc = TPEDocument(
        curve, base, t2, 11,
        (
            PointEntry(base, BasePointCert()),
            PointEntry(
                CurvePoint.affine(t2.rational(0), t2.gen(0)),
                PrincipalDivisorCert((t2.gen(0),), 5),
            ),
        ),
        RankAssertion(False, ""),
    )
    report = verify_tpe(doc)
    assert not report.condition("split-prime").passed


def test_verify_collision_is_inconsistent():
    # duplicate coverage of (1, 0): explicitly and inside the family
    xpx = generate_xpx(5)
    extra = PointEntry(
        CurvePoint.affine(xpx.tower.rational(1), xpx.tower.rational(0)),
        WeierstrassTwoTorsionCert(),
    )
    doc = dataclasses.replace(xpx, entries=xpx.entries + (extra,))
    report = verify_tpe(doc)
    assert report.condition("count-domination").passed  # 7 >= 6
    cond6 = report.condition("reduction-injectivity")
    assert not cond6.passed and "inconsistent" in cond6.detail


def test_verify_remark_consistency_on_all_pass():
    for doc in (generate_cd(12), generate_cd(100), generate_dd(7, 42), generate_xpx(7)):
        report = verify_tpe(doc)
        assert report.all_passed
        assert report.t_count == report.curve_count


# ---------------------------------------------------------------------------
# theorem_conclusion


def test_conclusion_requires_all_pass():
    f = qp(2, 0, 0, 0, 0, 1)
    curve = make_curve(f)
    base = CurvePoint.infinity()
    doc = TPEDocument(
        curve, base, QTRIV, 11,
        (PointEntry(base, BasePointCert()),), RankAssertion(False, ""),
    )
    report = verify_tpe(doc)
    with pytest.raises(ValueError):
        theorem_conclusion(report, doc)


def test_conclusion_rational_members():
    doc = generate_cd(100, rank0=True)
    report = verify_tpe(doc)
    conclusion = theorem_conclusion(report, doc)
    got = rational_point_set(conclusion.rational_points)
    assert got == {
        ("affine", Fraction(0), Fraction(10)),
        ("affine", Fraction(0), Fraction(-10)),
        ("infinity",),
    }
    assert conclusion.rank_claimed and conclusion.claim_style == "equality"
    assert any("C(Q) =" in s for s in conclusion.statements)


def test_conclusion_inclusion_style_for_dd():
    doc = generate_dd(7, 42, rank0=True)
    conclusion = theorem_conclusion(verify_tpe(doc), doc)
    assert conclusion.claim_style == "inclusion"
    assert not any("C(Q) =" in s for s in conclusion.statements)
    got = rational_point_set(conclusion.rational_points)
    assert got == {("infinity+",), ("infinity-",)}


def test_conclusion_without_rank_claim():
    doc = generate_cd(18)
    conclusion = theorem_conclusion(verify_tpe(doc), doc)
    assert not conclusion.rank_claimed
    assert len(conclusion.statements) == 2


def test_sqrt_lc_resolution():
    dd = generate_dd(7, 42)
    assert resolve_sqrt_lc(dd).is_rational() == 1
    doc = dataclasses.replace(dd, sqrt_lc=dd.tower.rational(2))
    assert resolve_sqrt_lc(doc) is None  # 2^2 != lc = 1


# ---------------------------------------------------------------------------
# mutation fuzzing: every single-field mutation of a passing document fails


def _assert_fails(doc):
    assert not verify_tpe(doc).all_passed


def test_fuzz_simple_cd_document():
    base_doc = generate_cd(9)
    assert verify_tpe(base_doc).all_passed

    # principal-divisor multiplicity 5 -> 3
    entries = list(base_doc.entries)
    pd = entries[1]
    entries[1] = PointEntry(pd.point, PrincipalDivisorCert(pd.certificate.v, 3))
    _assert_fails(dataclasses.replace(base_doc, entries=tuple(entries)))

    # y-coordinate tampered: (0, 3) -> (0, 4)
    entries = list(base_doc.entries)
    entries[1] = PointEntry(
        CurvePoint.affine(QTRIV.rational(0), QTRIV.rational(4)),
        entries[1].certificate,
    )
    _assert_fails(dataclasses.replace(base_doc, entries=tuple(entries)))

    # drop an entry: count domination fails
    _assert_fails(dataclasses.replace(base_doc, entries=base_doc.entries[:2]))

    # move to a prime where the count outgrows T
    _assert_fails(dataclasses.replace(base_doc, p=13))

    # tamper the curve: d = 9 -> 10 breaks membership
    _assert_fails(
        dataclasses.replace(base_doc, curve=make_curve(qp(10, 0, 0, 0, 0, 1)))
    )

    # base point moved to an affine point: base cert + principal divisors fail
    mutated = dataclasses.replace(base_doc)
    mutated.base_point = base_doc.entries[1].point
    _assert_fails(mutated)


def test_fuzz_quadratic_tower_document():
    base_doc = generate_cd(20)
    assert verify_tpe(base_doc).all_passed

    # invalid declared residue
    _assert_fails(dataclasses.replace(base_doc, place=(5,)))

    # relation swapped for a non-split one
    t2 = TowerSpec([("s", qp(-2, 0, 1))])
    entries = tuple(
        PointEntry(
            CurvePoint.affine(t2.rational(0), t2.gen(0) * (1 if i == 1 else -1)),
            PrincipalDivisorCert((t2.gen(0) * (1 if i == 1 else -1),), 5),
        )
        if i in (1, 2)
        else PointEntry(CurvePoint.infinity(), BasePointCert())
        for i in range(3)
    )
    broken = TPEDocument(
        make_curve(qp(2, 0, 0, 0, 0, 1)), CurvePoint.infinity(), t2, 11,
        entries, RankAssertion(False, ""),
    )
    _assert_fails(broken)


def test_fuzz_big_tower_document():
    base_doc = generate_cd(12)
    assert verify_tpe(base_doc).all_passed

    # tamper one Weierstrass x-coordinate
    entries = list(base_doc.entries)
    w = entries[3]
    entries[3] = PointEntry(
        CurvePoint.affine(w.point.x + base_doc.tower.one, w.point.y),
        w.certificate,
    )
    _assert_fails(dataclasses.replace(base_doc, entries=tuple(entries)))

    # duplicate one Weierstrass point onto another: #T drops below the count
    entries = list(base_doc.entries)
    entries[3] = entries[4]
    _assert_fails(dataclasses.replace(base_doc, entries=tuple(entries)))


def test_fuzz_dd_document():
    base_doc = generate_dd(7, 42)
    assert verify_tpe(base_doc).all_passed

    # family polynomial replaced by a non-divisor
    entries = list(base_doc.entries)
    entries[2] = WeierstrassFamilyEntry(qp(-1, 0, 0, 0, 0, 0, 1))
    _assert_fails(dataclasses.replace(base_doc, entries=tuple(entries)))

    # sqrt_lc declared wrongly
    _assert_fails(dataclasses.replace(base_doc, sqrt_lc=base_doc.tower.rational(3)))

    # prime moved off the family prime: f no longer splits
    _assert_fails(dataclasses.replace(base_doc, p=11))


def test_fuzz_cantor_checked_document():
    doc = simple_cd_doc(9)
    entries = (
        doc.entries[0],
        PointEntry(doc.entries[1].point, CantorCheckedCert(5)),
        PointEntry(doc.entries[2].point, CantorCheckedCert(5)),
    )
    good = dataclasses.replace(doc, entries=entries)
    assert verify_tpe(good).all_passed
    bad_entries = (
        entries[0],
        PointEntry(entries[1].point, CantorCheckedCert(3)),
        entries[2],
    )
    _assert_fails(dataclasses.replace(doc, entries=bad_entries))
