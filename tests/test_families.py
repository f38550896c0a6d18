"""Family generators, the six-case analysis as an oracle, fixtures, sweeps."""

import json
from fractions import Fraction

import pytest

from conftest import qp
from tpe.algebra import cyclotomic, discriminant, is_prime
from tpe.envelope import theorem_conclusion, verify_tpe
from tpe.families import (
    Inapplicable,
    RankFixture,
    builtin_fixture,
    corollary_case_analysis,
    generate_cd,
    generate_dd,
    generate_xpx,
    rational_point_set,
    sweep_cd,
)


def conclude(doc):
    report = verify_tpe(doc)
    assert report.all_passed
    return theorem_conclusion(report, doc)


def test_cd_residue_seven():
    doc = generate_cd(7)
    assert doc.tower.k == 0 and len(doc.entries) == 1
    assert verify_tpe(doc).t_count == 1


def test_cd_residue_nine_square_vs_not():
    sq = generate_cd(9)
    assert sq.tower.k == 0 and len(sq.entries) == 3
    nonsq = generate_cd(20)
    assert nonsq.tower.k == 1
    assert verify_tpe(nonsq).all_passed


def test_cd_residue_one_tower_shapes():
    full = generate_cd(12)  # neither square nor fifth power: 3 generators
    assert full.tower.names == ("z", "s", "u")
    assert full.tower.dimension == 40
    assert len(full.entries) == 8
    square = generate_cd(100)  # square: sqrt(100) = 10 stays rational
    assert square.tower.names == ("z", "u")
    both = generate_cd(1)
    assert both.tower.names == ("z",)
    fifth = generate_cd(-32)  # (-2)^5, residue 1 mod 11
    assert fifth.tower.names == ("z", "s")


def test_cd_inapplicable():
    bad = generate_cd(2)
    assert isinstance(bad, Inapplicable)
    assert bad.count == 21 and "11" in bad.reason
    assert "10" in bad.note
    div = generate_cd(22)
    assert isinstance(div, Inapplicable) and div.count is None
    with pytest.raises(ValueError):
        generate_cd(0)


def test_cd_tenth_power_warning():
    doc = generate_cd(1024)
    assert any("tenth-power free" in w for w in doc.meta["warnings"])
    assert verify_tpe(doc).all_passed


def test_dd_documents():
    for d in (0, 42, 70, 98):
        doc = generate_dd(7, d)
        report = verify_tpe(doc)
        assert report.all_passed
        assert report.t_count == 8 == report.curve_count
    doc11 = generate_dd(11, 22)
    assert verify_tpe(doc11).t_count == 12


@pytest.mark.parametrize("p", [p for p in range(7, 200) if is_prime(p) and p % 4 == 3])
def test_dd_splits_with_good_reduction_at_its_prime(p):
    """With p | d, f = x^(p-1) - 1 mod p: p - 1 distinct roots, found by
    brute force, and verify_tpe passes conditions 2 and 3."""
    for d in (p, -2 * p):
        doc = generate_dd(p, d)
        coeffs = [int(c) % p for c in doc.curve.f.coeffs]
        roots = [
            x for x in range(p)
            if sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
        ]
        assert len(roots) == p - 1
        report = verify_tpe(doc)
        assert report.condition("split-prime").passed
        assert report.condition("good-reduction").passed


def test_dd_discriminant_instances():
    for p, d in ((7, 0), (7, 42), (7, 70), (7, 98), (11, 22)):
        half = (p - 1) // 2
        coeffs = [0] * p
        coeffs[0] = -1
        coeffs[half] = d
        coeffs[p - 1] = 1
        disc = discriminant(qp(*coeffs))
        formula = Fraction(half) ** (p - 1) * Fraction(4 + d * d) ** half
        assert abs(disc) == formula
        assert formula.numerator % p == 1


def test_dd_rejections():
    with pytest.raises(ValueError):
        generate_dd(5, 10)  # 5 = 1 mod 4
    with pytest.raises(ValueError):
        generate_dd(7, 10)  # 7 does not divide 10
    with pytest.raises(ValueError):
        generate_dd(8, 8)  # not prime


def test_xpx_documents():
    doc5 = generate_xpx(5)
    assert doc5.tower.generators[0][1] == cyclotomic(4)
    report = verify_tpe(doc5)
    assert report.all_passed and report.t_count == 6
    doc13 = generate_xpx(13)
    assert doc13.tower.generators[0][1] == qp(1, 0, -1, 0, 1)  # x^4 - x^2 + 1
    assert verify_tpe(doc13).t_count == 14
    con = conclude(generate_xpx(7))
    assert rational_point_set(con.rational_points) == {
        ("affine", Fraction(0), Fraction(0)),
        ("affine", Fraction(1), Fraction(0)),
        ("affine", Fraction(-1), Fraction(0)),
        ("infinity",),
    }
    with pytest.raises(ValueError):
        generate_xpx(3)


def test_case_analysis_examples():
    assert corollary_case_analysis(23).points == {("infinity",)}
    assert corollary_case_analysis(100).points == {
        ("infinity",),
        ("affine", Fraction(0), Fraction(10)),
        ("affine", Fraction(0), Fraction(-10)),
    }
    edge = corollary_case_analysis(1)
    assert edge.warning is not None
    assert edge.points == {
        ("infinity",),
        ("affine", Fraction(0), Fraction(1)),
        ("affine", Fraction(0), Fraction(-1)),
        ("affine", Fraction(-1), Fraction(0)),
    }
    with pytest.raises(ValueError):
        corollary_case_analysis(2)


def test_pipeline_matches_case_analysis_on_fixture():
    fixture = builtin_fixture("cd")
    assert len(fixture.values) == 82
    for d in sorted(fixture.values):
        doc = generate_cd(d, fixture=fixture)
        assert not isinstance(doc, Inapplicable)
        assert doc.rank_assertion.claimed
        conclusion = conclude(doc)
        expected = corollary_case_analysis(d)
        assert rational_point_set(conclusion.rational_points) == expected.points, d


def test_fixture_files():
    cd = builtin_fixture("cd")
    assert cd.family == "cd"
    assert cd.contains(18) and cd.contains(100) and cd.contains(12)
    assert not cd.contains(32)
    assert set(cd.class_values("7")).issuperset({18, 29, -4})
    dd = builtin_fixture("dd-p7")
    assert dd.p == 7 and sorted(dd.values) == [0, 42, 70, 98]
    xpx = builtin_fixture("xpx")
    assert sorted(xpx.values) == [5, 13, 17]
    with pytest.raises(KeyError):
        builtin_fixture("nope")


def test_fixtures_attach_rank_assertions():
    doc = generate_dd(7, 42, fixture=builtin_fixture("dd-p7"))
    assert doc.rank_assertion.claimed and "Magma" in doc.rank_assertion.source
    doc = generate_dd(7, 7 * 9, fixture=builtin_fixture("dd-p7"))
    assert not doc.rank_assertion.claimed
    doc = generate_xpx(13, fixture=builtin_fixture("xpx"))
    assert doc.rank_assertion.claimed
    doc = generate_xpx(7, fixture=builtin_fixture("xpx"))
    assert not doc.rank_assertion.claimed


def test_fixture_load_from_path(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(
        '{"family": "cd", "residue_class": "7", "rank0_values": [18], '
        '"source": "unit test"}'
    )
    fx = RankFixture.load(path)
    assert fx.contains(18) and not fx.contains(29)
    doc = generate_cd(18, fixture=fx)
    assert doc.rank_assertion.claimed and doc.rank_assertion.source == "unit test"
    doc29 = generate_cd(29, fixture=fx)
    assert not doc29.rank_assertion.claimed


@pytest.mark.parametrize("values", ["5", "[null]", "[[1]]", "[17.9]", "[true]"])
def test_fixture_refuses_values_that_are_not_ints(values):
    """Only a list of ints is a rank-0 list: 17.9 is not truncated to 17,
    and true is not read as 1."""
    row = json.loads(f'{{"family": "cd", "rank0_values": {values}}}')
    with pytest.raises(ValueError):
        RankFixture.from_obj(row)
    with pytest.raises(ValueError):
        RankFixture.from_obj([row])


def test_sweep_census_matches_fixture():
    fixture = builtin_fixture("cd")
    result = sweep_cd(-200, 200, fixture)
    census = result.census()
    for label in ("7", "9", "1"):
        assert tuple(census[label]) == fixture.class_values(label)
    obj = result.to_obj()
    assert obj["counts"]["skipped"] == 1
    assert obj["counts"]["verified"] + obj["counts"]["inapplicable"] == 400
    assert "18" in obj["conclusions"] and obj["conclusions"]["18"] == ["infinity"]
    assert sorted(obj["conclusions"]["100"]) == ["(0, -10)", "(0, 10)", "infinity"]
