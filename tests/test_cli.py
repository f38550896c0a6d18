"""CLI behavior: exit codes, canonical JSON determinism, file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tpe.cli import main
from tpe.docio import document_to_json, parse_document
from tpe.families import bundled_document_text, generate_cd, generate_xpx


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_family_cd_rank0(capsys):
    code, out, _ = run(capsys, ["family", "cd", "--d", "18", "--rank0"])
    assert code == 0
    assert "VERIFIED" in out and "C(Q) = {infinity}" in out


def test_family_cd_inapplicable_exit_2(capsys):
    code, out, _ = run(capsys, ["family", "cd", "--d", "2"])
    assert code == 2
    assert "11" in out  # reports the count bound


def test_family_cd_json_deterministic(capsys):
    code1, out1, _ = run(capsys, ["family", "cd", "--d", "100", "--rank0", "--json"])
    code2, out2, _ = run(capsys, ["family", "cd", "--d", "100", "--rank0", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["report"]["all_passed"] is True
    assert obj["conclusion"]["rational_points"] == ["(0, -10)", "(0, 10)", "infinity"]


def test_family_dd_and_xpx(capsys):
    code, out, _ = run(capsys, ["family", "dd", "--p", "7", "--d", "42"])
    assert code == 0 and "VERIFIED" in out
    code, out, _ = run(capsys, ["family", "xpx", "--p", "5", "--rank0"])
    assert code == 0 and "(0, 0)" in out


def test_family_out_file_round_trips(capsys, tmp_path):
    out_path = tmp_path / "doc.json"
    code, _, _ = run(
        capsys, ["family", "cd", "--d", "12", "--rank0", "--out", str(out_path)]
    )
    assert code == 0
    doc = parse_document(out_path.read_text())
    assert doc.p == 11 and len(doc.entries) == 8
    code, out, _ = run(capsys, ["verify", str(out_path)])
    assert code == 0 and "VERIFIED" in out


def test_family_input_error_exit_3(capsys):
    code, _, err = run(capsys, ["family", "dd", "--p", "5", "--d", "10"])
    assert code == 3 and "error" in err


def test_verify_bundled_quadratic_document_fails_honestly(capsys, tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(bundled_document_text("quadratic_sqrt15.json"))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    assert "NOT VERIFIED" in out
    assert "refuted" in out


def test_verify_place_flag(capsys, tmp_path):
    out_path = tmp_path / "doc.json"
    run(capsys, ["family", "cd", "--d", "20", "--out", str(out_path)])
    code, out, _ = run(capsys, ["verify", str(out_path), "--place", "1"])
    assert code == 0 and "place #1" in out
    code, out, _ = run(capsys, ["verify", str(out_path), "--place", "7"])
    assert code == 1


def test_verify_missing_and_malformed_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, ["verify", str(tmp_path / "nope.json")])
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _, err = run(capsys, ["verify", str(bad)])
    assert code == 3 and "missing" in err


def test_count_command(capsys, tmp_path):
    curve = write(tmp_path, "curve.json", {"f": [7, 0, 0, 0, 0, 1]})
    code, out, _ = run(capsys, ["count", "--curve", curve, "--p", "11"])
    assert code == 0 and "#C(F_11) = 1" in out
    code, out, _ = run(capsys, ["count", "--curve", curve, "--p", "5"])
    assert code == 2  # bad reduction
    code, out, _ = run(capsys, ["count", "--curve", curve, "--p", "11", "--json"])
    assert json.loads(out)["count"] == 1


def test_torsion_command(capsys, tmp_path):
    curve = write(tmp_path, "curve.json", {"f": [9, 0, 0, 0, 0, 1]})
    tower = write(tmp_path, "tower.json", {"generators": []})
    code, out, _ = run(
        capsys,
        ["torsion", "--curve", curve, "--point",
         '{"type":"affine","x":0,"y":3}', "--tower", tower, "--p", "11"],
    )
    assert code == 0 and "order 5" in out

    curve2 = write(tmp_path, "c2.json", {"f": [-4, 0, 0, 0, 0, 1]})
    tower2 = write(
        tmp_path, "t2.json", {"generators": [{"name": "r", "relation": [-239, 0, 1]}]}
    )
    code, out, _ = run(
        capsys,
        ["torsion", "--curve", curve2, "--point",
         '{"type":"affine","x":3,"y":[[[1],1]]}', "--tower", tower2, "--p", "7",
         "--json"],
    )
    assert code == 0 and json.loads(out)["verdict"] == "not_torsion"

    # non-split prime: 2 is a non-residue mod 11
    tower3 = write(
        tmp_path, "t3.json", {"generators": [{"name": "r", "relation": [-2, 0, 1]}]}
    )
    code, out, _ = run(
        capsys,
        ["torsion", "--curve", curve2, "--point",
         '{"type":"affine","x":3,"y":[[[1],1]]}', "--tower", tower3, "--p", "11"],
    )
    assert code == 2


def test_torsion_of_the_point_at_infinity(capsys, tmp_path):
    """The odd-model base point is the identity class: order 1."""
    curve = write(tmp_path, "curve.json", {"f": [9, 0, 0, 0, 0, 1]})
    tower = write(tmp_path, "tower.json", {"generators": []})
    code, out, _ = run(
        capsys,
        ["torsion", "--curve", curve, "--point", '{"type":"infinity"}',
         "--tower", tower, "--p", "11", "--json"],
    )
    assert code == 0 and out == '{"order":1,"verdict":"torsion"}\n'


def test_height_ceiling_must_be_positive(capsys, tmp_path, monkeypatch):
    curve = write(tmp_path, "curve.json", {"f": [-4, 0, 0, 0, 0, 1]})
    tower = write(
        tmp_path, "tower.json", {"generators": [{"name": "r", "relation": [-3121, 0, 1]}]}
    )
    argv = ["torsion", "--curve", curve, "--point",
            '{"type":"affine","x":5,"y":[[[1],1]]}', "--tower", tower, "--p", "19",
            "--json", "--height-ceiling"]
    for bad in ("0", "-5"):
        code, out, err = run(capsys, argv + [bad])
        assert code == 3 and out == "" and "height ceiling" in err
    code, out, _ = run(capsys, argv + ["1"])
    assert code == 2 and json.loads(out)["verdict"] == "undecidable"
    # the variable goes through the same check, on every command
    monkeypatch.setenv("TPE_HEIGHT_CEILING", "-5")
    code, _, err = run(capsys, ["family", "cd", "--d", "18", "--rank0"])
    assert code == 3 and "height ceiling" in err
    # a value that is no integer names the variable
    for bad in ("abc", "1.5"):
        monkeypatch.setenv("TPE_HEIGHT_CEILING", bad)
        code, out, err = run(capsys, ["family", "cd", "--d", "18", "--rank0"])
        assert code == 3 and out == ""
        assert f"TPE_HEIGHT_CEILING must be a positive digit count, not {bad!r}" in err


def test_usage_errors_exit_3_and_help_exits_0(capsys, tmp_path):
    """argparse's usage errors are malformed input (exit 3, never the 2 of
    "inapplicable or undecidable"), in every subcommand; --help exits 0.
    `main` returns these codes instead of raising SystemExit."""
    curve = write(tmp_path, "curve.json", {"f": [9, 0, 0, 0, 0, 1]})
    tower = write(tmp_path, "tower.json", {"generators": []})
    argv = ["torsion", "--curve", curve, "--point", '{"type":"affine","x":0,"y":3}',
            "--tower", tower]
    for bad in (
        argv + ["--p", "11", "--height-ceiling", "abc"],
        argv + ["--p", "eleven"],
        argv + ["--p", "11", "--no-such-flag"],
        ["family", "cd", "--d", "1.5"],
        ["sweep", "cd"],
        [],
    ):
        code, out, err = run(capsys, bad)
        assert code == 3 and out == "" and "error:" in err, bad
    for ok in (["--help"], ["torsion", "--help"], ["family", "dd", "--help"]):
        code, out, _ = run(capsys, ok)
        assert code == 0 and "usage:" in out, ok


def test_count_and_sweep_refuse_place_and_height_ceiling(capsys, tmp_path, monkeypatch):
    """`tpe count` and `tpe sweep cd` read no place and no ceiling, so either
    flag is a usage error there (exit 3); `--json` and `--seed` stay, and a
    bad TPE_HEIGHT_CEILING is still refused on both."""
    curve = write(tmp_path, "curve.json", {"f": [7, 0, 0, 0, 0, 1]})
    count = ["count", "--curve", curve, "--p", "11"]
    sweep = ["sweep", "cd", "--range", "1..3"]
    for argv in (count, sweep):
        for flag in (["--place", "0"], ["--height-ceiling", "5"]):
            code, out, err = run(capsys, argv + flag)
            assert code == 3 and out == "" and "unrecognized arguments" in err, argv + flag
        code, out, _ = run(capsys, argv + ["--json", "--seed", "4"])
        assert code == 0 and out == run(capsys, argv + ["--json"])[1]
        monkeypatch.setenv("TPE_HEIGHT_CEILING", "0")
        code, _, err = run(capsys, argv)
        assert code == 3 and "height ceiling" in err
        monkeypatch.delenv("TPE_HEIGHT_CEILING")


def test_sweep_command(capsys, tmp_path):
    out_path = tmp_path / "census.json"
    code, out, _ = run(
        capsys, ["sweep", "cd", "--range", "-20..20", "--out", str(out_path)]
    )
    assert code == 0
    assert "d = 7 mod 11" in out
    obj = json.loads(out_path.read_text())
    row7 = next(r for r in obj["classes"] if r["residue_class"] == "7")
    assert row7["rank0_values"] == [-15, -4, 18]
    code, _, err = run(capsys, ["sweep", "cd", "--range", "20..-20"])
    assert code == 3


def test_seed_flag_accepted_and_ignored(capsys):
    code1, out1, _ = run(capsys, ["family", "cd", "--d", "18", "--json"])
    code2, out2, _ = run(capsys, ["family", "cd", "--d", "18", "--seed", "42", "--json"])
    assert code1 == code2 == 0 and out1 == out2


def test_count_refuses_p_that_is_not_an_odd_prime(capsys, tmp_path):
    curve = write(tmp_path, "curve.json", {"f": [7, 0, 0, 0, 0, 1]})
    for bad in ("9", "-7", "2", "1", str(2**70)):
        code, out, err = run(capsys, ["count", "--curve", curve, "--p", bad])
        assert code == 3 and out == "" and "error:" in err, bad
    code, _, _ = run(capsys, ["count", "--curve", curve, "--p", "5"])
    assert code == 2  # bad reduction stays inapplicable


@pytest.mark.parametrize("p", [-11, 2**70])
def test_verify_reports_p_the_primality_test_refuses(capsys, tmp_path, p):
    obj = json.loads(document_to_json(generate_cd(18, rank0=True)))
    obj["p"] = p
    path = write(tmp_path, "doc.json", obj)
    code, out, _ = run(capsys, ["verify", path, "--json"])
    assert code == 1
    split = json.loads(out)["report"]["conditions"][1]
    assert split["key"] == "split-prime" and not split["passed"]
    assert split["detail"].startswith(f"p = {p} ")


def _cd_doc():
    return json.loads(document_to_json(generate_cd(100, rank0=True)))


def _quadratic_doc():
    return json.loads(bundled_document_text("quadratic_sqrt15.json"))


def _xpx_doc():
    return json.loads(document_to_json(generate_xpx(5)))


def _drop(key, index):
    def mutate(doc):
        target = doc["entries"][index]
        if key in ("x", "y"):
            target = target["point"]
        del target[key]
    return mutate


MALFORMED_DOCUMENTS = {
    "affine-point-lacks-x": (_quadratic_doc, _drop("x", 1)),
    "affine-point-lacks-y": (_quadratic_doc, _drop("y", 6)),
    "entry-lacks-point": (_quadratic_doc, _drop("point", 2)),
    "entry-lacks-certificate": (_quadratic_doc, _drop("certificate", 2)),
    "family-entry-lacks-h": (_xpx_doc, _drop("h", 2)),
    "entries-not-a-list": (_cd_doc, lambda d: d.update(entries=5)),
    "warnings-not-a-list": (_cd_doc, lambda d: d["meta"].update(warnings="w")),
    "warnings-not-strings": (_cd_doc, lambda d: d["meta"].update(warnings=[1])),
    "boolean-m": (_cd_doc, lambda d: d["entries"][1]["certificate"].update(m=True)),
    "boolean-expected-order": (
        _quadratic_doc,
        lambda d: d["entries"][6]["certificate"].update(expected_order=True),
    ),
    "place-residue-null": (
        _quadratic_doc, lambda d: d.update(place={"s": None}),
    ),
    "place-residue-float": (
        _quadratic_doc, lambda d: d.update(place={"s": 1.5}),
    ),
    "place-residue-string": (
        _quadratic_doc, lambda d: d.update(place={"s": "1"}),
    ),
    "place-residue-boolean": (
        _quadratic_doc, lambda d: d.update(place={"s": True}),
    ),
    "generators-not-a-list": (
        _quadratic_doc, lambda d: d["tower"].update(generators=3),
    ),
    "point-type-unhashable": (
        _quadratic_doc,
        lambda d: d["entries"][1]["point"].update(type={}),
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_verify_malformed_document_exits_3(capsys, tmp_path, case):
    make, mutate = MALFORMED_DOCUMENTS[case]
    obj = make()
    mutate(obj)
    path = write(tmp_path, "doc.json", obj)
    code, out, err = run(capsys, ["verify", path])
    assert code == 3 and out == "" and "error:" in err


def test_torsion_point_lacking_y_exits_3(capsys, tmp_path):
    curve = write(tmp_path, "curve.json", {"f": [9, 0, 0, 0, 0, 1]})
    tower = write(tmp_path, "tower.json", {"generators": []})
    code, out, err = run(
        capsys,
        ["torsion", "--curve", curve, "--point", '{"type":"affine","x":-1}',
         "--tower", tower, "--p", "11"],
    )
    assert code == 3 and out == "" and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "cd", "--d", "18"],
        ["family", "xpx", "--p", "5"],
        ["sweep", "cd", "--range", "-5..5"],
    ],
    ids=["family-cd", "family-xpx", "sweep-cd"],
)
def test_out_into_missing_directory_exits_3(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, argv + ["--out", str(target)])
    assert code == 3 and out == "" and "error:" in err


def test_successive_calls_share_no_parser_state(capsys, tmp_path):
    """The parser is built once per process; no flag may leak into a later call."""
    base = ["family", "cd", "--d", "18", "--json"]
    _, plain, _ = run(capsys, base)
    _, ranked, _ = run(capsys, base + ["--rank0"])
    _, again, _ = run(capsys, base)
    assert plain == again != ranked
    assert json.loads(again)["document"]["rank_assertion"]["claimed"] is False

    doc = tmp_path / "doc.json"
    run(capsys, ["family", "cd", "--d", "20", "--out", str(doc)])
    verify = ["verify", str(doc), "--json"]
    _, first, _ = run(capsys, verify)
    _, placed, _ = run(capsys, verify + ["--place", "1"])
    _, again, _ = run(capsys, verify)
    assert first == again != placed
    assert json.loads(again)["report"]["place_index"] == 0

    curve = write(tmp_path, "curve.json", {"f": [-4, 0, 0, 0, 0, 1]})
    tower = write(
        tmp_path, "tower.json", {"generators": [{"name": "r", "relation": [-239, 0, 1]}]}
    )
    torsion = ["torsion", "--curve", curve, "--point",
               '{"type":"affine","x":3,"y":[[[1],1]]}', "--tower", tower, "--p", "7",
               "--json"]
    code, out, _ = run(capsys, torsion + ["--height-ceiling", "1"])
    assert code == 2 and json.loads(out)["verdict"] == "undecidable"
    code, out, _ = run(capsys, torsion)
    assert code == 0 and json.loads(out)["verdict"] == "not_torsion"


def test_torsion_text_names_the_check_that_refuted(capsys, tmp_path):
    """A refutation by reduced orders names the primes and the check; one by
    the exact multiple keeps its words; the --json payload is the verdict
    alone either way."""
    quintic = write(tmp_path, "quintic.json", {"f": [3, 1, 0, 0, 0, 1]})
    q = write(tmp_path, "q.json", {"generators": []})
    argv = ["torsion", "--curve", quintic, "--point", '{"type":"affine","x":-1,"y":1}',
            "--tower", q, "--p", "1000000007"]
    assert run(capsys, argv) == (
        0, "not torsion (reduced order 6 mod 3, but 6*D != 0 mod 1000000007)\n", ""
    )
    assert run(capsys, argv + ["--json"]) == (0, '{"verdict":"not_torsion"}\n', "")
    curve = write(tmp_path, "curve.json", {"f": [-4, 0, 0, 0, 0, 1]})
    tower = write(
        tmp_path, "tower.json", {"generators": [{"name": "r", "relation": [-239, 0, 1]}]}
    )
    argv = ["torsion", "--curve", curve, "--point",
            '{"type":"affine","x":3,"y":[[[1],1]]}', "--tower", tower, "--p", "7"]
    assert run(capsys, argv) == (0, "not torsion (exact multiple is nonzero)\n", "")


def test_torsion_json_at_a_prime_that_does_not_split(capsys, tmp_path):
    curve = write(tmp_path, "curve.json", {"f": [-4, 0, 0, 0, 0, 1]})
    tower = write(
        tmp_path, "tower.json", {"generators": [{"name": "r", "relation": [-2, 0, 1]}]}
    )
    argv = ["torsion", "--curve", curve, "--point",
            '{"type":"affine","x":3,"y":[[[1],1]]}', "--tower", tower, "--p", "11"]
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 2
    assert json.loads(out) == {
        "verdict": "inapplicable", "reason": "p = 11 does not split completely"
    }
    code, out, _ = run(capsys, argv)
    assert code == 2 and out == "inapplicable: p = 11 does not split completely\n"


def test_torsion_at_a_prime_of_bad_reduction_is_inapplicable(capsys, tmp_path):
    """5 divides disc(x^5 + 9): `tpe torsion` exits 2 with the reason that
    C mod 5 holds, as `tpe count` does, not 3 as for malformed input."""
    curve = write(tmp_path, "curve.json", {"f": [9, 0, 0, 0, 0, 1]})
    tower = write(tmp_path, "tower.json", {"generators": []})
    argv = ["torsion", "--curve", curve, "--point", '{"type":"affine","x":0,"y":3}',
            "--tower", tower, "--p", "5"]
    assert run(capsys, argv + ["--json"]) == (
        2, '{"reason":"bad reduction at 5","verdict":"inapplicable"}\n', ""
    )
    assert run(capsys, argv) == (2, "inapplicable: bad reduction at 5\n", "")
    assert run(capsys, ["count", "--curve", curve, "--p", "5"]) == (
        2, "inapplicable: bad reduction at 5\n", ""
    )


@pytest.mark.parametrize(
    "p, message",
    [(9, "p = 9 is not an odd prime"),
     (2**70, f"p = {2**70} is beyond the 64-bit primality test")],
)
def test_count_reports_the_prime_field_message(capsys, tmp_path, p, message):
    curve = write(tmp_path, "curve.json", {"f": [7, 0, 0, 0, 0, 1]})
    code, out, err = run(capsys, ["count", "--curve", curve, "--p", str(p)])
    assert code == 3 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("values", ["5", "[null]", "[[1]]", "[17.9]", "[true]"])
def test_malformed_rank_fixture_exits_3(capsys, tmp_path, values):
    path = tmp_path / "fx.json"
    path.write_text(f'{{"family": "cd", "residue_class": "7", "rank0_values": {values}}}')
    for argv in (
        ["family", "cd", "--d", "18", "--rank-fixture", str(path)],
        ["sweep", "cd", "--range", "1..3", "--rank-fixture", str(path)],
    ):
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err.startswith("error:")


def test_module_entry_point_runs_the_cli(tmp_path):
    """`python -m tpe.cli verify` gives the same verdict as `tpe verify`:
    the bundled quadratic document is refuted (exit 1).  The process exits 3
    on a usage error and 0 on --help, the codes `main` returns."""
    path = tmp_path / "quadratic.json"
    path.write_text(bundled_document_text("quadratic_sqrt15.json"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = filter(None, (src, os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    for argv, code, text in (
        (["verify", str(path)], 1, "RESULT: NOT VERIFIED"),
        (["verify"], 3, ""),
        (["--help"], 0, "usage:"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "tpe.cli", *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == code, (argv, proc.stderr)
        assert text in proc.stdout, argv
