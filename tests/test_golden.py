"""Byte-for-byte CLI output on fifteen fixed commands.

`data/golden_cli.json` holds, for each command, its arguments, its exit code
and its canonical `--json` stdout, recorded before good reduction and
ramification were decided in F_p.  Any difference is a change of output, not
of speed, and must be made on purpose: regenerate the file by running each
command through `tpe.cli.main` as `run_golden` does.
"""

import contextlib
import io
import json
import pathlib

import pytest

from tpe.cli import main
from tpe.families import bundled_document_text

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_cli.json").read_text(encoding="utf-8")
)


def run_golden(args, tmp_path):
    """(exit code, stdout) of `tpe ARGS --json`; "{quadratic}" names a copy
    of the bundled quadratic_sqrt15.json."""
    path = tmp_path / "quadratic_sqrt15.json"
    path.write_text(bundled_document_text("quadratic_sqrt15.json"), encoding="utf-8")
    argv = [a.replace("{quadratic}", str(path)) for a in args] + ["--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_golden_set_covers_the_fifteen_commands():
    assert len(GOLDEN) == 15
    assert sum(1 for g in GOLDEN if g["args"][0] == "family") == 13


@pytest.mark.parametrize("record", GOLDEN, ids=lambda g: "_".join(g["args"]))
def test_output_is_byte_identical(record, tmp_path):
    code, out = run_golden(record["args"], tmp_path)
    assert (code, out) == (record["exit"], record["stdout"])
