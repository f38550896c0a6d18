"""Byte-for-byte CLI output on fifteen fixed commands.

`data/golden_cli.json` holds, for each command, its arguments, its exit code
and its canonical `--json` stdout, recorded before good reduction and
ramification were decided in F_p.  Any difference is a change of output, not
of speed, and must be made on purpose: regenerate the file by running each
command through `tpe.cli.main` as `run_golden` does.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from tpe.algebra import is_prime
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


# sha256 of the 665 records below, taken on the code that coerced each
# polynomial coefficient with its own call
COMMANDS_DIGEST = "73d8c06ae3e0c651ef0752bbf70dc43a92df46807d805ff0c854a8e69dd3eac9"


def digest_commands():
    """`family cd` for d in [-300, 300] (d = 0 is an input error), `family dd`
    for p = 3 mod 4 in 7..199 with d in {p, -2p}, `family xpx` for
    5 <= p < 70, and `verify` of the bundled quadratic document."""
    primes = [p for p in range(5, 200) if is_prime(p)]
    cmds = [["family", "cd", "--d", str(d)] for d in range(-300, 301)]
    cmds += [
        ["family", "dd", "--p", str(p), "--d", str(d)]
        for p in primes if p % 4 == 3 for d in (p, -2 * p)
    ]
    cmds += [["family", "xpx", "--p", str(p)] for p in primes if p < 70]
    return cmds + [["verify", "{quadratic}"]]


def test_665_commands_hash_to_the_recorded_digest(tmp_path):
    """Exit code and `--json` stdout of every command of digest_commands,
    hashed in order, equal the recorded digest: a byte-identity check over
    far more certificate documents than the fifteen golden records."""
    cmds = digest_commands()
    assert len(cmds) == 665
    digest = hashlib.sha256()
    for args in cmds:
        code, out = run_golden(args, tmp_path)
        digest.update(f"{code}\n{out}\n".encode())
    assert digest.hexdigest() == COMMANDS_DIGEST
