"""Command-line surface: verify, family, count, torsion, sweep.

Exit codes: 0 verified/decided, 1 verification failed, 2 inapplicable or
undecidable, 3 malformed input, usage errors included.  --json emits
canonical JSON (sorted keys, no insignificant whitespace); identical inputs
produce byte-identical output.
The parser is built once per process; each subcommand names its handler with
set_defaults(func=...); `main` returns argparse's code for a usage error or
--help, and 3 for the input errors (OSError, ValueError) of any handler.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from tpe import docio
from tpe.algebra import PrimeField
from tpe.curve import count_points_mod_p, make_curve
from tpe.docio import DocumentError, dumps_canonical
from tpe.envelope import TPEDocument, theorem_conclusion, verify_tpe
from tpe.families import (
    Inapplicable,
    RankFixture,
    builtin_fixture,
    generate_cd,
    generate_dd,
    generate_xpx,
    sweep_cd,
)
from tpe.jacobian import CertifiedTorsion, NotTorsion, resolve_height_ceiling, torsion_decide
from tpe.tower import split_places

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INAPPLICABLE = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: exit 3, not argparse's 2, in every
    subcommand (add_subparsers builds them from this class)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    def flags(exact: bool) -> argparse.ArgumentParser:
        """The shared flags; `exact` adds those only exact work reads."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--json", action="store_true", help="emit canonical JSON")
        if exact:
            parent.add_argument(
                "--place", type=int, default=None, metavar="INDEX",
                help="index into the split places (default: first, smallest residues)",
            )
            parent.add_argument(
                "--height-ceiling", type=int, default=None, metavar="N",
                help="digit ceiling for exact number-field arithmetic "
                "(default: TPE_HEIGHT_CEILING or 1000000)",
            )
        parent.add_argument(
            "--seed", type=int, default=None,
            help="reserved for the randomized test harness; the tool itself is "
            "deterministic and ignores it",
        )
        return parent

    common, plain = flags(exact=True), flags(exact=False)

    parser = _Parser(
        prog="tpe",
        description="verify torsion packet envelopes for hyperelliptic curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", parents=[common], help="verify a TPE document")
    pv.add_argument("document", help="path to a TPE document (JSON)")
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("family", help="generate and verify a family document")
    fsub = pf.add_subparsers(dest="family_name", required=True)
    fcd = fsub.add_parser("cd", parents=[common], help="y^2 = x^5 + d at p = 11")
    fcd.add_argument("--d", type=int, required=True)
    fdd = fsub.add_parser(
        "dd", parents=[common],
        help="y^2 = x^(p-1) + d x^((p-1)/2) - 1 (p = 3 mod 4, p | d)",
    )
    fdd.add_argument("--p", type=int, required=True)
    fdd.add_argument("--d", type=int, required=True)
    fxpx = fsub.add_parser("xpx", parents=[common], help="y^2 = x^p - x")
    fxpx.add_argument("--p", type=int, required=True)
    for fp in (fcd, fdd, fxpx):
        fp.add_argument(
            "--rank0", action="store_true",
            help="attach a caller-asserted rank-0 claim",
        )
        fp.add_argument(
            "--rank-fixture", metavar="FILE",
            help="attach a rank-0 claim when the value appears in this fixture",
        )
        fp.add_argument("--out", metavar="FILE", help="save the document JSON")
        fp.set_defaults(func=cmd_family)

    pc = sub.add_parser("count", parents=[plain], help="#C(F_p) for a curve file")
    pc.add_argument("--curve", required=True, metavar="FILE")
    pc.add_argument("--p", type=int, required=True)
    pc.set_defaults(func=cmd_count)

    pt = sub.add_parser(
        "torsion", parents=[common],
        help="run the torsion decision procedure on one point",
    )
    pt.add_argument("--curve", required=True, metavar="FILE")
    pt.add_argument("--point", required=True, metavar="SPEC", help="point JSON")
    pt.add_argument("--tower", required=True, metavar="FILE")
    pt.add_argument("--p", type=int, required=True)
    pt.set_defaults(func=cmd_torsion)

    ps = sub.add_parser("sweep", help="run a family over a range")
    ssub = ps.add_subparsers(dest="family_name", required=True)
    scd = ssub.add_parser("cd", parents=[plain])
    scd.add_argument("--range", required=True, metavar="A..B")
    scd.add_argument("--rank-fixture", metavar="FILE", help="default: bundled table")
    scd.add_argument("--out", metavar="FILE", help="save the census JSON")
    scd.set_defaults(func=cmd_sweep)

    return parser


def _echo(text: str):
    sys.stdout.write(text + "\n")


def _emit(args, payload, text: str) -> None:
    """Canonical JSON of `payload` under --json, else the text line."""
    sys.stdout.write(dumps_canonical(payload) if args.json else text + "\n")


def _print_report(doc: TPEDocument, report, conclusion, as_json: bool) -> None:
    if as_json:
        payload = {
            "document": docio.document_to_obj(doc),
            "report": docio.report_to_obj(report),
            "conclusion": (
                docio.conclusion_to_obj(conclusion) if conclusion else None
            ),
        }
        sys.stdout.write(dumps_canonical(payload))
        return
    _echo(f"curve: {doc.curve.equation()}   (p = {doc.p})")
    field = doc.field_attestation or doc.tower.describe()
    _echo(f"field: {field}")
    for cond in report.conditions:
        mark = "PASS" if cond.passed else "FAIL"
        _echo(f"[{mark}] {cond.key}: {cond.detail}")
    _echo("RESULT: " + ("VERIFIED" if report.all_passed else "NOT VERIFIED"))
    if conclusion is not None:
        _echo("conclusion:")
        for line in conclusion.statements:
            _echo(f"  * {line}")
        for warning in conclusion.warnings:
            _echo(f"  ! {warning}")


def _verify_and_print(doc: TPEDocument, args) -> int:
    report = verify_tpe(doc, place_index=args.place, height_ceiling=args.height_ceiling)
    conclusion = theorem_conclusion(report, doc) if report.all_passed else None
    _print_report(doc, report, conclusion, args.json)
    return EXIT_OK if report.all_passed else EXIT_FAILED


def cmd_verify(args) -> int:
    return _verify_and_print(docio.load_document(args.document), args)


def _load_fixture(args) -> RankFixture | None:
    if getattr(args, "rank_fixture", None):
        return RankFixture.load(args.rank_fixture)
    return None


def cmd_family(args) -> int:
    fixture = _load_fixture(args)
    if args.family_name == "cd":
        doc = generate_cd(args.d, rank0=args.rank0, fixture=fixture)
    elif args.family_name == "dd":
        doc = generate_dd(args.p, args.d, rank0=args.rank0, fixture=fixture)
    else:
        doc = generate_xpx(args.p, rank0=args.rank0, fixture=fixture)
    if isinstance(doc, Inapplicable):
        payload = {"inapplicable": True, "reason": doc.reason,
                   "count": doc.count, "note": doc.note}
        note = f"\nnote: {doc.note}" if doc.note else ""
        _emit(args, payload, f"inapplicable: {doc.reason}{note}")
        return EXIT_INAPPLICABLE
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(docio.document_to_json(doc))
    return _verify_and_print(doc, args)


def _load_curve(path):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "f" not in obj:
        raise DocumentError("curve file needs a coefficient list under 'f'")
    return make_curve(docio.poly_from_obj(obj["f"]))


def cmd_count(args) -> int:
    curve = _load_curve(args.curve)
    PrimeField(args.p)  # a p that is not an odd prime is malformed input (exit 3)
    try:
        n = count_points_mod_p(curve, args.p)
    except ValueError as exc:  # bad reduction at p
        _emit(args, {"error": str(exc)}, f"inapplicable: {exc}")
        return EXIT_INAPPLICABLE
    payload = {"curve": docio.poly_to_obj(curve.f), "p": args.p, "count": n}
    _emit(args, payload, f"#C(F_{args.p}) = {n}")
    return EXIT_OK


def cmd_torsion(args) -> int:
    curve = _load_curve(args.curve)
    with open(args.tower, "r", encoding="utf-8") as fh:
        tower = docio.tower_from_obj(json.load(fh))
    point = docio.point_from_obj(json.loads(args.point), tower)
    places = split_places(tower, args.p)
    if not places:
        reason = f"p = {args.p} does not split completely"
        _emit(args, {"verdict": "inapplicable", "reason": reason}, f"inapplicable: {reason}")
        return EXIT_INAPPLICABLE
    index = args.place if args.place is not None else 0
    if not 0 <= index < len(places):
        raise ValueError(f"place index {index} out of range")
    verdict = torsion_decide(
        point, curve, tower, args.p, places[index],
        height_ceiling=args.height_ceiling,
    )
    if isinstance(verdict, CertifiedTorsion):
        payload = {"verdict": "torsion", "order": verdict.order}
        text = f"torsion of exact order {verdict.order}"
        code = EXIT_OK
    elif isinstance(verdict, NotTorsion):
        payload = {"verdict": "not_torsion"}
        text = "not torsion (exact multiple is nonzero)"
        code = EXIT_OK
    else:
        payload = {"verdict": "undecidable", "reason": verdict.reason}
        text = f"undecidable: {verdict.reason}"
        code = EXIT_INAPPLICABLE
    _emit(args, payload, text)
    return code


def cmd_sweep(args) -> int:
    lo_s, _, hi_s = args.range.partition("..")
    lo, hi = int(lo_s), int(hi_s)
    if lo > hi:
        raise ValueError("empty range")
    fixture = (
        RankFixture.load(args.rank_fixture)
        if args.rank_fixture
        else builtin_fixture("cd")
    )
    result = sweep_cd(lo, hi, fixture)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(result.to_obj()))
    _emit(args, result.to_obj(), result.text())
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # keep `--range -200..200` working: a leading dash would otherwise be
    # mistaken for an option by argparse
    for i, arg in enumerate(argv[:-1]):
        if arg == "--range" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--range={argv[i + 1]}"]
            break
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 3 on a usage error, 0 on --help
        return exc.code
    try:
        # TPE_HEIGHT_CEILING is checked on every command, the flag where it exists
        args.height_ceiling = resolve_height_ceiling(getattr(args, "height_ceiling", None))
        return args.func(args)
    except (OSError, ValueError) as exc:
        # malformed input: DocumentError, JSONDecodeError and NonIntegralError
        # are ValueErrors; a missing or unwritable file is an OSError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
