"""Command-line front end.

Subcommands: `ct` (constant-term sequences), `newton` (Newton-polytope
report), `check` (congruence checks c1/c2/dig2/digit and the lemma suite),
`unitroot` (zeta cross-check for the Apery family, single fiber or sweep).

Exit codes are a stable scripting contract: 0 = all checks pass, 1 = a
mathematical check failed (with a witness in the output), 2 = usage or
input error.  Structured output (--format json) is one document per
invocation -- an object with the command, an echo of the effective
configuration (defaults filled in), and a results array.  Integers beyond
2**53 are serialized as decimal strings; nothing here is randomized, so
identical invocations produce byte-identical structured output.
"""

from __future__ import annotations

# laurent, the largest module, is compiled first, while the interpreter holds
# little else: the import then peaks lower
from .laurent import constant_term_sequence

import argparse
import functools
import json
import sys

from . import congruence as cong
from .apery import APERY_POLY_SRC
from .polyparse import ParseError, parse_poly
from .polytope import _admissibility, newton_polytope
from .unitroot import unit_root_compare, unit_root_sweep

_BIG = 2**53


def _jsonable(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _BIG else obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def _emit(args, document, text_lines):
    if args.format == "json":
        payload = json.dumps(_jsonable(document), indent=2) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:  # a usage error (exit 2), not a failed check
            raise ValueError(f"cannot write --output: {exc}") from exc
    else:
        sys.stdout.write(payload)


def _add_common(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", default=None, help="write to file instead of stdout")


def _add_poly(sub):
    sub.add_argument("--poly", default=APERY_POLY_SRC,
                     help="polynomial expression (default: the Apery polynomial)")
    sub.add_argument("--d", type=int, default=2, help="number of variables")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dworkcong",
        description="Constant terms of Laurent polynomial powers: congruences "
                    "and p-adic unit roots.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ct = subs.add_parser("ct", help="constant terms b_0..b_N of powers")
    _add_poly(ct)
    ct.add_argument("--N", type=int, required=True)
    ct.add_argument("--p", type=int, default=None, help="work mod p^K")
    ct.add_argument("--K", type=int, default=None)
    _add_common(ct)

    newton = subs.add_parser("newton", help="Newton polytope and admissibility")
    _add_poly(newton)
    _add_common(newton)

    check = subs.add_parser("check", help="congruence checks")
    check.add_argument("kind", choices=("c1", "c2", "dig2", "digit", "lemma"))
    _add_poly(check)
    check.add_argument("--p", type=int, required=True)
    check.add_argument("--s", type=int, default=1)
    check.add_argument("--N", type=int, default=None,
                       help="series cutoff for c1 / range for digit "
                            "(default p^(s+1)-1)")
    check.add_argument("--nmax", type=int, default=20)
    check.add_argument("--mmax", type=int, default=4)
    check.add_argument("--K", type=int, default=None,
                       help="working precision (default s)")
    check.add_argument("--force", action="store_true",
                       help="run even if the polynomial is not admissible")
    _add_common(check)

    unitroot = subs.add_parser("unitroot", help="unit-root zeta cross-check "
                                                "for the Apery family")
    unitroot.add_argument("--p", type=int, required=True)
    group = unitroot.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=int, default=None)
    group.add_argument("--sweep", action="store_true")
    unitroot.add_argument("--s", type=int, default=1)
    unitroot.add_argument("--jobs", type=int, default=1)
    _add_common(unitroot)

    return parser


def _cmd_ct(args) -> int:
    lam = parse_poly(args.poly, args.d, p=args.p, K=args.K)
    b = constant_term_sequence(lam, args.N)
    config = {"poly": args.poly, "d": args.d, "N": args.N,
              "p": args.p, "K": args.K}
    doc = {"command": "ct", "config": config, "results": [{"b": b}]}
    _emit(args, doc, [" ".join(str(v) for v in b)])
    return 0


def _cmd_newton(args) -> int:
    lam = parse_poly(args.poly, args.d)
    poly = newton_polytope(lam)
    vertices = poly.vertices()
    report = _admissibility(poly)
    config = {"poly": args.poly, "d": args.d}
    result = {
        "vertices": [list(v) for v in vertices],
        "interior_points": [list(v) for v in report.interior_points],
        "admissible": report.admissible,
    }
    doc = {"command": "newton", "config": config, "results": [result]}
    lines = [
        "vertices: " + " ".join(str(tuple(v)) for v in vertices),
        "interior lattice points: "
        + (" ".join(str(tuple(v)) for v in report.interior_points) or "(none)"),
        f"admissible: {str(report.admissible).lower()}",
    ]
    _emit(args, doc, lines)
    return 0


def _cmd_check(args) -> int:
    lam = parse_poly(args.poly, args.d)
    kind = args.kind
    N = args.N
    if N is None and kind in ("c1", "digit"):
        N = cong._b_through(args.p, args.s + 1, "the default N = p**(s+1) - 1") - 1
    if kind == "c2":
        report = cong.check_c2(lam, args.p, args.s, K=args.K, force=args.force)
    elif kind == "c1":
        report = cong.check_c1(lam, args.p, args.s, N, K=args.K, force=args.force)
    elif kind == "digit":
        report = cong.check_digit_product(lam, args.p, N, force=args.force)
    elif kind == "dig2":
        report = cong.check_dig2(lam, args.p, args.s, args.nmax, args.mmax,
                                 K=args.K, force=args.force)
    else:
        report = cong.run_lemma_suite(lam, args.p, args.nmax, force=args.force)
    config = {"poly": args.poly, "d": args.d, "kind": kind}
    config.update(report.params)
    doc = {"command": "check", "config": config, "results": [report.as_dict()]}
    lines = [
        f"check {kind} "
        + " ".join(f"{k}={v}" for k, v in report.params.items())
        + f": {report.verdict.upper()}",
        f"admissible: {str(report.admissible).lower()}",
    ]
    if report.witness:
        lines.append("witness: "
                     + " ".join(f"{k}={v}" for k, v in report.witness.items()))
    _emit(args, doc, lines)
    return 0 if report.passed else 1


def _format_zeta_row(row: dict) -> str:
    cells = [f"t={row['t']}", f"smooth={str(row['smooth']).lower()}",
             f"count={row['count']}"]
    if row.get("smooth"):
        cells.append(f"a_p={row['a_p']}")
        cells.append(f"ordinary={str(row['ordinary']).lower()}")
        cells.append(f"hasse={str(row['hasse_agree']).lower()}")
    if "agree" in row:
        cells.append(f"unit_root={row['unit_root']}")
        cells.append(f"omega={row['omega']}")
        cells.append(f"agree={str(row['agree']).lower()}")
    return "  ".join(cells)


def _cmd_unitroot(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if args.sweep:
        reports = unit_root_sweep(args.p, args.s, jobs=args.jobs)
    else:
        reports = [unit_root_compare(args.p, args.t, args.s)]
    rows = [r.as_dict() for r in reports]
    config = {"p": args.p, "s": args.s,
              "t": None if args.sweep else args.t, "sweep": args.sweep}
    doc = {"command": "unitroot", "config": config, "results": rows}
    lines = [_format_zeta_row(row) for row in rows]
    _emit(args, doc, lines)
    failed = any(row.get("agree") is False or row.get("hasse_agree") is False
                 for row in rows)
    return 1 if failed else 0


_DISPATCH = {
    "ct": _cmd_ct,
    "newton": _cmd_newton,
    "check": _cmd_check,
    "unitroot": _cmd_unitroot,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in the process, built on the first."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except (ParseError, cong.NotAdmissibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
