"""Command-line front end.

Subcommands: verify (one point certificate), sweep (grid of certificates to
CSV or JSON), figures (region boundary curves and the norm-quotient table),
replay (inequality chain checks), ratio (adversarial polynomial search), and
perm (diagonal-times-permutation harness).

Exit codes: 0 all checks passed, 1 a check failed, 2 point outside the
admissible domain, 3 output I/O failure, 4 unparseable arguments.  Every
float is printed with 17 significant digits and all output is a pure
function of the arguments, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import DomainError
from .permutation_ext import perm_from_cycles, verify_observation
from .ratio_search import _RATIO_PASS, worst_ratio_search
from .region_certifier import certify, figure2_data, open_grid, r1, r3, replay_proofs, sweep_table

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_PARSE = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _dump(obj) -> str:
    """JSON text with floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_dump(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad input by default; 2 is reserved
    # for out-of-domain points here, so parse problems become exit code 4
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _write_output(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


_SWEEP_COLUMNS = ("rho", "r", "region", "kappa", "norm_sq", "c_upper", "product", "verdict")
_SWEEP_ROW = "%s,%.17g,%s,%s,%.17g,%s,%.17g,%s\n"


def _sweep_text(table, fmt: str) -> str:
    """A SweepTable as JSON records, _dump(table.records()), or as CSV rows, one % call over a row template.

    Floats go in for %.17g, which prints as _fmt.  In the CSV rho, kappa and c_upper repeat, so _fmt
    runs once per distinct bit pattern (-0.0 apart from 0.0).
    """
    if fmt == "json":
        return _dump(table.records()) + "\n"
    cells = np.empty((table.rho.size, len(_SWEEP_COLUMNS)), dtype=object)
    for j, col in ((0, table.rho), (3, table.kappa), (5, table.c_upper)):
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        cells[:, j] = np.array([_fmt(x) for x in bits.view(np.float64).tolist()], dtype=object)[inverse]
    cells[:, 1], cells[:, 4], cells[:, 6] = table.r, table.norm_sq_upper, table.product
    cells[:, 2], cells[:, 7] = table.region, np.array(["false", "true"], dtype=object)[table.verdict.astype(int)]
    return ",".join(_SWEEP_COLUMNS) + "\n" + _SWEEP_ROW * len(cells) % tuple(cells.ravel().tolist())


def cmd_verify(args) -> int:
    cert = certify(args.rho, args.r)
    print(_dump(cert.to_json()))
    return EXIT_OK if cert.verdict else EXIT_FAIL


def cmd_sweep(args) -> int:
    rho_range = _parse_range(args.rho, "--rho")
    r_range = "auto" if args.r == ["auto"] else _parse_range(args.r, "--r")
    if args.workers < 0:
        raise DomainError(f"--workers must not be negative, got {args.workers}")
    if r_range == "auto":
        r_range = (None, 1.0, rho_range[2])
    table = sweep_table(rho_range, r_range)
    code = _write_output(_sweep_text(table, args.format), args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if table.verdict.all() else EXIT_FAIL


def _parse_range(tokens: list, flag: str) -> tuple:
    if len(tokens) != 3:
        raise DomainError(f"{flag} takes three values: lo hi steps (or 'auto' for --r)")
    try:
        lo, hi, steps = float(tokens[0]), float(tokens[1]), int(tokens[2])
    except ValueError:
        raise DomainError(f"cannot parse {flag} range {tokens}")
    if not (lo < hi and steps >= 1) and not (lo == hi and steps == 1):
        raise DomainError(f"bad {flag.lstrip('-')} range {(lo, hi, steps)}")
    return lo, hi, steps


# the curves of `figures --which regions`: name, the interval of open_grid, and (rho, r) at a node
_REGION_CURVES = (
    ("r_min", (1.0, 50.0), lambda rho: (rho, 1.0 / math.sqrt(rho))),
    ("r1", (1.0, 50.0), lambda rho: (rho, r1(rho))),
    ("r3", (1.0, 2.0), lambda rho: (rho, r3(rho))),
    ("strip_rho10", (0.75, 0.77), lambda r: (10.0, r)),
    ("strip_r075", (10.0, 50.0), lambda rho: (rho, 0.75)),
    ("strip_r077", (10.0, 50.0), lambda rho: (rho, 0.77)),
)


def cmd_figures(args) -> int:
    if args.which == "regions":
        rows = [{"curve": name, "rho": rho, "r": r}
                for name, (lo, hi), at in _REGION_CURVES for rho, r in map(at, open_grid(lo, hi, args.grid).tolist())]
    else:
        rows = [{"rho": rho, "value": val} for rho, val in figure2_data(args.grid)]
    if args.format == "json":
        text = _dump(rows) + "\n"
    else:
        lines = [list(rows[0])] + [[v if isinstance(v, str) else _fmt(v) for v in row.values()] for row in rows]
        text = "".join(",".join(line) + "\n" for line in lines)
    return _write_output(text, args.out)


def cmd_replay(args) -> int:
    report = replay_proofs()
    print(_dump(report.to_json()))
    return EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_ratio(args) -> int:
    result = worst_ratio_search(args.rho, args.r, args.degree, args.budget, args.seed)
    print(_dump(result.to_json()))
    return EXIT_OK if result.best_ratio <= _RATIO_PASS else EXIT_FAIL


def cmd_perm(args) -> int:
    try:
        a = complex(args.a)
        diag = [complex(tok) for tok in args.diag.split(",") if tok.strip()]
        if not diag:
            raise ValueError("empty diagonal")
        perm = perm_from_cycles(args.perm, len(diag))
    except (ValueError, DomainError) as exc:
        print(f"bad perm arguments: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = verify_observation(a, diag, perm, args.degree, args.budget, args.seed)
    print(_dump(report.to_json()))
    return EXIT_OK if report.passed else EXIT_FAIL


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="crouzeix-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="certificate for one (rho, r) point")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(fn=cmd_verify, domain_exit=EXIT_DOMAIN)

    p = sub.add_parser("sweep", help="grid of certificates")
    p.add_argument("--rho", nargs=3, metavar=("LO", "HI", "STEPS"), required=True,
                   help="grid lo + (hi-lo)k/steps, k = 1..steps")
    p.add_argument("--r", nargs="+", default=["auto"],
                   help="'auto' for (1/sqrt(rho), 1] per row, or LO HI STEPS")
    p.add_argument("--workers", type=int, default=0,
                   help="ignored, accepted for compatibility: the sweep runs in one process")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_sweep, domain_exit=EXIT_PARSE)

    p = sub.add_parser("figures", help="boundary curves / quotient table")
    p.add_argument("--which", choices=("regions", "figure2"), required=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_figures, domain_exit=EXIT_PARSE)

    p = sub.add_parser("replay", help="replay the inequality chains")
    p.set_defaults(fn=cmd_replay, domain_exit=EXIT_DOMAIN)

    p = sub.add_parser("ratio", help="adversarial ratio search")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_ratio, domain_exit=EXIT_DOMAIN)

    p = sub.add_parser("perm", help="diagonal-times-permutation harness")
    p.add_argument("--a", default="0")
    p.add_argument("--diag", required=True, help="comma-separated complex entries, e.g. 1,2,3")
    p.add_argument("--perm", default="", help="cycle notation, e.g. '(0 1)(2 3 4)'")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_perm, domain_exit=EXIT_DOMAIN)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a DomainError is a point outside the domain, or for sweep and figures an argument it cannot take
    try:
        return args.fn(args)
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return args.domain_exit


if __name__ == "__main__":
    sys.exit(main())
