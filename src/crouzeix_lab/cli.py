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
import json
import math
import os
import sys
from dataclasses import dataclass

from .errors import DomainError
from .permutation_ext import perm_from_cycles, verify_observation
from .ratio_search import worst_ratio_search
from .region_certifier import certify, figure2_data, open_grid, r1, r3, replay_proofs, sweep_points

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_PARSE = 4

_RATIO_PASS = 2.0 + 1e-6


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
    return _dump(float(obj))


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad input by default; 2 is reserved
    # for out-of-domain points here, so parse problems become exit code 4
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


@dataclass(frozen=True)
class SweepConfig:
    rho_range: tuple
    r_range: tuple | str
    parallel_workers: int
    output_path: str | None
    format: str

    def __post_init__(self):
        lo, hi, steps = self.rho_range
        if not (lo < hi and steps >= 1) and not (lo == hi and steps == 1):
            raise DomainError(f"bad rho range {self.rho_range}")
        if self.r_range != "auto":
            lo, hi, steps = self.r_range
            if not (lo < hi and steps >= 1) and not (lo == hi and steps == 1):
                raise DomainError(f"bad r range {self.r_range}")
        if self.parallel_workers < 1:
            raise DomainError("need at least one worker")
        if self.format not in ("csv", "json"):
            raise DomainError(f"unknown format {self.format!r}")


def _out_of_domain_record(rho: float, r: float) -> dict:
    return {
        "region": "OutOfDomain",
        "rho": rho,
        "r": r,
        "X": None,
        "kappa": 0.0,
        "norm_sq_upper": 0.0,
        "c_upper": 0.0,
        "product": 0.0,
        "crouzeix_constant": 0.0,
        "verdict": False,
        "failure_reason": "outside admissible domain",
    }


def _default_workers() -> int:
    env = os.environ.get("CROUZEIX_LAB_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


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


def run_sweep(config: SweepConfig) -> tuple:
    """All grid records in row-major order plus the all-verdicts flag."""
    r_range = (None, 1.0, config.rho_range[2]) if config.r_range == "auto" else config.r_range
    records = [
        cert.to_json() if cert is not None else _out_of_domain_record(rho, r)
        for rho, r, cert in sweep_points(config.rho_range, r_range, config.parallel_workers)
    ]
    return records, all(rec["verdict"] for rec in records)


_SWEEP_COLUMNS = ("rho", "r", "region", "kappa", "norm_sq", "c_upper", "product", "verdict")


def _sweep_text(records: list, fmt: str) -> str:
    if fmt == "json":
        return _dump(records) + "\n"
    lines = [",".join(_SWEEP_COLUMNS)]
    for rec in records:
        lines.append(
            ",".join(
                (
                    _fmt(rec["rho"]),
                    _fmt(rec["r"]),
                    rec["region"],
                    _fmt(rec["kappa"]),
                    _fmt(rec["norm_sq_upper"]),
                    _fmt(rec["c_upper"]),
                    _fmt(rec["product"]),
                    "true" if rec["verdict"] else "false",
                )
            )
        )
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    try:
        cert = certify(args.rho, args.r)
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN
    print(_dump(cert.to_json()))
    return EXIT_OK if cert.verdict else EXIT_FAIL


def cmd_sweep(args) -> int:
    try:
        config = SweepConfig(
            rho_range=_parse_range(args.rho, "--rho"),
            r_range="auto" if args.r == ["auto"] else _parse_range(args.r, "--r"),
            parallel_workers=args.workers if args.workers else _default_workers(),
            output_path=args.out,
            format=args.format,
        )
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    records, all_true = run_sweep(config)
    code = _write_output(_sweep_text(records, config.format), config.output_path)
    if code != EXIT_OK:
        return code
    return EXIT_OK if all_true else EXIT_FAIL


def _parse_range(tokens: list, flag: str) -> tuple:
    if len(tokens) != 3:
        raise DomainError(f"{flag} takes three values: lo hi steps (or 'auto' for --r)")
    try:
        return float(tokens[0]), float(tokens[1]), int(tokens[2])
    except ValueError:
        raise DomainError(f"cannot parse {flag} range {tokens}")


def _figures_regions(grid: int) -> list:
    rows = []
    for rho in open_grid(1.0, 50.0, grid):
        rows.append({"curve": "r_min", "rho": rho, "r": 1.0 / math.sqrt(rho)})
    for rho in open_grid(1.0, 50.0, grid):
        rows.append({"curve": "r1", "rho": rho, "r": r1(rho)})
    for rho in open_grid(1.0, 2.0, grid):
        rows.append({"curve": "r3", "rho": rho, "r": r3(rho)})
    for r in open_grid(0.75, 0.77, grid):
        rows.append({"curve": "strip_rho10", "rho": 10.0, "r": r})
    for rho in open_grid(10.0, 50.0, grid):
        rows.append({"curve": "strip_r075", "rho": rho, "r": 0.75})
    for rho in open_grid(10.0, 50.0, grid):
        rows.append({"curve": "strip_r077", "rho": rho, "r": 0.77})
    return rows


def cmd_figures(args) -> int:
    try:
        if args.which == "regions":
            rows = _figures_regions(args.grid)
            if args.format == "json":
                text = _dump(rows) + "\n"
            else:
                lines = ["curve,rho,r"]
                lines += [f"{row['curve']},{_fmt(row['rho'])},{_fmt(row['r'])}" for row in rows]
                text = "\n".join(lines) + "\n"
        else:
            data = figure2_data(args.grid)
            if args.format == "json":
                text = _dump([{"rho": rho, "value": val} for rho, val in data]) + "\n"
            else:
                lines = ["rho,value"]
                lines += [f"{_fmt(rho)},{_fmt(val)}" for rho, val in data]
                text = "\n".join(lines) + "\n"
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    return _write_output(text, args.out)


def cmd_replay(args) -> int:
    report = replay_proofs()
    print(_dump(report.to_json()))
    return EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_ratio(args) -> int:
    try:
        result = worst_ratio_search(args.rho, args.r, args.degree, args.budget, args.seed)
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN
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
    try:
        report = verify_observation(a, diag, perm, args.degree, args.budget, args.seed)
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN
    print(_dump(report.to_json()))
    return EXIT_OK if report.passed else EXIT_FAIL


def _build_parser() -> _Parser:
    parser = _Parser(prog="crouzeix-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="certificate for one (rho, r) point")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="grid of certificates")
    p.add_argument("--rho", nargs=3, metavar=("LO", "HI", "STEPS"), required=True,
                   help="grid lo + (hi-lo)k/steps, k = 1..steps")
    p.add_argument("--r", nargs="+", default=["auto"],
                   help="'auto' for (1/sqrt(rho), 1] per row, or LO HI STEPS")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes; default CROUZEIX_LAB_WORKERS or cpu count")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("figures", help="boundary curves / quotient table")
    p.add_argument("--which", choices=("regions", "figure2"), required=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("replay", help="replay the inequality chains")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("ratio", help="adversarial ratio search")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_ratio)

    p = sub.add_parser("perm", help="diagonal-times-permutation harness")
    p.add_argument("--a", default="0")
    p.add_argument("--diag", required=True, help="comma-separated complex entries, e.g. 1,2,3")
    p.add_argument("--perm", default="", help="cycle notation, e.g. '(0 1)(2 3 4)'")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_perm)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
