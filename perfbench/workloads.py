"""The benchmark's four workloads: seeded inputs, one operation, its output checks.

Every input stream is a pure function of its seed.  Points of the parameter
plane are drawn in Latin-hypercube blocks of eight, so each stretch of a run
covers the plane evenly and two seeds see the same mix of regions.  The
program only ever receives the generated inputs.

    plane   one CLI sweep (`--r auto --workers 1 --format csv`) over a rho band;
            certify, similarity and the CLI's record and CSV path do the work
    search  one worst_ratio_search(rho, r, 8, 500, k); the boundary maximum
            EllipseBoundary.max_abs_poly dominates, certify is idle
    perm    one verify_observation on aI + DP with n = 1..8; the dense_small
            eigensolver and power-iteration norm dominate, max_abs_poly is idle
    matrix  normalize -> mu_rho -> certify -> c_bracket -> verify_fA_equals_cA
            on c U A(q, r) U* + d I; the only workload running normalize and the
            conformal-map series, and certify with a cold r1 cache
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from crouzeix_lab import cli, conformal_map, core_matrix, permutation_ext, ratio_search, region_certifier

OUT_DIR = Path(__file__).resolve().parent / "_out"
PLANE_CSV = OUT_DIR / "plane.csv"

#: seed of the fixed first operation that warms caches and that setup_s times
WARMUP_SEED = 0

PLANE_WIDTH = 2.0
PLANE_STEPS = 24
SEARCH_DEGREE = 8
SEARCH_BUDGET = 500
PERM_DEGREE = 4
PERM_BUDGET = 60
_RHO_MIN = 1.05
_RHO_MAX = 50.0
_BLOCK = 8


@dataclass(frozen=True)
class Outcome:
    """Checked result of one operation."""

    failures: tuple
    fingerprint: object
    certs: int = 0
    csv_bytes: int = 0
    best_ratio: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    #: tail percentile reported as op_ms_tail: the highest one with at
    #: least ten operations beyond it at the default run length
    tail_pct: float
    #: timed `replay` calls after the loop
    replays: int
    inputs: Callable[[int], Iterator]
    op: Callable
    check: Callable

    def first_input(self):
        return next(self.inputs(WARMUP_SEED))


def _latin(rng: np.random.Generator):
    """One block of Latin-hypercube points in [0, 1)^2."""
    pu, pv = rng.permutation(_BLOCK), rng.permutation(_BLOCK)
    return [((pu[j] + rng.random()) / _BLOCK, (pv[j] + rng.random()) / _BLOCK) for j in range(_BLOCK)]


def domain_point(u: float, v: float, margin: float) -> tuple:
    """Map [0, 1)^2 area-uniformly onto {1.05 <= rho <= 50, 1/sqrt(rho) < r <= 1}.

    The admissible area left of rho is (sqrt(rho) - 1)^2, so sqrt(rho) is
    affine in the square root of a uniform area.  r keeps a relative
    distance of at least margin from the lower edge, where q vanishes.
    """
    a0 = (math.sqrt(_RHO_MIN) - 1.0) ** 2
    a1 = (math.sqrt(_RHO_MAX) - 1.0) ** 2
    s = 1.0 + math.sqrt(a0 + (1.0 - u) * (a1 - a0))
    lo = 1.0 / s
    return s * s, lo + (margin + (1.0 - margin) * (1.0 - v)) * (1.0 - lo)


# ---------------------------------------------------------------------------
# plane


def plane_inputs(seed: int) -> Iterator:
    rng = np.random.default_rng([1, seed])
    while True:
        for u, _ in _latin(rng):
            lo = float(_RHO_MIN + (_RHO_MAX - PLANE_WIDTH - _RHO_MIN) * u)
            yield lo, lo + PLANE_WIDTH, PLANE_STEPS


def plane_op(band) -> int:
    lo, hi, steps = band
    return cli.main(["sweep", "--rho", repr(lo), repr(hi), str(steps), "--r", "auto",
                     "--workers", "1", "--format", "csv", "--out", str(PLANE_CSV)])


def plane_check(band, code: int) -> Outcome:
    data = PLANE_CSV.read_bytes()
    PLANE_CSV.unlink()
    lines = data.decode().splitlines()
    cols = lines[0].split(",")
    iv, ip, ik = cols.index("verdict"), cols.index("product"), cols.index("kappa")
    rows = [line.split(",") for line in lines[1:]]
    bad = sum(1 for f in rows
              if f[iv] != "true" or float(f[ip]) > 1.0 + 1e-12 or float(f[ik]) > 2.0 + 1e-9)
    failures = []
    if code != 0:
        failures.append(f"sweep exit code {code}")
    if len(rows) != band[2] ** 2:
        failures.append(f"{len(rows)} rows, expected {band[2] ** 2}")
    if bad:
        failures.append(f"{bad} rows with a false verdict, product > 1 or kappa > 2")
    return Outcome(tuple(failures), hashlib.sha256(data).hexdigest(),
                   certs=len(rows), csv_bytes=len(data))


# ---------------------------------------------------------------------------
# search


def search_inputs(seed: int) -> Iterator:
    rng = np.random.default_rng([2, seed])
    while True:
        for u, v in _latin(rng):
            rho, r = domain_point(u, v, 1e-4)
            yield rho, r, int(rng.integers(2**31))


def search_op(point):
    rho, r, k = point
    return ratio_search.worst_ratio_search(rho, r, SEARCH_DEGREE, SEARCH_BUDGET, seed=k)


def search_check(point, res) -> Outcome:
    rho, r, _ = point
    failures = []
    if not 1.0 - 1e-9 <= res.best_ratio <= 2.0 + 1e-6:
        failures.append(f"best_ratio {res.best_ratio!r} outside [1, 2]")
    if res.evaluations != SEARCH_BUDGET:
        failures.append(f"{res.evaluations} evaluations, budget {SEARCH_BUDGET}")
    again = ratio_search.ratio_for_poly(core_matrix.build_A_rho(rho, r), res.best_poly,
                                        ratio_search.EllipseBoundary(rho))
    if abs(again - res.best_ratio) > 1e-12 * res.best_ratio:
        failures.append(f"ratio_for_poly gives {again!r}, search reported {res.best_ratio!r}")
    return Outcome(tuple(failures), (res.best_ratio, res.evaluations, res.best_poly.coeffs),
                   best_ratio=res.best_ratio)


# ---------------------------------------------------------------------------
# perm


def perm_inputs(seed: int) -> Iterator:
    rng = np.random.default_rng([3, seed])
    draw = 0
    while True:
        for n in rng.permutation(np.arange(1, 9)):
            n = int(n)
            perm = permutation_ext.PermSpec(n, tuple(int(p) for p in rng.permutation(n)))
            mod = np.exp(rng.uniform(math.log(0.5), math.log(2.0), n))
            d = tuple(complex(x) for x in mod * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n)))
            a = 0j if draw % 3 == 0 else complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            yield a, d, perm, int(rng.integers(2**31))
            draw += 1


def perm_op(inst):
    a, d, perm, seed = inst
    return permutation_ext.verify_observation(a, d, perm, PERM_DEGREE, PERM_BUDGET, seed)


def perm_check(inst, report) -> Outcome:
    failures = () if report.passed else (f"verify_observation failed for n = {report.n}",)
    return Outcome(failures, (report.passed, report.ratio.best_ratio, report.ratio.evaluations),
                   best_ratio=report.ratio.best_ratio)


# ---------------------------------------------------------------------------
# matrix


@dataclass(frozen=True, eq=False)
class MatrixInput:
    B: np.ndarray
    q: float
    r: float
    mirrored: bool


def matrix_inputs(seed: int) -> Iterator:
    rng = np.random.default_rng([4, seed])
    draw = 0
    while True:
        for u, v in _latin(rng):
            rho, r = domain_point(u, v, 0.05)
            q = core_matrix.q_from_rho(rho, r)
            U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            c = 0j
            while abs(c) < 0.2:
                c = complex(rng.standard_normal(), rng.standard_normal())
            d = complex(rng.standard_normal(), rng.standard_normal())
            mirrored = draw % 2 == 1
            base = core_matrix.build_A(q, r)
            if mirrored:
                # -A(q, r)* is unitarily similar to A(q, 1/r), the r > 1 member
                base = -base.conj().T
            yield MatrixInput(c * (U @ base @ U.conj().T) + d * np.eye(3), q, r, mirrored)
            draw += 1


def matrix_op(inp: MatrixInput):
    rec = core_matrix.normalize(inp.B)
    q, r = rec.params.q, rec.params.r
    rho = core_matrix.mu_rho(q, r).rho
    cert = region_certifier.certify(rho, r)
    bracket = conformal_map.c_bracket(rho)
    residual = conformal_map.verify_fA_equals_cA(rho, r)
    return rec, cert, bracket, residual


def matrix_check(inp: MatrixInput, out) -> Outcome:
    rec, cert, bracket, residual = out
    q, r = rec.params.q, rec.params.r
    failures = []
    if abs(q - inp.q) > 1e-8 * max(1.0, inp.q) or abs(r - inp.r) > 1e-8:
        failures.append(f"recovered (q, r) = ({q!r}, {r!r}), built from ({inp.q!r}, {inp.r!r})")
    if rec.mirrored != inp.mirrored:
        failures.append(f"mirrored flag {rec.mirrored}, expected {inp.mirrored}")
    if not cert.verdict:
        failures.append(f"certificate verdict false: {cert.failure_reason}")
    if not residual <= 1e-10:
        failures.append(f"||f(A) - cA|| = {residual!r}")
    return Outcome(tuple(failures), (q, r, rec.mirrored, cert.product, cert.kappa,
                                     bracket.lower, bracket.upper, residual))


# ---------------------------------------------------------------------------


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plane", 101, 99.0, 3, plane_inputs, plane_op, plane_check),
        Workload("search", 303, 50.0, 0, search_inputs, search_op, search_check),
        Workload("perm", 505, 90.0, 0, perm_inputs, perm_op, perm_check),
        Workload("matrix", 404, 99.0, 0, matrix_inputs, matrix_op, matrix_check),
    )
}


def reset_caches() -> None:
    """Empty the program's r1 cache, so each phase starts from the same state."""
    clear = getattr(getattr(region_certifier, "r1", None), "cache_clear", None)
    if clear is not None:
        clear()


def r1_counts() -> tuple:
    """(hits, misses) of the r1 cache so far; zeros if it is no longer cached."""
    info = getattr(getattr(region_certifier, "r1", None), "cache_info", None)
    if info is None:
        return 0, 0
    i = info()
    return i.hits, i.misses


def setup_probe(name: str) -> int:
    """Run a workload's first operation in this fresh interpreter; exit status."""
    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[name]
    inp = wl.first_input()
    failures = wl.check(inp, wl.op(inp)).failures
    for msg in failures:
        print(msg, file=sys.stderr)
    return 1 if failures else 0
