"""Print the search's, the CLI's and `normalize`'s outputs as exact text, for bit-identity checks.

Every line is a label and a JSON value whose floats are written with repr,
so two trees agree bit for bit exactly when their outputs compare equal.
Run it once with each tree's `src` on the path and compare:

    PYTHONPATH=/path/to/old/src python3 tools/bit_identity.py > old.txt
    PYTHONPATH=src python3 tools/bit_identity.py > new.txt
    cmp old.txt new.txt

Inputs: criterion 6's 100 searches (seed 303, degree 8, budget 500), the
normal matrix diag(1, 0, -1) at (8, 500, 0) and (6, 300, 17), 16 more
searches of degree 3 to 12, 120 `verify_observation` reports (seed 505,
n = 1..8, degree 4, budget 60), `ratio_for_poly` on an EllipseBoundary and
on 1, 2, 7 and 2048 points, 48 seeded `normalize(B).to_json()` records (or
the DomainError text) for disguised family members, mirrored members,
degenerate and non-centered spectra, and the stdout and exit code of every
subcommand for fixed arguments: `ratio`, `perm`, `verify`, `replay`, a
`sweep` in csv and json with `--workers 1`, and `figures --which regions`
and `--which figure2`.  It takes about a minute on one core.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from crouzeix_lab import cli, permutation_ext
from crouzeix_lab.core_matrix import build_A, build_A_rho, normalize
from crouzeix_lab.errors import DomainError
from crouzeix_lab.ratio_search import (
    EllipseBoundary,
    PolySpec,
    boundary_samples,
    coordinate_search,
    ratio_for_poly,
    worst_ratio_search,
)

CLI_RUNS = (
    ("ratio", "--rho", "2", "--r", "1"),
    ("ratio", "--rho", "2", "--r", "1", "--degree", "5", "--budget", "80", "--seed", "7"),
    ("ratio", "--rho", "7.3", "--r", "0.8", "--degree", "8", "--budget", "300", "--seed", "1"),
    ("ratio", "--rho", "1.2", "--r", "0.95", "--degree", "12", "--budget", "200", "--seed", "4"),
    ("perm", "--a", "0", "--diag", "1,2,3", "--perm", "(0 1 2)"),
    ("perm", "--a", "1+1j", "--diag", "1,2j,-0.5,1", "--perm", "(0 1)(2 3)"),
    ("perm", "--a", "0.5-0.25j", "--diag", "2j", "--perm", "()"),
    ("verify", "--rho", "2", "--r", "1"),
    ("verify", "--rho", "3.7", "--r", "0.9"),
    ("replay",),
    ("sweep", "--rho", "1.1", "12", "6", "--r", "auto", "--workers", "1", "--format", "csv"),
    ("sweep", "--rho", "1.5", "30", "4", "--r", "0.5", "1", "5", "--workers", "1", "--format", "json"),
    ("figures", "--which", "regions", "--grid", "15"),
    ("figures", "--which", "regions", "--grid", "7", "--format", "json"),
    ("figures", "--which", "figure2", "--grid", "25"),
    ("figures", "--which", "figure2", "--grid", "9", "--format", "json"),
)


def _emit(label: str, value) -> None:
    print(label + "\t" + json.dumps(value))


def _cli(argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return [code, out.getvalue()]


def _perm_instances(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 1 + k % 8
        perm = permutation_ext.PermSpec(n, tuple(int(p) for p in rng.permutation(n)))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = 0j if k % 3 == 0 else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        yield a, d, perm, int(rng.integers(2**31))


def _normalize_inputs(seed: int, count: int):
    """c U M U* + d I for family members, mirrored members and edge spectra."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        kind = k % 6
        q = float(10.0 ** rng.uniform(-2, 1))
        r = float(rng.uniform(0.05, 1.0))
        if kind == 4:  # normal, or 2x2-reducible with a nonzero corner
            M = np.diag([1.0, 0.0, -1.0]).astype(complex)
            M[0, 2] = 0.0 if k % 12 == 4 else complex(rng.standard_normal(), rng.standard_normal())
        elif kind == 5:  # spectrum not centered, or range not an ellipse
            M = build_A(q, r).astype(complex)
            M[1, 1] = 0.3 if k % 12 == 5 else 0.0
            M[0, 1] *= 1.5
        elif kind == 1:  # an r > 1 member, which normalize records mirrored
            s = 1.0 / r
            M = np.array([[1.0, q / s, s * s - 1.0 / (s * s)], [0.0, 0.0, q * s], [0.0, 0.0, -1.0]],
                         dtype=complex)
        else:
            M = build_A(q, r).astype(complex)
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        c = complex(rng.standard_normal(), rng.standard_normal())
        d = complex(rng.standard_normal(), rng.standard_normal())
        yield c * (U @ M @ U.conj().T) + d * np.eye(3)


def main() -> None:
    rng = np.random.default_rng(303)
    for k in range(100):
        rho = float(rng.uniform(1.05, 50.0))
        r = float(rng.uniform(1.0 / math.sqrt(rho) + 1e-6, 1.0))
        _emit(f"criterion6 {k}", worst_ratio_search(rho, r, 8, 500, seed=k).to_json())

    D = np.diag([1.0, 0.0, -1.0]).astype(complex)
    for degree, budget, seed in ((8, 500, 0), (6, 300, 17)):
        _emit(f"normal {degree} {budget} {seed}",
              coordinate_search(D, EllipseBoundary(2.0), degree, budget, seed).to_json())

    rng = np.random.default_rng(404)
    for k in range(16):
        rho = float(rng.uniform(1.05, 50.0))
        r = float(rng.uniform(1.0 / math.sqrt(rho) + 1e-6, 1.0))
        degree = 3 + k % 10
        _emit(f"search {k}", worst_ratio_search(rho, r, degree, 200, seed=k).to_json())

    for k, (a, d, perm, seed) in enumerate(_perm_instances(505, 120)):
        report = permutation_ext.verify_observation(a, d, perm, 4, 60, seed)
        _emit(f"perm {k}", report.to_json())

    rng = np.random.default_rng(606)
    A = build_A_rho(3.0, 0.8)
    boundaries = [EllipseBoundary(3.0)] + [boundary_samples(3.0, 2048)[:m] for m in (1, 2, 7, 2048)]
    for k in range(40):
        cs = rng.standard_normal(1 + k % 13) + 1j * rng.standard_normal(1 + k % 13)
        _emit(f"ratio_for_poly {k}", [ratio_for_poly(A, PolySpec.of(cs), b) for b in boundaries])

    for k, B in enumerate(_normalize_inputs(707, 48)):
        try:
            _emit(f"normalize {k}", normalize(B).to_json())
        except DomainError as exc:
            _emit(f"normalize {k}", "DomainError: " + str(exc))

    for argv in CLI_RUNS:
        _emit("cli " + " ".join(argv), _cli(argv))


if __name__ == "__main__":
    main()
