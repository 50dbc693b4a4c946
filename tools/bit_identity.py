"""Print the search's and the CLI's outputs as exact text, for bit-identity checks.

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
on 1, 2, 7 and 2048 points, and the stdout and exit code of `ratio`, `perm`
and `verify` for fixed arguments.  It takes about a minute on one core.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from crouzeix_lab import cli, permutation_ext
from crouzeix_lab.core_matrix import build_A_rho
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

    for argv in CLI_RUNS:
        _emit("cli " + " ".join(argv), _cli(argv))


if __name__ == "__main__":
    main()
