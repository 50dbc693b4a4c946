"""Print the search's, the CLI's and `normalize`'s outputs as exact text, for bit-identity checks.

Every line is a label and a JSON value whose floats are written with repr,
so two trees agree bit for bit exactly when their outputs compare equal.
Run it once with each tree's `src` on the path and compare:

    PYTHONPATH=/path/to/old/src python3 tools/bit_identity.py > old.txt
    PYTHONPATH=src python3 tools/bit_identity.py > new.txt
    cmp old.txt new.txt

For a change that may move floats, compare the two outputs label by label:

    PYTHONPATH=src python3 tools/bit_identity.py --diff old.txt new.txt

Or let it do both runs against a git revision REF of this repository:

    PYTHONPATH=src python3 tools/bit_identity.py --against REF

It extracts REF's `src` with `git archive` into a temporary directory, runs
itself on that tree and on this one in two subprocesses, and exits 0 only
if every line matches; otherwise it prints the `--diff` report and exits 1.

It prints every non-float mismatch (labels, keys, lengths, booleans, ints,
strings, exit codes) and, for each label group and field, the largest
absolute and relative float drift and the label of the largest relative
one.  A group is a kind of label: its words up to the first numeric one,
so "max_abs_poly chebyshev" and "max_abs_poly search" are two groups.  A CLI
stdout that parses as JSON is compared field by field; a CSV stdout cell by
cell, where the header, the row count and every non-numeric cell must match
and each numeric cell drifts as a field of its column.  It
exits 1 if any non-float mismatch was found, else 0.

Inputs: criterion 6's 100 searches (seed 303, degree 8, budget 500), the
normal matrix diag(1, 0, -1) at (8, 500, 0) and (6, 300, 17), 16 more
searches of degree 3 to 12, three family searches at the edges of the
numerator bound (rho, r, degree, budget, seed) = (1.05, 0.99, 12, 300, 1),
(50, 0.99, 12, 300, 1) and (1e25, 0.9, 12, 60, 0), a search on 512 points
(rho 3, r 0.8, degree 8, budget 500, seed 9), three at the same (rho, r)
where many sample points are local maxima of |p|: on an EllipseBoundary(3,
8) and on 7 evenly spaced boundary points (degree 8, budget 500, seed 9),
and on one point (degree 5, budget 200, seed 9), a search on those 512 points
scaled by 1e-3 (degree 8, budget 300, seed 9), where the |c_j|, j >= 1, grow
to about 8, far above the steps, 120 `verify_observation`
reports (seed 505, n = 1..8, degree 4, budget 60), `ratio_for_poly` on an EllipseBoundary and
on 1, 2, 7 and 2048 points, `EllipseBoundary.max_abs_poly` of the Chebyshev
polynomials T_1..T_12 (rho in {1.01, 1.05, 1.2}, m in {8, 64, 2048}), of
40 random polynomials on an m = 8 boundary, of z^1..z^12 at rho = 1e3 (m in
{8, 64, 2048}), where the peaks are flat, of 26 random polynomials of
degree 0 to 12 scaled by 1e-320 and by 1e250 (rho in {1.05, 3}), and of the
`best_poly` of the first 20 criterion 6 searches at their rho (m in {8, 64,
2048}), which have about five near-equal peaks, 48 seeded
`normalize(B).to_json()` records (or the DomainError text) for disguised family members, mirrored members,
degenerate and non-centered spectra, and the stdout and exit code of every
subcommand for fixed arguments: `ratio`, `perm`, `verify`, `replay`,
`figures --which regions` and `--which figure2`, `verify` at points where
a slack decides the verdict (the product's at (1.98, 1), a LargeRhoR point
whose product is 1.0000000000000002, and `check_mu_bound`'s at the four SmallR
points of `TestSlackEdges`: (3, 0.577350269189626), (5, 0.447213595499958),
(3, 0.7260599988965409) and (2, 0.7071067811865476)), and `sweep`s that reach
every branch of the array certification: `--rho 1.1 12 6 --r auto`,
`--rho 1.5 30 4 --r 0.5 1 5`, `--rho 1 50 40 --r auto` (csv and json), the
strip `--rho 10 50 8 --r 0.755 0.775 8`, the overflow band `--rho 1e76
1.7e308 4 --r 0.05 1 4` (all Uncertified; csv and json), `--rho 1e77 1e154
12 --r 0.05 1 12` (csv and json), where rho**4 and ||G||^2 overflow, rows
with OutOfDomain points (`--rho 0.5 3 5 --r 0.3 1 5`, csv and json, and
`--rho 2 inf 3 --r 0 1.5 6`), the OutOfDomain row `--rho -1 -0.0 1 --r 0.5
1 2`, whose rho cells are -0, the
`plane` workload's shape `--rho LO LO+2 24 --r auto` at 6 seeded LO in
[1.05, 48] (seed 1111; csv and json), and the one-point json `sweep` at
each of 16 seeded points (seed 1010) within 3 ulps of r = 1/sqrt(rho) where
the tests r^2 rho > 1 and r > 1/sqrt(rho) disagree by rounding.  It takes
about 6 s on one core of a 2-vCPU x86 host.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

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

ROOT = Path(__file__).resolve().parents[1]

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
    # points where a slack decides the printed verdict: the product's, then check_mu_bound's
    ("verify", "--rho", "1.98", "--r", "1"),
    ("verify", "--rho", "3.0", "--r", "0.577350269189626"),
    ("verify", "--rho", "5.0", "--r", "0.447213595499958"),
    ("verify", "--rho", "3.0", "--r", "0.7260599988965409"),
    ("verify", "--rho", "2.0", "--r", "0.7071067811865476"),
    ("replay",),
    ("sweep", "--rho", "1.1", "12", "6", "--r", "auto", "--workers", "1", "--format", "csv"),
    ("sweep", "--rho", "1.5", "30", "4", "--r", "0.5", "1", "5", "--workers", "1", "--format", "json"),
    ("sweep", "--rho", "1", "50", "40", "--r", "auto", "--workers", "1", "--format", "csv"),
    ("sweep", "--rho", "1", "50", "40", "--r", "auto", "--workers", "1", "--format", "json"),
    ("sweep", "--rho", "10", "50", "8", "--r", "0.755", "0.775", "8", "--format", "csv"),
    ("sweep", "--rho", "1e76", "1.7e308", "4", "--r", "0.05", "1", "4", "--format", "csv"),
    ("sweep", "--rho", "1e76", "1.7e308", "4", "--r", "0.05", "1", "4", "--format", "json"),
    ("sweep", "--rho", "1e77", "1e154", "12", "--r", "0.05", "1", "12", "--format", "csv"),
    ("sweep", "--rho", "1e77", "1e154", "12", "--r", "0.05", "1", "12", "--format", "json"),
    ("sweep", "--rho", "0.5", "3", "5", "--r", "0.3", "1", "5", "--format", "csv"),
    ("sweep", "--rho", "0.5", "3", "5", "--r", "0.3", "1", "5", "--format", "json"),
    ("sweep", "--rho", "-1", "-0.0", "1", "--r", "0.5", "1", "2", "--format", "csv"),
    ("sweep", "--rho", "2", "inf", "3", "--r", "0", "1.5", "6", "--format", "csv"),
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


def _domain_edge_points(seed: int, count: int) -> list:
    """(rho, r) within 3 ulps of r = 1/sqrt(rho) where r^2 rho > 1 and
    r > 1/sqrt(rho) disagree."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        rho = float(rng.uniform(1.05, 50.0))
        near = [1.0 / math.sqrt(rho)]
        for _ in range(3):
            near = [math.nextafter(near[0], 0.0)] + near + [math.nextafter(near[-1], 2.0)]
        found += [(rho, r) for r in near if (r * r * rho > 1.0) != (1.0 / math.sqrt(rho) < r)]
    return found[:count]


def _load(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            label, _, value = line.rstrip("\n").partition("\t")
            out[label] = json.loads(value)
    return out


def _group(label: str) -> str:
    """A label's kind: its words up to the first that starts with a digit or '-'
    ("max_abs_poly chebyshev 11", "cli sweep --rho ...", "domain edge 3")."""
    words = label.split(" ")
    for k, word in enumerate(words):
        if word[:1].isdigit() or word[:1] == "-":
            return " ".join(words[:k])
    return label


def _as_json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _as_csv(text: str):
    """The rows of a CSV table as dicts keyed by its header, numeric cells as
    floats; None for text that is not a table of two or more columns."""
    rows = list(csv.reader(text.splitlines()))
    if len(rows) < 2 or len(rows[0]) < 2 or any(len(row) != len(rows[0]) for row in rows):
        return None
    return [dict(zip(rows[0], map(_cell, row))) for row in rows[1:]]


def _compare(old, new, path: str, label: str, drift: dict, mismatches: list) -> None:
    """Walk two parsed values in step: floats into drift, anything else must be equal."""
    if isinstance(old, str) and isinstance(new, str) and old != new:
        for parse in (_as_json, _as_csv):
            old_p, new_p = parse(old), parse(new)
            if old_p is not None and new_p is not None:
                _compare(old_p, new_p, path, label, drift, mismatches)
                return
        mismatches.append(f"{label} {path}: {old!r} != {new!r}")
    elif {type(old), type(new)} in ({float}, {int, float}):
        # a float that happens to be integral may print as an int
        old, new = float(old), float(new)
        if math.isfinite(old) and math.isfinite(new):
            gap = abs(new - old)
            rel = gap / max(abs(old), abs(new)) if gap else 0.0
            key = (_group(label), path)
            worst = drift.get(key, (0.0, 0.0, ""))
            drift[key] = (max(worst[0], gap), max(worst[1], rel), label if rel > worst[1] else worst[2])
        elif repr(old) != repr(new):
            mismatches.append(f"{label} {path}: {old!r} != {new!r}")
    elif isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            mismatches.append(f"{label} {path}: keys {list(old)} != {list(new)}")
        for k in old.keys() & new.keys():
            _compare(old[k], new[k], f"{path}.{k}" if path else k, label, drift, mismatches)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            mismatches.append(f"{label} {path}: length {len(old)} != {len(new)}")
        for x, y in zip(old, new):
            _compare(x, y, path + "[]", label, drift, mismatches)
    elif type(old) is not type(new) or old != new:
        mismatches.append(f"{label} {path}: {old!r} != {new!r}")


def diff(old_path: str, new_path: str) -> int:
    """Print non-float mismatches and per-field float drift; 1 if any mismatch."""
    old, new = _load(old_path), _load(new_path)
    mismatches = [f"{label}: only in {old_path}" for label in old if label not in new]
    mismatches += [f"{label}: only in {new_path}" for label in new if label not in old]
    drift = {}
    for label in old.keys() & new.keys():
        _compare(old[label], new[label], "", label, drift, mismatches)
    for line in sorted(mismatches):
        print("MISMATCH " + line)
    for (group, path), (gap, rel, label) in sorted(drift.items()):
        if gap:
            print(f"drift {group} {path or '<value>'}: abs {gap:.3g} rel {rel:.3g} (largest rel at {label})")
    identical = sum(old[label] == new[label] for label in old.keys() & new.keys())
    print(f"{identical} of {len(old)} labels identical, {len(mismatches)} non-float mismatches")
    return 1 if mismatches else 0


def extract_src(ref: str, dest: Path) -> Path:
    """Extract the src directory of git revision ref into dest; returns dest / "src"."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref, "src"], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def against(ref: str) -> int:
    """Run this tool on ref's src and on this tree's; 0 if every line matches,
    else print the --diff report and return 1."""
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for name, src in (("old", extract_src(ref, Path(tmp))), ("new", ROOT / "src")):
            path = Path(tmp) / f"{name}.txt"
            with open(path, "w") as fh:
                subprocess.run([sys.executable, __file__], env={**os.environ, "PYTHONPATH": str(src)},
                               stdout=fh, check=True)
            outputs.append(path)
        old, new = (path.read_bytes() for path in outputs)
        if old == new:
            print(f"{len(old.splitlines())} lines identical")
            return 0
        diff(*map(str, outputs))
        return 1


def main() -> None:
    rng = np.random.default_rng(303)
    searched = []
    for k in range(100):
        rho = float(rng.uniform(1.05, 50.0))
        r = float(rng.uniform(1.0 / math.sqrt(rho) + 1e-6, 1.0))
        result = worst_ratio_search(rho, r, 8, 500, seed=k)
        searched.append((rho, result.best_poly))
        _emit(f"criterion6 {k}", result.to_json())

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
    for rho, r, degree, budget, seed in ((1.05, 0.99, 12, 300, 1), (50.0, 0.99, 12, 300, 1),
                                         (1e25, 0.9, 12, 60, 0)):
        result = coordinate_search(build_A_rho(rho, r), EllipseBoundary(rho), degree, budget, seed)
        _emit(f"edge {rho} {r} {degree} {budget} {seed}", result.to_json())
    result = coordinate_search(build_A_rho(3.0, 0.8), boundary_samples(3.0, 512), 8, 500, 9)
    _emit("points 3.0 0.8 8 500 9", result.to_json())
    # every sample point can be a peak of |p| on these
    for label, boundary, degree, budget in (("ellipse m=8", EllipseBoundary(3.0, 8), 8, 500),
                                            ("points m=7", boundary_samples(3.0, 14)[::2], 8, 500),
                                            ("points m=1", boundary_samples(3.0, 512)[:1], 5, 200)):
        result = coordinate_search(build_A_rho(3.0, 0.8), boundary, degree, budget, 9)
        _emit(f"{label} 3.0 0.8 {degree} {budget} 9", result.to_json())
    # on points of modulus about 1e-3 the normalized c_j, j >= 1, grow far above the steps
    result = coordinate_search(build_A_rho(3.0, 0.8), boundary_samples(3.0, 512) * 1e-3, 8, 300, 9)
    _emit("points x1e-3 3.0 0.8 8 300 9", result.to_json())

    for k, (a, d, perm, seed) in enumerate(_perm_instances(505, 120)):
        report = permutation_ext.verify_observation(a, d, perm, 4, 60, seed)
        _emit(f"perm {k}", report.to_json())

    rng = np.random.default_rng(606)
    A = build_A_rho(3.0, 0.8)
    boundaries = [EllipseBoundary(3.0)] + [boundary_samples(3.0, 2048)[:m] for m in (1, 2, 7, 2048)]
    for k in range(40):
        cs = rng.standard_normal(1 + k % 13) + 1j * rng.standard_normal(1 + k % 13)
        _emit(f"ratio_for_poly {k}", [ratio_for_poly(A, PolySpec.of(cs), b) for b in boundaries])

    # Chebyshev T_d has d near-maximal peaks on a thin ellipse, so the polish cap binds
    for d in range(1, 13):
        cheb = np.polynomial.chebyshev.cheb2poly([0] * d + [1])
        _emit(f"max_abs_poly chebyshev {d}",
              [EllipseBoundary(rho, m).max_abs_poly(cheb) for rho in (1.01, 1.05, 1.2) for m in (8, 64, 2048)])
    # the search's best polynomials have about five near-equal peaks
    for k, (rho, poly) in enumerate(searched[:20]):
        _emit(f"max_abs_poly search {k}", [EllipseBoundary(rho, m).max_abs_poly(poly.coeffs) for m in (8, 64, 2048)])
    rng = np.random.default_rng(808)
    small = EllipseBoundary(3.0, 8)
    for k in range(40):
        cs = rng.standard_normal(1 + k % 13) + 1j * rng.standard_normal(1 + k % 13)
        _emit(f"max_abs_poly m=8 {k}", small.max_abs_poly(cs))
    # |z^d| is nearly constant on a nearly circular ellipse, so its peaks are flat
    for d in range(1, 13):
        _emit(f"max_abs_poly monomial {d}",
              [EllipseBoundary(1e3, m).max_abs_poly([0] * d + [1]) for m in (8, 64, 2048)])
    rng = np.random.default_rng(909)
    for scale in (1e-320, 1e250):
        for k in range(13):
            cs = (rng.standard_normal(1 + k) + 1j * rng.standard_normal(1 + k)) * scale
            _emit(f"max_abs_poly scaled {scale!r} {k}", [EllipseBoundary(rho).max_abs_poly(cs) for rho in (1.05, 3.0)])

    for k, B in enumerate(_normalize_inputs(707, 48)):
        try:
            _emit(f"normalize {k}", normalize(B).to_json())
        except DomainError as exc:
            _emit(f"normalize {k}", "DomainError: " + str(exc))

    for argv in CLI_RUNS:
        _emit("cli " + " ".join(argv), _cli(argv))
    # the plane workload's sweeps: one rho band of width 2, 24 x 24 points
    for lo in np.random.default_rng(1111).uniform(1.05, 48.0, 6).tolist():
        for fmt in ("csv", "json"):
            argv = ("sweep", "--rho", repr(lo), repr(lo + 2.0), "24", "--r", "auto", "--workers", "1",
                    "--format", fmt)
            _emit("cli " + " ".join(argv), _cli(argv))
    for k, (rho, r) in enumerate(_domain_edge_points(1010, 16)):
        argv = ("sweep", "--rho", repr(rho), repr(rho), "1", "--r", repr(r), repr(r), "1",
                "--workers", "1", "--format", "json")
        _emit(f"domain edge {k}", _cli(argv))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="compare two outputs")
    parser.add_argument("--against", metavar="REF", help="compare this tree with git revision REF")
    args = parser.parse_args()
    if args.diff:
        sys.exit(diff(*args.diff))
    if args.against:
        sys.exit(against(args.against))
    main()
