"""Block reduction of aI + DP for diagonal D and permutation P.

A permutation matrix P splits into cycles, and relabeling the coordinates
cycle by cycle turns DP into a direct sum of blocks, each a diagonal matrix
times a cyclic shift (1x1 blocks at fixed points).  Everything one wants to
verify about aI + DP then reduces to the blocks:

  * the numerical range of every block sits inside W(aI + DP),
  * ||p(aI + DP)|| equals the largest block value of ||p||,
  * the norm-to-boundary ratio stays at or below 2 whenever it does so for
    every block, and aI + DP against aI + PD is a unitary relabeling.

verify_observation runs all of those checks numerically on one instance and
returns the findings in a report; nothing raises on a failed check.  It
solves aI + DP once, on the 1440-direction support grid with vectors (one
batched eigh of 720 Hermitian matrices): the vectors give the boundary
points, and every other direction gives the 720-direction support function
for the inclusion check.  Each block's 720 directions take one batched
eigvalsh of 360 matrices.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from . import dense_small
from .errors import DomainError
from .jsondata import plain
from .ratio_search import _RATIO_PASS, RatioResult, _check_search_settings, _grid_states, coordinate_search

__all__ = [
    "PermSpec",
    "CycleDecomposition",
    "ObservationReport",
    "perm_from_cycles",
    "cycle_decompose",
    "verify_observation",
]

_THETA_GRID = 720
_BOUNDARY_GRID = 1440
# the support functions round in proportion to the entries, about eps |A|
# each, so the inclusion tolerance is the larger of a floor and 64 eps times
# B = |a| + max|d_i|; the floor rules for every B below about 7e4
_INCLUSION_TOL = 1e-9
_INCLUSION_ROUNDING = 64 * 2.0**-52
_NORM_LAW_TOL = 1e-10
_EQUIV_TOL = 1e-9
_N_SAMPLE_POLYS = 12
# ||A|| <= |a| + max|d_i| = B, so p(A) grows like B^degree times the
# coefficient sums, and every check stays finite while p(A) does (the SVD
# scales its input; the Frobenius residual squares entries of size B only).
# B^(4 degree) below this keeps B^degree under 1e75, so the coefficient sums
# have a margin of about 1e230 below the float maximum; the factor 4 is that
# margin, and it fixes which inputs the harness accepts
_FOURTH_POWER_CEILING = 1e300


@dataclass(frozen=True)
class PermSpec:
    """Permutation on {0..n-1}; the matrix action is e_j -> e_{perm[j]}."""

    n: int
    perm: tuple

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(int(p) for p in self.perm))
        if not 1 <= self.n <= dense_small.MAX_N:
            raise DomainError(f"n must be in [1, {dense_small.MAX_N}], got {self.n}")
        if len(self.perm) != self.n or sorted(self.perm) != list(range(self.n)):
            raise DomainError(f"perm {self.perm} is not a bijection on 0..{self.n - 1}")

    def matrix(self) -> np.ndarray:
        P = np.zeros((self.n, self.n), dtype=complex)
        P[list(self.perm), range(self.n)] = 1.0
        return P

    def cycles(self) -> tuple:
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.perm[j]
            out.append(tuple(cyc))
        return tuple(out)


def perm_from_cycles(text: str, n: int) -> PermSpec:
    """Parse cycle notation like "(0 1)(2 3 4)"; unmentioned indices stay fixed."""
    if not re.fullmatch(r"\s*(\([\d\s,]*\)\s*)*", text):
        raise DomainError(f"cannot parse cycle notation {text!r}")
    perm = list(range(n))
    mentioned = set()
    for group in re.findall(r"\(([\d\s,]*)\)", text):
        idx = [int(tok) for tok in re.split(r"[\s,]+", group.strip()) if tok]
        if not idx:
            continue
        for i in idx:
            if not 0 <= i < n:
                raise DomainError(f"index {i} outside 0..{n - 1}")
            if i in mentioned:
                raise DomainError(f"index {i} appears in two cycles")
            mentioned.add(i)
        for pos, i in enumerate(idx):
            perm[i] = idx[(pos + 1) % len(idx)]
    return PermSpec(n, tuple(perm))


@dataclass(frozen=True, eq=False)
class CycleDecomposition:
    U: np.ndarray
    blocks: tuple
    cycles: tuple

    def block_diagonal(self) -> np.ndarray:
        n = sum(size for size, _ in self.blocks)
        out = np.zeros((n, n), dtype=complex)
        base = 0
        for size, B in self.blocks:
            out[base : base + size, base : base + size] = B
            base += size
        return out


def cycle_decompose(D, P: PermSpec) -> CycleDecomposition:
    """Relabel DP into blockdiag(D_k C_k) with C_k a cyclic shift.

    U is the relabeling permutation matrix: U (DP) U* reproduces the block
    diagonal exactly, entry for entry.
    """
    d = [complex(v) for v in D]
    if len(d) != P.n:
        raise DomainError(f"diagonal has length {len(d)}, permutation acts on {P.n}")
    cycles = P.cycles()
    order = [j for cyc in cycles for j in cyc]
    U = np.zeros((P.n, P.n), dtype=complex)
    U[range(P.n), order] = 1.0
    blocks = []
    for cyc in cycles:
        k = len(cyc)
        B = np.zeros((k, k), dtype=complex)
        for t in range(k):
            B[(t + 1) % k, t] = d[cyc[(t + 1) % k]]
        blocks.append((k, B))
    return CycleDecomposition(U=U, blocks=tuple(blocks), cycles=cycles)


@dataclass(frozen=True, eq=False)
class ObservationReport:
    n: int
    a: complex
    block_sizes: tuple
    reassembly_residual: float
    inclusion_ok: bool
    inclusion_worst: float
    block_norm_ok: bool
    block_norm_worst: float
    ratio: RatioResult
    ratio_ok: bool
    dp_pd_ok: bool
    dp_pd_worst: float
    shift_checked: bool
    shift_worst: float
    passed: bool

    def to_json(self) -> dict:
        return plain(self)


def _poly_norms(M: np.ndarray, polys: list) -> np.ndarray:
    """||p(M)||_2 for every coefficient vector p in polys."""
    return dense_small.operator_norm(np.stack([dense_small.eval_poly(M, c) for c in polys]))


def _taylor_shift(coeffs: np.ndarray, a: complex) -> np.ndarray:
    """Coefficients of q(z) = p(z + a) from ascending coefficients of p."""
    d = len(coeffs) - 1
    out = np.zeros(d + 1, dtype=complex)
    for k, ck in enumerate(coeffs):
        pw = 1.0 + 0.0j
        for j in range(k, -1, -1):
            out[j] += ck * math.comb(k, j) * pw
            pw *= a
    return out


def _boundary_points(A: np.ndarray, vtop: np.ndarray) -> np.ndarray:
    """Points of the numerical-range boundary, with flat edges chord-filled.

    vtop holds the support eigenvectors of A on an even grid of directions,
    as support_function_grid returns them; v* A v are the support points.
    Support-point sampling lands only on the extreme points, so a flat edge
    of W(A) (generic once several blocks are present) contributes nothing but
    its endpoints; interpolating long chords restores interior edge coverage.
    Chords of a convex region stay inside it, so the maximum of |p| over the
    returned points never overshoots the true boundary maximum.
    """
    m = len(vtop)
    pts = np.einsum("ki,ij,kj->k", vtop.conj(), A, vtop)
    seg = np.roll(pts, -1) - pts
    ln = np.abs(seg)
    perimeter = float(ln.sum())
    if perimeter <= 0.0:
        return pts[:1]
    h = perimeter / m
    fill = [pts]
    for i in np.nonzero(ln > 2.0 * h)[0]:
        k = int(math.ceil(ln[i] / h))
        t = np.arange(1, k) / k
        fill.append(pts[i] + t * seg[i])
    return np.concatenate(fill)


def verify_observation(a, D, P: PermSpec, degree: int, budget: int, seed: int) -> ObservationReport:
    """Run every block-reduction check on one (a, D, P) instance.

    The report carries each finding separately plus an overall pass flag;
    tolerances: inclusion in the support function max(1e-9, 64 eps B) with
    B = |a| + max|d_i|, block-norm law 1e-10 relative, ratios below
    2 + 1e-6, DP/PD and shift-covariance agreement 1e-9 relative.  A
    degree, budget or seed the search rejects, a non-finite a or diagonal
    entry, or entries so large that p(A) could overflow at the search
    degree ((|a| + max|d_i|)^(4 degree) above 1e300), raises DomainError
    before any check runs.
    """
    _check_search_settings(degree, budget, seed)
    a = complex(a)
    d = np.asarray([complex(v) for v in D])
    if not cmath.isfinite(a):
        raise DomainError(f"a = {a} is not finite")
    if not np.all(np.isfinite(d)):
        raise DomainError(f"diagonal {d.tolist()} has a non-finite entry")
    bound = abs(a) + float(np.max(np.abs(d)))
    ceiling = _FOURTH_POWER_CEILING ** (1.0 / (4 * max(degree, 1)))
    if bound > ceiling:
        raise DomainError(f"|a| + max|d_i| = {bound:.3g} for a = {a}, diagonal {d.tolist()}: "
                          f"p(A) overflows at degree {degree} above {ceiling:.3g}")
    n = P.n
    dec = cycle_decompose(d, P)
    Pm = P.matrix()
    DP = np.diag(d) @ Pm
    A = a * np.eye(n, dtype=complex) + DP
    shifted_blocks = [a * np.eye(k, dtype=complex) + B for k, B in dec.blocks]

    reassembly = float(np.linalg.norm(dec.U @ DP @ dec.U.conj().T - dec.block_diagonal()))

    # one solve of A: the boundary grid holds the inclusion grid as every other direction
    h_A, vtop = dense_small.support_function_grid(A, _BOUNDARY_GRID, with_vectors=True)
    h_A = h_A[:: _BOUNDARY_GRID // _THETA_GRID]
    inclusion_worst = -math.inf
    for Ak in shifted_blocks:
        h_k = dense_small.support_function_grid(Ak, _THETA_GRID)
        inclusion_worst = max(inclusion_worst, float(np.max(h_k - h_A)))
    inclusion_ok = inclusion_worst <= max(_INCLUSION_TOL, _INCLUSION_ROUNDING * bound)

    rng = np.random.default_rng((seed, 1))
    polys = []
    for i in range(_N_SAMPLE_POLYS):
        deg = 1 + i % max(1, degree)
        polys.append(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))

    lhs = _poly_norms(A, polys)
    rhs = np.max(np.stack([_poly_norms(Ak, polys) for Ak in shifted_blocks]), axis=0)
    block_norm_worst = float(np.max(np.abs(lhs - rhs) / (1.0 + lhs)))
    block_norm_ok = block_norm_worst <= _NORM_LAW_TOL

    pts = _boundary_points(A, vtop)
    ratio = coordinate_search(A, pts, degree, budget, seed)
    ratio_ok = ratio.best_ratio <= _RATIO_PASS

    A_pd = a * np.eye(n, dtype=complex) + Pm @ np.diag(d)
    lhs_pd = _poly_norms(A_pd, polys)
    dp_pd_worst = float(np.max(np.abs(lhs - lhs_pd) / (1.0 + lhs)))
    dp_pd_ok = dp_pd_worst <= _EQUIV_TOL

    shift_checked = a != 0
    shift_worst = 0.0
    if shift_checked:
        pts0 = pts - a
        den = np.array([np.abs(_grid_states(pts, c)[0]).max() for c in polys])
        shifted = [_taylor_shift(c, a) for c in polys]
        num_s = _poly_norms(DP, shifted)
        den_s = np.array([np.abs(_grid_states(pts0, c)[0]).max() for c in shifted])
        ratio_a = lhs / den
        ratio_0 = num_s / den_s
        shift_worst = float(np.max(np.abs(ratio_a - ratio_0) / (1.0 + ratio_a)))
    shift_ok = shift_worst <= _EQUIV_TOL

    passed = bool(
        reassembly <= 1e-12
        and inclusion_ok
        and block_norm_ok
        and ratio_ok
        and dp_pd_ok
        and shift_ok
    )
    return ObservationReport(
        n=n,
        a=a,
        block_sizes=tuple(k for k, _ in dec.blocks),
        reassembly_residual=reassembly,
        inclusion_ok=inclusion_ok,
        inclusion_worst=inclusion_worst,
        block_norm_ok=block_norm_ok,
        block_norm_worst=block_norm_worst,
        ratio=ratio,
        ratio_ok=ratio_ok,
        dp_pd_ok=dp_pd_ok,
        dp_pd_worst=dp_pd_worst,
        shift_checked=shift_checked,
        shift_worst=shift_worst,
        passed=passed,
    )
