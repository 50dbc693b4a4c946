"""Dense linear algebra for complex matrices up to 8x8.

Two 3x3 kernels are closed forms, because `normalize` needs an ordering
control that numpy does not offer: Cardano's formula for general 3x3 spectra
and a Schur decomposition whose diagonal order can be prescribed.  The rest
goes to `numpy.linalg`: operator norms and condition numbers from the
singular values of one SVD at every size, the inverse-iteration solve inside
the Schur form, and the Hermitian eigensystems of the support function.  The
support function is sampled on even grids of m directions: K(theta + pi) =
-K(theta), so one batched eigen-solve over the first half-turn gives the
second half from its bottom eigenpairs.  Functions of the family matrix need
no general calculus here: `conformal_map` applies them through its spectral
projectors.

Matrices are numpy arrays used as containers; the Cardano kernel reads
them into plain Python complex scalars.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Sequence

import numpy as np

from .errors import SingularMatrixError

__all__ = [
    "MAX_N",
    "condition_number",
    "eigvals_3x3",
    "eval_poly",
    "operator_norm",
    "schur_3x3",
    "support_function_grid",
]

MAX_N = 8


def _as_square(M: np.ndarray) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] > MAX_N:
        raise ValueError(f"matrices above {MAX_N}x{MAX_N} are out of scope here")
    return A


# ---------------------------------------------------------------------------
# closed-form 3x3 spectra


def _cubic_roots(c2: complex, c1: complex, c0: complex) -> tuple[complex, complex, complex]:
    """Roots of l^3 + c2 l^2 + c1 l + c0 by Cardano with a Newton polish."""
    p = c1 - c2 * c2 / 3.0
    q = c0 - c1 * c2 / 3.0 + 2.0 * c2**3 / 27.0
    shift = -c2 / 3.0
    if p == 0 and q == 0:
        return shift, shift, shift
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    sq = cmath.sqrt(disc)
    u3a = -q / 2.0 + sq
    u3b = -q / 2.0 - sq
    u3 = u3a if abs(u3a) >= abs(u3b) else u3b
    u = u3 ** (1.0 / 3.0)
    v = -p / (3.0 * u) if u != 0 else 0.0 + 0.0j
    w = complex(-0.5, math.sqrt(3.0) / 2.0)
    roots = [u + v + shift, w * u + w.conjugate() * v + shift, w.conjugate() * u + w * v + shift]
    scale = 1.0 + max(abs(r) for r in roots)
    polished = []
    for r in roots:
        for _ in range(2):
            pr = ((r + c2) * r + c1) * r + c0
            dpr = (3.0 * r + 2.0 * c2) * r + c1
            if abs(dpr) < 1e-8 * scale * scale:
                break
            step = pr / dpr
            if abs(step) > 0.1 * scale:
                break
            r -= step
        polished.append(r)
    return polished[0], polished[1], polished[2]


def eigvals_3x3(M: np.ndarray) -> tuple[complex, complex, complex]:
    """Eigenvalues of a general complex 3x3 matrix via the characteristic cubic."""
    A = _as_square(M)
    if A.shape[0] != 3:
        raise ValueError("eigvals_3x3 needs a 3x3 matrix")
    m = [[complex(A[i, j]) for j in range(3)] for i in range(3)]
    tr = m[0][0] + m[1][1] + m[2][2]
    s2 = (
        m[0][0] * m[1][1]
        - m[0][1] * m[1][0]
        + m[0][0] * m[2][2]
        - m[0][2] * m[2][0]
        + m[1][1] * m[2][2]
        - m[1][2] * m[2][1]
    )
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return _cubic_roots(-tr, s2, -det)


# ---------------------------------------------------------------------------
# operator norm and condition number


def operator_norm(M: np.ndarray) -> float:
    """Spectral norm ||M||_2: the largest of numpy's singular values."""
    return float(np.linalg.svd(_as_square(M), compute_uv=False)[0])


def condition_number(M: np.ndarray) -> float:
    """2-norm condition number sigma_max / sigma_min.

    Raises SingularMatrixError when sigma_min <= 1e-14 sigma_max.
    """
    s = np.linalg.svd(_as_square(M), compute_uv=False)
    smax, smin = float(s[0]), float(s[-1])
    if smin <= 1e-14 * smax:
        raise SingularMatrixError("matrix is numerically singular; condition number undefined")
    return smax / smin


# ---------------------------------------------------------------------------
# polynomial calculus


def eval_poly(M: np.ndarray, coeffs: Sequence[complex]) -> np.ndarray:
    """Evaluate p(M) by Horner's rule; coeffs ascending, p(z) = sum c_k z^k."""
    A = _as_square(M)
    cs = [complex(c) for c in coeffs]
    if not cs:
        raise ValueError("need at least one coefficient")
    n = A.shape[0]
    I = np.eye(n, dtype=complex)
    R = cs[-1] * I
    for c in reversed(cs[:-1]):
        R = R @ A + c * I
    return R


def _eigvec_3x3(A: np.ndarray, lam: complex) -> np.ndarray:
    """Unit eigenvector for eigenvalue lam of a 3x3 matrix.

    Cross products of rows of (A - lam I) span the null direction for a
    rank-2 shifted matrix; one inverse-iteration step cleans up rounding.
    """
    S = A - lam * np.eye(3, dtype=complex)
    rows = [S[0], S[1], S[2]]
    best = None
    best_norm = -1.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        # bilinear cross product: orthogonal to both rows without conjugation
        r, s = rows[i], rows[j]
        v = np.array(
            [
                r[1] * s[2] - r[2] * s[1],
                r[2] * s[0] - r[0] * s[2],
                r[0] * s[1] - r[1] * s[0],
            ],
            dtype=complex,
        )
        nv = math.sqrt(float(np.vdot(v, v).real))
        if nv > best_norm:
            best, best_norm = v, nv
    scale = float(np.max(np.abs(A))) + abs(lam) + 1.0
    if best_norm <= 1e-14 * scale * scale:
        best = np.array([1.0, 0.0, 0.0], dtype=complex)
        best_norm = 1.0
    v = best / best_norm
    delta = 1e-14 * scale
    for bump in (delta, 1e3 * delta, 1e6 * delta):
        try:
            w = np.linalg.solve(A - (lam + bump) * np.eye(3, dtype=complex), v)
            nw = math.sqrt(float(np.vdot(w, w).real))
            if nw > 0 and np.all(np.isfinite(w)):
                v = w / nw
            break
        except np.linalg.LinAlgError:
            continue
    return v


# ---------------------------------------------------------------------------
# Schur form for 3x3


def _householder_from_e0(v: np.ndarray) -> np.ndarray:
    """Unitary Q with Q e_0 = v for a unit vector v."""
    n = v.shape[0]
    sigma = v[0] / abs(v[0]) if v[0] != 0 else 1.0 + 0.0j
    w = v.copy()
    w[0] += sigma
    ww = float(np.vdot(w, w).real)
    P = np.eye(n, dtype=complex) - (2.0 / ww) * np.outer(w, w.conj())
    Q = P.copy()
    Q[:, 0] *= -sigma
    return Q


def schur_3x3(M: np.ndarray, eig_order: Sequence[complex] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Unitary Q and upper-triangular U with M = Q U Q*.

    ``eig_order`` prescribes the diagonal of U: computed eigenvalues are
    matched to the given targets by the assignment of least total distance.
    """
    A = _as_square(M)
    if A.shape[0] != 3:
        raise ValueError("schur_3x3 needs a 3x3 matrix")
    vals = list(eigvals_3x3(A))
    if eig_order is not None:
        targets = [complex(t) for t in eig_order]
        if len(targets) != 3:
            raise ValueError("eig_order must list three targets")
        best_perm = None
        best_cost = math.inf
        for perm in itertools.permutations(range(3)):
            cost = sum(abs(vals[perm[k]] - targets[k]) for k in range(3))
            if cost < best_cost:
                best_cost = cost
                best_perm = perm
        vals = [vals[best_perm[k]] for k in range(3)]

    lam0 = vals[0]
    v0 = _eigvec_3x3(A, lam0)
    Q1 = _householder_from_e0(v0)
    B = Q1.conj().T @ A @ Q1
    lam0 = complex(B[0, 0])
    B[1:, 0] = 0.0

    # 2x2 tail: pick the eigenvalue matching the requested order
    a, b = complex(B[1, 1]), complex(B[1, 2])
    c, d = complex(B[2, 1]), complex(B[2, 2])
    tr = a + d
    disc = cmath.sqrt((a - d) ** 2 + 4.0 * b * c)
    mu1 = (tr + disc) / 2.0
    mu2 = (tr - disc) / 2.0
    if abs(mu1 - vals[1]) + abs(mu2 - vals[2]) <= abs(mu2 - vals[1]) + abs(mu1 - vals[2]):
        lam1 = mu1
    else:
        lam1 = mu2
    w1 = np.array([b, lam1 - a], dtype=complex)
    w2 = np.array([lam1 - d, c], dtype=complex)
    w = w1 if float(np.vdot(w1, w1).real) >= float(np.vdot(w2, w2).real) else w2
    nw = math.sqrt(float(np.vdot(w, w).real))
    if nw < 1e-150:
        w = np.array([1.0, 0.0], dtype=complex)
        nw = 1.0
    Q2 = np.eye(3, dtype=complex)
    Q2[1:, 1:] = _householder_from_e0(w / nw)
    Q = Q1 @ Q2
    U = Q.conj().T @ A @ Q
    U[1, 0] = U[2, 0] = U[2, 1] = 0.0
    return Q, U


# ---------------------------------------------------------------------------
# numerical-range support function


def _hermitian_parts(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Hr = (M + M.conj().T) / 2.0
    Hi = 1j * (M.conj().T - M) / 2.0
    return Hr, Hi


def support_function_grid(M: np.ndarray, m: int, with_vectors: bool = False):
    """Support function at the m directions 2 pi k / m from one half-turn solve.

    K(theta + pi) = -K(theta), so one batched eigen-solve over the first m/2
    directions serves both halves: h(theta) is the top eigenvalue at theta and
    h(theta + pi) the negated bottom one.  m must be even.  Returns h (m,) or,
    with vectors, (h, V_top) where V_top[k] is a unit top eigenvector of the
    Hermitian part in direction 2 pi k / m.
    """
    A = _as_square(M)
    if m <= 0 or m % 2:
        raise ValueError(f"direction count must be positive and even, got {m}")
    th = 2.0 * math.pi * np.arange(m // 2) / m
    Hr, Hi = _hermitian_parts(A)
    K = np.cos(th)[:, None, None] * Hr[None, :, :] + np.sin(th)[:, None, None] * Hi[None, :, :]
    if not with_vectors:
        w = np.linalg.eigvalsh(K)
        return np.concatenate((w[:, -1], -w[:, 0]))
    w, V = np.linalg.eigh(K)
    return np.concatenate((w[:, -1], -w[:, 0])), np.concatenate((V[:, :, -1], V[:, :, 0]))
