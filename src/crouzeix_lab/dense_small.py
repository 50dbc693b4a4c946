"""Dense linear algebra for complex matrices up to 8x8.

Operator norms and condition numbers come from the singular values of one
`numpy.linalg` SVD at every size, and the support function from numpy's
Hermitian eigensystems.  The support function is sampled on
even grids of m directions: K(theta + pi) = -K(theta), so one batched
eigen-solve over the first half-turn gives the second half from its bottom
eigenpairs.  p(M) has one Horner chain, `horner_states`, which the ratio
search resumes trial by trial and `eval_poly` runs in full.  Functions of the
family matrix need no general calculus here: its spectrum is {-1, 0, 1}, so
`core_matrix.spectral_projectors` gives them, and `normalize` reads its
Schur basis off the same projectors.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import SingularMatrixError

__all__ = [
    "MAX_N",
    "condition_number",
    "eval_poly",
    "horner_states",
    "operator_norm",
    "support_function_grid",
]

MAX_N = 8
_IDENTITY = [np.broadcast_to(np.eye(n, dtype=complex), (n, n)) for n in range(MAX_N + 1)]  # read-only: every chain shares it


def _as_square(M: np.ndarray) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] > MAX_N:
        raise ValueError(f"matrices above {MAX_N}x{MAX_N} are out of scope here")
    return A


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


def horner_states(M: np.ndarray, coeffs: Sequence[complex], j: int | None = None,
                  above: list | None = None) -> list:
    """Horner states of p(M) for ascending coeffs, p(z) = sum c_k z^k.

    Entry k is the state after c_d, ..., c_k, so entry 0 is p(M).  Entries
    above j come from `above`, the states of a polynomial agreeing with
    coeffs there: a change in c_j alone costs j + 1 steps and matches a full
    pass bit for bit.  Without `above`, j is the degree; with it, M is taken as checked.
    """
    A = M if above else _as_square(M)
    I = _IDENTITY[A.shape[0]]
    states = list(above) if above else [None] * (len(coeffs) + 1)
    for k in range(len(coeffs) - 1 if j is None else j, -1, -1):
        ck = complex(coeffs[k])
        states[k] = ck * I if states[k + 1] is None else states[k + 1] @ A + ck * I
    return states


def eval_poly(M: np.ndarray, coeffs: Sequence[complex]) -> np.ndarray:
    """p(M) by Horner's rule, entry 0 of horner_states; coeffs ascending."""
    cs = list(coeffs)
    if not cs:
        raise ValueError("need at least one coefficient")
    return horner_states(M, cs)[0]


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
