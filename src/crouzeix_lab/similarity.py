"""Upper-triangular similarities with condition number exactly 2.

The family

    X = [[s, t, u],
         [0, 1, v],
         [0, 0, w]],    s, t, u, v, w real,

has singular values {1, sqrt(sw/2), sqrt(2 sw)} whenever the two coupling
constraints hold:

    2 t u v = s^2 v^2 - t^2 + t^2 v^2 + t^2 w^2 - v^2        (sigma = 1)
    (5/2) s w = s^2 + t^2 + u^2 + v^2 + w^2                  (kappa = 2)

together with 1/2 <= sw <= 2.  Conjugating the constant-diagonal family
matrix A by such an X yields G = [[1, alpha, gamma], [0, 0, beta],
[0, 0, -1]] whose squared norm is the larger zero of an explicit quadratic
P(lambda).  Four region-specific constructions of X are provided; each
feeds the certifier for one part of the parameter domain.  Every function
takes floats, or float arrays with one entry per point, and checks its
inputs and results through clauses of `elementwise.CLAUSES`, whose slacks
forgive rounding at the window edges (criterion-1 counts in README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_matrix import NormalizedParams
from .elementwise import Floats, namespace

__all__ = [
    "CanonicalG",
    "NormPolyP",
    "SimilarityX",
    "SingularSpectrumX",
    "build_X_critical",
    "build_X_diagonalizing",
    "build_X_smallr",
    "build_X_strip",
    "canonical_G",
    "check_mu_bound",
    "norm_from_P",
    "p_x1_residual",
    "psi",
    "singular_spectrum",
]


@dataclass(frozen=True)
class SimilarityX:
    """Parameters of the upper-triangular similarity (floats, or arrays of
    one per point); validated on creation."""

    s: float
    t: float
    u: float
    v: float
    w: float

    def __post_init__(self) -> None:
        s, t, u, v, w = self.s, self.t, self.u, self.v, self.w
        xi = s * s + t * t + u * u + v * v + w * w
        xp = namespace(xi)
        res1 = 2 * t * u * v - (s * s * v * v - t * t + t * t * v * v + t * t * w * w - v * v)
        res2 = 2.5 * s * w - xi
        xp.check("sigma_residual", abs(res1), 0.0, res1, scale=1.0 + xi * xi)
        xp.check("kappa_residual", abs(res2), 0.0, res2, scale=1.0 + xi)
        sw = s * w
        xp.check("sw", sw, (0.5, 2.0), sw)

    @property
    def sw(self) -> float:
        return self.s * self.w

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.s, self.t, self.u], [0.0, 1.0, self.v], [0.0, 0.0, self.w]],
            dtype=complex,
        )


def p_x1_residual(X: SimilarityX) -> float:
    """det(I - X*X): vanishes exactly when 1 is a singular value of X."""
    s, t, u, v, w = X.s, X.t, X.u, X.v, X.w
    # Gram matrix entries; the (2,2) entry of X*X is t^2+1 so I - X*X has -t^2
    a00 = 1.0 - s * s
    a01 = -s * t
    a02 = -s * u
    a11 = -t * t
    a12 = -(t * u + v)
    a22 = 1.0 - u * u - v * v - w * w
    return (
        a00 * (a11 * a22 - a12 * a12)
        - a01 * (a01 * a22 - a12 * a02)
        + a02 * (a01 * a12 - a11 * a02)
    )


@dataclass(frozen=True)
class SingularSpectrumX:
    """Squared-singular-value bookkeeping for a constrained X.

    xi and eta are the trace and determinant of the Gram matrix with the
    unit singular direction split off; sigma_minus and sigma_plus solve
    lambda^2 - xi lambda + eta = 0.
    """

    xi: float
    eta: float
    sigma1: float
    sigma_minus: float
    sigma_plus: float

    @property
    def kappa(self) -> float:
        xp = namespace(self.sigma_plus)
        hi = xp.maximum(self.sigma1, self.sigma_plus)
        lo = xp.minimum(self.sigma1, self.sigma_minus)
        return hi / lo


def singular_spectrum(X: SimilarityX) -> SingularSpectrumX:
    """Singular values of X from the split-off quadratic rather than an SVD.

    sigma_{+-}^2 solve lambda^2 - xi lambda + eta = 0, whose discriminant
    has no cancellation, so kappa is exact where the dense route loses
    digits near sw = 1/2; the SVD cross-check lives in the tests.
    """
    s, t, u, v, w = X.s, X.t, X.u, X.v, X.w
    xi = s * s + t * t + u * u + v * v + w * w
    xp = namespace(xi)
    eta = s * s * w * w
    disc = xi * xi - 4.0 * eta
    xp.check("spectrum_disc", disc, 0.0, disc, scale=1.0 + xi * xi)
    root = xp.sqrt(xp.maximum(disc, 0.0))
    return SingularSpectrumX(
        xi=xi,
        eta=eta,
        sigma1=1.0,
        sigma_minus=xp.sqrt(xp.maximum(0.0, (xi - root) / 2.0)),
        sigma_plus=xp.sqrt((xi + root) / 2.0),
    )


@dataclass(frozen=True)
class CanonicalG:
    """Entries of G = X A X^{-1} in its reduced form."""

    alpha: float
    beta: float
    gamma: float

    def matrix(self) -> np.ndarray:
        return np.array(
            [[1.0, self.alpha, self.gamma], [0.0, 0.0, self.beta], [0.0, 0.0, -1.0]],
            dtype=complex,
        )


def canonical_G(X: SimilarityX, params: NormalizedParams) -> CanonicalG:
    """Closed-form entries of X A X^{-1} for the family matrix A(q, r)."""
    s, t, u, v, w = X.s, X.t, X.u, X.v, X.w
    xp = namespace(s, w)
    xp.check("x_invertible", abs(s * w), 1e-150)
    q, r = params.q, params.r
    r2 = r * r
    alpha = (q * s - r * t) / r
    beta = (q * r - v) / w
    gamma = (q * r2 * r * t - q * r * s * v + r2 * r2 * s + r2 * t * v - 2 * r2 * u - s) / (r2 * w)
    return CanonicalG(alpha=alpha, beta=beta, gamma=gamma)


@dataclass(frozen=True)
class NormPolyP:
    """P(lambda) = lambda^2 + c1 lambda + c0 whose larger zero is ||G||^2."""

    c1: float
    c0: float

    @classmethod
    def from_G(cls, g: CanonicalG) -> "NormPolyP":
        a2 = g.alpha * g.alpha
        b2 = g.beta * g.beta
        g2 = g.gamma * g.gamma
        return cls(c1=-(2.0 + a2 + b2 + g2), c0=1.0 + a2 + b2 + a2 * b2)

    def eval(self, lam: float) -> float:
        return (lam + self.c1) * lam + self.c0

    def deriv(self, lam: float) -> float:
        return 2.0 * lam + self.c1


def norm_from_P(g: CanonicalG) -> float:
    """Squared operator norm of G, from the quadratic rather than the SVD.

    The discriminant is assembled in the expanded nonnegative form, which
    stays fully accurate at the double-root configurations (alpha = beta,
    gamma = 0) the critical similarity produces; the textbook c1^2 - 4 c0
    loses half the digits exactly there.
    """
    a2 = g.alpha * g.alpha
    b2 = g.beta * g.beta
    g2 = g.gamma * g.gamma
    ssum = a2 + b2
    xp = namespace(ssum, g2)
    disc = xp.power(a2 - b2, 2) + g2 * (4.0 + 2.0 * ssum + g2)
    return (2.0 + ssum + g2 + xp.sqrt(disc)) / 2.0


def check_mu_bound(g: CanonicalG, mu: float) -> bool:
    """Decide ||G|| <= mu without extracting roots.

    The equivalence: P(mu^2) >= 0 together with mu^2 at or beyond the
    parabola vertex.  The vertex condition is taken in the sum form
    2 + alpha^2 + beta^2 + gamma^2 <= 2 mu^2, the same statement as the
    derivative form P'(mu^2) >= 0.
    """
    p = NormPolyP.from_G(g)
    xp = namespace(mu, p.c1)
    xp.check("mu", mu, 0.0, mu)
    mu2 = mu * mu
    squares = xp.power(g.alpha, 2) + xp.power(g.beta, 2) + xp.power(g.gamma, 2)
    return (xp.check("mu_p", p.eval(mu2), 0.0, scale=1.0 + mu2 * mu2 + abs(p.c0))
            & xp.check("mu_vertex", 2.0 + squares, 2.0 * mu2, scale=1.0 + mu2))


def build_X_smallr(params: NormalizedParams) -> SimilarityX:
    """The small-r similarity: v = 0, w = 1, u the nonpositive root."""
    q, r = params.q, params.r
    q2r2 = q * q * r * r
    r4 = namespace(r).power(r, 4)
    s = (1.0 + q2r2 + 4.0 * r4) / (2.0 * q2r2 + 2.0 * r4 + 2.0)
    t = (2.0 * s - 1.0) * q / (2.0 * r)
    rad = (2.0 - s) * (2.0 * s - 1.0) - 2.0 * t * t
    xp = namespace(rad)
    xp.check("smallr_radicand", rad, 0.0, rad, scale=1.0 + s * s + t * t)
    u = -xp.sqrt(xp.maximum(rad, 0.0)) / math.sqrt(2.0)
    return SimilarityX(s=s, t=t, u=u, v=0.0, w=1.0)


def build_X_strip(r: float) -> SimilarityX:
    """Diagonal similarity diag(r/sqrt2, 1, r sqrt2); both constraints hold
    exactly and kappa = 2 on the admitted window r >= 1/sqrt2."""
    xp = namespace(r)
    if xp is Floats:
        r = float(r)
    xp.check("r", r, (0.0, 1.0), r)
    return SimilarityX(s=r / math.sqrt(2.0), t=0.0, u=0.0, v=0.0, w=r * math.sqrt(2.0))


def _xz_family(s: float, v: float, r: float) -> SimilarityX:
    """Populate the one-parameter family X(s, v) that reduces G to
    [[1, z, 0], [0, 0, z], [0, 0, -1]] with z = (qr - v) s / r^2."""
    r2 = r * r
    return SimilarityX(
        s=s,
        t=s * v / r2,
        u=s * (r2 * r2 + v * v - 1.0) / (2.0 * r2),
        v=v,
        w=r2 / s,
    )


def build_X_diagonalizing(params: NormalizedParams) -> SimilarityX:
    """Similarity that diagonalizes A outright: v = qr forces z = 0.

    Valid exactly on the region 5 - 2x >= 4 q^2 (x = r^2 + 1/r^2), where the
    kappa constraint admits the positive root s."""
    q, r = params.q, params.r
    x = r * r + 1.0 / (r * r)
    xp = namespace(x, q)
    rad = 5.0 - 2.0 * x - 4.0 * q * q
    xp.check("diag_radicand", rad, 0.0, rad, scale=5.0 + 2.0 * x)
    rad = xp.maximum(rad, 0.0)
    s = r * (xp.sqrt(5.0 + 2.0 * x) - xp.sqrt(rad)) / (math.sqrt(2.0) * (q * q + x))
    return _xz_family(s=s, v=q * r, r=r)


def build_X_critical(params: NormalizedParams) -> SimilarityX:
    """Similarity at the critical point of the reduced-norm objective.

    Defined for 1/sqrt2 <= r <= 1 (so 2 <= x <= 5/2); the resulting squared
    norm of X A X^{-1} equals psi(x, y)."""
    q, r = params.q, params.r
    x = r * r + 1.0 / (r * r)
    xp = namespace(x, q)
    xp.check("critical_x", x, 2.5, x)
    five_minus = xp.maximum(0.0, 5.0 - 2.0 * x)
    q2 = q * q
    s = r * xp.sqrt(5.0 + 2.0 * x) / (math.sqrt(2.0) * x) - r * q * xp.sqrt(five_minus) / (
        x * xp.sqrt(2.0 * x + 2.0 * q2)
    )
    # v >= 0 from v^2 s^2 = (5 - 2x) r^4 / (2 q^2 + 2x)
    v = r * r * xp.sqrt(five_minus / (2.0 * q2 + 2.0 * x)) / s
    return _xz_family(s=s, v=v, r=r)


def psi(x: float, y: float) -> float:
    """Squared norm of the critically transformed matrix, as a function of
    x = r^2 + 1/r^2 and y = rho + 1/rho."""
    xp = namespace(x, y)
    xp.check("psi_x", x, (2.0, 2.5), x)
    xp.check("psi_y", y, x, x, y)
    ysq = xp.maximum(0.0, y * y - x * x)
    xsq = xp.maximum(0.0, 25.0 - 4.0 * x * x)
    return (10.0 * y * y - 5.0 * x * x - 2.0 * y * xp.sqrt(ysq) * xp.sqrt(xsq)) / (
        2.0 * xp.power(x, 3)
    )
