"""The two-parameter matrix family and reduction of general inputs into it.

The family is

    A(q, r) = [[1, q/r, r^2 - 1/r^2],
               [0, 0,   q r        ],
               [0, 0,   -1         ]],        q > 0,  0 < r <= 1,

whose numerical range is the elliptic disk with foci -1, +1 and axes
rho +- 1/rho, where rho is determined by mu = x^2 + q^2 x - 2 with
x = r^2 + 1/r^2.  `normalize` reduces an arbitrary 3x3 matrix with such an
elliptic numerical range (centered at its middle eigenvalue) to this form by
an affine map read off its trace invariants, a Schur basis read off the
spectral projectors of the spectrum {-1, 0, 1}, and a diagonal phase unitary,
recording every transform so the reduction can be replayed and checked.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .elementwise import Floats, check, namespace
from .errors import DomainError
from .jsondata import plain

__all__ = [
    "EllipseGeometry",
    "MIRROR_Z",
    "NormalizationRecord",
    "NormalizedParams",
    "RhoParams",
    "TridiagonalParams",
    "build_A",
    "build_A_rho",
    "check_rho",
    "foci_of_general",
    "mu_rho",
    "normalize",
    "q_from_rho",
    "spectral_projectors",
]


def check_rho(rho):
    """rho as a float (or float array); DomainError unless 1 < rho < inf, so for NaN too."""
    xp = namespace(rho)
    if xp is Floats:
        rho = float(rho)
    check("rho", rho, (1.0, math.inf), rho)
    return rho


@dataclass(frozen=True)
class NormalizedParams:
    """Family parameters q > 0, 0 < r <= 1 (floats or arrays)."""

    q: float
    r: float

    def __post_init__(self) -> None:
        check("q", self.q, 0.0, self.q)
        check("r", self.r, (0.0, 1.0), self.r)


@dataclass(frozen=True)
class RhoParams:
    """Ellipse-based parameters rho > 1 and 1/sqrt(rho) < r <= 1 (floats or arrays)."""

    rho: float
    r: float

    def __post_init__(self) -> None:
        xp = namespace(self.rho, self.r)
        check_rho(self.rho)
        check("rho_r", self.r, (1.0 / xp.sqrt(self.rho), 1.0), self.r, self.rho)


@dataclass(frozen=True)
class EllipseGeometry:
    """Numerical-range ellipse: foci -1, +1, axes major = rho + 1/rho, minor = rho - 1/rho."""

    mu: float
    rho: float
    major: float
    minor: float
    foci: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        if self.mu < 2.0 - 1e-12:
            raise DomainError(f"mu must be >= 2, got {self.mu}")
        if self.rho < 1.0 - 1e-12:
            raise DomainError(f"rho must be >= 1, got {self.rho}")
        if abs(self.major**2 - self.minor**2 - 4.0) > 1e-9 * max(1.0, self.major**2):
            raise DomainError("axes do not satisfy major^2 - minor^2 = 4")


@dataclass(frozen=True)
class TridiagonalParams:
    """Tridiagonal 3x3 with constant main diagonal a."""

    a: complex
    b1: complex
    b2: complex
    c1: complex
    c2: complex

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.a, self.b1, 0.0], [self.c1, self.a, self.b2], [0.0, self.c2, self.a]],
            dtype=complex,
        )


def build_A(q: float, r: float) -> np.ndarray:
    """The family matrix A(q, r); raises DomainError off the parameter domain."""
    NormalizedParams(q, r)
    return np.array(
        [
            [1.0, q / r, r * r - 1.0 / (r * r)],
            [0.0, 0.0, q * r],
            [0.0, 0.0, -1.0],
        ]
    )


def q_from_rho(rho: float, r: float) -> float:
    """q making W(A(q, r)) the ellipse of parameter rho; floats or arrays.

    q^2 = (y^2 - x^2)/x with x = r^2 + 1/r^2, y = rho + 1/rho; admissible
    exactly when rho > 1 and 1/sqrt(rho) < r <= 1 (the open lower bound is
    where q degenerates to 0).
    """
    RhoParams(rho, r)
    return _q_from_xy(rho, r, r * r + 1.0 / (r * r), rho + 1.0 / rho)


def _q_from_xy(rho: float, r: float, x: float, y: float) -> float:
    """q_from_rho past its RhoParams check, given x = r^2 + 1/r^2 and y = rho + 1/rho."""
    xp = namespace(x, y)
    q_sq = (y * y - x * x) / x
    check("q_sq_finite", abs(q_sq), math.inf, rho, q_sq)
    check("q_sq", q_sq, 0.0, rho, r, q_sq)
    return xp.sqrt(q_sq)


def build_A_rho(rho: float, r: float) -> np.ndarray:
    """Family matrix parametrized by its numerical-range ellipse."""
    return build_A(q_from_rho(rho, r), r)


def mu_rho(q: float, r: float) -> EllipseGeometry:
    """Ellipse geometry of W(A(q, r)).

    mu = x^2 + q^2 x - 2 >= 2 + 2 q^2, and rho = sqrt((mu + sqrt(mu^2-4))/2)
    so that the axes are rho +- 1/rho.
    """
    NormalizedParams(q, r)
    x = r * r + 1.0 / (r * r)
    mu = x * x + q * q * x - 2.0
    rho = math.sqrt((mu + math.sqrt(max(mu * mu - 4.0, 0.0))) / 2.0)
    return EllipseGeometry(mu=mu, rho=rho, major=rho + 1.0 / rho, minor=rho - 1.0 / rho)


def foci_of_general(params: TridiagonalParams) -> tuple[complex, complex]:
    """Foci a +- sqrt(b1 c1 + b2 c2) of the elliptic numerical range."""
    s = cmath.sqrt(complex(params.b1) * complex(params.c1) + complex(params.b2) * complex(params.c2))
    a = complex(params.a)
    return (a - s, a + s)


# ---------------------------------------------------------------------------
# normalization of general inputs


#: normalize's tolerances, each relative to the scale it is compared with:
#: the ellipticity residual, alpha/beta/gamma for the degenerate cases, and
#: |det B1|.  The residual and |det B1| scale with 1 + |t|/|delta| too, which
#: grows with the shift as the rounding of B - tI does.
_ELLIPTIC_TOL = 1e-9
_DEGENERATE_TOL = 1e-12
_CENTER_TOL = 1e-8

#: Unitary involution implementing the r > 1 mirror:
#: Z A(q, 1/r) Z* = -A(q, r)^* for 0 < r <= 1.
MIRROR_Z = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])


@dataclass
class NormalizationRecord:
    """Replayable reduction of a 3x3 matrix to the family form.

    With (a, b) = affine and W = unitary, the normalized form is
    W (a B + b I) W* = [[1, 2 alpha, 2 gamma], [0, 0, 2 beta], [0, 0, -1]]
    with alpha, beta >= 0.  For generic inputs params holds (q, r) with
    q = 2 sqrt(alpha beta); inputs landing at r > 1 are recorded mirrored
    with params carrying the equivalent (q, 1/r) family member.
    """

    affine: tuple[complex, complex]
    unitary: np.ndarray
    params: NormalizedParams | None
    mirrored: bool
    degenerate_case: str | None
    alpha: float
    beta: float
    gamma: complex
    elliptic_residual: float

    def normalized_form(self) -> np.ndarray:
        """The upper-triangular target of the recorded transforms."""
        return np.array(
            [
                [1.0, 2.0 * self.alpha, 2.0 * self.gamma],
                [0.0, 0.0, 2.0 * self.beta],
                [0.0, 0.0, -1.0],
            ],
            dtype=complex,
        )

    def apply(self, B: np.ndarray) -> np.ndarray:
        """Replay the recorded transforms on an input matrix."""
        a, b = self.affine
        B1 = a * np.asarray(B, dtype=complex) + b * np.eye(3, dtype=complex)
        return self.unitary @ B1 @ self.unitary.conj().T

    def to_json(self) -> dict:
        return plain(self)

    @classmethod
    def from_json(cls, d: dict) -> "NormalizationRecord":
        return cls(**{
            **d,
            "affine": tuple(complex(*z) for z in d["affine"]),
            "unitary": np.array([[complex(*z) for z in row] for row in d["unitary"]]),
            "params": None if d["params"] is None else NormalizedParams(**d["params"]),
            "gamma": complex(*d["gamma"]),
        })


def spectral_projectors(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E_1, E_0, E_-1) of a 3x3 matrix with spectrum {-1, 0, 1}.

    Such a matrix satisfies A^3 = A, and its spectral projectors are the
    polynomials E_{+-1} = (A^2 +- A)/2 and E_0 = I - A^2.
    """
    A2 = A @ A
    return (A2 + A) / 2.0, np.eye(3) - A2, (A2 - A) / 2.0


def normalize(B: np.ndarray | TridiagonalParams) -> NormalizationRecord:
    """Reduce a 3x3 matrix with centered elliptic numerical range to A(q, r).

    The class pins the spectrum to {t, t +- delta} with t = tr B / 3 and
    delta^2 = tr((B - tI)^2) / 2.  Steps: (1) the affine map B1 = (B - tI)/delta,
    whose spectrum is {-1, 0, 1} exactly when det B1 = 0; (2) a Schur basis
    ordered (1, 0, -1), the QR of one column of each spectral projector of B1;
    (3) a diagonal phase unitary making the two superdiagonal entries
    nonnegative.  The result [[1, 2a, 2g], [0, 0, 2b], [0, 0, -1]] is
    classified as Diagonal (a = b = g = 0), TwoByTwoReducible (a = b = 0,
    g != 0), or generic, where ellipticity demands g real with
    2 a b g = b^2 - a^2, equivalently b/a = r^2.

    Raises DomainError for non-centered spectra, coincident foci, or a
    relative residual above 1e-9 (1 + |t|/|delta|).
    """
    if isinstance(B, TridiagonalParams):
        B = B.matrix()
    M = np.asarray(B, dtype=complex)
    if M.shape != (3, 3):
        raise DomainError(f"normalize expects a 3x3 matrix, got shape {M.shape}")

    t = complex(np.trace(M)) / 3.0
    N = M - t * np.eye(3)
    delta = cmath.sqrt(complex(np.trace(N @ N)) / 2.0)
    if 2.0 * abs(delta) < 1e-12 * (1.0 + abs(t)):
        raise DomainError("focal eigenvalues coincide; the range is a disk, not a proper ellipse")
    a = 1.0 / delta
    # canonical focus labeling: keep the affine scale in the right half-plane
    if a.real < 0 or (a.real == 0 and a.imag < 0):
        a = -a
    b = -a * t
    B1 = a * N
    # trace 0 and tr(B1^2) = 2 leave det B1 as the only freedom of the spectrum;
    # written as `not <=` so that a NaN determinant fails too
    det = abs(complex(np.linalg.det(B1)))
    shift = 1.0 + abs(t) / abs(delta)
    if not det <= _CENTER_TOL * shift:
        raise DomainError(f"spectrum is not centered: the normalized determinant is {det:.3g}, not 0")

    columns = [E[:, np.argmax(np.linalg.norm(E, axis=0))] for E in spectral_projectors(B1)]
    Q = np.linalg.qr(np.column_stack(columns))[0]
    U = Q.conj().T @ B1 @ Q
    u01, u02, u12 = complex(U[0, 1]), complex(U[0, 2]), complex(U[1, 2])
    phi1 = u01 / abs(u01) if abs(u01) > 0 else 1.0 + 0.0j
    phi2 = phi1 * (u12 / abs(u12)) if abs(u12) > 0 else (u02 / abs(u02) if abs(u02) > 0 else phi1)
    V = np.diag([1.0 + 0.0j, phi1, phi2])
    W = V @ Q.conj().T

    alpha = abs(u01) / 2.0
    beta = abs(u12) / 2.0
    gamma = u02 * phi2.conjugate() / 2.0

    s = 1.0 + alpha + beta + abs(gamma)
    if max(alpha, beta) <= _DEGENERATE_TOL * s:
        params, mirrored, residual = None, False, 0.0
        degenerate_case = "Diagonal" if abs(gamma) <= _DEGENERATE_TOL * s else "TwoByTwoReducible"
    else:
        scale = 1.0 + alpha * alpha + beta * beta + abs(gamma) ** 2
        residual = abs(2.0 * alpha * beta * gamma.conjugate() + alpha * alpha - beta * beta)
        if residual > _ELLIPTIC_TOL * scale * shift:
            raise DomainError(
                f"numerical range is not an ellipse centered at the middle eigenvalue (residual {residual:.3g})"
            )

        q = 2.0 * math.sqrt(alpha * beta)
        g = gamma.real
        r_sq = g + math.sqrt(g * g + 1.0)
        r = math.sqrt(r_sq)
        mirrored = r > 1.0
        params = NormalizedParams(q, 1.0 / r if mirrored else r)
        degenerate_case = None
    return NormalizationRecord(
        affine=(a, b),
        unitary=W,
        params=params,
        mirrored=mirrored,
        degenerate_case=degenerate_case,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        elliptic_residual=residual,
    )
