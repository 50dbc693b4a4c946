"""The two-parameter matrix family and reduction of general inputs into it.

The family is

    A(q, r) = [[1, q/r, r^2 - 1/r^2],
               [0, 0,   q r        ],
               [0, 0,   -1         ]],        q > 0,  0 < r <= 1,

whose numerical range is the elliptic disk with foci -1, +1 and axes
rho +- 1/rho, where rho is determined by mu = x^2 + q^2 x - 2 with
x = r^2 + 1/r^2.  `normalize` reduces an arbitrary 3x3 matrix with such an
elliptic numerical range (centered at its middle eigenvalue) to this form by
an affine map, a Schur decomposition, and a diagonal phase unitary, recording
every transform so the reduction can be replayed and checked.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from . import dense_small
from .errors import DomainError

__all__ = [
    "EllipseGeometry",
    "MIRROR_Z",
    "NormalizationRecord",
    "NormalizedParams",
    "RhoParams",
    "TridiagonalParams",
    "XYCoords",
    "build_A",
    "build_A_rho",
    "foci_of_general",
    "mu_rho",
    "normalize",
    "q_from_rho",
]


@dataclass(frozen=True)
class NormalizedParams:
    """Family parameters q > 0, 0 < r <= 1."""

    q: float
    r: float

    def __post_init__(self) -> None:
        if not (self.q > 0.0):
            raise DomainError(f"q must be positive, got {self.q}")
        if not (0.0 < self.r <= 1.0):
            raise DomainError(f"r must lie in (0, 1], got {self.r}")


@dataclass(frozen=True)
class RhoParams:
    """Ellipse-based parameters rho > 1 and 1/sqrt(rho) < r <= 1."""

    rho: float
    r: float

    def __post_init__(self) -> None:
        if not (self.rho > 1.0):
            raise DomainError(f"rho must exceed 1, got {self.rho}")
        if not math.isfinite(self.rho):
            raise DomainError(f"rho must be finite, got {self.rho}")
        if not (1.0 / math.sqrt(self.rho) < self.r <= 1.0):
            raise DomainError(f"r={self.r} outside (1/sqrt(rho), 1] for rho={self.rho}")


@dataclass(frozen=True)
class XYCoords:
    """Substitution coordinates x = r^2 + 1/r^2, y = rho + 1/rho."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if self.x < 2.0 - 1e-12:
            raise DomainError(f"x = r^2 + 1/r^2 cannot drop below 2, got {self.x}")
        if self.y < 2.0 - 1e-12:
            raise DomainError(f"y = rho + 1/rho cannot drop below 2, got {self.y}")

    @classmethod
    def from_rho_r(cls, rho: float, r: float) -> "XYCoords":
        return cls(x=r * r + 1.0 / (r * r), y=rho + 1.0 / rho)


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
    """q making W(A(q, r)) the ellipse of parameter rho.

    q^2 = (y^2 - x^2)/x with x = r^2 + 1/r^2, y = rho + 1/rho; admissible
    exactly when rho > 1 and 1/sqrt(rho) < r <= 1 (the open lower bound is
    where q degenerates to 0).
    """
    RhoParams(rho, r)
    x = r * r + 1.0 / (r * r)
    y = rho + 1.0 / rho
    q_sq = (y * y - x * x) / x
    if not math.isfinite(q_sq):
        raise DomainError(f"rho={rho} overflows q^2 = {q_sq}")
    if q_sq <= 0.0:
        raise DomainError(f"(rho={rho}, r={r}) gives q^2 = {q_sq} <= 0")
    return math.sqrt(q_sq)


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

    def to_json(self) -> str:
        def c(z: complex) -> list[float]:
            z = complex(z)
            return [z.real, z.imag]

        payload = {
            "affine": [c(self.affine[0]), c(self.affine[1])],
            "unitary": [[c(self.unitary[i, j]) for j in range(3)] for i in range(3)],
            "params": None if self.params is None else {"q": self.params.q, "r": self.params.r},
            "mirrored": self.mirrored,
            "degenerate_case": self.degenerate_case,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": c(self.gamma),
            "elliptic_residual": self.elliptic_residual,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "NormalizationRecord":
        d = json.loads(text)

        def c(pair) -> complex:
            return complex(pair[0], pair[1])

        return cls(
            affine=(c(d["affine"][0]), c(d["affine"][1])),
            unitary=np.array([[c(d["unitary"][i][j]) for j in range(3)] for i in range(3)]),
            params=None if d["params"] is None else NormalizedParams(d["params"]["q"], d["params"]["r"]),
            mirrored=d["mirrored"],
            degenerate_case=d["degenerate_case"],
            alpha=d["alpha"],
            beta=d["beta"],
            gamma=c(d["gamma"]),
            elliptic_residual=d["elliptic_residual"],
        )


def _center_split(vals: list[complex], center_tol: float) -> tuple[complex, complex, complex]:
    """Split the spectrum into (focus-, center, focus+) or report failure.

    The center eigenvalue must be the midpoint of the other two (that is what
    "centered at an eigenvalue" means for this family after the affine map).
    """
    best = None
    best_dev = math.inf
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        dev = abs(vals[i] - (vals[j] + vals[k]) / 2.0)
        if dev < best_dev:
            best_dev = dev
            best = (i, j, k)
    i, j, k = best
    spread = max(abs(vals[0] - vals[1]), abs(vals[0] - vals[2]), abs(vals[1] - vals[2]))
    if spread < 1e-300:
        raise DomainError("all eigenvalues coincide; no elliptic normalization exists")
    if best_dev > center_tol * spread:
        raise DomainError(
            f"spectrum is not centered: middle eigenvalue deviates from the focal midpoint by {best_dev:.3g}"
        )
    return vals[j], vals[i], vals[k]


def normalize(
    B: np.ndarray | TridiagonalParams,
    *,
    elliptic_tol: float = 1e-9,
    degenerate_tol: float = 1e-12,
    center_tol: float = 1e-8,
) -> NormalizationRecord:
    """Reduce a 3x3 matrix with centered elliptic numerical range to A(q, r).

    Steps: (1) affine map sending the two focal eigenvalues to -1, +1 and the
    central one to 0; (2) Schur form with diagonal ordered (1, 0, -1);
    (3) diagonal phase unitary making the two superdiagonal entries
    nonnegative.  The result [[1, 2a, 2g], [0, 0, 2b], [0, 0, -1]] is
    classified as Diagonal (a = b = g = 0), TwoByTwoReducible (a = b = 0,
    g != 0), or generic, where ellipticity demands g real with
    2 a b g = b^2 - a^2, equivalently b/a = r^2.

    Raises DomainError for non-centered spectra, coincident foci, or a
    residual above elliptic_tol.
    """
    if isinstance(B, TridiagonalParams):
        B = B.matrix()
    M = np.asarray(B, dtype=complex)
    if M.shape != (3, 3):
        raise DomainError(f"normalize expects a 3x3 matrix, got shape {M.shape}")

    vals = list(dense_small.eigvals_3x3(M))
    f_minus, center, f_plus = _center_split(vals, center_tol)
    if abs(f_plus - f_minus) < 1e-12 * (1.0 + abs(center)):
        raise DomainError("focal eigenvalues coincide; the range is a disk, not a proper ellipse")
    a = 2.0 / (f_plus - f_minus)
    # canonical focus labeling: keep the affine scale in the right half-plane
    if a.real < 0 or (a.real == 0 and a.imag < 0):
        f_minus, f_plus = f_plus, f_minus
        a = -a
    b = -a * (f_plus + f_minus) / 2.0
    B1 = a * M + b * np.eye(3, dtype=complex)

    Q, U = dense_small.schur_3x3(B1, eig_order=(1.0, 0.0, -1.0))
    u01, u02, u12 = complex(U[0, 1]), complex(U[0, 2]), complex(U[1, 2])
    phi1 = u01 / abs(u01) if abs(u01) > 0 else 1.0 + 0.0j
    phi2 = phi1 * (u12 / abs(u12)) if abs(u12) > 0 else (u02 / abs(u02) if abs(u02) > 0 else phi1)
    V = np.diag([1.0 + 0.0j, phi1, phi2])
    W = V @ Q.conj().T

    alpha = abs(u01) / 2.0
    beta = abs(u12) / 2.0
    gamma = u02 * phi2.conjugate() / 2.0

    s = 1.0 + alpha + beta + abs(gamma)
    if max(alpha, beta, abs(gamma)) <= degenerate_tol * s:
        return NormalizationRecord(
            affine=(a, b),
            unitary=W,
            params=None,
            mirrored=False,
            degenerate_case="Diagonal",
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            elliptic_residual=0.0,
        )
    if max(alpha, beta) <= degenerate_tol * s:
        return NormalizationRecord(
            affine=(a, b),
            unitary=W,
            params=None,
            mirrored=False,
            degenerate_case="TwoByTwoReducible",
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            elliptic_residual=0.0,
        )

    scale = 1.0 + alpha * alpha + beta * beta + abs(gamma) ** 2
    residual = abs(2.0 * alpha * beta * gamma.conjugate() + alpha * alpha - beta * beta)
    if residual > elliptic_tol * scale:
        raise DomainError(
            f"numerical range is not an ellipse centered at the middle eigenvalue (residual {residual:.3g})"
        )

    q = 2.0 * math.sqrt(alpha * beta)
    g = gamma.real
    r_sq = g + math.sqrt(g * g + 1.0)
    r = math.sqrt(r_sq)
    mirrored = r > 1.0
    params = NormalizedParams(q, 1.0 / r if mirrored else r)
    return NormalizationRecord(
        affine=(a, b),
        unitary=W,
        params=params,
        mirrored=mirrored,
        degenerate_case=None,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        elliptic_residual=residual,
    )
