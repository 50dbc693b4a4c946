"""Conformal map of the elliptic numerical range onto the unit disk.

For the ellipse with foci -1, +1 and half-axes (rho +- 1/rho)/2 the interior
is mapped onto the open unit disk by

    f(z) = (2 z / rho) exp( sum_{n>=1} 2 (-1)^n T_{2n}(z) / (n (1 + rho^{4n})) ),

T_k the Chebyshev polynomials.  The focal image c = f(1) < 1 admits the
product representation

    c = (2 / rho) prod_{n>=1} ((1 + rho^{-8n}) / (1 + rho^{4-8n}))^2,

whose even/odd truncations give rigorous two-sided brackets, and the closed
envelopes c < 2/rho (all rho > 1) and c < 2 / (rho sqrt(1 + 4 rho^{-4}))
(rho >= sqrt(2)); the latter rests on a one-variable polynomial sign chain
checked by `q_sign_chain_check`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import dense_small
from .errors import DomainError

__all__ = [
    "CBracket",
    "QSignChainResult",
    "c_bracket",
    "c_upper_closed",
    "default_n_factors",
    "eval_f",
    "q_sign_chain_check",
    "verify_fA_equals_cA",
]

#: Coefficients (degree 0..23) of
#: q(t) = (4 + t)(1 + t^2)^4 (1 + t^4)^4 - t^9 (1 + t)^4 (1 + t^3)^4;
#: the degree 24/25 terms cancel.  q(t) <= 0 for t >= 4 is what upgrades the
#: 2/rho envelope to the sqrt(1 + 4 rho^{-4}) form.
Q_CHAIN_COEFFS = (
    4, 1, 16, 4, 40, 10, 80, 20, 124, 30, 156, 34,
    168, 27, 136, 18, 96, -5, 52, -2, 16, -7, 8, -2,
)


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not (rho > 1.0):
        raise DomainError(f"rho must exceed 1, got {rho}")
    return rho


def default_n_factors(rho: float) -> int:
    """Bracket length heuristic: factors shrink like rho^{-8n}."""
    rho = _check_rho(rho)
    return max(1, math.ceil(16.0 / (8.0 * math.log10(rho))))


def _default_terms_eval(rho: float) -> int:
    # on the boundary the series terms decay like rho^{-2n}/n, the slowest
    # case; aim the bare power at e^{-42} and let the in-loop break finish
    return max(8, math.ceil(21.0 / math.log(rho)))


def eval_f(z: complex, rho: float, n_terms: int | None = None) -> complex:
    """The disk map evaluated at an interior point of the ellipse.

    Raises DomainError when z lies outside the (closed) elliptic disk with
    foci -1, +1 and half-axes (rho +- 1/rho)/2.
    """
    rho = _check_rho(rho)
    z = complex(z)
    a = (rho + 1.0 / rho) / 2.0
    b = (rho - 1.0 / rho) / 2.0
    if (z.real / a) ** 2 + (z.imag / b) ** 2 > 1.0 + 1e-12:
        raise DomainError(f"z={z} lies outside the ellipse for rho={rho}")
    n = _default_terms_eval(rho) if n_terms is None else int(n_terms)
    if n < 1:
        raise DomainError("n_terms must be at least 1")
    # T_{2k}(z) by coupled recurrence on (T_{2k}, T_{2k+1})
    s = 0.0 + 0.0j
    t_even = 1.0 + 0.0j  # T_0
    t_odd = z  # T_1
    rho4 = rho**4
    rho_pow = 1.0  # rho^{4(k-1)} running power
    sign = 1.0
    for k in range(1, n + 1):
        # advance to T_{2k}, T_{2k+1}
        t_even = 2.0 * z * t_odd - t_even
        t_odd = 2.0 * z * t_even - t_odd
        rho_pow *= rho4
        sign = -sign
        if not (math.isfinite(t_even.real) and math.isfinite(t_even.imag)):
            break
        if math.isinf(rho_pow):
            break
        term = 2.0 * sign * t_even / (k * (1.0 + rho_pow))
        s += term
        if abs(term) < 1e-22 * (1.0 + abs(s)):
            break
    return (2.0 * z / rho) * cmath.exp(s)


@dataclass(frozen=True)
class CBracket:
    """Two-sided enclosure of the focal image c = f(1).

    Converged brackets satisfy upper < 1; with few factors the upper bound
    can exceed 1 for rho < 2 (it starts at the bare envelope 2/rho).
    """

    lower: float
    upper: float
    terms_used: int

    def __post_init__(self) -> None:
        if not (0.0 < self.lower <= self.upper):
            raise DomainError(f"bracket [{self.lower}, {self.upper}] is not ordered")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def c_bracket(rho: float, n_factors: int | None = None) -> CBracket:
    """Bracket c between consecutive truncations of its product formula.

    Factors ((1 + rho^{-8n}) / (1 + rho^{4-8n}))^2 are < 1 for rho > 1, so
    the even truncation after n_factors complete factors overestimates c and
    one extra denominator factor underestimates it.
    """
    rho = _check_rho(rho)
    n = default_n_factors(rho) if n_factors is None else int(n_factors)
    if n < 0:
        raise DomainError("n_factors must be nonnegative")
    upper = 2.0 / rho
    inv8 = rho**-8
    num_pow = inv8  # rho^{-8n}
    den_pow = rho**4 * inv8  # rho^{4-8n}
    for _ in range(n):
        upper *= ((1.0 + num_pow) / (1.0 + den_pow)) ** 2
        num_pow *= inv8
        den_pow *= inv8
    lower = upper / (1.0 + den_pow) ** 2
    return CBracket(lower=lower, upper=upper, terms_used=n)


def c_upper_closed(rho: float) -> float:
    """Closed upper envelope for c: 2/rho, sharpened for rho >= sqrt(2).

    The sharpened form 2 / (rho sqrt(1 + 4 rho^{-4})) is valid once
    rho^4 >= 4, which is exactly where the sign chain q(t) <= 0 applies.
    """
    rho = _check_rho(rho)
    if rho * rho >= 2.0:
        return 2.0 / (rho * math.sqrt(1.0 + 4.0 / rho**4))
    return 2.0 / rho


def verify_fA_equals_cA(rho: float, r: float, n_terms: int | None = None) -> float:
    """Residual ||f(A) - c A|| for the family matrix with range parameter rho.

    f maps the spectrum {-1, 0, 1} to {-c, 0, c} and, because f is odd and A
    is in the family, f(A) = c A exactly; the returned operator-norm residual
    measures the numerical route (holomorphic calculus vs. bracket midpoint).
    """
    from .core_matrix import build_A_rho  # local to avoid an import cycle

    A = build_A_rho(rho, r)
    F = dense_small.holomorphic_calc(A, lambda z: eval_f(z, rho, n_terms=n_terms))
    c = eval_f(1.0, rho, n_terms=n_terms).real
    return dense_small.operator_norm(F - c * A)


def _poly_mul(a, b) -> list:
    """Product of two ascending coefficient lists; exact for integers and Fractions."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


@dataclass(frozen=True)
class QSignChainResult:
    """Outcome of the q(t) <= 0 verification (truthy on success)."""

    passed: bool
    coefficients_match: bool
    tail_bound_negative: bool
    grid_max: float
    worst_t: float

    def __bool__(self) -> bool:
        return self.passed


def q_sign_chain_check(t_max: float = 1000.0, grid_points: int = 20001) -> QSignChainResult:
    """Verify q(t) <= 0 for all t >= 4 by three independent routes.

    (i) exact integer expansion of the defining product against the stored
    coefficients; (ii) dense grid evaluation on [4, t_max]; (iii) sign of the
    chained tail bound -1276 t^16 - 5 t^17 - 2 t^19, which dominates q for
    t >= 4 once the low-order positive terms are absorbed.
    """
    # (i) exact expansion over the integers
    def poly_pow(a: list[int], k: int) -> list[int]:
        out = [1]
        for _ in range(k):
            out = _poly_mul(out, a)
        return out

    first = _poly_mul([4, 1], _poly_mul(poly_pow([1, 0, 1], 4), poly_pow([1, 0, 0, 0, 1], 4)))
    second = _poly_mul([0] * 9 + [1], _poly_mul(poly_pow([1, 1], 4), poly_pow([1, 0, 0, 1], 4)))
    q_exact = [a - b for a, b in zip(first, second)]
    while q_exact and q_exact[-1] == 0:
        q_exact.pop()
    coeff_ok = q_exact == list(Q_CHAIN_COEFFS)

    # (ii) grid sign check; Horner in float on the verified coefficients
    ts = np.linspace(4.0, t_max, grid_points)
    vals = np.zeros_like(ts)
    for c in reversed(Q_CHAIN_COEFFS):
        vals = vals * ts + c
    # scale out t^19 to keep the comparison finite for large t
    scaled = vals / ts**19
    k = int(np.argmax(scaled))
    grid_max = float(scaled[k])
    worst_t = float(ts[k])
    grid_ok = bool(np.all(scaled < 0.0))

    # (iii) the chained bound's coefficients are all negative, so it is
    # negative for every t > 0; the absorption steps also give
    # q(t) <= bound pointwise for t >= 4, checked on the same grid
    bound = -1276.0 * ts**16 - 5.0 * ts**17 - 2.0 * ts**19
    tail_ok = all(c < 0 for c in (-1276, -5, -2)) and bool(
        np.all(vals <= bound + 1e-9 * np.abs(bound))
    )

    return QSignChainResult(
        passed=coeff_ok and grid_ok and tail_ok,
        coefficients_match=coeff_ok,
        tail_bound_negative=tail_ok,
        grid_max=grid_max,
        worst_t=worst_t,
    )
