"""Conformal map of the elliptic numerical range onto the unit disk.

For the ellipse with foci -1, +1 and half-axes (rho +- 1/rho)/2 the interior
is mapped onto the open unit disk by

    f(z) = (2 z / rho) exp( sum_{n>=1} 2 (-1)^n T_{2n}(z) / (n (1 + rho^{4n})) ),

T_k the Chebyshev polynomials.  The focal image c = f(1) < 1 admits the
product representation

    c = (2 / rho) prod_{n>=1} ((1 + rho^{-8n}) / (1 + rho^{4-8n}))^2,

whose truncations, rounded outward, give two-sided brackets (`c_bracket`),
and the closed envelopes c < 2/rho (all rho > 1) and
c < 2 / (rho sqrt(1 + 4 rho^{-4})) (rho >= sqrt(2)); the latter rests on a
one-variable polynomial sign chain, chain (a) of the proof replay, which
`region_certifier.q_sign_chain_check` checks.

The family matrix A has spectrum {-1, 0, 1}, so any f acts on it through
its three values there; `verify_fA_equals_cA` checks f(A) = c A on the
spectral projectors of A.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import core_matrix, dense_small
from .elementwise import namespace
from .errors import DomainError

__all__ = [
    "CBracket",
    "c_bracket",
    "c_upper_closed",
    "eval_f",
    "verify_fA_equals_cA",
]


def _pow4(rho: float) -> float:
    """rho**4, taken as inf from rho = 1e77 on, just below where Python's
    float ** raises OverflowError; 4 / rho**4 is then below 1e-307."""
    return rho**4 if rho < 1e77 else math.inf


def eval_f(z: complex, rho: float) -> complex:
    """The disk map evaluated at an interior point of the ellipse.

    The series stops at a term below 1e-22 (1 + |sum|), where rho^{4k}
    overflows (the terms are then below 2 rho^{-2k} < 1e-154, and T_{2k},
    at most rho^{2k} on the ellipse, is still finite), or after n terms.

    Raises DomainError when z lies outside the (closed) elliptic disk with
    foci -1, +1 and half-axes (rho +- 1/rho)/2.
    """
    rho = core_matrix.check_rho(rho)
    z = complex(z)
    a = (rho + 1.0 / rho) / 2.0
    b = (rho - 1.0 / rho) / 2.0
    if (z.real / a) ** 2 + (z.imag / b) ** 2 > 1.0 + 1e-12:
        raise DomainError(f"z={z} lies outside the ellipse for rho={rho}")
    # on the boundary the series terms decay like rho^{-2n}/n, the slowest
    # case; aim the bare power at e^{-42} and let the in-loop break finish
    n = max(8, math.ceil(21.0 / math.log(rho)))
    # T_{2k}(z) by coupled recurrence on (T_{2k}, T_{2k+1})
    s = 0.0 + 0.0j
    t_even = 1.0 + 0.0j  # T_0
    t_odd = z  # T_1
    rho4 = _pow4(rho)
    rho_pow = 1.0  # rho^{4(k-1)} running power
    sign = 1.0
    for k in range(1, n + 1):
        # advance to T_{2k}, T_{2k+1}
        t_even = 2.0 * z * t_odd - t_even
        t_odd = 2.0 * z * t_even - t_odd
        rho_pow *= rho4
        sign = -sign
        if math.isinf(rho_pow):
            break
        term = 2.0 * sign * t_even / (k * (1.0 + rho_pow))
        s += term
        if abs(term) < 1e-22 * (1.0 + abs(s)):
            break
    return (2.0 * z / rho) * cmath.exp(s)


@dataclass(frozen=True)
class CBracket:
    """Two-sided enclosure lower <= c <= upper of the focal image c = f(1).

    With at least one factor upper <= 1; with none it is the bare envelope
    2/rho, which exceeds 1 for rho < 2.
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
    """Bracket c between truncations of its product formula, rounded outward.

    The factors ((1 + rho^{-8k}) / (1 + rho^{4-8k}))^2 are < 1 for rho > 1,
    so the truncation U_k after k complete factors overestimates c.  Since
    rho^{-8j} > rho^{-4-8j}, the remaining product telescopes to more than
    1 / (1 + rho^{-4-8k})^2, so U_k / (1 + rho^{-4-8k})^2 underestimates c.

    Each float truncation is widened outward by twice a first-order bound on
    its accumulated relative rounding (pow within 1 ulp, every other
    operation correctly rounded); the doubling covers the second-order terms
    and the rounding of the widening itself.  upper is the least widened U_k
    for 1 <= k <= n, capped at 1 since c < 1; lower is the greatest widened
    lower end for 0 <= k <= n.  So the brackets nest in n by construction.
    With n = 0 the upper end is the bare envelope 2/rho: its rounding is
    absorbed by the first factor's gap of about 2 rho^{-4} while rho < 1e4.
    """
    rho = core_matrix.check_rho(rho)
    # by default the least n >= 1 with rho^{-8n} <= 1e-16: the factors approach 1 like rho^{-8n}
    n = max(1, math.ceil(16.0 / (8.0 * math.log10(rho)))) if n_factors is None else int(n_factors)
    if n < 0:
        raise DomainError("n_factors must be nonnegative")
    u = 2.0**-53  # unit roundoff
    trunc = 2.0 / rho
    upper = trunc if rho < 1e4 else math.nextafter(trunc, math.inf)
    err = u  # relative rounding bound of trunc
    inv8 = rho**-8
    num_pow = inv8  # rho^{-8k}
    den_pow = rho**-4  # rho^{4-8k}
    lower = 0.0
    for k in range(n + 1):
        # den_pow is rho^{-4-8k} here, with relative error at most (3k + 6) u
        low = trunc / (1.0 + den_pow) ** 2 * (1.0 - 2.0 * (err + (4.0 + (6 * k + 12) * den_pow) * u))
        if low > lower:
            lower = low
        if k == n:
            break
        trunc *= ((1.0 + num_pow) / (1.0 + den_pow)) ** 2
        err += (8.0 + (6 * k + 12) * (num_pow + den_pow)) * u
        high = trunc * (1.0 + 2.0 * err)
        if high < upper:
            upper = high
        num_pow *= inv8
        den_pow *= inv8
    if n:
        upper = min(upper, 1.0)
    return CBracket(lower=lower, upper=upper, terms_used=n)


def c_upper_closed(rho: float) -> float:
    """Closed upper envelope for c: 2/rho, sharpened for rho >= sqrt(2).

    The sharpened form 2 / (rho sqrt(1 + 4 rho^{-4})) is valid once
    rho^4 >= 4, which is exactly where the sign chain q(t) <= 0 applies
    (`region_certifier.q_sign_chain_check`, with t = rho^4).
    Floats or arrays; where rho**4 overflows, 4 rho^{-4} is 0.
    """
    rho = core_matrix.check_rho(rho)
    xp = namespace(rho)
    return xp.where(rho * rho >= 2.0, 2.0 / (rho * xp.sqrt(1.0 + 4.0 / xp.power(rho, 4))), 2.0 / rho)


def verify_fA_equals_cA(rho: float, r: float) -> float:
    """Residual of f(A) = c A for the family matrix with range parameter rho.

    A has spectrum {-1, 0, 1}, so A^3 = A and its spectral projectors are the
    polynomials E_{+-1} = (A^2 +- A)/2 and E_0 = I - A^2; then
    f(A) = sum f(lam) E_lam, with eval_f at the three nodes.  Because f is
    odd, f(A) = c A with c = f(1).  Returns max(||A^3 - A||, ||f(A) - c A||)
    in the operator norm, so a matrix off the three-node calculus fails too.
    """
    A = core_matrix.build_A_rho(rho, r)
    E_plus, E_zero, E_minus = core_matrix.spectral_projectors(A)
    f_minus, f_zero, f_plus = (eval_f(z, rho) for z in (-1.0, 0.0, 1.0))
    F = f_plus * E_plus + f_minus * E_minus + f_zero * E_zero
    c = f_plus.real
    return max(dense_small.operator_norm(A @ A @ A - A), dense_small.operator_norm(F - c * A))
