"""One formula for Python floats and float64 arrays alike.

A formula asks `namespace(a, b)` for its arithmetic: `Floats` when its
inputs are scalars, `Arrays` when one is an ndarray.  Both offer the same
operations, so the certificate code is written once and runs on one point or
on a whole sweep grid:

    sqrt, maximum, minimum, where, select, power, check

Bit identity.  numpy's sqrt, +, -, * and / round exactly as Python's float
operations do, but numpy's power does not: its SIMD kernels differ from
Python's `**` in the last bit (x**3 at about 5% of points).  Python's float
`**` calls the C library's pow, and so does the float64 loop of
np.float_power, one element at a time; so `Arrays.power` is np.float_power,
and both `power`s take an overflow as inf, where Python's float `**` raises.
`maximum(a, b)` and `minimum(a, b)` keep Python's `max`/`min` rule (b only
if it is strictly larger/smaller), NaN included.

Checks.  Each check of the certificate path is a clause of `CLAUSES` (see
`Clause`).  `check(name, value, bound, *values, scale=1.0)` raises the
clause's error, its text formatted on values, where value fails it, and
returns a verdict clause's truth value instead.  On arrays inside
`array_pass(n)` a check keeps, for each point that fails it first, the text
it would raise on that point's floats, and the pass goes on.  On arrays
outside a pass, the first failing point raises.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularMatrixError

__all__ = ["CLAUSES", "Arrays", "Clause", "Floats", "array_pass", "namespace"]

#: failure texts of the array pass in progress in this context, like np.errstate's state
_PASS = contextvars.ContextVar("array_pass", default=None)
_ndarray = np.ndarray


def namespace(a, b=0.0):
    """Arrays if a or b is an ndarray, else Floats."""
    if isinstance(a, float) and isinstance(b, float):  # numpy's float64 scalars included
        return Floats
    return Arrays if isinstance(a, _ndarray) or isinstance(b, _ndarray) else Floats


def _power(v, k: int):
    try:
        return v**k
    except OverflowError:
        return math.copysign(math.inf, v) if k % 2 else math.inf


def _at(values, i: int) -> list:
    """The values of point i, as Python scalars."""
    return [(v.item(i) if v.ndim else v.item()) if isinstance(v, np.ndarray) else v for v in values]


#: per comparison: the sign of its slack's widening, then its passing and failing tests (differing at NaN)
_COMPARE = {"<": (1.0, operator.lt, operator.ge), "<=": (1.0, operator.le, operator.gt),
            ">": (-1.0, operator.gt, operator.le), ">=": (-1.0, operator.ge, operator.lt)}
#: per window: the tests of its lower and its upper end
_WINDOWS = {"()": (operator.gt, operator.lt), "(]": (operator.gt, operator.le), "[]": (operator.ge, operator.le)}


class Clause(NamedTuple):
    """One check: passes where `value op limit`, limit = bound + slack * scale
    for op "<" or "<=" and bound - slack * scale for ">" or ">=".  A NaN
    comparison fails it (`if not ok`), or with nan_passes passes it (`if bad`).
    A window op "()", "(]" or "[]" takes a (low, high) bound, widens both ends
    by slack * scale and fails at NaN.  kind: "domain" (a function's domain,
    no slack), "witness" (a property of a constructed X, its spectrum or psi's
    window) or "verdict" (never raised)."""

    kind: str
    op: str
    text: str
    slack: float = 0.0
    nan_passes: bool = False
    error: type = DomainError


_MU = "||G|| bound mu = {!r} not certified by the norm polynomial"

#: every check of the certificate path, by name (see Clause)
CLAUSES = {
    # core_matrix: check_rho, NormalizedParams, RhoParams, q from (x, y)
    "rho": Clause("domain", "()", "rho must be finite and exceed 1, got {}"),
    "q": Clause("domain", ">", "q must be positive, got {}"),
    "r": Clause("domain", "(]", "r must lie in (0, 1], got {}"),
    "rho_r": Clause("domain", "(]", "r={} outside (1/sqrt(rho), 1] for rho={}"),
    "q_sq_finite": Clause("domain", "<", "rho={} overflows q^2 = {}"),
    "q_sq": Clause("domain", ">", "(rho={}, r={}) gives q^2 = {} <= 0"),
    # similarity: the constraints on X, its spectrum, G, the builders and psi
    "sigma_residual": Clause("witness", "<=", "sigma=1 constraint violated, residual {:.3e}", 1e-10, True),
    "kappa_residual": Clause("witness", "<=", "kappa=2 constraint violated, residual {:.3e}", 1e-10, True),
    "sw": Clause("witness", "[]", "sw={} outside [1/2, 2]", 1e-12),
    "spectrum_disc": Clause("witness", ">=", "negative discriminant {:.3e} in singular spectrum", 1e-14, True),
    "x_invertible": Clause("domain", ">=", "X is singular: s*w = 0", 0.0, True, SingularMatrixError),
    "smallr_radicand": Clause("witness", ">=", "small-r builder: radicand {:.3e} is negative", 1e-14, True),
    "diag_radicand": Clause("witness", ">=", "diagonalizing similarity needs 5 - 2x >= 4q^2, got {:.3e}", 1e-14, True),
    "critical_x": Clause("witness", "<=", "critical similarity needs r >= 1/sqrt2 (x <= 5/2), got x={}", 1e-12, True),
    "psi_x": Clause("witness", "[]", "psi needs 2 <= x <= 5/2, got x={}", 1e-12),
    "psi_y": Clause("witness", ">=", "psi needs y >= x, got x={}, y={}", 1e-12, True),
    # check_mu_bound and the certificate's verdict; the texts are failure reasons
    "mu": Clause("domain", ">", "mu must be positive, got {}"),
    "mu_p": Clause("verdict", ">=", _MU, 5e-10, True),
    "mu_vertex": Clause("verdict", "<=", _MU, 1e-9),
    "norm_finite": Clause("domain", "<", "rho={} overflows ||G||^2 = {}"),
    "product": Clause("verdict", "<=", "product = {!r} exceeds 1", 1e-12),
    "kappa": Clause("verdict", "<=", "kappa = {!r} exceeds 2", 1e-9, True),
}


# The two classes are namespaces, never instantiated: their functions are
# looked up on the class itself, where no method binding takes place.


class Floats:
    """Scalar arithmetic: the math module and Python's own operators."""

    sqrt = math.sqrt
    maximum = max
    minimum = min
    power = _power

    def where(cond, a, b):
        return a if cond else b

    def select(conds, choices, default):
        for cond, choice in zip(conds, choices):
            if cond:
                return choice
        return default

    def check(name: str, value, bound, *values, scale=1.0):
        kind, op, text, slack, nan_passes, error = CLAUSES[name]
        if op in _WINDOWS:
            (above, below), (low, high) = _WINDOWS[op], bound
            if slack:
                low, high = low - slack * scale, high + slack * scale
            ok = above(value, low) and below(value, high)
        else:
            sign, passes, fails = _COMPARE[op]
            if slack:  # sign * slack * scale rounds as slack * scale does
                bound = bound + sign * slack * scale
            ok = not fails(value, bound) if nan_passes else passes(value, bound)
        if ok or kind == "verdict":
            return ok
        raise error(text.format(*values))


class Arrays:
    """Elementwise arithmetic on float64 arrays, rounding as Floats does."""

    sqrt = np.sqrt
    where = np.where
    select = np.select

    def maximum(a, b):
        return np.where(b > a, b, a)

    def minimum(a, b):
        return np.where(b < a, b, a)

    def power(v, k: int):
        with np.errstate(over="ignore"):
            return np.float_power(v, k)

    def check(name: str, value, bound, *values, scale=1.0):
        kind, op, text, slack, nan_passes, error = CLAUSES[name]
        if op in _WINDOWS:
            (above, below), (low, high) = _WINDOWS[op], bound
            if slack:
                low, high = low - slack * scale, high + slack * scale
            ok = above(value, low) & below(value, high)
        else:
            sign, passes, fails = _COMPARE[op]
            if slack:
                bound = bound + sign * slack * scale
            ok = np.logical_not(fails(value, bound)) if nan_passes else passes(value, bound)
        if kind == "verdict" or np.all(ok):
            return ok
        failure = _PASS.get()
        if failure is None:
            i = int(np.flatnonzero(np.logical_not(ok))[0])
            raise error(text.format(*_at(values, i)))
        for i in np.flatnonzero(np.logical_not(ok) & np.equal(failure, None)).tolist():
            failure[i] = text.format(*_at(values, i))
        return ok


@contextlib.contextmanager
def array_pass(n: int):
    """Run array code on n points; yields an object array of failure texts.

    A point's entry is None until a check fails there, then the text that
    check raises on the point's floats; later checks keep the first text.
    Under np.errstate, overflow, division by zero and invalid operations
    give inf or NaN without a warning: points that failed a check carry such
    values through the rest of the pass.
    """
    failure = np.full(n, None, dtype=object)
    token = _PASS.set(failure)
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            yield failure
    finally:
        _PASS.reset(token)
