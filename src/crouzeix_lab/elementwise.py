"""One formula for Python floats and float64 arrays alike.

A formula asks `namespace(a, b)` for its arithmetic: `Floats` when its
inputs are scalars, `Arrays` when one is an ndarray.  Both offer the same
operations, so the certificate code is written once and runs on one point or
on a whole sweep grid:

    sqrt, isfinite, maximum, minimum, where, select, logical_not, power,
    require, forbid

Bit identity.  numpy's sqrt, +, -, * and / round exactly as Python's float
operations do, but numpy's power does not: its SIMD kernels differ from
Python's `**` in the last bit (x**3 at about 5% of points).  Python's float
`**` calls the C library's pow, and so does the float64 loop of
np.float_power, one element at a time; so `Arrays.power` is np.float_power,
and both `power`s take an overflow as inf, where Python's float `**` raises.
`maximum(a, b)` and `minimum(a, b)` keep Python's `max`/`min` rule (b only
if it is strictly larger/smaller), NaN included.

Checks.  `require(ok, template, *values)` raises DomainError where ok is
false, and `forbid(bad, ...)` where bad is true; the two differ at NaN, as
`if not ok` and `if bad` do.  On arrays inside `array_pass(n)` a check
instead keeps, for each point that fails it first, the text it would raise
on that point's floats, and the pass goes on.  On arrays outside a pass,
the first failing point raises.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import operator

import numpy as np

from .errors import DomainError

__all__ = ["Arrays", "Floats", "array_pass", "namespace"]

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


# The two classes are namespaces, never instantiated: their functions are
# looked up on the class itself, where no method binding takes place.


class Floats:
    """Scalar arithmetic: the math module and Python's own operators."""

    sqrt = math.sqrt
    isfinite = math.isfinite
    maximum = max
    minimum = min
    power = _power
    logical_not = operator.not_

    def where(cond, a, b):
        return a if cond else b

    def select(conds, choices, default):
        for cond, choice in zip(conds, choices):
            if cond:
                return choice
        return default

    def require(ok, template: str, *values, error=DomainError) -> None:
        if not ok:
            raise error(template.format(*values))

    def forbid(bad, template: str, *values, error=DomainError) -> None:
        if bad:
            raise error(template.format(*values))


class Arrays:
    """Elementwise arithmetic on float64 arrays, rounding as Floats does."""

    sqrt = np.sqrt
    isfinite = np.isfinite
    where = np.where
    select = np.select
    logical_not = np.logical_not

    def maximum(a, b):
        return np.where(b > a, b, a)

    def minimum(a, b):
        return np.where(b < a, b, a)

    def power(v, k: int):
        with np.errstate(over="ignore"):
            return np.float_power(v, k)

    def require(ok, template: str, *values, error=DomainError) -> None:
        if np.all(ok):
            return
        failure = _PASS.get()
        if failure is None:
            i = int(np.flatnonzero(np.logical_not(ok))[0])
            raise error(template.format(*_at(values, i)))
        for i in np.flatnonzero(np.logical_not(ok) & np.equal(failure, None)).tolist():
            failure[i] = template.format(*_at(values, i))

    def forbid(bad, template: str, *values, error=DomainError) -> None:
        Arrays.require(np.logical_not(bad), template, *values, error=error)


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
