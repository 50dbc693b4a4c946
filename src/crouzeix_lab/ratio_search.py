"""Adversarial search for large norm-to-boundary ratios.

For a fixed matrix A whose numerical range is the ellipse with foci +-1 and
axes rho +- 1/rho, the quantity of interest is

    ratio(p) = ||p(A)|| / max_{z in W(A)} |p(z)|,

maximised over polynomials p of bounded degree.  The maximum principle lets
the denominator run over the boundary ellipse only, which we sample densely
and then polish around every near-maximal sample with a golden-section pass,
so the denominator is stable under grid refinement.  The search itself is a
seeded multi-start coordinate ascent; it is reproducible and monotone in its
evaluation budget, and it reports the best ratio found together with the
polynomial achieving it.

Most coordinate trials skip the polish: it never lowers the grid maximum
`top` and IEEE division is monotone, so ||p(A)|| / top bounds a trial's ratio,
and a trial whose bound can be neither accepted nor recorded changes nothing.
A trial changes one coefficient c[j], so it resumes the Horner evaluations of
p(A) and of p on the grid at state j + 1, kept from when the current
polynomial became current, and runs only j + 1 steps.  Each golden-section
step evaluates both probe points of every bracket in one call.  Every value
comes from the same operations in the same order, so results are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense_small
from .core_matrix import build_A_rho
from .errors import DegenerateDenominatorError, DomainError

__all__ = [
    "PolySpec",
    "RatioResult",
    "EllipseBoundary",
    "boundary_samples",
    "ratio_for_poly",
    "coordinate_search",
    "worst_ratio_search",
]

_MAX_DEGREE = 12
_DENOM_FLOOR = 1e-300
# near-maximal grid samples polished by golden section, and the relative
# slack deciding which local maxima count as near-maximal
_REFINE_CAP = 8
_REFINE_SLACK = 0.98
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PolySpec:
    """Polynomial p(z) = sum coeffs[k] z^k with degree = len(coeffs) - 1."""

    degree: int
    coeffs: tuple

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs)
        if not 0 <= self.degree <= _MAX_DEGREE:
            raise DomainError(f"degree {self.degree} outside [0, {_MAX_DEGREE}]")
        if len(cs) != self.degree + 1:
            raise DomainError("coeffs length must be degree + 1")
        if not any(c != 0 for c in cs):
            raise DomainError("polynomial must have a nonzero coefficient")

    @classmethod
    def of(cls, coeffs) -> "PolySpec":
        cs = tuple(complex(c) for c in coeffs)
        return cls(len(cs) - 1, cs)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolySpec":
        return cls(int(data["degree"]), tuple(complex(re, im) for re, im in data["coeffs"]))


@dataclass(frozen=True)
class RatioResult:
    best_ratio: float
    best_poly: PolySpec
    evaluations: int
    seed: int

    def __post_init__(self):
        if not self.best_ratio >= 1.0 - 1e-9:
            raise DomainError(f"best_ratio {self.best_ratio} below 1; constants achieve 1")

    def to_json(self) -> dict:
        return {
            "best_ratio": self.best_ratio,
            "best_poly": self.best_poly.to_json(),
            "evaluations": self.evaluations,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RatioResult":
        return cls(
            float(data["best_ratio"]),
            PolySpec.from_json(data["best_poly"]),
            int(data["evaluations"]),
            int(data["seed"]),
        )


def boundary_samples(rho: float, m: int) -> np.ndarray:
    """m points (a cos t, b sin t) on the ellipse with semi-axes a, b = (rho +- 1/rho)/2."""
    if not rho > 1.0:
        raise DomainError(f"rho must exceed 1, got {rho}")
    if not math.isfinite(rho):
        raise DomainError(f"rho must be finite, got {rho}")
    if m < 8:
        raise DomainError(f"need at least 8 samples, got {m}")
    a = (rho + 1.0 / rho) / 2.0
    b = (rho - 1.0 / rho) / 2.0
    t = 2.0 * math.pi * np.arange(m) / m
    return a * np.cos(t) + 1j * b * np.sin(t)


class EllipseBoundary:
    """Sampled boundary ellipse with a polished maximum-modulus evaluator.

    The grid maximum of |p| alone (`top`) moves by O(h^2) under refinement;
    following it with a golden-section polish inside each near-maximal
    bracket brings the value to grid-independent accuracy, which
    ratio_for_poly relies on.  The polish never lowers it, so top(c) <=
    max_abs_poly(c), the bound by which coordinate_search skips the polish.
    """

    def __init__(self, rho: float, m: int = 2048):
        self.rho = float(rho)
        self.m = int(m)
        self.points = boundary_samples(rho, m)
        self._a = (rho + 1.0 / rho) / 2.0
        self._b = (rho - 1.0 / rho) / 2.0
        self._h = 2.0 * math.pi / self.m

    def _at(self, t: np.ndarray) -> np.ndarray:
        return self._a * np.cos(t) + 1j * self._b * np.sin(t)

    def top(self, coeffs) -> float:
        """Grid maximum of |p|, the first stage of max_abs_poly and a lower bound on it."""
        return _max_abs_over(self.points, coeffs)

    def max_abs_poly(self, coeffs) -> float:
        cs = np.asarray(tuple(coeffs), dtype=complex)[::-1]
        vals = _abs_over(self.points, coeffs)
        top = float(vals.max())
        if len(cs) <= 1:
            return top
        left = np.roll(vals, 1)
        right = np.roll(vals, -1)
        peaks = np.nonzero((vals >= left) & (vals >= right) & (vals >= _REFINE_SLACK * top))[0]
        if peaks.size > _REFINE_CAP:
            peaks = peaks[np.argsort(vals[peaks])[::-1][:_REFINE_CAP]]
        t0 = self._h * peaks
        lo = t0 - self._h
        hi = t0 + self._h
        # vectorised golden section over all brackets at once, both probes of a
        # bracket in one evaluation; 40 steps shrink each bracket by ~4e-9 so
        # the quadratic peak error is below rounding
        k = peaks.size
        for step in range(41):
            if step:
                move_up = f[:k] < f[k:]
                lo = np.where(move_up, x1, lo)
                hi = np.where(move_up, hi, x2)
            w = _GOLDEN * (hi - lo)
            x1, x2 = hi - w, lo + w
            f = np.abs(np.polyval(cs, self._at(np.concatenate((x1, x2)))))
        refined = f.max() if k else top
        return max(top, float(refined))


def _abs_over(points: np.ndarray, coeffs) -> np.ndarray:
    return np.abs(np.polyval(np.asarray(tuple(coeffs), dtype=complex)[::-1], points))


def _max_abs_over(points: np.ndarray, coeffs) -> float:
    return float(_abs_over(points, coeffs).max())


def _points(boundary) -> np.ndarray:
    """The sample points of an EllipseBoundary or of a point array, which must not be empty."""
    if isinstance(boundary, EllipseBoundary):
        return boundary.points
    pts = np.asarray(boundary)
    if pts.size == 0:
        raise DomainError("boundary sample set is empty")
    return pts


def _horner(A: np.ndarray, pts: np.ndarray, c, j: int, above: tuple | None = None) -> tuple:
    """Horner states of p(A) and of p over pts, for ascending coefficients c.

    Entry k of each list is the state after c[d], ..., c[k], computed as
    eval_poly and np.polyval compute it, so entry 0 is p.  Entries above j
    come from `above`, the states of a polynomial agreeing with c there: a
    change in c[j] alone costs j + 1 steps and matches a full pass bit for
    bit.  Without `above`, j must be the degree.
    """
    mats, grid = above or ([None] * (j + 2), [None] * (j + 1) + [np.zeros_like(pts)])
    mats, grid = list(mats), list(grid)
    I = np.eye(A.shape[0], dtype=complex)
    for k in range(j, -1, -1):
        ck = complex(c[k])
        mats[k] = ck * I if mats[k + 1] is None else mats[k + 1] @ A + ck * I
        grid[k] = grid[k + 1] * pts + ck
    return mats, grid


def _num_top(states: tuple) -> tuple:
    """||p(A)|| and the grid maximum of |p|, from the Horner states of p."""
    mats, grid = states
    return dense_small.operator_norm(mats[0]), float(np.abs(grid[0]).max())


def _score(boundary, coeffs, num: float, top: float) -> float:
    """num over the boundary maximum of |p|: polished on an EllipseBoundary, top on points."""
    denom = boundary.max_abs_poly(coeffs) if isinstance(boundary, EllipseBoundary) else top
    if denom < _DENOM_FLOOR:
        raise DegenerateDenominatorError(f"boundary maximum {denom} too small to divide by")
    return num / denom


def ratio_for_poly(A: np.ndarray, p: PolySpec, boundary) -> float:
    """||p(A)|| divided by the maximum of |p| over the sampled boundary.

    boundary is either an EllipseBoundary (polished maximum) or a plain array
    of boundary points (grid maximum).
    """
    states = _horner(dense_small._as_square(A), _points(boundary), p.coeffs, p.degree)
    return _score(boundary, p.coeffs, *_num_top(states))


def _ruled_out(upper: float, cur: float, best: float) -> bool:
    """Whether a trial whose ratio is at most upper can be neither accepted nor recorded.

    Acceptance needs a ratio above cur * (1 + 1e-12); recording needs one
    above best, or equal to it with lexicographically smaller coefficients.
    """
    return upper <= cur * (1.0 + 1e-12) and upper < best


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        kx, ky = (x.real, x.imag), (y.real, y.imag)
        if kx != ky:
            return kx < ky
    return False


def _check_search_settings(degree: int, budget: int, seed: int) -> None:
    """Raise DomainError unless 0 <= degree <= _MAX_DEGREE, budget >= 1 and seed >= 0."""
    if not 0 <= degree <= _MAX_DEGREE:
        raise DomainError(f"degree {degree} outside [0, {_MAX_DEGREE}]")
    if budget < 1:
        raise DomainError("budget must be at least 1")
    if seed < 0:
        raise DomainError(f"seed {seed} is negative")


def coordinate_search(A: np.ndarray, boundary, degree: int, budget: int, seed: int) -> RatioResult:
    """Seeded multi-start coordinate ascent on the ratio; engine of worst_ratio_search.

    boundary is an EllipseBoundary or an array of points, as in ratio_for_poly.
    Candidate order is a fixed function of the seed alone, so a larger budget
    evaluates a superset of candidates and the recorded best never decreases.
    """
    _check_search_settings(degree, budget, seed)
    A = dense_small._as_square(A)
    pts = _points(boundary)
    polished = isinstance(boundary, EllipseBoundary)

    best_c = np.zeros(degree + 1, dtype=complex)
    best_c[0] = 1.0
    best = _score(boundary, best_c, *_num_top(_horner(A, pts, best_c, degree)))
    evals = 1
    if degree == 0:
        return RatioResult(best, PolySpec.of(best_c), evals, seed)

    def record(val: float, c: np.ndarray):
        nonlocal best, best_c
        if val > best or (val == best and _lex_less(c, best_c)):
            best, best_c = val, c.copy()

    rng = np.random.default_rng(seed)
    while evals < budget:
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        scale = boundary.max_abs_poly(c) if polished else _max_abs_over(pts, c)
        if scale < _DENOM_FLOOR:
            continue
        c /= scale
        states = _horner(A, pts, c, degree)
        cur = _score(boundary, c, *_num_top(states))
        evals += 1
        record(cur, c)
        step = 0.5
        while step >= 1e-3 and evals < budget:
            improved = False
            for j in range(degree + 1):
                for delta in (step, -step, 1j * step, -1j * step):
                    if evals >= budget:
                        break
                    trial = c.copy()
                    trial[j] += delta
                    trial_states = _horner(A, pts, trial, j, states)
                    num, top = _num_top(trial_states)
                    evals += 1
                    # num / top bounds the ratio: the polish never lowers top
                    if polished and top >= _DENOM_FLOOR and _ruled_out(num / top, cur, best):
                        continue
                    val = _score(boundary, trial, num, top)
                    record(val, trial)
                    if val > cur * (1.0 + 1e-12):
                        c, cur, states, improved = trial, val, trial_states, True
                if evals >= budget:
                    break
            if not improved:
                step *= 0.5
    return RatioResult(best, PolySpec.of(best_c), evals, seed)


def worst_ratio_search(rho: float, r: float, degree: int, budget: int, seed: int) -> RatioResult:
    """Worst ratio found for the family matrix at (rho, r); never above 2 here."""
    A = build_A_rho(rho, r)
    return coordinate_search(A, EllipseBoundary(rho), degree, budget, seed)
