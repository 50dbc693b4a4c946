"""Adversarial search for large norm-to-boundary ratios.

For a fixed matrix A whose numerical range is the ellipse with foci +-1 and
axes rho +- 1/rho, the quantity of interest is

    ratio(p) = ||p(A)|| / max_{z in W(A)} |p(z)|,

maximised over polynomials p of bounded degree.  The maximum principle lets
the denominator run over the boundary ellipse only, which we sample densely
and then polish around every near-maximal sample with a few Newton steps,
so the denominator is stable under grid refinement.  The search itself is a
seeded multi-start coordinate ascent; it is reproducible and monotone in its
evaluation budget, and it reports the best ratio found together with the
polynomial achieving it.

Most coordinate trials skip the polish: it never lowers the grid maximum `top`
and IEEE division is monotone, so ||p(A)|| / top bounds a trial's ratio, and a
trial whose bound can be neither accepted nor recorded changes nothing.  p has
one Horner chain per target, `dense_small.horner_states` for p(A) and
`_grid_states` for p on points.  A trial changes one coefficient c[j], so it
resumes both at state j + 1, kept from when the current polynomial became
current, and runs only j + 1 steps; the polish reads |p| on the grid from
those states.  Before the full grid, it resumes them on the 32 grid points
where the current |p| is largest: their maximum is at most `top`, so a trial
that this smaller bound already rules out is skipped after 32 points instead
of 2048 (most are).  That bound is shrunk by a few ulps, so rounding that
depended on a point's place in the array could only make the search skip less.
On a point array the denominator is the grid maximum itself, so both rules
skip there, for the same reason.

Before a trial resumes p(A) and takes its SVD, the subset bound is tried with
an O(1) bound on the numerator in place of ||p(A)||.  The trial adds s to c_j,
so p_trial(A) = p(A) + s A^j and ||p_trial(A)|| <= ||p(A)|| + |s| ||A^j||;
||A^j|| for j = 0..d comes once per search from one chain of powers, and the
current polynomial's computed ||p(A)|| and Horner envelope
gamma sum |c_k| ||A||_F^k are kept when it becomes current.  The bound covers
the rounding of both chains, of the SVD and of the computed A^j, so it is
never below the computed numerator, and a trial it rules out is one the exact
path would skip.  On the family, A^3 = A, so ||A^j|| takes only three
values; about three trials in four stop at this bound.

The polish takes a few bracketed Newton steps on log|p(z(t))|, which is
smooth in t, from all the selected grid peaks at once.

Every value comes from the same operations in the same order.  numpy's
elementwise complex multiply-add, abs, cos and sin give an element the same
value whatever the array's length and the element's place in it, which the
tests check with ==, so results are bit-identical to evaluating every point
on its own and to polishing every trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense_small
from .core_matrix import build_A_rho, check_rho
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
# near-maximal grid samples polished by Newton steps, and the relative
# slack deciding which local maxima count as near-maximal
_REFINE_CAP = 8
_REFINE_SLACK = 0.98
# Newton steps per peak: the fewest that reach rounding on an m = 8 grid
_NEWTON_STEPS = 6
# grid points, those of largest |p| for the current polynomial, on which a
# search trial's grid maximum is bounded from below before the full grid is
# run, and the factor that shrinks that bound by eight ulps of 1
_SUBSET = 32
_SUBSET_SHRINK = 1.0 - 2.0 ** -49
# coordinate_search refuses max|z|^max(degree, 1) above this on the boundary,
# worst_ratio_search rho^max(degree, 1): beyond it the boundary maximum of a
# normalized p and the SVD of p(A) break down
_POWER_CEILING = 1e300


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
    check_rho(rho)
    if m < 8:
        raise DomainError(f"need at least 8 samples, got {m}")
    a = (rho + 1.0 / rho) / 2.0
    b = (rho - 1.0 / rho) / 2.0
    t = 2.0 * math.pi * np.arange(m) / m
    return a * np.cos(t) + 1j * b * np.sin(t)


class EllipseBoundary:
    """Sampled boundary ellipse with a polished maximum-modulus evaluator.

    The grid maximum of |p| moves by O(h^2) under refinement; following it
    with Newton steps inside each near-maximal bracket [t0 - h, t0 + h]
    brings the value to grid-independent accuracy, which ratio_for_poly
    relies on.  The polish returns the larger of the grid maximum and |p|
    where the steps end, so it never lowers the grid maximum, the bound by
    which coordinate_search skips the polish.
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

    def max_abs_poly(self, coeffs, vals: np.ndarray | None = None) -> float:
        """Polished maximum of |p| over the ellipse.

        vals is |p| on self.points; a caller holding the grid states of p
        passes it, and it is computed here otherwise.
        """
        cs = tuple(complex(c) for c in coeffs)
        if vals is None:
            vals = np.abs(_grid_states(self.points, cs)[0])
        top = float(vals.max())
        if len(cs) <= 1 or not top > 0.0:  # zero, or NaN from non-finite coefficients
            return top
        left = np.roll(vals, 1)
        right = np.roll(vals, -1)
        peaks = np.nonzero((vals >= left) & (vals >= right) & (vals >= _REFINE_SLACK * top))[0]
        if peaks.size > _REFINE_CAP:
            peaks = peaks[np.argsort(vals[peaks])[::-1][:_REFINE_CAP]]
        t = self._h * peaks
        lo, hi = t - self._h, t + self._h
        # the steps do not depend on the scale of p, so they run on p / max|c_k|,
        # which neither overflows nor underflows; a constant p of positive
        # degree, as the search starts from, has slope and curvature 0 / 0
        scale = max(abs(c) for c in cs)
        unit = [c / scale for c in cs]
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_NEWTON_STEPS):
                t, lo, hi = self._newton_step(unit, t, lo, hi)
        return max(top, float(np.abs(_grid_states(self._at(t), cs)[0]).max()))

    def _newton_step(self, c: list, t: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
        """One Newton step on log|p(z(t))| toward its maximum in [lo, hi]; returns t, lo, hi.

        With w1 = p'/p, w2 = p''/p, z' = -a sin t + i b cos t and z'' = -z,
        the slope is Re(w1 z') and the curvature Re((w2 - w1^2) z'^2 - w1 z).
        t becomes the bracket end on its side of the peak.  The step is taken
        where the curvature is negative and the step stays in the bracket;
        elsewhere t bisects, so a coarse grid's start where log|p| is convex,
        a step that overshoots, or a zero of p (NaN curvature) cannot stall it.
        """
        z = self._at(t)
        states = _grid_states(z, c)
        # p' and p''/2 from two chains over the Horner states of p
        d1 = d2 = 0.0
        for s in states[len(c) - 1:0:-1]:
            d2 = d2 * z + d1
            d1 = d1 * z + s
        w1, w2 = d1 / states[0], 2.0 * d2 / states[0]
        dz = -self._a * np.sin(t) + 1j * self._b * np.cos(t)
        slope = (w1 * dz).real
        curv = ((w2 - w1 * w1) * dz * dz - w1 * z).real
        up = slope > 0.0
        lo, hi = np.where(up, t, lo), np.where(up, hi, t)
        new = t - slope / curv
        keep = (curv < 0.0) & (lo <= new) & (new <= hi)
        return np.where(keep, new, 0.5 * (lo + hi)), lo, hi


def _points(boundary) -> np.ndarray:
    """The sample points of an EllipseBoundary or of a point array, which must not be empty."""
    if isinstance(boundary, EllipseBoundary):
        return boundary.points
    pts = np.asarray(boundary)
    if pts.size == 0:
        raise DomainError("boundary sample set is empty")
    return pts


def _grid_states(pts: np.ndarray, c, j: int | None = None, above: list | None = None) -> list:
    """Horner states of p over pts, for ascending coefficients c.

    Entry k is the state after c[d], ..., c[k], so entry 0 is p.  Entries
    above j come from `above`, the states of a polynomial agreeing with c
    there: a change in c[j] alone costs j + 1 steps and matches a full pass
    bit for bit.  Without `above`, j is the degree.  Elementwise, so on
    pts[S] with states [g[S] ...] it gives p[S].
    """
    grid = list(above) if above else [None] * len(c) + [np.zeros_like(pts)]
    for k in range(len(c) - 1 if j is None else j, -1, -1):
        grid[k] = grid[k + 1] * pts + complex(c[k])
    return grid


def _subset(pts: np.ndarray, grid: list) -> tuple:
    """The _SUBSET grid points where |p| is largest, and the grid states restricted to them."""
    vals = np.abs(grid[0])
    kth = max(vals.size - _SUBSET, 0)
    S = np.argpartition(vals, kth)[kth:]
    return pts[S], [g[S] for g in grid]


def _boundary_max(boundary, coeffs, vals: np.ndarray) -> float:
    """Maximum of |p| over the boundary, from vals = |p| on its sample points.

    Polished on an EllipseBoundary, the grid maximum on a point array.
    Raises DegenerateDenominatorError below _DENOM_FLOOR.
    """
    denom = boundary.max_abs_poly(coeffs, vals) if isinstance(boundary, EllipseBoundary) else float(vals.max())
    if denom < _DENOM_FLOOR:
        raise DegenerateDenominatorError(f"boundary maximum {denom} too small to divide by")
    return denom


def ratio_for_poly(A: np.ndarray, p: PolySpec, boundary) -> float:
    """||p(A)|| divided by the maximum of |p| over the sampled boundary.

    boundary is either an EllipseBoundary (polished maximum) or a plain array
    of boundary points (grid maximum).
    """
    vals = np.abs(_grid_states(_points(boundary), p.coeffs)[0])
    num = dense_small.operator_norm(dense_small.eval_poly(A, p.coeffs))
    return num / _boundary_max(boundary, p.coeffs, vals)


class _NumeratorBound:
    """Upper bound on the computed ||p(A)|| of a coordinate trial, in O(1) per trial.

    A trial adds s to c_j, so p_trial(A) = p_c(A) + s A^j and
    ||p_trial(A)|| <= ||p_c(A)|| + |s| ||A^j||.  The bound covers every
    rounding between that inequality and the computed numerator: the Horner
    error gamma sum |c_k| ||A||_F^k of the current chain and of the trial's
    (Higham 2002, section 5), the relative error gamma of the SVD, the error of
    the computed A^j behind ||A^j||, and, by a final 1 + 1e-12, its own.
    gamma = k u / (1 - k u) with k = 8 (degree + 2)(n + 4) is a generous
    cover for all of them.  A term that is not finite makes the bound inf.
    """

    def __init__(self, A: np.ndarray, degree: int):
        k = 8 * (degree + 2) * (A.shape[0] + 4) * 2.0 ** -53
        self._gamma = gamma = k / (1.0 - k)
        with np.errstate(all="ignore"):
            fro = float(np.linalg.norm(A)) * (1.0 + gamma)
            powers = np.array(dense_small.horner_states(A, [0.0] * degree + [1.0])[degree::-1])
        # the computed A^k of one chain, each normed by numpy's SVD as in
        # operator_norm, all in one batch; an overflowed power has norm inf
        finite = np.isfinite(powers).all(axis=(1, 2))
        norms = np.full(degree + 1, math.inf)
        norms[finite] = np.linalg.svd(powers[finite], compute_uv=False)[:, 0]
        # weight[k] = gamma ||A||_F^k bounds the Horner error of a unit c_k, and
        # reach[k] >= ||A^k|| + weight[k]
        self._weight = [gamma]
        for _ in range(degree):
            self._weight.append(self._weight[-1] * fro)
        self._reach = [(1.0 + 2.0 * gamma) * norm + 2.0 * w for norm, w in zip(norms.tolist(), self._weight)]
        self._base = math.inf

    def track(self, c: np.ndarray, num: float) -> None:
        """Make c, whose computed ||p_c(A)|| is num, the current polynomial."""
        env = sum(math.hypot(z.real, z.imag) * w for z, w in zip(c.tolist(), self._weight))
        self._base = (1.0 + 2.0 * self._gamma) * num + 2.0 * env

    def __call__(self, j: int, step: complex) -> float:
        """Bound on the computed ||p(A)|| of the current c with c_j moved by step."""
        upper = (self._base + abs(complex(step)) * self._reach[j]) * (1.0 + self._gamma) * (1.0 + 1e-12)
        return upper if upper < math.inf else math.inf


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
    Raises DomainError when max|z|^max(degree, 1) on the boundary exceeds 1e300.
    """
    _check_search_settings(degree, budget, seed)
    A = dense_small._as_square(A)
    pts = _points(boundary)
    reach = float(np.abs(pts).max())
    if reach > _POWER_CEILING ** (1.0 / max(degree, 1)):
        raise DomainError(f"boundary points reach |z| = {reach:.6g}: "
                          f"|z|^{max(degree, 1)} must not exceed 1e300 at degree {degree}")

    def evaluate(c: np.ndarray) -> tuple:
        """The Horner states of p(A) and of p on the grid, ||p(A)||, and the ratio they give."""
        mats, grid = dense_small.horner_states(A, c), _grid_states(pts, c)
        num = dense_small.operator_norm(mats[0])
        return mats, grid, num, num / _boundary_max(boundary, c, np.abs(grid[0]))

    best_c = np.zeros(degree + 1, dtype=complex)
    best_c[0] = 1.0
    best = evaluate(best_c)[3]
    evals = 1
    if degree == 0:
        return RatioResult(best, PolySpec.of(best_c), evals, seed)
    bound = _NumeratorBound(A, degree)

    def record(val: float, c: np.ndarray):
        nonlocal best, best_c
        if val > best or (val == best and _lex_less(c, best_c)):
            best, best_c = val, c.copy()

    rng = np.random.default_rng(seed)
    while evals < budget:
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        try:
            c /= _boundary_max(boundary, c, np.abs(_grid_states(pts, c)[0]))
        except DegenerateDenominatorError:
            continue
        mats, grid, num, cur = evaluate(c)
        bound.track(c, num)
        evals += 1
        record(cur, c)
        sub_pts, sub_grid = _subset(pts, grid)
        step = 0.5
        while step >= 1e-3 and evals < budget:
            improved = False
            for j in range(degree + 1):
                for delta in (step, -step, 1j * step, -1j * step):
                    if evals >= budget:
                        break
                    trial = c.copy()
                    trial[j] += delta
                    evals += 1
                    # num / top bounds the ratio, as the polish never lowers
                    # top, and so does any bound on num over the top of any
                    # part of the grid: first the bound, then num itself
                    sub_grid_top = float(np.abs(_grid_states(sub_pts, trial, j, sub_grid)[0]).max())
                    sub_top = sub_grid_top * _SUBSET_SHRINK
                    if sub_top >= _DENOM_FLOOR and _ruled_out(bound(j, trial[j] - c[j]) / sub_top, cur, best):
                        continue
                    trial_mats = dense_small.horner_states(A, trial, j, mats)
                    num = dense_small.operator_norm(trial_mats[0])
                    if sub_top >= _DENOM_FLOOR and _ruled_out(num / sub_top, cur, best):
                        continue
                    trial_grid = _grid_states(pts, trial, j, grid)
                    vals = np.abs(trial_grid[0])
                    top = float(vals.max())
                    if top >= _DENOM_FLOOR and _ruled_out(num / top, cur, best):
                        continue
                    val = num / _boundary_max(boundary, trial, vals)
                    record(val, trial)
                    if val > cur * (1.0 + 1e-12):
                        c, cur, mats, grid, improved = trial, val, trial_mats, trial_grid, True
                        sub_pts, sub_grid = _subset(pts, grid)
                        bound.track(c, num)
                if evals >= budget:
                    break
            if not improved:
                step *= 0.5
    return RatioResult(best, PolySpec.of(best_c), evals, seed)


def worst_ratio_search(rho: float, r: float, degree: int, budget: int, seed: int) -> RatioResult:
    """Worst ratio found for the family matrix at (rho, r); never above 2 here.

    Raises DomainError when rho^max(degree, 1) exceeds 1e300.
    """
    A = build_A_rho(rho, r)
    ceiling = _POWER_CEILING ** (1.0 / max(degree, 1))
    if rho > ceiling:
        raise DomainError(f"rho = {rho:.6g} too large at degree {degree}: "
                          f"rho^{max(degree, 1)} must not exceed 1e300 (rho <= {ceiling:.15g})")
    return coordinate_search(A, EllipseBoundary(rho), degree, budget, seed)
