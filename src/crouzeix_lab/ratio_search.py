"""Adversarial search for large norm-to-boundary ratios.

For a fixed matrix A whose numerical range is the ellipse with foci +-1 and
axes rho +- 1/rho, the quantity of interest is

    ratio(p) = ||p(A)|| / max_{z in W(A)} |p(z)|,

maximised over polynomials p of bounded degree.  The maximum principle lets
the denominator run over the boundary ellipse only, which we sample densely
and then polish with a few Newton steps around every grid peak that can end
above the grid maximum, so the denominator is stable under grid refinement.
The search itself is a seeded multi-start coordinate ascent; it is
reproducible and monotone in its evaluation budget, and it reports the best
ratio found together with the polynomial achieving it.

Most coordinate trials skip the polish: it never lowers the grid maximum `top`
and IEEE division is monotone, so ||p(A)|| / top bounds a trial's ratio, and a
trial whose bound can be neither accepted nor recorded changes nothing.  p has
one Horner chain per target, `dense_small.horner_states` for p(A) and
`_grid_states` for p on points.  A trial changes one coefficient c[j], so it
resumes both at state j + 1, kept from when the current polynomial became
current, and runs only j + 1 steps; the polish reads |p| on the grid from
those states.  Before either chain runs, _TrialBound rules out most trials in
O(1): a bound on ||p(A)|| over a bound on `top` at the (at most 8) local maxima
of the current |p| on the grid, each covering every rounding (see its
docstring).  A ruled-out trial is not even copied.  One scan of each grid for
its local maxima serves both the polish and this bound.  On a point array the
denominator is the grid maximum itself, so every rule skips there too.

The polish takes a few bracketed Newton steps on log|p(z(t))|, which is
smooth in t, from each selected grid peak in turn, in Python floats, and
stops at a step that leaves t unchanged.

Every value comes from the same operations in the same order.  numpy's
elementwise complex multiply-add, abs, cos and sin give an element of the
grid and final passes the same value whatever the array's length and the
element's place in it, which the tests check with ==, so results are
bit-identical to evaluating every point on its own and to polishing every trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense_small
from .core_matrix import build_A_rho, check_rho
from .errors import DegenerateDenominatorError, DomainError
from .jsondata import plain

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
# the most grid peaks polished by Newton steps, and the relative slack below
# which a peak is never polished (EllipseBoundary._floor can only raise it)
_REFINE_CAP = 8
_REFINE_SLACK = 0.98
# Newton steps per peak: the fewest that reach rounding on an m = 8 grid
_NEWTON_STEPS = 6
# coordinate_search refuses max|z|^max(degree, 1) above this on the boundary
# and (||A|| / 2)^max(degree, 1), worst_ratio_search rho^max(degree, 1): beyond
# it the boundary maximum of a normalized p and the SVD of p(A) break down
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
        if not np.isfinite(cs).all():
            raise DomainError("polynomial coefficients must be finite")

    @classmethod
    def of(cls, coeffs) -> "PolySpec":
        cs = tuple(complex(c) for c in coeffs)
        return cls(len(cs) - 1, cs)

    def to_json(self) -> dict:
        return plain(self)

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
        return plain(self)

    @classmethod
    def from_json(cls, data: dict) -> "RatioResult":
        return cls(**{**data, "best_poly": PolySpec.from_json(data["best_poly"])})


# the largest best_ratio with which the `ratio` command and verify_observation pass a search
_RATIO_PASS = 2.0 + 1e-6


def boundary_samples(rho: float, m: int) -> np.ndarray:
    """m points (a cos t, b sin t) on the ellipse with semi-axes a, b = (rho +- 1/rho)/2."""
    return EllipseBoundary(rho, m).points


class EllipseBoundary:
    """Sampled boundary ellipse with a polished maximum-modulus evaluator.

    The grid maximum of |p| moves by O(h^2) under refinement; Newton steps
    in the bracket [t0 - h, t0 + h] of each grid peak that can end above it
    (_floor) bring the value to grid-independent accuracy, which
    ratio_for_poly relies on.  The steps run peak by peak in Python floats,
    which on at most 8 peaks cost less than numpy's per-call overhead.  The
    polish returns the larger of the grid maximum and |p| where the steps
    end, so it never lowers the grid maximum, by which coordinate_search skips it.
    """

    def __init__(self, rho: float, m: int = 2048):
        check_rho(rho)
        if m < 8:
            raise DomainError(f"need at least 8 samples, got {m}")
        self.rho = float(rho)
        self.m = int(m)
        self._a = (rho + 1.0 / rho) / 2.0
        self._b = (rho - 1.0 / rho) / 2.0
        self._h = 2.0 * math.pi / self.m
        self.points = self._at(2.0 * math.pi * np.arange(m) / m)

    def _at(self, t: np.ndarray) -> np.ndarray:
        return self._a * np.cos(t) + 1j * self._b * np.sin(t)

    def max_abs_poly(self, coeffs, vals: np.ndarray | None = None, index: np.ndarray | None = None,
                     top: float | None = None) -> float:
        """Polished maximum of |p| over the ellipse: the peaks at or above _floor are polished.

        vals is |p| on self.points, index = _peaks(vals) and top =
        float(vals.max()); a caller holding the grid states of p passes them,
        and they are computed here otherwise.  Coefficients below 2^-500 run
        scaled by an exact power of two, so that Horner's rule does not
        underflow, and the result is scaled back; vals, index and top are not
        used then.
        """
        cs = np.asarray(coeffs, dtype=complex).tolist()
        scale = max(map(abs, cs), default=0.0)
        if 0.0 < scale < 2.0 ** -500:
            shift = -math.frexp(scale)[1]
            unit = [complex(math.ldexp(c.real, shift), math.ldexp(c.imag, shift)) for c in cs]
            return math.ldexp(self.max_abs_poly(unit), -shift)
        if vals is None:
            vals = np.abs(_grid_states(self.points, cs)[0])
        top = float(vals.max()) if top is None else top
        if not any(cs[1:]) or not 0.0 < top < math.inf:  # constant, zero, or p overflowed
            return top
        index = _peaks(vals) if index is None else index
        # the steps do not depend on the scale of p, so they run on p / max|c_k|,
        # which neither overflows nor underflows
        unit = [c / scale for c in cs]
        near = index[vals[index] >= self._floor(cs, top)]
        t = np.array([self._polish_peak(unit, self._h * k) for k in near.tolist()])
        return max(top, float(np.abs(_grid_states(self._at(t), cs)[0]).max()))

    def _floor(self, cs: list, top: float) -> float:
        """The least peak value whose polish can end above top, or _REFINE_SLACK top if larger.

        Bernstein's inequality for the degree-2d trigonometric polynomial |p(z(t))|^2 keeps it below
        v^2 + eps / (1 - eps) top^2, eps = d^2 h^2 / 2 < 1, in the bracket of a peak of value v; v, top
        and the polished value are widened by E = 2 gamma sum |c_k| a^k (README, `ratio_search`).
        """
        d, env = len(cs) - 1, 0.0
        eps = 0.5 * (d * self._h) ** 2
        for c in reversed(cs):
            env = env * self._a + abs(c)
        e = 2.0 * _gamma(8 * (d + 2)) * env / top
        q = (1.0 - e) ** 2 - eps / (1.0 - eps) * (1.0 + e) ** 2 if eps < 1.0 else 0.0
        return top * max(_REFINE_SLACK, (math.sqrt(q) - e) * (1.0 - 2.0 ** -50) if q > 0.0 else 0.0)

    def _polish_peak(self, c: list, t: float) -> float:
        """At most _NEWTON_STEPS bracketed Newton steps on log|p(z(t))| from t toward its maximum in [t - h, t + h].

        With w1 = p'/p, w2 = p''/p, z' = -a sin t + i b cos t and z'' = -z,
        the slope is Re(w1 z') and the curvature Re((w2 - w1^2) z'^2 - w1 z).
        t becomes the bracket end on its side of the peak.  The step is taken
        where the curvature is negative and the step stays in the bracket;
        elsewhere t bisects, so a coarse grid's start where log|p| is convex,
        a step that overshoots, a zero of p (NaN slope) or a curvature of 0 cannot stall it.
        """
        lo, hi = t - self._h, t + self._h
        for _ in range(_NEWTON_STEPS):
            was = t
            cos, sin = math.cos(t), math.sin(t)
            z = complex(self._a * cos, self._b * sin)
            p = d1 = d2 = 0j  # p, p' and p''/2 from one Horner chain
            for ck in reversed(c):
                d2, d1, p = d2 * z + d1, d1 * z + p, p * z + ck
            slope = curv = math.nan
            if p != 0:
                w1, w2 = d1 / p, 2.0 * d2 / p
                dz = complex(-self._a * sin, self._b * cos)
                slope = (w1 * dz).real
                curv = ((w2 - w1 * w1) * dz * dz - w1 * z).real
            lo, hi = (t, hi) if slope > 0.0 else (lo, t)
            new = t - slope / curv if curv < 0.0 else math.nan
            t = new if lo <= new <= hi else 0.5 * (lo + hi)
            # a step that keeps t, bit for bit (not -0.0 for 0.0), would repeat
            # itself: slope, bracket and step depend only on t, lo and hi
            if t == was and math.copysign(1.0, t) == math.copysign(1.0, was):
                break
        return t


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


def _peaks(vals: np.ndarray) -> np.ndarray:
    """Indices of the at most _REFINE_CAP largest local maxima of vals, largest first.

    Neighbours are taken cyclically, so without NaNs the largest value is one of them.
    """
    ring = np.concatenate((vals[-1:], vals, vals[:1]))
    peaks = np.nonzero((vals >= ring[:-2]) & (vals >= ring[2:]))[0]
    return peaks[np.argsort(vals[peaks])[::-1][:_REFINE_CAP]]


def _boundary_max(boundary, coeffs, vals: np.ndarray, index: np.ndarray | None = None, top: float | None = None) -> float:
    """Maximum of |p| over the boundary, from vals = |p| on its sample points.

    EllipseBoundary.max_abs_poly on an EllipseBoundary, the grid maximum on a
    point array; index = _peaks(vals) and top = float(vals.max()), if given.
    Raises DegenerateDenominatorError below _DENOM_FLOOR.
    """
    if isinstance(boundary, EllipseBoundary):
        denom = boundary.max_abs_poly(coeffs, vals, index, top)
    else:
        denom = float(vals.max()) if top is None else top
    if denom < _DENOM_FLOOR:
        raise DegenerateDenominatorError(f"boundary maximum {denom} too small to divide by")
    return denom


def _evaluate(A: np.ndarray, boundary, pts: np.ndarray, c) -> tuple:
    """(mats, grid, index, num, denom): the Horner states of p(A) and of p on pts, _peaks(|p|) there,
    num = ||p(A)|| (inf where p(A) is not finite) and denom = _boundary_max, the ratio's one evaluation."""
    mats = dense_small.horner_states(A, c)
    grid = _grid_states(pts, c)
    vals = np.abs(grid[0])
    index = _peaks(vals)
    num = dense_small.operator_norm(mats[0]) if np.isfinite(mats[0]).all() else math.inf
    return mats, grid, index, num, _boundary_max(boundary, c, vals, index)


def ratio_for_poly(A: np.ndarray, p: PolySpec, boundary) -> float:
    """||p(A)|| divided by the maximum of |p| over the sampled boundary, from _evaluate.

    boundary is either an EllipseBoundary (polished maximum) or a plain array
    of boundary points (grid maximum).  Raises DomainError if either overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        num, denom = _evaluate(A, boundary, _points(boundary), p.coeffs)[3:]
    if not (math.isfinite(num) and math.isfinite(denom)):
        raise DomainError(f"||p(A)|| = {num} and boundary maximum {denom} must be finite")
    return num / denom


class _TrialBound:
    """Bounds on the computed ratio of a coordinate trial, in O(1) Python floats per trial and peak.

    A trial moves c_j of the current polynomial c by s, so p_trial = p_c + s z^j
    exactly.  u = 2^-53, d is the degree, n the order of A, and
    gamma(k) = k u / (1 - k u).

    Numerator (upper): p_trial(A) = p_c(A) + s A^j, so
    ||p_trial(A)|| <= ||p_c(A)|| + |s| ||A^j||.  The bound covers every
    rounding between that inequality and the computed numerator: the Horner
    error g sum |c_k| ||A||_F^k of the current chain and of the trial's
    (Higham 2002, section 5), the relative error g of the SVD, the error of
    the computed A^j behind ||A^j||, and, by a final 1 + 1e-12, its own.
    g = gamma(8 (d + 2)(n + 4)) is a generous cover for all of them.  A term
    that is not finite makes the bound inf.

    Grid maximum (low): at each peak z of the current |p| on the grid (see
    _peaks), track keeps numpy's computed P = p_c(z), Z_k = z^k from k - 1
    complex products, |Z_k| and env = sum |c_k| |Z_k|.  A trial takes
    w = P + s Z_j in Python complex arithmetic and
    low = (|w| - 2 gamma(8 (d + 2)) (env + |s| |Z_j|)) (1 - 2^-50).  With
    e = env + |s| |z|^j, the envelope of p_trial at z (Higham 2002,
    section 5.1): P is within 4 d u env of p_c(z) and numpy's value of
    p_trial(z) within 4 d u e (complex Horner, to first order in u); the
    computed s is within u |s| of the exact one, Z_j within 3 j u |z|^j of
    z^j, the product within 3 u |s Z_j| and the sum within u e.  So w is
    within (8 d + 3 j + 5) u e < 2 gamma(8 (d + 2)) e of the computed
    |p_trial(z)|, the rounding of env and |Z_j| (relative (d + 2) u) moves
    the slack by a second-order term, and (1 - 2^-50) covers that of low
    itself: low is at most the computed |p_trial(z)|, hence at most the
    computed grid maximum.  On the family, where A^3 = A, about five trials
    in six stop at these bounds.
    """

    def __init__(self, A: np.ndarray, degree: int):
        self._gamma = gamma = _gamma(8 * (degree + 2) * (A.shape[0] + 4))
        self._slack = 2.0 * _gamma(8 * (degree + 2))
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

    def track(self, c: np.ndarray, num: float, pts: np.ndarray, index: np.ndarray, p: np.ndarray) -> None:
        """Make c the current polynomial: num is its computed ||p_c(A)||, p its computed
        value on pts and index = _peaks(|p|)."""
        env = sum(math.hypot(z.real, z.imag) * w for z, w in zip(c.tolist(), self._weight))
        self._base = (1.0 + 2.0 * self._gamma) * num + 2.0 * env
        powers = np.ones((index.size, len(c)), dtype=complex)
        powers[:, 1:] = pts[index, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        moduli = np.abs(powers)
        self._peaks = list(zip(p[index].tolist(), powers.tolist(), (moduli @ np.abs(c)).tolist(), moduli.tolist()))

    def upper(self, j: int, s: complex) -> float:
        """Bound on the computed ||p(A)|| of the current c with c_j moved by s."""
        upper = (self._base + abs(s) * self._reach[j]) * (1.0 + self._gamma) * (1.0 + 1e-12)
        return upper if upper < math.inf else math.inf

    def low(self, j: int, s: complex, cur: float, best: float) -> float | None:
        """None if upper(j, s) over a bound on the grid maximum rules the trial out (_ruled_out),
        else the largest usable such bound, finite and at least _DENOM_FLOOR, or 0.0 if none is.

        Peaks are taken largest |p| first, and the scan stops at the first bound that rules the trial out.
        """
        upper = self.upper(j, s)
        top, slack, spread = 0.0, self._slack, abs(s)
        for p, powers, env, moduli in self._peaks:
            value = (abs(p + s * powers[j]) - slack * (env + spread * moduli[j])) * (1.0 - 2.0 ** -50)
            if _DENOM_FLOOR <= value < math.inf:
                if _ruled_out(upper / value, cur, best):
                    return None
                top = value if value > top else top
        return top


def _gamma(k: int) -> float:
    """k u / (1 - k u) with u = 2^-53 (Higham 2002, section 3.1)."""
    return k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)


def _ruled_out(upper: float, cur: float, best: float) -> bool:
    """Whether a trial whose ratio is at most upper can be neither accepted nor recorded.

    Acceptance needs a ratio above cur * (1 + 1e-12); recording needs one
    above best, or equal to it with lexicographically smaller coefficients.
    """
    return upper <= cur * (1.0 + 1e-12) and upper < best


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
    Raises DomainError when A or a boundary point is not finite, or when
    max|z|^max(degree, 1) on the boundary or (||A|| / 2)^max(degree, 1)
    exceeds 1e300.  ||A|| / 2 is at most the numerical radius of A, so for
    a family member that ceiling is never the stricter one on its ellipse.
    """
    _check_search_settings(degree, budget, seed)
    A = dense_small._as_square(A)
    pts = _points(boundary)
    reach = float(np.abs(pts).max())  # NaN if a point is NaN
    if not (np.isfinite(A).all() and math.isfinite(reach)):
        raise DomainError("A and the boundary points must be finite")
    ceiling = _POWER_CEILING ** (1.0 / max(degree, 1))
    if reach > ceiling:
        raise DomainError(f"boundary points reach |z| = {reach:.6g}: "
                          f"|z|^{max(degree, 1)} must not exceed 1e300 at degree {degree}")
    half_norm = dense_small.operator_norm(A) / 2.0
    if half_norm > ceiling:
        raise DomainError(f"||A|| / 2 = {half_norm:.6g}: "
                          f"(||A|| / 2)^{max(degree, 1)} must not exceed 1e300 at degree {degree}")

    best_c = np.zeros(degree + 1, dtype=complex)
    best_c[0] = 1.0
    num, denom = _evaluate(A, boundary, pts, best_c)[3:]
    best = num / denom
    evals = 1
    if degree == 0:
        return RatioResult(best, PolySpec.of(best_c), evals, seed)
    bound = _TrialBound(A, degree)

    def record(val: float, c: np.ndarray):
        nonlocal best, best_c
        if val > best or (val == best and [(x.real, x.imag) for x in c.tolist()]
                          < [(x.real, x.imag) for x in best_c.tolist()]):
            best, best_c = val, c.copy()

    rng = np.random.default_rng(seed)
    while evals < budget:
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        try:
            c /= _boundary_max(boundary, c, np.abs(_grid_states(pts, c)[0]))
        except DegenerateDenominatorError:
            continue
        mats, grid, index, num, denom = _evaluate(A, boundary, pts, c)
        cur = num / denom
        cs = c.tolist()
        bound.track(c, num, pts, index, grid[0])
        evals += 1
        record(cur, c)
        step = 0.5
        while step >= 1e-3 and evals < budget:
            improved = False
            for j in range(degree + 1):
                for delta in (step, -step, 1j * step, -1j * step):
                    if evals >= budget:
                        break
                    evals += 1
                    # num / top bounds the ratio, as the polish never lowers
                    # top, and so does any bound on num over any lower bound
                    # on top: first the bound on num, then num itself.  The
                    # trial's c_j is cs[j] + delta, the add of trial[j] += delta
                    s = (cs[j] + delta) - cs[j]
                    low = bound.low(j, s, cur, best)
                    if low is None:
                        continue
                    trial = c.copy()
                    trial[j] += delta
                    trial_mats = dense_small.horner_states(A, trial, j, mats)
                    num = dense_small.operator_norm(trial_mats[0])
                    if low > 0.0 and _ruled_out(num / low, cur, best):
                        continue
                    trial_grid = _grid_states(pts, trial, j, grid)
                    vals = np.abs(trial_grid[0])
                    top = float(vals.max())
                    if top >= _DENOM_FLOOR and _ruled_out(num / top, cur, best):
                        continue
                    index = _peaks(vals)
                    val = num / _boundary_max(boundary, trial, vals, index, top)
                    record(val, trial)
                    if val > cur * (1.0 + 1e-12):
                        c, cs, cur, mats, grid, improved = trial, trial.tolist(), val, trial_mats, trial_grid, True
                        bound.track(c, num, pts, index, grid[0])
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
