"""Worst polynomial ratio search: boundary oracle, evaluator, and optimizer."""
import math
import re
import warnings

import numpy as np
import pytest

from crouzeix_lab import dense_small, ratio_search
from crouzeix_lab.core_matrix import build_A, build_A_rho, mu_rho
from crouzeix_lab.errors import DegenerateDenominatorError, DomainError
from crouzeix_lab.ratio_search import (
    EllipseBoundary,
    PolySpec,
    RatioResult,
    _grid_states,
    _ruled_out,
    boundary_samples,
    coordinate_search,
    ratio_for_poly,
    worst_ratio_search,
)


class TestBoundarySamples:
    def test_points_on_ellipse(self):
        pts = boundary_samples(2.0, 64)
        a, b = 2.5 / 2, 1.5 / 2
        assert len(pts) == 64
        assert abs(pts[0] - a) < 1e-15
        assert abs(np.abs(pts).max() - a) < 1e-12
        resid = (pts.real / a) ** 2 + (pts.imag / b) ** 2 - 1
        assert np.abs(resid).max() < 1e-14

    def test_foci_inside_hull(self):
        pts = boundary_samples(2.0, 64)
        for focus in (1.0, -1.0):
            for th in np.linspace(0, 2 * math.pi, 90):
                hull = (pts.real * math.cos(th) + pts.imag * math.sin(th)).max()
                assert focus * math.cos(th) < hull - 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            boundary_samples(1.0, 64)
        with pytest.raises(DomainError, match="rho"):
            boundary_samples(math.inf, 64)
        with pytest.raises(DomainError, match="rho"):
            EllipseBoundary(math.inf)
        with pytest.raises(DomainError):
            boundary_samples(2.0, 4)


class TestSpecs:
    def test_polyspec_degree(self):
        p = PolySpec.of([1 + 2j, 0, 3])
        assert p.degree == 2
        assert PolySpec.from_json(p.to_json()) == p

    def test_polyspec_rejects_zero(self):
        with pytest.raises(DomainError):
            PolySpec.of([0, 0])

    def test_polyspec_rejects_degree_13(self):
        with pytest.raises(DomainError):
            PolySpec.of([1] * 14)

    def test_ratio_result_floor(self):
        p = PolySpec.of([1.0])
        with pytest.raises(DomainError):
            RatioResult(0.5, p, 3, 1)

    def test_ratio_result_roundtrip(self):
        res = worst_ratio_search(2.0, 1.0, 3, 40, 5)
        assert RatioResult.from_json(res.to_json()) == res


class TestRatioForPoly:
    def test_constant_is_one(self):
        A = build_A_rho(2.0, 1.0)
        assert ratio_for_poly(A, PolySpec.of([3.7]), EllipseBoundary(2.0)) == 1.0
        # p' = p'' = 0: the polish's Newton steps divide 0 by 0 and must not warn
        assert ratio_for_poly(A, PolySpec.of([3.7, 0, 0]), EllipseBoundary(2.0)) == 1.0

    def test_identity_on_normal_matrix(self):
        # p = z on diag(1,0,-1): ||p(A)|| = 1, boundary max = semi-major axis
        D = np.diag([1.0, 0.0, -1.0]).astype(complex)
        rho = 2.0
        got = ratio_for_poly(D, PolySpec.of([0, 1]), EllipseBoundary(rho))
        assert abs(got - 1.0 / ((rho + 1 / rho) / 2)) < 1e-12

    def test_identity_on_family_member(self):
        A = build_A(1.0, 1.0)
        geo = mu_rho(1.0, 1.0)
        got = ratio_for_poly(A, PolySpec.of([0, 1]), EllipseBoundary(geo.rho))
        want = dense_small.operator_norm(A) / (geo.major / 2)
        assert abs(got - want) < 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        A = build_A_rho(2.0, 1.0)
        bnd = EllipseBoundary(2.0)
        for _ in range(30):
            cs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            c = complex(rng.standard_normal(), rng.standard_normal()) * 10
            v1 = ratio_for_poly(A, PolySpec.of(cs), bnd)
            v2 = ratio_for_poly(A, PolySpec.of(cs * c), bnd)
            assert abs(v1 - v2) < 1e-12 * v1

    def test_plain_array_boundary(self):
        # handing raw points skips the polish and reduces to a grid max
        rng = np.random.default_rng(12)
        A = build_A_rho(2.0, 1.0)
        bnd = EllipseBoundary(2.0)
        cs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        raw = ratio_for_poly(A, PolySpec.of(cs), bnd.points)
        grid = dense_small.operator_norm(dense_small.eval_poly(A, cs)) / np.abs(
            np.polyval(cs[::-1], bnd.points)
        ).max()
        assert abs(raw - grid) < 1e-15

    def test_degenerate_denominator(self):
        A = build_A_rho(2.0, 1.0)
        with pytest.raises(DegenerateDenominatorError):
            ratio_for_poly(A, PolySpec.of([0, 0, 1e-320]), EllipseBoundary(2.0))


class TestBoundaryMaximum:
    def test_doubling_m_is_stable(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(15):
            deg = int(rng.integers(1, 13))
            cs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            rho = float(rng.uniform(1.05, 20.0))
            m1 = EllipseBoundary(rho, 2048).max_abs_poly(cs)
            m2 = EllipseBoundary(rho, 4096).max_abs_poly(cs)
            worst = max(worst, abs(m1 - m2) / m1)
        assert worst < 1e-8

    def test_polish_matches_brute_scan(self):
        rng = np.random.default_rng(14)
        for rho in (1.01, 1.05, 1.5, 3.0, 20.0, 1e3):
            brute_pts = boundary_samples(rho, 1000000)
            for m in (8, 64, 2048):
                eb = EllipseBoundary(rho, m)
                for _ in range(3):
                    deg = int(rng.integers(2, 13))
                    cs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
                    polished = eb.max_abs_poly(cs)
                    assert polished >= np.abs(np.polyval(cs[::-1], eb.points)).max()
                    brute = np.abs(np.polyval(cs[::-1], brute_pts)).max()
                    assert (brute - polished) / brute < 1e-14

    @staticmethod
    def _one_step_max(eb, cs):
        # reference: the golden section that takes one step per evaluation of p
        cs = np.asarray(cs, dtype=complex)[::-1]
        vals = np.abs(np.polyval(cs, eb.points))
        top = float(vals.max())
        if len(cs) <= 1:
            return top
        peaks = np.nonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)) & (vals >= 0.98 * top))[0]
        if peaks.size > 8:
            peaks = peaks[np.argsort(vals[peaks])[::-1][:8]]
        lo, hi = eb._h * peaks - eb._h, eb._h * peaks + eb._h
        k = peaks.size
        g = (math.sqrt(5.0) - 1.0) / 2.0
        for step in range(41):
            if step:
                move_up = f[:k] < f[k:]
                lo, hi = np.where(move_up, x1, lo), np.where(move_up, hi, x2)
            w = g * (hi - lo)
            x1, x2 = hi - w, lo + w
            f = np.abs(np.polyval(cs, eb._at(np.concatenate((x1, x2)))))
        return max(top, float(f.max() if k else top))

    def _check_against_golden_section(self, eb, cs):
        polished = eb.max_abs_poly(cs)
        assert polished >= np.abs(np.polyval(np.asarray(cs)[::-1], eb.points)).max()
        ref = self._one_step_max(eb, cs)
        assert abs(polished - ref) <= 1e-12 * ref

    def test_newton_matches_one_step_golden_section(self):
        # m = 8 brackets are a quarter turn wide: some start where log|p| is
        # convex or where the Newton step leaves the bracket
        rng = np.random.default_rng(17)
        for _ in range(60):
            deg = int(rng.integers(0, 13))
            cs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            for rho in (1.01, 1.05, 2.0, 20.0):
                for m in (8, 64, 2048):
                    self._check_against_golden_section(EllipseBoundary(rho, m), cs)

    def test_newton_reaches_rounding_on_an_8_point_grid(self):
        # the coarsest grid allowed, at log-uniform rho: one draw of these
        # 400 is still 7.5e-9 low after five steps
        rng = np.random.default_rng(5)
        for _ in range(400):
            deg = int(rng.integers(1, 13))
            cs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            self._check_against_golden_section(EllipseBoundary(float(10 ** rng.uniform(0.003, 2)), 8), cs)

    @pytest.mark.parametrize("d", range(8, 13))
    def test_newton_matches_one_step_on_chebyshev(self, d):
        # |T_d| has 2d nearly equal peaks on a thin ellipse, so more than 8
        # are near-maximal and the polish cap binds
        cheb = np.polynomial.chebyshev.cheb2poly([0] * d + [1])
        for m in (8, 64, 2048):
            eb = EllipseBoundary(1.05, m)
            if m == 2048:
                vals = np.abs(np.polyval(cheb[::-1], eb.points))
                near = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)) & (vals >= 0.98 * vals.max())
                assert np.count_nonzero(near) > 8
            self._check_against_golden_section(eb, cheb)

    def test_one_polish_makes_one_grid_pass_per_newton_step_and_one_more(self, monkeypatch):
        rng = np.random.default_rng(18)
        cs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        eb = EllipseBoundary(3.0)
        vals = np.abs(_grid_states(eb.points, cs)[0])
        calls = []
        grid_states = ratio_search._grid_states
        monkeypatch.setattr(ratio_search, "_grid_states", lambda pts, *args: calls.append(1) or grid_states(pts, *args))
        eb.max_abs_poly(cs, vals)
        assert len(calls) == ratio_search._NEWTON_STEPS + 1

    @pytest.mark.parametrize("scale", (1e-320, 1e250))
    def test_tiny_and_huge_coefficients_polish_without_warning(self, scale):
        rng = np.random.default_rng(19)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rho in (1.01, 3.0, 50.0):
                eb = EllipseBoundary(rho)
                for deg in range(1, 13):
                    unit = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
                    cs = unit * scale
                    polished = eb.max_abs_poly(cs)
                    assert polished >= np.abs(_grid_states(eb.points, cs)[0]).max() > 0.0
                    if scale > 1.0:
                        assert polished == pytest.approx(scale * eb.max_abs_poly(unit), rel=1e-13)


class TestSearch:
    def test_degree_zero(self):
        res = worst_ratio_search(2.0, 1.0, 0, 50, 123)
        assert res.best_ratio == 1.0
        assert res.evaluations == 1
        assert res.best_poly.degree == 0

    def test_finds_nontrivial_ratio(self):
        res = worst_ratio_search(2.0, 1.0, 6, 200, 7)
        assert 1.2 < res.best_ratio <= 2.0 + 1e-6
        assert res.seed == 7

    def test_deterministic(self):
        assert worst_ratio_search(2.0, 1.0, 6, 150, 7) == worst_ratio_search(2.0, 1.0, 6, 150, 7)

    def test_budget_prefix_monotone(self):
        # smaller budgets are prefixes of the same candidate stream
        seq = [worst_ratio_search(2.0, 1.0, 4, b, 3).best_ratio for b in (1, 10, 40, 90, 160)]
        assert all(b2 >= b1 for b1, b2 in zip(seq, seq[1:]))

    def test_evaluations_equal_budget(self):
        assert worst_ratio_search(2.0, 1.0, 4, 90, 3).evaluations == 90

    def test_normal_matrix_stays_at_one(self):
        D = np.diag([1.0, 0.0, -1.0]).astype(complex)
        res = coordinate_search(D, EllipseBoundary(2.0), 6, 300, 17)
        assert res.best_ratio <= 1.0 + 1e-9

    def test_best_poly_reproduces_ratio(self):
        res = worst_ratio_search(2.0, 1.0, 6, 150, 7)
        rr = ratio_for_poly(build_A_rho(2.0, 1.0), res.best_poly, EllipseBoundary(2.0))
        assert abs(rr - res.best_ratio) < 1e-12

    def test_bad_rho_raises(self):
        with pytest.raises(DomainError):
            worst_ratio_search(0.8, 1.0, 3, 10, 0)

    def test_negative_seed_raises(self):
        with pytest.raises(DomainError, match="seed -1"):
            worst_ratio_search(2.0, 1.0, 3, 10, -1)

    @pytest.mark.parametrize("degree", range(2, 13))
    def test_power_ceiling(self, degree):
        ceiling = 1e300 ** (1.0 / degree)
        # coordinate_search's own ceiling admits these: there max|z| < rho
        assert np.abs(EllipseBoundary(ceiling).points).max() < ceiling
        for rho in (0.999 * ceiling, ceiling):
            assert worst_ratio_search(rho, 0.9, degree, 20, 0).evaluations == 20
        with pytest.raises(DomainError, match=f"too large at degree {degree}"):
            worst_ratio_search(1.001 * ceiling, 0.9, degree, 20, 0)

    def test_power_ceiling_refuses_before_searching(self, monkeypatch):
        # these crashed inside the search: a degenerate denominator, an SVD that did not converge
        monkeypatch.setattr(ratio_search, "coordinate_search", None)
        for rho, r in ((1e26, 0.9), (1e100, 0.5)):
            with pytest.raises(DomainError, match=re.escape(f"rho = {rho:g} too large at degree 12")):
                worst_ratio_search(rho, r, 12, 40, 0)

    def test_coordinate_search_refuses_points_beyond_the_power_ceiling(self, monkeypatch):
        # max|z| = (rho + 1/rho) / 2 on the ellipse: 9.95e24 runs at degree 12, 5e25 and 5e99 do not
        A = build_A_rho(1.99e25, 0.9)
        assert coordinate_search(A, EllipseBoundary(1.99e25), 12, 40, 0).evaluations == 40
        monkeypatch.setattr(dense_small, "horner_states", None)
        for rho in (1e26, 1e100):
            with pytest.raises(DomainError, match=re.escape(f"|z| = {rho / 2:.6g}: |z|^12 must not exceed 1e300")):
                coordinate_search(build_A_rho(rho, 0.9), EllipseBoundary(rho), 12, 40, 0)

    @pytest.mark.parametrize("degree", (0, 1))
    def test_below_degree_two_the_family_bound_binds_first(self, degree):
        # rho^1 <= 1e300 never binds: build_A_rho refuses rho above about 1.3e154
        assert worst_ratio_search(1e154, 0.9, degree, 5, 0).evaluations == (1 if degree == 0 else 5)
        with pytest.raises(DomainError, match="overflows q"):
            worst_ratio_search(1e155, 0.9, degree, 5, 0)
        with pytest.raises(DomainError, match="seed -5"):
            coordinate_search(build_A_rho(2.0, 1.0), boundary_samples(2.0, 64), 3, 10, -5)


def _lex_key(c):
    return [(x.real, x.imag) for x in c]


def _search_polishing_every_trial(A, max_abs, degree, budget, seed):
    """Reference: the coordinate search that polishes the boundary maximum of every trial."""

    def ratio_of(c):
        return dense_small.operator_norm(dense_small.eval_poly(A, c)) / max_abs(c)

    best_c = np.zeros(degree + 1, dtype=complex)
    best_c[0] = 1.0
    best = ratio_of(best_c)
    evals = 1
    if degree == 0:
        return RatioResult(best, PolySpec.of(best_c), evals, seed)

    def record(val, c):
        nonlocal best, best_c
        if val > best or (val == best and _lex_key(c) < _lex_key(best_c)):
            best, best_c = val, c.copy()

    rng = np.random.default_rng(seed)
    while evals < budget:
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        scale = max_abs(c)
        if scale < 1e-300:
            continue
        c /= scale
        cur = ratio_of(c)
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
                    val = ratio_of(trial)
                    evals += 1
                    record(val, trial)
                    if val > cur * (1.0 + 1e-12):
                        c, cur, improved = trial, val, True
                if evals >= budget:
                    break
            if not improved:
                step *= 0.5
    return RatioResult(best, PolySpec.of(best_c), evals, seed)


def _criterion_6_point(k):
    rng = np.random.default_rng(303)
    for _ in range(k + 1):
        rho = float(rng.uniform(1.05, 50.0))
        r = float(rng.uniform(1.0 / math.sqrt(rho) + 1e-6, 1.0))
    return rho, r


PINNED_2_1_6_150_7 = {
    "best_ratio": 1.644179246501464,
    "best_poly": {"degree": 6, "coeffs": [
        [1.250186717778058, 0.20342342785732437],
        [1.045344836583997, -0.3247091465714542],
        [-2.041609780539516, 0.4058217465892374],
        [-0.635177722580526, -0.42564974224263297],
        [-0.06901181729800687, 0.054169790112800494],
        [-0.15051622648630655, 0.016000211866926937],
        [0.009128845418406925, -0.14123029848681376],
    ]},
    "evaluations": 150,
    "seed": 7,
}


class TestPolishSkip:
    """Skipping the polish for trials the grid bound rules out changes no result."""

    @pytest.mark.parametrize("rho, r, degree, budget, seed", [
        (*_criterion_6_point(0), 8, 500, 0),
        (2.0, 1.0, 6, 150, 7),
        (2.0, 1.0, 4, 90, 3),
        (7.3, 0.8, 12, 250, 11),
        (1.2, 0.95, 2, 120, 5),
        # the numerator bound never fires, has its largest envelope, sits at the power ceiling
        (1.05, 0.99, 12, 300, 1),
        (50.0, 0.99, 12, 300, 1),
        (1e25, 0.9, 12, 60, 0),
    ])
    def test_family_matches_polishing_every_trial(self, rho, r, degree, budget, seed):
        A = build_A_rho(rho, r)
        bnd = EllipseBoundary(rho)
        expect = _search_polishing_every_trial(A, bnd.max_abs_poly, degree, budget, seed)
        assert coordinate_search(A, bnd, degree, budget, seed) == expect

    def test_normal_matrix_matches_polishing_every_trial(self):
        D = np.diag([1.0, 0.0, -1.0]).astype(complex)
        bnd = EllipseBoundary(2.0)
        expect = _search_polishing_every_trial(D, bnd.max_abs_poly, 8, 500, 0)
        assert coordinate_search(D, bnd, 8, 500, 0) == expect

    def test_point_array_matches_grid_maximum_search(self):
        A = build_A_rho(3.0, 0.8)
        pts = boundary_samples(3.0, 512)

        def grid_max(c):
            return np.abs(np.polyval(np.asarray(c)[::-1], pts)).max()

        # degree 8 and budget 500 run the 32-point subset bound on points too
        for degree, budget in ((5, 200), (8, 500)):
            expect = _search_polishing_every_trial(A, grid_max, degree, budget, 9)
            assert coordinate_search(A, pts, degree, budget, 9) == expect

    def test_one_point_array_matches_grid_maximum_search(self):
        A = build_A_rho(3.0, 0.8)
        pts = boundary_samples(3.0, 512)[:1]

        def grid_max(c):
            return np.abs(np.polyval(np.asarray(c)[::-1], pts)).max()

        expect = _search_polishing_every_trial(A, grid_max, 5, 200, 9)
        assert coordinate_search(A, pts, 5, 200, 9) == expect

    def test_most_trials_skip_the_polish(self, monkeypatch):
        calls = []
        polish = EllipseBoundary.max_abs_poly
        monkeypatch.setattr(EllipseBoundary, "max_abs_poly",
                            lambda self, *args: calls.append(1) or polish(self, *args))
        res = worst_ratio_search(*_criterion_6_point(0), 8, 500, 0)
        assert res.evaluations == 500
        assert len(calls) < 250

    def test_polish_reads_the_search_grid_states(self, monkeypatch):
        # every evaluation of p on the 2048-point grid is one of the search's
        # own Horner passes: a polish takes |p| there from them
        polishes, in_polish, full = [], [False], {True: 0, False: 0}
        grid_states, polyval, polish = ratio_search._grid_states, np.polyval, EllipseBoundary.max_abs_poly

        def count(pts):
            if np.size(pts) == 2048:
                full[in_polish[0]] += 1

        def counted_polish(self, *args):
            polishes.append(1)
            in_polish[0] = True
            try:
                return polish(self, *args)
            finally:
                in_polish[0] = False

        monkeypatch.setattr(ratio_search, "_grid_states", lambda pts, *args: count(pts) or grid_states(pts, *args))
        monkeypatch.setattr(np, "polyval", lambda p, x: count(x) or polyval(p, x))
        monkeypatch.setattr(EllipseBoundary, "max_abs_poly", counted_polish)
        assert worst_ratio_search(7.3, 0.8, 8, 500, 2).evaluations == 500
        assert len(polishes) > 10 and full[False] > 0
        assert full[True] == 0

    def test_grid_maximum_never_exceeds_polished_maximum(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            rho = float(rng.uniform(1.01, 50.0))
            deg = int(rng.integers(0, 13))
            cs = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) * 10.0 ** rng.uniform(-3, 3)
            eb = EllipseBoundary(rho, int(rng.choice([8, 64, 2048])))
            vals = np.abs(_grid_states(eb.points, cs)[0])
            top = vals.max()
            assert top == np.abs(np.polyval(cs[::-1], eb.points)).max()
            assert top <= eb.max_abs_poly(cs) == eb.max_abs_poly(cs, vals)

    def test_most_trials_stop_at_the_subset_bound(self, monkeypatch):
        full = []
        grid_states = ratio_search._grid_states
        monkeypatch.setattr(ratio_search, "_grid_states",
                            lambda pts, *args: (pts.size == 2048 and full.append(1)) or grid_states(pts, *args))
        res = worst_ratio_search(*_criterion_6_point(0), 8, 500, 0)
        assert res.evaluations == 500
        assert len(full) < 0.25 * 500

    def test_most_trials_skip_the_matrix_work(self, monkeypatch):
        # one chain for the powers of A, one per start and one per trial the numerator bound lets through
        calls = []
        horner_states = dense_small.horner_states
        monkeypatch.setattr(dense_small, "horner_states", lambda *args: calls.append(1) or horner_states(*args))
        assert worst_ratio_search(*_criterion_6_point(0), 8, 500, 0).evaluations == 500
        assert len(calls) < 200

    def test_point_array_trials_stop_at_the_subset_bound(self, monkeypatch):
        full = []
        grid_states = ratio_search._grid_states
        monkeypatch.setattr(ratio_search, "_grid_states",
                            lambda pts, *args: (pts.size == 512 and full.append(1)) or grid_states(pts, *args))
        res = coordinate_search(build_A_rho(3.0, 0.8), boundary_samples(3.0, 512), 8, 500, 9)
        assert res.evaluations == 500
        assert len(full) < 0.25 * 500

    def test_pinned_search_result(self):
        # exact floats from the search that polished every trial
        assert worst_ratio_search(2.0, 1.0, 6, 150, 7).to_json() == PINNED_2_1_6_150_7


def _perm_matrix(rng, n):
    """aI + DP for a random diagonal D, permutation P and shift a."""
    P = np.eye(n)[rng.permutation(n)]
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * np.eye(n) + np.diag(d) @ P


class TestNumeratorBound:
    """The O(1) numerator bound is at least the computed ||p(A)|| of every trial, and never raises or warns."""

    @staticmethod
    def _check(A, c):
        degree = len(c) - 1
        bound = ratio_search._NumeratorBound(A, degree)
        bound.track(c, dense_small.operator_norm(dense_small.horner_states(A, c)[0]))
        for j in range(degree + 1):
            # the search's steps, and steps so small that rounding outweighs them
            for step in (0.5, 2.0 ** -10, 2.0 ** -30, 2.0 ** -50):
                for delta in (step, -step, 1j * step, -1j * step):
                    trial = c.copy()
                    trial[j] += delta
                    num = dense_small.operator_norm(dense_small.horner_states(A, trial)[0])
                    assert bound(j, trial[j] - c[j]) >= num

    @pytest.mark.parametrize("rho", (1.05, 2.0, 50.0, "ceiling"))
    def test_family(self, rho):
        rng = np.random.default_rng(90)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for degree in range(1, 13):
                at = 0.999 * 1e300 ** (1.0 / max(degree, 2)) if rho == "ceiling" else rho
                A = build_A_rho(at, float(rng.uniform(1.0 / math.sqrt(at) + 1e-6, 1.0)))
                boundary = EllipseBoundary(at)
                for scale in (1e-3, 1.0, 1e3):
                    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
                    c *= scale / boundary.max_abs_poly(c)
                    self._check(A, c)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_perm_matrices(self, n):
        rng = np.random.default_rng(100 + n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for degree in range(1, 13):
                for scale in (1e-3, 1.0, 1e3):
                    c = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * scale
                    self._check(_perm_matrix(rng, n), c)

    def test_bound_is_the_triangle_inequality(self):
        # p = z^3 has p(A) = A^3 = A, and adding z doubles it: the bound is 2 ||A|| up to its rounding covers
        A = build_A_rho(3.0, 0.8)
        bound = ratio_search._NumeratorBound(A, 4)
        c = np.zeros(5, dtype=complex)
        c[3] = 1.0
        bound.track(c, dense_small.operator_norm(A))
        assert bound(1, 1.0) == pytest.approx(2 * dense_small.operator_norm(A), rel=1e-11)

    def test_overflow_makes_the_bound_infinite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = ratio_search._NumeratorBound(1e200 * np.eye(3, dtype=complex), 3)
            bound.track(np.ones(4, dtype=complex), 1.0)
            assert bound(0, 0.5) == math.inf
            bound = ratio_search._NumeratorBound(np.eye(3, dtype=complex), 3)
            bound.track(np.ones(4, dtype=complex), math.inf)
            assert bound(2, 0.5) == math.inf


class TestSkipRule:
    """_ruled_out(upper, cur, best): a trial with ratio <= upper changes nothing."""

    def test_below_both_is_ruled_out(self):
        assert _ruled_out(1.2, 1.3, 1.5)
        assert _ruled_out(1.3, 1.3, 1.5)

    def test_acceptance_threshold_is_inclusive(self):
        # acceptance needs a ratio strictly above cur * (1 + 1e-12)
        cur = 1.3
        edge = cur * (1.0 + 1e-12)
        assert _ruled_out(edge, cur, 1.5)
        assert not _ruled_out(math.nextafter(edge, math.inf), cur, 1.5)

    def test_a_tie_with_best_is_kept(self):
        # a ratio equal to best may still be recorded by the lexicographic tie-break
        assert not _ruled_out(1.5, 1.5, 1.5)
        assert not _ruled_out(1.5, 1.3, 1.5)
        assert _ruled_out(math.nextafter(1.5, 0.0), 1.5, 1.5)

    def test_above_best_is_kept(self):
        cur = best = 1.5
        upper = math.nextafter(best, math.inf)
        assert upper <= cur * (1.0 + 1e-12)
        assert not _ruled_out(upper, cur, best)


class TestResumedHorner:
    """Resuming at c[j] from the current states matches a full pass and np.polyval bit for bit."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_trials_match_full_evaluation(self, n):
        rng = np.random.default_rng(60 + n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ring = boundary_samples(1.0 + n, 2048) * (1.0 + 0.1 * rng.standard_normal(2048))
        for m in (1, 2, 7, 2048):
            pts = ring[rng.permutation(2048)[:m]]
            c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            mats, grid = dense_small.horner_states(A, c), _grid_states(pts, c)
            for j in range(9):
                for delta in (0.5, -0.5, 0.5j, -0.5j):
                    trial = c.copy()
                    trial[j] += delta
                    trial_mats = dense_small.horner_states(A, trial, j, mats)
                    trial_grid = _grid_states(pts, trial, j, grid)
                    assert np.array_equal(trial_mats[0], dense_small.eval_poly(A, trial))
                    assert np.array_equal(np.abs(trial_grid[0]), np.abs(np.polyval(trial[::-1], pts)))
                    # accept the trial, as the search does, so later trials resume from it
                    c, mats, grid = trial, trial_mats, trial_grid

    @pytest.mark.parametrize("m", (8, 64, 2048))
    def test_subset_resume_matches_full_grid(self, m):
        # the search bounds a trial on the 32 points where the current |p| is
        # largest, resuming Horner there from the current states
        rng = np.random.default_rng(70 + m)
        pts = EllipseBoundary(1.5 + m / 100, m).points
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        grid = _grid_states(pts, c)
        for j in range(9):
            for delta in (0.5, -0.5, 0.5j, -0.5j):
                sub_pts, sub_grid = ratio_search._subset(pts, grid)
                S = np.nonzero(sub_pts[:, None] == pts[None, :])[1]
                assert S.size == min(m, 32)
                assert np.abs(grid[0][S]).min() == np.sort(np.abs(grid[0]))[-S.size]
                trial = c.copy()
                trial[j] += delta
                sub = _grid_states(sub_pts, trial, j, sub_grid)
                full = _grid_states(pts, trial, j, grid)
                for k in range(10):
                    assert np.array_equal(sub[k], full[k][S])
                c, grid = trial, full
