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

    @pytest.mark.parametrize("bad", (math.nan, math.inf, complex(0.0, -math.inf)))
    def test_polyspec_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(DomainError, match="finite"):
            PolySpec.of([1, bad])

    def test_polyspec_rejects_a_degree_its_coefficients_disagree_with(self):
        with pytest.raises(DomainError, match="coeffs length must be degree \\+ 1"):
            PolySpec(2, (1, 1))

    def test_search_rejects_an_empty_point_array(self):
        with pytest.raises(DomainError, match="boundary sample set is empty"):
            coordinate_search(build_A(0.5, 0.8), np.array([], dtype=complex), 3, 10, 0)

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

    @pytest.mark.parametrize("coeffs", ([1, math.nan], [1, math.inf], [1e308, 1e308]))
    def test_non_finite_polynomial_raises_domain_error(self, coeffs):
        # nan and inf escaped as LinAlgError from the SVD; an overflowing p gave nan and warned
        A = build_A_rho(2.0, 1.0)
        for boundary in (EllipseBoundary(2.0), boundary_samples(2.0, 64)):
            with pytest.raises(DomainError, match="finite"):
                ratio_for_poly(A, PolySpec.of(coeffs), boundary)

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

    def test_one_polish_makes_one_grid_pass_given_vals_and_two_without(self, monkeypatch):
        # the Newton steps run per peak in floats: the only grid pass is |p| where they end
        rng = np.random.default_rng(18)
        cs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        eb = EllipseBoundary(3.0)
        vals = np.abs(_grid_states(eb.points, cs)[0])
        calls = []
        grid_states = ratio_search._grid_states
        monkeypatch.setattr(ratio_search, "_grid_states", lambda pts, *args: calls.append(1) or grid_states(pts, *args))
        eb.max_abs_poly(cs, vals)
        assert len(calls) == 1
        eb.max_abs_poly(cs)
        assert len(calls) == 3

    @pytest.mark.parametrize("case", ("root of p", "constant p", "overflowed p'"))
    def test_degenerate_newton_step_bisects_without_raising(self, monkeypatch, case):
        # at a zero of p the slope is NaN, a constant p has curvature 0, and
        # p' overflowing where p does not makes the curvature NaN: the array
        # rule bisected toward t0 - h at each, where floats could divide by 0
        eb = EllipseBoundary(2.0)
        if case == "root of p":
            t0 = 0.7
            c = [-complex(eb._a * math.cos(t0), eb._b * math.sin(t0)), 1 + 0j]
        elif case == "constant p":
            t0, c = 0.7, [1 + 0j, 0j, 0j]
        else:
            t0, c = math.pi / 2, [0j, 0j, 1.7e308 + 0j]
        h = eb._h
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert t0 - h <= eb._polish_peak(c, t0) <= t0 + h
            monkeypatch.setattr(ratio_search, "_NEWTON_STEPS", 1)
            assert eb._polish_peak(c, t0) == 0.5 * ((t0 - h) + t0)

    @staticmethod
    def _polish_every_step(eb, c, t):
        """Reference: _polish_peak without its fixed-point exit, and the last step that moved t."""
        lo, hi = t - eb._h, t + eb._h
        moved = 0
        for step in range(ratio_search._NEWTON_STEPS):
            was = t
            cos, sin = math.cos(t), math.sin(t)
            z = complex(eb._a * cos, eb._b * sin)
            p = d1 = d2 = 0j
            for ck in reversed(c):
                d2, d1, p = d2 * z + d1, d1 * z + p, p * z + ck
            slope = curv = math.nan
            if p != 0:
                w1, w2 = d1 / p, 2.0 * d2 / p
                dz = complex(-eb._a * sin, eb._b * cos)
                slope = (w1 * dz).real
                curv = ((w2 - w1 * w1) * dz * dz - w1 * z).real
            lo, hi = (t, hi) if slope > 0.0 else (lo, t)
            new = t - slope / curv if curv < 0.0 else math.nan
            t = new if lo <= new <= hi else 0.5 * (lo + hi)
            if t.hex() != was.hex():
                moved = step + 1
        return t, moved

    def test_fixed_point_exit_matches_every_step(self, monkeypatch):
        # the corpus of test_polish_matches_brute_scan and of the degenerate steps;
        # float.hex tells -0.0 from 0.0
        calls = []
        polish = EllipseBoundary._polish_peak
        monkeypatch.setattr(EllipseBoundary, "_polish_peak",
                            lambda self, c, t: calls.append((self, c, t)) or polish(self, c, t))
        rng = np.random.default_rng(14)
        for rho in (1.01, 1.05, 1.5, 3.0, 20.0, 1e3):
            for m in (8, 64, 2048):
                eb = EllipseBoundary(rho, m)
                for _ in range(3):
                    deg = int(rng.integers(2, 13))
                    eb.max_abs_poly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        eb = EllipseBoundary(2.0)
        root = complex(eb._a * math.cos(0.7), eb._b * math.sin(0.7))
        calls += [(eb, [-root, 1 + 0j], 0.7), (eb, [1 + 0j, 0j, 0j], 0.7), (eb, [0j, 0j, 1.7e308 + 0j], math.pi / 2)]
        early = 0
        for eb, c, t in calls:
            expect, moved = self._polish_every_step(eb, c, t)
            assert polish(eb, c, t).hex() == expect.hex()
            early += moved < ratio_search._NEWTON_STEPS - 1
        # most peaks reach their fixed point before the last step
        assert len(calls) == 58 and early > len(calls) / 2

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
                    if scale > 1.0:
                        assert polished >= np.abs(_grid_states(eb.points, cs)[0]).max() > 0.0
                        assert polished == pytest.approx(scale * eb.max_abs_poly(unit), rel=1e-13)
                    else:
                        # a grid pass in subnormal arithmetic overstates |p| by up to 1.4e-4
                        # relative; the same polynomial times 2^1000 is evaluated in full precision
                        lifted = cs * 2.0 ** 1000
                        assert polished >= 2.0 ** -1000 * np.abs(_grid_states(eb.points, lifted)[0]).max() > 0.0
                        assert polished == pytest.approx(2.0 ** -1000 * eb.max_abs_poly(lifted), rel=1e-15)


class TestPeakFloor:
    """Polishing only the peaks at or above the floor gives, bit for bit, what
    polishing every peak within _REFINE_SLACK of the top gives."""

    @staticmethod
    def _check(eb, cs) -> tuple:
        """(near-maximal peaks, peaks dropped) of one polish, checked against the reference."""
        cs = np.asarray(cs, dtype=complex)
        vals = np.abs(_grid_states(eb.points, cs)[0])
        index = ratio_search._peaks(vals)
        top = float(vals.max())
        if not cs[1:].any():
            return 0, 0
        polished = []
        eb._polish_peak = lambda c, t: polished.append(t) or EllipseBoundary._polish_peak(eb, c, t)
        got = eb.max_abs_poly(cs, vals, index)
        del eb._polish_peak
        # the reference: every peak within _REFINE_SLACK of the top, each one's |p| where its steps end
        scale = max(map(abs, cs.tolist()))
        unit = [c / scale for c in cs.tolist()]
        near = index[vals[index] >= ratio_search._REFINE_SLACK * top].tolist()
        ends = {k: float(np.abs(_grid_states(eb._at(np.array([EllipseBoundary._polish_peak(eb, unit, eb._h * k)])),
                                             cs)[0])[0]) for k in near}
        assert got == max(top, *ends.values())
        dropped = [k for k in near if eb._h * k not in polished]
        assert len(polished) + len(dropped) == len(near)
        for k in dropped:
            assert ends[k] <= top, (k, ends[k], top)
        return len(near), len(dropped)

    def test_chebyshev(self):
        # the 2d peaks of |T_d| on the ellipse are equal, so on a grid every
        # one is within a factor 1 - eps of the top and none may be dropped
        for d in range(1, 13):
            cheb = np.polynomial.chebyshev.cheb2poly([0] * d + [1])
            for rho in (1.01, 1.05, 1.2):
                for m in (8, 64, 2048):
                    assert self._check(EllipseBoundary(rho, m), cheb)[1] == 0

    def test_criterion_6_best_polynomials(self):
        # these have about five near-equal peaks; on the 2048-point grid most cannot end above the top
        near = dropped = 0
        for k in range(20):
            rho, r = _criterion_6_point(k)
            cs = worst_ratio_search(rho, r, 8, 500, k).best_poly.coeffs
            for m in (8, 64, 2048):
                n, d = self._check(EllipseBoundary(rho, m), cs)
                if m == 2048:
                    near, dropped = near + n, dropped + d
        assert dropped > near / 2

    def test_random_polynomials(self):
        rng = np.random.default_rng(29)
        for _ in range(150):
            deg = int(rng.integers(0, 13))
            cs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            rho = float(10 ** rng.uniform(0.003, 2))
            for m in (8, 64, 2048):
                self._check(EllipseBoundary(rho, m), cs)


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

    def test_coordinate_search_refuses_a_beyond_the_power_ceiling(self, monkeypatch):
        # (||A|| / 2)^3 is 5.8e299 at scale 1e100 and 5.8e599 at 1e200, where a
        # trial's p(A) would overflow into an SVD that does not converge
        A = build_A_rho(2.0, 0.9)
        assert coordinate_search(1e100 * A, EllipseBoundary(2.0), 3, 30, 0).evaluations == 30
        monkeypatch.setattr(dense_small, "horner_states", None)
        half_norm = 1e200 * dense_small.operator_norm(A) / 2.0
        with pytest.raises(DomainError, match=re.escape(f"||A|| / 2 = {half_norm:.6g}: (||A|| / 2)^3 must not")):
            coordinate_search(1e200 * A, EllipseBoundary(2.0), 3, 30, 0)

    @pytest.mark.parametrize("degree", (0, 3))
    @pytest.mark.parametrize("case", ("nan point", "nan * 1j point", "all-nan A", "inf entry"))
    def test_coordinate_search_rejects_non_finite_input(self, monkeypatch, case, degree):
        # these gave best_ratio 1.0 or nan at degree 0, and an SVD that did not converge at degree 3
        A, pts = build_A_rho(3.0, 0.8), boundary_samples(3.0, 64)
        if case == "nan point":
            pts[5] = math.nan
        elif case == "nan * 1j point":
            pts[5] = math.nan * 1j
        elif case == "all-nan A":
            A = np.full((3, 3), math.nan)
        else:
            A[0, 2] = math.inf
        monkeypatch.setattr(dense_small, "horner_states", None)
        with pytest.raises(DomainError, match="A and the boundary points must be finite"):
            coordinate_search(A, pts, degree, 20, 0)

    def test_a_degenerate_random_start_is_redrawn(self, monkeypatch):
        # call 1 scores the constant start, call 2 normalizes the first random start
        calls, boundary_max = [], ratio_search._boundary_max

        def degenerate_once(*args):
            calls.append(1)
            if len(calls) == 2:
                raise DegenerateDenominatorError("first random start")
            return boundary_max(*args)

        monkeypatch.setattr(ratio_search, "_boundary_max", degenerate_once)
        A, boundary = build_A_rho(3.0, 0.8), EllipseBoundary(3.0)
        res = coordinate_search(A, boundary, 4, 50, 0)
        assert len(calls) > 2 and res.evaluations == 50
        assert 1.0 < res.best_ratio <= 2.0
        assert abs(ratio_for_poly(A, res.best_poly, boundary) - res.best_ratio) < 1e-12

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

        # degree 8 and budget 500 run the peak bound on points too
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
        # every polish, the search's and each start's normalization, runs max_abs_poly
        calls = []
        polish = EllipseBoundary.max_abs_poly
        monkeypatch.setattr(EllipseBoundary, "max_abs_poly",
                            lambda self, *args: calls.append(1) or polish(self, *args))
        res = worst_ratio_search(*_criterion_6_point(0), 8, 500, 0)
        assert res.evaluations == 500
        assert len(calls) < 250

    def test_constant_start_is_not_polished(self, monkeypatch):
        # |p| is the same everywhere, so the grid maximum is the maximum
        calls = []
        polish = EllipseBoundary._polish_peak
        monkeypatch.setattr(EllipseBoundary, "_polish_peak",
                            lambda self, *args: calls.append(1) or polish(self, *args))
        res = coordinate_search(build_A_rho(7.3, 0.8), EllipseBoundary(7.3), 8, 1, 0)
        assert (res.best_ratio, res.evaluations, res.best_poly.coeffs[1:]) == (1.0, 1, (0j,) * 8)
        assert EllipseBoundary(3.0).max_abs_poly([2.5, 0.0, 0.0]) == 2.5
        assert calls == []

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

    def test_most_trials_stop_at_the_peak_bound(self, monkeypatch):
        # grid passes run on the 2048 points or on a polish's at most 8
        sizes = []
        grid_states = ratio_search._grid_states
        monkeypatch.setattr(ratio_search, "_grid_states", lambda pts, *args: sizes.append(pts.size) or grid_states(pts, *args))
        res = worst_ratio_search(*_criterion_6_point(0), 8, 500, 0)
        assert res.evaluations == 500
        assert all(size == 2048 or size <= 8 for size in sizes)
        assert sizes.count(2048) < 0.1 * 500

    def test_one_peak_scan_per_grid_pass(self, monkeypatch):
        # the polish and the peak bound share one scan of each grid for its peaks
        scans, passes = [], []
        peaks, grid_states = ratio_search._peaks, ratio_search._grid_states
        monkeypatch.setattr(ratio_search, "_peaks", lambda vals: scans.append(vals.size) or peaks(vals))
        monkeypatch.setattr(ratio_search, "_grid_states",
                            lambda pts, *args: passes.append(pts.size == 2048) or grid_states(pts, *args))
        assert worst_ratio_search(*_criterion_6_point(0), 8, 500, 0).evaluations == 500
        assert set(scans) == {2048}
        assert len(scans) <= sum(passes)

    def test_most_trials_skip_the_matrix_work(self, monkeypatch):
        # one chain for the powers of A, one per start and one per trial the numerator bound lets through
        calls = []
        horner_states = dense_small.horner_states
        monkeypatch.setattr(dense_small, "horner_states", lambda *args: calls.append(1) or horner_states(*args))
        assert worst_ratio_search(*_criterion_6_point(0), 8, 500, 0).evaluations == 500
        assert len(calls) <= 100

    def test_point_array_trials_stop_at_the_peak_bound(self, monkeypatch):
        sizes = []
        grid_states = ratio_search._grid_states
        monkeypatch.setattr(ratio_search, "_grid_states", lambda pts, *args: sizes.append(pts.size) or grid_states(pts, *args))
        res = coordinate_search(build_A_rho(3.0, 0.8), boundary_samples(3.0, 512), 8, 500, 9)
        assert res.evaluations == 500
        assert set(sizes) == {512}
        assert len(sizes) < 0.1 * 500

    def test_pinned_search_result(self):
        # exact floats from the search that polished every trial
        assert worst_ratio_search(2.0, 1.0, 6, 150, 7).to_json() == PINNED_2_1_6_150_7


def _perm_matrix(rng, n):
    """aI + DP for a random diagonal D, permutation P and shift a."""
    P = np.eye(n)[rng.permutation(n)]
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * np.eye(n) + np.diag(d) @ P


# no sample points, for a _TrialBound whose numerator bound alone is tested
_NO_PEAKS = (np.zeros(0, dtype=complex), np.zeros(0, dtype=int), np.zeros(0, dtype=complex))


class TestNumeratorBound:
    """The O(1) numerator bound is at least the computed ||p(A)|| of every trial, and never raises or warns."""

    @staticmethod
    def _check(A, c):
        degree = len(c) - 1
        bound = ratio_search._TrialBound(A, degree)
        bound.track(c, dense_small.operator_norm(dense_small.horner_states(A, c)[0]), *_NO_PEAKS)
        for j in range(degree + 1):
            # the search's steps, and steps so small that rounding outweighs them
            for step in (0.5, 2.0 ** -10, 2.0 ** -30, 2.0 ** -50):
                for delta in (step, -step, 1j * step, -1j * step):
                    trial = c.copy()
                    trial[j] += delta
                    num = dense_small.operator_norm(dense_small.horner_states(A, trial)[0])
                    assert bound.upper(j, trial[j] - c[j]) >= num

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
        bound = ratio_search._TrialBound(A, 4)
        c = np.zeros(5, dtype=complex)
        c[3] = 1.0
        bound.track(c, dense_small.operator_norm(A), *_NO_PEAKS)
        assert bound.upper(1, 1.0) == pytest.approx(2 * dense_small.operator_norm(A), rel=1e-11)

    def test_overflow_makes_the_bound_infinite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = ratio_search._TrialBound(1e200 * np.eye(3, dtype=complex), 3)
            bound.track(np.ones(4, dtype=complex), 1.0, *_NO_PEAKS)
            assert bound.upper(0, 0.5) == math.inf
            bound = ratio_search._TrialBound(np.eye(3, dtype=complex), 3)
            bound.track(np.ones(4, dtype=complex), math.inf, *_NO_PEAKS)
            assert bound.upper(2, 0.5) == math.inf


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
            mats = dense_small.horner_states(A, c)
            grid = _grid_states(pts, c)
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


# the sample sets of TestPeakBound: EllipseBoundary grids and point arrays
_PEAK_BOUND_SETS = {
    "m=8": EllipseBoundary(1.05, 8).points,
    "m=64": EllipseBoundary(3.0, 64).points,
    "m=2048": EllipseBoundary(20.0, 2048).points,
    "1 point": boundary_samples(3.0, 512)[:1],
    "2 points": boundary_samples(2.0, 512)[[0, 200]],
    "7 points": boundary_samples(3.0, 14)[::2],
}


class TestPeakBound:
    """Each peak's lower bound is at most the computed |p_trial| there, so at most the grid maximum.

    With cur = best = 0 no trial is ruled out, so low returns the largest usable bound;
    with cur = best = inf the first usable bound rules any trial out.
    """

    @staticmethod
    def _tracked(pts, c, p):
        """A _TrialBound at every peak of |p| and one at each peak alone, largest first, with numerator 1."""
        index = ratio_search._peaks(np.abs(p))
        bounds = []
        for part in [index] + [index[i:i + 1] for i in range(index.size)]:
            bounds.append(ratio_search._TrialBound(np.eye(1, dtype=complex), len(c) - 1))
            bounds[-1].track(c, 1.0, pts, part, p)
        return index, bounds[0], bounds[1:]

    @staticmethod
    def _check(pts, c, moves):
        degree = len(c) - 1
        grid = _grid_states(pts, c)
        index, peaks, singles = TestPeakBound._tracked(pts, c, grid[0])
        assert 0 < index.size <= 8
        cs = c.tolist()
        for j in range(degree + 1):
            # the search's steps, and steps so small that rounding outweighs them
            for step in (0.5, 2.0 ** -10, 2.0 ** -30, 2.0 ** -50):
                for delta in (step, -step, 1j * step, -1j * step):
                    trial = c.copy()
                    trial[j] += delta
                    # the search forms the trial's c_j in Python: the same IEEE add
                    assert cs[j] + delta == trial[j]
                    s = (cs[j] + delta) - cs[j]
                    moves.add("absorbed" if s == 0 else "exact" if s == delta else "rounded")
                    vals = np.abs(_grid_states(pts, trial, j, grid)[0])
                    lows = [single.low(j, s, 0.0, 0.0) for single in singles]
                    for low, at in zip(lows, vals[index].tolist()):
                        assert low <= at
                        # and the bound is tight: it moves |p| by rounding only
                        assert low >= at * (1.0 - 1e-9)
                    top = peaks.low(j, s, 0.0, 0.0)
                    assert top == max(lows) <= vals.max()

    @pytest.mark.parametrize("name", list(_PEAK_BOUND_SETS))
    def test_bound(self, name):
        pts = _PEAK_BOUND_SETS[name]
        rng = np.random.default_rng(110 + len(pts))
        moves = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for degree in range(1, 13):
                # up to 2^40 the steps below 2^-10 round into c_j or vanish in it
                for scale in (1e-3, 1.0, 1e3, 2.0 ** 40):
                    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
                    c *= scale / np.abs(_grid_states(pts, c)[0]).max()
                    self._check(pts, c, moves)
        assert moves == {"absorbed", "exact", "rounded"}

    def test_first_ruling_peak_stops_the_scan(self, monkeypatch):
        # this trial raises the current polynomial's second peak above its first
        pts = _PEAK_BOUND_SETS["m=2048"]
        c = np.random.default_rng(121).standard_normal(9) + 0j
        _, peaks, singles = self._tracked(pts, c, _grid_states(pts, c)[0])
        lows = [single.low(7, 0.5, 0.0, 0.0) for single in singles]
        assert lows[0] < max(lows) and all(low > 0.0 for low in lows)
        tested = []
        monkeypatch.setattr(ratio_search, "_ruled_out", lambda *args: tested.append(args) or _ruled_out(*args))
        assert peaks.low(7, 0.5, 0.0, 0.0) == max(lows)
        assert len(tested) == len(lows)
        # any finite numerator bound is ruled out by the first usable bound, and the scan stops there
        tested.clear()
        assert peaks.low(7, 0.5, math.inf, math.inf) is None
        assert tested == [(peaks.upper(7, 0.5) / lows[0], math.inf, math.inf)]

    def test_overflowing_p_rules_nothing_out(self):
        # |p| overflows on the grid: no bound is usable, even for a trial any bound would rule out
        pts = _PEAK_BOUND_SETS["m=2048"]
        c = np.full(5, 1e306, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            grid = _grid_states(pts, c)
            index, peaks, singles = self._tracked(pts, c, grid[0])
        assert not np.isfinite(grid[0]).all() and index.size > 0
        for j in range(5):
            for s in (0.5, -0.5j, 0.0):
                assert all(single.low(j, s, 0.0, 0.0) == 0.0 for single in singles)
                assert peaks.low(j, s, math.inf, math.inf) == 0.0
