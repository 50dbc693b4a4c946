"""Worst polynomial ratio search: boundary oracle, evaluator, and optimizer."""
import math

import numpy as np
import pytest

from crouzeix_lab import dense_small
from crouzeix_lab.core_matrix import build_A, build_A_rho, mu_rho
from crouzeix_lab.errors import DegenerateDenominatorError, DomainError
from crouzeix_lab.ratio_search import (
    EllipseBoundary,
    PolySpec,
    RatioResult,
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
        for _ in range(3):
            deg = int(rng.integers(2, 13))
            cs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            eb = EllipseBoundary(3.0, 2048)
            polished = eb.max_abs_poly(cs)
            assert polished >= np.abs(np.polyval(cs[::-1], eb.points)).max() - 1e-15
            brute = np.abs(np.polyval(cs[::-1], boundary_samples(3.0, 1000000))).max()
            assert (brute - polished) / brute < 1e-10


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
    "best_ratio": 1.6441792465014633,
    "best_poly": {"degree": 6, "coeffs": [
        [1.250186717778058, 0.20342342785732437],
        [1.045344836583997, -0.3247091465714542],
        [-2.041609780539516, 0.4058217465892375],
        [-0.635177722580526, -0.42564974224263297],
        [-0.06901181729800687, 0.05416979011280047],
        [-0.1505162264863065, 0.016000211866926933],
        [0.009128845418406922, -0.1412302984868137],
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

        expect = _search_polishing_every_trial(A, grid_max, 5, 200, 9)
        assert coordinate_search(A, pts, 5, 200, 9) == expect

    def test_most_trials_skip_the_polish(self, monkeypatch):
        calls = []
        polish = EllipseBoundary.max_abs_poly
        monkeypatch.setattr(EllipseBoundary, "max_abs_poly",
                            lambda self, c: calls.append(1) or polish(self, c))
        res = worst_ratio_search(*_criterion_6_point(0), 8, 500, 0)
        assert res.evaluations == 500
        assert len(calls) < 250

    def test_grid_maximum_never_exceeds_polished_maximum(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            rho = float(rng.uniform(1.01, 50.0))
            deg = int(rng.integers(0, 13))
            cs = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) * 10.0 ** rng.uniform(-3, 3)
            eb = EllipseBoundary(rho, int(rng.choice([8, 64, 2048])))
            top = eb.top(cs)
            assert top == np.abs(np.polyval(cs[::-1], eb.points)).max()
            assert top <= eb.max_abs_poly(cs)

    def test_pinned_search_result(self):
        # exact floats from the search that polished every trial
        assert worst_ratio_search(2.0, 1.0, 6, 150, 7).to_json() == PINNED_2_1_6_150_7
