"""Exterior map of the spectral interval: boundary behavior, brackets, chains."""
import cmath
import math

import numpy as np
import pytest

from crouzeix_lab import conformal_map, core_matrix
from crouzeix_lab.conformal_map import (
    CBracket,
    c_bracket,
    c_upper_closed,
    eval_f,
    verify_fA_equals_cA,
)
from crouzeix_lab.errors import DomainError

RHOS = (1.05, 1.2, 1.5, 2.0, 3.0, 10.0)


class TestMapBoundary:
    def test_boundary_maps_to_unit_circle(self):
        for rho in RHOS + (50.0,):
            worst = 0.0
            for k in range(360):
                w = rho * cmath.exp(2j * math.pi * k / 360)
                z = (w + 1 / w) / 2.0
                worst = max(worst, abs(abs(eval_f(z, rho)) - 1.0))
            assert worst < 5e-13

    def test_origin_fixed(self):
        for rho in RHOS:
            assert abs(eval_f(0.0, rho)) == 0.0

    def test_odd(self):
        for rho in RHOS:
            a_half = (rho + 1 / rho) / 2.0
            b_half = (rho - 1 / rho) / 2.0
            z0 = 0.5 * a_half * math.cos(0.7) + 0.5j * b_half * math.sin(0.7)
            assert abs(eval_f(-z0, rho) + eval_f(z0, rho)) < 1e-15

    def test_outside_ellipse_rejected(self):
        with pytest.raises(DomainError):
            eval_f(10.0, 1.5)

    def test_rho_at_most_one_rejected(self):
        with pytest.raises(DomainError):
            eval_f(0.5, 1.0)


class TestScalarValue:
    def test_c_real_in_unit_interval(self):
        # near rho = 1 the true 1 - c is far below machine epsilon, so the
        # evaluated c may land a few ulp above 1; strictness starts at 1.2
        for rho in RHOS:
            c = eval_f(1.0, rho)
            assert c.imag == 0.0
            assert 0.0 < c.real < 1.0 + 1e-15
            if rho >= 1.2:
                assert c.real < 1.0

    def test_large_rho_asymptote(self):
        # leading factor dominates: c ~ 2/rho
        c = eval_f(1.0, 80.0).real
        assert abs(c - 2.0 / 80.0) < 1e-8

    def test_small_rho_limit(self):
        # thin ellipse: c creeps up to 1 (equals 1.0 in floats well before rho = 1)
        c = eval_f(1.0, 1.0005).real
        assert 0.97 < c <= 1.0


class TestBrackets:
    def test_enclosure(self):
        for rho in RHOS:
            c = eval_f(1.0, rho).real
            br = c_bracket(rho)
            assert br.lower - 1e-15 <= c <= br.upper + 1e-15

    def test_exact_enclosure(self):
        # c from the product formula at 50 digits; no slack on either end
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for rho in (1.05, 1.1, 1.2, 1.5, math.sqrt(2.0), 2.0, 3.0, 10.0, 50.0):
                R = mpmath.mpf(rho)
                c = 2 / R
                k = 1
                while R ** (4 - 8 * k) > mpmath.mpf(10) ** -60:
                    c *= ((1 + R ** (-8 * k)) / (1 + R ** (4 - 8 * k))) ** 2
                    k += 1
                for n in list(range(9)) + [None, 500]:
                    br = c_bracket(rho, n)
                    assert mpmath.mpf(br.lower) <= c <= mpmath.mpf(br.upper), (rho, n, br)
                    if n != 0:
                        assert br.upper <= 1.0

    def test_zeroth_upper_is_leading_factor(self):
        for rho in RHOS:
            br0 = c_bracket(rho, 0)
            assert abs(br0.upper - 2.0 / rho) < 1e-16

    def test_nesting(self):
        for rho in RHOS:
            prev = c_bracket(rho, 0)
            for n in range(1, 8):
                br = c_bracket(rho, n)
                assert br.lower >= prev.lower - 1e-16
                assert br.upper <= prev.upper + 1e-16
                prev = br

    def test_width_fields(self):
        br = c_bracket(2.0, 3)
        assert br.lower <= br.upper
        assert abs(br.width - (br.upper - br.lower)) == 0.0

    @pytest.mark.parametrize("call, message", [
        (lambda: c_bracket(2.0, n_factors=-1), "n_factors must be nonnegative"),
        (lambda: CBracket(2.0, 1.0, 0), "not ordered"),
    ])
    def test_rejects_bad_counts_and_an_unordered_bracket(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_default_factor_count_converges(self):
        for rho in (1.2, 2.0, 10.0):
            assert c_bracket(rho).width < 1e-12


class TestClosedEnvelope:
    def test_dominates_c(self):
        for rho in (1.05, 1.2, 1.41, math.sqrt(2.0), 1.5, 2.0, 3.0, 10.0):
            c = eval_f(1.0, rho).real
            assert c < c_upper_closed(rho)

    def test_sharpened_branch_below_leading(self):
        for rho in (math.sqrt(2.0), 1.5, 2.0, 3.0, 10.0):
            assert c_upper_closed(rho) <= 2.0 / rho + 1e-16

    @pytest.mark.parametrize("rho", [1e8, 1e77, 1.2e77, 1e300, 1.7e308])
    def test_sharpened_branch_is_leading_once_rho4_is_huge(self, rho):
        # 4 / rho^4 is below half an ulp of 1 here, also where rho**4 overflows
        assert c_upper_closed(rho) == 2.0 / rho


class TestHugeRho:
    @pytest.mark.parametrize("rho", [math.inf, math.nan, -math.inf])
    def test_non_finite_rho_rejected(self, rho):
        for call in (lambda: eval_f(0.5, rho), lambda: c_upper_closed(rho), lambda: c_bracket(rho)):
            with pytest.raises(DomainError, match="rho"):
                call()

    def test_eval_f_where_rho4_overflows(self):
        # every series term is below rho^-2 there, so f(z) = 2 z / rho
        assert eval_f(0.5, 1e300) == 2.0 * 0.5 / 1e300
        assert eval_f(1.0, 1.2e77) == 2.0 / 1.2e77

    def test_series_stops_where_T_2k_overflows(self):
        # T_2(1e199) = 2e398 - 1 overflows at k = 1, where rho^4 has too, so f(z) = (2 z / rho) exp(0)
        assert eval_f(1e199, 1e200) == (2.0 * 1e199 / 1e200) * cmath.exp(0) == 0.20000000000000004


class TestJacobiForms:
    """Oracles independent of the product formula, with q = rho^-4: c = theta_2(q) / theta_3(q),
    and Schwarz's map f(z) = sqrt(k) sn((2K/pi) asin z, k) with modulus k = c^2."""

    def test_bracket_encloses_the_theta_quotient(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for rho in np.geomspace(1.001, 1e4, 11).tolist():
                q = mpmath.mpf(rho) ** -4
                c = mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)
                br = c_bracket(rho)
                assert mpmath.mpf(br.lower) <= c <= mpmath.mpf(br.upper), (rho, br)

    def test_eval_f_is_the_sn_map(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1414)
        draws = zip(*(v.tolist() for v in (rng.uniform(1.05, 20.0, 50), rng.uniform(0.0, 0.95, 50),
                                            rng.uniform(0.0, 2.0 * math.pi, 50))))
        with mpmath.workdps(30):
            for rho, t, theta in draws:
                z = t * complex((rho + 1.0 / rho) / 2.0 * math.cos(theta), (rho - 1.0 / rho) / 2.0 * math.sin(theta))
                k = mpmath.kfrom(q=mpmath.mpf(rho) ** -4)
                u = 2 * mpmath.ellipk(k**2) / mpmath.pi * mpmath.asin(z)
                want = complex(mpmath.sqrt(k) * mpmath.ellipfun("sn", u, m=k**2))
                assert abs(eval_f(z, rho) - want) <= 1e-13 * abs(want), (rho, z)

    def test_r1_envelope_law(self):
        # along r = 1 the product is c_upper_closed * sqrt(norm_sq) = 1: the tie belongs to the
        # envelope E = 2 / (rho sqrt(1 + 4 rho^-4)), and c falls below it by (1 - c / E) rho^8 -> 1
        mpmath = pytest.importorskip("mpmath")
        small = {1.5: 0.144232, 2.0: 0.598260, 3.0: 0.905640}
        with mpmath.workdps(60):
            for rho in (1.5, 2.0, 3.0, 10.0, 20.0, 50.0, 100.0, 1000.0):
                R = mpmath.mpf(rho)
                c = mpmath.jtheta(2, 0, R**-4) / mpmath.jtheta(3, 0, R**-4)
                envelope = 2 / (R * mpmath.sqrt(1 + 4 * R**-4))
                law = (1 - c / envelope) * R**8
                if rho in small:
                    assert abs(law - small[rho]) < 1e-6, (rho, law)
                else:
                    assert law < 1 and 1 - law < 9 * R**-4, (rho, law)
                assert abs(mpmath.mpf(c_upper_closed(rho)) - envelope) < 4e-16 * envelope, rho


class TestMatrixIdentity:
    def test_fA_equals_cA(self):
        # f kills the quadratic part of A, leaving exactly c A
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(30):
            rho = float(rng.uniform(1.05, 6.0))
            r = float(rng.uniform(1.0 / math.sqrt(rho) + 0.02, 1.0))
            worst = max(worst, verify_fA_equals_cA(rho, r))
        assert worst < 1e-10

    def test_detects_matrix_off_the_three_node_calculus(self, monkeypatch):
        E = np.arange(9.0).reshape(3, 3) / 9.0
        build = core_matrix.build_A_rho
        monkeypatch.setattr(core_matrix, "build_A_rho", lambda rho, r: build(rho, r) + 1e-6 * E)
        assert verify_fA_equals_cA(2.0, 0.9) > 1e-8

    def test_detects_map_that_is_not_odd(self, monkeypatch):
        f = conformal_map.eval_f
        monkeypatch.setattr(conformal_map, "eval_f", lambda z, rho: f(z, rho) + (1e-6 if z == -1.0 else 0.0))
        assert verify_fA_equals_cA(2.0, 0.9) > 1e-8
