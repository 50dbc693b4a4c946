"""Similarity transports: the four X families, kappa = 2, and norm algebra."""
import math

import numpy as np
import pytest

from crouzeix_lab import dense_small
from crouzeix_lab.core_matrix import NormalizedParams, build_A, q_from_rho
from crouzeix_lab.elementwise import CLAUSES
from crouzeix_lab.errors import DomainError
from crouzeix_lab.region_certifier import RegionId, certify, r1, r3
from crouzeix_lab.similarity import (
    CanonicalG,
    NormPolyP,
    SimilarityX,
    build_X_critical,
    build_X_diagonalizing,
    build_X_smallr,
    build_X_strip,
    canonical_G,
    check_mu_bound,
    norm_from_P,
    p_x1_residual,
    psi,
    singular_spectrum,
)


def mu_bound_by_derivative(g, mu):
    """check_mu_bound with the vertex condition in its derivative form P'(mu^2) >= 0."""
    p = NormPolyP.from_G(g)
    mu2 = mu * mu
    scale = 1.0 + mu2 * mu2 + abs(p.c0)
    return p.eval(mu2) >= -5e-10 * scale and p.deriv(mu2) >= -5e-10 * math.sqrt(scale)


def g_direct(X, q, r):
    """X A X^{-1} computed with plain numpy, as an oracle for canonical_G."""
    Xm = X.matrix()
    return Xm @ build_A(q, r) @ np.linalg.inv(Xm)


class TestSimilarityXInvariants:
    def test_constraint_violations_rejected(self):
        with pytest.raises(DomainError):
            SimilarityX(s=1.0, t=0.0, u=0.0, v=1.0, w=1.0)

    def test_valid_member_accepted(self):
        X = build_X_strip(0.8)
        assert abs(X.sw - 0.64) < 1e-15

    def test_singular_spectrum_vs_svd(self):
        rng = np.random.default_rng(10)
        done = 0
        while done < 150:
            rho = float(rng.uniform(1.05, 30.0))
            r = float(rng.uniform(1 / math.sqrt(2) + 1e-6, 1.0))
            if r <= 1.0 / math.sqrt(rho):
                continue
            done += 1
            X = build_X_critical(NormalizedParams(q_from_rho(rho, r), r))
            sp = singular_spectrum(X)
            sv = np.linalg.svd(X.matrix(), compute_uv=False)
            mine = sorted([sp.sigma1, sp.sigma_minus, sp.sigma_plus], reverse=True)
            assert np.abs(np.array(mine) - sv).max() < 1e-9
            # sigma^2 spectrum is {1, sw/2, 2 sw}
            assert abs(sp.sigma_plus**2 - 2 * X.sw) < 1e-12
            assert abs(sp.sigma_minus**2 - X.sw / 2) < 1e-12
            assert abs(sp.kappa - 2.0) < 1e-9
            assert abs(p_x1_residual(X)) < 1e-12


class TestNormPolynomial:
    def test_norm_from_P_matches_operator_norm(self):
        # 10^4 random canonical forms: largest root of P equals ||G||^2
        rng = np.random.default_rng(11)
        for _ in range(10000):
            g = CanonicalG(
                alpha=float(rng.uniform(0.0, 3.0)),
                beta=float(rng.uniform(0.0, 3.0)),
                gamma=float(rng.uniform(-3.0, 3.0)),
            )
            nsq = norm_from_P(g)
            direct = dense_small.operator_norm(g.matrix()) ** 2
            assert abs(nsq - direct) < 1e-10 * (1 + direct)

    def test_coefficients(self):
        g = CanonicalG(alpha=0.9, beta=0.4, gamma=-1.2)
        p = NormPolyP.from_G(g)
        a2, b2, g2 = 0.81, 0.16, 1.44
        assert abs(p.c1 + (2 + a2 + b2 + g2)) < 1e-14
        assert abs(p.c0 - (1 + a2 + b2 + a2 * b2)) < 1e-14

    def test_mu_bound_variants_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            g = CanonicalG(
                alpha=float(rng.uniform(0, 3)),
                beta=float(rng.uniform(0, 3)),
                gamma=float(rng.uniform(-3, 3)),
            )
            mu = float(rng.uniform(0.1, 5.0))
            a = check_mu_bound(g, mu)
            b = mu_bound_by_derivative(g, mu)
            if a != b:
                # disagreement is only allowed inside the rounding band
                p = NormPolyP.from_G(g)
                assert abs(p.eval(mu * mu)) <= 1e-8 or abs(p.deriv(mu * mu)) <= 1e-8

    def test_mu_bound_boundary_cases(self):
        g = CanonicalG(alpha=1.1, beta=0.4, gamma=-0.9)
        mu = math.sqrt(norm_from_P(g))
        assert check_mu_bound(g, mu)
        assert not check_mu_bound(g, mu * 0.93)


class TestSmallRFamily:
    def test_canonical_form_and_factorization(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 200:
            rho = float(rng.uniform(1.05, 40.0))
            lo = 1.0 / math.sqrt(rho)
            hi = r1(rho)
            if hi <= lo * 1.001:
                continue
            r = float(rng.uniform(lo * 1.001, hi))
            done += 1
            q = q_from_rho(rho, r)
            pa = NormalizedParams(q, r)
            X = build_X_smallr(pa)
            g = canonical_G(X, pa)
            assert np.abs(g.matrix() - g_direct(X, q, r)).max() < 1e-10
            assert abs(g.alpha - q / (2 * r)) < 1e-10
            assert abs(g.beta - q * r) < 1e-10
            assert abs(g.gamma - (4 * r**4 - 1) / (2 * r**2)) < 1e-10
            # P factors: roots (1 + q^2 r^2)/(4 r^4) and 4 r^4 + q^2 r^2
            p = NormPolyP.from_G(g)
            r_a = (1 + q * q * r * r) / (4 * r**4)
            r_b = 4 * r**4 + q * q * r * r
            assert abs(p.eval(r_a)) < 1e-10 * (1 + r_a * r_a)
            assert abs(p.eval(r_b)) < 1e-10 * (1 + r_b * r_b)
            nsq = norm_from_P(g)
            assert abs(nsq - dense_small.operator_norm(g.matrix()) ** 2) < 1e-10 * max(1, nsq)
            assert abs(dense_small.condition_number(X.matrix()) - 2.0) < 1e-10
            # the mu = rho/2 disk bound holds throughout the region
            assert check_mu_bound(g, rho / 2)


class TestStripFamily:
    def test_rejects_small_r(self):
        with pytest.raises(DomainError):
            build_X_strip(0.3)

    def test_diagonal_and_spectrum(self):
        for r in (0.71, 0.76, 1.0):
            X = build_X_strip(r)
            sv = np.linalg.svd(X.matrix(), compute_uv=False)
            expect = sorted([1.0, r * math.sqrt(2), r / math.sqrt(2)], reverse=True)
            assert np.abs(sv - expect).max() < 1e-14
            assert abs(dense_small.condition_number(X.matrix()) - 2.0) < 1e-12
            assert abs(p_x1_residual(X)) < 1e-14

    def test_norm_polynomial_coefficients(self):
        # c1 = -(q^2 + 1 + x^2/4), c0 = (1 + q^2/2)^2 for X = diag scaling
        for rho in (10.0, 14.0, 30.0):
            for r in (0.75, 0.77):
                q = q_from_rho(rho, r)
                pa = NormalizedParams(q, r)
                g = canonical_G(build_X_strip(r), pa)
                p = NormPolyP.from_G(g)
                x = r * r + 1 / (r * r)
                c1_expect = -(q * q + 1 + x * x / 4)
                c0_expect = (1 + q * q / 2) ** 2
                assert abs(p.c1 - c1_expect) < 1e-9 * abs(c1_expect)
                assert abs(p.c0 - c0_expect) < 1e-9 * abs(c0_expect)
                assert np.abs(g.matrix() - g_direct(build_X_strip(r), q, r)).max() < 1e-10

    def test_mu_bound_anchor(self):
        # the tight spot of the strip argument: x = 2.2795, y = 10, mu = y/2.02
        x_a, y_a = 2.2795, 10.0
        r_a = math.sqrt(x_a / 2 - math.sqrt(x_a**2 / 4 - 1))
        q_a = math.sqrt((y_a**2 - x_a**2) / x_a)
        pa = NormalizedParams(q_a, r_a)
        g = canonical_G(build_X_strip(r_a), pa)
        mu = y_a / 2.02
        assert check_mu_bound(g, mu)
        assert mu_bound_by_derivative(g, mu)
        assert NormPolyP.from_G(g).eval(mu * mu) > 0.0


class TestDiagonalizingFamily:
    def test_hand_values_at_rho_sqrt2(self):
        # rho = sqrt2, r = 1: x = 2, y^2 = 4.5, q^2 = 1/4
        X = build_X_diagonalizing(NormalizedParams(0.5, 1.0))
        assert abs(X.s - 3.0 / (2.25 * math.sqrt(2.0))) < 1e-14
        assert abs(X.v - 0.5) < 1e-15

    def test_diagonalizes_and_kappa(self):
        rng = np.random.default_rng(14)
        done = 0
        while done < 200:
            rho = float(rng.uniform(1.01, 2.0))
            lo = 1.0 / math.sqrt(rho)
            hi = r3(rho)
            if hi <= lo * 1.0005:
                continue
            r = float(rng.uniform(lo * 1.0005, hi))
            done += 1
            q = q_from_rho(rho, r)
            X = build_X_diagonalizing(NormalizedParams(q, r))
            Gd = g_direct(X, q, r)
            assert np.abs(Gd - np.diag([1.0, 0.0, -1.0])).max() < 1e-10
            assert abs(dense_small.condition_number(X.matrix()) - 2.0) < 1e-9

    def test_out_of_region_rejected(self):
        # rho = 3, r = 0.9 has 2y^2 > x^2 + 2.5x
        with pytest.raises(DomainError):
            build_X_diagonalizing(NormalizedParams(q_from_rho(3.0, 0.9), 0.9))


class TestCriticalFamily:
    def test_norm_equals_psi(self):
        rng = np.random.default_rng(15)
        done = 0
        while done < 200:
            rho = float(rng.uniform(1.05, 60.0))
            r = float(rng.uniform(1 / math.sqrt(2) + 1e-9, 1.0))
            if r <= 1.0 / math.sqrt(rho):
                continue
            done += 1
            q = q_from_rho(rho, r)
            pa = NormalizedParams(q, r)
            X = build_X_critical(pa)
            g = canonical_G(X, pa)
            x = r * r + 1 / (r * r)
            y = rho + 1 / rho
            ps = psi(x, y)
            assert abs(norm_from_P(g) - ps) < 1e-9 * max(1.0, ps)
            # gamma vanishes and |alpha| = |beta| on the critical curve
            assert abs(g.gamma) < 1e-9
            assert abs(abs(g.alpha) - abs(g.beta)) < 1e-9
            assert abs(dense_small.condition_number(X.matrix()) - 2.0) < 1e-9
            assert X.s > 0 and X.v >= 0

    def test_rejects_small_r(self):
        # r < 1/sqrt2 puts x above 5/2
        with pytest.raises(DomainError):
            build_X_critical(NormalizedParams(1.0, 0.6))


class TestPsi:
    def test_closed_form_at_x_two(self):
        for rho in (1.5, 2.0, 3.0, 7.0, 25.0):
            y = rho + 1 / rho
            lhs = psi(2.0, y)
            rhs = (4 + rho**4) / (4 * rho**2)
            assert abs(lhs - rhs) < 1e-13 * rhs

    def test_diagonal_values(self):
        assert abs(psi(2.0, 2.5) - 1.25) < 1e-15
        assert abs(psi(2.3, 2.3) - 5 / 4.6) < 1e-14

    def test_interior_minimum_location(self):
        # x* = sqrt(75) y / sqrt(16 y^2 - 25) sits in (2, 5/2) for this y
        y = 3.2
        xstar = math.sqrt(75.0) * y / math.sqrt(16 * y * y - 25)
        assert 2.0 < xstar < 2.5
        h = 1e-6
        d_left = (psi(xstar - h, y) - psi(xstar - 2 * h, y)) / h
        d_right = (psi(xstar + 2 * h, y) - psi(xstar + h, y)) / h
        assert d_left < 0 < d_right

    def test_boundary_minimum_at_small_y(self):
        # for y = 2.5 the minimizer is the corner x = 5/2
        h = 1e-6
        dpsi = (psi(2.5, 2.5) - psi(2.5 - h, 2.5)) / h
        assert dpsi < 0

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            psi(1.9, 3.0)
        with pytest.raises(DomainError):
            psi(2.6, 3.0)
        with pytest.raises(DomainError):
            psi(2.2, 2.0)


class TestSlackEdges:
    """Points where one of the similarity checks' slacks decides the outcome.

    Each test pins the result at a point within rounding of a window edge
    or of the mu bound, where the comparison without its slack would turn
    the other way.
    """

    def test_diagonalizing_forgives_a_radicand_within_the_clamp(self):
        q, r = 0.4771960282553876, 0.9
        x = r * r + 1.0 / (r * r)
        assert -1e-14 * (5.0 + 2.0 * x) < 5.0 - 2.0 * x - 4.0 * q * q < 0.0
        X = build_X_diagonalizing(NormalizedParams(q, r))
        # one ulp of q lower the radicand is 1.1e-16, whose square root moves X by about 1e-8
        inside = build_X_diagonalizing(NormalizedParams(0.47719602825538704, r))
        assert (X.s, X.t, X.u, X.v, X.w) == pytest.approx((inside.s, inside.t, inside.u, inside.v, inside.w),
                                                          rel=1e-7)
        with pytest.raises(DomainError, match="needs 5 - 2x >= 4q"):
            build_X_diagonalizing(NormalizedParams(q * (1.0 + 1e-12), r))

    def test_smallr_accepts_sw_just_below_one_half(self):
        # 3 r^4 vanishes against 1 at r = 5e-5, and s rounds below 1/2; so
        # does the radicand of u, within the clamp
        X = build_X_smallr(NormalizedParams(0.005, 5e-05))
        assert (X.sw, X.u, X.v, X.w) == (0.4999999999999999, 0.0, 0.0, 1.0)

    def test_sw_one_ulp_above_two_is_accepted(self):
        # diag(1, 1, 2) satisfies both constraints with sw = 2 exactly
        X = SimilarityX(s=1.0, t=0.0, u=0.0, v=0.0, w=math.nextafter(2.0, 3.0))
        assert X.sw == 2.0000000000000004
        assert singular_spectrum(X).kappa == pytest.approx(2.0, rel=1e-15)

    def test_critical_accepts_x_one_ulp_above_five_halves(self):
        r = 0.7071067811865475  # the float below 1/sqrt2, where r^2 + 1/r^2 rounds above 5/2
        assert r * r + 1.0 / (r * r) == 2.5000000000000004
        X = build_X_critical(NormalizedParams(1.0, r))
        assert (X.t, X.v) == (0.0, 0.0)
        assert X.sw == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("x, y, inside", [
        (math.nextafter(2.0, 0.0), 3.0, (2.0, 3.0)),
        (math.nextafter(2.5, 3.0), 3.0, (2.5, 3.0)),
        (2.3, math.nextafter(2.3, 0.0), (2.3, 2.3)),
    ])
    def test_psi_accepts_one_ulp_outside_its_window(self, x, y, inside):
        assert psi(x, y) == pytest.approx(psi(*inside), rel=1e-14)

    @pytest.mark.parametrize("rho, r", [
        (3.0, 0.577350269189626),   # one ulp above r = 1/sqrt(rho)
        (5.0, 0.447213595499958),   # one ulp above r = 1/sqrt(rho)
        (3.0, 0.7260599988965409),  # at r = r1(rho)
        (2.0, 0.7071067811865476),  # at r = 1/sqrt2
    ])
    def test_smallr_mu_bound_holds_within_rounding(self, rho, r):
        # mu = rho/2 is tight here: P(mu^2) or the vertex condition misses by
        # a rounding error, which check_mu_bound's slack absorbs
        pa = NormalizedParams(q_from_rho(rho, r), r)
        g = canonical_G(build_X_smallr(pa), pa)
        mu2 = rho * rho / 4.0
        assert NormPolyP.from_G(g).eval(mu2) < 0.0 or 2.0 + g.alpha**2 + g.beta**2 + g.gamma**2 > 2.0 * mu2
        cert = certify(rho, r)
        assert (cert.region, cert.verdict, cert.failure_reason) == (RegionId.SMALL_R, True, "")


@pytest.mark.parametrize("name, edge, values", [
    ("diag_radicand", lambda: build_X_diagonalizing(NormalizedParams(0.4771960282553876, 0.9)), (-1.998e-15,)),
    ("smallr_radicand", lambda: build_X_smallr(NormalizedParams(0.005, 5e-05)), (-3.331e-16,)),
    ("sw", lambda: build_X_smallr(NormalizedParams(0.005, 5e-05)), (0.4999999999999999,)),
    ("sw", lambda: SimilarityX(s=1.0, t=0.0, u=0.0, v=0.0, w=math.nextafter(2.0, 3.0)), (2.0000000000000004,)),
    ("critical_x", lambda: build_X_critical(NormalizedParams(1.0, 0.7071067811865475)), (2.5000000000000004,)),
    ("psi_x", lambda: psi(math.nextafter(2.0, 0.0), 3.0), (1.9999999999999998,)),
    ("psi_x", lambda: psi(math.nextafter(2.5, 3.0), 3.0), (2.5000000000000004,)),
    ("psi_y", lambda: psi(2.3, math.nextafter(2.3, 0.0)), (2.3, 2.2999999999999994)),
    ("mu_p", lambda: certify(3.0, 0.577350269189626), (1.5,)),
    ("mu_vertex", lambda: certify(2.0, 0.7071067811865476), (1.0,)),
])
def test_each_slack_at_zero_fails_its_slack_edge(monkeypatch, name, edge, values):
    """Each TestSlackEdges point, with its clause's slack set to 0, raises the
    clause's text or certifies with it as the failure reason."""
    def outcome():
        try:
            return getattr(edge(), "failure_reason", "")
        except DomainError as exc:
            return str(exc)

    assert outcome() == ""
    monkeypatch.setitem(CLAUSES, name, CLAUSES[name]._replace(slack=0.0))
    assert outcome() == CLAUSES[name].text.format(*values)
