"""Family construction, ellipse geometry, and normalization round-trips."""
import json
import math

import numpy as np
import pytest

from crouzeix_lab.core_matrix import (
    MIRROR_Z,
    EllipseGeometry,
    NormalizationRecord,
    NormalizedParams,
    RhoParams,
    TridiagonalParams,
    build_A,
    build_A_rho,
    foci_of_general,
    mu_rho,
    normalize,
    q_from_rho,
    spectral_projectors,
)
from crouzeix_lab.errors import DomainError
from crouzeix_lab.jsondata import plain


def rand_unitary(rng, n=3):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    return q


def unit(rng):
    return complex(np.exp(2j * np.pi * rng.uniform()))


class TestConstruction:
    def test_entries(self):
        q, r = 0.7, 0.8
        A = build_A(q, r)
        assert A[0, 0] == 1.0 and A[1, 1] == 0.0 and A[2, 2] == -1.0
        assert abs(A[0, 1] - q / r) == 0.0
        assert abs(A[0, 2] - (r * r - 1 / (r * r))) == 0.0
        assert abs(A[1, 2] - q * r) == 0.0
        assert A[1, 0] == A[2, 0] == A[2, 1] == 0.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            build_A(-1.0, 0.5)
        with pytest.raises(DomainError):
            build_A(1.0, 0.0)
        with pytest.raises(DomainError):
            build_A(1.0, 1.2)
        with pytest.raises(DomainError):
            NormalizedParams(0.0, 0.5)
        with pytest.raises(DomainError):
            RhoParams(0.9, 0.5)

    def test_q_from_rho_inverts_mu_rho(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            q = float(rng.uniform(0.05, 4.0))
            r = float(rng.uniform(0.1, 1.0))
            geo = mu_rho(q, r)
            q_back = q_from_rho(geo.rho, r)
            assert abs(q_back - q) < 1e-10 * (1 + q)

    def test_build_A_rho_consistency(self):
        rho, r = 3.0, 0.8
        A1 = build_A_rho(rho, r)
        A2 = build_A(q_from_rho(rho, r), r)
        assert np.abs(A1 - A2).max() == 0.0

    def test_q_from_rho_rejects_degenerate_r(self):
        # r = 1/sqrt(rho) is the open edge where q -> 0
        with pytest.raises(DomainError):
            q_from_rho(4.0, 0.5)

    def test_rejects_infinite_rho(self):
        for make in (RhoParams, q_from_rho, build_A_rho):
            with pytest.raises(DomainError, match="rho"):
                make(math.inf, 1.0)

    def test_q_from_rho_rejects_overflowing_q(self):
        # rho = 1e308 is finite, but y^2 overflows and q^2 would be inf
        RhoParams(1e308, 1.0)
        with pytest.raises(DomainError, match="rho"):
            q_from_rho(1e308, 1.0)

    def test_ellipse_geometry_invariant(self):
        geo = mu_rho(1.3, 0.77)
        assert abs(geo.major**2 - geo.minor**2 - 4.0) < 1e-9
        assert geo.foci == (-1.0, 1.0)
        with pytest.raises(DomainError):
            EllipseGeometry(mu=1.0, rho=2.0, major=2.5, minor=1.5)
        with pytest.raises(DomainError, match="rho must be >= 1"):
            EllipseGeometry(mu=2.5, rho=0.5, major=2.5, minor=1.5)
        with pytest.raises(DomainError, match="major\\^2 - minor\\^2 = 4"):
            EllipseGeometry(mu=2.5, rho=2.0, major=3.0, minor=1.0)


class TestFoci:
    def test_formula(self):
        p = TridiagonalParams(a=0.3 + 1j, b1=0.5, b2=-0.2j, c1=1.1, c2=0.7)
        lo, hi = foci_of_general(p)
        s = (complex(p.b1) * p.c1 + complex(p.b2) * p.c2) ** 0.5
        assert abs(lo - (p.a - s)) < 1e-14
        assert abs(hi - (p.a + s)) < 1e-14

    def test_foci_are_extreme_eigenvalues(self):
        # spectrum of the tridiagonal family is {a, a +- sqrt(b1 c1 + b2 c2)}
        rng = np.random.default_rng(1)
        for _ in range(100):
            vals = rng.standard_normal(10)
            p = TridiagonalParams(
                a=complex(vals[0], vals[1]),
                b1=complex(vals[2], vals[3]),
                b2=complex(vals[4], vals[5]),
                c1=complex(vals[6], vals[7]),
                c2=complex(vals[8], vals[9]),
            )
            lo, hi = foci_of_general(p)
            eigs = list(np.linalg.eigvals(p.matrix()))
            d_lo = min(abs(z - lo) for z in eigs)
            d_hi = min(abs(z - hi) for z in eigs)
            assert d_lo < 1e-8 and d_hi < 1e-8


class TestMirror:
    def test_involution(self):
        assert np.abs(MIRROR_Z @ MIRROR_Z - np.eye(3)).max() == 0.0
        assert np.abs(MIRROR_Z - MIRROR_Z.T).max() == 0.0

    def test_mirror_identity(self):
        # Z A(q, 1/r) Z* = -A(q, r)* for 0 < r <= 1
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = float(rng.uniform(0.05, 3.0))
            r = float(rng.uniform(0.3, 0.98))
            rp = 1.0 / r
            Arp = np.array(
                [[1.0, q / rp, rp * rp - 1 / (rp * rp)], [0, 0, q * rp], [0, 0, -1.0]],
                dtype=complex,
            )
            lhs = MIRROR_Z @ Arp @ MIRROR_Z.T
            rhs = -build_A(q, r).conj().T
            assert np.abs(lhs - rhs).max() < 1e-12


class TestNormalize:
    def test_roundtrip_complex_affine(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            q = float(rng.uniform(0.05, 3.0))
            r = float(rng.uniform(0.15, 1.0))
            A = build_A(q, r)
            U = rand_unitary(rng)
            c = complex(rng.normal(), rng.normal())
            while abs(c) < 0.2:
                c = complex(rng.normal(), rng.normal())
            d = complex(rng.normal(), rng.normal())
            rec = normalize(c * (U @ A @ U.conj().T) + d * np.eye(3))
            assert rec.params is not None
            assert abs(rec.params.q - q) < 1e-8
            assert abs(rec.params.r - r) < 1e-8

    def test_roundtrip_fixed_affine(self):
        # the map z -> 2z + 3i moves the foci but not the recovered (q, r)
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = float(rng.uniform(0.05, 3.0))
            r = float(rng.uniform(0.15, 1.0))
            U = rand_unitary(rng)
            B = 2.0 * (U @ build_A(q, r) @ U.conj().T) + 3j * np.eye(3)
            rec = normalize(B)
            assert abs(rec.params.q - q) < 1e-8
            assert abs(rec.params.r - r) < 1e-8

    def test_mirrored_inputs(self):
        # direct r > 1 members come back flagged with the r <= 1 representative
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = float(rng.uniform(0.05, 2.0))
            r = float(rng.uniform(0.3, 0.98))
            rp = 1.0 / r
            Arp = np.array(
                [[1.0, q / rp, rp * rp - 1 / (rp * rp)], [0, 0, q * rp], [0, 0, -1.0]],
                dtype=complex,
            )
            rec = normalize(Arp)
            assert rec.mirrored
            assert abs(rec.params.q - q) < 1e-12
            assert abs(rec.params.r - r) < 1e-12

    def test_degenerate_branches(self):
        rec = normalize(np.diag([1.0, 0.0, -1.0]).astype(complex))
        assert rec.degenerate_case == "Diagonal"
        assert rec.params is None
        B2 = np.array([[1, 0, 1.6], [0, 0, 0], [0, 0, -1]], dtype=complex)
        rng = np.random.default_rng(6)
        U = rand_unitary(rng)
        rec = normalize(U @ B2 @ U.conj().T)
        assert rec.degenerate_case == "TwoByTwoReducible"

    def test_apply_reproduces_normalized_form(self):
        rng = np.random.default_rng(7)
        A = build_A(0.9, 0.7)
        U = rand_unitary(rng)
        B = (1.5 - 0.5j) * (U @ A @ U.conj().T) + (0.2 + 1j) * np.eye(3)
        rec = normalize(B)
        assert np.abs(rec.apply(B) - rec.normalized_form()).max() < 1e-10

    @pytest.mark.parametrize("rho_lo, rho_hi", [(1.001, 1.1), (1.1, 3.0), (3.0, 30.0), (30.0, 500.0)])
    def test_roundtrip_large_shift(self, rho_lo, rho_hi):
        # |d|/|c| = 1e3: the shift dominates every entry, yet (q, r) come back
        rng = np.random.default_rng(int(rho_hi))
        for _ in range(100):
            rho = float(np.exp(rng.uniform(np.log(rho_lo), np.log(rho_hi))))
            r = float(rng.uniform(1.0 / math.sqrt(rho) + 1e-3, 1.0))
            q = q_from_rho(rho, r)
            U = rand_unitary(rng)
            rec = normalize(unit(rng) * (U @ build_A(q, r) @ U.conj().T) + 1e3 * unit(rng) * np.eye(3))
            assert abs(rec.params.q - q) < 1e-8 * q
            assert abs(rec.params.r - r) < 1e-8

    def test_roundtrip_shift_1e6(self):
        # |d|/|c| = 1e6: the ellipticity residual grows with the shift as the
        # determinant does, and both tests scale with 1 + |t|/|delta|
        rng = np.random.default_rng(3)
        for _ in range(400):
            rho = float(np.exp(rng.uniform(np.log(1.001), np.log(500.0))))
            r = float(rng.uniform(1.0 / math.sqrt(rho) + 1e-3, 1.0))
            q = q_from_rho(rho, r)
            U = rand_unitary(rng)
            c = unit(rng) * 10.0 ** rng.uniform(-3, 3)
            rec = normalize(c * (U @ build_A(q, r) @ U.conj().T) + 1e6 * abs(c) * unit(rng) * np.eye(3))
            assert abs(rec.params.q - q) < 1e-6 * q
            assert abs(rec.params.r - r) < 1e-7

    @pytest.mark.parametrize(
        "rho, r",
        [
            (4.0, 0.5 + 1e-6),  # r -> 1/sqrt(rho), where q -> 0
            (2.0, 1.0),
            (1.0 + 1e-6, 1.0),  # rho -> 1
            (math.sqrt(2.0), 0.9),
            (10.0, 0.5),
            (3.0, 0.77),
            (500.0, 1.0),
        ],
    )
    def test_roundtrip_domain_edges(self, rho, r):
        rng = np.random.default_rng(8)
        q = q_from_rho(rho, r)
        for _ in range(20):
            U = rand_unitary(rng)
            c = complex(rng.normal(), rng.normal())
            d = complex(rng.normal(), rng.normal())
            rec = normalize(c * (U @ build_A(q, r) @ U.conj().T) + d * np.eye(3))
            assert abs(rec.params.q - q) < 1e-8 * q
            assert abs(rec.params.r - r) < 1e-8

    def test_tridiagonal_affine_is_the_focal_closed_form(self):
        # delta^2 = b1 c1 + b2 c2, and the foci t +- delta come back off (a, b)
        rng = np.random.default_rng(9)
        for _ in range(100):
            v = rng.standard_normal(10)
            p = TridiagonalParams(*(complex(v[2 * k], v[2 * k + 1]) for k in range(5)))
            a, b = normalize(p).affine
            s_sq = p.b1 * p.c1 + p.b2 * p.c2
            assert abs((1.0 / a) ** 2 - s_sq) < 1e-12 * abs(s_sq)
            lo, hi = foci_of_general(p)
            ends = ((-1.0 - b) / a, (1.0 - b) / a)
            gap = min(max(abs(ends[0] - lo), abs(ends[1] - hi)), max(abs(ends[0] - hi), abs(ends[1] - lo)))
            assert gap < 1e-12 * (1.0 + abs(p.a) + abs(lo - hi))

    def test_spectral_projectors(self):
        A = build_A_rho(3.0, 0.8)
        E_plus, E_zero, E_minus = spectral_projectors(A)
        assert np.abs(E_plus + E_zero + E_minus - np.eye(3)).max() < 1e-12
        assert np.abs(E_plus - E_minus - A).max() < 1e-12
        for E in (E_plus, E_zero, E_minus):
            assert np.abs(E @ E - E).max() < 1e-10

    def test_non_centered_rejected(self):
        # the middle eigenvalue 0.3 is off the focal midpoint, also under a shift of 1e3 I
        U = rand_unitary(np.random.default_rng(10))
        off_center = build_A(0.9, 0.7)
        off_center[1, 1] = 0.3
        for B in (np.diag([0.0, 1.0, 5.0]).astype(complex), U @ off_center @ U.conj().T + 1e3 * np.eye(3)):
            with pytest.raises(DomainError, match="not centered"):
                normalize(B)

    def test_non_elliptic_rejected(self):
        # alpha = 0.5, beta = 1.5, gamma = 0 violates 2 a b g = b^2 - a^2; the
        # spectrum is centered, so only the ellipticity test rejects it, also
        # under a shift of 1e6 I
        B = np.array([[1, 1.0, 0], [0, 0, 3.0], [0, 0, -1]], dtype=complex)
        U = rand_unitary(np.random.default_rng(12))
        for shifted in (B, U @ B @ U.conj().T + 1e6 * np.eye(3)):
            with pytest.raises(DomainError, match="not an ellipse"):
                normalize(shifted)

    def test_record_json_roundtrip(self):
        rec = normalize(build_A(1.1, 0.8))
        assert rec.to_json() == plain(rec)
        back = NormalizationRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert back.params == rec.params
        assert back.mirrored == rec.mirrored
        assert np.abs(back.unitary - rec.unitary).max() == 0.0
        assert back.affine == rec.affine

    def test_wrong_shape_rejected(self):
        with pytest.raises(DomainError):
            normalize(np.eye(4))

    def test_focus_relabeling_keeps_the_scale_in_the_right_half_plane(self):
        # the foci of i A are -i and i, so 1/delta = -i and the labels swap: the scale becomes i
        rec = normalize(1j * build_A(0.7, 0.8))
        assert rec.affine[0] == 1j
        assert abs(rec.params.q - 0.7) < 1e-12 and abs(rec.params.r - 0.8) < 1e-12

    def test_nilpotent_jordan_block_has_coincident_foci(self):
        with pytest.raises(DomainError, match="focal eigenvalues coincide"):
            normalize(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
