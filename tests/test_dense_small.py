"""Tests for the small dense kernels against numpy.linalg oracles."""
import math

import numpy as np
import pytest

from crouzeix_lab import dense_small as ds
from crouzeix_lab.core_matrix import build_A, build_A_rho
from crouzeix_lab.errors import DomainError


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestOperatorNorm:
    def test_3x3_vs_numpy(self):
        rng = np.random.default_rng(48)
        for _ in range(300):
            M = rand_complex(rng, 3, 3)
            n_np = np.linalg.norm(M, 2)
            assert abs(ds.operator_norm(M) - n_np) < 1e-11 * n_np

    def test_larger_sizes_vs_numpy(self):
        rng = np.random.default_rng(50)
        for _ in range(150):
            n = int(rng.integers(4, 9))
            M = rand_complex(rng, n, n)
            n_np = np.linalg.norm(M, 2)
            assert abs(ds.operator_norm(M) - n_np) < 1e-9 * n_np

    def test_size_cap(self):
        with pytest.raises(ValueError):
            ds.operator_norm(np.eye(9))

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            ds.operator_norm(np.ones((2, 3)))

    def test_one_matrix_gives_a_python_float(self):
        assert type(ds.operator_norm(np.eye(3))) is float
        assert type(ds.operator_norm(build_A(0.7, 0.8))) is float

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_each_entry_of_a_stack_is_its_matrix_alone_bit_for_bit(self, n, kind):
        rng = np.random.default_rng(60 + n)
        stack = rng.standard_normal((2, 3, n, n)) if kind == "real" else rand_complex(rng, 2, 3, n, n)
        norms = ds.operator_norm(stack)
        assert isinstance(norms, np.ndarray) and norms.shape == (2, 3)
        for index in np.ndindex(2, 3):
            assert norms[index] == ds.operator_norm(stack[index])
        assert ds.operator_norm(stack[0]).tolist() == norms[0].tolist()

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_an_empty_stack_gives_no_norms(self, n):
        # _TrialBound passes one when every power of A overflows
        norms = ds.operator_norm(np.empty((0, n, n), dtype=complex))
        assert isinstance(norms, np.ndarray) and norms.shape == (0,)

    @pytest.mark.parametrize("shape, text", [
        ((9, 9), "matrices above 8x8 are out of scope here"),
        ((2, 9, 9), "matrices above 8x8 are out of scope here"),
        ((2, 3), "expected a square matrix, got shape (2, 3)"),
        ((4, 2, 3), "expected a square matrix, got shape (4, 2, 3)"),
        ((3,), "expected a square matrix, got shape (3,)"),
        ((), "expected a square matrix, got shape ()"),
    ])
    def test_bad_shapes_raise_the_same_texts(self, shape, text):
        with pytest.raises(ValueError) as err:
            ds.operator_norm(np.ones(shape))
        assert str(err.value) == text

    @pytest.mark.parametrize("kernel", [ds.horner_states, ds.eval_poly])
    def test_the_other_kernels_still_take_one_matrix(self, kernel):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3, 3\)"):
            kernel(np.ones((2, 3, 3)), [1.0, 2.0])


def hermitian_part(M, th):
    return (np.exp(-1j * th) * M + np.exp(1j * th) * M.conj().T) / 2


class TestSupportFunction:
    def test_vs_numpy_hermitian_part(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            M = rand_complex(rng, n, n)
            m = 2 * int(rng.integers(1, 200))
            k = int(rng.integers(m))
            h_np = np.linalg.eigvalsh(hermitian_part(M, 2 * np.pi * k / m))[-1]
            assert abs(ds.support_function_grid(M, m)[k] - h_np) < 1e-11 * (1 + abs(h_np))

    def test_family_support_is_ellipse(self):
        # h(theta) = sqrt(a^2 cos^2 + b^2 sin^2) with a, b the semi-axes
        rng = np.random.default_rng(58)
        for _ in range(100):
            rho = 10 ** rng.uniform(0.02, 1.2)
            r = rng.uniform(1 / math.sqrt(rho) + 1e-6, 1.0)
            A = build_A_rho(rho, r)
            aa = (rho + 1 / rho) / 2
            bb = (rho - 1 / rho) / 2
            m = 2 * int(rng.integers(1, 200))
            k = int(rng.integers(m))
            th = 2 * np.pi * k / m
            h_exact = math.sqrt(aa**2 * math.cos(th) ** 2 + bb**2 * math.sin(th) ** 2)
            assert abs(ds.support_function_grid(A, m)[k] - h_exact) < 1e-9 * max(1, h_exact)

    def test_grid_matches_scalar(self):
        # a grid is every other direction of the grid twice as fine, vectors or not
        rng = np.random.default_rng(59)
        M = rand_complex(rng, 4, 4)
        h = ds.support_function_grid(M, 36)
        h_fine, _ = ds.support_function_grid(M, 72, with_vectors=True)
        for k in range(36):
            assert abs(h[k] - h_fine[2 * k]) < 1e-11

    def test_both_halves_match_direct_solve(self):
        # directions past pi come from the bottom eigenvalue of the first half's solves
        rng = np.random.default_rng(61)
        for n in range(1, 9):
            M = rand_complex(rng, n, n)
            for m in (2, 4, 6, 10, 36, 720):
                h = ds.support_function_grid(M, m)
                assert h.shape == (m,)
                for k in range(m):
                    h_np = np.linalg.eigvalsh(hermitian_part(M, 2 * np.pi * k / m))[-1]
                    assert abs(h[k] - h_np) <= 1e-11 * max(1.0, abs(h_np))

    def test_support_points_lie_on_support_lines(self):
        # z_k = v_k* M v_k is a point of W(M) with Re(e^{-i theta_k} z_k) = h_k
        rng = np.random.default_rng(62)
        for n in range(1, 9):
            M = rand_complex(rng, n, n)
            for m in (2, 8, 1440):
                h, V = ds.support_function_grid(M, m, with_vectors=True)
                assert V.shape == (m, n)
                assert np.abs(np.linalg.norm(V, axis=1) - 1).max() < 1e-12
                z = np.einsum("ki,ij,kj->k", V.conj(), M, V)
                th = 2 * np.pi * np.arange(m) / m
                assert np.abs((np.exp(-1j * th) * z).real - h).max() <= 1e-11 * max(1.0, np.abs(h).max())

    @pytest.mark.parametrize("m", [1, 3, 721, 0, -2])
    def test_odd_or_empty_direction_count_raises(self, m):
        with pytest.raises(ValueError, match="even"):
            ds.support_function_grid(np.eye(3), m)


class TestPolynomialsAndCalculus:
    def test_eval_poly_vs_powers(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            M = rand_complex(rng, n, n) * 0.5
            cs = rand_complex(rng, 7)
            direct = sum(c * np.linalg.matrix_power(M, k) for k, c in enumerate(cs))
            assert np.abs(ds.eval_poly(M, cs) - direct).max() < 1e-10 * (1 + np.abs(direct).max())

    def test_eval_poly_needs_a_coefficient(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            ds.eval_poly(np.eye(3), [])

    def test_identity_polynomial(self):
        M = build_A(1.0, 0.9)
        assert np.abs(ds.eval_poly(M, [0.0, 1.0]) - M).max() == 0.0
