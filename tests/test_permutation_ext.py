"""Permuted-diagonal extension: cycle reduction and the observation report."""
import math

import numpy as np
import pytest

from crouzeix_lab import dense_small
from crouzeix_lab.errors import DomainError
from crouzeix_lab.permutation_ext import (
    PermSpec,
    cycle_decompose,
    perm_from_cycles,
    verify_observation,
)


def fro(M):
    return math.sqrt(float(np.sum(np.abs(M) ** 2)))


class TestPermSpec:
    def test_matrix_columns(self):
        p = PermSpec(5, (1, 0, 3, 4, 2))
        P = p.matrix()
        for j in range(5):
            assert P[p.perm[j], j] == 1
        assert fro(P @ P.conj().T - np.eye(5)) < 1e-15

    def test_cycles(self):
        assert PermSpec(5, (1, 0, 3, 4, 2)).cycles() == ((0, 1), (2, 3, 4))
        assert PermSpec(3, (0, 1, 2)).cycles() == ((0,), (1,), (2,))

    def test_rejections(self):
        with pytest.raises(DomainError):
            PermSpec(3, (0, 0, 2))
        with pytest.raises(DomainError):
            PermSpec(9, tuple(range(9)))


class TestCycleNotation:
    def test_parse(self):
        assert perm_from_cycles("(0 1)(2 3 4)", 5).perm == (1, 0, 3, 4, 2)
        assert perm_from_cycles("(0,1,2)", 4).perm == (1, 2, 0, 3)
        assert perm_from_cycles("", 3).perm == (0, 1, 2)
        assert perm_from_cycles("(1 3)", 4).perm == (0, 3, 2, 1)

    def test_parse_errors(self):
        for bad in ["(0 1", "(0 9)", "(0 1)(1 2)", "abc"]:
            with pytest.raises(DomainError):
                perm_from_cycles(bad, 4)


class TestCycleDecompose:
    def test_rejects_a_diagonal_of_the_wrong_length(self):
        with pytest.raises(DomainError, match="diagonal has length 2, permutation acts on 3"):
            cycle_decompose([1, 2], PermSpec(3, (0, 1, 2)))

    def test_identity_permutation(self):
        rng = np.random.default_rng(5)
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        dec = cycle_decompose(d, PermSpec(4, (0, 1, 2, 3)))
        assert [s for s, _ in dec.blocks] == [1, 1, 1, 1]
        assert fro(dec.block_diagonal() - np.diag(d)) == 0.0

    def test_single_cycle(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        dec = cycle_decompose(d, PermSpec(4, (1, 2, 3, 0)))
        assert [s for s, _ in dec.blocks] == [4]

    def test_mixed_cycles_reassemble(self):
        rng = np.random.default_rng(7)
        d5 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        spec5 = perm_from_cycles("(0 1)(2 3 4)", 5)
        dec = cycle_decompose(d5, spec5)
        assert [s for s, _ in dec.blocks] == [2, 3]
        DP = np.diag(d5) @ spec5.matrix()
        assert fro(dec.U @ DP @ dec.U.conj().T - dec.block_diagonal()) <= 1e-12
        # U is itself a permutation matrix
        assert fro(dec.U @ dec.U.conj().T - np.eye(5)) == 0.0
        # each block is a diagonal times a cyclic shift
        for k, B in dec.blocks:
            assert np.all((np.abs(B) > 0).sum(axis=0) == 1)

    def test_random_reassembly(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            perm = tuple(rng.permutation(n).tolist())
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            sp = PermSpec(n, perm)
            dec = cycle_decompose(d, sp)
            M = np.diag(d) @ sp.matrix()
            worst = max(worst, fro(dec.U @ M @ dec.U.conj().T - dec.block_diagonal()))
        assert worst <= 1e-12


class TestVerifyObservation:
    def test_unitary_case(self):
        # D = I makes DP unitary, so the ratio cannot leave 1
        spec5 = perm_from_cycles("(0 1)(2 3 4)", 5)
        rep = verify_observation(0, np.ones(5), spec5, degree=5, budget=150, seed=2)
        assert rep.passed
        assert rep.ratio.best_ratio <= 1 + 1e-9

    def test_three_cycle(self):
        rep = verify_observation(0, [1, 2, 3], perm_from_cycles("(0 1 2)", 3), 4, 120, 3)
        assert rep.passed
        assert rep.block_sizes == (3,)
        assert not rep.shift_checked
        assert rep.shift_worst == 0.0

    def test_shifted_spectrum(self):
        rep = verify_observation(1 + 1j, [1, 2, 3], perm_from_cycles("(0 1 2)", 3), 4, 120, 3)
        assert rep.passed
        assert rep.shift_checked
        assert rep.shift_worst < 1e-9

    def test_deterministic(self):
        args = (0.5j, [1, -2, 1j, 0.7], perm_from_cycles("(0 2)(1 3)", 4), 4, 100, 9)
        assert verify_observation(*args).to_json() == verify_observation(*args).to_json()

    def test_block_norm_oracle(self):
        # the 5x5 norm (numpy path) is the largest closed-form block norm
        rng = np.random.default_rng(9)
        d5 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        spec5 = perm_from_cycles("(0 1)(2 3 4)", 5)
        M = np.diag(d5) @ spec5.matrix() + 0.3 * np.eye(5)
        cs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        norm_full = dense_small.operator_norm(dense_small.eval_poly(M, cs))
        blocks = cycle_decompose(d5, spec5).blocks
        assert [k for k, _ in blocks] == [2, 3]
        norm_blocks = max(dense_small.operator_norm(dense_small.eval_poly(B + 0.3 * np.eye(k), cs))
                          for k, B in blocks)
        assert abs(norm_full - norm_blocks) < 1e-9 * (1 + norm_full)

    @pytest.mark.parametrize("degree, budget", [(13, 60), (-1, 60), (4, 0)])
    def test_bad_search_settings_raise_before_any_check(self, monkeypatch, degree, budget):
        def fail(*args, **kwargs):
            raise AssertionError("support_function_grid ran before the search settings were checked")

        monkeypatch.setattr(dense_small, "support_function_grid", fail)
        with pytest.raises(DomainError, match="degree|budget"):
            verify_observation(0, [1, 2, 3], perm_from_cycles("(0 1 2)", 3), degree, budget, 0)

    def test_negative_seed_raises_before_any_check(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("support_function_grid ran before the seed was checked")

        monkeypatch.setattr(dense_small, "support_function_grid", fail)
        with pytest.raises(DomainError, match="seed -3"):
            verify_observation(0, [1, 2, 3], perm_from_cycles("(0 1 2)", 3), 4, 60, -3)

    @pytest.mark.parametrize("a, diag, message", [
        (float("nan"), [1, 2], "a ="),
        (complex(0, float("inf")), [1, 2], "a ="),
        (0, [1, float("nan")], "diagonal"),
        (1j, [float("-inf"), 2], "diagonal"),
    ])
    def test_non_finite_input_raises_before_any_eigensolve(self, monkeypatch, a, diag, message):
        def fail(*args, **kwargs):
            raise AssertionError("support_function_grid ran on a non-finite matrix")

        monkeypatch.setattr(dense_small, "support_function_grid", fail)
        with pytest.raises(DomainError, match=message):
            verify_observation(a, diag, perm_from_cycles("(0 1)", 2), 4, 60, 0)

    @pytest.mark.parametrize("a, diag, degree", [
        (0, [1e200, 1], 4),
        (1e308, [1, 1], 4),
        (1e25, [1, 1, 1], 4),
        (0, [1e10, 1], 12),
        (1e80, [1, 1], 0),
    ])
    def test_huge_input_raises_before_any_eigensolve(self, monkeypatch, a, diag, degree):
        def fail(*args, **kwargs):
            raise AssertionError("support_function_grid ran on entries whose powers overflow")

        monkeypatch.setattr(dense_small, "support_function_grid", fail)
        with pytest.raises(DomainError, match=r"\|a\| \+ max\|d_i\|"):
            verify_observation(a, diag, perm_from_cycles("(0 1 2)" if len(diag) == 3 else "(0 1)", len(diag)),
                               degree, 60, 0)

    # |z| <= |a| + max|d_i| on W(A), so coordinate_search's |z|^degree <= 1e300 never binds here
    @pytest.mark.parametrize("a, diag, degree", [(0, [1e10, 1], 4), (1e18, [1, 1, 1], 4), (1e70, [1, 1], 1),
                                                 (1.7e6, [1, 1], 12)])
    def test_large_input_below_the_ceiling_runs(self, a, diag, degree):
        spec = perm_from_cycles("(0 1 2)" if len(diag) == 3 else "(0 1)", len(diag))
        rep = verify_observation(a, diag, spec, degree, 60, 0)
        assert math.isfinite(rep.ratio.best_ratio)

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    def test_inclusion_tolerance_scales_with_the_entries(self, monkeypatch, scale):
        # rounding of order eps * scale passes at scale 1e8; a block support
        # function 1e-6 * scale above h_A fails at every scale
        spec = perm_from_cycles("(0 1 2)", 3)
        assert verify_observation(0, [scale, 1, 1], spec, 4, 60, 0).inclusion_ok
        real = dense_small.support_function_grid

        def raised(M, m, with_vectors=False):
            out = real(M, m, with_vectors=with_vectors)
            return out if with_vectors else out + 1e-6 * scale

        monkeypatch.setattr(dense_small, "support_function_grid", raised)
        rep = verify_observation(0, [scale, 1, 1], spec, 4, 60, 0)
        assert not rep.inclusion_ok
        assert not rep.passed
        assert rep.inclusion_worst >= 0.99e-6 * scale

    @pytest.mark.parametrize("n, cycles", [(1, ""), (3, "(0 1 2)"), (5, "(0 1)(2 3 4)"), (4, "")])
    def test_one_support_solve_per_matrix(self, monkeypatch, n, cycles):
        # A is solved once (boundary and inclusion grid together), each block once
        calls = []
        real = dense_small.support_function_grid

        def spy(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(dense_small, "support_function_grid", spy)
        spec = perm_from_cycles(cycles, n)
        rep = verify_observation(0.5, np.arange(1, n + 1), spec, 4, 60, 0)
        assert rep.passed
        assert len(calls) == 1 + len(spec.cycles())

    def test_random_draws_pass(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            n = int(rng.integers(2, 9))
            perm = tuple(rng.permutation(n).tolist())
            mod = np.exp(rng.uniform(math.log(0.5), math.log(2.0), n))
            d = mod * np.exp(2j * math.pi * rng.uniform(0, 1, n))
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if trial % 3 else 0
            rep = verify_observation(a, d, PermSpec(n, perm), 4, 60, 1000 + trial)
            assert rep.passed, rep.to_json()
            assert rep.reassembly_residual <= 1e-12
            assert rep.inclusion_worst <= 1e-9
            assert rep.block_norm_worst <= 1e-10
            assert rep.ratio.best_ratio <= 2 + 1e-6
