"""Unit tests for the numeric solver kernels."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from repro.exceptions import ModelDefinitionError, SolverError
from repro.markov import (
    cumulative_uniformization,
    gth_solve,
    poisson_truncation_point,
    steady_state_direct,
    steady_state_power,
    transient_uniformization,
    uniformized_matrix,
)


def random_generator(n, seed, stiff=False):
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.1, 2.0, size=(n, n))
    if stiff:
        q *= 10.0 ** rng.integers(-4, 4, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


class TestGTH:
    def test_two_state(self):
        q = np.array([[-1.0, 1.0], [9.0, -9.0]])
        pi = gth_solve(q)
        np.testing.assert_allclose(pi, [0.9, 0.1])

    def test_single_state(self):
        np.testing.assert_allclose(gth_solve(np.zeros((1, 1))), [1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_random_chain_satisfies_balance(self, seed):
        q = random_generator(8, seed)
        pi = gth_solve(q)
        np.testing.assert_allclose(pi @ q, 0.0, atol=1e-12)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi > 0)

    def test_stiff_chain_accuracy(self):
        # Rates spanning 8 orders of magnitude: GTH must stay accurate.
        q = np.array(
            [
                [-1e-8, 1e-8, 0.0],
                [1.0, -1.0 - 1e-8, 1e-8],
                [0.0, 1e4, -1e4],
            ]
        )
        pi = gth_solve(q)
        np.testing.assert_allclose(pi @ q, 0.0, atol=1e-18)
        assert pi.sum() == pytest.approx(1.0)

    def test_reducible_chain_rejected(self):
        q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        # State 2 is absorbing and unreachable-from block structure breaks GTH.
        with pytest.raises(SolverError):
            gth_solve(q)

    def test_non_square_rejected(self):
        with pytest.raises(ModelDefinitionError):
            gth_solve(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [2, 5, 9, 40])
    def test_bits_match_the_textbook_loop(self, n):
        # Reference: outer-product elimination, every row sum recomputed
        # in the back-substitution.  Same arithmetic, so same bits.
        def reference(q):
            a = np.array(q, dtype=float)
            np.fill_diagonal(a, 0.0)
            for k in range(n - 1, 0, -1):
                a[:k, :k] += np.outer(a[:k, k], a[k, :k]) / a[k, :k].sum()
            pi = np.zeros(n)
            pi[0] = 1.0
            for k in range(1, n):
                pi[k] = float(pi[:k] @ a[:k, k]) / a[k, :k].sum()
            return pi / pi.sum()

        for seed in range(5):
            q = random_generator(n, seed, stiff=True)
            assert gth_solve(q).tobytes() == reference(q).tobytes()


class TestDirectAndPower:
    @pytest.mark.parametrize("seed", range(3))
    def test_all_methods_agree(self, seed):
        q = random_generator(10, seed)
        pi_gth = gth_solve(q)
        pi_direct = steady_state_direct(sparse.csr_matrix(q))
        pi_power = steady_state_power(sparse.csr_matrix(q))
        np.testing.assert_allclose(pi_direct, pi_gth, atol=1e-8)
        np.testing.assert_allclose(pi_power, pi_gth, atol=1e-8)

    def test_power_on_periodic_structure(self):
        # A 2-cycle: uniformization damping must still converge.
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        pi = steady_state_power(sparse.csr_matrix(q))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-9)


class TestUniformization:
    def test_uniformized_matrix_stochastic(self):
        q = random_generator(6, 1)
        p, lam = uniformized_matrix(sparse.csr_matrix(q))
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)
        assert lam >= -q.diagonal().max()

    def test_all_absorbing_gives_identity(self):
        q = sparse.csr_matrix((3, 3))
        p, lam = uniformized_matrix(q)
        np.testing.assert_allclose(p.toarray(), np.eye(3))

    def test_poisson_truncation_monotone(self):
        assert poisson_truncation_point(10.0, 1e-12) > poisson_truncation_point(10.0, 1e-4)
        assert poisson_truncation_point(0.0, 1e-10) == 0

    def test_matches_matrix_exponential(self):
        q = random_generator(5, 3)
        p0 = np.zeros(5)
        p0[0] = 1.0
        times = np.array([0.0, 0.1, 1.0, 5.0])
        got = transient_uniformization(sparse.csr_matrix(q), p0, times, tol=1e-12)
        for k, t in enumerate(times):
            expected = p0 @ expm(q * t)
            np.testing.assert_allclose(got[k], expected, atol=1e-9)

    def test_rows_sum_to_one(self):
        q = random_generator(6, 4)
        p0 = np.full(6, 1 / 6)
        got = transient_uniformization(sparse.csr_matrix(q), p0, np.array([2.0]), tol=1e-12)
        assert got[0].sum() == pytest.approx(1.0, abs=1e-10)

    def test_absorbing_chain_transient(self):
        q = np.array([[-2.0, 2.0], [0.0, 0.0]])
        p0 = np.array([1.0, 0.0])
        got = transient_uniformization(sparse.csr_matrix(q), p0, np.array([1.0]))
        assert got[0, 0] == pytest.approx(math.exp(-2.0), abs=1e-9)


class TestCumulative:
    def test_two_state_closed_form(self):
        lam, mu = 1.0, 9.0
        q = np.array([[-lam, lam], [mu, -mu]])
        p0 = np.array([1.0, 0.0])
        t = 0.7
        got = cumulative_uniformization(sparse.csr_matrix(q), p0, np.array([t]), tol=1e-12)
        a_ss = mu / (lam + mu)
        expected_up = a_ss * t + (lam / (lam + mu) ** 2) * (1 - math.exp(-(lam + mu) * t))
        assert got[0, 0] == pytest.approx(expected_up, rel=1e-8)

    def test_row_sums_equal_time(self):
        q = random_generator(5, 9)
        p0 = np.zeros(5)
        p0[2] = 1.0
        times = np.array([0.5, 2.0, 10.0])
        got = cumulative_uniformization(sparse.csr_matrix(q), p0, times, tol=1e-12)
        np.testing.assert_allclose(got.sum(axis=1), times, rtol=1e-8)

    def test_zero_time(self):
        q = random_generator(4, 2)
        p0 = np.full(4, 0.25)
        got = cumulative_uniformization(sparse.csr_matrix(q), p0, np.array([0.0]))
        np.testing.assert_allclose(got[0], 0.0)
