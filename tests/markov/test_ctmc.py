"""Unit tests for the CTMC class and its dependability adapter."""

import math

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ModelDefinitionError, SolverError, StateSpaceError
from repro.markov import CTMC, MarkovDependabilityModel
from repro.markov.registry import STEADY_STATE
from repro.markov.solvers import cumulative_uniformization


def two_state(lam=1.0, mu=9.0):
    chain = CTMC()
    chain.add_transition("up", "down", lam)
    chain.add_transition("down", "up", mu)
    return chain


def shared_repair(lam=0.001, mu=0.1):
    chain = CTMC()
    chain.add_transition(2, 1, 2 * lam)
    chain.add_transition(1, 0, lam)
    chain.add_transition(1, 2, mu)
    chain.add_transition(0, 1, mu)
    return chain


class TestConstruction:
    def test_states_registered_in_order(self):
        chain = two_state()
        assert chain.states == ["up", "down"]
        assert chain.n_states == 2

    def test_rates_accumulate(self):
        chain = CTMC()
        chain.add_transition("a", "b", 1.0)
        chain.add_transition("a", "b", 2.0)
        assert chain.rate("a", "b") == pytest.approx(3.0)

    def test_self_loop_rejected(self):
        with pytest.raises(ModelDefinitionError):
            CTMC().add_transition("a", "a", 1.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(Exception):
            CTMC().add_transition("a", "b", -1.0)

    def test_generator_matches_the_coo_build(self):
        # Reference: scipy's COO → CSR conversion of the same triplets.
        chain = shared_repair()
        chain.add_transition(0, 2, 0.25)
        q = chain.generator()
        n = chain.n_states
        diag = np.zeros(n)
        np.subtract.at(diag, chain._coo_rows, chain._coo_vals)
        ref = sparse.csr_matrix(
            (
                np.r_[chain._coo_vals, diag],
                (np.r_[chain._coo_rows, range(n)], np.r_[chain._coo_cols, range(n)]),
            ),
            shape=(n, n),
        )
        for attr in ("data", "indices", "indptr"):
            assert getattr(q, attr).tobytes() == getattr(ref, attr).tobytes(), attr

    def test_generator_rows_sum_to_zero(self):
        q = shared_repair().generator().toarray()
        np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-15)

    def test_exit_rate(self):
        chain = shared_repair()
        assert chain.exit_rate(1) == pytest.approx(0.001 + 0.1)

    def test_unknown_state_rejected(self):
        with pytest.raises(ModelDefinitionError):
            two_state().index_of("nope")

    def test_absorbing_states(self):
        chain = CTMC()
        chain.add_transition("a", "b", 1.0)
        assert chain.absorbing_states() == ["b"]


class TestSteadyState:
    def test_two_state_balance(self):
        pi = two_state(1.0, 9.0).steady_state()
        assert pi["up"] == pytest.approx(0.9)
        assert pi["down"] == pytest.approx(0.1)

    @pytest.mark.parametrize("method", [*STEADY_STATE.names(), "auto"])
    def test_methods_agree(self, method):
        pi = shared_repair().steady_state(method)
        assert pi[2] + pi[1] == pytest.approx(0.99980396, abs=1e-8)

    @pytest.mark.parametrize("method", [*STEADY_STATE.names(), "auto"])
    def test_reducible_chain_rejected_by_every_method(self, method):
        # two closed classes {a, b} and {c, d}: no unique stationary vector
        chain = CTMC()
        chain.add_transition("a", "b", 1.0)
        chain.add_transition("b", "a", 2.0)
        chain.add_transition("c", "d", 3.0)
        chain.add_transition("d", "c", 1.0)
        with pytest.raises(ModelDefinitionError, match="not irreducible"):
            chain.steady_state(method)

    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError):
            two_state().steady_state("bogus")

    def test_expected_reward_rate(self):
        chain = two_state(1.0, 9.0)
        assert chain.expected_reward_rate({"up": 2.0}) == pytest.approx(1.8)


class TestTransient:
    def test_two_state_closed_form(self):
        lam, mu = 1.0, 9.0
        chain = two_state(lam, mu)
        for t in (0.0, 0.1, 0.5, 2.0):
            p = chain.transient(t, "up")
            expected = mu / (lam + mu) + lam / (lam + mu) * math.exp(-(lam + mu) * t)
            assert p["up"] == pytest.approx(expected, abs=1e-10)

    def test_ode_matches_uniformization(self):
        chain = shared_repair(0.1, 1.0)
        ts = np.array([0.5, 2.0, 10.0])
        uni = chain.transient(ts, 2)
        ode = chain.transient(ts, 2, method="ode")
        np.testing.assert_allclose(uni, ode, atol=1e-6)

    def test_initial_distribution(self):
        chain = two_state()
        p = chain.transient(0.0, {"up": 0.6, "down": 0.4})
        assert p["up"] == pytest.approx(0.6)

    def test_bad_initial_distribution_rejected(self):
        with pytest.raises(ModelDefinitionError):
            two_state().transient(1.0, {"up": 0.5})

    def test_transient_approaches_steady_state(self):
        chain = shared_repair(0.1, 1.0)
        pi = chain.steady_state()
        p = chain.transient(1000.0, 2)
        for state in chain.states:
            assert p[state] == pytest.approx(pi[state], abs=1e-8)

    def test_cumulative_transient_rows(self):
        chain = two_state()
        cum = chain.cumulative_transient([2.0], "up")
        assert cum[0].sum() == pytest.approx(2.0, rel=1e-8)

    def test_cumulative_refuses_an_overlong_series(self):
        # Λt ≈ 1e6 Poisson terms: refused before any vector is stored
        chain = two_state(1e2, 1e3)
        with pytest.raises(SolverError, match="Λt="):
            chain.cumulative_transient([1000.0], "up")

    def test_cumulative_rejects_a_misshapen_initial_vector(self):
        q = two_state().generator()
        with pytest.raises(SolverError, match="initial vector has shape"):
            cumulative_uniformization(q, np.array([1.0]), [1.0])



class TestAbsorbing:
    def test_mtta_two_unit_no_repair(self):
        chain = CTMC()
        chain.add_transition(2, 1, 2.0)
        chain.add_transition(1, 0, 1.0)
        assert chain.mean_time_to_absorption(2) == pytest.approx(1.5)

    def test_mtta_with_repair(self):
        # 2-unit parallel, shared repair, failure absorbs at 0:
        # MTTF = (3λ + μ) / (2λ²)
        lam, mu = 0.01, 1.0
        chain = CTMC()
        chain.add_transition(2, 1, 2 * lam)
        chain.add_transition(1, 2, mu)
        chain.add_transition(1, 0, lam)
        expected = (3 * lam + mu) / (2 * lam**2)
        assert chain.mean_time_to_absorption(2) == pytest.approx(expected, rel=1e-9)

    def test_explicit_absorbing_set(self):
        chain = shared_repair()
        mttf = chain.mean_time_to_absorption(2, absorbing=[0])
        lam, mu = 0.001, 0.1
        assert mttf == pytest.approx((3 * lam + mu) / (2 * lam**2), rel=1e-9)

    def test_no_absorbing_states_rejected(self):
        with pytest.raises(StateSpaceError):
            two_state().mean_time_to_absorption("up")

    def test_absorption_probabilities_split(self):
        chain = CTMC()
        chain.add_transition("s", "a", 1.0)
        chain.add_transition("s", "b", 3.0)
        probs = chain.absorption_probabilities("s")
        assert probs["a"] == pytest.approx(0.25)
        assert probs["b"] == pytest.approx(0.75)

    def test_absorption_probabilities_sum_to_one(self):
        chain = CTMC()
        chain.add_transition("s", "m", 2.0)
        chain.add_transition("m", "s", 1.0)
        chain.add_transition("m", "dead", 0.5)
        chain.add_transition("s", "gone", 0.1)
        probs = chain.absorption_probabilities("s")
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_first_passage_mean(self):
        chain = two_state(2.0, 1.0)
        # up -> down first passage = 1/2
        assert chain.first_passage_mean("up", ["down"]) == pytest.approx(0.5)


class TestUtilities:
    def test_restricted(self):
        chain = shared_repair()
        sub = chain.restricted([2, 1])
        assert set(sub.states) == {2, 1}
        assert sub.rate(2, 1) == pytest.approx(0.002)

    def test_with_absorbing(self):
        chain = two_state()
        frozen = chain.with_absorbing(["down"])
        assert frozen.rate("down", "up") == 0.0
        assert frozen.rate("up", "down") == pytest.approx(1.0)


class TestDependabilityAdapter:
    def make(self):
        return MarkovDependabilityModel(shared_repair(), up_states=[2, 1], initial=2)

    def test_steady_state_availability(self):
        assert self.make().steady_state_availability() == pytest.approx(
            0.99980396, abs=1e-8
        )

    def test_availability_starts_at_one(self):
        assert self.make().availability(0.0) == pytest.approx(1.0)

    def test_reliability_below_availability(self):
        model = self.make()
        t = 500.0
        assert model.reliability(t) <= model.availability(t) + 1e-12

    def test_mttf_closed_form(self):
        lam, mu = 0.001, 0.1
        assert self.make().mttf() == pytest.approx((3 * lam + mu) / (2 * lam**2), rel=1e-9)

    def test_interval_availability_between_point_values(self):
        model = self.make()
        a_interval = model.interval_availability(1000.0)
        assert model.steady_state_availability() <= a_interval <= 1.0

    def test_unknown_up_state_rejected(self):
        with pytest.raises(ModelDefinitionError):
            MarkovDependabilityModel(shared_repair(), up_states=[99], initial=2)

    def test_empty_up_states_rejected(self):
        with pytest.raises(ModelDefinitionError):
            MarkovDependabilityModel(shared_repair(), up_states=[], initial=2)

    def test_downtime_minutes(self):
        model = self.make()
        expected = model.steady_state_unavailability() * 525_600
        assert model.downtime_minutes_per_year() == pytest.approx(expected)
