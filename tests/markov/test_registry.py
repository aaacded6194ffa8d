"""Unit tests for the solver tables behind the Markov front doors."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import SolverError
from repro.markov.fallback import solve_steady_state
from repro.markov.registry import (
    GTH_DENSE_LIMIT,
    STEADY_STATE,
    TRANSIENT,
    SolverRegistry,
)


def q2():
    return sparse.csr_matrix(np.array([[-1.0, 1.0], [2.0, -2.0]]))


class TestSolverRegistry:
    def test_literal_table_get(self):
        def kernel(q):
            return q

        reg = SolverRegistry("test", {"fast": kernel})
        assert "fast" in reg and "quick" not in reg
        assert reg.get("fast").fn is kernel
        assert reg.get("fast") is reg.get("fast")
        assert reg.names() == ("fast",)

    def test_unknown_method_lists_registered(self):
        reg = SolverRegistry("test", {"only": lambda q: q})
        with pytest.raises(SolverError, match=r"unknown test method 'nope'.*only"):
            reg.get("nope")

    def test_stages_returns_fresh_dict(self):
        stages = STEADY_STATE.stages()
        stages["gth"] = None
        assert STEADY_STATE.stages()["gth"] is not None


class TestBuiltinRegistries:
    def test_steady_state_names(self):
        assert set(STEADY_STATE.names()) == {
            "gth",
            "direct",
            "power",
            "gmres",
            "bicgstab",
        }

    def test_transient_names_and_alias(self):
        assert set(TRANSIENT.names()) == {"uniformization", "ode", "krylov", "expm_multiply"}
        assert TRANSIENT.get("expm_multiply").fn is TRANSIENT.get("krylov").fn

    def test_gth_pre_check_refuses_dense_blowup(self):
        n = GTH_DENSE_LIMIT + 1
        huge = sparse.identity(n, format="csr") * 0.0
        with pytest.raises(SolverError, match="dense"):
            STEADY_STATE.get("gth").fn(huge)

    def test_auto_drops_gth_above_dense_limit(self):
        # birth-death chain, rates 1 up and 2 down: π_k ∝ 2^-k
        n = GTH_DENSE_LIMIT + 1
        up = np.ones(n - 1)
        q = sparse.diags([2.0 * up, -np.r_[1.0, 3.0 * up[1:], 2.0], up], [-1, 0, 1], format="csr")
        exact = 0.5 ** np.arange(n)
        report = solve_steady_state(q, stages={"direct": lambda g: exact / exact.sum()})
        assert report.order == ("direct", "power")
        assert report.method == "direct"


class TestFrontDoorIntegration:
    def test_custom_method_reaches_front_door(self):
        name = "test_only_custom"

        def kernel(q):
            # the true stationary vector of q2 — the front door's
            # residual guard verifies whatever a custom kernel returns
            return np.array([2.0 / 3.0, 1.0 / 3.0])

        report = solve_steady_state(q2(), method=name, stages={name: kernel})
        assert report.method == name
        np.testing.assert_allclose(report.pi, [2.0 / 3.0, 1.0 / 3.0])
        assert name not in STEADY_STATE

    def test_all_builtin_methods_agree(self):
        q = q2()
        exact = solve_steady_state(q, method="gth").pi
        for method in STEADY_STATE.names():
            pi = solve_steady_state(q, method=method).pi
            np.testing.assert_allclose(pi, exact, atol=1e-8, err_msg=method)

    def test_unknown_front_door_method_rejected(self):
        with pytest.raises(SolverError, match="unknown method"):
            solve_steady_state(q2(), method="jacobi-seidel")
