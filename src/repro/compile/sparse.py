"""Compiled sparse sweeps: build the CSR once, fill rates per point.

A parameter sweep over a large-state-space chain would otherwise re-run
BFS reachability, re-intern every marking and cold-start the solver at
**every** point — even though the CSR structure is rate-independent.
:class:`CompiledSparseCTMC` is the :class:`~repro.compile.ctmc.CompiledCTMC`
that :func:`repro.sparse.build_sparse_reachability` builds with
``rate_terms=``: the frozen pattern, interned terms, fill, generator,
memo and size-chosen steady-state kernel are the base class's.  This
subclass adds only what a lazily built model needs on top:

* the up-state mask, for :meth:`~CompiledSparseCTMC.availability`;
* the build values, merged under every point as defaults;
* the engine evaluator protocol (``__call__`` rejects unknown
  parameter names);
* :meth:`~CompiledSparseCTMC.sweep`, the continuation fast path above
  ``ITERATIVE_LIMIT``: each point's GMRES solve warm-starts from the
  previous point's solution, on an augmented system assembled by one
  gather from the filled ``data`` buffer, with a Jacobi preconditioner
  refreshed in place from the new diagonal.

:func:`continuation_order` reorders an arbitrary campaign so that
consecutive points are nearest neighbors in (log-scaled, normalized)
parameter space, which is what makes warm starts pay off under grids.

The module deliberately never materializes a dense n×n array (lint rule
R007 enforces it, exactly as for :mod:`repro.sparse`).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import linalg as sparse_linalg

from ..exceptions import ConvergenceError, ModelDefinitionError, SolverError
from ..markov.fallback import solve_steady_state
from ..markov.registry import consume_iterations
from ..obs.trace import get_tracer
from .ctmc import CompiledCTMC
from .model import CompiledEvaluator

__all__ = [
    "CompiledSparseCTMC",
    "CompiledNFVChain",
    "continuation_order",
    "SweepStats",
]


class SweepStats:
    """Counters of one :meth:`CompiledSparseCTMC.sweep` run."""

    __slots__ = (
        "points",
        "fills",
        "warm_solves",
        "cold_solves",
        "fallbacks",
        "precond_builds",
        "precond_reuses",
        "iterations",
        "fill_seconds",
        "solve_seconds",
    )

    def __init__(self):
        self.points = 0
        self.fills = 0
        self.warm_solves = 0
        self.cold_solves = 0
        self.fallbacks = 0
        self.precond_builds = 0
        self.precond_reuses = 0
        self.iterations: List[Optional[int]] = []
        self.fill_seconds = 0.0
        self.solve_seconds = 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary (benchmarks persist this)."""
        known = [i for i in self.iterations if i is not None]
        return {
            "points": self.points,
            "fills": self.fills,
            "warm_solves": self.warm_solves,
            "cold_solves": self.cold_solves,
            "fallbacks": self.fallbacks,
            "precond_builds": self.precond_builds,
            "precond_reuses": self.precond_reuses,
            "mean_iterations": float(np.mean(known)) if known else None,
            "max_iterations": max(known) if known else None,
            "fill_seconds": self.fill_seconds,
            "solve_seconds": self.solve_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SweepStats(points={self.points}, warm={self.warm_solves}, "
            f"cold={self.cold_solves}, precond builds/reuses="
            f"{self.precond_builds}/{self.precond_reuses})"
        )


class CompiledSparseCTMC(CompiledEvaluator, CompiledCTMC):
    """A lazily built :class:`CompiledCTMC` that is also an engine evaluator.

    Built by :func:`repro.sparse.build_sparse_reachability` with
    ``rate_terms=`` (see :attr:`SparseReachabilityResult.compiled <repro.sparse.SparseReachabilityResult>`):
    the BFS runs exactly once, and every later parameter point is a
    rate-only refill of the same ``data`` array.

    Parameters
    ----------
    n:
        Number of states (BFS order); states are labelled by index.
    transitions:
        ``(i, j, term, multiplier)`` per transition firing, in BFS
        order — the triplets of :class:`CompiledCTMC`, with the
        vanishing-resolution probability as the multiplier.
    up:
        Optional up-state mask in BFS state order (enables
        :meth:`availability`).
    build_values:
        The parameter values the structure was generated at: the
        defaults merged under every evaluated point, and the point the
        deterministic warm-start reference is solved at.
    """

    def __init__(
        self,
        n: int,
        transitions: Sequence[Tuple],
        up: Optional[np.ndarray] = None,
        build_values: Optional[Mapping[str, float]] = None,
    ):
        super().__init__(range(int(n)), transitions)
        self.up = None if up is None else np.asarray(up, dtype=bool)
        self._build_values = dict(build_values or {})
        self.parameters = self._param_names
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter("compile.sparse.structure_builds").inc()

    def size(self) -> Dict[str, int]:
        """Model-scale metadata (serve-registry advertisement form)."""
        return {
            "n_states": self.n,
            "n_chains": 1,
            "n_components": 0,
            "n_structure_functions": 0,
        }

    def describe(self) -> Dict[str, object]:
        """Advertised metadata (adds the structure-reuse facts)."""
        info = super().describe()
        info["nnz"] = self.nnz
        info["n_terms"] = len(self._terms)
        return info

    # ------------------------------------------------------ availability
    def _up_mask(self) -> np.ndarray:
        if self.up is None:
            raise ModelDefinitionError(
                "no up-state mask was attached at compile time; rebuild with "
                "build_sparse_reachability(..., up=...) to evaluate availability"
            )
        return self.up

    def availability(self, values: Mapping[str, float]) -> float:
        """Steady-state availability at one complete parameter point."""
        mask = self._up_mask()
        return float(self.steady_state_cached(values)[mask].sum())

    def _point(self, assignment: Mapping[str, float]) -> Dict[str, float]:
        """``assignment`` merged over the build values; unknown names raise."""
        unknown = sorted(set(assignment) - set(self._param_names))
        if unknown:
            raise ModelDefinitionError(
                f"unknown parameter(s) {unknown}; this compiled chain sweeps "
                f"{list(self._param_names)}"
            )
        values = dict(self._build_values)
        values.update(assignment)
        return values

    # ------------------------------------------------------- batch/engine
    def __call__(self, assignment: Mapping[str, float]) -> float:
        return self.availability(self._point(assignment))

    def evaluate_many(self, assignments: Sequence[Mapping[str, float]]) -> np.ndarray:
        out = np.empty(len(assignments))
        for i, assignment in enumerate(assignments):
            out[i] = self(assignment)
        return out

    # -------------------------------------------------------------- sweep
    def _system(self, data: np.ndarray):
        """The augmented system ``A x = e_n`` at the filled ``data``.

        ``A`` is ``Qᵀ`` with the last row replaced by ones.  Building it
        once (per thread) from a probe matrix whose data values encode
        their own slot index yields, for every stored entry of ``A``,
        the position in the CSR ``data`` buffer it reads from — per-point
        assembly is one fancy-index gather instead of a transpose +
        vstack.
        """
        ws = self._workspace()
        if getattr(ws, "system", None) is None:
            from ..sparse.krylov import augmented_system

            probe = self._csr(np.arange(2.0, self.nnz + 2.0))
            a, b = augmented_system(probe)
            is_norm = a.data == 1.0
            positions = np.flatnonzero(~is_norm)
            src = (a.data[positions] - 2.0).astype(np.int64)
            a.data[is_norm] = 1.0
            ws.system = (a, b, positions, src)
        a, b, positions, src = ws.system
        a.data[positions] = data[src]
        return a, b

    def sweep(
        self,
        assignments: Sequence[Mapping[str, float]],
        order: Optional[str] = None,
    ) -> np.ndarray:
        """Availability across a campaign with chained warm starts.

        Every point passes the same parameter check as ``__call__``.
        Up to :attr:`ITERATIVE_LIMIT` states each point is an ordinary
        (memoized) evaluation.  Above it, the continuation fast path
        runs: :meth:`fill` rewrites the CSR data buffer, the augmented
        system is reassembled by one gather, the GMRES solve warm-starts
        from the *previous point's* solution, and the Jacobi
        preconditioner is refreshed in place from the new diagonal.  A
        point whose Krylov solve fails is re-solved cold through the
        validated front door.

        Results match cold per-point solves within the solver tolerance
        (not bitwise — warm starts chain point to point, so use the
        engine path when evaluation-order independence matters).
        ``order="continuation"`` first reorders the points with
        :func:`continuation_order` (outputs are returned in the input
        order regardless).  Statistics of the run land on
        :attr:`last_sweep_stats`.
        """
        if order not in (None, "continuation"):
            raise ModelDefinitionError(
                f"unknown sweep order {order!r}; use None or 'continuation'"
            )
        mask = self._up_mask()
        points = [self._point(assignment) for assignment in assignments]
        stats = SweepStats()
        self.last_sweep_stats = stats
        perm = (
            continuation_order(assignments)
            if order == "continuation"
            else list(range(len(points)))
        )
        out = np.empty(len(points))
        if self.n <= self.ITERATIVE_LIMIT:
            # Small chains: direct/GTH per point beats any warm start;
            # structure reuse is still the win (no re-BFS).
            for i in perm:
                out[i] = self.availability(points[i])
                stats.points += 1
                stats.cold_solves += 1
            return out

        from ..sparse.krylov import steady_state_iterative

        tracer = get_tracer()
        inv = np.empty(self.n)
        jacobi = sparse_linalg.LinearOperator(
            (self.n, self.n), matvec=lambda x: inv * x, dtype=float
        )
        prev_pi: Optional[np.ndarray] = None
        for i in perm:
            t0 = perf_counter()
            data = self.fill(points[i])
            stats.fills += 1
            stats.fill_seconds += perf_counter() - t0
            a, b = self._system(data)
            t0 = perf_counter()
            diag = data[self._diag_pos]
            np.divide(1.0, np.where(diag == 0.0, 1.0, diag), out=inv)
            inv[-1] = 1.0
            if stats.precond_builds:
                stats.precond_reuses += 1
                event = "reuse"
            else:
                stats.precond_builds += 1
                event = "build"
            if tracer.enabled:
                tracer.metrics.counter(f"compile.precond.{event}", kind="jacobi").inc()
            try:
                pi = steady_state_iterative(
                    None,
                    method="gmres",
                    tol=1e-12,
                    preconditioner=jacobi,
                    validated=True,
                    x0=prev_pi,
                    system=(a, b),
                )
                iters = consume_iterations()
            except (ConvergenceError, SolverError):
                # Robust fallback: re-validate and walk the full chain
                # cold.  The warm path resumes at the next point.
                stats.fallbacks += 1
                report = solve_steady_state(
                    self._csr(data), iterative_limit=self.ITERATIVE_LIMIT
                )
                pi = report.pi
                iters = report.iterations
            stats.solve_seconds += perf_counter() - t0
            stats.points += 1
            stats.iterations.append(iters)
            if prev_pi is None:
                stats.cold_solves += 1
            else:
                stats.warm_solves += 1
            prev_pi = pi
            out[i] = float(pi[mask].sum())
        return out


class CompiledNFVChain(CompiledEvaluator):
    """Compiled NFV service-chain evaluator (case study E37/E38).

    The engine-substitutable form of
    :func:`repro.casestudies.nfvchain.evaluate_availability`: per point
    it resolves the spec, fetches the count-signature-memoized
    :class:`CompiledSparseCTMC` structure from the case study's bounded
    cache, and refills rates — so a rate-only sweep never re-runs BFS.
    Above ``solver_limit`` states it switches to the analytic
    product-form oracle, exactly like the uncompiled evaluator.
    """

    #: mirror of ``evaluate_availability(solver_limit=...)``'s default
    solver_limit: Optional[int] = 200_000

    def __init__(self):
        from ..casestudies.nfvchain import NFVChainSpec

        self.parameters = tuple(NFVChainSpec.__dataclass_fields__)

    def evaluate_many(self, assignments: Sequence[Mapping[str, float]]) -> np.ndarray:
        from ..casestudies import nfvchain

        out = np.empty(len(assignments))
        for i, assignment in enumerate(assignments):
            out[i] = nfvchain.evaluate_availability(
                assignment, solver_limit=self.solver_limit
            )
        return out

    def size(self) -> Dict[str, int]:
        from ..casestudies import nfvchain

        return {
            "n_states": nfvchain.state_count(nfvchain.NFVChainSpec()),
            "n_chains": 1,
            "n_components": 0,
            "n_structure_functions": 0,
        }


#: Beyond this many points the O(m²) greedy tour is not worth the
#: ordering win; the original order is returned unchanged.
_CONTINUATION_LIMIT = 4_096


def continuation_order(
    assignments: Sequence[Mapping[str, float]],
    parameters: Optional[Sequence[str]] = None,
) -> List[int]:
    """Greedy nearest-neighbor visiting order over a campaign's points.

    Builds one row per assignment over ``parameters`` (default: the
    union of keys in first-use order), log-scales strictly-positive
    columns (rates sweep across decades — nearness should be relative,
    not absolute), normalizes each column to [0, 1], and walks a greedy
    nearest-neighbor tour from the first point.  Consecutive points end
    up adjacent in parameter space, which is what makes chained Krylov
    warm starts converge in a handful of iterations even when the
    campaign generator emitted an arbitrary grid order.

    Deterministic (ties resolve to the lowest index) and O(m²); inputs
    longer than 4 096 points are returned in their original order.
    """
    m = len(assignments)
    if m <= 2 or m > _CONTINUATION_LIMIT:
        return list(range(m))
    if parameters is None:
        keys: List[str] = []
        seen = set()
        for assignment in assignments:
            for key in assignment:
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
    else:
        keys = list(parameters)
    if not keys:
        return list(range(m))
    x = np.zeros((m, len(keys)))  # (n_points, n_params) features, not n^2  # noqa: R007
    for j, key in enumerate(keys):
        col = np.array([float(a.get(key, 0.0)) for a in assignments])
        if np.all(col > 0.0):
            col = np.log10(col)
        lo, hi = float(col.min()), float(col.max())
        if hi > lo:
            x[:, j] = (col - lo) / (hi - lo)
    order = [0]
    remaining = np.ones(m, dtype=bool)
    remaining[0] = False
    current = 0
    for _ in range(m - 1):
        d2 = ((x - x[current]) ** 2).sum(axis=1)
        d2[~remaining] = np.inf
        current = int(np.argmin(d2))
        remaining[current] = False
        order.append(current)
    return order
