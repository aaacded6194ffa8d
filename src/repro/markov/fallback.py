"""The steady-state front door: pre-flight checks + a solver fallback chain.

Every steady-state solve in :mod:`repro.markov` goes through
:func:`solve_steady_state`.  The kernels fail differently: GTH is
stiffness-proof but dense and O(n³); SuperLU is fast for large sparse
chains but can lose the solution on extreme stiffness; power iteration
is memory-light but slow when the subdominant eigenvalue hugs 1.  So the
front door validates the generator once (on the dense copy GTH
eliminates, or the CSR arrays), rejects reducible chains, walks a chain
of kernels from :data:`~repro.markov.registry.STEADY_STATE` with NaN/Inf
and residual guards between stages, and records every attempt in a
structured :class:`SolverReport`.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from ..analyze.markov import STIFFNESS_THRESHOLD
from ..exceptions import ModelDefinitionError, ReproError, SolverError
from ..obs.trace import get_tracer
from .registry import GTH_DENSE_LIMIT, STEADY_STATE, SolverMethod, consume_iterations
from .solvers import validate_generator

__all__ = [
    "GeneratorDiagnostics",
    "generator_diagnostics",
    "SolverAttempt",
    "SolverReport",
    "require_irreducible",
    "solve_steady_state",
]

#: States up to which the front door validates the dense copy GTH
#: eliminates and ``"auto"`` leads with GTH (compiled chains too).
DENSE_LIMIT = 2_000

#: A stage's vector is accepted when its relative residual
#: ``‖π Q‖∞ / max(1, max rate)`` is at most this.
RESIDUAL_TOL = 1e-8

#: A non-negative stage vector whose sum is this close to 1 is returned
#: as the kernel produced it, so a GTH answer keeps the bits of a direct
#: :func:`~repro.markov.solvers.gth_solve` call.
_NORMALIZED_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorDiagnostics:
    """Pre-flight facts about a CTMC generator.

    Attributes
    ----------
    n_states / nnz:
        Dimension and nonzero off-diagonal entry count.
    max_rate / min_rate:
        Largest and smallest positive off-diagonal rate.
    stiffness_ratio:
        ``max_rate / min_rate`` — availability models span 8–10 orders
        of magnitude, where naive elimination loses precision.
    max_row_sum_error:
        Largest absolute row sum (0 for an exact generator).
    n_strong_components:
        Strongly connected components of the transition structure; 1
        means irreducible, so the stationary vector is unique.
    """

    n_states: int
    nnz: int
    max_rate: float
    min_rate: float
    stiffness_ratio: float
    max_row_sum_error: float
    n_strong_components: int

    @property
    def irreducible(self) -> bool:
        """Whether the chain has a single strongly connected component."""
        return self.n_strong_components == 1


def _as_csr(generator) -> sparse.csr_matrix:
    q = generator
    if not (sparse.issparse(q) and q.format == "csr" and q.dtype == float):
        q = sparse.csr_matrix(generator, dtype=float)
    if not q.has_canonical_format:  # duplicate entries add up
        q = q.copy()
        q.sum_duplicates()
    return q


def generator_diagnostics(generator) -> GeneratorDiagnostics:
    """Compute :class:`GeneratorDiagnostics` for a dense or sparse generator.

    Purely observational — never raises on a defective generator (use
    :func:`~repro.markov.solvers.validate_generator` to enforce).  Works
    on the CSR arrays; only stored zero rates cost a pruned copy.
    """
    q = _as_csr(generator)
    n = q.shape[0]
    rows = np.repeat(np.arange(n), np.diff(q.indptr))
    off = q.data[q.indices != rows]
    positive = off[off > 0.0]
    max_rate = float(positive.max()) if positive.size else 0.0
    min_rate = float(positive.min()) if positive.size else 0.0
    stiffness = max_rate / min_rate if min_rate > 0.0 else float("inf") if max_rate else 1.0
    row_sums = np.bincount(rows, weights=q.data, minlength=n)
    max_row_err = float(np.abs(row_sums).max()) if row_sums.size else 0.0
    nnz = int(np.count_nonzero(off))
    graph = q
    if nnz < off.size:  # csgraph reads a stored zero as an edge
        graph = q.copy()
        graph.eliminate_zeros()
    n_components = csgraph.connected_components(graph, connection="strong", return_labels=False)
    return GeneratorDiagnostics(
        n_states=n,
        nnz=nnz,
        max_rate=max_rate,
        min_rate=min_rate,
        stiffness_ratio=float(stiffness),
        max_row_sum_error=max_row_err,
        n_strong_components=int(n_components),
    )


@dataclass(frozen=True)
class SolverAttempt:
    """One stage of a fallback chain: what ran and how it ended.

    Attributes
    ----------
    method:
        Stage name (``"gth"``, ``"direct"``, ``"power"``, ``"gmres"``,
        ``"bicgstab"`` or a ``stages=`` override key).
    success:
        Whether the stage produced a vector that passed the guards.
    duration:
        Wall-clock seconds spent in the stage.
    residual:
        Relative residual ``‖π Q‖∞ / max(1, max rate)`` of the produced
        vector (``NaN`` when the stage raised before producing one).
    error:
        ``"ExceptionType: message"`` for a failed stage, ``None`` on
        success.
    iterations:
        Krylov iterations the stage spent (``None`` for direct stages
        and kernels that don't report a count), as published by
        :func:`~repro.markov.registry.record_iterations`.
    """

    method: str
    success: bool
    duration: float
    residual: float = float("nan")
    error: Optional[str] = None
    iterations: Optional[int] = None


class SolverReport:
    """Structured outcome of one :func:`solve_steady_state` call.

    Attributes
    ----------
    pi:
        The stationary vector (``None`` only while the report is under
        construction; a returned report always carries a solution).
    strategy:
        The ``method`` the caller asked for.
    order:
        The stage order actually walked.
    attempts:
        One :class:`SolverAttempt` per stage tried, in order.
    diagnostics:
        The pre-flight :class:`GeneratorDiagnostics`.
    """

    def __init__(
        self,
        strategy: str,
        order: Tuple[str, ...],
        diagnostics: GeneratorDiagnostics,
        validation_seconds: float = 0.0,
    ):
        self.strategy = strategy
        self.order = tuple(order)
        self.diagnostics = diagnostics
        self.attempts: List[SolverAttempt] = []
        self.pi: Optional[np.ndarray] = None
        #: The generator is validated exactly once, up front; the stage
        #: solvers run with ``validated=True`` and skip the re-check.
        self.validations = 1
        self.validation_seconds = validation_seconds

    @property
    def ok(self) -> bool:
        """Whether a stage succeeded."""
        return self.pi is not None

    def _winner(self) -> Optional[SolverAttempt]:
        return next((a for a in self.attempts if a.success), None)

    @property
    def method(self) -> Optional[str]:
        """Name of the winning stage (``None`` if every stage failed)."""
        winner = self._winner()
        return winner.method if winner else None

    @property
    def fallbacks_used(self) -> int:
        """How many stages failed before one succeeded."""
        return sum(1 for attempt in self.attempts if not attempt.success)

    @property
    def iterations(self) -> Optional[int]:
        """Krylov iterations of the winning stage (``None`` if unknown)."""
        winner = self._winner()
        return winner.iterations if winner else None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of the solve — the :class:`~repro.obs.Observation`
        archival form attached to ``solver.steady_state`` trace spans
        (the stationary vector itself is not embedded)."""
        return {
            "strategy": self.strategy,
            "order": list(self.order),
            "method": self.method,
            "ok": self.ok,
            "fallbacks_used": self.fallbacks_used,
            "validations": self.validations,
            "validation_seconds": self.validation_seconds,
            "diagnostics": asdict(self.diagnostics),
            "attempts": [asdict(attempt) for attempt in self.attempts],
        }

    def summary(self) -> Dict[str, float]:
        """Flat dict of the headline numbers (handy for table printing)."""
        winning = self._winner()
        return {
            "n_states": float(self.diagnostics.n_states),
            "stiffness_ratio": self.diagnostics.stiffness_ratio,
            "n_attempts": float(len(self.attempts)),
            "fallbacks_used": float(self.fallbacks_used),
            "solve_time_s": float(sum(a.duration for a in self.attempts)),
            "residual": winning.residual if winning is not None else float("nan"),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        trail = " -> ".join(
            f"{a.method}{'✓' if a.success else '✗'}" for a in self.attempts
        )
        return (
            f"SolverReport({self.strategy!r}: {trail or 'no attempts'}, "
            f"n={self.diagnostics.n_states}, "
            f"stiffness {self.diagnostics.stiffness_ratio:.3g})"
        )


#: What a failing stage may raise; anything else is a bug and propagates.
_STAGE_FAILURES = (ReproError, np.linalg.LinAlgError, ValueError, ArithmeticError, RuntimeError)


def _guarded(
    pi, q: sparse.csr_matrix, dense: Optional[np.ndarray], max_rate: float
) -> Tuple[np.ndarray, float]:
    """A stage's vector, normalized, and its relative residual.

    Raises :class:`~repro.exceptions.SolverError` when the vector is
    misshapen, non-finite, negative, zero or not stationary.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (q.shape[0],):
        raise SolverError(f"stage returned shape {pi.shape}, expected ({q.shape[0]},)")
    total = float(pi.sum())
    if not math.isfinite(total):
        raise SolverError("stage produced non-finite probabilities")
    low = float(pi.min())
    if low < -1e-12:
        raise SolverError(f"stage produced negative probability {low:.3g}")
    if total <= 0.0:
        raise SolverError("stage produced a zero vector")
    if low < 0.0 or abs(total - 1.0) > _NORMALIZED_TOL:
        pi = np.maximum(pi, 0.0) / total
    residual = float(np.abs(pi @ dense if dense is not None else q.T @ pi).max())
    residual /= max(1.0, max_rate)
    if residual > RESIDUAL_TOL:
        raise SolverError(
            f"stage residual {residual:.3g} exceeds tolerance {RESIDUAL_TOL:.3g}"
        )
    return pi, residual


def require_irreducible(diagnostics: GeneratorDiagnostics) -> None:
    """Refuse a chain without a unique stationary vector.

    The front door's structural check, shared with compiled chains that
    run it once per frozen structure instead of once per solve.
    """
    if diagnostics.n_states == 0:
        raise ModelDefinitionError("generator has no states")
    if not diagnostics.irreducible and diagnostics.n_states > 1:
        raise ModelDefinitionError(
            f"chain is not irreducible ({diagnostics.n_strong_components} strongly "
            f"connected components); the stationary vector is not unique — solve "
            f"the recurrent class(es) separately"
        )


def solve_steady_state(
    generator,
    method: str = "auto",
    iterative_limit: int = 50_000,
    stages: Optional[Mapping[str, Callable]] = None,
    diagnostics: str = "ignore",
    x0: Optional[np.ndarray] = None,
) -> SolverReport:
    """Steady-state vector via a diagnosed, guarded solver fallback chain.

    Parameters
    ----------
    generator:
        Dense or sparse CTMC generator.  Validated up front
        (:func:`~repro.markov.solvers.validate_generator`, on the dense
        copy GTH eliminates up to :data:`DENSE_LIMIT` states and on the
        CSR arrays above) and checked for irreducibility: a reducible
        chain raises :class:`~repro.exceptions.ModelDefinitionError`
        before any kernel runs, whatever the ``method``.
    method:
        ``"auto"`` (default) walks a chain ordered by the diagnostics:
        ``gth → direct → power`` up to :data:`DENSE_LIMIT` states or
        when the stiffness ratio reaches
        :data:`~repro.analyze.markov.STIFFNESS_THRESHOLD`,
        ``direct → power → gth`` above, ``gmres → bicgstab → power``
        above ``iterative_limit`` states; GTH drops out above
        :data:`~repro.markov.registry.GTH_DENSE_LIMIT`.  Any name in
        :data:`~repro.markov.registry.STEADY_STATE` runs as a one-stage
        chain, guards still applied.
    iterative_limit:
        States above which ``"auto"`` switches to Krylov iteration.
    stages:
        Overrides ``{name: callable}``, each called as ``stage(q)`` on
        the CSR generator — the fault-injection hook
        (:class:`~repro.robust.FailingCallable`); a new name is also
        accepted as ``method``.
    diagnostics:
        ``"ignore"`` (default), ``"warn"`` or ``"strict"`` — run the
        full :mod:`repro.analyze` lint pass (steady-state query) first.
    x0:
        Optional warm start for the Krylov stages (direct stages ignore
        it).

    Returns
    -------
    A :class:`SolverReport` whose ``pi`` holds the first stage vector
    that is finite, non-negative, normalizable and within
    :data:`RESIDUAL_TOL`.  When every stage fails, raises
    :class:`~repro.exceptions.SolverError` carrying the report as its
    ``report`` attribute.

    Examples
    --------
    >>> import numpy as np
    >>> q = np.array([[-1.0, 1.0], [2.0, -2.0]])
    >>> report = solve_steady_state(q)
    >>> report.method
    'gth'
    >>> np.round(report.pi, 8).tolist()
    [0.66666667, 0.33333333]
    """
    q = _as_csr(generator)
    if diagnostics != "ignore":
        from ..analyze import run_diagnostics

        run_diagnostics(q, diagnostics, query="steady_state", where="solve_steady_state")
    n = q.shape[0]
    validation_start = time.perf_counter()
    # GTH eliminates a dense copy anyway: validate that copy instead of
    # scanning the CSR arrays a second time.
    dense = q.toarray() if n <= DENSE_LIMIT and method in ("auto", "gth") else None
    validate_generator(q if dense is None else dense)
    validation_seconds = time.perf_counter() - validation_start
    diag = generator_diagnostics(q)
    require_irreducible(diag)

    known: Dict[str, Callable] = STEADY_STATE.stages()
    if stages:
        known.update(stages)
    if method == "auto":
        if n > iterative_limit:
            chain: Tuple[str, ...] = ("gmres", "bicgstab", "power")
        elif n <= DENSE_LIMIT or diag.stiffness_ratio >= STIFFNESS_THRESHOLD:
            chain = ("gth", "direct", "power")
        else:
            chain = ("direct", "power", "gth")
        if n > GTH_DENSE_LIMIT:
            chain = tuple(name for name in chain if name != "gth")
    elif method in known:
        chain = (method,)
    else:
        raise SolverError(f"unknown method {method!r}; use 'auto' or one of {sorted(known)}")

    tracer = get_tracer()
    report = SolverReport(method, chain, diag, validation_seconds)
    with tracer.span(
        "solver.steady_state", method=method, n_states=n, stiffness_ratio=diag.stiffness_ratio
    ) as outer_span:
        for name in chain:
            stage = known[name]
            start = time.perf_counter()
            consume_iterations()  # clear any stale count from this thread
            with tracer.span("solver.stage", method=name) as span:
                try:
                    raw = stage.fn(q, dense, x0) if isinstance(stage, SolverMethod) else stage(q)
                    pi, residual = _guarded(raw, q, dense, diag.max_rate)
                except _STAGE_FAILURES as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    report.attempts.append(
                        SolverAttempt(name, False, time.perf_counter() - start,
                                      error=error, iterations=consume_iterations())
                    )
                    span.set(success=False, error=error)
                    tracer.metrics.counter("solver.stage.failure", method=name).inc()
                    continue
                report.attempts.append(
                    SolverAttempt(name, True, time.perf_counter() - start,
                                  residual=residual, iterations=consume_iterations())
                )
                span.set(success=True, residual=residual)
                tracer.metrics.counter("solver.stage.success", method=name).inc()
                if report.fallbacks_used:
                    tracer.metrics.counter("solver.fallbacks").inc(report.fallbacks_used)
            report.pi = pi
            outer_span.observe(report, key="solver_report")
            return report

    trail = "; ".join(f"{a.method}: {a.error}" for a in report.attempts)
    error = SolverError(
        f"every steady-state stage failed for the {n}-state "
        f"chain (stiffness {diag.stiffness_ratio:.3g}): {trail}"
    )
    error.report = report
    raise error
