"""Compiled CTMC: freeze structure once, fill and solve per point.

A parameter sweep over a CTMC model re-solves the *same* chain topology
at every point — only the numeric rates change.  The uncompiled path
rebuilds everything per point: label→index maps, the rate dictionary,
the COO triplets, the CSR generator, and (for reliability measures) a
second absorbing chain.  :class:`CompiledCTMC` hoists all of that out of
the loop, for hand-written chains and for chains built by lazy
reachability alike:

* the **state ordering** and the **CSR pattern** (one slot per distinct
  transition plus the diagonal) are frozen at compile time, together
  with one interned symbolic :class:`RateTerm` per distinct rate
  expression and a multiplier per transition;
* :meth:`fill` evaluates each distinct term once and writes the frozen
  CSR ``data`` buffer (one per thread) — per-point cost is "evaluate the
  terms and write ``nnz`` cells", not "rebuild the model";
* :meth:`steady_state` chooses its kernel by state count alone: GTH on
  the filled buffer up to :attr:`~CompiledCTMC.DENSE_LIMIT` states, the
  :func:`~repro.markov.fallback.solve_steady_state` front door above it
  (warm-started from a reference solution above
  :attr:`~CompiledCTMC.ITERATIVE_LIMIT`);
* :meth:`transient` delegates the filled generator to
  :func:`~repro.markov.solvers.solve_transient`, whose Poisson
  truncation points are memoized on ``(λt, tol)``.

Results are **bit-identical** to building the equivalent
:class:`~repro.markov.CTMC` and solving it: the fill accumulates
duplicate transitions in insertion order and the diagonal over slots in
first-insertion order, exactly like ``CTMC.add_transition`` +
``CTMC.generator()``.

Rates are expressed as picklable :class:`RateTerm` objects over a
parameter mapping (:class:`Const`, :class:`Param`, :class:`Scaled`,
:class:`Times`, :class:`Complement`), so a compiled chain can cross a
process boundary once and be filled many times in the worker.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .._validation import check_rate
from ..exceptions import ModelDefinitionError
from ..markov.fallback import (
    DENSE_LIMIT,
    generator_diagnostics,
    require_irreducible,
    solve_steady_state,
)
from ..markov.solvers import gth_solve, solve_transient
from ..obs.trace import get_tracer

__all__ = [
    "RateTerm",
    "Const",
    "Param",
    "Scaled",
    "Times",
    "Complement",
    "CompiledCTMC",
]

State = Hashable


class RateTerm:
    """A picklable symbolic rate: ``term(values) -> float``.

    Subclasses reproduce the exact floating-point expression the
    uncompiled model constructor evaluates, so the filled generator is
    bit-identical to the one ``CTMC.add_transition`` would build.
    """

    def __call__(self, values: Mapping[str, float]) -> float:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class Const(RateTerm):
    """A fixed rate, independent of the sweep parameters."""

    value: float

    def __call__(self, values: Mapping[str, float]) -> float:
        return self.value


@dataclass(frozen=True)
class Param(RateTerm):
    """The rate is the parameter ``name`` itself.

    Returns the raw mapping value (no float coercion): validation and
    conversion happen in :meth:`CompiledCTMC.fill`, in the same order
    ``CTMC.add_transition`` applies them.
    """

    name: str

    def __call__(self, values: Mapping[str, float]) -> float:
        return values[self.name]


@dataclass(frozen=True)
class Scaled(RateTerm):
    """``factor * values[name]`` — e.g. ``2.0 * failure_rate``."""

    factor: float
    name: str

    def __call__(self, values: Mapping[str, float]) -> float:
        return self.factor * values[self.name]


@dataclass(frozen=True)
class Times(RateTerm):
    """Product of two terms — e.g. ``failure_rate * coverage``."""

    left: RateTerm
    right: RateTerm

    def __call__(self, values: Mapping[str, float]) -> float:
        return self.left(values) * self.right(values)


@dataclass(frozen=True)
class Complement(RateTerm):
    """``1.0 - term`` — e.g. the uncovered branch ``1 - coverage``."""

    term: RateTerm

    def __call__(self, values: Mapping[str, float]) -> float:
        return 1.0 - self.term(values)


class CompiledCTMC:
    """A CTMC whose structure is frozen and whose rates are symbolic.

    Parameters
    ----------
    states:
        State labels in index order (the order ``CTMC.add_state`` would
        assign while replaying the transitions).  A ``range`` labels the
        states by index without building a label map.
    transitions:
        ``(source_index, target_index, term)`` or
        ``(source_index, target_index, term, multiplier)`` tuples in the
        order the uncompiled constructor adds them.  A transition's rate
        at a point is ``term(values) * multiplier`` (the multiplier
        defaults to 1.0; lazy reachability records vanishing-resolution
        probabilities there).  Duplicate ``(i, j)`` pairs accumulate in
        insertion order, exactly like repeated ``add_transition`` calls.

    Examples
    --------
    >>> cc = CompiledCTMC([2, 1, 0], [
    ...     (0, 1, Scaled(2.0, "lam")), (1, 2, Param("lam")),
    ...     (1, 0, Param("mu")), (2, 1, Param("mu"))])
    >>> pi = cc.steady_state({"lam": 0.001, "mu": 0.1})
    >>> round(float(pi[0] + pi[1]), 8)
    0.99980396
    """

    #: GTH on the filled buffer up to this many states — the front
    #: door's :data:`~repro.markov.fallback.DENSE_LIMIT`.
    DENSE_LIMIT = DENSE_LIMIT

    #: Above this many states the front door goes iterative and solves
    #: warm-start from :meth:`_reference` — same threshold as
    #: :attr:`repro.sparse.SparseCTMC.ITERATIVE_LIMIT`.
    ITERATIVE_LIMIT = 5_000

    _MEMO_LIMIT = 1024

    def __init__(
        self,
        states: Sequence[State],
        transitions: Sequence[Tuple],
    ):
        self.states = states if isinstance(states, range) else tuple(states)
        self.n = n = len(self.states)
        if n == 0:
            raise ModelDefinitionError("chain has no states")
        self._index: Optional[Dict[State, int]] = None
        if not isinstance(self.states, range):
            self._index = {s: i for i, s in enumerate(self.states)}
            if len(self._index) != n:
                raise ModelDefinitionError("duplicate state labels")
        interned: Dict[RateTerm, int] = {}
        rows, cols, term_ids, mult = [], [], [], []
        for t in transitions:
            rows.append(t[0])
            cols.append(t[1])
            term_ids.append(interned.setdefault(t[2], len(interned)))
            mult.append(t[3] if len(t) > 3 else 1.0)
        self._terms: Tuple[RateTerm, ...] = tuple(interned)
        self._rows = np.array(rows, dtype=np.int64)
        self._cols = np.array(cols, dtype=np.int64)
        self._term_ids = np.array(term_ids, dtype=np.int64)
        self._mult = np.array(mult, dtype=np.float64)
        bad = (self._rows == self._cols) | (np.minimum(self._rows, self._cols) < 0)
        bad |= np.maximum(self._rows, self._cols) >= n
        if bad.any():
            k = int(np.argmax(bad))
            i, j = int(self._rows[k]), int(self._cols[k])
            if i == j:
                raise ModelDefinitionError("self-loops are meaningless in a CTMC")
            raise ModelDefinitionError(f"transition ({i}, {j}) outside the {n}-state space")

        # Slots: distinct (i, j) pairs in first-insertion order, then the
        # diagonal — the COO layout CTMC.generator() emits.  A probe
        # matrix whose data encode the slot number yields the CSR
        # pattern scipy builds from that layout and each slot's position
        # in it.
        key = self._rows * n + self._cols
        distinct, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        slot_keys = np.concatenate([distinct[order], np.arange(n, dtype=np.int64) * (n + 1)])
        probe = sparse.csr_matrix(
            (np.arange(1.0, slot_keys.size + 1.0), (slot_keys // n, slot_keys % n)),
            shape=(n, n),
        )
        self._indices = probe.indices
        self._indptr = probe.indptr
        position = np.empty(slot_keys.size, dtype=np.int64)
        position[probe.data.astype(np.int64) - 1] = np.arange(slot_keys.size)
        self._slot_pos = position[: distinct.size]
        self._slot_rows = distinct[order] // n
        self._diag_pos = position[distinct.size :]
        self._trip_pos = self._slot_pos[rank[inverse]]
        self._has_duplicates = distinct.size < key.size

        from ..analyze.compiled import term_parameters

        names: Dict[str, None] = {}
        for term in self._terms:
            for name in term_parameters(term):
                names.setdefault(name)
        self._param_names: Tuple[str, ...] = tuple(names)
        #: parameter point of the warm-start reference solve
        self._build_values: Dict[str, float] = {}
        self._irreducible = False
        self._local = threading.local()
        # Stationary-vector memo keyed on the parameter values: in a
        # sweep most leaf chains see the same rates at every point.
        self._memo: Dict[Tuple, np.ndarray] = {}
        self._ref_pi: Optional[np.ndarray] = None

    @classmethod
    def from_ctmc(cls, chain) -> "CompiledCTMC":
        """Freeze an existing :class:`~repro.markov.CTMC`.

        Every transition becomes a :class:`Const` term, so the compiled
        chain reproduces ``chain.generator()`` exactly; combine with
        hand-written :class:`Param` terms when rates should track a
        sweep instead.
        """
        transitions = [
            (int(i), int(j), Const(float(v)))
            for i, j, v in zip(chain._coo_rows, chain._coo_cols, chain._coo_vals)
        ]
        return cls(chain.states, transitions)

    # ---------------------------------------------------------- pickling
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        # Thread-local buffers, the memo and the warm-start reference
        # never cross processes; workers rebuild them deterministically.
        state.update(_local=None, _memo={}, _ref_pi=None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._local = threading.local()

    # ------------------------------------------------------------ access
    def index_of(self, state: State) -> int:
        """Index of a state label (frozen at compile time)."""
        try:
            if self._index is None:
                return self.states.index(state)
            return self._index[state]
        except (KeyError, ValueError):
            raise ModelDefinitionError(f"unknown state: {state!r}") from None

    @property
    def n_states(self) -> int:
        """Number of states."""
        return self.n

    @property
    def nnz(self) -> int:
        """Stored entries of the frozen CSR pattern (diagonal included)."""
        return int(self._indices.size)

    def parameters(self) -> Tuple[str, ...]:
        """Parameter names the rate terms read, in first-use order."""
        return self._param_names

    # -------------------------------------------------------------- fill
    def _workspace(self) -> threading.local:
        ws = self._local
        if getattr(ws, "data", None) is None:
            ws.data = np.zeros(self._indices.size)
            ws.tvals = np.empty(len(self._terms))
            ws.trip = np.empty(self._term_ids.size)
        return ws

    def fill(self, values: Mapping[str, float]) -> np.ndarray:
        """Evaluate the rate terms into the thread-local CSR data buffer.

        Each distinct term is evaluated and ``check_rate``-validated once,
        in first-use order, so a bad parameter raises the
        :class:`~repro.exceptions.DistributionError` the first offending
        ``add_transition`` call would raise.  Duplicate transitions
        accumulate in insertion order and the diagonal accumulates
        ``-Σ row`` over slots in first-insertion order — the float
        operations of ``CTMC.add_transition`` + ``CTMC.generator()``.
        Returns the buffer — shared per thread, copy it to keep it
        across fills.
        """
        ws = self._workspace()
        tvals = ws.tvals
        for k, term in enumerate(self._terms):
            rate = term(values)
            check_rate(rate)
            tvals[k] = float(rate)
        trip = np.take(tvals, self._term_ids, out=ws.trip)
        trip *= self._mult
        data = ws.data
        if self._has_duplicates:
            data[...] = 0.0
            np.add.at(data, self._trip_pos, trip)
            rows, slot_values = self._slot_rows, data[self._slot_pos]
        else:  # one transition per slot, already in slot order
            data[self._trip_pos] = trip
            rows, slot_values = self._rows, trip
        diag = np.bincount(rows, weights=slot_values, minlength=self.n)
        # 0 - Σ is the bits of the in-order subtraction, +0.0 on empty rows
        data[self._diag_pos] = 0.0 - diag
        return data

    def validate(self, values: Mapping[str, float]) -> None:
        """Run the rate checks of :meth:`fill` without touching buffers.

        Raises exactly what :meth:`fill` would raise — the cheap stand-in
        when a caller needs the error contract of a model build but the
        solve itself will come from the memo.  The walk lives in
        :func:`repro.analyze.compiled.validate_terms`, the same scan the
        :func:`repro.analyze.analyze` lint reuses, so the two
        accept/reject bit-identically by construction.
        """
        from ..analyze.compiled import validate_terms

        validate_terms(self._terms, values)

    def _csr(self, data: np.ndarray) -> sparse.csr_matrix:
        return sparse.csr_matrix((data, self._indices, self._indptr), shape=(self.n, self.n))

    def generator(self, values: Mapping[str, float]) -> sparse.csr_matrix:
        """The filled generator as CSR (frozen pattern).

        Bit-identical to ``CTMC.generator()`` of the equivalent chain.
        The matrix shares the compile-time ``indices``/``indptr`` —
        refills can never perturb the pattern — and its ``data`` is the
        thread-local fill buffer: copy it to keep it across fills.
        """
        return self._csr(self.fill(values))

    # ------------------------------------------------------------- solve
    def _dense(self, data: np.ndarray) -> np.ndarray:
        """Scatter filled data into the thread's dense GTH buffer."""
        ws = self._local
        if getattr(ws, "dense", None) is None:
            row_of = np.repeat(np.arange(self.n), np.diff(self._indptr))
            ws.flat = row_of * self.n + self._indices
            ws.dense = np.zeros((self.n, self.n))
        np.put(ws.dense, ws.flat, data)
        return ws.dense

    def _reference(self) -> Optional[np.ndarray]:
        """The warm-start vector of solves above :attr:`ITERATIVE_LIMIT`.

        Solved cold at the build values through the validated front
        door, once per process.  Warm-starting every point from this
        *same* deterministic vector (instead of chaining point to point)
        keeps results independent of evaluation order — serial, thread
        and process sweeps stay bit-identical.  ``None`` (cold starts)
        when the build values do not cover every parameter.
        """
        if self._ref_pi is None and set(self._param_names) <= set(self._build_values):
            self._ref_pi = solve_steady_state(
                self.generator(self._build_values), iterative_limit=self.ITERATIVE_LIMIT
            ).pi
        return self._ref_pi

    def steady_state(self, values: Mapping[str, float]) -> np.ndarray:
        """Stationary vector at one parameter point (index order).

        The kernel is chosen by state count alone.  Up to
        :attr:`DENSE_LIMIT` states GTH runs on the filled buffer with
        ``validated=True`` (the fill enforces positive finite rates) and
        returns the same bits as the uncompiled ``CTMC.steady_state()``.
        Above it the filled generator goes through
        :func:`~repro.markov.fallback.solve_steady_state`, warm-started
        from :meth:`_reference` above :attr:`ITERATIVE_LIMIT`.  The front
        door's irreducibility check runs once per frozen structure, on
        the first solve: every rate is positive, so it cannot change
        between points.
        """
        x0 = self._reference() if self.n > self.ITERATIVE_LIMIT else None
        tracer = get_tracer()
        t0 = perf_counter()
        data = self.fill(values)
        t1 = perf_counter()
        if not self._irreducible:
            require_irreducible(generator_diagnostics(self._csr(data)))
            self._irreducible = True
        if self.n <= self.DENSE_LIMIT:
            pi = gth_solve(self._dense(data), validated=True)
        else:
            pi = solve_steady_state(
                self._csr(data), iterative_limit=self.ITERATIVE_LIMIT, x0=x0
            ).pi
        if tracer.enabled:
            t2 = perf_counter()
            tracer.metrics.counter("compile.reuse", kind="ctmc").inc()
            tracer.metrics.counter("compile.fill_seconds").inc(t1 - t0)
            tracer.metrics.counter("compile.solve_seconds").inc(t2 - t1)
        return pi

    def memo_key(self, values: Mapping[str, float]) -> Tuple:
        """Memo key for one parameter point: the raw swept values."""
        return tuple(values[name] for name in self._param_names)

    def memoized(self, values: Mapping[str, float]) -> bool:
        """Whether :meth:`steady_state_cached` would be a memo hit."""
        return self.memo_key(values) in self._memo

    def steady_state_cached(self, values: Mapping[str, float]) -> np.ndarray:
        """Memoized :meth:`steady_state` — treat the result as read-only.

        Sweeps usually vary a handful of parameters; every leaf chain
        whose rates happen to be constant across points re-solves the
        identical generator at every one of them.  The memo keys on the
        raw parameter values, so a hit returns the exact array an
        earlier solve produced (bit-identity is trivial).  Failures are
        never cached — a bad value misses the memo, and the fill inside
        :meth:`steady_state` raises exactly as the uncompiled build
        would.  Chains above :attr:`DENSE_LIMIT` states are never
        memoized, so the memo holds no large vectors.
        """
        if self.n > self.DENSE_LIMIT:
            return self.steady_state(values)
        key = self.memo_key(values)
        pi = self._memo.get(key)
        if pi is None:
            pi = self.steady_state(values)
            if len(self._memo) >= self._MEMO_LIMIT:
                self._memo.clear()
            self._memo[key] = pi
        else:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.metrics.counter("compile.reuse", kind="ctmc-memo").inc()
        return pi

    # --------------------------------------------------------- transient
    def initial_vector(self, initial) -> np.ndarray:
        """Initial probability vector from a label or a distribution."""
        vec = np.zeros(self.n)
        if isinstance(initial, Mapping):
            total = 0.0
            for state, prob in initial.items():
                vec[self.index_of(state)] = float(prob)
                total += float(prob)
            if abs(total - 1.0) > 1e-9:
                raise ModelDefinitionError(
                    f"initial probabilities sum to {total}, expected 1"
                )
        else:
            vec[self.index_of(initial)] = 1.0
        return vec

    def transient(
        self,
        values: Mapping[str, float],
        times,
        initial,
        method: str = "auto",
        tol: float = 1e-10,
    ) -> np.ndarray:
        """Transient probabilities ``(len(times), n)`` at one point.

        Delegates the filled generator to
        :func:`~repro.markov.solvers.solve_transient`; across nearby
        points with identical rates the Poisson truncation points are
        served from the ``(λt, tol)`` memo instead of being re-derived.
        """
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        p0 = self.initial_vector(initial)
        q = self.generator(values)
        return solve_transient(q, p0, ts, method=method, tol=tol)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_states={self.n}, nnz={self.nnz}, "
            f"n_terms={len(self._terms)}, parameters={list(self._param_names)})"
        )
