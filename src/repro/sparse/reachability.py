"""Lazy SRN reachability: BFS straight into CSR triplet buffers.

The eager generator (:func:`repro.petrinet.reachability.build_reachability`)
builds a dict-based :class:`~repro.markov.CTMC` — one Python object and
several dict entries per marking and per transition — which tops out
around 10^5 markings.  This module is the large-state-space path: the
same tangible BFS with the same vanishing-marking elimination, but
markings are *interned* to dense integer ids (one token-tuple → id dict,
the only per-marking structure kept), transitions stream into
chunk-allocated NumPy triplet buffers, and the result is a
:class:`~repro.sparse.ctmc.SparseCTMC` whose marking labels are
materialized lazily on access.

The BFS visits markings, transitions and vanishing-resolution targets in
exactly the order the eager generator does, so the lazy and eager paths
produce the **same state indexing** and (up to last-ulp summation
differences) the same generator — ``tests/sparse`` asserts this on every
SRN case study in the repo.

A structural *pre-flight* (P-invariant analysis from
:mod:`repro.analyze.invariants`) sizes the net before building: nets
whose invariant-implied state bound exceeds ``max_markings`` are refused
in milliseconds — before a single marking is expanded — with the
certificate attached to the :class:`~repro.exceptions.StateSpaceError`,
and nets under budget get their triplet buffers pre-sized from the
predicted edge count.  A bounded-memory guard then tracks the estimated
footprint (interning table + triplet buffers) during BFS and raises
:class:`~repro.exceptions.StateSpaceError` before the process swaps, and
the whole exploration runs inside a ``sparse.reachability`` trace span
with periodic marking/edge counters.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..exceptions import StateSpaceError
from ..obs.trace import get_tracer
from ..petrinet.net import Marking, PetriNet
from ..petrinet.reachability import _resolve_vanishing
from .ctmc import SparseCTMC, _LazySeq

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..compile.ctmc import RateTerm
    from ..petrinet.net import Transition

__all__ = ["SparseReachabilityResult", "build_sparse_reachability"]

_DEFAULT_MAX_MARKINGS = 5_000_000
_DEFAULT_CHUNK = 65_536
#: Estimated bytes per interned marking: the token tuple (56 + 8·P for
#: small ints already cached by CPython) plus its dict slot and the id.
_DICT_SLOT_BYTES = 104
#: Bytes per streamed transition triplet (int64 row + int64 col + float64).
_TRIPLET_BYTES = 24
#: Bytes per recorded ``(i, j, term, multiplier)`` tuple and its list slot
#: (the row, column, interned term and probability objects are shared).
_RECORD_BYTES = 80


class _TripletBuffer:
    """Append-only (row, col, value) store in chunk-allocated NumPy arrays."""

    __slots__ = ("_chunk", "_cap", "_allocated", "_full", "_rows", "_cols", "_vals", "_fill", "count")

    def __init__(self, chunk: int = _DEFAULT_CHUNK, initial: Optional[int] = None):
        self._chunk = int(chunk)
        # The pre-flight can pre-size the first buffer from the predicted
        # edge count, turning many chunk growths into one allocation.
        # Chunking never affects the streamed values, only allocation.
        self._cap = int(initial) if initial else self._chunk
        self._allocated = self._cap
        self._full: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rows = np.empty(self._cap, dtype=np.int64)
        self._cols = np.empty(self._cap, dtype=np.int64)
        self._vals = np.empty(self._cap, dtype=np.float64)
        self._fill = 0
        self.count = 0

    def add(self, row: int, col: int, value: float) -> None:
        if self._fill == self._cap:
            self._full.append((self._rows, self._cols, self._vals))
            self._cap = self._chunk
            self._allocated += self._cap
            self._rows = np.empty(self._cap, dtype=np.int64)
            self._cols = np.empty(self._cap, dtype=np.int64)
            self._vals = np.empty(self._cap, dtype=np.float64)
            self._fill = 0
        i = self._fill
        self._rows[i] = row
        self._cols[i] = col
        self._vals[i] = value
        self._fill = i + 1
        self.count += 1

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = [r for r, _, _ in self._full] + [self._rows[: self._fill]]
        cols = [c for _, c, _ in self._full] + [self._cols[: self._fill]]
        vals = [v for _, _, v in self._full] + [self._vals[: self._fill]]
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    @property
    def nbytes(self) -> int:
        return self._allocated * _TRIPLET_BYTES


class SparseReachabilityResult:
    """Outcome of lazy reachability analysis.

    The sparse twin of
    :class:`~repro.petrinet.reachability.ReachabilityResult`: ``chain``
    is a :class:`~repro.sparse.ctmc.SparseCTMC` instead of a dict-built
    CTMC, and ``tangible`` is a lazily-materializing sequence of
    markings rather than a list of live objects.

    When the build recorded symbolic rates (``rate_terms=``),
    ``compiled`` holds the :class:`~repro.compile.sparse.CompiledSparseCTMC`
    built from the recorded triplets (same CSR pattern as this chain's
    generator); otherwise ``None``.
    """

    def __init__(
        self,
        chain: SparseCTMC,
        initial: Dict[Marking, float],
        tangible: Sequence[Marking],
        n_vanishing: int,
    ):
        self.chain = chain
        self.initial = initial
        self.tangible = tangible
        self.n_vanishing = n_vanishing
        self.compiled = None


def build_sparse_reachability(
    net: PetriNet,
    max_markings: int = _DEFAULT_MAX_MARKINGS,
    memory_limit_mb: float = 4096.0,
    chunk: int = _DEFAULT_CHUNK,
    up: Optional[Callable[[Marking], bool]] = None,
    rate_terms: Optional[Callable[["Transition", Marking], "RateTerm"]] = None,
    rate_values: Optional[Mapping[str, float]] = None,
    preflight: bool = True,
) -> SparseReachabilityResult:
    """Generate the tangible reachability graph of ``net`` into CSR form.

    Parameters
    ----------
    net:
        The Petri net; immediate transitions are eliminated exactly as
        in the eager generator (shared vanishing-SCC solver).
    max_markings:
        Cap on tangible markings (default 5·10^6, vs 2·10^5 eager).
    memory_limit_mb:
        Bounded-memory guard: the estimated footprint of the interning
        table plus triplet buffers may not exceed this; crossing it
        raises :class:`~repro.exceptions.StateSpaceError` with the
        marking count reached, instead of driving the host into swap.
    chunk:
        Triplet-buffer chunk length (tuning knob; any positive value
        yields identical results).
    up:
        Optional predicate on markings evaluated once per discovered
        marking; the resulting boolean mask is attached to the
        :class:`SparseCTMC` as its ``up`` mask, enabling
        ``chain.availability()`` without a second pass over labels.
    rate_terms:
        Optional ``(transition, marking) -> RateTerm`` recorder (the
        symbolic algebra of :mod:`repro.compile.ctmc`).  When given, the
        BFS interns one term per *distinct* rate expression alongside
        the streamed triplets and attaches a
        :class:`~repro.compile.sparse.CompiledSparseCTMC` to the result
        (``result.compiled``), so rate-only parameter sweeps refill the
        CSR ``data`` array without re-running this BFS.  The recorded
        terms must reproduce ``transition.rate_in(marking)`` at the
        build values; the net must be built at strictly-positive rates
        (edges with non-positive build rates are structurally dropped)
        and vanishing-resolution probabilities must be
        parameter-independent (they are frozen as multipliers).
    rate_values:
        The parameter values ``net`` was built at; stored on the
        compiled chain as the defaults merged under every sweep point
        and the point its deterministic warm-start reference is solved
        at.  Only meaningful with ``rate_terms``.
    preflight:
        Structural sizing before building (default on): P-invariant
        analysis (:func:`repro.analyze.invariants.structural_analysis`)
        bounds the reachable markings in milliseconds, *before* any BFS.
        A net whose bound exceeds ``max_markings`` is refused immediately
        — the :class:`~repro.exceptions.StateSpaceError` carries the
        proof on its ``certificate`` attribute — and a net under budget
        gets its triplet buffers pre-sized from the predicted edge
        count.  The bound is an over-approximation, so a refused net
        *may* have been feasible; pass ``preflight=False`` to attempt
        the build anyway and rely on the runtime guards alone.
    """
    if chunk < 1:
        raise StateSpaceError(f"chunk must be positive, got {chunk}")

    predicted_states: Optional[int] = None
    initial_capacity: Optional[int] = None
    if preflight:
        # Imported lazily: repro.analyze pulls in model packages.
        from ..analyze.invariants import structural_analysis

        prediction = structural_analysis(net, conservation_check=False)
        if prediction.complete and prediction.state_bound is not None:
            predicted_states = prediction.state_bound
            if predicted_states > max_markings:
                raise StateSpaceError(
                    f"structural pre-flight refused the build: P-invariant "
                    f"analysis bounds the reachable markings at "
                    f"{predicted_states}, above max_markings={max_markings}; "
                    f"no marking was expanded. Raise max_markings, shrink the "
                    f"net, or pass preflight=False to attempt the build "
                    f"anyway (the bound is an over-approximation)",
                    certificate=prediction,
                )
            n_timed = sum(
                1 for t in net._transitions.values() if not t.is_immediate
            )
            expected_edges = predicted_states * max(1, n_timed)
            # Never pre-allocate more than a quarter of the memory budget.
            by_memory = int(memory_limit_mb * 1024 * 1024) // (4 * _TRIPLET_BYTES)
            initial_capacity = max(int(chunk), min(expected_edges, by_memory))
    record = rate_terms is not None
    interned: Dict = {}
    transitions: List[Tuple] = []
    memory_limit = int(memory_limit_mb * 1024 * 1024)
    places = tuple(net.places)
    token_bytes = 56 + 8 * len(places) + _DICT_SLOT_BYTES

    initial_marking = net.initial_marking()
    n_vanishing = 0
    if net.is_vanishing(initial_marking):
        n_vanishing += 1
        initial_distribution = _resolve_vanishing(net, initial_marking, max_markings)
    else:
        initial_distribution = {initial_marking: 1.0}

    index: Dict[Tuple[int, ...], int] = {}
    tokens: List[Tuple[int, ...]] = []
    up_mask = bytearray() if up is not None else None
    triplets = _TripletBuffer(chunk, initial=initial_capacity)
    queue: deque = deque()

    tracer = get_tracer()

    def intern(marking: Marking) -> int:
        key = marking.tokens
        idx = index.get(key)
        if idx is None:
            if len(tokens) >= max_markings:
                raise StateSpaceError(
                    f"reachability exceeded {max_markings} tangible markings "
                    "(state-space explosion); simplify the net or raise the cap"
                )
            idx = len(tokens)
            index[key] = idx
            tokens.append(key)
            if up_mask is not None:
                up_mask.append(1 if up(marking) else 0)
            queue.append(idx)
        return idx

    with tracer.span(
        "sparse.reachability",
        n_places=len(places),
        max_markings=int(max_markings),
        memory_limit_mb=float(memory_limit_mb),
    ) as span:
        if predicted_states is not None:
            span.set(predicted_states=int(predicted_states))
        for marking in initial_distribution:
            intern(marking)

        vanishing_cache: Dict[Marking, Dict[Marking, float]] = {}
        markings_counter = tracer.metrics.counter("sparse.reachability.markings")
        edges_counter = tracer.metrics.counter("sparse.reachability.edges")
        explored = 0
        last_markings = 0
        last_edges = 0

        while queue:
            i = queue.popleft()
            marking = Marking(places, tokens[i])
            for transition in net.enabled_transitions(marking):
                rate = transition.rate_in(marking)
                if rate <= 0.0:
                    continue
                successor = transition.fire(marking)
                if net.is_vanishing(successor):
                    if successor not in vanishing_cache:
                        n_vanishing += 1
                        vanishing_cache[successor] = _resolve_vanishing(
                            net, successor, max_markings
                        )
                    targets = vanishing_cache[successor]
                else:
                    targets = {successor: 1.0}
                if record:
                    term = rate_terms(transition, marking)
                    # one shared object per distinct term, however many
                    # transitions fire with it
                    term = interned.setdefault(term, term)
                for target, prob in targets.items():
                    if target.tokens == tokens[i]:
                        continue  # rate flows back: no net transition
                    j = intern(target)
                    triplets.add(i, j, rate * prob)
                    if record:
                        transitions.append((i, j, term, prob))
            explored += 1
            if explored % chunk == 0:
                markings_counter.inc(len(tokens) - last_markings)
                edges_counter.inc(triplets.count - last_edges)
                last_markings = len(tokens)
                last_edges = triplets.count
                estimated = len(tokens) * token_bytes + triplets.nbytes
                estimated += len(transitions) * _RECORD_BYTES
                if estimated > memory_limit:
                    raise StateSpaceError(
                        f"lazy reachability exceeded the {memory_limit_mb:.0f} MiB "
                        f"memory budget at {len(tokens)} markings / "
                        f"{triplets.count} transitions (estimated "
                        f"{estimated / 1e6:.0f} MB); raise memory_limit_mb or "
                        "shrink the model"
                    )

        markings_counter.inc(len(tokens) - last_markings)
        edges_counter.inc(triplets.count - last_edges)

        n = len(tokens)
        rows, cols, vals = triplets.arrays()
        nnz = rows.size
        # Diagonal from the streamed off-diagonal rates, mirroring
        # CTMC.generator(): in-order subtraction per stored entry.
        diag = np.zeros(n)
        np.subtract.at(diag, rows, vals)
        all_rows = np.concatenate([rows, np.arange(n, dtype=np.int64)])
        all_cols = np.concatenate([cols, np.arange(n, dtype=np.int64)])
        all_vals = np.concatenate([vals, diag])
        generator = sparse.csr_matrix(
            (all_vals, (all_rows, all_cols)), shape=(n, n), dtype=float
        )
        span.set(n_markings=n, n_transitions=int(nnz), n_vanishing=n_vanishing)

    initial_vector = np.zeros(n)
    for marking, prob in initial_distribution.items():
        initial_vector[index[marking.tokens]] = prob

    labels = _LazySeq(lambda i: Marking(places, tokens[i]), n)
    mask = (
        np.frombuffer(bytes(up_mask), dtype=np.uint8).astype(bool)
        if up_mask is not None
        else None
    )
    chain = SparseCTMC(generator, labels=labels, initial=initial_vector, up=mask)
    result = SparseReachabilityResult(chain, initial_distribution, labels, n_vanishing)
    if record:
        # Imported lazily: repro.compile pulls in this module's package.
        from ..compile.sparse import CompiledSparseCTMC

        result.compiled = CompiledSparseCTMC(
            n, transitions, up=mask, build_values=rate_values
        )
    return result
