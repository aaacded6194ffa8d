"""The per-layer ledger: benchmark-owned spans around the program's public entry points.

Nothing here edits the program.  :class:`Ledger` wraps functions and
methods at their public names (module attributes, class attributes,
registry stage callables) while a traced pass runs; each wrapper records
a span — name, start, end, parent span, and the model the answer belongs
to — in per-thread lists that stay in memory until :meth:`Ledger.write`
dumps them at exit.  A layer's *self* time is its span minus its direct
child spans; its *inclusive* time counts only outermost spans of the layer,
so a kernel called from another kernel is not counted twice.

Layers without a public boundary are counted in their parent's self time:
the residual check and the stage loop of ``solve_steady_state`` are part
of ``markov.front_door`` self time; the Krylov system assembly and Jacobi
refresh inside ``CompiledSparseCTMC.sweep`` are part of the sweep but
outside ``sparse.solve`` (read from the sweep's own ``last_sweep_stats``).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from common import percentile

#: the nine served case studies, in registry order
MODELS = (
    "bladecenter",
    "boeing",
    "cisco",
    "nfvchain",
    "rejuvenation",
    "sip",
    "sun",
    "telecom",
    "wfs",
)

#: per-layer metric -> unit; every workload reports all of them (0 where the
#: workload never reaches the layer)
PER_LAYER_UNITS: Dict[str, str] = {
    "serve.handle_ms": "ms",
    "serve.transport_gap_ms": "ms",
    "serve.transport_gap_share": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_lookups": "count",
    "serve.cache_ms": "ms",
    "serve.batcher_wait_ms": "ms",
    "serve.batch_points": "count",
    "serve.evaluate_p50_ms": "ms",
    "serve.evaluate_p99_ms": "ms",
    "serve.serialize_ms": "ms",
    "engine.self_ms_per_point": "ms",
    "engine.evaluator_ms_per_point": "ms",
    "compile.evaluate_ms": "ms",
    "compile.sparse_fill_ms": "ms",
    "markov.solves_per_point": "count",
    "markov.front_door_self_ms": "ms",
    "markov.generator_ms": "ms",
    "markov.diagnostics_ms": "ms",
    "markov.kernel_ms": "ms",
    "markov.kernel_share": "ratio",
    **{f"markov.kernel_share.{m}": "ratio" for m in MODELS},
    "nonstate.bdd_builds_per_eval": "count",
    "nonstate.bdd_ms": "ms",
    "sparse.reachability_s": "s",
    "sparse.markings_per_s": "1/s",
    "sparse.solve_ms_per_point": "ms",
    "sparse.solve_share": "ratio",
    "sparse.krylov_iterations_per_point": "count",
    "sparse.precond_builds": "count",
    "sparse.precond_reuses": "count",
    "sparse.sweep_unavail_max_rel_err": "ratio",
    "sparse.transient_unavail_max_rel_err": "ratio",
    "markov.uniformization_terms": "count",
    "bench.tracing_overhead": "ratio",
    "bench.speed_factor": "ratio",
}

#: spans whose individual durations are kept for percentiles
_KEEP_DURATIONS = ("serve.handle", "evaluator.serve")


def _group(name: str) -> str:
    """Span names sharing a group are one layer for inclusive-time accounting."""
    return "evaluator" if name.startswith("evaluator.") else name


class _ThreadSpans:
    """One thread's spans, in open order (a parent always precedes its children)."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.tags: List[Optional[str]] = []
        self.stack: List[int] = []
        self.tag: Optional[str] = None
        self.counters: Counter = Counter()
        self.samples: Dict[str, list] = defaultdict(list)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.tags.append(self.tag)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()


class _Span:
    __slots__ = ("ledger", "name", "st", "idx")

    def __init__(self, ledger: "Ledger", name: str):
        self.ledger = ledger
        self.name = name
        self.idx = None

    def __enter__(self) -> "_Span":
        if self.ledger.recording:
            self.st = self.ledger.state()
            self.idx = self.st.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        if self.idx is not None:
            self.st.close(self.idx)


class Ledger:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        self.recording = True

    # ------------------------------------------------------------- recording
    def state(self) -> _ThreadSpans:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadSpans()
            with self._lock:
                self._threads.append(st)
        return st

    def span(self, name: str) -> "_Span":
        """Context manager recording one span on the calling thread."""
        return _Span(self, name)

    def set_tag(self, tag: Optional[str]) -> None:
        """Attribute spans opened on this thread to model ``tag``."""
        self.state().tag = tag

    def count(self, name: str, n: float = 1) -> None:
        self.state().counters[name] += n

    def sample(self, name: str, value) -> None:
        self.state().samples[name].append(value)

    def wrap(self, name: str, fn: Callable, tag: Optional[str] = None) -> Callable:
        """``fn`` recording a span named ``name`` (and tagging it, if given)."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.recording:
                return fn(*args, **kwargs)
            st = ledger.state()
            previous = st.tag
            if tag is not None:
                st.tag = tag
            idx = st.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                st.close(idx)
                st.tag = previous

        return wrapper

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap ``module.attr`` and every ``repro`` module binding of the same object.

        ``from x import f`` copies the function into the importer's
        namespace, so the wrapper must replace each copy; lazy
        in-function imports read the defining module and see it too.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(name, original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str) -> None:
        setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def stop(self) -> None:
        """Stop recording (wrappers stay installed but only pass through)."""
        self.recording = False

    # ------------------------------------------------------------ aggregation
    def summary(self) -> Dict[str, object]:
        """JSON-safe aggregates of every span and counter recorded so far."""
        incl: Dict[str, float] = defaultdict(float)
        incl_count: Counter = Counter()
        self_time: Dict[str, float] = defaultdict(float)
        count: Counter = Counter()
        total: Dict[str, float] = defaultdict(float)
        by_tag: Dict[str, float] = defaultdict(float)
        by_tag_count: Counter = Counter()
        by_tag_self: Dict[str, float] = defaultdict(float)
        durations: Dict[str, list] = defaultdict(list)
        counters: Counter = Counter()
        samples: Dict[str, list] = defaultdict(list)
        n_spans = 0
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            n = len(st.ends)
            n_spans += n
            child = [0.0] * n
            ancestors: List[frozenset] = [frozenset()] * n
            memo: Dict[tuple, frozenset] = {}
            for i in range(n):
                if st.ends[i] == 0.0:
                    continue  # still open when the pass ended
                parent = st.parents[i]
                if parent >= 0:
                    key = (ancestors[parent], _group(st.names[parent]))
                    anc = memo.get(key)
                    if anc is None:
                        anc = memo[key] = key[0] | {key[1]}
                    ancestors[i] = anc
            for i in range(n - 1, -1, -1):
                end = st.ends[i]
                if end == 0.0:
                    continue
                dur = end - st.starts[i]
                name = st.names[i]
                group = _group(name)
                parent = st.parents[i]
                if parent >= 0:
                    child[parent] += dur
                count[name] += 1
                total[name] += dur
                self_time[name] += dur - child[i]
                if st.tags[i] is not None:
                    by_tag_self[f"{name}|{st.tags[i]}"] += dur - child[i]
                if group not in ancestors[i]:
                    incl[group] += dur
                    incl_count[group] += 1
                    tag = st.tags[i]
                    if tag is not None:
                        by_tag[f"{group}|{tag}"] += dur
                        by_tag_count[f"{group}|{tag}"] += 1
                if name in _KEEP_DURATIONS:
                    durations[name].append(dur)
            counters.update(st.counters)
            for key, values in st.samples.items():
                samples[key].extend(values)
        return {
            "n_spans": n_spans,
            "incl": dict(incl),
            "incl_count": dict(incl_count),
            "self": dict(self_time),
            "count": dict(count),
            "total": dict(total),
            "by_tag": dict(by_tag),
            "by_tag_count": dict(by_tag_count),
            "by_tag_self": dict(by_tag_self),
            "durations": dict(durations),
            "counters": dict(counters),
            "samples": dict(samples),
        }

    def write(self, path: Path) -> None:
        """Dump every recorded span as JSON lines:
        ``[thread, index, parent index, name, model tag, start, end]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            threads = list(self._threads)
        with path.open("w") as fh:
            for tid, st in enumerate(threads):
                for i in range(len(st.names)):
                    fh.write(
                        json.dumps(
                            [tid, i, st.parents[i], st.names[i], st.tags[i],
                             st.starts[i], st.ends[i]]
                        )
                        + "\n"
                    )


# ------------------------------------------------------------ install helpers
def install_model_layers(ledger: Ledger) -> None:
    """Wrap the layers every availability answer passes through.

    ``compile`` (the three compiled case-study evaluators and the sparse
    refill), ``markov`` (front doors, generator assembly, pre-checks,
    kernels), ``nonstate`` (the Boeing tree generator, fault-tree
    quantification and BDD managers) and ``sparse`` (lazy reachability,
    Poisson truncation of uniformization).
    """
    from repro.casestudies import boeing
    from repro.compile import model as compiled_models
    from repro.compile import sparse as compiled_sparse
    from repro.markov import ctmc, fallback, registry, solvers
    from repro.nonstate import bdd, faulttree
    from repro.sparse import krylov, reachability

    for cls in (
        compiled_models.CompiledBladeCenter,
        compiled_models.CompiledCiscoRouter,
        compiled_models.CompiledSunPlatform,
    ):
        ledger.patch_method(cls, "__call__", "evaluator.compiled")
    ledger.patch_method(compiled_sparse.CompiledNFVChain, "__call__", "evaluator.nfv")
    ledger.patch_method(compiled_sparse.CompiledSparseCTMC, "fill", "compile.sparse_fill")

    ledger.patch_method(ctmc.CTMC, "steady_state", "markov.front_door")
    ledger.patch_method(ctmc.CTMC, "generator", "markov.generator")
    ledger.patch_function(fallback, "solve_steady_state", "markov.front_door")
    ledger.patch_function(fallback, "generator_diagnostics", "markov.diagnostics")
    ledger.patch_function(solvers, "validate_generator", "markov.diagnostics")
    for attr in ("gth_solve", "steady_state_direct", "steady_state_power"):
        ledger.patch_function(solvers, attr, "markov.kernel")
    ledger.patch_function(krylov, "steady_state_iterative", "markov.kernel")
    for method in registry.STEADY_STATE.stages().values():
        method.fn = ledger.wrap("markov.kernel", method.fn)

    original_truncation = solvers.poisson_truncation_point

    @functools.wraps(original_truncation)
    def truncation(*args, **kwargs):
        terms = original_truncation(*args, **kwargs)
        if ledger.recording:
            ledger.sample("uniformization_terms", terms)
        return terms

    solvers.poisson_truncation_point = truncation

    ledger.patch_function(boeing, "generate_boeing_style_tree", "nonstate.tree")
    ledger.patch_method(faulttree.FaultTree, "top_event_probability", "nonstate.quantify")
    original_init = bdd.BDD.__init__

    @functools.wraps(original_init)
    def bdd_init(self, *args, **kwargs):
        if ledger.recording:
            ledger.count(f"nonstate.bdd_builds|{ledger.state().tag}")
        original_init(self, *args, **kwargs)

    bdd.BDD.__init__ = bdd_init

    original_build = reachability.build_sparse_reachability

    @functools.wraps(original_build)
    def build(*args, **kwargs):
        with ledger.span("sparse.reachability"):
            result = original_build(*args, **kwargs)
        if ledger.recording:
            ledger.count("sparse.markings", result.chain.n_states)
        return result

    reachability.build_sparse_reachability = build


# ------------------------------------------------------------------- metrics
def layer_metrics(summary: Dict[str, object], extras: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``extras`` carries what only the workload knows: ``answers`` (answers
    computed in the traced pass), ``answer_seconds`` (time spent computing
    them), and optional client/sweep figures (``client_p50_ms``,
    ``sweep_ms_per_point``, ``sweep_points``, ``solve_seconds``,
    ``iterations``, ``sweeps``, ``precond_builds``, ``precond_reuses``,
    ``sweep_max_rel_err``, ``transient_max_rel_err``,
    ``uniformization_terms``, ``tracing_overhead``, ``speed_factor``).  Per-answer figures
    divide by ``answers``.
    """
    incl = summary["incl"]
    self_time = summary["self"]
    count = summary["count"]
    total = summary["total"]
    by_tag = summary["by_tag"]
    durations = summary["durations"]
    counters = summary["counters"]
    answers = max(1.0, float(extras.get("answers", 0)))
    answer_s = float(extras.get("answer_seconds", 0.0))

    def per_answer_ms(seconds: float) -> float:
        return 1e3 * seconds / answers

    def mean_ms(name: str) -> float:
        return 1e3 * total.get(name, 0.0) / count[name] if count.get(name) else 0.0

    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}

    handle = durations.get("serve.handle", [])
    if handle:
        handle_p50 = 1e3 * percentile(handle, 0.5)
        m["serve.handle_ms"] = handle_p50
        client_p50 = float(extras.get("client_p50_ms", 0.0))
        if client_p50:
            m["serve.transport_gap_ms"] = client_p50 - handle_p50
            m["serve.transport_gap_share"] = (client_p50 - handle_p50) / client_p50
        m["serve.cache_ms"] = 1e3 * total.get("serve.cache", 0.0) / len(handle)
        m["serve.serialize_ms"] = mean_ms("serve.serialize")
    lookups = counters.get("serve.cache_hits", 0) + counters.get("serve.cache_misses", 0)
    m["serve.cache_lookups"] = float(lookups)
    if lookups:
        m["serve.cache_hit_ratio"] = counters.get("serve.cache_hits", 0) / lookups
    evaluated = durations.get("evaluator.serve", [])
    if evaluated:
        m["serve.evaluate_p50_ms"] = 1e3 * percentile(evaluated, 0.5)
        m["serve.evaluate_p99_ms"] = 1e3 * percentile(evaluated, 0.99)
    if counters.get("serve.engine_calls"):
        m["serve.batch_points"] = counters["serve.batch_points"] / counters["serve.engine_calls"]
    waits = summary["samples"].get("serve.batcher_wait", [])
    if waits:
        m["serve.batcher_wait_ms"] = 1e3 * percentile(waits, 0.5)

    engine_self = sum(v for k, v in self_time.items() if k.startswith("engine."))
    m["engine.self_ms_per_point"] = per_answer_ms(engine_self)
    m["engine.evaluator_ms_per_point"] = per_answer_ms(incl.get("evaluator", 0.0))

    m["compile.evaluate_ms"] = mean_ms("evaluator.compiled")
    m["compile.sparse_fill_ms"] = mean_ms("compile.sparse_fill")

    m["markov.solves_per_point"] = summary["incl_count"].get("markov.kernel", 0) / answers
    m["markov.front_door_self_ms"] = per_answer_ms(self_time.get("markov.front_door", 0.0))
    m["markov.generator_ms"] = per_answer_ms(incl.get("markov.generator", 0.0))
    m["markov.diagnostics_ms"] = per_answer_ms(incl.get("markov.diagnostics", 0.0))
    # self time: a kernel's own pre-checks (validate_generator inside an
    # unvalidated gth_solve) count as diagnostics, not kernel
    kernel = self_time.get("markov.kernel", 0.0)
    m["markov.kernel_ms"] = per_answer_ms(kernel)
    if answer_s:
        m["markov.kernel_share"] = kernel / answer_s
    for model in MODELS:
        spent = by_tag.get(f"evaluator|{model}", 0.0)
        if spent:
            kernel_self = summary["by_tag_self"].get(f"markov.kernel|{model}", 0.0)
            m[f"markov.kernel_share.{model}"] = kernel_self / spent

    n_boeing = summary["by_tag_count"].get("evaluator|boeing", 0)
    if n_boeing:
        m["nonstate.bdd_builds_per_eval"] = counters.get("nonstate.bdd_builds|boeing", 0) / n_boeing
        spent = sum(by_tag.get(f"{name}|boeing", 0.0)
                    for name in ("nonstate.tree", "nonstate.quantify"))
        m["nonstate.bdd_ms"] = 1e3 * spent / n_boeing

    if count.get("sparse.reachability"):
        built = total["sparse.reachability"]
        m["sparse.reachability_s"] = built / count["sparse.reachability"]
        m["sparse.markings_per_s"] = counters.get("sparse.markings", 0) / built
    points = float(extras.get("sweep_points", 0))
    if points:
        solve_ms = 1e3 * float(extras["solve_seconds"]) / points
        m["sparse.solve_ms_per_point"] = solve_ms
        m["sparse.solve_share"] = solve_ms / float(extras["sweep_ms_per_point"])
        m["sparse.krylov_iterations_per_point"] = float(extras["iterations"]) / points
        sweeps = max(1.0, float(extras.get("sweeps", 1)))
        m["sparse.precond_builds"] = float(extras["precond_builds"]) / sweeps
        m["sparse.precond_reuses"] = float(extras["precond_reuses"]) / sweeps
        m["sparse.sweep_unavail_max_rel_err"] = float(extras.get("sweep_max_rel_err", 0.0))
        m["sparse.transient_unavail_max_rel_err"] = float(extras.get("transient_max_rel_err", 0.0))
    m["markov.uniformization_terms"] = float(extras.get("uniformization_terms", 0.0))
    m["bench.tracing_overhead"] = float(extras.get("tracing_overhead", 0.0))
    m["bench.speed_factor"] = float(extras.get("speed_factor", 1.0))
    return m
