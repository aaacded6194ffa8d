"""sparse-sweep: the 10^4-state NFV chain, compiled once, swept, then solved transiently.

Why: it runs the same ``compile``/``markov`` layers as campaign-small at
150x the state count, where the Krylov kernel dominates.  A front-door
change that helps tiny chains but costs large ones shows here, and a
speed-up bought by loosening a tolerance shows in ``unavail_digits``.

Set-up compiles the chain (lazy BFS reachability) with ``compile_nfv_chain``
in a fresh interpreter, so no memo of an earlier build can answer it.
One cycle is a ``CompiledSparseCTMC.sweep`` over ``POINTS_PER_SWEEP`` seeded
failure rates, then one transient availability solve at ``MISSION_TIMES`` on
the chain's ``SparseCTMC`` at a seeded failure rate within ``TRANSIENT_JITTER``
of the nominal one (near-fixed, so its accuracy does not swing with the seed:
transient unavailability scales with the fourth power of the failure rate).
Cycles repeat until ``--seconds`` have passed.  There are two classes of
answer.  A sweep point's latency is the run's sweep wall time per point,
and only sweep points make up the latency percentiles, so ``p50_ms`` and
``p95_ms`` coincide here.  A sweep returns its points together, so the
benchmark cannot see a tail inside one, and every sweep does the same work:
sweep-to-sweep differences are host noise.  Per-sweep figures made p95 the
slowest of about twelve sweeps, which spread by 18% over ten runs.  A
transient solve is reported on its own as ``transient_s``.  Both classes
count as answers in throughput.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import replace
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from common import (
    Pass,
    RunResult,
    check_against_oracle,
    fresh_interpreter_setups,
    peak_rss_mb,
    require_source,
)
from ledger import Ledger, install_model_layers
from speed import SpeedProbe

#: 4 VNFs x 9 replicas: (9 + 1)^4 = 10^4 tangible markings.  min_replicas=6
#: keeps unavailability (4e-11 ... 1e-5 over the sweep) representable in
#: double precision next to availability.
N_VNFS, REPLICAS, MIN_REPLICAS = 4, 9, 6
#: the 50-point sweep of E38's smoke gate on this same chain
#: (``benchmarks/bench_e38_sparse_sweep.py --smoke``)
POINTS_PER_SWEEP = 50
#: sweep failure rates span [f / RATE_SPREAD, f * RATE_SPREAD] on a log scale
RATE_SPREAD = 5.0
#: hours: one hour, a shift, a day, a week
MISSION_TIMES = (1.0, 8.0, 24.0, 168.0)
#: the transient's failure rate is the nominal one times exp(U(-j, j))
TRANSIENT_JITTER = 0.05


def _spec():
    from repro.casestudies import nfvchain

    return nfvchain.NFVChainSpec(n_vnfs=N_VNFS, replicas=REPLICAS, min_replicas=MIN_REPLICAS)


def _build():
    from repro.casestudies import nfvchain

    return nfvchain.compile_nfv_chain(_spec())


def setup() -> Tuple[List[float], None]:
    """Set-up time: a fresh interpreter's import plus chain build, ``SETUPS`` times."""
    return fresh_interpreter_setups("sparse_sweep.py", "--build"), None


def _cycles(seed: int):
    spec = _spec()
    rng = np.random.default_rng([seed, 0x5A])
    span = 2.0 * math.log(RATE_SPREAD)
    while True:
        # stratified: one rate per equal log-interval, visited in seeded
        # order, so every sweep covers the range alike and its cost does
        # not hinge on how many stiff low-rate points the seed happened to draw
        strata = rng.permutation(POINTS_PER_SWEEP) + rng.uniform(size=POINTS_PER_SWEEP)
        sweep = spec.failure_rate * np.exp(-0.5 * span + span * strata / POINTS_PER_SWEEP)
        transient = spec.failure_rate * math.exp(rng.uniform(-TRANSIENT_JITTER, TRANSIENT_JITTER))
        yield sweep, transient


def transient_oracle(failure_rate: float, times) -> np.ndarray:
    """Availability at ``times`` from one stage's dense transient, raised to ``n_vnfs``.

    Stages fail and repair independently and all start fully up, so the
    chain availability is the product of per-stage availabilities; each
    stage is an 11-state birth-death chain solved with ``scipy.linalg.expm``.
    """
    from scipy.linalg import expm

    spec = _spec()
    r = spec.replicas
    q = np.zeros((r + 1, r + 1))
    for k in range(r, 0, -1):
        q[k, k - 1] = k * failure_rate
    for k in range(r):
        q[k, k + 1] = spec.repair_rate * min(r - k, spec.repair_crews)
    np.fill_diagonal(q, -q.sum(axis=1))
    p0 = np.zeros(r + 1)
    p0[r] = 1.0
    stage = np.array([(p0 @ expm(q * t))[spec.min_replicas:].sum() for t in times])
    return stage ** spec.n_vnfs


def measure(seed: int, seconds: float, traced: bool, handle=None) -> Pass:
    from repro.sparse import SparseCTMC

    spec = _spec()
    ledger = None
    if traced:
        ledger = Ledger()
        install_model_layers(ledger)
    compiled = _build()
    up = compiled.up
    # first-sweep lazy set-up (the augmented-system gather) is not per point
    if ledger is not None:
        ledger.recording = False
    compiled.sweep([{"failure_rate": spec.failure_rate}] * 2)
    if ledger is not None:
        ledger.recording = True
    outputs: List[float] = []
    sweeps: List[Tuple[np.ndarray, np.ndarray]] = []
    transients: List[Tuple[float, np.ndarray]] = []
    sweep_wall = transient_wall = 0.0
    totals = dict(solve_seconds=0.0, iterations=0, precond_builds=0, precond_reuses=0)
    transient_times: List[float] = []
    terms: List[int] = []
    probe = SpeedProbe()
    deadline = perf_counter() + seconds
    for rates, rate in _cycles(seed):
        points = [{"failure_rate": float(r)} for r in rates]
        span = ledger.span("sparse.sweep") if ledger is not None else None
        t0 = perf_counter()
        if span is None:
            values = compiled.sweep(points)
        else:
            with span:
                values = compiled.sweep(points)
        dt = perf_counter() - t0
        sweep_wall += dt
        probe.after(dt)
        stats = compiled.last_sweep_stats
        totals["solve_seconds"] += stats.solve_seconds
        totals["iterations"] += sum(i for i in stats.iterations if i is not None)
        totals["precond_builds"] += stats.precond_builds
        totals["precond_reuses"] += stats.precond_reuses
        sweeps.append((rates, values))
        outputs.extend(float(v) for v in values)

        q = compiled.generator({"failure_rate": rate, "repair_rate": spec.repair_rate}).copy()
        chain = SparseCTMC(q, up=up)
        before = len(ledger.state().samples["uniformization_terms"]) if ledger else 0
        t0 = perf_counter()
        availability = chain.transient(np.asarray(MISSION_TIMES))[:, up].sum(axis=1)
        dt = perf_counter() - t0
        if ledger is not None:
            new = ledger.state().samples["uniformization_terms"][before:]
            if new:
                terms.append(max(new))
        transient_wall += dt
        probe.after(dt)
        transient_times.append(dt)
        transients.append((rate, availability))
        outputs.extend(float(v) for v in availability)
        if perf_counter() >= deadline:
            break
    n_points = sum(len(v) for _, v in sweeps)
    p = Pass(latencies=[sweep_wall / n_points] * n_points, wall=sweep_wall + transient_wall,
             outputs=outputs, other_answers=len(transients), speed_factor=probe.factor)
    p.peak_rss_mb = peak_rss_mb()
    p.extras = {
        "answers": n_points,
        "answer_seconds": sweep_wall,
        "sweep_points": n_points,
        "sweeps": len(sweeps),
        "sweep_ms_per_point": 1e3 * sweep_wall / n_points,
        "transient_s": statistics.median(transient_times),
        **totals,
    }
    if terms:
        p.extras["uniformization_terms"] = statistics.mean(terms)
    if ledger is not None:
        ledger.stop()
        p.summary = ledger.summary()
        p.ledger = ledger
    p.check_data = (sweeps, transients)
    return p


def check(p: Pass, result: RunResult) -> None:
    """Gate absolute availability error; record relative unavailability errors."""
    from repro.casestudies import nfvchain

    spec = _spec()
    sweeps, transients = p.check_data
    sweep_err = transient_err = 0.0
    for rates, values in sweeps:
        for rate, value in zip(rates, values):
            exact = nfvchain.analytic_availability(replace(spec, failure_rate=float(rate)))
            err = check_against_oracle(f"sweep f={rate:.6g}", value, exact, result, p.digits)
            sweep_err = max(sweep_err, err)
    for rate, availability in transients:
        exact = transient_oracle(rate, MISSION_TIMES)
        for t, value, ref in zip(MISSION_TIMES, availability, exact):
            err = check_against_oracle(f"transient f={rate:.6g} t={t}", value, ref, result,
                                       p.digits)
            transient_err = max(transient_err, err)
    p.extras["sweep_max_rel_err"] = sweep_err
    p.extras["transient_max_rel_err"] = transient_err


def named(p: Pass, setup_times: List[float]) -> Dict[str, tuple]:
    return {
        "sweep_ms_per_point": (p.extras["sweep_ms_per_point"] / p.speed_factor, "ms"),
        "transient_s": (p.extras["transient_s"] / p.speed_factor, "s"),
        "sweep_unavail_rel_err": (p.extras.get("sweep_max_rel_err", 0.0), "ratio"),
        "transient_unavail_rel_err": (p.extras.get("transient_max_rel_err", 0.0), "ratio"),
        "setup_s": (statistics.median(setup_times), "s") if setup_times else (0.0, "s"),
        "krylov_iterations_per_point": (p.extras["iterations"] / p.extras["sweep_points"], "count"),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--build"]:
        sys.exit("usage: sparse_sweep.py --build  (set-up probe; run the benchmark via run.py)")
    require_source()
    _build()
