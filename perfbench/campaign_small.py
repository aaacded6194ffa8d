"""campaign-small: serial ``run_campaign`` over seeded unique points of all nine case studies.

Why: every point misses every cache and the chains have 2-64 states, so
time goes to engine dispatch, compiled fill and the ``markov`` front door
around tiny kernels.  The run never touches transport, the serve cache or
the micro-batcher: a serve-only change must leave it flat.

One round is one ``run_campaign(evaluate_availability, PointsCampaign(points))``
per case study, ``POINTS_PER_CALL`` points each; rounds repeat until
``--seconds`` have passed.  Every figure is the benchmark's own: an answer
is one requested point, and its latency is its study's wall time per point
over the run (the summed wall time of that study's ``run_campaign`` calls
divided by their points); throughput divides all points by the summed
``run_campaign`` wall time.

Why a study's run mean and not each call's own wall time per point: every
call of a study does the same kind of work, so call-to-call differences
are host noise, which on a shared host swings a 0.1 s call by +-30% from
one second to the next.  With per-call figures the median answer fell
where the telecom and WFS calls overlap, at roughly the 75th percentile of
some twenty noisy calls.  The run mean keeps what the percentiles are for:
ranking the studies by what a point of each costs.
"""

from __future__ import annotations

import importlib
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
from inputs import PointMaker
from ledger import MODELS, Ledger, install_model_layers
from speed import SpeedProbe

#: the repo's documented campaign size: the 200-point sweeps of README's
#: durable-campaign example, docs/DURABILITY.md and E33 (bench_e33_compile.py)
POINTS_PER_CALL = 200


def _evaluators() -> Dict[str, object]:
    return {
        m: importlib.import_module(f"repro.casestudies.{m}").evaluate_availability
        for m in MODELS
    }


def warm_up() -> None:
    """Import and first call: one default point through ``run_campaign`` per study."""
    from repro.engine import PointsCampaign, run_campaign

    for fn in _evaluators().values():
        run_campaign(fn, PointsCampaign([{}]))


def setup() -> Tuple[List[float], None]:
    """Set-up time: a fresh interpreter's import plus first-call warm-up, ``SETUPS`` times."""
    return fresh_interpreter_setups("campaign_small.py", "--warm-up"), None


def _rounds(seed: int):
    """The seeded point sequence: round after round of one call per study."""
    maker = PointMaker()
    rng = np.random.default_rng([seed, 0xCA])
    while True:
        yield [(m, [maker.unique(m, rng) for _ in range(POINTS_PER_CALL)]) for m in MODELS]


def measure(seed: int, seconds: float, traced: bool, handle=None) -> Pass:
    from repro.engine import PointsCampaign, run_campaign
    from repro.robust import FaultPolicy

    warm_up()
    ledger = None
    fns = _evaluators()
    if traced:
        ledger = Ledger()
        install_model_layers(ledger)
        fns = {
            m: fn if getattr(fn, "__compiles_to__", None) else ledger.wrap("evaluator.plain", fn)
            for m, fn in fns.items()
        }
    policy = FaultPolicy("skip")
    study_wall: Dict[str, float] = dict.fromkeys(MODELS, 0.0)
    study_points: Dict[str, int] = dict.fromkeys(MODELS, 0)
    outputs: List[float] = []
    # outputs only: check() regenerates the points from the seed, so the
    # run's peak RSS does not grow with how many points a faster program fits
    calls: List[np.ndarray] = []
    failed = 0
    wall = 0.0
    probe = SpeedProbe()
    deadline = perf_counter() + seconds
    for round_ in _rounds(seed):
        for model, points in round_:
            spec = PointsCampaign(points)
            if ledger is not None:
                ledger.set_tag(model)
                t0 = perf_counter()
                with ledger.span("engine.campaign"):
                    result = run_campaign(fns[model], spec, policy=policy)
                dt = perf_counter() - t0
                ledger.set_tag(None)
            else:
                t0 = perf_counter()
                result = run_campaign(fns[model], spec, policy=policy)
                dt = perf_counter() - t0
            wall += dt
            probe.after(dt)
            study_wall[model] += dt
            study_points[model] += len(points)
            failed += len(result.errors)
            outputs.extend(float(v) for v in result.outputs)
            calls.append(result.outputs)
        if perf_counter() >= deadline:
            break
    latencies = [
        study_wall[m] / study_points[m]
        for m in MODELS
        for _ in range(study_points[m])
    ]
    p = Pass(latencies=latencies, wall=wall, outputs=outputs, failed=failed,
             speed_factor=probe.factor)
    p.peak_rss_mb = peak_rss_mb()
    p.extras = {"answers": len(latencies)}
    if ledger is not None:
        ledger.stop()
        p.summary = ledger.summary()
        p.extras["answer_seconds"] = p.summary["incl"].get("evaluator", 0.0)
        p.ledger = ledger
    p.check_data = (seed, calls)
    return p


def check(p: Pass, result: RunResult) -> None:
    """Independent routes: ``compile=False`` for the compiled studies, the
    analytic oracle for the NFV chain, and [0, 1] for every output."""
    from repro.casestudies import nfvchain
    from repro.engine import PointsCampaign, run_campaign

    fns = _evaluators()
    seed, calls = p.check_data
    sequence = (call for round_ in _rounds(seed) for call in round_)
    for (model, points), values in zip(sequence, calls):
        # NaN marks a point whose ErrorRecord measure() already counted
        bad = int(np.sum(np.isinf(values) | (values < 0.0) | (values > 1.0)))
        if bad:
            result.fail(f"{model}: {bad} outputs outside [0, 1]", count=bad)
        if model in ("bladecenter", "cisco", "sun"):
            reference = run_campaign(fns[model], PointsCampaign(points), compile=False).outputs
            differ = int(np.sum(reference != values))
            if differ:
                result.fail(f"{model}: {differ} compiled outputs differ from compile=False",
                            count=differ)
        elif model == "nfvchain":
            spec = nfvchain.NFVChainSpec()
            for point, value in zip(points, values):
                if np.isnan(value):  # an ErrorRecord, already counted
                    continue
                exact = nfvchain.analytic_availability(replace(spec, **point))
                check_against_oracle(f"nfvchain {point}", value, exact, result, p.digits)


def named(p: Pass, setup_times: List[float]) -> Dict[str, tuple]:
    return {
        "campaign_points_per_s": (p.throughput * p.speed_factor, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "calls": (len(p.check_data[1]), "count"),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--warm-up"]:
        sys.exit("usage: campaign_small.py --warm-up  (set-up probe; run the benchmark via run.py)")
    require_source()
    warm_up()
