"""The repo benchmark's one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                      # every workload, end to end
    python3 perfbench/run.py --repeat 5 --out A.json   # a result file for compare.py

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures an untraced pass, then a traced pass of the same
inputs under the per-layer ledger (each for half of ``--seconds``), checks that both passes computed
bit-identical answers, and reports the per-layer metrics.  The last line
of standard output is always one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any correctness check failed.  See ``perfbench/README.md`` for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
from pathlib import Path

# Every workload is serial.  On a 2-vCPU host a second BLAS thread did not
# shorten a sweep; it spun on the other vCPU (user time 1.4x wall) and tied
# the timings to whatever else ran there.  Set before NumPy loads; child
# processes inherit it, and a caller's own setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from common import (  # noqa: E402  (after the thread settings)
    END_TO_END_UNITS,
    OUT_DIR,
    ROOT,
    WORKLOADS,
    RunResult,
    emit,
    latency_summary,
    require_source,
)


def _module(workload: str):
    if workload == "serve-mixed":
        import serve_mixed as module
    elif workload == "campaign-small":
        import campaign_small as module
    else:
        import sparse_sweep as module
    return module


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    module = _module(workload)
    result = RunResult(workload=workload, seed=seed, seconds=seconds, trace=trace)
    if not trace:
        setup_times, handle = module.setup()
        p = module.measure(seed, seconds, traced=False, handle=handle)
        result.attempted = p.answers
        result.failed = p.failed
        module.check(p, result)
        lat = latency_summary(p.latencies)
        speed = p.speed_factor  # times at the reference host speed; see speed.py
        metrics = {
            "p50_ms": lat["p50_ms"] / speed,
            "p95_ms": lat["p95_ms"] / speed,
            "throughput_per_s": p.throughput * speed,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": p.peak_rss_mb,
            "unavail_digits": statistics.mean(p.digits) if p.digits else 0.0,
        }
        result.metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        result.named = module.named(p, setup_times)
        if speed != 1.0:
            result.named.update({
                "speed_factor": (speed, "ratio"),
                "wall_p50_ms": (lat["p50_ms"], "ms"),
                "wall_p95_ms": (lat["p95_ms"], "ms"),
                "wall_throughput_per_s": (p.throughput, "1/s"),
            })
        result.details = {
            "answers": lat["n_answers"],
            "setup_times_s": setup_times,
            "oracle_checked_answers": len(p.digits),
        }
        return result

    from ledger import PER_LAYER_UNITS, layer_metrics

    # each pass gets half the run, so a traced run costs what an untraced one does
    base = _pass_in_child(workload, seed, seconds / 2, traced=False)
    traced = _pass_in_child(workload, seed, seconds / 2, traced=True)
    result.attempted = base.answers + traced.answers
    result.failed = base.failed + traced.failed
    module.check(base, result)
    common = min(len(base.outputs), len(traced.outputs))
    mismatches = sum(
        1 for a, b in zip(base.outputs[:common], traced.outputs[:common])
        if a != b and not (a != a and b != b)  # NaN placeholders of failed points
    )
    if mismatches or common == 0:
        result.fail(f"traced pass differs from untraced on {mismatches} of {common} answers",
                    count=mismatches)
    extras = dict(traced.extras)
    for key in ("sweep_max_rel_err", "transient_max_rel_err"):
        if key in base.extras:
            extras[key] = base.extras[key]
    # each pass at the reference host speed, so a regime change between them does not count
    extras["tracing_overhead"] = ((base.throughput * base.speed_factor)
                                  / (traced.throughput * traced.speed_factor))
    extras["speed_factor"] = base.speed_factor
    layers = layer_metrics(traced.summary, extras)
    result.metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}
    result.details = {
        "bit_identical_answers": common,
        "untraced_throughput_per_s": base.throughput,
        "traced_throughput_per_s": traced.throughput,
        "spans": traced.summary.get("n_spans", 0),
        "ledger": {k: v for k, v in traced.summary.items() if k not in ("durations", "samples")},
    }
    return result


def _pass_in_child(workload: str, seed: int, seconds: float, traced: bool):
    """One measured pass in a fresh interpreter.

    The untraced and traced passes evaluate the same points, so running
    both in one process would let the program's memo tables answer the
    second pass.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"pass-{os.getpid()}-{int(traced)}.pickle"
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--pass-out", str(path)]
        + (["--trace", "1"] if traced else []),
        cwd=ROOT,
        check=True,
        timeout=300,
    )
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)  # written just now by our own child process
    finally:
        path.unlink()


def write_pass(workload: str, seed: int, seconds: float, traced: bool, path: Path) -> None:
    """Child side of :func:`_pass_in_child`: measure, write spans, pickle the pass."""
    p = _module(workload).measure(seed, seconds, traced=traced)
    if p.ledger is not None:
        p.ledger.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
        p.ledger = None
    with path.open("wb") as fh:
        pickle.dump(p, fh)


def _run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run in a fresh interpreter (so peak RSS is per run); its full record."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"run-{os.getpid()}.json"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--out", str(path)],
        cwd=ROOT,
        timeout=600,
    )
    try:
        record = json.loads(path.read_text())
        path.unlink()
    except (OSError, ValueError):
        record = {"workload": workload, "seed": seed, "trace": bool(trace), "correct": False,
                  "attempted": 0, "failed": 0, "metrics": {}}
    record["correct"] = record["correct"] and proc.returncode == 0
    return record


def run_all(args) -> int:
    """Every workload (or ``--repeat`` runs of one), each run in its own process."""
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    plan = [
        (workload, args.seed + k, trace)
        for workload in workloads
        for trace in ((0, 1) if args.repeat else (args.trace,))
        for k in range(args.repeat if (args.repeat and trace == 0) else 1)
    ]
    runs = [_run_child(workload, seed, args.seconds, trace) for workload, seed, trace in plan]
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=2) + "\n")
    first = {}
    for run in runs:
        first.setdefault((run["workload"], run["trace"]), run)
    metrics = {
        f"{workload}/{name}": value
        for (workload, _), run in first.items()
        for name, value in run["metrics"].items()
    }
    correct = all(run["correct"] for run in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(run["attempted"] for run in runs),
                      "failed": sum(run["failed"] for run in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per pass (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=0,
                        help="with --workload all or one workload: N untraced runs (seeds "
                             "seed..seed+N-1) plus one traced run each, collected into --out")
    parser.add_argument("--out", help="write the full result record (JSON) here")
    parser.add_argument("--pass-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_source()
    if args.pass_out:
        write_pass(args.workload, args.seed, args.seconds, bool(args.trace), Path(args.pass_out))
        return 0
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.workload == "all" or args.repeat:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(result, Path(args.out) if args.out else None)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
