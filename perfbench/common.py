"""Shared plumbing of the repo benchmark: paths, statistics, environment, output.

Every workload module returns a :class:`RunResult`; :func:`emit` prints it
as human-readable lines followed by the one-line JSON result
(``correct``, ``attempted``, ``failed``, ``metrics``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: where traced runs write their spans and ``--out`` defaults live; ignored by git
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("serve-mixed", "campaign-small", "sparse-sweep")

#: set-ups per run (server launches, fresh-interpreter warm-ups, chain builds);
#: ``setup_s`` is their median
SETUPS = 5
#: absolute availability error allowed against an exact oracle (E38's bar)
MAX_ABS_ERR = 1e-8

#: end-to-end metric -> unit; every workload reports all of them
END_TO_END_UNITS = {
    "p50_ms": "ms",
    "p95_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "unavail_digits": "digits",
}


def require_source() -> None:
    """Put ``src/`` on the import path, or exit 2 when the checkout has none.

    A directory holding only the benchmark cannot build the program, so
    the run must fail before printing any result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for benchmark-launched Python processes (``src`` importable)."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def fresh_interpreter_setups(script: str, flag: str) -> List[float]:
    """Time ``SETUPS`` runs of ``perfbench/<script> <flag>``, each in a fresh interpreter.

    Returns the times at the reference host speed (see ``speed.py``): the
    probe samples between the runs, once per ``speed.PERIOD_S`` of set-up.
    """
    from time import perf_counter

    from speed import SpeedProbe, reference_setup_times

    probe = SpeedProbe()
    wall = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / script), flag],
            cwd=ROOT,
            env=child_env(),
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        wall.append(perf_counter() - t0)
        probe.after(wall[-1])
    return reference_setup_times(wall, probe)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def unavail_digits(numeric: float, exact: float) -> float:
    """Correct significant digits of the *unavailability* ``1 - numeric``.

    ``-log10`` of the relative unavailability error, clipped to [0, 16]
    (an exact answer counts as 16 digits).  Availability near 1 hides
    its error; unavailability is what the tutorial's downtime tables use.
    """
    rel = relative_unavail_error(numeric, exact)
    return min(16.0, max(0.0, -math.log10(max(rel, 1e-16))))


def relative_unavail_error(numeric: float, exact: float) -> float:
    """``|(1 - numeric) - (1 - exact)| / (1 - exact)``."""
    exact_u = 1.0 - exact
    return abs((1.0 - numeric) - exact_u) / exact_u


def check_against_oracle(label: str, value: float, exact: float, result: "RunResult",
                         digits: List[float]) -> float:
    """Gate ``|value - exact|`` at :data:`MAX_ABS_ERR`, append the answer's
    unavailability digits to ``digits``; return its relative unavailability error."""
    if not abs(value - exact) <= MAX_ABS_ERR:
        result.fail(f"{label}: |A - exact| = {abs(value - exact):.3g}")
    digits.append(unavail_digits(value, exact))
    return relative_unavail_error(value, exact)


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """``p50_ms``/``p95_ms`` of per-answer latencies.

    p95, not p99: on a shared host, slow phases of the CPU lasting seconds
    move a run's p99 by a third from one run to the next, which no bound
    can hold; p95 moves with the phases about as much as the median does.
    """
    return {
        "p50_ms": 1e3 * percentile(latencies_s, 0.5),
        "p95_ms": 1e3 * percentile(latencies_s, 0.95),
        "n_answers": len(latencies_s),
    }


# ----------------------------------------------------------------- environment
def _git_sha() -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> Dict[str, object]:
    """The environment block every result carries, so regressions diff cleanly."""
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------- result
@dataclass
class RunResult:
    """One workload run: counts, checks, metrics and the human-facing extras."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0
    check_failures: List[str] = field(default_factory=list)
    #: reported metrics: end-to-end (trace 0) or per-layer (trace 1), name -> (value, unit)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    #: workload-specific names (serve_p50_ms, transient_s, ...) -> (value, unit)
    named: Dict[str, tuple] = field(default_factory=dict)
    #: anything else worth keeping in the result file
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.check_failures and self.failed == 0

    def fail(self, message: str, count: int = 1) -> None:
        """Record a failed correctness check; ``count`` answers failed it."""
        self.failed += count
        if len(self.check_failures) < 20:
            self.check_failures.append(message)
        else:
            self.details["more_check_failures"] = self.details.get("more_check_failures", 0) + 1

    def result_line(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }

    def record(self) -> Dict[str, object]:
        """Everything, for ``--out`` result files and :mod:`compare`."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": environment(),
            "check_failures": self.check_failures,
            "named": {k: {"value": v, "unit": u} for k, (v, u) in self.named.items()},
            "details": self.details,
            **self.result_line(),
        }


def emit(result: RunResult, out: Optional[Path] = None) -> None:
    """Print metrics by name with units, the environment, then the result line."""
    kind = "per-layer" if result.trace else "end-to-end"
    print(f"# {result.workload} seed={result.seed} seconds={result.seconds} ({kind})")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for name, (value, unit) in result.named.items():
        print(f"  [{name}] {value:.6g} {unit}")
    for message in result.check_failures:
        print(f"CHECK FAILED: {message}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result.record(), indent=2) + "\n")
    print(json.dumps(result.result_line()), flush=True)


@dataclass
class Pass:
    """One measured pass of a workload (untraced, or traced under a ledger)."""

    #: seconds each answer took, as its caller waited for it (the percentiles' sample)
    latencies: List[float]
    #: seconds of measured work (the throughput denominator)
    wall: float
    #: every answer's value in a seed-determined order, for bit-identity checks
    outputs: List[float]
    #: answers that failed (error records, non-200 responses)
    failed: int = 0
    #: correct unavailability digits of each answer checked against an exact oracle
    digits: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: workload figures the per-layer metrics need (see ledger.layer_metrics)
    extras: Dict[str, float] = field(default_factory=dict)
    #: ledger summary of a traced pass
    summary: Optional[Dict[str, object]] = None
    #: the traced pass's ledger (its spans are written at exit)
    ledger: object = None
    #: what the workload's own correctness check needs
    check_data: object = None
    #: answers of a second class, counted in ``wall`` and throughput but kept
    #: out of the latency percentiles (sparse-sweep's transient solves)
    other_answers: int = 0
    #: the run's host-speed factor (``speed.SpeedProbe``); 1.0 for serve-mixed,
    #: whose latency is set by TCP timers and a second process, not by this CPU
    speed_factor: float = 1.0

    @property
    def answers(self) -> int:
        return len(self.latencies) + self.other_answers

    @property
    def throughput(self) -> float:
        return self.answers / self.wall if self.wall > 0 else 0.0
