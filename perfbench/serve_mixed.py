"""serve-mixed: two keep-alive HTTP clients in a closed loop against the daemon.

Why: it is the only workload that crosses transport, ``ServeApp.handle``,
the ``ResultCache`` and the ``MicroBatcher``.  The server runs in its own
process with the daemon's defaults (``server.py``); this process is the
load generator.  Requests go round-robin over all nine registered models;
``HOT_SHARE`` of them repeat a small fixed hot set per model (a dashboard
polling the same points, which the cache should answer) and the rest are
seeded unique points, which reach every evaluator, including ``boeing``'s
per-request fault-tree and BDD rebuild.

Closed loop: each client sends its next request only after the previous
response arrived, so a slow server receives less load.  Latency is
client-observed, from sending the request to reading the whole response.
The end-to-end pass runs ``--seconds`` and then continues, up to
``3 x --seconds``, until at least ``MIN_REQUESTS`` responses are in, so
that p99 has ten samples beyond it.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import statistics
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    OUT_DIR,
    ROOT,
    SETUPS,
    Pass,
    RunResult,
    check_against_oracle,
    child_env,
    percentile,
)
from inputs import HOT_FACTORS, PointMaker
from ledger import MODELS
from speed import SpeedProbe, reference_setup_times

CLIENTS = 2
HOT_SHARE = 0.7
MIN_REQUESTS = 1000
#: seconds allowed for a server to bind and answer /healthz
START_TIMEOUT = 60.0


class Server:
    """A launched ``server.py`` process."""

    _launched = 0

    def __init__(self, spans: Optional[Path] = None):
        Server._launched += 1
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.report_path = OUT_DIR / f"server-{os.getpid()}-{Server._launched}.json"
        cmd = [sys.executable, str(ROOT / "perfbench" / "server.py"),
               "--report", str(self.report_path)]
        if spans is not None:
            cmd += ["--trace", "1", "--spans", str(spans)]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("PORT "):
            self.kill()
            raise RuntimeError(f"server did not report its port (got {line!r})")
        return int(line.split()[1])

    def wait_healthy(self) -> None:
        deadline = perf_counter() + START_TIMEOUT
        while perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
        self.kill()
        raise RuntimeError("server never answered /healthz with 200")

    def close(self) -> dict:
        """Graceful stop (close stdin), then the server's report."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        report = json.loads(self.report_path.read_text())
        self.report_path.unlink()
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def launch(spans: Optional[Path] = None) -> Tuple[Server, float]:
    """Start a server (traced when ``spans`` names its span file); set-up
    time is launch until the first ``/healthz`` 200."""
    t0 = perf_counter()
    server = Server(spans)
    server.wait_healthy()
    return server, perf_counter() - t0


def setup() -> Tuple[List[float], Server]:
    """``SETUPS`` launches; the last server stays up for the measured pass.

    A launch is import and warm-up work in a fresh process, so its times
    are reported at the reference host speed (``speed.py``), as the other
    workloads' set-ups are; the measured pass stays wall-clock.
    """
    probe = SpeedProbe()
    wall: List[float] = []
    server = None
    for i in range(SETUPS):
        server, seconds = launch()
        wall.append(seconds)
        probe.after(seconds)
        if i < SETUPS - 1:
            server.close()
    return reference_setup_times(wall, probe), server


def _requests(maker: PointMaker, seed: int, client: int):
    """One client's seeded request sequence: ``(model, point, body)`` forever."""
    rng = np.random.default_rng([seed, 0x5E, client])
    i = client
    while True:
        model = MODELS[i % len(MODELS)]
        if rng.random() < HOT_SHARE:
            point = maker.hot(model, int(rng.integers(len(HOT_FACTORS))))
        else:
            point = maker.unique(model, rng)
        yield model, point, json.dumps(point).encode()
        i += 1


def _post(conn: http.client.HTTPConnection, model: str, body: bytes) -> Tuple[int, bytes]:
    conn.request("POST", f"/models/{model}/evaluate", body,
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def measure(seed: int, seconds: float, traced: bool, handle: Optional[Server] = None) -> Pass:
    # the end-to-end pass needs p99 with ten samples beyond it; the two
    # passes of a traced run only need the per-layer medians
    min_requests = MIN_REQUESTS if handle is not None else 0
    if handle is not None:
        server = handle
    else:
        spans = OUT_DIR / f"spans-serve-mixed-seed{seed}.jsonl" if traced else None
        server = launch(spans)[0]
    records: List[list] = [[] for _ in range(CLIENTS)]
    errors: List[BaseException] = []
    try:
        maker = PointMaker()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        for model, point in maker.hot_points():  # fill the cache the dashboard relies on
            _post(conn, model, json.dumps(point).encode())
        conn.close()

        start = perf_counter()
        soft_deadline = start + seconds
        hard_deadline = start + 3 * seconds

        def client(c: int) -> None:
            mine = records[c]
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                for model, point, body in _requests(maker, seed, c):
                    now = perf_counter()
                    if now >= hard_deadline or (
                        now >= soft_deadline and sum(map(len, records)) >= min_requests
                    ):
                        break
                    t0 = perf_counter()
                    status, data = _post(conn, model, body)
                    t1 = perf_counter()
                    mine.append((model, point, status, data, t1 - t0, t1))
            except BaseException as exc:  # reported as a failed run, never swallowed
                errors.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=4 * seconds + 60)
    finally:
        report = server.close()
    if errors:
        raise RuntimeError(f"load generator failed: {errors[0]!r}")
    answered = [r for rs in records for r in rs]
    latencies = [r[4] for r in answered]
    wall = max(r[5] for r in answered) - start
    n_common = min(len(rs) for rs in records)
    outputs: List[float] = []
    for i in range(n_common):
        for rs in records:
            outputs.append(_served_value(rs[i][2], rs[i][3]))
    p = Pass(latencies=latencies, wall=wall, outputs=outputs)
    p.failed = sum(1 for r in answered if r[2] != 200)
    p.peak_rss_mb = report["peak_rss_mb"]
    p.check_data = (answered, report["cache"])
    if report["summary"] is not None:
        p.summary = report["summary"]
        p.extras = {
            "answers": p.summary["incl_count"].get("evaluator", 0),
            "answer_seconds": p.summary["incl"].get("evaluator", 0.0),
            "client_p50_ms": 1e3 * percentile(latencies, 0.5),
        }
    return p


def _served_value(status: int, data: bytes) -> float:
    return float(json.loads(data)["value"]) if status == 200 else float("nan")


def check(p: Pass, result: RunResult) -> None:
    """Every served value equals ``RegisteredModel.evaluate`` on the same point
    (after the JSON ``repr`` round-trip); NFV answers also meet the analytic oracle."""
    from repro.casestudies import nfvchain
    from repro.serve import default_registry

    answered, _ = p.check_data
    served: Dict[Tuple[str, str], List[float]] = {}
    points: Dict[Tuple[str, str], dict] = {}
    for model, point, status, data, _, _ in answered:
        if status != 200:  # already counted as failed by measure()
            result.fail(f"{model}: HTTP {status}: {data[:200]!r}", count=0)
            continue
        key = (model, json.dumps(point, sort_keys=True))
        served.setdefault(key, []).append(_served_value(status, data))
        points[key] = point
    registry = default_registry()
    nfv = nfvchain.NFVChainSpec()
    for key, values in served.items():
        model, point = key[0], points[key]
        reference = float(repr(float(registry.get(model).evaluate(point))))
        wrong = sum(1 for v in values if v != reference)
        if wrong:
            result.fail(f"{model} {point}: served {sorted(set(values))} != evaluate "
                        f"{reference!r}", count=wrong)
        if model == "nfvchain":
            exact = nfvchain.analytic_availability(replace(nfv, **point))
            check_against_oracle(f"nfvchain {point}", reference, exact, result, p.digits)


def named(p: Pass, setup_times: List[float]) -> Dict[str, tuple]:
    _, cache = p.check_data
    return {
        "serve_p50_ms": (1e3 * percentile(p.latencies, 0.5), "ms"),
        "serve_p99_ms": (1e3 * percentile(p.latencies, 0.99), "ms"),
        "serve_qps": (p.throughput, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "requests": (p.answers, "count"),
        "server_cache_hits": (cache["hits"], "count"),
        "server_cache_misses": (cache["misses"], "count"),
    }
