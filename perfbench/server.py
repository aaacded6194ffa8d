"""The benchmark's own daemon launcher: ``ServeApp(default_registry())`` in its own process.

    python3 perfbench/server.py --report PATH [--trace 1 --spans PATH]

Serves with the daemon's defaults on an ephemeral localhost port, prints
``PORT <n>`` once bound, and serves until its standard input closes.  It
then shuts down gracefully and writes a JSON report: its own peak RSS, the
result-cache totals and, with ``--trace 1``, the ledger summary.  With
``--trace 1`` the ledger's wrappers are installed here, in the server
process, before any request arrives; the program itself is not changed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

from common import peak_rss_mb, require_source
from ledger import Ledger, install_model_layers


def install_serve_layers(ledger: Ledger) -> None:
    """Wrap transport-free handling, the result cache, the micro-batcher and encoding."""
    from repro.engine import canonical_point_key
    from repro.serve import app as app_module
    from repro.serve import batcher as batcher_module
    from repro.serve import schemas

    original_handle = app_module.ServeApp.handle

    def handle(self, method, path, body=b""):
        name = "serve.handle" if path.endswith("/evaluate") else "serve.handle.other"
        with ledger.span(name):
            return original_handle(self, method, path, body)

    app_module.ServeApp.handle = handle

    cache_cls = app_module.ResultCache
    original_get, original_put = cache_cls.get, cache_cls.put

    def get(self, model, assignment):
        with ledger.span("serve.cache"):
            found, value = original_get(self, model, assignment)
        if ledger.recording:
            ledger.count("serve.cache_hits" if found else "serve.cache_misses")
        return found, value

    def put(self, model, assignment, value):
        with ledger.span("serve.cache"):
            original_put(self, model, assignment, value)

    cache_cls.get, cache_cls.put = get, put

    original_submit = batcher_module.MicroBatcher.submit_many

    def submit_many(self, model, assignments):
        t0 = perf_counter()
        futures = original_submit(self, model, assignments)
        if ledger.recording:
            for assignment, future in zip(assignments, futures):
                key = (model, repr(canonical_point_key(assignment)))
                future.add_done_callback(
                    lambda _f, key=key: ledger.sample("serve.resolve", (key, perf_counter() - t0))
                )
        return futures

    batcher_module.MicroBatcher.submit_many = submit_many

    original_batch = batcher_module.evaluate_batch

    def evaluate_batch(evaluate, assignments, *args, **kwargs):
        if ledger.recording:
            ledger.count("serve.engine_calls")
            ledger.count("serve.batch_points", len(assignments))
        with ledger.span("engine.batch"):
            return original_batch(evaluate, assignments, *args, **kwargs)

    batcher_module.evaluate_batch = evaluate_batch
    ledger.patch_function(schemas, "json_body", "serve.serialize")


def wrap_registered_models(ledger: Ledger, registry) -> None:
    """Time ``RegisteredModel.evaluate`` per model, keyed by point for the batcher wait."""
    from repro.engine import canonical_point_key

    for name in registry.names():
        entry = registry.get(name)
        inner = entry.evaluate

        def evaluate(assignment, inner=inner, name=name):
            if not ledger.recording:
                return inner(assignment)
            st = ledger.state()
            previous, st.tag = st.tag, name
            idx = st.open("evaluator.serve")
            try:
                return inner(assignment)
            finally:
                st.close(idx)
                st.tag = previous
                key = (name, repr(canonical_point_key(assignment)))
                ledger.sample("serve.eval", (key, st.ends[idx] - st.starts[idx]))

        entry.evaluate = evaluate


def batcher_waits(summary) -> list:
    """Per point: micro-batcher submit until its future resolved, minus its own evaluation."""
    samples = summary["samples"]
    evaluated = {key: seconds for key, seconds in samples.pop("serve.eval", [])}
    return [
        seconds - evaluated.get(key, 0.0) for key, seconds in samples.pop("serve.resolve", [])
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark-owned serve daemon")
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spans")
    args = parser.parse_args()
    require_source()
    from repro.serve import ServeApp, create_server, default_registry

    ledger = None
    if args.trace:
        ledger = Ledger()
        install_model_layers(ledger)
        install_serve_layers(ledger)
        ledger.recording = False  # registration probes are not requests
    app = ServeApp(default_registry())
    if ledger is not None:
        wrap_registered_models(ledger, app.registry)
        ledger.recording = True
    server = create_server(app, host="127.0.0.1", port=0)
    server.start()
    print(f"PORT {server.port}", flush=True)
    sys.stdin.read()  # serve until the benchmark closes our stdin
    server.close()
    stats = app.cache.stats()
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "cache": {k: stats[k] for k in ("entries", "hits", "misses")},
        "summary": None,
    }
    if ledger is not None:
        ledger.stop()
        summary = ledger.summary()
        summary["samples"]["serve.batcher_wait"] = batcher_waits(summary)
        report["summary"] = summary
        if args.spans:
            ledger.write(Path(args.spans))
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
