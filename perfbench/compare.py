"""Compare two benchmark result files, workload by workload.

    python3 perfbench/run.py --repeat 10 --out A.json     # on the parent commit
    python3 perfbench/run.py --repeat 10 --out B.json     # on the change
    python3 perfbench/compare.py A.json B.json

For every workload, each end-to-end metric gets both sides' median and
quartiles and a verdict against ``BENCHMARK.json``'s bound:

* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      B's median is better by more than A's own quartile spread
                  and B won at least nine tenths of the seed-paired runs;
* ``unresolved``  A's own spread exceeds the bound, so "within bound"
                  would claim more than the runs show (unless every B run
                  beats every A run);
* ``ok``          otherwise: within the bound.

The per-layer deltas of the traced runs follow.  A per-layer delta is a
pointer to where time moved, not a verdict.  Exit code 1 when any
end-to-end metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _runs(record: dict, workload: str, traced: bool) -> list:
    return [r for r in record["runs"] if r["workload"] == workload and r["trace"] == traced]


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list, b: list, bound: float, higher_is_better: bool, pairs: list) -> str:
    a1, am, a3 = _quartiles(a)
    _, bm, _ = _quartiles(b)
    sign = -1.0 if higher_is_better else 1.0
    worse_by = sign * (bm - am) / abs(am)
    if worse_by > bound:
        return "worse"
    better = [sign * (y - x) < 0 for x, y in pairs]
    if (
        pairs
        and sum(better) >= 0.9 * len(pairs)
        and abs(bm - am) > (a3 - a1)
        and sign * (bm - am) < 0
    ):
        return "better"
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if (a3 - a1) / abs(am) > bound and not all_better:
        return "unresolved"
    return "ok"


def compare(a: dict, b: dict, spec: dict) -> int:
    status = 0
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        runs_a, runs_b = _runs(a, workload, False), _runs(b, workload, False)
        if not runs_a or not runs_b:
            print(f"== {workload}: missing in one file, skipped")
            continue
        print(f"== {workload}  ({len(runs_a)} vs {len(runs_b)} runs)")
        print(f"  {'metric':24s} {'A q1/med/q3':>32s} {'B q1/med/q3':>32s} {'delta':>8s}  verdict")
        by_seed_b = {r["seed"]: r for r in runs_b}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in runs_a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in runs_b if name in r["metrics"]]
            if not va or not vb:
                continue
            pairs = [
                (r["metrics"][name]["value"], by_seed_b[r["seed"]]["metrics"][name]["value"])
                for r in runs_a
                if r["seed"] in by_seed_b and name in by_seed_b[r["seed"]]["metrics"]
            ]
            v = verdict(va, vb, metric["bound"], metric["better"] == "higher", pairs)
            if v == "worse":
                status = 1
            qa, qb = _quartiles(va), _quartiles(vb)
            delta = (qb[1] - qa[1]) / abs(qa[1])
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"  {name:24s} {fmt.format(*qa):>32s} {fmt.format(*qb):>32s} "
                  f"{delta:>+7.1%}  {v} (bound {metric['bound']:.0%}, {metric['unit']})")
        traced_a, traced_b = _runs(a, workload, True), _runs(b, workload, True)
        if traced_a and traced_b:
            print("  per-layer (traced run)        A             B         delta")
            ma, mb = traced_a[0]["metrics"], traced_b[0]["metrics"]
            for name in ma:
                if name not in mb:
                    continue
                x, y = ma[name]["value"], mb[name]["value"]
                if x == 0 and y == 0:
                    continue
                delta = f"{(y - x) / abs(x):+.1%}" if x else "new"
                print(f"    {name:36s} {x:>12.5g} {y:>12.5g} {delta:>8s} {ma[name]['unit']}")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads(BENCHMARK.read_text())
    return compare(a, b, spec)


if __name__ == "__main__":
    sys.exit(main())
