#!/bin/sh
# Repository check gate: static checks + custom lint + test suite.
#
# ruff and mypy are optional — environments without them (e.g. the
# minimal CI image, which bakes in only numpy/scipy/networkx/pytest)
# skip those stages with a notice instead of failing.  The custom AST
# lint (tools/lint_repro.py) and the test suite always run: they need
# nothing beyond the standard library and the test dependencies.
#
# Usage: sh tools/check.sh [--no-tests]
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

status=0

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src/repro tools tests benchmarks || status=1
else
    echo "== ruff == (not installed; skipped)"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy || status=1
else
    echo "== mypy == (not installed; skipped)"
fi

echo "== lint_repro =="
python tools/lint_repro.py || status=1

echo "== analyze (case studies) =="
python -m repro.analyze || status=1

echo "== analyze --json (machine-readable gate: exit 0 clean / 1 warnings / 2 errors) =="
python -m repro.analyze --json >/dev/null || status=1

echo "== serve (selfcheck) =="
python -m repro.serve --selfcheck -q || status=1

echo "== store (selfcheck: create -> kill -> resume -> verify) =="
python -m repro.store --selfcheck -q || status=1

echo "== bench e37 (smoke: 10^4-state sparse chain under budget) =="
python benchmarks/bench_e37_sparse.py --smoke || status=1

echo "== bench e38 (smoke: 50-point compiled sparse sweep, zero re-BFS) =="
python benchmarks/bench_e38_sparse_sweep.py --smoke || status=1

echo "== bench e39 (smoke: structural pre-flight sizes nets without BFS) =="
python benchmarks/bench_e39_invariants.py --smoke || status=1

# The perfbench ledger wraps library stages by name (CompiledSparseCTMC.fill,
# the compiled case-study evaluators, CTMC.steady_state, the STEADY_STATE
# registry stages); a short traced run of each workload fails loudly when a
# rename under src/ breaks one of those hooks.
echo "== perfbench (traced smoke: every ledger hook still resolves) =="
for w in campaign-small sparse-sweep serve-mixed; do
    if ! out=$(python3 perfbench/run.py --workload "$w" --trace 1 --seconds 2 2>&1); then
        printf '%s\n' "$out"
        echo "perfbench $w smoke failed"
        status=1
    fi
done

if [ "${1:-}" != "--no-tests" ]; then
    echo "== pytest =="
    python -m pytest -q || status=1
fi

exit $status
