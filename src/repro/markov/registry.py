"""The solver tables behind the two Markov front doors.

Each table is a literal name → kernel mapping; a backend is a row.

* :data:`STEADY_STATE`, read by
  :func:`~repro.markov.fallback.solve_steady_state`: ``gth``,
  ``direct``, ``power`` and the Krylov ``gmres`` / ``bicgstab``
  (:mod:`repro.sparse.krylov`, imported lazily).  Each kernel is
  called as ``fn(q, dense, x0)``: the validated CSR generator, its
  dense copy (``None`` when the front door did not densify) and an
  optional warm start (ignored by direct kernels).
* :data:`TRANSIENT`, read by :func:`~repro.markov.solvers.solve_transient`:
  ``uniformization``, ``ode``, ``krylov`` and ``expm_multiply``, each
  called as ``fn(q, initial, times, tol=..., max_terms=...)``.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..exceptions import SolverError
from .solvers import (
    gth_solve,
    steady_state_direct,
    steady_state_power,
    transient_ode,
    transient_uniformization,
)

__all__ = [
    "SolverMethod",
    "SolverRegistry",
    "STEADY_STATE",
    "TRANSIENT",
    "GTH_DENSE_LIMIT",
    "TRANSIENT_KRYLOV_LIMIT",
    "record_iterations",
    "consume_iterations",
]

#: GTH materializes a dense n×n copy; above this many states the dense
#: buffer alone exceeds ~3 GiB and the O(n³) elimination is hopeless, so
#: the GTH stage refuses and the ``"auto"`` chain leaves it out.
GTH_DENSE_LIMIT = 20_000

#: ``solve_transient(method="auto")`` switches from uniformization
#: (which stores one vector per Poisson term) to Krylov ``expm_multiply``
#: stepping above this many states.
TRANSIENT_KRYLOV_LIMIT = 50_000

#: Thread-local side channel carrying the last kernel's iteration count
#: out to the front door (kernel signatures return only π, and SolverReport
#: assembly happens a frame above the kernel call).
_ITERATIONS = threading.local()


def record_iterations(count: Optional[int]) -> None:
    """Publish an iterative kernel's iteration count for this thread.

    Called by the Krylov kernels at the end of a solve; the front door
    picks it up with :func:`consume_iterations` and attaches it to the
    stage's :class:`~repro.markov.fallback.SolverAttempt`.
    """
    _ITERATIONS.value = None if count is None else int(count)


def consume_iterations() -> Optional[int]:
    """Read and clear this thread's recorded iteration count."""
    value = getattr(_ITERATIONS, "value", None)
    _ITERATIONS.value = None
    return value


class SolverMethod:
    """One table row: a method name and the kernel the front door calls."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable):
        self.name = name
        self.fn = fn


class SolverRegistry:
    """A fixed name → :class:`SolverMethod` table.

    ``kind`` names the table in error messages (``"steady-state"`` /
    ``"transient"``); ``kernels`` holds the rows, ``{name: kernel}``.
    """

    def __init__(self, kind: str, kernels: Mapping[str, Callable]):
        self.kind = kind
        self._methods = {name: SolverMethod(name, fn) for name, fn in kernels.items()}

    def get(self, name: str) -> SolverMethod:
        """Look up a method; raises SolverError if unknown."""
        try:
            return self._methods[name]
        except KeyError:
            raise SolverError(
                f"unknown {self.kind} method {name!r}; "
                f"registered: {sorted(self._methods)}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Method names, in table order."""
        return tuple(self._methods)

    def __contains__(self, name: str) -> bool:
        return name in self._methods

    def stages(self) -> Dict[str, SolverMethod]:
        """Name → method mapping (a fresh dict)."""
        return dict(self._methods)


# --------------------------------------------------------------- steady state
def _gth(q, dense=None, x0=None) -> np.ndarray:
    if dense is None:
        n = q.shape[0]
        if n > GTH_DENSE_LIMIT:
            raise SolverError(
                f"GTH would materialize a dense {n}×{n} matrix "
                f"({8 * n * n / 1e9:.1f} GB); use 'direct', 'gmres' or 'power' "
                f"above {GTH_DENSE_LIMIT} states"
            )
        dense = q.toarray()
    return gth_solve(dense, validated=True)


def _krylov(method: str) -> Callable:
    def stage(q, dense=None, x0=None) -> np.ndarray:
        from ..sparse.krylov import steady_state_iterative

        return steady_state_iterative(q, method=method, validated=True, x0=x0)

    return stage


#: The steady-state table behind
#: :func:`repro.markov.fallback.solve_steady_state`.
STEADY_STATE = SolverRegistry(
    "steady-state",
    {
        "gth": _gth,
        "direct": lambda q, dense=None, x0=None: steady_state_direct(q, validated=True),
        "power": lambda q, dense=None, x0=None: steady_state_power(q, validated=True),
        "gmres": _krylov("gmres"),
        "bicgstab": _krylov("bicgstab"),
    },
)


# ------------------------------------------------------------------ transient
def _transient_krylov(q, initial, times, tol, max_terms):
    from ..sparse.krylov import transient_krylov

    return transient_krylov(q, initial, times, tol=tol)


#: The transient table behind :func:`repro.markov.solvers.solve_transient`.
TRANSIENT = SolverRegistry(
    "transient",
    {
        "uniformization": transient_uniformization,
        "ode": lambda q, initial, times, tol, max_terms: transient_ode(q, initial, times, tol),
        "krylov": _transient_krylov,
        "expm_multiply": _transient_krylov,
    },
)
