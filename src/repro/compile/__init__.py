"""repro.compile — compiled-model sweep kernels.

Separates **symbolic structure** (built once) from **numeric fill**
(per sweep point):

* :class:`CompiledCTMC` — the one frozen-structure, symbolic-rate
  chain: frozen state order and CSR pattern from ``(i, j, term,
  multiplier)`` triplets, ``fill`` into a preallocated data buffer, and
  a steady-state kernel chosen by state count (GTH up to 2 000 states,
  the ``solve_steady_state`` front door above);
* :class:`CompiledSparseCTMC` — the :class:`CompiledCTMC` that one
  lazy-reachability BFS builds, plus an up mask, build-value defaults,
  the engine evaluator protocol and warm-started Krylov ``sweep``
  (:func:`continuation_order` orders campaigns so neighbors stay close
  in parameter space);
* :class:`CompiledStructureFunction` — RBD/fault-tree structure
  lowered once, all sweep points evaluated in one vectorized pass;
* :func:`compile_model` / :func:`supports_compilation` — turn case
  studies and model objects into picklable batch evaluators the engine
  ships once per worker.

All compiled paths are bit-identical to their uncompiled counterparts
(warm-started ``sweep`` chains are the documented tolerance-level
exception); see ``docs/PERFORMANCE.md`` for when compilation pays off.
"""

from .ctmc import CompiledCTMC, Complement, Const, Param, RateTerm, Scaled, Times
from .model import (
    CompiledBladeCenter,
    CompiledCiscoRouter,
    CompiledEvaluator,
    CompiledSunPlatform,
    compile_model,
    supports_compilation,
)
from .sparse import CompiledNFVChain, CompiledSparseCTMC, SweepStats, continuation_order
from .structure import CompiledStructureFunction

__all__ = [
    "RateTerm",
    "Const",
    "Param",
    "Scaled",
    "Times",
    "Complement",
    "CompiledCTMC",
    "CompiledSparseCTMC",
    "CompiledStructureFunction",
    "CompiledEvaluator",
    "CompiledBladeCenter",
    "CompiledCiscoRouter",
    "CompiledSunPlatform",
    "CompiledNFVChain",
    "SweepStats",
    "compile_model",
    "supports_compilation",
    "continuation_order",
]
