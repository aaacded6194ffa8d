"""Host-speed probe: puts the compute workloads' timings on one reference speed.

On a shared virtual machine the CPU runs in slower and faster regimes,
set by neighbours on the same cores and caches, that last from seconds to
minutes.  A regime can outlast a whole run, so ten runs of the same code
spread by 20-40% however long each run is.  The probe times a fixed
reference kernel that never calls the program (interpreted Python, a
small dense solve, and a sparse matrix-vector plus Gram-Schmidt step on
10^4-long vectors: the mix campaign-small and sparse-sweep run), one sample
per :data:`PERIOD_S` of measured work, interleaved with that work.  The
run's ``factor`` is the median sample over :data:`REFERENCE_S`: above 1
when the host ran slow during the run.  Dividing a run's times by it (and
multiplying its rates by it) reports them at the reference speed.

Only the run's median sample is used.  Single samples swing with
sub-second noise that does not line up with the work around them; the
median over a run follows the regime the whole run sat in.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

import numpy as np
import scipy.sparse as sp

#: seconds of measured work per probe sample
PERIOD_S = 0.1
#: one sample's time at the reference speed: the median sample on a 2-vCPU
#: Xeon VM at 2.1 GHz with Python 3.11, NumPy 2.4 and SciPy 1.17.  It only
#: sets the scale, so reported figures read close to wall-clock ones there
REFERENCE_S = 3.0e-3


class SpeedProbe:
    """Times the reference kernel between measured units; see the module doc."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20160628)
        n = 10_000
        self._matrix = (sp.random(n, n, density=9 / n, random_state=rng, format="csr")
                        + sp.eye(n, format="csr")).tocsr()
        self._basis = rng.random((16, n))
        self._x0 = rng.random(n)
        self._dense = rng.random((48, 48)) + 48 * np.eye(48)
        self._rhs = np.ones(48)
        self.samples: List[float] = []
        self._owed = 0.0

    def _kernel(self) -> float:
        t0 = perf_counter()
        acc, table = 0, {}
        for i in range(2500):
            acc += i * i
            table[i & 63] = acc
        for _ in range(10):
            np.linalg.solve(self._dense, self._rhs)
        x = self._x0
        for _ in range(6):
            w = self._matrix @ x
            w = w - (self._basis @ w) @ self._basis
            x = w / np.linalg.norm(w)
        return perf_counter() - t0

    def after(self, busy_s: float) -> None:
        """Account ``busy_s`` seconds of measured work; sample once per :data:`PERIOD_S`."""
        self._owed += busy_s
        while self._owed >= PERIOD_S or not self.samples:
            self.samples.append(self._kernel())
            self._owed = max(0.0, self._owed - PERIOD_S)

    @property
    def factor(self) -> float:
        """Median sample over :data:`REFERENCE_S` (1.0 before any sample)."""
        return statistics.median(self.samples) / REFERENCE_S if self.samples else 1.0


def reference_setup_times(wall: List[float], probe: SpeedProbe) -> List[float]:
    """Set-up wall times at the reference speed; prints the wall-clock ones."""
    print(f"# set-up wall times {[round(t, 4) for t in wall]} s, speed factor {probe.factor:.4f}")
    return [t / probe.factor for t in wall]
