"""Seeded inputs: parameter points for the nine case studies.

The program only ever sees the generated points.  A point is a *partial*
assignment — two perturbed rate or probability parameters of one case
study, every other parameter at its published default — so every point is
valid by construction and no evaluation is expected to fail.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Dict, List, Tuple

import numpy as np

from ledger import MODELS

#: perturbation range: each perturbed value is its default times a factor
#: drawn log-uniformly from [1/SPREAD, SPREAD]
SPREAD = 2.0
#: perturbed parameters per point
N_PERTURBED = 2
#: hot points per model (the dashboard pattern); fixed, not seeded, so the
#: cache-hit share and the accuracy of the hot answers do not depend on the seed
HOT_FACTORS = ((1.0, 1.0), (1.5, 0.75), (0.6, 1.3))


def model_defaults() -> Dict[str, Dict[str, float]]:
    """Each case study's default parameter point, as the serve registry publishes it."""
    from repro.casestudies import (
        bladecenter,
        boeing,
        cisco,
        nfvchain,
        rejuvenation,
        sip,
        sun,
        telecom,
        wfs,
    )

    return {
        "bladecenter": asdict(bladecenter.BladeCenterParameters()),
        "boeing": dict(boeing.PARAMETER_DEFAULTS),
        "cisco": asdict(cisco.CiscoParameters()),
        "nfvchain": asdict(nfvchain.NFVChainSpec()),
        "rejuvenation": asdict(rejuvenation.RejuvenationParameters()),
        "sip": asdict(sip.SIPParameters()),
        "sun": asdict(sun.SunParameters()),
        "telecom": asdict(telecom.TelecomParameters()),
        "wfs": asdict(wfs.WFSParameters()),
    }


def perturbable(defaults: Dict[str, Dict[str, float]]) -> Dict[str, Tuple[str, ...]]:
    """Per model, the rate and probability parameters a point may move."""
    out = {}
    for model in MODELS:
        names = tuple(
            name
            for name, value in defaults[model].items()
            if (name.endswith("_rate") or name.endswith("_probability"))
            and isinstance(value, float)
            and value > 0.0
        )
        if len(names) < N_PERTURBED:
            raise RuntimeError(f"{model}: fewer than {N_PERTURBED} perturbable parameters")
        out[model] = names
    return out


class PointMaker:
    """Builds hot (fixed) and unique (seeded) points for every model."""

    def __init__(self):
        self.defaults = model_defaults()
        self.params = perturbable(self.defaults)

    def hot(self, model: str, index: int) -> Dict[str, float]:
        names = self.params[model][:N_PERTURBED]
        factors = HOT_FACTORS[index]
        return {name: self.defaults[model][name] * f for name, f in zip(names, factors)}

    def hot_points(self) -> List[Tuple[str, Dict[str, float]]]:
        return [(m, self.hot(m, i)) for m in MODELS for i in range(len(HOT_FACTORS))]

    def unique(self, model: str, rng: np.random.Generator) -> Dict[str, float]:
        names = self.params[model]
        chosen = rng.choice(len(names), size=N_PERTURBED, replace=False)
        factors = np.exp(rng.uniform(-math.log(SPREAD), math.log(SPREAD), N_PERTURBED))
        return {
            names[int(i)]: float(self.defaults[model][names[int(i)]] * f)
            for i, f in zip(sorted(chosen), factors)
        }
