"""Machine-speed probe, so that timings survive a shared, noisy host.

On a shared host, co-tenants slow every CPU-bound step of a run together, by
up to a factor of 2, for seconds to minutes at a time.  ``probe`` times a
fixed kernel that imitates the hot path of maxbias (Python calls around a
288-node numpy dot product, inverted with scipy's ``brentq``) without
importing maxbias, so no change to the library can move it.  ``scale`` turns
the probe times taken next to a measurement into the factor that converts a
measured time to the reference speed, at which one probe takes ``REF_S``.

Measured next to the curves workload on a 2-core sandbox, the probe time and
the job time of a deck had a correlation of 0.83 over 150 s, and dividing one
by the other halved the deck-to-deck variation.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import optimize, special

# Probe time at the reference speed: a fixed unit, close to the probe's
# median on an idle 2-core sandbox.
REF_S = 0.002

_X = np.linspace(1e-3, 1.0, 288)
_W = (3.0 * _X**2 - 3.0 * _X**4 + _X**6) / (288 * np.sqrt(2.0 * np.pi))
_TARGETS = np.linspace(0.05, 0.95, 20)


def _g(s: float) -> float:
    return 2.0 * s * float(np.dot(_W, np.exp(-0.5 * np.square(s * _X)))) + 2.0 * float(
        special.ndtr(-s)
    )


def probe() -> float:
    """Seconds taken by one run of the fixed kernel."""
    t0 = time.perf_counter()
    for v in _TARGETS:
        optimize.brentq(lambda s: _g(s) - v, 1e-3, 1e3, xtol=1e-14)
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor from measured seconds to reference-speed seconds."""
    return REF_S / statistics.median(samples)
