"""Machine-speed probe for a shared host.

Other tenants of the benchmark host slow it down in phases that last from
seconds to minutes; the same step then takes up to twice as long, in CPU
time as well as in wall time.  A fixed numpy kernel, independent of sbq,
is timed right before every operation and every set-up, and each time the
benchmark gates is scaled by ``REFERENCE_MS / probe``: the figure the
operation would have taken on a machine where the probe takes
``REFERENCE_MS``.  The raw figures are reported alongside.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's time in the host's undisturbed state (2-core x86-64 sandbox,
# numpy 2.4 pocketfft); a constant, so scaled figures keep their units
REFERENCE_MS = 5.0
_FIELD = np.random.default_rng(0).standard_normal((128, 128))


def probe_ms() -> float:
    """Mean time of ten 128 x 128 FFT round trips, over four repetitions."""
    t0 = time.perf_counter()
    for _ in range(40):
        np.real(np.fft.ifft2(np.fft.fft2(_FIELD) * 0.5))
    return 1000.0 * (time.perf_counter() - t0) / 4


def scale(probe: float) -> float:
    """Factor from a time measured at ``probe`` speed to reference speed."""
    return REFERENCE_MS / probe
