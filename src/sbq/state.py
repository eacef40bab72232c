"""Dynamical state of one realization: vorticity, temperature, time, and the
running blow-up integral, plus the quantities derived from the fields.

The derived quantities are computed on first use and cached, as
``SpectralField.values()`` caches samples: the velocity, and the physical
samples of grad u and grad theta from one batched inverse transform.  The
stepper (blow-up integrand, truncation cutoffs, CFL speed) and
``compute_record`` both read them, so ``run``, which records a state before
stepping from it, evaluates each state's samples once.  The samples' half
planes are built in the per-thread workspace of :mod:`sbq.spectral` and
inverted into a fresh array, which the state owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import SpectralField, VelocityField, biot_savart
from .spectral import _gradient_half, _read_only, _to_physical, _workspace


@dataclass(frozen=True)
class SimState:
    """State (omega, theta, t) plus the left-endpoint quadrature of the
    blow-up integrand accumulated so far.

    Invariant: omega keeps a zero mean mode along every trajectory (every
    right-hand-side term is an exact derivative or a divergence-form
    transport); the steppers assert this after each step.  The cached
    properties depend on omega and theta only; ``replace`` starts an empty
    cache.
    """

    omega: SpectralField
    theta: SpectralField
    t: float = 0.0
    blowup_accum: float = 0.0

    def __post_init__(self):
        if self.omega.grid != self.theta.grid:
            raise ValueError("omega and theta on different grids")

    @property
    def grid(self):
        return self.omega.grid

    def is_finite(self) -> bool:
        return self.omega.is_finite() and self.theta.is_finite()

    @cached_property
    def velocity(self) -> VelocityField:
        """Biot-Savart velocity of omega."""
        return biot_savart(self.omega)

    @cached_property
    def _samples(self) -> np.ndarray:
        """Physical samples, from one batched inverse transform, of
        d_x u1, d_y u1, d_x u2, d_y u2, d_x theta, d_y theta; each plane
        equals the ``values()`` of the corresponding derivative."""
        u, n = self.velocity, self.grid.n
        half = _workspace("state-samples", (6, n, n // 2 + 1))
        for i, f in enumerate((u.u1, u.u2, self.theta)):
            _gradient_half(f, out=half[2 * i:2 * i + 2])
        return _read_only(_to_physical(half, self.grid, out=np.empty((6, n, n))))

    @property
    def grad_theta(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical samples of (d_x theta, d_y theta)."""
        return self._samples[4], self._samples[5]

    @cached_property
    def grad_sups(self) -> tuple[float, float]:
        """(||grad u||_inf, ||grad theta||_inf), each the collocation sup
        over every partial derivative; their sum is the blow-up integrand."""
        gu = max(float(np.max(np.abs(g))) for g in self._samples[:4])
        gth = max(float(np.max(np.abs(g))) for g in self.grad_theta)
        return gu, gth
