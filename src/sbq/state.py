"""Dynamical state of one realization: vorticity, temperature, time, and the
running blow-up integral, plus the quantities derived from the fields.

The derived quantities are computed on first use and cached, as
``SpectralField.values()`` caches samples.  The stepper and
``compute_record`` both read them, so ``run``, which records a state before
stepping from it, evaluates each state's gradient sups once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import SpectralField, VelocityField, biot_savart, derivative, linf_norm


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
    def grad_theta(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical samples of (d_x theta, d_y theta)."""
        return (derivative(self.theta, "x").values(),
                derivative(self.theta, "y").values())

    @cached_property
    def grad_sups(self) -> tuple[float, float]:
        """(||grad u||_inf, ||grad theta||_inf), each the collocation sup
        over every partial derivative; their sum is the blow-up integrand."""
        u = self.velocity
        gu = max(linf_norm(derivative(c, axis))
                 for c in (u.u1, u.u2) for axis in ("x", "y"))
        gth = max(float(np.max(np.abs(g))) for g in self.grad_theta)
        return gu, gth
