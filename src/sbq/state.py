"""Dynamical state of realizations: vorticity, temperature, time, and the
running blow-up integral, plus the quantities derived from the fields.

:class:`SimState` is one realization.  Its derived quantities are computed
on first use and cached, as ``SpectralField.values()`` caches samples: the
velocity, and the physical samples of grad u and grad theta from one batched
inverse transform.  The stepper (blow-up integrand, truncation cutoffs, CFL
speed) and ``compute_record`` both read them, so ``run``, which records a
state before stepping from it, evaluates each state's samples once.  The
samples' half planes are built in the per-thread workspace of
:mod:`sbq.spectral` and inverted into a fresh array, which the state owns.

:class:`Lanes` is R realizations ("lanes") at one time on one grid, their
fields stacked (R, 2, n, n/2 + 1) along a leading lane axis, the stepper's
unit of work.  Its velocity, gradient samples and sups come from the same
functions as a single state's, once for the whole stack, and each lane's
:class:`SimState` (:meth:`Lanes.state`) views the stack with those caches
filled in.  Every operation runs plane by plane or lane by lane (batched
transforms, row-wise reductions), so a lane's bits never depend on the other
lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import Grid, SpectralField, VelocityField, biot_savart
from .spectral import _gradient_half, _read_only, _to_physical, _velocity_half, _workspace


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
        u = self.velocity
        return _read_only(_gradient_samples(u.u1.half, u.u2.half, self.theta.half, self.grid))

    @property
    def grad_theta(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical samples of (d_x theta, d_y theta)."""
        return self._samples[4], self._samples[5]

    @cached_property
    def grad_sups(self) -> tuple[float, float]:
        """(||grad u||_inf, ||grad theta||_inf), each the collocation sup
        over every partial derivative; their sum is the blow-up integrand."""
        gu, gth = _grad_sups(self._samples).tolist()
        return gu, gth


def _gradient_samples(u1: np.ndarray, u2: np.ndarray, theta: np.ndarray, grid: Grid,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Physical samples (..., 6, n, n) of the gradients of u1, u2 and theta,
    given as half spectra (..., n, n/2 + 1): one batched inverse transform,
    into ``out`` or a fresh array."""
    lead, n = theta.shape[:-2], grid.n
    half = _workspace("state-samples", (*lead, 6, n, n // 2 + 1))
    for i, f in enumerate((u1, u2, theta)):
        _gradient_half(f, grid, out=half[..., 2 * i:2 * i + 2, :, :])
    if out is None:
        out = np.empty((*lead, 6, n, n))
    return _to_physical(half, grid, out=out)


def _grad_sups(samples: np.ndarray) -> np.ndarray:
    """(||grad u||_inf, ||grad theta||_inf) of gradient samples
    (..., 6, n, n), stacked (..., 2): max |g| = max(max g, -min g), exact."""
    peaks = np.maximum(samples.max(axis=(-2, -1)), -samples.min(axis=(-2, -1)))
    return np.stack((peaks[..., :4].max(axis=-1), peaks[..., 4:].max(axis=-1)), axis=-1)


class Lanes:
    """R realizations at time ``t`` on one grid: ``fields`` (R, 2, n, n/2 + 1)
    holds each lane's omega and theta half spectra (read-only), ``accum``
    each lane's blow-up integral.

    ``velocity`` (R, 2, n, n/2 + 1), ``samples`` (R, 6, n, n) and ``sups``
    (one (||grad u||_inf, ||grad theta||_inf) per lane) are computed on first
    use for the whole stack, the first two into fresh arrays that the lanes'
    states share.  A step reads only ``stage_velocity`` and ``sups``, which
    leave the velocity and the samples in the workspace unless a state needs
    them (records, :meth:`states`), so a step allocates only the new fields.
    Lanes built from states (:meth:`of`) read those states' own caches.
    """

    def __init__(self, grid: Grid, fields: np.ndarray, t: float, accum: list,
                 states: list | None = None):
        self.grid, self.fields, self.t, self.accum = grid, _read_only(fields), t, accum
        self._states = states or [None] * len(fields)

    @classmethod
    def of(cls, states: list) -> "Lanes":
        """The lanes of given states, which must share the grid and the time;
        a state may appear more than once."""
        grid, t = states[0].grid, states[0].t
        if any(s.grid != grid or s.t != t for s in states):
            raise ValueError("lanes must share the grid and the time")
        lanes = cls(grid, np.array([(s.omega.half, s.theta.half) for s in states]), t,
                    [s.blowup_accum for s in states], list(states))
        lanes.velocity = np.array([(s.velocity.u1.half, s.velocity.u2.half) for s in states])
        lanes.sups = [s.grad_sups for s in states]
        return lanes

    def __len__(self) -> int:
        return len(self.fields)

    @cached_property
    def velocity(self) -> np.ndarray:
        return _read_only(_velocity_half(self.fields[:, 0], self.grid))

    @cached_property
    def stage_velocity(self) -> np.ndarray:
        """``velocity`` if computed, else the same in the workspace: what a
        step from these lanes reads when no state keeps it."""
        if "velocity" in vars(self):
            return self.velocity
        return _velocity_half(self.fields[:, 0], self.grid,
                              out=_workspace("lane-velocity", self.fields.shape))

    @cached_property
    def samples(self) -> np.ndarray:
        v = self.velocity
        return _read_only(_gradient_samples(v[:, 0], v[:, 1], self.fields[:, 1], self.grid))

    @cached_property
    def sups(self) -> list:
        samples = vars(self).get("samples")
        if samples is None:  # no state reads them: leave them in the workspace
            v, n = self.stage_velocity, self.grid.n
            samples = _workspace("lane-samples", (len(self), 6, n, n), np.float64)
            _gradient_samples(v[:, 0], v[:, 1], self.fields[:, 1], self.grid, out=samples)
        return _grad_sups(samples).tolist()

    def states(self) -> list:
        """Every lane as a :class:`SimState`; the gradient samples that
        records read come from one batched inverse for all lanes."""
        if any(state is None for state in self._states):
            self.samples
        return [self.state(lane) for lane in range(len(self))]

    def state(self, lane: int) -> SimState:
        """Lane ``lane`` as a :class:`SimState` viewing the stack, its cache
        filled with what the stack has computed so far."""
        if self._states[lane] is None:
            g, f = self.grid, self.fields[lane]
            state = SimState(SpectralField(g, f[0]), SpectralField(g, f[1]),
                             self.t, self.accum[lane])
            computed = vars(self)  # cached properties live in the instance dict
            if "velocity" in computed:
                v = self.velocity[lane]
                vars(state)["velocity"] = VelocityField(SpectralField(g, v[0]),
                                                        SpectralField(g, v[1]))
            if "samples" in computed:
                vars(state).update(_samples=self.samples[lane],
                                   grad_sups=tuple(self.sups[lane]))
            self._states[lane] = state
        return self._states[lane]

    def take(self, lanes: list) -> "Lanes":
        """The given lanes, in that order, as a new stack."""
        return Lanes(self.grid, self.fields[lanes], self.t,
                     [self.accum[i] for i in lanes], [self._states[i] for i in lanes])
