"""Dynamical state of realizations: vorticity, temperature, time, and the
running blow-up integral, plus the quantities derived from the fields.

:class:`SimState` is one realization.  Its derived quantities are computed
on first use and cached, as ``SpectralField.values()`` caches samples: the
velocity, and the physical samples of grad u and grad theta from one batched
inverse transform.  The stepper (blow-up integrand, truncation cutoffs, CFL
speed, and the grad theta of its first stage) and ``compute_record`` all
read them, so ``run``, which records a state before stepping from it,
evaluates each state's samples once.  The samples' half planes are built in
the per-thread workspace of :mod:`sbq.spectral` and inverted into a fresh
array, which the state owns.

Inside the 2/3 ball: a state whose omega and theta have no mode the 2/3
rule removes (:func:`sbq.spectral._in_ball`; every state the stepper makes
from such a state is one, and so are the ``random_hs`` initial states) has
gradients inside it too.  Its samples take the pruned inverse of
``_to_physical(..., in_ball=True)``, which runs ``ifft`` only on the
columns k2 <= n/3 and needs no zero fill; the other columns are zero, so
the bits are those of ``irfft2``, and the grad theta planes are those a
stage's dealiased inverse would make, which is why the stage reads them
instead of inverting them.  A state outside the ball (``from_physical``
fields such as Taylor-Green, a snapshot read back) keeps the full inverse.
A lone state scans its fields; a stack of lanes carries the fact
(``Lanes.in_ball``).

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
from .spectral import (_gradient_half, _in_ball, _read_only, _to_physical, _velocity_half,
                       _workspace)


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
        u, g = self.velocity, self.grid
        in_ball = _in_ball(self.omega.half, g) and _in_ball(self.theta.half, g)
        return _read_only(_gradient_samples(u.u1.half, u.u2.half, self.theta.half, g, in_ball))

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
                      in_ball: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Physical samples (..., 6, n, n) of the gradients of u1, u2 and theta,
    given as half spectra (..., n, n/2 + 1): one batched inverse transform,
    into ``out`` or a fresh array.  ``in_ball`` (the fields lie inside the
    2/3 ball, and so do their gradients) prunes it to the rule's columns,
    with no zero fill: the bits of the full inverse."""
    lead, n = theta.shape[:-2], grid.n
    half = _workspace("state-samples", (*lead, 6, n, n // 2 + 1))
    for i, f in enumerate((u1, u2, theta)):
        _gradient_half(f, grid, out=half[..., 2 * i:2 * i + 2, :, :])
    if out is None:
        out = np.empty((*lead, 6, n, n))
    return _to_physical(half, grid, out=out, in_ball=in_ball)


def _grad_sups(samples: np.ndarray) -> np.ndarray:
    """(||grad u||_inf, ||grad theta||_inf) of gradient samples
    (..., 6, n, n), stacked (..., 2): max |g| = max(max g, -min g), exact."""
    peaks = np.maximum(samples.max(axis=(-2, -1)), -samples.min(axis=(-2, -1)))
    return np.stack((peaks[..., :4].max(axis=-1), peaks[..., 4:].max(axis=-1)), axis=-1)


class Lanes:
    """R realizations at time ``t`` on one grid: ``fields`` (R, 2, n, n/2 + 1)
    holds each lane's omega and theta half spectra (read-only), ``accum``
    each lane's blow-up integral, ``in_ball`` whether every lane lies inside
    the 2/3 ball.

    ``velocity`` (R, 2, n, n/2 + 1), ``samples`` (R, 6, n, n) and ``sups``
    (one (||grad u||_inf, ||grad theta||_inf) per lane) are computed on first
    use for the whole stack, the first two into fresh arrays that the lanes'
    states share.  A step reads only ``stage_velocity``, ``stage_samples``
    and ``sups``, which leave the velocity and the samples in the workspace
    unless a state needs them (records, :meth:`states`), so a step allocates
    only the new fields.  Inside the ball the samples come from the pruned
    inverse, and a step's first stage reads its grad theta from them.

    ``in_ball`` is carried, not scanned: :meth:`of` scans the states' fields
    once, the stepper (whose rates are zero outside the ball) hands it on,
    and :meth:`take` keeps it, rescanning only a stack outside the ball,
    which may have dropped its only lanes outside.  Should the hyper decay
    flush a stack's last modes outside to zero, the stack stays outside:
    its full inverse has the bits of the pruned one.  Lanes built from
    states read those states' own caches; their samples are the
    ``stage_samples``, stacked in the workspace when there are several.
    """

    def __init__(self, grid: Grid, fields: np.ndarray, t: float, accum: list,
                 in_ball: bool, states: list | None = None):
        self.grid, self.fields, self.t, self.accum = grid, _read_only(fields), t, accum
        self.in_ball = in_ball
        self._states = states or [None] * len(fields)

    @classmethod
    def of(cls, states: list) -> "Lanes":
        """The lanes of given states, which must share the grid and the time;
        a state may appear more than once."""
        grid, t = states[0].grid, states[0].t
        if any(s.grid != grid or s.t != t for s in states):
            raise ValueError("lanes must share the grid and the time")
        fields = np.array([(s.omega.half, s.theta.half) for s in states])
        lanes = cls(grid, fields, t, [s.blowup_accum for s in states],
                    _in_ball(fields, grid), list(states))
        lanes.velocity = np.array([(s.velocity.u1.half, s.velocity.u2.half) for s in states])
        samples, n = [s._samples for s in states], grid.n  # one lane's are not copied
        lanes.stage_samples = samples[0][None] if len(samples) == 1 else np.stack(
            samples, out=_workspace("lane-samples", (len(samples), 6, n, n), np.float64))
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
        return _read_only(_gradient_samples(v[:, 0], v[:, 1], self.fields[:, 1], self.grid,
                                            self.in_ball))

    @cached_property
    def stage_samples(self) -> np.ndarray:
        """``samples`` if computed, else the same in the workspace: what a
        step from these lanes reads when no state keeps them."""
        if "samples" in vars(self):
            return self.samples
        v, n = self.stage_velocity, self.grid.n
        return _gradient_samples(v[:, 0], v[:, 1], self.fields[:, 1], self.grid, self.in_ball,
                                 _workspace("lane-samples", (len(self), 6, n, n), np.float64))

    @cached_property
    def sups(self) -> list:
        return _grad_sups(self.stage_samples).tolist()

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
        fields = self.fields[lanes]  # a stack outside may drop its only lanes outside
        return Lanes(self.grid, fields, self.t, [self.accum[i] for i in lanes],
                     self.in_ball or _in_ball(fields, self.grid),
                     [self._states[i] for i in lanes])
