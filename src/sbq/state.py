"""Dynamical state of realizations: vorticity, temperature, time, and the
running blow-up integral, plus the quantities derived from the fields.

:class:`Lanes` is R realizations ("lanes") at one time on one grid, their
fields stacked (R, 2, n, n/2 + 1) on a leading axis: the stepper's unit of
work and the one holder of what is derived from the fields.  Its velocity,
grad u and grad theta samples (one batched inverse; ``grad_theta`` names
the last two planes, a layout only this module knows) and gradient sups
are computed on first use, in this thread's workspace (:mod:`sbq.spectral`).
The stepper's stages read stacks, the start stack and the Heun predictor,
and :func:`sbq.diagnostics.compute_records` reads them too, so a run, which
records a stack before stepping from it, evaluates each stack's samples
once.  Every operation runs plane by plane or lane by lane, so a lane's
bits never depend on the other lanes.

:class:`SimState` is one realization.  A lane's state (:meth:`Lanes.state`)
is a plain view of the lane's fresh fields, never of the workspace; a state
computes its own velocity, samples and sups on first use, into fresh arrays
it caches, and :meth:`Lanes.of` reads those (a state repeated across lanes
pays one gradient inverse).

Inside the 2/3 ball: fields with no mode the 2/3 rule removes
(:func:`sbq.spectral._in_ball`; the ``random_hs`` initial states, and every
stack the stepper makes from such fields) have gradients inside it too.
Their samples take the pruned inverse of ``_to_physical(..., in_ball=True)``,
which runs ``ifft`` only on the columns k2 <= n/3 and needs no zero fill;
the other columns are zero, so the bits are those of ``irfft2``, and the
grad theta planes are those a stage's dealiased inverse would make, so a
stage reads them instead.  Fields outside the ball (``from_physical``
fields such as Taylor-Green, a snapshot read back) keep the full inverse.
A lone state scans its fields; a stack carries the fact (``Lanes.in_ball``).
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
        return _grad_sups(self._samples[None])[0]


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


def _grad_sups(samples: np.ndarray) -> list:
    """(||grad u||_inf, ||grad theta||_inf) of each lane's gradient samples
    (R, 6, n, n): max |g| = max(max g, -min g), exact, over the lane's
    contiguous grad u and grad theta blocks."""
    flat, split = samples.reshape(len(samples), -1), 4 * samples[0, 0].size
    return list(zip(*(np.maximum(block.max(axis=1), -block.min(axis=1)).tolist()
                      for block in (flat[:, :split], flat[:, split:]))))


class Lanes:
    """R realizations at time ``t`` on one grid: ``fields`` (R, 2, n, n/2 + 1)
    holds each lane's omega and theta half spectra (read-only), ``accum``
    each lane's blow-up integral, ``in_ball`` whether every lane lies inside
    the 2/3 ball.

    ``velocity`` (R, 2, n, n/2 + 1), ``samples`` (R, 6, n, n) and ``sups``
    (one (||grad u||_inf, ||grad theta||_inf) per lane) are computed on first
    use for the whole stack, the first two in buffers of this thread's
    workspace that every stack shares, a step's Heun predictor included:
    they stay valid until another stack computes its own (in any step or
    run, or :meth:`of` of several states).  So a consumer of a stack the
    lane loop yields may read it and record lone states, but must not step,
    or start a run, in this thread before it resumes the loop.
    :meth:`state` views never alias the workspace.

    ``in_ball`` is carried, not scanned: :meth:`of` scans the states' fields
    once, the stepper (whose rates are zero outside the ball) hands it on,
    and :meth:`take` keeps it, rescanning only a stack outside the ball,
    which may have dropped its only lanes outside.  Should the hyper decay
    flush a stack's last modes outside to zero, the stack stays outside:
    its full inverse has the bits of the pruned one.
    """

    def __init__(self, grid: Grid, fields: np.ndarray, t: float, accum: list,
                 in_ball: bool, states: list | None = None):
        self.grid, self.fields, self.t, self.accum = grid, _read_only(fields), t, accum
        self.in_ball = in_ball
        self._states = states or [None] * len(fields)

    @classmethod
    def of(cls, states: list) -> "Lanes":
        """The lanes of given states, which must share the grid and the time;
        a state may appear more than once.  The stack reads the states' own
        velocity, samples and sups (a repeated state computes them once)."""
        grid, t = states[0].grid, states[0].t
        if any(s.grid != grid or s.t != t for s in states):
            raise ValueError("lanes must share the grid and the time")
        fields = np.array([(s.omega.half, s.theta.half) for s in states])
        lanes = cls(grid, fields, t, [s.blowup_accum for s in states],
                    _in_ball(fields, grid), list(states))
        lanes.velocity = np.array([(s.velocity.u1.half, s.velocity.u2.half) for s in states])
        samples, n = [s._samples for s in states], grid.n  # one lane's are not copied
        lanes.samples = samples[0][None] if len(samples) == 1 else np.stack(
            samples, out=_workspace("lane-samples", (len(samples), 6, n, n), np.float64))
        lanes.sups = [s.grad_sups for s in states]
        return lanes

    def __len__(self) -> int:
        return len(self.fields)

    @cached_property
    def velocity(self) -> np.ndarray:
        return _velocity_half(self.fields[:, 0], self.grid,
                              out=_workspace("lane-velocity", self.fields.shape))

    @cached_property
    def samples(self) -> np.ndarray:
        v, n = self.velocity, self.grid.n
        return _gradient_samples(v[:, 0], v[:, 1], self.fields[:, 1], self.grid, self.in_ball,
                                 _workspace("lane-samples", (len(self), 6, n, n), np.float64))

    @cached_property
    def sups(self) -> list:
        return _grad_sups(self.samples)

    @property
    def grad_theta(self) -> np.ndarray:
        """The (d_x theta, d_y theta) planes of ``samples``, (R, 2, n, n)."""
        return self.samples[:, 4:]

    def state(self, lane: int) -> SimState:
        """Lane ``lane`` as a :class:`SimState` viewing the stack's fields."""
        if self._states[lane] is None:
            g, f = self.grid, self.fields[lane]
            self._states[lane] = SimState(SpectralField(g, f[0]), SpectralField(g, f[1]),
                                          self.t, self.accum[lane])
        return self._states[lane]

    def take(self, lanes: list) -> "Lanes":
        """The given lanes, in that order, as a new stack."""
        fields = self.fields[lanes]  # a stack outside may drop its only lanes outside
        return Lanes(self.grid, fields, self.t, [self.accum[i] for i in lanes],
                     self.in_ball or _in_ball(fields, self.grid),
                     [self._states[i] for i in lanes])
