"""Dynamical state of realizations: vorticity, temperature, time, and the
running blow-up integral, plus the quantities derived from the fields.

:class:`Lanes` is R realizations ("lanes") at one time on one grid, their
fields stacked (R, 2, n, n/2 + 1) on a leading axis: the stepper's unit of
work and the one holder of what is derived from the fields.  Its velocity,
grad u and grad theta samples (one batched inverse; ``grad_theta`` names
the last two planes, a layout only this module knows) and gradient sups
are computed on first use, in this thread's workspace (:mod:`sbq.spectral`)
for the stepper's stacks.  The stepper's stages read stacks, the start
stack and the Heun predictor, and :func:`sbq.diagnostics.compute_records`
reads them too, so a run, which records a stack before stepping from it,
evaluates each stack's samples once.  Every operation runs plane by plane
or lane by lane, so a lane's bits never depend on the other lanes.

:class:`SimState` is one realization, and a lone state is a one-lane stack:
its ``_lane``, made on first use from its fields and its ``velocity``
(:func:`sbq.spectral.biot_savart`'s, which refuses an omega with a nonzero
mean), owns its arrays, fresh and never the workspace's; the state's
samples, ``grad_theta`` and ``grad_sups`` read it.  :meth:`Lanes.of` reads
the states' own stacks (a state repeated across lanes pays one gradient
inverse), so no array it holds is a workspace buffer.  A lane's state
(:meth:`Lanes.state`) is a plain view of the lane's fresh fields, never of
the workspace.

Inside the 2/3 ball: fields with no mode the 2/3 rule removes
(:func:`sbq.spectral._in_ball`; the ``random_hs`` initial states, and every
stack the stepper makes from such fields) have gradients inside it too.
Their samples take the pruned inverse of ``_to_physical(..., in_ball=True)``,
which runs ``ifft`` only on the columns k2 <= n/3 and needs no zero fill;
the other columns are zero, so the bits are those of ``irfft2``, and the
grad theta planes are those a stage's dealiased inverse would make, so a
stage reads them instead.  Fields outside the ball (``from_physical``
fields such as Taylor-Green, a snapshot read back) keep the full inverse.
A state's own stack scans its fields; a stepper's stack carries the fact
(``Lanes.in_ball``).
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
    def _lane(self) -> Lanes:
        """This state as a one-lane stack that owns its arrays, never the
        workspace's, and holds no reference back to the state."""
        fields, g = np.array([(self.omega.half, self.theta.half)]), self.grid
        lane = Lanes(g, fields, self.t, [self.blowup_accum], _in_ball(fields, g), owned=True)
        lane.velocity = np.array([(self.velocity.u1.half, self.velocity.u2.half)])
        return lane

    @property
    def _samples(self) -> np.ndarray:
        """Physical samples of d_x u1, d_y u1, d_x u2, d_y u2, d_x theta,
        d_y theta; each plane equals the ``values()`` of the corresponding
        derivative."""
        return self._lane.samples[0]

    @property
    def grad_theta(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical samples of (d_x theta, d_y theta)."""
        return self._samples[4], self._samples[5]

    @property
    def grad_sups(self) -> tuple[float, float]:
        """(||grad u||_inf, ||grad theta||_inf), each the collocation sup
        over every partial derivative; their sum is the blow-up integrand."""
        return self._lane.sups[0]


def _gradient_samples(velocity: np.ndarray, theta: np.ndarray, grid: Grid, in_ball: bool,
                      out: np.ndarray) -> np.ndarray:
    """Physical samples (R, 6, n, n), written into ``out``, of the gradients
    of u1, u2 and theta, given as half spectra, ``velocity`` (R, 2, n, n/2 + 1)
    and ``theta`` (R, n, n/2 + 1): one batched inverse transform.
    ``in_ball`` (the fields lie inside the 2/3 ball, and so do their
    gradients) prunes it to the rule's columns, with no zero fill: the bits
    of the full inverse."""
    half = _workspace("state-samples", (*out.shape[:-1], grid.n // 2 + 1))
    for i, f in enumerate((velocity[:, 0], velocity[:, 1], theta)):
        _gradient_half(f, grid, out=half[:, 2 * i:2 * i + 2])
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
    use for the whole stack.  The stepper's stacks, a step's Heun predictor
    included, keep the first two in buffers of this thread's workspace that
    they all share: they stay valid until another such stack computes its
    own, in any step or run.  So a consumer of a stack the lane loop yields
    may read it and record any states, but must not step, or start a run,
    in this thread before it resumes the loop.  A state's own stack
    (``owned``) derives into fresh arrays, never the workspace; :meth:`of`
    shares one lane's and copies several into fresh arrays, and
    :meth:`state` views only the stack's fields.

    ``in_ball`` is carried, not scanned: each state's own stack scans its
    fields once and :meth:`of` reads those, the stepper (whose rates are
    zero outside the ball) hands it on, and :meth:`take` keeps it,
    rescanning only a stack outside the ball, which may have dropped its
    only lanes outside.  Should the hyper decay flush a stack's last modes
    outside to zero, the stack stays outside: its full inverse has the bits
    of the pruned one.
    """

    def __init__(self, grid: Grid, fields: np.ndarray, t: float, accum: list,
                 in_ball: bool, states: list | None = None, owned: bool = False):
        self.grid, self.fields, self.t, self.accum = grid, _read_only(fields), t, accum
        self.in_ball, self._owned = in_ball, owned
        self._states = states or [None] * len(fields)

    @classmethod
    def of(cls, states: list) -> "Lanes":
        """The lanes of given states, which must share the grid and the time;
        a state may appear more than once.  The stack reads each state's own
        one-lane stack (a repeated state derives it once): one lane's arrays
        are shared, several are copied into fresh arrays, so no array of the
        stack is a workspace buffer."""
        grid, t = states[0].grid, states[0].t
        if any(s.grid != grid or s.t != t for s in states):
            raise ValueError("lanes must share the grid and the time")
        own = [s._lane for s in states]
        join = (lambda arrays: arrays[0]) if len(own) == 1 else np.concatenate
        lanes = cls(grid, join([o.fields for o in own]), t, [s.blowup_accum for s in states],
                    all(o.in_ball for o in own), list(states))
        lanes.velocity = join([o.velocity for o in own])
        lanes.samples = join([o.samples for o in own])
        lanes.sups = [o.sups[0] for o in own]
        return lanes

    def __len__(self) -> int:
        return len(self.fields)

    @cached_property
    def velocity(self) -> np.ndarray:
        return _velocity_half(self.fields[:, 0], self.grid,
                              out=_workspace("lane-velocity", self.fields.shape))

    @cached_property
    def samples(self) -> np.ndarray:
        shape = (len(self), 6, self.grid.n, self.grid.n)
        out = np.empty(shape) if self._owned else _workspace("lane-samples", shape, np.float64)
        _gradient_samples(self.velocity, self.fields[:, 1], self.grid, self.in_ball, out)
        return _read_only(out) if self._owned else out  # a state's samples are immutable

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
            fields = (SpectralField(self.grid, half) for half in self.fields[lane])
            self._states[lane] = SimState(*fields, self.t, self.accum[lane])
        return self._states[lane]

    def take(self, lanes: list) -> "Lanes":
        """The given lanes, in that order, as a new stack."""
        fields = self.fields[lanes]  # a stack outside may drop its only lanes outside
        return Lanes(self.grid, fields, self.t, [self.accum[i] for i in lanes],
                     self.in_ball or _in_ball(fields, self.grid),
                     [self._states[i] for i in lanes])
