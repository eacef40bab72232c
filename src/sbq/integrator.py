"""Time steppers for the stochastic Boussinesq system in vorticity form.

The prognostic equations, with u recovered from omega by Biot-Savart:

    d omega = [-eta_u * L_u omega + d_x theta] dt - sum_i L_{xi_i} omega dB_i
              (+ 1/2 sum_i L_{xi_i}^2 omega dt in the Ito form)
    d theta = [-eta_th * L_u theta] dt - sum_i L_{xi_i} theta dB_i
              (+ 1/2 sum_i L_{xi_i}^2 theta dt in the Ito form)

:func:`step` is the single stepper; :class:`SchemeConfig` selects the
scheme and the variant, and :func:`run` iterates it.  Two schemes are
provided: Euler-Maruyama for the Ito form (the Ito correction enters the
drift) and a Heun predictor-corrector for the Stratonovich form (no
correction; drift and noise coefficients averaged between the start and
predictor states, same Brownian increment).  The Euler-Maruyama update is
also the Heun predictor.

The Ito correction 1/2 sum_i L_{xi_i}^2 f is the composed dealiased
transport of :func:`sbq.operators.lie_second`, summed over the modes.  Each
noise field has Fourier support at +-k_i only, so the sum is a Fourier
operator with a few shifted diagonals (offsets 0 and +-2 k_i), built
exactly from the modes on the first Ito step and cached on the basis
(``NoiseBasis.ito_diagonals``).  Cosine/sine pairs of equal amplitude
cancel their +-2 k_i diagonals, so for the default family the correction is
one multiplier, -1/2 a |k|^2 inside the dealias ball (the constant eddy
diffusivity of homogeneous transport noise), and a step pays no transform
for it.  It agrees with the mode-by-mode ``lie_second`` sum to round-off.

Variants:

* ``truncated(r)`` multiplies the omega-advection by eta_r(||grad u||_inf)
  and the theta-advection by eta_r(||grad theta||_inf), where eta_r is 1
  below r, 0 above 2r, and a quintic smoothstep in between (C^2, Lipschitz;
  a documented relaxation of the C-infinity cutoff).  Noise, the Ito
  correction and the buoyancy term are never truncated.
* ``hyper(nu, r)`` composes the truncated explicit step with exact
  integrating-factor decay exp(-nu |k|^10 dt) on omega and
  exp(-nu |k|^14 dt) on theta (Lie-Trotter splitting); the two factors are
  built once per (grid, nu, dt).

Transport: a stage carries each field f by one stochastic velocity
v_f = eta_f u + w / dt, w = sum_i dB_i xi_i (Holm's u dt + sum_i xi_i o dB_i
over dt), so dt * L_{v_f} f is its drift and noise transport together.  w / dt
is formed once per step from the modes' exact coefficients
(``NoiseBasis.transport_half``) and added to eta_f u on the half spectrum.
A stage makes two calls of the half-spectrum kernel of :mod:`sbq.spectral`:
one batched inverse of grad omega, grad theta and the velocities (6 planes
when eta_u == eta_th and omega and theta share one velocity, 8 otherwise),
and one batched forward of the 2 transports, each with both products summed
in physical space as :func:`sbq.operators.lie_derivative` sums them.  With
the start state's own batched inverse (see below), a Heun step makes 5
transform calls (6 when the variant truncates and reads the predictor's
sups) and an Ito-Euler step 3; the CFL guard, when on, adds two for the
start state's velocity samples.

Every step advances ``blowup_accum`` by dt times the blow-up integrand
||grad u||_inf + ||grad theta||_inf evaluated at the step start (left
endpoint, matching the adaptedness of the integrand).  The integrand, the
truncation cutoffs and the CFL speed are read from the start state's cache
(:mod:`sbq.state`), which the record :func:`run` takes of it shares.

States are never mutated apart from that cache; step returns a fresh
SimState, so a state may be handed between threads across steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .diagnostics import compute_record
from .noise import BrownianIncrements, NoiseBasis, sample_increments
from .spectral import Grid, SpectralField, derivative, l2_norm
from .spectral import _gradient_half, _to_fourier, _to_physical, _velocity_half
from .state import SimState

__all__ = [
    "SchemeConfig",
    "Trajectory",
    "BlowUpSuspected",
    "TimeStepError",
    "eta_cutoff",
    "step",
    "run",
]

SCHEMES = ("ito_euler", "stratonovich_heun")
VARIANTS = ("plain", "truncated", "hyper")


@dataclass(frozen=True)
class SchemeConfig:
    """Stepping configuration.

    ``drift_enabled`` is a test hook for isolating the transport-noise and
    dissipation substeps (an empty noise basis switches the noise off);
    production configs leave it on.  ``cfl`` enables the optional step-size
    guard dt <= cfl * spacing / max(1, ||u||_inf + sum_i sup |xi_i|).
    """

    scheme: str
    dt: float
    variant: str = "plain"
    r: float | None = None
    nu: float | None = None
    cfl: float | None = None
    drift_enabled: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.variant in ("truncated", "hyper") and (self.r is None or self.r <= 0):
            raise ValueError(f"variant {self.variant!r} requires r > 0")
        if self.variant == "hyper" and (self.nu is None or self.nu < 0):
            raise ValueError("variant 'hyper' requires nu >= 0")


class BlowUpSuspected(RuntimeError):
    """A step produced NaN/Inf; carries the last finite state."""

    def __init__(self, last_state: SimState, message: str = "non-finite field"):
        super().__init__(message)
        self.last_state = last_state


class TimeStepError(RuntimeError):
    """The configured dt violates the CFL-style guard."""


def eta_cutoff(x: float, r: float) -> float:
    """Non-increasing cutoff: 1 on [0, r], 0 on [2r, inf), quintic smoothstep
    transition in between."""
    if x <= r:
        return 1.0
    if x >= 2.0 * r:
        return 0.0
    s = (x - r) / r
    return 1.0 - s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)


def _evaluate_stage(state: SimState, basis: NoiseBasis, noise: np.ndarray,
                    cfg: SchemeConfig) -> tuple[SpectralField, SpectralField]:
    """Rates (d omega, d theta) at one state, ``noise`` being the half
    spectrum of w / dt: each field f is transported once, by eta_f u + w / dt."""
    grid = state.grid
    if not (cfg.drift_enabled or len(basis)):
        zero = SpectralField.zero(grid)
        return zero, zero
    velocities = [noise]
    if cfg.drift_enabled:
        etas = (1.0, 1.0)
        if cfg.variant in ("truncated", "hyper"):
            etas = tuple(eta_cutoff(x, cfg.r) for x in state.grad_sups)
        u = _velocity_half(state.velocity)
        # omega and theta share one velocity when their cutoffs agree
        velocities = [eta * u + noise for eta in dict.fromkeys(etas)]
    # one inverse: grad omega, grad theta, then the velocities; one forward:
    # v_f . grad f for f = omega, theta, both products summed before the
    # transform, as in lie_derivative
    planes = [_gradient_half(state.omega), _gradient_half(state.theta), *velocities]
    phys = _to_physical(np.concatenate(planes), grid, dealias=True)
    phys = phys.reshape(-1, 2, grid.n, grid.n)
    transports = _to_fourier(np.sum(phys[2:] * phys[:2], axis=1), grid, dealias=True)
    domega = SpectralField(grid, -transports[0])
    dtheta = SpectralField(grid, -transports[1])
    if cfg.drift_enabled:
        domega = domega + derivative(state.theta, "x")
    if len(basis) and cfg.scheme == "ito_euler":
        comega, ctheta = _ito_correction(basis, state.omega, state.theta)
        domega = domega + comega
        dtheta = dtheta + ctheta
    return domega, dtheta


def _ito_correction(basis: NoiseBasis, omega: SpectralField,
                    theta: SpectralField) -> tuple[SpectralField, SpectralField]:
    """1/2 sum_i L_{xi_i}^2 f for f = omega and theta, applied in Fourier space.

    The composed dealiased operator is a sum of shifted diagonals
    (``basis.ito_diagonals``, built on the first call): a multiplier plus
    one rolled term per remaining offset, with no transform.
    """
    d0, shifted = basis.ito_diagonals
    f = np.stack((omega.coeffs, theta.coeffs))
    c = d0 * f
    for offset, d in shifted:
        c += d * np.roll(f, offset, axis=(1, 2))
    return SpectralField(omega.grid, c[0]), SpectralField(omega.grid, c[1])


def _check_increments(increments: BrownianIncrements, basis: NoiseBasis, cfg: SchemeConfig):
    if abs(increments.dt - cfg.dt) > 1e-15 * max(1.0, cfg.dt):
        raise ValueError(
            f"increment dt {increments.dt} does not match scheme dt {cfg.dt}")
    if len(increments.values) != len(basis):
        raise ValueError("one Brownian increment per noise mode required")


def _cfl_guard(state: SimState, basis: NoiseBasis, cfg: SchemeConfig):
    if cfg.cfl is None:
        return
    speed = max(1.0, state.velocity.sup_magnitude() + basis.sup_total)
    bound = cfg.cfl * state.grid.spacing / speed
    if cfg.dt > bound:
        raise TimeStepError(
            f"dt={cfg.dt:.3e} exceeds CFL bound {bound:.3e} "
            f"(cfl={cfg.cfl}, speed={speed:.3e})")


@lru_cache(maxsize=8)
def _hyper_decay(grid: Grid, nu: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrating-factor decay exp(-nu |k|^10 dt) and exp(-nu |k|^14 dt)."""
    ksq = grid.ksq
    out = np.exp(-nu * ksq**5 * dt), np.exp(-nu * ksq**7 * dt)
    for a in out:
        a.setflags(write=False)
    return out


# beyond this magnitude float products corrupt the exact conservation
# structure well before Inf appears; treat it as numerical blow-up
_MAGNITUDE_LIMIT = 1e75


def _finalize(state: SimState, omega: SpectralField, theta: SpectralField,
              cfg: SchemeConfig, dt: float) -> SimState:
    if cfg.variant == "hyper" and cfg.nu:
        decay_omega, decay_theta = _hyper_decay(omega.grid, cfg.nu, dt)
        omega = SpectralField(omega.grid, omega.coeffs * decay_omega)
        theta = SpectralField(theta.grid, theta.coeffs * decay_theta)
    integrand = sum(state.grad_sups)  # left endpoint: the step's start state
    new = SimState(omega, theta, state.t + dt, state.blowup_accum + dt * integrand)
    if not new.is_finite():
        raise BlowUpSuspected(state)
    norm_omega = l2_norm(omega)
    if max(norm_omega, l2_norm(theta)) > _MAGNITUDE_LIMIT:
        raise BlowUpSuspected(state, "field magnitude beyond overflow guard")
    mean = abs(omega.coeffs[0, 0]) / omega.grid.n**2
    if mean > 1e-12 * max(1.0, norm_omega):
        raise AssertionError(f"omega mean mode drifted to {mean:.3e}")
    return new


def step(state: SimState, basis: NoiseBasis, increments: BrownianIncrements,
         cfg: SchemeConfig) -> SimState:
    """Advance one step with the scheme and variant the config selects."""
    _check_increments(increments, basis, cfg)
    dt = increments.dt
    _cfl_guard(state, basis, cfg)
    noise = basis.transport_half(increments.values / dt)
    domega, dtheta = _evaluate_stage(state, basis, noise, cfg)
    # Euler-Maruyama update; for Heun it is the predictor
    omega = state.omega + dt * domega
    theta = state.theta + dt * dtheta
    if cfg.scheme == "stratonovich_heun":
        if not (omega.is_finite() and theta.is_finite()):
            raise BlowUpSuspected(state, "non-finite predictor")
        domega1, dtheta1 = _evaluate_stage(SimState(omega, theta), basis, noise, cfg)
        omega = state.omega + (0.5 * dt) * (domega + domega1)
        theta = state.theta + (0.5 * dt) * (dtheta + dtheta1)
    return _finalize(state, omega, theta, cfg, dt)


@dataclass
class Trajectory:
    """Result of :func:`run`: final state, diagnostic records, blow-up flag."""

    final_state: SimState
    records: list = field(default_factory=list)
    blowup_suspected: bool = False
    abort_step: int | None = None
    steps_taken: int = 0


def run(initial: SimState, basis: NoiseBasis, cfg: SchemeConfig, T: float,
        rng: np.random.Generator | None = None, observers: tuple = (),
        increments: np.ndarray | None = None, diag_interval: int = 1,
        p: float = 2.0) -> Trajectory:
    """Iterate steps from ``initial.t`` to T, collecting diagnostics.

    Step k ends at ``initial.t + k * cfg.dt`` and the final step ends
    exactly on T: when the horizon is a whole number of steps (to 1e-9 of
    a step) every step has length ``cfg.dt``, otherwise the final step is
    shortened.  ``observers`` is a sequence of ``(every_n_steps, callback)``
    pairs; callbacks receive ``(step_index, state, record)`` and always fire
    at step 0 and at the final step regardless of their interval.  Records are appended to the
    trajectory every ``diag_interval`` steps plus at the start and end.
    ``increments`` optionally provides a precomputed path (one row of
    per-mode increments per full step; the horizon must then be an integer
    number of steps); otherwise increments are sampled from ``rng``.  On a
    NaN/Inf abort the partial trajectory is returned with
    ``blowup_suspected`` set and records up to the last finite state.
    """
    if T < initial.t:
        raise ValueError(f"final time {T} precedes initial time {initial.t}")
    if diag_interval < 1:
        raise ValueError("diag_interval must be >= 1")
    m = len(basis)
    if increments is None and m > 0 and rng is None:
        raise ValueError("either rng or a precomputed increment path is required")
    steps = (T - initial.t) / cfg.dt
    whole = abs(steps - round(steps)) <= 1e-9
    nsteps = round(steps) if whole else math.ceil(steps)
    if increments is not None:
        if not whole:
            raise ValueError(
                "a precomputed increment path requires the horizon to be an "
                "integer number of steps")
        if increments.shape[0] < nsteps:
            raise ValueError("precomputed increment path too short")

    traj = Trajectory(final_state=initial)
    state = initial

    def emit(index: int, force: bool):
        on_diag = force or index % diag_interval == 0
        firing = [fn for every, fn in observers if force or index % every == 0]
        if not (on_diag or firing):
            return
        record = compute_record(state, p=p)
        if on_diag:
            traj.records.append(record)
        for fn in firing:
            fn(index, state, record)

    emit(0, force=True)
    for index in range(nsteps):
        last = index == nsteps - 1
        t_end = T if last else initial.t + (index + 1) * cfg.dt
        step_cfg = replace(cfg, dt=T - state.t) if last and not whole else cfg
        dt = step_cfg.dt
        if increments is not None:
            db = BrownianIncrements(np.asarray(increments[index], dtype=float), dt)
        elif m > 0:
            db = sample_increments(rng, dt, m)
        else:
            db = BrownianIncrements(np.zeros(0), dt)
        try:
            state = replace(step(state, basis, db, step_cfg), t=t_end)
        except BlowUpSuspected as exc:
            traj.final_state = exc.last_state
            traj.blowup_suspected = True
            traj.abort_step = index
            return traj
        traj.steps_taken = index + 1
        emit(index + 1, force=last)
    traj.final_state = state
    return traj
