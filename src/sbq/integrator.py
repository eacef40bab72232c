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
transport of :func:`sbq.operators.lie_second`, evaluated by one kernel for
omega and theta together: grad f goes to physical space once, each mode
then costs one forward transform (L_{xi_i} f, its two products summed
before the transform) and one inverse transform (the gradient of that),
and the second products of all modes are summed in physical space and
brought back by a single forward transform.  It agrees with the
mode-by-mode ``lie_second`` sum to round-off.

Variants:

* ``truncated(r)`` multiplies the omega-advection by eta_r(||grad u||_inf)
  and the theta-advection by eta_r(||grad theta||_inf), where eta_r is 1
  below r, 0 above 2r, and a quintic smoothstep in between (C^2, Lipschitz;
  a documented relaxation of the C-infinity cutoff).  Noise, the Ito
  correction and the buoyancy term are never truncated.
* ``hyper(nu, r)`` composes the truncated explicit step with exact
  integrating-factor decay exp(-nu |k|^10 dt) on omega and
  exp(-nu |k|^14 dt) on theta (Lie-Trotter splitting).

Every step advances ``blowup_accum`` by dt times the blow-up integrand
||grad u||_inf + ||grad theta||_inf evaluated at the step start (left
endpoint, matching the adaptedness of the integrand).

States are never mutated; step returns a fresh SimState, so a state may
be handed between threads across steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .noise import BrownianIncrements, NoiseBasis, sample_increments
from .operators import lie_derivative
from .spectral import (
    SpectralField,
    VelocityField,
    biot_savart,
    derivative,
    l2_norm,
    linf_norm,
)
from .state import SimState

__all__ = [
    "SchemeConfig",
    "Trajectory",
    "BlowUpSuspected",
    "TimeStepError",
    "eta_cutoff",
    "grad_sup",
    "blowup_integrand",
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


def grad_sup(f: SpectralField, oversample: int = 1) -> float:
    """Collocation sup of the gradient: max over both partial derivatives."""
    return max(linf_norm(derivative(f, "x"), oversample),
               linf_norm(derivative(f, "y"), oversample))


def velocity_grad_sup(u: VelocityField, oversample: int = 1) -> float:
    return max(grad_sup(u.u1, oversample), grad_sup(u.u2, oversample))


def blowup_integrand(u: VelocityField, theta: SpectralField) -> float:
    """||grad u||_inf + ||grad theta||_inf, the blow-up criterion integrand."""
    return velocity_grad_sup(u) + grad_sup(theta)


@dataclass
class _Stage:
    """Drift and noise coefficients evaluated at one state."""

    u: VelocityField
    domega: SpectralField
    dtheta: SpectralField
    nomega: SpectralField  # noise contribution, already times -dB
    ntheta: SpectralField
    integrand: float


def _combine_noise(basis: NoiseBasis, db: np.ndarray) -> VelocityField:
    """Effective transport field sum_i dB_i xi_i (noise is linear in xi)."""
    grid = basis.grid
    c1 = np.zeros((grid.n, grid.n), dtype=np.complex128)
    c2 = np.zeros_like(c1)
    for xi, b in zip(basis.fields, db):
        c1 += float(b) * xi.u1.coeffs
        c2 += float(b) * xi.u2.coeffs
    return VelocityField(SpectralField(grid, c1), SpectralField(grid, c2))


def _evaluate_stage(omega: SpectralField, theta: SpectralField, basis: NoiseBasis,
                    db: np.ndarray, cfg: SchemeConfig, want_integrand: bool) -> _Stage:
    grid = omega.grid
    u = biot_savart(omega)
    truncating = cfg.variant in ("truncated", "hyper")
    integrand = float("nan")
    if want_integrand or truncating:
        gu, gth = velocity_grad_sup(u), grad_sup(theta)
        integrand = gu + gth
    zero = SpectralField.zero(grid)
    domega, dtheta = zero, zero
    if cfg.drift_enabled:
        eta_u = eta_th = 1.0
        if truncating:
            eta_u = eta_cutoff(gu, cfg.r)
            eta_th = eta_cutoff(gth, cfg.r)
        adv_omega = lie_derivative(u, omega)
        adv_theta = lie_derivative(u, theta)
        domega = -eta_u * adv_omega + derivative(theta, "x")
        dtheta = -eta_th * adv_theta
    nomega, ntheta = zero, zero
    if len(basis):
        w = _combine_noise(basis, db)
        nomega = -lie_derivative(w, omega)
        ntheta = -lie_derivative(w, theta)
        if cfg.scheme == "ito_euler":
            comega, ctheta = _ito_correction(basis, omega, theta)
            domega = domega + comega
            dtheta = dtheta + ctheta
    return _Stage(u, domega, dtheta, nomega, ntheta, integrand)


def _ito_correction(basis: NoiseBasis, omega: SpectralField,
                    theta: SpectralField) -> tuple[SpectralField, SpectralField]:
    """1/2 sum_i L_{xi_i}^2 f for f = omega and theta, summed in physical space.

    With P the 2/3-rule projection and X_1, X_2 the samples of xi_i,
    g_i = L_{xi_i} f = P FFT(X_1 F_x + X_2 F_y) with F = IFFT(P grad f), and
    sum_i L_{xi_i} g_i = P FFT(S) with S = sum_i X_1 G_x + X_2 G_y and
    G = IFFT(grad g_i).  omega and theta share every transform, in the
    real-FFT half layout, so each mode costs one forward and one inverse
    call.
    """
    grid = omega.grid
    n = grid.n
    half = n // 2 + 1  # rfft2 keeps the fft2 columns k2 = 0..n/2
    keep = grid.dealias_keep[:, :half]
    dx, dy = grid.deriv_x[:, :half] * keep, grid.deriv_y[:, :half] * keep  # P d_x, P d_y
    f = np.stack((omega.coeffs[:, :half], theta.coeffs[:, :half]))
    fx, fy = np.fft.irfft2(np.stack((f * dx, f * dy)), s=(n, n))
    total = np.zeros((2, n, n))
    for xi in basis.fields:
        x1, x2 = xi.u1.values(), xi.u2.values()
        g = np.fft.rfft2(x1 * fx + x2 * fy)
        gx, gy = np.fft.irfft2(np.stack((g * dx, g * dy)), s=(n, n))
        total += x1 * gx
        total += x2 * gy
    c = np.where(grid.dealias_keep, 0.5 * np.fft.fft2(total), 0.0)
    return SpectralField(grid, c[0]), SpectralField(grid, c[1])


def _check_increments(increments: BrownianIncrements, basis: NoiseBasis, cfg: SchemeConfig):
    if abs(increments.dt - cfg.dt) > 1e-15 * max(1.0, cfg.dt):
        raise ValueError(
            f"increment dt {increments.dt} does not match scheme dt {cfg.dt}")
    if len(increments.values) != len(basis):
        raise ValueError("one Brownian increment per noise mode required")


def _cfl_guard(stage: _Stage, basis: NoiseBasis, cfg: SchemeConfig):
    if cfg.cfl is None:
        return
    speed = max(1.0, stage.u.sup_magnitude() + basis.sup_total)
    bound = cfg.cfl * stage.u.grid.spacing / speed
    if cfg.dt > bound:
        raise TimeStepError(
            f"dt={cfg.dt:.3e} exceeds CFL bound {bound:.3e} "
            f"(cfl={cfg.cfl}, speed={speed:.3e})")


# beyond this magnitude float products corrupt the exact conservation
# structure well before Inf appears; treat it as numerical blow-up
_MAGNITUDE_LIMIT = 1e75


def _finalize(state: SimState, omega: SpectralField, theta: SpectralField,
              integrand: float, cfg: SchemeConfig, dt: float) -> SimState:
    if cfg.variant == "hyper" and cfg.nu:
        ksq = omega.grid.ksq
        omega = SpectralField(omega.grid, omega.coeffs * np.exp(-cfg.nu * ksq**5 * dt))
        theta = SpectralField(theta.grid, theta.coeffs * np.exp(-cfg.nu * ksq**7 * dt))
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
    db = increments.values
    s0 = _evaluate_stage(state.omega, state.theta, basis, db, cfg, want_integrand=True)
    _cfl_guard(s0, basis, cfg)
    # Euler-Maruyama update; for Heun it is the predictor
    omega = state.omega + dt * s0.domega + s0.nomega
    theta = state.theta + dt * s0.dtheta + s0.ntheta
    if cfg.scheme == "stratonovich_heun":
        if not (omega.is_finite() and theta.is_finite()):
            raise BlowUpSuspected(state, "non-finite predictor")
        s1 = _evaluate_stage(omega, theta, basis, db, cfg, want_integrand=False)
        omega = state.omega + (0.5 * dt) * (s0.domega + s1.domega) \
            + 0.5 * (s0.nomega + s1.nomega)
        theta = state.theta + (0.5 * dt) * (s0.dtheta + s1.dtheta) \
            + 0.5 * (s0.ntheta + s1.ntheta)
    return _finalize(state, omega, theta, s0.integrand, cfg, dt)


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
    from .diagnostics import compute_record  # deferred: diagnostics sits above

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
