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
over dt), so dt * L_{v_f} f is its drift and noise transport together; w / dt
comes once per step from the modes' exact coefficients
(``NoiseBasis.transport_half``).  A stage makes one batched inverse of
grad omega, grad theta and the velocities (6 planes when eta_u == eta_th and
omega and theta share one velocity, 8 otherwise) and one batched forward of
the 2 transports, each with both products summed in physical space as
:func:`sbq.operators.lie_derivative` sums them.  With the start state's own
batched inverse, a Heun step makes 5 transform calls (6 when the variant
truncates and reads the predictor's sups) and an Ito-Euler step 3; the CFL
guard, when on, adds two.

Storage: every coefficient array is a half spectrum (:mod:`sbq.spectral`).
A stage's planes, samples, products and rates live in the per-thread
workspace (``spectral._workspace``), written with ``out=``, so a step takes
no page faults; the inverse into it runs as ``ifft`` over the rows then
``irfft``, counted as one transform above.  Updates use fresh arrays.

Every step advances ``blowup_accum`` by dt times the blow-up integrand
||grad u||_inf + ||grad theta||_inf evaluated at the step start (left
endpoint, matching the adaptedness of the integrand).  The integrand, the
truncation cutoffs and the CFL speed are read from the start state's cache
(:mod:`sbq.state`), which the record :func:`run` takes of it shares.

States are never mutated apart from that cache; step returns a fresh
SimState that shares no memory with the workspace, so a state may be
handed between threads across steps, and threads may step concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .diagnostics import compute_record
from .noise import BrownianIncrements, NoiseBasis, sample_increments
from .spectral import Grid, SpectralField, l2_norm
from .spectral import _gradient_half, _read_only, _to_fourier, _to_physical, _workspace
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
                    cfg: SchemeConfig, stage: int) -> np.ndarray:
    """Rates (d omega, d theta) at one state, stacked (2, n, n/2 + 1) in this
    thread's workspace for ``stage``, ``noise`` being the half spectrum of
    w / dt: each field f is transported once, by eta_f u + w / dt."""
    grid = state.grid
    n, h = grid.n, grid.n // 2 + 1
    rates = _workspace(f"rates{stage}", (2, n, h))
    if not (cfg.drift_enabled or len(basis)):
        rates.fill(0.0)
        return rates
    etas = ()
    if cfg.drift_enabled:
        etas = (1.0, 1.0)
        if cfg.variant in ("truncated", "hyper"):
            etas = tuple(eta_cutoff(x, cfg.r) for x in state.grad_sups)
        # omega and theta share one velocity when their cutoffs agree
        etas = tuple(dict.fromkeys(etas))
    # one inverse: grad omega, grad theta, then the velocities; one forward:
    # v_f . grad f for f = omega, theta, both products summed before the
    # transform, as in lie_derivative
    half = _workspace("stage-half", (4 + 2 * max(1, len(etas)), n, h))
    _gradient_half(state.omega, out=half[0:2])
    _gradient_half(state.theta, out=half[2:4])
    velocities = half[4:].reshape(-1, 2, n, h)
    if not etas:
        velocities[0] = noise
    for v, eta in zip(velocities, etas):
        u = state.velocity
        np.multiply(eta, u.u1.half, out=v[0])
        np.multiply(eta, u.u2.half, out=v[1])
        v += noise
    phys = _workspace("stage-phys", (len(half), n, n), np.float64)
    phys = _to_physical(half, grid, dealias=True, out=phys).reshape(-1, 2, n, n)
    products = phys[:2]
    np.multiply(phys[2:], products, out=products)
    np.add(products[:, 0], products[:, 1], out=products[:, 0])
    _to_fourier(products[:, 0], grid, dealias=True, out=rates)
    np.negative(rates, out=rates)
    if cfg.drift_enabled:
        buoyancy = _workspace("buoyancy", (n, h))
        rates[0] += np.multiply(state.theta.half, grid.deriv_x, out=buoyancy)
    if len(basis) and cfg.scheme == "ito_euler":
        rates += _ito_correction(basis, state.omega, state.theta)
    return rates


def _ito_correction(basis: NoiseBasis, omega: SpectralField,
                    theta: SpectralField) -> np.ndarray:
    """1/2 sum_i L_{xi_i}^2 f for f = omega and theta, applied in Fourier
    space, stacked (2, n, n/2 + 1) in this thread's workspace.

    The composed dealiased operator is a sum of shifted diagonals
    (``basis.ito_diagonals``, built on the first call): a multiplier plus
    one rolled term per remaining offset, with no transform.  Only those
    terms, of unpaired families, read the ``coeffs`` view; each +-offset
    pair is summed first, which keeps the correction exactly Hermitian.
    """
    d0, shifted = basis.ito_diagonals
    h = d0.shape[1] // 2 + 1
    c = _workspace("ito", (2, d0.shape[0], h))
    for i, f in enumerate((omega, theta)):
        np.multiply(d0[:, :h], f.half, out=c[i])
        for (o1, d1), (o2, d2) in zip(shifted[::2], shifted[1::2]):
            pair = (d1 * np.roll(f.coeffs, o1, axis=(0, 1))
                    + d2 * np.roll(f.coeffs, o2, axis=(0, 1)))
            c[i] += pair[:, :h]
    return c


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
    """Integrating-factor decay exp(-nu |k|^10 dt) and exp(-nu |k|^14 dt)
    on the half spectrum."""
    ksq = grid._ksq_half
    return (_read_only(np.exp(-nu * ksq**5 * dt)),
            _read_only(np.exp(-nu * ksq**7 * dt)))


# beyond this magnitude float products corrupt the exact conservation
# structure well before Inf appears; treat it as numerical blow-up
_MAGNITUDE_LIMIT = 1e75


def _finalize(state: SimState, omega: SpectralField, theta: SpectralField,
              cfg: SchemeConfig, dt: float) -> SimState:
    if cfg.variant == "hyper" and cfg.nu:
        decay_omega, decay_theta = _hyper_decay(omega.grid, cfg.nu, dt)
        omega = SpectralField(omega.grid, omega.half * decay_omega)
        theta = SpectralField(theta.grid, theta.half * decay_theta)
    integrand = sum(state.grad_sups)  # left endpoint: the step's start state
    new = SimState(omega, theta, state.t + dt, state.blowup_accum + dt * integrand)
    if not new.is_finite():
        raise BlowUpSuspected(state)
    norm_omega = l2_norm(omega)
    if max(norm_omega, l2_norm(theta)) > _MAGNITUDE_LIMIT:
        raise BlowUpSuspected(state, "field magnitude beyond overflow guard")
    mean = abs(omega.half[0, 0]) / omega.grid.n**2
    if mean > 1e-12 * max(1.0, norm_omega):
        raise AssertionError(f"omega mean mode drifted to {mean:.3e}")
    return new


def _update(state: SimState, dt: float,
            rates: np.ndarray) -> tuple[SpectralField, SpectralField]:
    """(omega, theta) + dt * rates, in fresh coefficient arrays."""
    grid = state.grid
    scaled = np.multiply(rates, dt, out=_workspace("update", rates.shape))
    return (SpectralField(grid, state.omega.half + scaled[0]),
            SpectralField(grid, state.theta.half + scaled[1]))


def step(state: SimState, basis: NoiseBasis, increments: BrownianIncrements,
         cfg: SchemeConfig) -> SimState:
    """Advance one step with the scheme and variant the config selects."""
    _check_increments(increments, basis, cfg)
    dt = increments.dt
    _cfl_guard(state, basis, cfg)
    noise = basis.transport_half(increments.values / dt)
    rates = _evaluate_stage(state, basis, noise, cfg, 0)
    # Euler-Maruyama update; for Heun it is the predictor
    omega, theta = _update(state, dt, rates)
    if cfg.scheme == "stratonovich_heun":
        if not (omega.is_finite() and theta.is_finite()):
            raise BlowUpSuspected(state, "non-finite predictor")
        rates1 = _evaluate_stage(SimState(omega, theta), basis, noise, cfg, 1)
        omega, theta = _update(state, 0.5 * dt, np.add(rates, rates1, out=rates1))
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
    ``blowup_suspected`` set and records up to the last finite state.  A
    failed invariant guard's ``AssertionError`` propagates with the index of
    its step as ``step``.
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
        except AssertionError as exc:
            exc.step = index
            raise
        traj.steps_taken = index + 1
        emit(index + 1, force=last)
    traj.final_state = state
    return traj
