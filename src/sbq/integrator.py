"""Time steppers for the stochastic Boussinesq system in vorticity form.

The prognostic equations, with u recovered from omega by Biot-Savart:

    d omega = [-eta_u * L_u omega + d_x theta] dt - sum_i L_{xi_i} omega dB_i
              (+ 1/2 sum_i L_{xi_i}^2 omega dt in the Ito form)
    d theta = [-eta_th * L_u theta] dt - sum_i L_{xi_i} theta dB_i
              (+ 1/2 sum_i L_{xi_i}^2 theta dt in the Ito form)

One stepping kernel advances R realizations ("lanes", :class:`sbq.state.Lanes`)
by one step; :class:`SchemeConfig` selects the scheme and the variant.
:func:`step` is its one-lane case.  One loop, the iterator
:func:`_lane_steps`, steps a stack from its start to T, each lane with its
own Brownian increments (its own ``rng`` stream or precomputed path), folds
the records into each lane's :class:`Trajectory` and yields the stack at the
start and after every step; snapshot writers and studies consume it, and
:func:`_run_lanes` (ensembles, shared-path studies) and :func:`run` (one
realization) exhaust it.  Two schemes are provided: Euler-Maruyama for the
Ito form (the Ito correction enters the drift) and a Heun
predictor-corrector for the Stratonovich form (no correction; drift and
noise coefficients averaged between the start and predictor states, same
Brownian increment).  The Euler-Maruyama update is also the Heun predictor.

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
  correction and the buoyancy term are never truncated.  Below r the
  truncated system is the untruncated one, and so is its Heun step: each
  gradient plane is a Fourier multiplier of omega or theta, so a lane's
  predictor sups are at most its start sups plus a weighted l1 norm of the
  step's increment (``Grid._sup_weights``), scaled up by a round-off slack
  (:func:`_certified`).  When that bound is at most r for every lane, the
  corrector takes the cutoff 1, as plain Heun's does; otherwise (a lane
  above it, a non-finite predictor) it reads the predictor's sups for the
  whole stack.  Either way the cutoffs, and so the bits, are the same.
* ``hyper(nu, r)`` composes the truncated explicit step with exact
  integrating-factor decay exp(-nu |k|^10 dt) on omega and
  exp(-nu |k|^14 dt) on theta (Lie-Trotter splitting); the two factors are
  built once per (grid, nu, dt).

Stages read stacks: a stage (:func:`_evaluate_stage`) takes a stack
(:class:`sbq.state.Lanes`) and the sups its cutoffs come from (none when
certified), and reads the stack's fields and velocity.  Stage 0 takes the
start stack and its sups, which the blow-up integrand reads anyway; the
corrector takes the Heun predictor, the Euler-Maruyama update, as a stack
over a view of its workspace fields, whose velocity, samples and sups are
made when read: the samples only when the certificate refuses.

Transport: a stage carries each field f by one stochastic velocity
v_f = eta_f u + w / dt, w = sum_i dB_i xi_i (Holm's u dt + sum_i xi_i o dB_i
over dt), so dt * L_{v_f} f is its drift and noise transport together; w / dt
comes once per step from the modes' exact coefficients
(``NoiseBasis.transport_half``).  A stage makes one batched inverse of
grad omega, grad theta and the velocities (6 planes when eta_u == eta_th and
omega and theta share one velocity, 8 otherwise) and one batched forward of
the 2 transports, each with both products summed in physical space as
:func:`sbq.operators.lie_derivative` sums them.  With the start stack's own
batched inverse (6 planes), a Heun step makes 5 transform calls (6 when the
predictor's sups are read) and an Ito-Euler step 3; the CFL guard, when on,
adds one, of both velocity planes.

Inside the 2/3 ball (no lane has a nonzero mode the rule removes;
``Lanes.in_ball``) a stack's gradient samples come from the pruned inverse
a stage uses, so a stage given a stack's sups reads grad theta from its
samples (``Lanes.grad_theta``) instead of inverting it: 4 planes, or 6 with
two velocities.  The rule leaves such planes unchanged and the pruned
inverse skips only zero columns, so the samples carry the bits of
``irfft2`` and of the stage's own grad theta alike; they, and every stage's
planes inside the ball, skip the rule's zero fill.  The ball holds along a
run (a stage's rates are zero outside it), so ``Lanes.in_ball`` is scanned
once, when lanes are made from states, and carried to every later stack,
the predictor included.  A stack with a lane outside it (a
``from_physical`` state such as Taylor-Green, a snapshot read back) keeps
the full inverse and the 6- or 8-plane stage.

Lanes: every array of a step carries the lanes on a leading axis, so each
transform, Biot-Savart, the sups and the finalize guards run once per step
for the whole stack.  Lanes share the grid, the basis, the scheme and the
workspace; each keeps its own fields, cutoffs (a stage inverts as many
velocity pairs as the lane with the most distinct cutoffs needs) and
blow-up integral.  Every operation works plane by plane or lane by lane
(batched transforms and row-wise ``vecdot`` are bit-identical to one-plane
calls), so a lane's states are bit for bit those of the realization
stepped alone.  A lane that blows up (non-finite predictor or
field, magnitude guard) or fails the omega mean guard is frozen: it keeps
its partial records and ``abort_step`` (or its error) and drops out of the
stack, and the other lanes go on.  The lane count is the caller's;
:mod:`sbq.ensemble` caps it by a fixed memory budget.

Storage: every coefficient array is a half spectrum (:mod:`sbq.spectral`).
A stage's planes, samples, products and rates, the predictor's fields and
the noise live in the per-thread workspace (``spectral._workspace``, a
cached view per use), written with ``out=``, as do every stack's velocity
and samples (:mod:`sbq.state`; the predictor's overwrite the start
stack's, read by then), so a step takes no page faults and allocates only
its updated fields.  The inverse into the workspace runs as ``ifft`` over
the rows then ``irfft``, counted as one transform above.  The real
multipliers applied to complex planes (1/|k|^2, the Ito multiplier, the
hyper decay, the cutoffs) are stored complex, so numpy casts none of them
per call, and the rates' negation and the guards' max and min run on the
float view, which numpy's complex ufuncs take 2-5x as long over.  The
negation is not folded into the velocities (-eta u - w): the forward
transform of the negated products gives +0 where the negated transform
gives -0, which moves signed zeros of the states.

Guards: each lane of a step's new fields, and of the Heun predictor, is
read by one max and one min of its float view (:func:`_peaks`); a new lane
whose largest |re|, |im| is at most half the magnitude limit and whose
omega mean is at most 1e-12 clears every guard (:func:`_finalize`), and
only another lane pays for its norms.

Every step advances ``blowup_accum`` by dt times the blow-up integrand
||grad u||_inf + ||grad theta||_inf of the start stack's sups (left
endpoint, matching the adaptedness of the integrand), which its records
read too, as the CFL guard reads its velocity.

States are never mutated apart from their own caches; the states a step or
the loop hands out view only fresh fields and share no memory with the
workspace, so a state may be handed between threads across steps, and
threads may step concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .diagnostics import compute_records
from .noise import BrownianIncrements, NoiseBasis, sample_increments
from .spectral import Grid
from .spectral import (_full_layout, _gradient_half, _inner_half, _mapped, _to_fourier,
                       _to_physical, _workspace)
from .state import Lanes, SimState

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


def _evaluate_stage(stack: Lanes, sups: list | None, basis: NoiseBasis, noise: np.ndarray,
                    cfg: SchemeConfig, stage: int) -> np.ndarray:
    """Rates (d omega, d theta) of every lane of ``stack``, stacked
    (R, 2, n, n/2 + 1) in this thread's workspace for ``stage``, from its
    fields and velocity, the cutoffs eta_r of ``sups`` (1 for the plain
    variant, or without ``sups``: certified below r) and ``noise``, the half
    spectra of w / dt: each field f is transported once, by eta_f u + w / dt.  Inside the 2/3 ball the stage's planes skip the
    zero fill, and a stack whose ``sups`` are given has taken its samples,
    so the stage reads its grad theta from them instead of inverting it."""
    grid, fields, in_ball = stack.grid, stack.fields, stack.in_ball
    lanes, n, h = len(fields), grid.n, grid.n // 2 + 1
    rates = _workspace(f"rates{stage}", (lanes, 2, n, h))
    if not (cfg.drift_enabled or len(basis)):
        rates.fill(0.0)
        return rates
    # each lane's distinct cutoffs: omega and theta share one velocity when
    # theirs agree
    etas = ([(1.0,)] * lanes if not cfg.drift_enabled or cfg.variant == "plain" or sups is None
            else [tuple(dict.fromkeys(eta_cutoff(x, cfg.r) for x in lane)) for lane in sups])
    grad_theta = stack.grad_theta if in_ball and sups is not None else None
    # one inverse: grad omega, grad theta unless given, then the velocities;
    # one forward: v_f . grad f for f = omega, theta, both products summed
    # before the transform, as in lie_derivative.  A lane whose cutoffs agree
    # while another's differ repeats its velocity, which leaves its bits
    # unchanged.
    k, g = max(map(len, etas)), 2 if grad_theta is None else 1
    half = _workspace("stage-half", (lanes, 2 * (g + k), n, h))
    _gradient_half(fields[:, :g], grid, out=half[:, :2 * g].reshape(lanes, g, 2, n, h))
    velocities = half[:, 2 * g:].reshape(lanes, k, 2, n, h)
    if cfg.drift_enabled:
        # complex, as the planes it scales: a real factor is cast on every call
        eta = np.array([lane + lane[-1:] * (k - len(lane)) for lane in etas],
                       dtype=np.complex128)
        np.multiply(eta[:, :, None, None, None], stack.velocity[:, None], out=velocities)
        velocities += noise[:, None]
    else:
        velocities[:, 0] = noise
    phys = _workspace("stage-phys", half.shape[:2] + (n, n), np.float64)
    # the noise lies inside the ball (build_basis)
    phys = _to_physical(half, grid, dealias=True, out=phys, in_ball=in_ball)
    phys = phys.reshape(lanes, g + k, 2, n, n)
    if grad_theta is None:
        grad_theta = phys[:, 1]
    # omega's products into its gradient's planes, theta's into its velocity's
    # (the last), after omega's have read them
    np.multiply(phys[:, g], phys[:, 0], out=phys[:, 0])
    np.multiply(phys[:, -1], grad_theta, out=phys[:, -1])
    products = phys[:, ::g + k - 1]
    np.add(products[:, :, 0], products[:, :, 1], out=products[:, :, 0])
    _to_fourier(products[:, :, 0], grid, dealias=True, out=rates)
    # the transport's minus sign, on the float view: the bytes of the complex
    # negative, which numpy takes about five times as long over
    np.negative(rates.view(np.float64), out=rates.view(np.float64))
    if cfg.drift_enabled:
        buoyancy = _workspace("buoyancy", (lanes, n, h))
        rates[:, 0] += np.multiply(fields[:, 1], grid.deriv_x, out=buoyancy)
    if len(basis) and cfg.scheme == "ito_euler":
        rates += _ito_correction(basis, fields)
    return rates


def _ito_correction(basis: NoiseBasis, fields: np.ndarray) -> np.ndarray:
    """1/2 sum_i L_{xi_i}^2 f for the half spectra ``fields`` (..., n, n/2 + 1),
    applied in Fourier space, in this thread's workspace.

    The composed dealiased operator is a sum of shifted diagonals
    (``basis.ito_diagonals``, built on the first call): a multiplier plus
    one rolled term per remaining offset, with no transform.  Only those
    terms, of unpaired families, read the full ``fft2`` layout; each
    +-offset pair is summed first, which keeps the correction exactly
    Hermitian.
    """
    shifted = basis.ito_diagonals[1]
    h = fields.shape[-1]
    c = np.multiply(basis.ito_multiplier, fields, out=_workspace("ito", fields.shape))
    if shifted:
        full = _full_layout(fields, basis.grid)
        for (o1, d1), (o2, d2) in zip(shifted[::2], shifted[1::2]):
            pair = (d1 * np.roll(full, o1, axis=(-2, -1))
                    + d2 * np.roll(full, o2, axis=(-2, -1)))
            c += pair[..., :h]
    return c


def _check_increments(increments: BrownianIncrements, cfg: SchemeConfig):
    if abs(increments.dt - cfg.dt) > 1e-15 * max(1.0, cfg.dt):
        raise ValueError(
            f"increment dt {increments.dt} does not match scheme dt {cfg.dt}")


def _cfl_guard(lanes: Lanes, basis: NoiseBasis, cfg: SchemeConfig, errors: list):
    """A TimeStepError into ``errors`` for each lane whose dt exceeds its
    bound; the speeds come from one batched inverse of the stack's velocity."""
    grid, v = lanes.grid, lanes.velocity
    half = _workspace("cfl-half", v.shape)
    half[...] = v  # the inverse overwrites its input
    phys = _to_physical(half, grid,
                        out=_workspace("cfl", v.shape[:-1] + (grid.n,), np.float64))
    peaks = np.hypot(phys[:, 0], phys[:, 1], out=phys[:, 0]).max(axis=(-2, -1))
    for lane, peak in enumerate(peaks.tolist()):
        speed = max(1.0, peak + basis.sup_total)
        bound = cfg.cfl * grid.spacing / speed
        if cfg.dt > bound:
            errors[lane] = TimeStepError(
                f"dt={cfg.dt:.3e} exceeds CFL bound {bound:.3e} "
                f"(cfl={cfg.cfl}, speed={speed:.3e})")


@lru_cache(maxsize=8)
def _hyper_decay(grid: Grid, nu: float, dt: float) -> np.ndarray:
    """Integrating-factor decay exp(-nu |k|^10 dt) and exp(-nu |k|^14 dt)
    on the half spectrum, stacked (2, n, n/2 + 1) to scale (omega, theta),
    stored complex (zero imaginary parts) as the fields it scales."""
    ksq = grid._ksq_half
    decay = np.stack((np.exp(-nu * ksq**5 * dt), np.exp(-nu * ksq**7 * dt)))
    return _mapped(decay.astype(np.complex128))


# beyond this magnitude float products corrupt the exact conservation
# structure well before Inf appears; treat it as numerical blow-up
_MAGNITUDE_LIMIT = 1e75


def _finalize(start: Lanes, fields: np.ndarray, cfg: SchemeConfig, dt: float,
              t: float, errors: list) -> Lanes:
    """The lanes at ``t`` from their updated ``fields`` (a fresh array, scaled
    in place by the hyper decay), inside the 2/3 ball when ``start`` is (the
    rates are zero outside it).  Each lane not stopped yet is checked in turn
    for non-finite values, the magnitude guard and the omega mean guard, and
    the first that fails goes into ``errors``.

    A lane whose peak M (:func:`_peaks`) is at most half the magnitude limit
    and whose omega mean is at most 1e-12 clears all three without its
    norms: a field's norm is 2 pi / n^2 sqrt(2 S - S'), S the sum of |c|^2
    over its n (n/2 + 1) half-spectrum coefficients and S' that over the 2n
    on the self-paired columns k2 = 0, n/2, so with |c|^2 <= 2 M^2 it is at
    most 2 pi / n^2 sqrt(2 M^2 n^2) = 2 sqrt(2) pi M / n: 1.111 M at n = 8
    (an all-(1 + 1j) plane attains it), less on finer grids, so below 0.56
    times the limit."""
    grid, n = start.grid, start.grid.n
    if cfg.variant == "hyper" and cfg.nu:
        fields *= _hyper_decay(grid, cfg.nu, dt)
    # left endpoint: the integrand of the step's start state
    new = Lanes(grid, fields, t, [a + dt * sum(s) for a, s in zip(start.accum, start.sups)],
                start.in_ball)
    for lane, peak in enumerate(_peaks(fields).tolist()):
        mean = abs(fields[lane, 0, 0, 0]) / n**2
        if errors[lane] is not None or (peak <= 0.5 * _MAGNITUDE_LIMIT and mean <= 1e-12):
            continue
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite or huge values
            norm_omega, norm_theta = np.sqrt(np.maximum(
                _inner_half(fields[lane], fields[lane]), 0.0)).tolist()
        if not math.isfinite(peak):
            errors[lane] = BlowUpSuspected(start.state(lane))
        elif not (norm_omega <= _MAGNITUDE_LIMIT and norm_theta <= _MAGNITUDE_LIMIT):
            # also NaN: past about 1e154 the norms' sums overflow to inf - inf
            errors[lane] = BlowUpSuspected(start.state(lane),
                                           "field magnitude beyond overflow guard")
        elif mean > 1e-12 * max(1.0, norm_omega):
            errors[lane] = AssertionError(f"omega mean mode drifted to {mean:.3e}")
    return new


def _peaks(fields: np.ndarray) -> np.ndarray:
    """Each lane's largest |re| or |im| in its fields (R, 2, n, n/2 + 1), from
    one max and one min of its float view: NaN or inf exactly when the lane
    holds a value that is not finite."""
    flat = fields.view(np.float64).reshape(len(fields), -1)
    return np.maximum(flat.max(axis=1), -flat.min(axis=1))


# the certificate's relative round-off slack, per n**2: 1e-11 n**2 is at
# least 1e4 times the rounding its bound can miss, about n (n + 2) u from
# its sums plus (10 log2(n**2) + 7) n u from the samples' transforms and
# multipliers (u = 2**-53)
_CERTIFICATE_SLACK = 1e-11


def _certified(lanes: Lanes, increment: np.ndarray, finite: np.ndarray, r: float,
               scratch: np.ndarray) -> bool:
    """Whether every lane's Heun predictor, its fields ``lanes.fields +
    increment``, finite by ``finite``, certainly has both gradient sups at
    most ``r``, so that every cutoff of the corrector is exactly 1; read
    without a transform.

    Each gradient plane is a Fourier multiplier of omega or theta, so its
    samples move by at most the weighted l1 norm of the increment's
    coefficients (``Grid._sup_weights``, dotted with |re| + |im| of its
    float view, formed in ``scratch``, a float array of that view's shape).
    A lane's bound is its start sups (``lanes.sups``) plus that, scaled up
    by the round-off slack; a NaN bound is never at most r."""
    if not finite.all():
        return False
    count, n = len(lanes), lanes.grid.n
    mags = np.abs(increment.view(np.float64), out=scratch)
    growth = np.vecdot(mags.reshape(count, 2, -1), lanes.grid._sup_weights.reshape(2, -1))
    bound = (np.asarray(lanes.sups) + growth) * (1.0 + _CERTIFICATE_SLACK * n * n)
    return bool((bound <= r).all())


def _update(fields: np.ndarray, dt: float, rates: np.ndarray) -> np.ndarray:
    """fields + dt * rates, into a fresh array."""
    return np.add(fields, np.multiply(rates, dt, out=_workspace("update", rates.shape)))


def _advance(lanes: Lanes, basis: NoiseBasis, db: np.ndarray, dt: float,
             cfg: SchemeConfig, t: float) -> tuple[Lanes, list]:
    """One step of length ``dt`` for every lane, to time ``t``, with the
    lanes' Brownian increments ``db`` (R, m): the stepping kernel.

    Returns the lanes at ``t`` and, per lane, None or the error that stopped
    it: BlowUpSuspected (carrying the lane's start state), the omega mean
    guard's AssertionError or the CFL guard's TimeStepError.  A stopped
    lane's row of the returned stack holds no state; it is computed with the
    others (its values never reach another lane) and is dropped by the
    caller.
    """
    if db.shape[1] != len(basis):
        raise ValueError("one Brownian increment per noise mode required")
    errors = [None] * len(lanes)
    if cfg.cfl is not None:
        _cfl_guard(lanes, basis, cfg, errors)
    noise = basis.transport_half(db / dt, out=_workspace("noise", lanes.fields.shape))
    # the start sups: the blow-up integrand and the cutoffs
    rates = _evaluate_stage(lanes, lanes.sups, basis, noise, cfg, 0)
    if cfg.scheme == "ito_euler":
        return _finalize(lanes, _update(lanes.fields, dt, rates), cfg, dt, t, errors), errors
    # Heun: the Euler-Maruyama update is the predictor, inside the ball when
    # the lanes are; a view, as the stack marks its fields read-only
    with np.errstate(invalid="ignore"):  # a non-finite rate's inf * 0 (complex dt)
        increment = np.multiply(rates, dt, out=_workspace("update", rates.shape))
    fields = np.add(lanes.fields, increment, out=_workspace("predictor", rates.shape))
    finite = np.isfinite(_peaks(fields))
    for lane in np.flatnonzero(~finite):
        errors[lane] = errors[lane] or BlowUpSuspected(lanes.state(lane),
                                                       "non-finite predictor")
        # the stopped lane's corrector reads its start fields and no stage-0
        # rates, so it makes no non-finite value
        fields[lane], rates[lane] = lanes.fields[lane], 0.0
    predictor, sups = Lanes(lanes.grid, fields.view(), t, lanes.accum, lanes.in_ball), None
    if cfg.drift_enabled and cfg.variant != "plain":
        # scratch: stage 0's physical planes, read already, and paged in
        scratch = _workspace("stage-phys", increment.view(np.float64).shape, np.float64)
        if not _certified(lanes, increment, finite, cfg.r, scratch):
            sups = predictor.sups
    rates1 = _evaluate_stage(predictor, sups, basis, noise, cfg, 1)
    fields = _update(lanes.fields, 0.5 * dt, np.add(rates, rates1, out=rates1))
    return _finalize(lanes, fields, cfg, dt, t, errors), errors


def step(state: SimState, basis: NoiseBasis, increments: BrownianIncrements,
         cfg: SchemeConfig) -> SimState:
    """Advance one step with the scheme and variant the config selects: the
    one-lane case of the stepping kernel."""
    _check_increments(increments, cfg)
    dt = increments.dt
    lanes, (error,) = _advance(Lanes.of([state]), basis, increments.values[None], dt, cfg,
                               state.t + dt)
    if error is not None:
        raise error
    return lanes.state(0)


@dataclass
class Trajectory:
    """Result of :func:`run`: final state, diagnostic records, blow-up flag."""

    final_state: SimState
    records: list = field(default_factory=list)
    blowup_suspected: bool = False
    abort_step: int | None = None
    steps_taken: int = 0


def run(initial: SimState, basis: NoiseBasis, cfg: SchemeConfig, T: float,
        rng: np.random.Generator | None = None, increments: np.ndarray | None = None,
        diag_interval: int = 1, p: float = 2.0) -> Trajectory:
    """Iterate steps from ``initial.t`` to T, collecting diagnostics.

    Step k ends at ``initial.t + k * cfg.dt`` and the final step ends
    exactly on T: when the horizon is a whole number of steps (to 1e-9 of
    a step) every step has length ``cfg.dt``, otherwise the final step is
    shortened.  Records are appended to the trajectory every
    ``diag_interval`` steps plus at the start and end.  ``increments``
    optionally provides a precomputed path (one row of per-mode increments
    per full step; the horizon must then be an integer number of steps);
    otherwise increments are sampled from ``rng``.  On a NaN/Inf abort the
    partial trajectory is returned with ``blowup_suspected`` set and records
    up to the last finite state.  A failed invariant guard's
    ``AssertionError`` propagates with the index of its step as ``step``.
    This is the one-lane case of :func:`_run_lanes`.
    """
    (traj,) = _run_lanes([initial], basis, cfg, T, [rng],
                         None if increments is None else [increments], diag_interval, p)
    if isinstance(traj, Exception):
        raise traj
    return traj


def _increment(rng, path, index: int, dt: float, m: int) -> np.ndarray:
    """One lane's Brownian increments for step ``index``."""
    if path is not None:
        return np.asarray(path[index], dtype=float)
    if m > 0:
        return sample_increments(rng, dt, m).values
    return np.zeros(0)


def _run_lanes(initial: list, basis: NoiseBasis, cfg: SchemeConfig, T: float,
               rngs: list | None = None, increments: list | None = None,
               diag_interval: int = 1, p: float = 2.0) -> list:
    """:func:`run` for R realizations at once, stepped as lanes of one stack.

    ``initial`` holds each lane's initial state (one grid, one time; a state
    may be shared), ``rngs`` and ``increments`` each lane's ``rng`` or
    precomputed path, as in :func:`run`.  Each lane's result is bit for bit
    that of :func:`run` alone: a :class:`Trajectory`, partial with
    ``blowup_suspected`` set when the lane blew up (the other lanes go on
    without it), or the exception that failed the lane, the omega mean
    guard's ``AssertionError`` (with ``step``) or a ``TimeStepError``.
    """
    results = [Trajectory(final_state=state) for state in initial]
    for _ in _lane_steps(results, basis, cfg, T, rngs, increments, diag_interval, p):
        pass
    return results


def _lane_steps(results: list, basis: NoiseBasis, cfg: SchemeConfig, T: float,
                rngs: list | None = None, increments: list | None = None,
                diag_interval: int = 1, p: float = 2.0):
    """The lane loop: yields ``(index, lanes)``, the stack at the start
    (index 0) and after each step, its records already folded into
    ``results``.

    ``results`` holds one :class:`Trajectory` per lane whose ``final_state``
    is the lane's initial state; the loop appends its records, counts its
    steps, sets its final state once the loop is exhausted, and replaces it
    by the exception that failed the lane (see :func:`_run_lanes`).  The
    stack holds the lanes still running, in lane order; a run that reaches
    T yields last a stack whose ``t`` is exactly T, and one whose every lane
    stopped ends without a yield for that step.  A stack the loop stepped
    to keeps its velocity and samples in this thread's workspace, which
    every step overwrites (its predictor's are computed there): a consumer
    may read the stack and record any states (``Lanes.of`` holds no
    workspace buffer), but must not step, or start a run, in this thread
    before it resumes the loop.
    """
    initial = [traj.final_state for traj in results]
    t0 = initial[0].t
    if T < t0:
        raise ValueError(f"final time {T} precedes initial time {t0}")
    if diag_interval < 1:
        raise ValueError("diag_interval must be >= 1")
    m = len(basis)
    rngs = rngs or [None] * len(initial)
    paths = increments or [None] * len(initial)
    if m > 0 and any(rng is None and path is None for rng, path in zip(rngs, paths)):
        raise ValueError("either rng or a precomputed increment path is required")
    steps = (T - t0) / cfg.dt
    whole = abs(steps - round(steps)) <= 1e-9
    nsteps = round(steps) if whole else math.ceil(steps)
    given = [path for path in paths if path is not None]
    if given and not whole:
        raise ValueError("a precomputed increment path requires the horizon to be an "
                         "integer number of steps")
    if any(path.shape[0] < nsteps for path in given):
        raise ValueError("precomputed increment path too short")

    lanes = Lanes.of(initial)
    alive = list(range(len(initial)))  # the lane of each row of the stack
    for index in range(nsteps + 1):
        if index > 0:  # step index - 1, which ends at t0 + index dt, the last on T
            last, k = index == nsteps, index - 1
            step_cfg = replace(cfg, dt=T - lanes.t) if last and not whole else cfg
            dt = step_cfg.dt
            db = np.array([_increment(rngs[lane], paths[lane], k, dt, m) for lane in alive])
            lanes, errors = _advance(lanes, basis, db, dt, step_cfg,
                                     T if last else t0 + index * cfg.dt)
            for lane, error in zip(alive, errors):
                if isinstance(error, BlowUpSuspected):
                    results[lane].final_state = error.last_state
                    results[lane].blowup_suspected = True
                    results[lane].abort_step = k
                elif error is not None:
                    error.step = k
                    results[lane] = error
            if any(errors):
                rows = [row for row, error in enumerate(errors) if error is None]
                lanes, alive = lanes.take(rows), [alive[row] for row in rows]
                if not alive:
                    return
            for lane in alive:
                results[lane].steps_taken = index
        if index % diag_interval == 0 or index == nsteps:
            for lane, record in zip(alive, compute_records(lanes, p)):
                results[lane].records.append(record)
        yield index, lanes
    for row, lane in enumerate(alive):
        results[lane].final_state = lanes.state(row)
