"""Lie derivatives, general first-order operators, and the numeric
certification of their cancellation and boundedness identities.

The key identities checked here are

* exact cancellation for divergence-free transport:
  <L_xi^2 f, f> + <L_xi f, L_xi f> = 0,
* its weighted version with the multiplier Lambda^k, bounded by
  C * ||f||_{H^k}^2,
* the adjoint defect of a first-order operator Qf = a f_x + b f_y + c f:
  <Qf, g> + <f, Qg> = <Ef, g> with the zero-order symbol
  e = 2c - a_x - b_y assembled analytically from the coefficients.

Exactness of the cancellation test relies on alias-free grids: with
xi band-limited to b_xi and f to b_f, a grid with n >= 3 * (b_xi + b_f)
represents every intermediate product without truncation, which turns the
analytic identity into an exact-zero numerical statement (round-off only).

``lie_derivative`` and ``apply_first_order`` share one first-order kernel:
one batched inverse transform of the dealiased (d_x f, d_y f), plus f for
Q, the products with the coefficients' physical samples summed in physical
space, and one forward transform under the 2/3 rule.  The coefficient
samples are computed on first use and cached on the ``VelocityField`` or
``FirstOrderOp``, so a repeated xi or Q is never transformed again.

The unspecified constants in the weighted estimates are handled as recorded
regression baselines: ``BASELINES`` stores the maximal ratios measured over
the fixed standard random ensemble at build time, and verification asserts
that re-measured ratios never exceed 1.5x those values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import (
    Grid,
    SpectralField,
    VelocityField,
    derivative,
    fractional_laplacian,
    inner,
    l2_norm,
    product,
    random_divergence_free,
    random_field,
    sobolev_norm,
    stream_to_velocity,
)
from .spectral import _gradient_half, _read_only, _to_fourier, _to_physical

__all__ = [
    "FirstOrderOp",
    "lie_derivative",
    "lie_second",
    "cancellation_residual",
    "weighted_cancellation_ratio",
    "apply_first_order",
    "zero_order_defect",
    "adjoint_defect",
    "general_estimate_ratio",
    "commutators",
    "alias_free_grid",
    "run_verification",
    "BASELINES",
]


def _first_order(samples: np.ndarray, f: SpectralField) -> SpectralField:
    """a * d_x f + b * d_y f (+ c * f) under the 2/3 rule, for the physical
    coefficient samples (a, b[, c]) stacked in ``samples``.

    One batched inverse of the dealiased (d_x f, d_y f[, f]), the products
    summed in physical space in that order, one forward transform.
    """
    grid = f.grid
    half = _gradient_half(f.half, grid)
    if len(samples) == 3:
        half = np.concatenate((half, f.half[None]))
    planes = _to_physical(half, grid, dealias=True)
    out = samples[0] * planes[0] + samples[1] * planes[1]
    if len(samples) == 3:
        out += samples[2] * planes[2]
    return SpectralField(grid, _to_fourier(out, grid, dealias=True))


def lie_derivative(xi: VelocityField, f: SpectralField) -> SpectralField:
    """Transport term xi . grad f for a scalar f.

    Both products of the 2/3-rule pseudospectral product are summed in
    physical space, xi1 * d_x f + xi2 * d_y f, before one forward transform;
    the stepper forms its transport terms the same way.  xi's dealiased
    samples are computed on its first use and cached on xi.
    """
    if xi.grid != f.grid:
        raise ValueError("grid mismatch")
    return _first_order(xi._dealiased_samples, f)


def lie_second(xi: VelocityField, f: SpectralField) -> SpectralField:
    """Double transport, computed as two successive first-order applications."""
    return lie_derivative(xi, lie_derivative(xi, f))


def cancellation_residual(xi: VelocityField, f: SpectralField) -> float:
    """<L_xi^2 f, f> + <L_xi f, L_xi f>; zero for divergence-free xi."""
    lf = lie_derivative(xi, f)
    llf = lie_derivative(xi, lf)
    return inner(llf, f) + inner(lf, lf)


def weighted_cancellation_ratio(k: float, xi: VelocityField, f: SpectralField) -> float:
    """(<Lam^k L^2 f, Lam^k f> + <Lam^k Lf, Lam^k Lf>) / ||f||_{H^k}^2."""
    if k < 1:
        raise ValueError(f"weight order must be >= 1, got {k}")
    denom = sobolev_norm(f, k) ** 2
    if denom == 0.0:
        raise ValueError("field must be nonzero")
    lf = lie_derivative(xi, f)
    llf = lie_derivative(xi, lf)
    pl, pf = fractional_laplacian(llf, k), fractional_laplacian(f, k)
    plf = fractional_laplacian(lf, k)
    return (inner(pl, pf) + inner(plf, plf)) / denom


@dataclass(frozen=True)
class FirstOrderOp:
    """Qf = a f_x + b f_y + c f with band-limited smooth coefficients.

    Coefficients are projected into the dealiasing ball at construction so
    every application stays alias-controlled.
    """

    a: SpectralField
    b: SpectralField
    c: SpectralField

    def __post_init__(self):
        if self.a.grid != self.b.grid or self.a.grid != self.c.grid:
            raise ValueError("operator coefficients on different grids")
        drop = self.a.grid._drop_half
        for name in ("a", "b", "c"):
            f = getattr(self, name)
            object.__setattr__(self, name, SpectralField(f.grid, np.where(drop, 0.0, f.half)))

    @property
    def grid(self) -> Grid:
        return self.a.grid

    @cached_property
    def _samples(self) -> np.ndarray:
        """Physical samples of (a, b, c), stacked (3, n, n), read-only; the
        coefficients are already inside the dealiasing ball."""
        half = np.stack([f.half for f in (self.a, self.b, self.c)])
        return _read_only(_to_physical(half, self.grid))


def apply_first_order(q: FirstOrderOp, f: SpectralField) -> SpectralField:
    """Qf = a f_x + b f_y + c f, the three 2/3-rule products summed in
    physical space before one forward transform; Q's coefficient samples are
    computed on its first use and cached on Q."""
    if q.grid != f.grid:
        raise ValueError("grid mismatch")
    return _first_order(q._samples, f)


def zero_order_defect(q: FirstOrderOp) -> SpectralField:
    """Symbol e of the zero-order defect E in Q* = -Q + E: e = 2c - a_x - b_y."""
    return 2.0 * q.c - derivative(q.a, "x") - derivative(q.b, "y")


def adjoint_defect(q: FirstOrderOp, f: SpectralField, g: SpectralField) -> float:
    """<Qf, g> + <f, Qg> - <Ef, g>, zero up to round-off for any f, g."""
    e = zero_order_defect(q)
    return (inner(apply_first_order(q, f), g)
            + inner(f, apply_first_order(q, g))
            - inner(product(e, f), g))


def general_estimate_ratio(k: float, q: FirstOrderOp, f: SpectralField) -> float:
    """(<P Q^2 f, P f> + <P Q f, P Q f>) / ||f||_{H^k}^2 with P = Lambda^k.

    k = 0 means P is the identity, which recovers the unweighted estimate.
    """
    if k < 0:
        raise ValueError(f"weight order must be >= 0, got {k}")
    denom = sobolev_norm(f, k) ** 2
    if denom == 0.0:
        raise ValueError("field must be nonzero")
    qf = apply_first_order(q, f)
    qqf = apply_first_order(q, qf)
    if k == 0:
        return (inner(qqf, f) + inner(qf, qf)) / denom
    pq, pf = fractional_laplacian(qqf, k), fractional_laplacian(f, k)
    pqf = fractional_laplacian(qf, k)
    return (inner(pq, pf) + inner(pqf, pqf)) / denom


def commutators(k: float, q: FirstOrderOp):
    """Commutator operators T1 = [Lambda^k, Q] and T2 = [T1, Q] as callables."""
    if k < 1:
        raise ValueError(f"multiplier order must be >= 1, got {k}")

    def t1(f: SpectralField) -> SpectralField:
        return fractional_laplacian(apply_first_order(q, f), k) \
            - apply_first_order(q, fractional_laplacian(f, k))

    def t2(f: SpectralField) -> SpectralField:
        return t1(apply_first_order(q, f)) - apply_first_order(q, t1(f))

    return t1, t2


def alias_free_grid(band_xi: int, band_f: int, minimum: int = 8) -> Grid:
    """Smallest admissible grid with n >= 3 * (band_xi + band_f)."""
    n = max(minimum, 3 * (band_xi + band_f))
    if n % 2:
        n += 1
    return Grid(n)


# ----------------------------------------------------------------------------
# verification battery
#
# The standard ensemble is fixed by the seed and sizes below.  BASELINES holds
# the maximal ratios measured over that ensemble when the battery was frozen;
# re-runs must stay within 1.5x of them.

STANDARD_SEED = 20250809
BASELINES = {
    "weighted_ratio_k1": 0.52,
    "weighted_ratio_k2": 1.66,
    "weighted_ratio_k3": 3.22,
    "general_ratio_k0": 0.105,
    "general_ratio_k1": 0.46,
    "mode_sweep_max": 4.98,
    "example_sweep_max": 0.98,
    "commutator_order_max": 1.77,
}


def _standard_xi(grid: Grid) -> VelocityField:
    psi = SpectralField.from_physical(
        grid,
        0.7 * np.sin(grid.y)
        + 0.4 * np.cos(grid.x) * np.cos(grid.y)
        + 0.2 * np.sin(2 * grid.x + grid.y),
    )
    return stream_to_velocity(psi)


def _standard_q(grid: Grid, rng: np.random.Generator) -> FirstOrderOp:
    return FirstOrderOp(
        random_field(grid, rng, band=4),
        random_field(grid, rng, band=4),
        random_field(grid, rng, band=4),
    )


def run_verification(seed: int = STANDARD_SEED, n: int = 64,
                     samples: int = 50, pairs: int = 100) -> dict:
    """Run the full operator battery and return a JSON-serializable report.

    Checks, in order: exact Lie cancellation on alias-free grids, the adjoint
    defect identity, boundedness of the weighted ratios against the recorded
    baselines, the single-mode sweep, the Biot-Savart style antisymmetry of
    L_xi, and the commutator order check.
    """
    rng = np.random.default_rng(seed)
    grid = Grid(n)
    report = {"seed": seed, "grid_n": n, "checks": {}}

    # exact cancellation, divergence-free xi and f, alias-free by construction
    band = n // 6 - 1  # 3 * (band + band) < n
    worst = 0.0
    for _ in range(samples):
        xi = random_divergence_free(grid, rng, band)
        f = random_field(grid, rng, band)
        res = abs(cancellation_residual(xi, f))
        worst = max(worst, res / max(1.0, sobolev_norm(f, 1.0) ** 2))
    report["checks"]["cancellation"] = {
        "max_scaled_residual": worst,
        "tolerance": 1e-10,
        "pass": worst <= 1e-10,
    }

    # adjoint defect identity over random (Q, f, g)
    worst = 0.0
    for _ in range(pairs):
        q = _standard_q(grid, rng)
        f = random_field(grid, rng, band=8)
        g = random_field(grid, rng, band=8)
        scale = max(l2_norm(f) * l2_norm(g), 1e-30)
        worst = max(worst, abs(adjoint_defect(q, f, g)) / scale)
    report["checks"]["adjoint_defect"] = {
        "max_relative_defect": worst,
        "tolerance": 1e-10,
        "pass": worst <= 1e-10,
    }

    # weighted cancellation ratios against recorded baselines
    xi = _standard_xi(grid)
    for k in (1, 2, 3):
        ratios = []
        for i in range(100):
            f = random_field(grid, rng, band=12, amplitude=float(1 + i % 7))
            ratios.append(weighted_cancellation_ratio(float(k), xi, f))
        key = f"weighted_ratio_k{k}"
        measured = float(np.max(np.abs(ratios)))
        report["checks"][key] = {
            "max_abs_ratio": measured,
            "baseline": BASELINES[key],
            "pass": measured <= 1.5 * BASELINES[key],
        }

    # general first-order estimate ratios
    q = _standard_q(grid, np.random.default_rng(seed + 1))
    for k in (0, 1):
        ratios = []
        for i in range(100):
            f = random_field(grid, rng, band=12, amplitude=float(1 + i % 7))
            ratios.append(general_estimate_ratio(float(k), q, f))
        key = f"general_ratio_k{k}"
        measured = float(np.max(np.abs(ratios)))
        report["checks"][key] = {
            "max_abs_ratio": measured,
            "baseline": BASELINES[key],
            "pass": measured <= 1.5 * BASELINES[key],
        }

    # single-mode sweep: no growth of the weighted ratio in the mode number.
    # The standard sweep field carries two stream harmonics, which keeps the
    # max/min spread of the sequence well below 2; a single-harmonic stream
    # function is checked separately for plain boundedness (its spread tends
    # to k * 2^k / (2^k - 1) analytically, above 2 for k = 2).
    xi_sweep = stream_to_velocity(SpectralField.from_physical(
        grid, np.sin(grid.y) + 0.5 * np.sin(2 * grid.y)))
    xi_single = stream_to_velocity(
        SpectralField.from_physical(grid, np.sin(grid.y)))
    sweep, single = [], []
    for m in range(1, 9):
        f = SpectralField.from_physical(grid, np.cos(m * grid.x))
        sweep.append(abs(weighted_cancellation_ratio(2.0, xi_sweep, f)))
        single.append(abs(weighted_cancellation_ratio(2.0, xi_single, f)))
    sweep_max = float(np.max(sweep))
    spread = float(np.max(sweep) / np.min(sweep))
    single_max = float(np.max(single))
    report["checks"]["mode_sweep"] = {
        "ratios": sweep,
        "max": sweep_max,
        "max_over_min": spread,
        "baseline": BASELINES["mode_sweep_max"],
        "pass": sweep_max <= 1.5 * BASELINES["mode_sweep_max"] and spread <= 2.0,
    }
    report["checks"]["single_harmonic_sweep"] = {
        "ratios": single,
        "max": single_max,
        "baseline": BASELINES["example_sweep_max"],
        "pass": single_max <= 1.5 * BASELINES["example_sweep_max"],
    }

    # antisymmetry of L_xi for divergence-free xi
    worst = 0.0
    for _ in range(50):
        xi_r = random_divergence_free(grid, rng, band=8)
        f = random_field(grid, rng, band=8)
        g = random_field(grid, rng, band=8)
        val = inner(lie_derivative(xi_r, f), g) + inner(f, lie_derivative(xi_r, g))
        worst = max(worst, abs(val) / max(l2_norm(f) * l2_norm(g), 1e-30))
    report["checks"]["lie_antisymmetry"] = {
        "max_relative_defect": worst,
        "tolerance": 1e-10,
        "pass": worst <= 1e-10,
    }

    # commutator order: ||T1 f_m|| / ||f_m||_{H^k} bounded in the mode number
    q2 = _standard_q(grid, np.random.default_rng(seed + 2))
    t1, _ = commutators(2.0, q2)
    ratios = []
    for m in range(1, 9):
        f = SpectralField.from_physical(grid, np.cos(m * grid.x))
        ratios.append(l2_norm(t1(f)) / sobolev_norm(f, 2.0))
    order_max = float(np.max(ratios))
    report["checks"]["commutator_order"] = {
        "ratios": ratios,
        "max": order_max,
        "baseline": BASELINES["commutator_order_max"],
        "pass": order_max <= 1.5 * BASELINES["commutator_order_max"],
    }

    report["pass"] = all(c["pass"] for c in report["checks"].values())
    return report
