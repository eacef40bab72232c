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

One first-order kernel serves every operator here: one batched inverse
transform of the dealiased (d_x f, d_y f), plus f for Q, the products with
the coefficients' physical samples summed in physical space, and one
forward transform under the 2/3 rule.  It takes leading axes, one row per
sample, and each row equals its one-row call bit for bit.
``lie_derivative``, ``apply_first_order`` and the residual, ratio, defect
and commutator functions are its one-row case; their coefficient samples
are computed on first use and cached on the ``VelocityField`` or
``FirstOrderOp``, so a repeated xi or Q is never transformed again.

:func:`run_verification` draws each check's inputs in the order of a
sample-by-sample loop and evaluates them in batches of rows: one batched
inverse gives a batch's xi or Q samples, then batched first-order
applications and row-wise inner products.  A batch's size comes from a
fixed byte budget (``_BATCH_BYTES``, 4 rows at n = 64) and its large
temporaries live in the per-thread workspace (``spectral._workspace``),
so a standard pass makes 845 transform calls, and its report equals the
sample-by-sample evaluation's bit for bit.

The battery draws each random input from its band's box of normals alone
(:func:`_draw`): ``random_field``'s law from 2 (2 band + 1)^2 normals
instead of 2 n^2, in another stream.

The unspecified constants in the weighted estimates are handled as recorded
regression baselines: ``BASELINES`` stores the maximal ratios measured over
the fixed standard random ensemble at build time, and verification asserts
that re-measured ratios never exceed 1.5x those values.  They were recorded
over the ensemble drawn by ``random_field`` on the full grid; the box
ensemble of the standard seed reads weighted k = 1, 2, 3: 0.519, 1.656,
3.423, general k = 0, 1: 0.092, 0.459, and commutator 1.922.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import (
    Grid,
    SpectralField,
    VelocityField,
    l2_norm,
    sobolev_norm,
    stream_to_velocity,
)
from .spectral import (_box_field, _fractional_multiplier, _gradient_half, _inner_half,
                       _product_half, _read_only, _to_fourier, _to_physical, _workspace)

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


def _grid(*objects) -> Grid:
    """The objects' common grid; a mismatch is a ValueError."""
    grid = objects[0].grid
    if any(o.grid != grid for o in objects[1:]):
        raise ValueError("grid mismatch")
    return grid


def _first_order(samples: np.ndarray, half: np.ndarray, grid: Grid,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Half spectra of a * d_x f + b * d_y f (+ c * f) under the 2/3 rule,
    for the physical coefficient samples (..., k, n, n), k = 2 for (a, b)
    and 3 for (a, b, c), and the half spectra (..., n, n/2 + 1) of f; the
    samples' leading axes broadcast against f's, one row per leading index.

    One batched inverse of the dealiased (d_x f, d_y f[, f]) and the
    products, summed in physical space in that order, in this thread's
    workspace; one batched forward into ``out`` or a fresh array.  Each row
    equals its one-row call bit for bit.
    """
    k, lead, n = samples.shape[-3], half.shape[:-2], grid.n
    planes = _workspace("transform-half", (*lead, k, n, n // 2 + 1))
    _gradient_half(half, grid, out=planes[..., :2, :, :])
    if k == 3:
        planes[..., 2, :, :] = half
    phys = _to_physical(planes, grid, dealias=True,
                        out=_workspace("transform-phys", (*lead, k, n, n), np.float64))
    np.multiply(samples, phys, out=phys)
    total = np.add(phys[..., 0, :, :], phys[..., 1, :, :], out=phys[..., 0, :, :])
    if k == 3:
        total += phys[..., 2, :, :]
    return _to_fourier(total, grid, dealias=True, out=out)


def lie_derivative(xi: VelocityField, f: SpectralField) -> SpectralField:
    """Transport term xi . grad f for a scalar f.

    Both products of the 2/3-rule pseudospectral product are summed in
    physical space, xi1 * d_x f + xi2 * d_y f, before one forward transform;
    the stepper forms its transport terms the same way.  xi's dealiased
    samples are computed on its first use and cached on xi.
    """
    return SpectralField(f.grid, _first_order(xi._dealiased_samples, f.half, _grid(xi, f)))


def lie_second(xi: VelocityField, f: SpectralField) -> SpectralField:
    """Double transport, computed as two successive first-order applications."""
    return lie_derivative(xi, lie_derivative(xi, f))


def _estimate_terms(k: float, samples: np.ndarray, half: np.ndarray,
                    grid: Grid) -> np.ndarray:
    """<P L^2 f, P f> + <P L f, P L f> per row, for the first-order operator
    L of the coefficient ``samples`` (:func:`_first_order`) and the half
    spectra ``half`` of f, with P = Lambda^k (the identity for k = 0); the
    intermediate spectra live in this thread's workspace."""
    lf = _first_order(samples, half, grid, out=_workspace("lf", half.shape))
    llf = _first_order(samples, lf, grid, out=_workspace("llf", half.shape))
    if k:
        mult = _fractional_multiplier(grid, k)
        half = np.multiply(half, mult, out=_workspace("pf", half.shape))
        lf *= mult
        llf *= mult
    return _inner_half(llf, half) + _inner_half(lf, lf)


def _checked_denominator(f: SpectralField, k: float) -> float:
    """||f||_{H^k}^2, which a ratio divides by: f must be nonzero."""
    denom = sobolev_norm(f, k) ** 2
    if denom == 0.0:
        raise ValueError("field must be nonzero")
    return denom


def cancellation_residual(xi: VelocityField, f: SpectralField) -> float:
    """<L_xi^2 f, f> + <L_xi f, L_xi f>; zero for divergence-free xi."""
    return float(_estimate_terms(0.0, xi._dealiased_samples, f.half, _grid(xi, f)))


def weighted_cancellation_ratio(k: float, xi: VelocityField, f: SpectralField) -> float:
    """(<Lam^k L^2 f, Lam^k f> + <Lam^k Lf, Lam^k Lf>) / ||f||_{H^k}^2."""
    if k < 1:
        raise ValueError(f"weight order must be >= 1, got {k}")
    grid, denom = _grid(xi, f), _checked_denominator(f, k)
    return float(_estimate_terms(k, xi._dealiased_samples, f.half, grid)) / denom


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
    def _coeffs(self) -> np.ndarray:
        """Half spectra of (a, b, c), stacked (3, n, n/2 + 1), read-only."""
        return _read_only(np.stack([f.half for f in (self.a, self.b, self.c)]))

    @cached_property
    def _samples(self) -> np.ndarray:
        """Physical samples of (a, b, c), stacked (3, n, n), read-only; the
        coefficients are already inside the dealiasing ball."""
        return _read_only(_to_physical(self._coeffs, self.grid))


def apply_first_order(q: FirstOrderOp, f: SpectralField) -> SpectralField:
    """Qf = a f_x + b f_y + c f, the three 2/3-rule products summed in
    physical space before one forward transform; Q's coefficient samples are
    computed on its first use and cached on Q."""
    return SpectralField(f.grid, _first_order(q._samples, f.half, _grid(q, f)))


def _defect_symbol(coeffs: np.ndarray, grid: Grid,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Half spectra of e = 2c - a_x - b_y for the half spectra of (a, b, c)
    stacked (..., 3, n, n/2 + 1), into ``out`` or a fresh array."""
    a, b, c = (coeffs[..., i, :, :] for i in range(3))
    e = np.multiply(c, 2.0, out=out)
    term = _workspace("defect-term", e.shape)
    e -= np.multiply(a, grid.deriv_x, out=term)
    e -= np.multiply(b, grid.deriv_y, out=term)
    return e


def zero_order_defect(q: FirstOrderOp) -> SpectralField:
    """Symbol e of the zero-order defect E in Q* = -Q + E: e = 2c - a_x - b_y."""
    return SpectralField(q.grid, _defect_symbol(q._coeffs, q.grid))


def _skew_defects(samples: np.ndarray, f: np.ndarray, g: np.ndarray,
                  grid: Grid) -> np.ndarray:
    """<Qf, g> + <f, Qg> per row for the first-order operator Q of the
    coefficient ``samples`` (..., k, n, n) and the half spectra f, g
    (..., n, n/2 + 1); Qf and Qg live in this thread's workspace."""
    qf = _first_order(samples, f, grid, out=_workspace("lf", f.shape))
    qg = _first_order(samples, g, grid, out=_workspace("llf", g.shape))
    return _inner_half(qf, g) + _inner_half(f, qg)


def _adjoint_defects(samples: np.ndarray, e: np.ndarray, f: np.ndarray, g: np.ndarray,
                     grid: Grid) -> np.ndarray:
    """<Qf, g> + <f, Qg> - <Ef, g> per row, e the half spectra of E's symbol
    (:func:`_defect_symbol`)."""
    skew = _skew_defects(samples, f, g, grid)
    return skew - _inner_half(_product_half(e, f, grid, out=_workspace("lf", f.shape)), g)


def adjoint_defect(q: FirstOrderOp, f: SpectralField, g: SpectralField) -> float:
    """<Qf, g> + <f, Qg> - <Ef, g>, zero up to round-off for any f, g."""
    grid = _grid(q, f, g)
    return float(_adjoint_defects(q._samples, _defect_symbol(q._coeffs, grid),
                                  f.half, g.half, grid))


def general_estimate_ratio(k: float, q: FirstOrderOp, f: SpectralField) -> float:
    """(<P Q^2 f, P f> + <P Q f, P Q f>) / ||f||_{H^k}^2 with P = Lambda^k.

    k = 0 means P is the identity, which recovers the unweighted estimate.
    """
    if k < 0:
        raise ValueError(f"weight order must be >= 0, got {k}")
    grid, denom = _grid(q, f), _checked_denominator(f, k)
    return float(_estimate_terms(k, q._samples, f.half, grid)) / denom


def _commutator(k: float, samples: np.ndarray, half: np.ndarray, grid: Grid) -> np.ndarray:
    """Half spectra of [Lambda^k, Q] f per row, Lambda^k Q f - Q Lambda^k f."""
    mult = _fractional_multiplier(grid, k)
    return (_first_order(samples, half, grid) * mult
            - _first_order(samples, half * mult, grid))


def commutators(k: float, q: FirstOrderOp):
    """Commutator operators T1 = [Lambda^k, Q] and T2 = [T1, Q] as callables."""
    if k < 1:
        raise ValueError(f"multiplier order must be >= 1, got {k}")

    def t1(f: SpectralField) -> SpectralField:
        return SpectralField(f.grid, _commutator(k, q._samples, f.half, _grid(q, f)))

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


def _draw(grid: Grid, rng: np.random.Generator, band: int,
          amplitude: float = 1.0) -> SpectralField:
    """A ``random_field`` of the same law from the band's box of normals
    alone: 2 (2 band + 1)^2 normals, where ``random_field`` draws 2 n^2."""
    return _box_field(grid, rng.standard_normal((2, (2 * band + 1) ** 2)), band, amplitude)


def _standard_q(grid: Grid, rng: np.random.Generator) -> FirstOrderOp:
    return FirstOrderOp(_draw(grid, rng, 4), _draw(grid, rng, 4), _draw(grid, rng, 4))


# A batch of the battery evaluates its rows together; its largest stack of
# physical planes (3 a row: Q's samples, or the first-order kernel's
# d_x f, d_y f and f) stays within this many bytes of the workspace.
_BATCH_BYTES = 3 << 17


def _in_batches(count: int, grid: Grid, draw, evaluate) -> list:
    """``evaluate(rows)`` of successive batches of the rows ``draw(i)``,
    i < count, each batch drawn just before it is evaluated (so the draws
    come in the order of a row-by-row loop); the results in row order."""
    size = max(1, _BATCH_BYTES // (3 * 8 * grid.n**2))
    out = []
    for start in range(0, count, size):
        out += evaluate([draw(i) for i in range(start, min(start + size, count))])
    return out


def _field_rows(fields: list, user: str = "f") -> np.ndarray:
    """The fields' half spectra stacked (R, n, n/2 + 1) in this thread's
    workspace for ``user``."""
    out = _workspace(user, (len(fields), *fields[0].half.shape))
    return np.stack([f.half for f in fields], out=out)


def _pair_rows(rows: list) -> tuple:
    """The half spectra of the rows' last two fields (f, g), each stacked
    (R, n, n/2 + 1) in this thread's workspace."""
    return _field_rows([row[-2] for row in rows]), _field_rows([row[-1] for row in rows], "g")


def _coefficient_rows(rows: list) -> np.ndarray:
    """R rows of k coefficient half spectra (xi's velocities, or Q's a, b
    and c) stacked (R, k, n, n/2 + 1) in the transform kernels' half buffer
    of this thread's workspace, which is free between kernel calls:
    :func:`_batch_samples` consumes the stack before the next one."""
    planes = [p for row in rows for p in row]
    out = _workspace("transform-half", (len(rows), len(rows[0]), *planes[0].shape))
    np.stack(planes, out=out.reshape(len(planes), *planes[0].shape))
    return out


def _batch_samples(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Physical samples (R, k, n, n) of R rows of k coefficient half spectra
    (``coeffs``, overwritten) under the 2/3 rule (the velocities of xi, or
    Q's coefficients, which are inside the ball already), by one batched
    inverse into this thread's workspace; row r equals the row's
    ``_dealiased_samples`` or ``_samples``."""
    out = _workspace("samples", coeffs.shape[:-1] + (grid.n,), np.float64)
    return _to_physical(coeffs, grid, dealias=True, out=out)


def _ratios(k: float, samples: np.ndarray, fields: list, grid: Grid) -> list:
    """The ratios of :func:`weighted_cancellation_ratio` (or
    :func:`general_estimate_ratio`) of a batch of fields for one operator."""
    terms = _estimate_terms(k, samples, _field_rows(fields), grid).tolist()
    return [t / _checked_denominator(f, k) for t, f in zip(terms, fields)]


def _relative(values: np.ndarray, rows: list) -> list:
    """|value| / max(||f|| ||g||, 1e-30) per row (.., f, g)."""
    return [abs(v) / max(l2_norm(f) * l2_norm(g), 1e-30)
            for v, (*_, f, g) in zip(values.tolist(), rows)]


def run_verification(seed: int = STANDARD_SEED, n: int = 64,
                     samples: int = 50, pairs: int = 100) -> dict:
    """Run the full operator battery and return a JSON-serializable report.

    Checks, in order: exact Lie cancellation on alias-free grids, the adjoint
    defect identity, boundedness of the weighted ratios against the recorded
    baselines, the single-mode sweep, the Biot-Savart style antisymmetry of
    L_xi, and the commutator order check.

    Each check draws its random inputs in the order of a sample-by-sample
    loop and evaluates them in batches (:func:`_in_batches`), one row per
    sample: one batched inverse gives the batch's xi or Q samples, then
    batched first-order applications and row-wise inner products, each row
    bit for bit the public one-sample function's value.
    """
    rng = np.random.default_rng(seed)
    grid = Grid(n)
    report = {"seed": seed, "grid_n": n, "checks": {}}

    # exact cancellation, divergence-free xi and f, alias-free by construction
    band = n // 6 - 1  # 3 * (band + band) < n

    def cancellation(rows):
        xis = _batch_samples(_coefficient_rows([(xi.u1.half, xi.u2.half) for xi, _ in rows]),
                             grid)
        fields = [f for _, f in rows]
        residuals = _estimate_terms(0.0, xis, _field_rows(fields), grid).tolist()
        return [abs(r) / max(1.0, sobolev_norm(f, 1.0) ** 2)
                for r, f in zip(residuals, fields)]

    worst = max([0.0, *_in_batches(samples, grid, lambda _: (
        stream_to_velocity(_draw(grid, rng, band)), _draw(grid, rng, band)), cancellation)])
    report["checks"]["cancellation"] = {
        "max_scaled_residual": worst,
        "tolerance": 1e-10,
        "pass": worst <= 1e-10,
    }

    # adjoint defect identity over random (Q, f, g)
    def adjoint(rows):
        coeffs = _coefficient_rows([(q.a.half, q.b.half, q.c.half) for q, _, _ in rows])
        e = _defect_symbol(coeffs, grid, out=_workspace("e", coeffs[:, 0].shape))
        return _relative(_adjoint_defects(_batch_samples(coeffs, grid), e, *_pair_rows(rows),
                                          grid), rows)

    worst = max([0.0, *_in_batches(pairs, grid, lambda _: (
        _standard_q(grid, rng), _draw(grid, rng, 8), _draw(grid, rng, 8)), adjoint)])
    report["checks"]["adjoint_defect"] = {
        "max_relative_defect": worst,
        "tolerance": 1e-10,
        "pass": worst <= 1e-10,
    }

    # weighted cancellation ratios of xi, then general first-order estimate
    # ratios of Q, against recorded baselines
    def draw_ratio_field(i):
        return _draw(grid, rng, 12, float(1 + i % 7))

    xi = _standard_xi(grid)
    q = _standard_q(grid, np.random.default_rng(seed + 1))
    for key, k, coefficients in [
            *((f"weighted_ratio_k{k}", k, xi._dealiased_samples) for k in (1, 2, 3)),
            *((f"general_ratio_k{k}", k, q._samples) for k in (0, 1))]:
        ratios = _in_batches(100, grid, draw_ratio_field, lambda rows: _ratios(
            float(k), coefficients, rows, grid))
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
    modes = [SpectralField.from_physical(grid, np.cos(m * grid.x)) for m in range(1, 9)]

    def sweep_ratios(v: VelocityField) -> list:
        return [abs(r) for r in _in_batches(len(modes), grid, modes.__getitem__, lambda rows: (
            _ratios(2.0, v._dealiased_samples, rows, grid)))]

    sweep, single = sweep_ratios(xi_sweep), sweep_ratios(xi_single)
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
    def antisymmetry(rows):
        xis = _batch_samples(_coefficient_rows([(xi_r.u1.half, xi_r.u2.half)
                                                for xi_r, _, _ in rows]), grid)
        return _relative(_skew_defects(xis, *_pair_rows(rows), grid), rows)

    worst = max([0.0, *_in_batches(50, grid, lambda _: (
        stream_to_velocity(_draw(grid, rng, 8)), _draw(grid, rng, 8), _draw(grid, rng, 8)),
        antisymmetry)])
    report["checks"]["lie_antisymmetry"] = {
        "max_relative_defect": worst,
        "tolerance": 1e-10,
        "pass": worst <= 1e-10,
    }

    # commutator order: ||T1 f_m|| / ||f_m||_{H^k} bounded in the mode number
    q2 = _standard_q(grid, np.random.default_rng(seed + 2))

    def commutator_order(rows):
        t1 = _commutator(2.0, q2._samples, _field_rows(rows), grid)
        return [float(np.sqrt(max(v, 0.0))) / sobolev_norm(f, 2.0)
                for v, f in zip(_inner_half(t1, t1).tolist(), rows)]

    ratios = _in_batches(len(modes), grid, modes.__getitem__, commutator_order)
    order_max = float(np.max(ratios))
    report["checks"]["commutator_order"] = {
        "ratios": ratios,
        "max": order_max,
        "baseline": BASELINES["commutator_order_max"],
        "pass": order_max <= 1.5 * BASELINES["commutator_order_max"],
    }

    report["pass"] = all(c["pass"] for c in report["checks"].values())
    return report
