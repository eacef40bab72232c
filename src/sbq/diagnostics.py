"""Conserved and monitored quantities per state, plus blow-up bookkeeping.

One :class:`DiagnosticsRecord` is one row of the time series; the field
order here is also the diagnostics CSV column order.  :func:`compute_record`
takes the velocity, the gradient sups and the grad theta samples from the
state's cache (see :mod:`sbq.state`), the same values the stepper reads for
the blow-up integrand when it steps from that state.

Energy accounting on the torus: the potential term integral of theta * y
uses the coordinate y in [-pi, pi), which is discontinuous on the torus, so
the combined energy is not a clean periodic invariant.  What is checked
instead is the differential identity d(KE)/dt = integral of theta * u2 dV
(kinetic energy balance against the buoyancy flux); the potential term is
still available through :func:`potential_term` for reference reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .spectral import SpectralField, derivative, inner, sobolev_norm
from .state import SimState

__all__ = [
    "DiagnosticsRecord",
    "RECORD_FIELDS",
    "compute_record",
    "potential_term",
    "lp_grad_theta",
    "lp_magnitude",
    "StoppingTimeReport",
    "update_stopping_report",
    "conservation_defects",
    "gronwall_report",
    "offline_blowup_quadrature",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    kinetic_energy: float     # integral of |u|^2 / 2
    buoyancy_flux: float      # integral of theta * u2
    enstrophy2: float         # integral of theta^2
    enstrophy4: float         # integral of theta^4
    h2_omega: float
    h3_theta: float
    linf_grad_u: float
    linf_grad_theta: float
    lp_grad_theta: float
    blowup_accum: float
    embedding_ratio: float    # (linf_grad_u + linf_grad_theta) / (h2 + h3)

    def is_finite(self) -> bool:
        return all(math.isfinite(getattr(self, f.name)) for f in fields(self))


RECORD_FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))


def lp_grad_theta(theta: SpectralField, p: float) -> float:
    """L^p norm of |grad theta| (pointwise Euclidean magnitude)."""
    return lp_magnitude(derivative(theta, "x").values(),
                        derivative(theta, "y").values(), p)


def lp_magnitude(gx: np.ndarray, gy: np.ndarray, p: float) -> float:
    """L^p norm of the pointwise magnitude of physical samples (gx, gy);
    with ``SimState.grad_theta`` it is ||grad theta||_p without a transform."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    mag = np.hypot(gx, gy)
    spacing = 2.0 * np.pi / mag.shape[0]
    return float((np.sum(mag**p) * spacing**2) ** (1.0 / p))


def potential_term(state: SimState) -> float:
    """Reference value of the (non-periodic) potential energy term
    integral of theta * y dV, with y in [-pi, pi)."""
    g = state.grid
    return float(np.sum(state.theta.values() * g.y) * g.spacing**2)


def compute_record(state: SimState, p: float = 2.0) -> DiagnosticsRecord:
    """Evaluate every monitored quantity for one state."""
    u = state.velocity
    ke = 0.5 * (inner(u.u1, u.u1) + inner(u.u2, u.u2))
    flux = inner(state.theta, u.u2)
    ens2 = inner(state.theta, state.theta)
    theta_vals = state.theta.values()
    spacing = state.grid.spacing
    ens4 = float(np.sum(theta_vals**4) * spacing**2)
    h2 = sobolev_norm(state.omega, 2.0)
    h3 = sobolev_norm(state.theta, 3.0)
    gu, gth = state.grad_sups
    lp = lp_magnitude(*state.grad_theta, p)
    denom = h2 + h3
    ratio = (gu + gth) / denom if denom > 0 else 0.0
    return DiagnosticsRecord(
        t=state.t,
        kinetic_energy=ke,
        buoyancy_flux=flux,
        enstrophy2=ens2,
        enstrophy4=ens4,
        h2_omega=h2,
        h3_theta=h3,
        linf_grad_u=gu,
        linf_grad_theta=gth,
        lp_grad_theta=lp,
        blowup_accum=state.blowup_accum,
        embedding_ratio=ratio,
    )


@dataclass
class StoppingTimeReport:
    """First-crossing times of the two blow-up monitors.

    ``tau2_crossings[n]`` is the first time ||omega||_H2 + ||theta||_H3 >= n;
    ``tauinf_crossings[n]`` the first time the accumulated blow-up integral
    reaches n.  Levels not yet crossed are absent.  The continuum statement
    that the two stopping times agree is surfaced only as this comparison
    table, never asserted.
    """

    levels: tuple
    tau2_crossings: dict
    tauinf_crossings: dict
    last_t: float = -math.inf

    @classmethod
    def new(cls, levels=(1, 2, 4, 8, 16, 32)) -> "StoppingTimeReport":
        return cls(tuple(levels), {}, {})

    def as_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "tau2": {str(n): t for n, t in sorted(self.tau2_crossings.items())},
            "tauinf": {str(n): t for n, t in sorted(self.tauinf_crossings.items())},
        }


def update_stopping_report(report: StoppingTimeReport,
                           record: DiagnosticsRecord) -> StoppingTimeReport:
    """Fold one record (records must arrive in increasing time)."""
    if record.t < report.last_t:
        raise ValueError(
            f"records out of order: t={record.t} after t={report.last_t}")
    report.last_t = record.t
    norm_sum = record.h2_omega + record.h3_theta
    for n in report.levels:
        if n not in report.tau2_crossings and norm_sum >= n:
            report.tau2_crossings[n] = record.t
        if n not in report.tauinf_crossings and record.blowup_accum >= n:
            report.tauinf_crossings[n] = record.t
    return report


def offline_blowup_quadrature(records: list) -> float:
    """Left-endpoint quadrature of the stored blow-up integrand series.

    Reconstructs what the steppers accumulate when records are taken at
    every step; used to certify the bookkeeping.
    """
    total = 0.0
    for prev, cur in zip(records, records[1:]):
        total += (cur.t - prev.t) * (prev.linf_grad_u + prev.linf_grad_theta)
    return total


def conservation_defects(records: list, dt: float) -> dict:
    """Worst-case conservation defects over one run's record series.

    Returns the max relative drift of the generalized enstrophies (theta^2
    and theta^4 integrals) and the max residual of the kinetic-energy
    balance dKE/dt = buoyancy flux, with the flux taken at the midpoint
    (trapezoid) between consecutive records.
    """
    if not records:
        raise ValueError("empty series")
    first = records[0]
    ens2_scale = max(abs(first.enstrophy2), 1e-30)
    ens4_scale = max(abs(first.enstrophy4), 1e-30)
    d2 = max(abs(r.enstrophy2 - first.enstrophy2) for r in records) / ens2_scale
    d4 = max(abs(r.enstrophy4 - first.enstrophy4) for r in records) / ens4_scale
    balance = 0.0
    for prev, cur in zip(records, records[1:]):
        span = cur.t - prev.t
        if span <= 0:
            continue
        rate = (cur.kinetic_energy - prev.kinetic_energy) / span
        flux = 0.5 * (cur.buoyancy_flux + prev.buoyancy_flux)
        balance = max(balance, abs(rate - flux))
    return {
        "enstrophy2_defect": d2,
        "enstrophy4_defect": d4,
        "ke_balance_residual": balance,
        "dt": dt,
    }


def gronwall_report(records: list, lp_values: dict) -> dict:
    """Reported (not asserted) transport-growth ratios for grad theta.

    For each p, compares the logarithmic growth of ||grad theta||_p against
    the accumulated integral of ||grad u||_inf: ratio =
    (log lp(T) - log lp(0)) / integral.  Finite ratios are the expected
    outcome; no quantitative constant is claimed.
    """
    if not records:
        raise ValueError("empty series")
    integral = 0.0
    for prev, cur in zip(records, records[1:]):
        integral += (cur.t - prev.t) * prev.linf_grad_u
    out = {"grad_u_integral": integral, "ratios": {}}
    for p, series in lp_values.items():
        start, end = series[0], series[-1]
        if start <= 0 or end <= 0:
            out["ratios"][str(p)] = float("nan")
            continue
        growth = math.log(end) - math.log(start)
        out["ratios"][str(p)] = growth / integral if integral > 0 else 0.0
    return out
