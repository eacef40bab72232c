"""Parallel Monte Carlo over independent noise realizations.

Parallelism is per realization (embarrassingly parallel): each worker owns
its state and RNG stream exclusively, and the aggregation is an ordered
reduce over realization indices, so summaries are bit-identical for any
worker count.  Realization ``i`` derives its stream seed as
``mix_seed(master_seed, i)``.

A worker failure is isolated to its realization: the run is marked failed,
excluded from aggregates, and counted.  A worker process that dies (a
signal, out of memory) breaks the pool: every realization whose result had
not come back by then is resubmitted once to a fresh pool, and those lost a
second time are marked failed; the others keep their results.
Realizations that abort on a suspected blow-up keep their partial series;
per-time statistics aggregate over the realizations that reached each time.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, build_initial_state, build_noise_basis, build_scheme
from .diagnostics import RECORD_FIELDS
from .integrator import run
from .noise import mix_seed
from .spectral import Grid

__all__ = [
    "EnsembleConfig",
    "EnsembleSummary",
    "RealizationResult",
    "run_realization",
    "run_ensemble",
    "moment_estimate",
]

SUMMARY_STATS = ("mean", "var", "max")


@dataclass(frozen=True)
class EnsembleConfig:
    run_config: RunConfig
    realizations: int
    master_seed: int
    parallelism: int = 1

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("ensemble needs at least one realization")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


@dataclass
class RealizationResult:
    index: int
    seed: int
    records: list = field(default_factory=list)
    blowup_suspected: bool = False
    failed: bool = False
    error: str | None = None


@dataclass
class EnsembleSummary:
    """Per-time mean/variance/max of each diagnostic across realizations."""

    times: np.ndarray
    stats: dict          # field name -> {"mean": array, "var": array, "max": array}
    counts: np.ndarray   # realizations contributing at each time index
    blowup_aborts: int
    failed: list
    seeds: list


def run_realization(cfg: RunConfig, master_seed: int, index: int) -> RealizationResult:
    """Run one realization with its derived stream seed (top-level so the
    worker pool can pickle it)."""
    seed = mix_seed(master_seed, index)
    result = RealizationResult(index=index, seed=seed)
    try:
        grid = Grid(cfg.n)
        basis = build_noise_basis(cfg, grid)
        state = build_initial_state(cfg, grid)
        scheme = build_scheme(cfg)
        rng = np.random.default_rng(seed)
        traj = run(state, basis, scheme, cfg.T, rng=rng,
                   diag_interval=cfg.diagnostics_interval, p=cfg.p)
        result.records = traj.records
        result.blowup_suspected = traj.blowup_suspected
    except Exception as exc:  # isolate the failure to this realization
        result.failed = True
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_ensemble(cfg: EnsembleConfig) -> tuple[EnsembleSummary, list]:
    """Run all realizations and aggregate; returns (summary, per-realization
    results ordered by index)."""
    indices = list(range(cfg.realizations))
    if cfg.parallelism == 1 or cfg.realizations == 1:
        results = [run_realization(cfg.run_config, cfg.master_seed, i) for i in indices]
    else:
        results, lost = _run_pool(cfg, indices)
        if lost:  # seeds are per index, so a second attempt gives the same results
            retried, lost = _run_pool(cfg, list(lost))
            results += retried
        results += [RealizationResult(index=i, seed=mix_seed(cfg.master_seed, i),
                                      failed=True, error=f"{type(exc).__name__}: {exc}")
                    for i, exc in lost.items()]
    results.sort(key=lambda r: r.index)
    return summarize(results), results


def _run_pool(cfg: EnsembleConfig, indices: list) -> tuple[list, dict]:
    """Run ``indices`` on a fresh pool; returns the results that came back and
    {index: exception} for those lost with a dead worker process."""
    results, lost = [], {}
    with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
        futures = []
        for i in indices:
            try:
                futures.append(
                    pool.submit(run_realization, cfg.run_config, cfg.master_seed, i))
            except BrokenProcessPool as exc:  # a worker died before all were queued
                lost.update(dict.fromkeys(indices[len(futures):], exc))
                break
        for i, future in zip(indices, futures):
            try:
                results.append(future.result())
            except Exception as exc:  # the worker process died, e.g. BrokenProcessPool
                lost[i] = exc
    return results, lost


def summarize(results: list) -> EnsembleSummary:
    ok = [r for r in results if not r.failed and r.records]
    failed = [r.index for r in results if r.failed]
    aborts = sum(1 for r in results if r.blowup_suspected)
    seeds = [r.seed for r in results]
    if not ok:
        return EnsembleSummary(np.zeros(0), {}, np.zeros(0, dtype=int),
                               aborts, failed, seeds)
    longest = max(ok, key=lambda r: len(r.records))
    times = np.array([rec.t for rec in longest.records])
    nt = len(times)
    fields = [f for f in RECORD_FIELDS if f != "t"]
    stats = {f: {s: np.full(nt, np.nan) for s in SUMMARY_STATS} for f in fields}
    counts = np.zeros(nt, dtype=int)
    for j in range(nt):
        rows = [r.records[j] for r in ok if len(r.records) > j]
        counts[j] = len(rows)
        for f in fields:
            vals = np.array([getattr(rec, f) for rec in rows])
            stats[f]["mean"][j] = vals.mean()
            stats[f]["var"][j] = vals.var()  # population variance: 0 for M = 1
            stats[f]["max"][j] = vals.max()
    return EnsembleSummary(times, stats, counts, aborts, failed, seeds)


def moment_estimate(results: list, field_name: str, moment: int, t: float) -> tuple[float, float]:
    """Sample mean of field^moment at time t across realizations, with the
    jackknife standard error (nan when fewer than two samples reach t)."""
    if moment not in (1, 2):
        raise ValueError("moment must be 1 or 2")
    if field_name not in RECORD_FIELDS or field_name == "t":
        raise ValueError(f"unknown diagnostics field {field_name!r}")
    samples = []
    for r in results:
        if r.failed:
            continue
        times = np.array([rec.t for rec in r.records])
        if len(times) == 0:
            continue
        j = int(np.argmin(np.abs(times - t)))
        if abs(times[j] - t) > 1e-9 * max(1.0, abs(t)):
            continue
        samples.append(getattr(r.records[j], field_name) ** moment)
    if not samples:
        raise ValueError(f"no realization has a record at t={t}")
    x = np.asarray(samples, dtype=float)
    mean = float(x.mean())
    m = len(x)
    if m < 2:
        return mean, math.nan
    # jackknife over leave-one-out means
    loo = (x.sum() - x) / (m - 1)
    se = math.sqrt((m - 1) / m * float(np.sum((loo - loo.mean()) ** 2)))
    return mean, se
