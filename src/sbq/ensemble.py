"""Parallel Monte Carlo over independent noise realizations.

Realizations are independent.  Each pool task takes one worker's share of
them and steps it as lanes of one stack (:mod:`sbq.state`): one grid, noise
basis and initial state for the share, one batched stepping kernel call per
step, each lane with its own RNG stream.  The lanes of one task are capped
by a fixed memory budget (about 440 n^2 bytes a lane, 16 MB in all); a
larger share runs in batches.  A lane's results are bit for bit those of the
realization run alone, and the aggregation is an ordered reduce over
realization indices, so summaries are bit-identical for any worker count
and any grouping into lanes.  Realization ``i`` derives its stream seed as
``mix_seed(master_seed, i)``.

A failure is isolated to its realization: the run is marked failed,
excluded from aggregates, and counted; a lane that fails (the omega mean
guard) or blows up drops out of its stack and the other lanes go on.  A
worker process that dies (a signal, out of memory) breaks the pool: every
realization whose result had not come back by then is run once more, each
in a one-worker pool of its own, and those lost a second time are marked
failed; the others, chunk-mates of a lost realization included, keep
results identical to a serial run.
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
from .integrator import _run_lanes
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
    step: int | None = None  # the index of the step whose guard failed the realization


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
    """Run one realization with its derived stream seed: the one-lane case
    of :func:`_run_chunk`."""
    return _run_chunk(cfg, master_seed, [index])[0]


# lanes stepped together are capped by their working set, about 440 n^2
# bytes each (fields, velocities, gradient samples, stage planes, rates):
# past about 16 MB a lane costs more than stepped alone (2-core x86-64 host,
# 4 MB of L2: at n = 128, 2 lanes beat 1 by 6% and 8 lose 15%; at n = 64,
# 8 lanes beat 4 and 16 lose)
_LANE_BUDGET_BYTES = 16 << 20


def _run_chunk(cfg: RunConfig, master_seed: int, indices: list) -> list:
    """Run realizations ``indices`` as lanes of one stack (top-level so the
    worker pool can pickle it): every realization of an ensemble has the same
    config, so one grid, noise basis and initial state serve them all.  The
    lanes go in batches within :data:`_LANE_BUDGET_BYTES`.

    A failure is isolated to its realization: a lane that fails (the omega
    mean guard, the CFL guard) fails alone, and a failure of the whole batch,
    or of the set-up, fails the realizations not yet run.
    """
    results = [RealizationResult(index=i, seed=mix_seed(master_seed, i)) for i in indices]
    width = max(1, _LANE_BUDGET_BYTES // (440 * cfg.n**2))
    outcomes = []
    try:
        grid = Grid(cfg.n)
        basis = build_noise_basis(cfg, grid)
        state = build_initial_state(cfg, grid)
        scheme = build_scheme(cfg)
        for start in range(0, len(results), width):
            batch = results[start:start + width]
            outcomes += _run_lanes([state] * len(batch), basis, scheme, cfg.T,
                                   rngs=[np.random.default_rng(r.seed) for r in batch],
                                   diag_interval=cfg.diagnostics_interval, p=cfg.p)
    except Exception as exc:  # isolate the failure to the realizations it hit
        outcomes += [exc] * (len(results) - len(outcomes))
    for result, outcome in zip(results, outcomes):
        if isinstance(outcome, Exception):
            result.failed = True
            result.error = f"{type(outcome).__name__}: {outcome}"
            result.step = getattr(outcome, "step", None)
        else:
            result.records = outcome.records
            result.blowup_suspected = outcome.blowup_suspected
    return results


def run_ensemble(cfg: EnsembleConfig) -> tuple[EnsembleSummary, list]:
    """Run all realizations and aggregate; returns (summary, per-realization
    results ordered by index).  Each pool task runs one worker's share of the
    realizations as lanes."""
    indices = list(range(cfg.realizations))
    if cfg.parallelism == 1 or cfg.realizations == 1:
        results = _run_chunk(cfg.run_config, cfg.master_seed, indices)
    else:
        workers = min(cfg.parallelism, cfg.realizations)
        results, lost = _run_pool(workers, cfg, [indices[w::workers] for w in range(workers)])
        # seeds are per index, so a second attempt gives the same result; each
        # lost realization gets a worker of its own, so one that kills its
        # worker again takes no other realization with it
        failed = {}
        for i in lost:
            retried, again = _run_pool(1, cfg, [[i]])
            results += retried
            failed.update(again)
        results += [RealizationResult(index=i, seed=mix_seed(cfg.master_seed, i),
                                      failed=True, error=f"{type(exc).__name__}: {exc}")
                    for i, exc in failed.items()]
    results.sort(key=lambda r: r.index)
    return summarize(results), results


def _run_pool(workers: int, cfg: EnsembleConfig, chunks: list) -> tuple[list, dict]:
    """Run each chunk of indices as one task on a fresh pool of ``workers``
    processes; returns the results that came back and {index: exception} for
    those lost with a dead worker process (a dead worker breaks the pool, so
    every task still out is lost with it)."""
    results, lost = [], {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = []
        for chunk in chunks:
            try:
                futures.append(
                    pool.submit(_run_chunk, cfg.run_config, cfg.master_seed, chunk))
            except BrokenProcessPool as exc:  # a worker died before all were queued
                for unsent in chunks[len(futures):]:
                    lost.update(dict.fromkeys(unsent, exc))
                break
        for chunk, future in zip(chunks, futures):
            try:
                results += future.result()
            except Exception as exc:  # the worker process died, e.g. BrokenProcessPool
                lost.update(dict.fromkeys(chunk, exc))
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
