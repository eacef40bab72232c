"""Ensemble determinism, aggregation, moment estimates."""

import dataclasses
import functools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from sbq import ensemble, integrator
from sbq.cli import main
from sbq.config import (
    build_initial_state,
    build_noise_basis,
    build_scheme,
    parse_config,
)
from sbq.ensemble import (
    SUMMARY_STATS,
    EnsembleConfig,
    _run_chunk,
    RealizationResult,
    moment_estimate,
    run_ensemble,
    run_realization,
    summarize,
)
from sbq.diagnostics import DiagnosticsRecord
from sbq.io import write_summary_csv
from sbq.noise import mix_seed
from sbq.spectral import Grid


def small_config(noise=None, realizations=1, T=0.05):
    return parse_config({
        "n": 32, "T": T, "dt": 0.01, "scheme": "stratonovich_heun", "seed": 42,
        "initial": {"type": "taylor_green", "amplitude": 1.0},
        "noise": noise or {"type": "default_family", "k_max": 2, "sigma": 0.05},
        "realizations": realizations,
    })


def fake_record(t, value):
    return DiagnosticsRecord(t=t, kinetic_energy=value, buoyancy_flux=0.0,
                             enstrophy2=0.0, enstrophy4=0.0, h2_omega=0.0,
                             h3_theta=0.0, linf_grad_u=0.0, linf_grad_theta=0.0,
                             lp_grad_theta=0.0, blowup_accum=0.0,
                             embedding_ratio=0.0)


class TestRealization:
    def test_seed_derivation(self):
        cfg = small_config()
        res = run_realization(cfg, cfg.seed, 3)
        assert res.seed == mix_seed(42, 3)
        assert not res.failed
        assert len(res.records) == 6

    def test_failure_isolated(self):
        # wavevector outside the n=32 dealias ball fails at build time;
        # parse_config rejects it, so the config is edited past the parser
        cfg = dataclasses.replace(small_config(), noise={"type": "modes", "modes": [
            {"wavevector": [20, 0], "phase": "sine", "amplitude": 1.0}]})
        res = run_realization(cfg, cfg.seed, 0)
        assert res.failed
        assert "ValueError" in res.error


def dying_chunk(cfg, master_seed, indices):
    # module level so forked pool workers can unpickle it; a task holding
    # index 1 kills its worker
    if 1 in indices:
        os._exit(1)
    return _run_chunk(cfg, master_seed, indices)


def dying_once_chunk(marker, cfg, master_seed, indices):
    # the first task holding index 1 leaves the marker and kills its worker
    if 1 in indices and not marker.exists():
        marker.touch()
        os._exit(1)
    return _run_chunk(cfg, master_seed, indices)


class TestDeadWorker:
    def test_dead_worker_fails_its_realization(self, monkeypatch):
        monkeypatch.setattr("sbq.ensemble._run_chunk", dying_chunk)
        cfg = small_config(realizations=3)
        summary, results = run_ensemble(EnsembleConfig(cfg, 3, cfg.seed, 2))
        assert 1 in summary.failed
        assert [r.index for r in results] == [0, 1, 2]
        dead = results[1]
        assert dead.seed == mix_seed(cfg.seed, 1)
        assert dead.error and not dead.records

    def test_ensemble_command_exits_3_with_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sbq.ensemble._run_chunk", dying_chunk)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "n": 32, "T": 0.05, "dt": 0.01, "scheme": "stratonovich_heun",
            "seed": 7, "initial": "taylor_green", "noise": {"type": "none"},
            "realizations": 3, "workers": 2, "out": str(tmp_path / "out")}))
        assert main(["ensemble", "--config", str(path), "--quiet"]) == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert 1 in manifest["failed_realizations"]
        assert set(manifest["environment"]) == {"python", "numpy", "fft_backend",
                                                "usable_cores"}
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_lost_realizations_resubmitted_once(self, tmp_path, monkeypatch):
        cfg = small_config(realizations=4)
        serial, _ = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 1))
        marker = tmp_path / "died"
        monkeypatch.setattr("sbq.ensemble._run_chunk",
                            functools.partial(dying_once_chunk, marker))
        summary, results = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 2))
        assert marker.exists()
        assert summary.failed == []
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert np.array_equal(summary.times, serial.times)
        assert np.array_equal(summary.counts, serial.counts)
        for f in serial.stats:
            for stat in ("mean", "var", "max"):
                assert np.array_equal(summary.stats[f][stat], serial.stats[f][stat])


    def test_chunk_mates_of_a_dead_realization_match_serial(self, monkeypatch):
        # realizations 1 and 3 share a task; 3 is run again alone and keeps
        # the result of a serial run
        cfg = small_config(realizations=4)
        _, serial = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 1))
        monkeypatch.setattr("sbq.ensemble._run_chunk", dying_chunk)
        summary, results = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 2))
        assert summary.failed == [1]
        expected = summarize([r if r.index != 1 else results[1] for r in serial])
        assert np.array_equal(summary.times, expected.times)
        assert np.array_equal(summary.counts, expected.counts)
        for f in expected.stats:
            for stat in ("mean", "var", "max"):
                assert np.array_equal(summary.stats[f][stat], expected.stats[f][stat])


def worker_pids() -> list:
    # the pool's workers are this process's only live multiprocessing children
    return sorted(p.pid for p in multiprocessing.active_children())


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def assert_same_summary(got, want):
    assert got.failed == want.failed
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.counts, want.counts)
    for f in want.stats:
        for stat in SUMMARY_STATS:
            assert np.array_equal(got.stats[f][stat], want.stats[f][stat])


def child_ensemble(cfg):
    # run in a forked multiprocessing child, whose exit joins its children
    summary, _ = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 2))
    if summary.failed:
        os._exit(1)


class TestPool:
    """One pool per process, made on first use and kept warm."""

    def test_calls_reuse_the_workers(self):
        cfg = small_config(realizations=4)
        run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 2))
        first = worker_pids()
        run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 2))
        assert len(first) == 2 and worker_pids() == first

    def test_a_worker_killed_while_idle_costs_no_realization(self):
        cfg = small_config(realizations=4)
        serial, _ = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 1))
        run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 2))
        old = worker_pids()
        os.kill(old[0], signal.SIGKILL)
        # the pool finds the death, marks itself broken and ends the other worker
        deadline = time.monotonic() + 60
        while set(old) & set(worker_pids()) and time.monotonic() < deadline:
            time.sleep(0.01)
        summary, _ = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 2))
        assert summary.failed == []
        assert_same_summary(summary, serial)
        # a fresh two-worker pool ran the call: no one-worker pool retried it
        new = worker_pids()
        assert len(new) == 2 and not set(new) & set(old)

    def test_changing_worker_counts_keep_the_bits(self):
        cfg = small_config(realizations=4)
        serial, _ = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 1))
        for workers in (2, 4, 2):
            summary, _ = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, workers))
            assert_same_summary(summary, serial)
            assert len(worker_pids()) == workers  # the old pool's workers are joined

    def test_threads_with_other_worker_counts_take_turns(self):
        cfg = small_config(realizations=4)
        serial, _ = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 1))
        summaries, errors = [], []

        def calls(workers):
            try:
                for _ in range(3):
                    summaries.append(run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, workers))[0])
            except Exception as exc:  # e.g. a pool shut down under a queued call
                errors.append(exc)

        threads = [threading.Thread(target=calls, args=(w,)) for w in (2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == [] and len(summaries) == 6
        for summary in summaries:
            assert_same_summary(summary, serial)
        assert len(worker_pids()) in (2, 3)  # one pool is left, no leaked one

    def test_a_process_exits_with_its_workers(self):
        script = textwrap.dedent("""
            import multiprocessing
            from sbq.config import parse_config
            from sbq.ensemble import EnsembleConfig, run_ensemble
            cfg = parse_config({"n": 16, "T": 0.02, "dt": 0.01, "seed": 5,
                                "scheme": "stratonovich_heun", "initial": "taylor_green",
                                "noise": {"type": "default_family", "k_max": 2, "sigma": 0.05}})
            summary, _ = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 2))
            assert summary.failed == []
            print(*(p.pid for p in multiprocessing.active_children()))
        """)
        src = os.path.dirname(os.path.dirname(ensemble.__file__))
        out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        pids = [int(pid) for pid in out.stdout.split()]
        assert len(pids) == 2 and not any(alive(pid) for pid in pids)

    def test_a_forked_child_makes_and_ends_its_own_pool(self):
        cfg = small_config(realizations=4)
        run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 2))  # the parent's pool is live
        child = multiprocessing.get_context("fork").Process(target=child_ensemble, args=(cfg,))
        child.start()
        child.join(timeout=120)
        try:
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()


def mean_guard_fires(monkeypatch, lane, call):
    """Make the stepping kernel report the omega mean guard for ``lane`` in
    its ``call``-th step."""
    real, calls = integrator._advance, []

    def advance(lanes, *args):
        new, errors = real(lanes, *args)
        calls.append(None)
        if len(calls) == call:
            errors[lane] = AssertionError("omega mean mode drifted to 1.000e-03")
        return new, errors
    monkeypatch.setattr(integrator, "_advance", advance)


class TestLanes:
    def test_mean_guard_fails_only_its_realization(self, monkeypatch):
        cfg = small_config(realizations=4)
        _, clean = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 1))
        mean_guard_fires(monkeypatch, lane=1, call=3)
        summary, results = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 1))
        assert summary.failed == [1]
        assert results[1].error == "AssertionError: omega mean mode drifted to 1.000e-03"
        assert not results[1].records
        for got, want in zip(results, clean):
            if got.index != 1:
                assert not got.failed and got.records == want.records

    def test_failed_realization_keeps_its_step(self, monkeypatch):
        cfg = small_config(realizations=3)
        mean_guard_fires(monkeypatch, lane=2, call=4)
        summary, results = run_ensemble(EnsembleConfig(cfg, 3, cfg.seed, 1))
        assert summary.failed == [2]
        assert [r.step for r in results] == [None, None, 3]

    def test_mean_guard_propagates_from_a_single_run(self, monkeypatch):
        cfg = small_config()
        grid = Grid(cfg.n)
        args = (build_initial_state(cfg, grid), build_noise_basis(cfg, grid),
                build_scheme(cfg), cfg.T)
        mean_guard_fires(monkeypatch, lane=0, call=3)
        with pytest.raises(AssertionError, match="omega mean mode drifted") as info:
            integrator.run(*args, rng=np.random.default_rng(1))
        assert info.value.step == 2

    def test_summary_csv_independent_of_workers_and_lanes(self, tmp_path, monkeypatch):
        cfg = small_config(realizations=5)

        def csv(summary):
            path = tmp_path / "summary.csv"
            write_summary_csv(path, summary)
            return path.read_bytes()

        blobs = [csv(run_ensemble(EnsembleConfig(cfg, 5, cfg.seed, w))[0]) for w in (1, 2, 4)]
        for chunks in ([[0, 1, 2, 3, 4]], [[i] for i in range(5)], [[3, 0], [4, 1, 2]]):
            results = [r for chunk in chunks for r in _run_chunk(cfg, cfg.seed, chunk)]
            blobs.append(csv(summarize(sorted(results, key=lambda r: r.index))))
        # a memory budget of two lanes runs one task's lanes in batches
        monkeypatch.setattr("sbq.ensemble._LANE_BUDGET_BYTES", 2 * 440 * cfg.n**2)
        blobs.append(csv(summarize(_run_chunk(cfg, cfg.seed, list(range(5))))))
        assert all(b == blobs[0] for b in blobs)


class TestEnsembleDeterminism:
    def test_single_equals_series(self):
        cfg = small_config()
        summary, results = run_ensemble(EnsembleConfig(cfg, 1, cfg.seed, 1))
        assert len(results) == 1
        assert summary.counts.tolist() == [1] * 6
        rec = results[0].records[2]
        assert summary.stats["kinetic_energy"]["mean"][2] == rec.kinetic_energy
        assert summary.stats["kinetic_energy"]["var"][2] == 0.0

    def test_parallelism_bit_identical(self):
        cfg = small_config(realizations=4)
        s1, r1 = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 1))
        s4, r4 = run_ensemble(EnsembleConfig(cfg, 4, cfg.seed, 4))
        for f in s1.stats:
            for stat in ("mean", "var", "max"):
                assert np.array_equal(s1.stats[f][stat], s4.stats[f][stat])
        for a, b in zip(r1, r4):
            assert a.seed == b.seed
            for ra, rb in zip(a.records, b.records):
                assert ra == rb

    def test_zero_noise_collapse(self):
        cfg = small_config(noise={"type": "none"}, realizations=8)
        summary, _ = run_ensemble(EnsembleConfig(cfg, 8, cfg.seed, 2))
        for f in summary.stats:
            assert np.max(np.abs(summary.stats[f]["var"])) == 0.0
            assert np.all(summary.stats[f]["mean"] <= summary.stats[f]["max"] + 1e-300)


class TestSummarize:
    def test_failed_excluded_with_count(self):
        ok = RealizationResult(0, 1, [fake_record(0.0, 1.0), fake_record(0.1, 2.0)])
        bad = RealizationResult(1, 2, [], failed=True, error="boom")
        summary = summarize([ok, bad])
        assert summary.failed == [1]
        assert summary.counts.tolist() == [1, 1]
        assert summary.stats["kinetic_energy"]["mean"].tolist() == [1.0, 2.0]

    def test_short_series_counted_per_time(self):
        full = RealizationResult(0, 1, [fake_record(0.0, 1.0), fake_record(0.1, 3.0)])
        short = RealizationResult(1, 2, [fake_record(0.0, 2.0)],
                                  blowup_suspected=True)
        summary = summarize([full, short])
        assert summary.blowup_aborts == 1
        assert summary.counts.tolist() == [2, 1]
        assert summary.stats["kinetic_energy"]["mean"].tolist() == [1.5, 3.0]
        assert summary.stats["kinetic_energy"]["max"].tolist() == [2.0, 3.0]


class TestMomentEstimate:
    def _results(self, values):
        return [RealizationResult(i, i, [fake_record(0.0, v)])
                for i, v in enumerate(values)]

    def test_all_equal_gives_zero_se(self):
        mean, se = moment_estimate(self._results([2.0, 2.0, 2.0]),
                                   "kinetic_energy", 1, 0.0)
        assert mean == 2.0
        assert se == pytest.approx(0.0, abs=1e-15)

    def test_two_samples(self):
        mean, se = moment_estimate(self._results([0.0, 2.0]),
                                   "kinetic_energy", 1, 0.0)
        assert mean == 1.0
        # jackknife SE for the mean equals s / sqrt(M)
        assert se == pytest.approx(np.std([0.0, 2.0], ddof=1) / math.sqrt(2))

    def test_single_sample_se_undefined(self):
        mean, se = moment_estimate(self._results([5.0]), "kinetic_energy", 1, 0.0)
        assert mean == 5.0
        assert math.isnan(se)

    def test_gaussian_closed_form(self):
        rng = np.random.default_rng(5)
        values = rng.normal(3.0, 0.5, size=64)
        results = self._results(list(values))
        for moment in (1, 2):
            mean, se = moment_estimate(results, "kinetic_energy", moment, 0.0)
            x = values**moment
            assert mean == pytest.approx(float(np.mean(x)), rel=1e-12)
            assert se == pytest.approx(float(np.std(x, ddof=1) / math.sqrt(64)),
                                       rel=1e-12)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            moment_estimate(self._results([1.0]), "nope", 1, 0.0)


class TestTruncatedBudget:
    def test_truncated_variant_norms_stay_finite(self):
        cfg = parse_config({
            "n": 32, "T": 0.3, "dt": 0.01, "scheme": "stratonovich_heun",
            "seed": 9, "variant": "truncated", "r": 2.0,
            "initial": {"type": "random_hs", "s_omega": 2.0, "s_theta": 3.0,
                        "seed": 1, "amplitude": 1.0},
            "noise": {"type": "default_family", "k_max": 2, "sigma": 0.05},
            "realizations": 3,
        })
        summary, results = run_ensemble(EnsembleConfig(cfg, 3, cfg.seed, 1))
        assert not summary.failed
        for res in results:
            for rec in res.records:
                assert math.isfinite(rec.h2_omega + rec.h3_theta)
