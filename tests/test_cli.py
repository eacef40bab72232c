"""CLI subcommands, exit codes, output layout."""

import json
import os
import platform

import numpy as np
import pytest

import sbq.cli
import sbq.integrator
import sbq.spectral
from sbq.cli import main
from sbq.diagnostics import StoppingTimeReport, update_stopping_report
from sbq.io import read_diagnostics_csv, read_snapshot
from sbq.noise import mix_seed


def write_config(tmp_path, **overrides):
    cfg = {
        "n": 32, "T": 0.05, "dt": 0.01, "scheme": "stratonovich_heun",
        "seed": 7, "initial": "taylor_green",
        "noise": {"type": "default_family", "k_max": 2, "sigma": 0.05},
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def assert_environment(manifest):
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "fft_backend", "usable_cores"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["fft_backend"] == "numpy.fft"
    assert env["usable_cores"] == len(os.sched_getaffinity(0)) >= 1


class TestSimulate:
    def test_basic_run_outputs(self, tmp_path):
        cfg = write_config(tmp_path, snapshot_interval=2)
        rc = main(["simulate", "--config", str(cfg), "--quiet"])
        assert rc == 0
        out = tmp_path / "out"
        records = read_diagnostics_csv(out / "diagnostics.csv")
        assert len(records) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 32
        assert manifest["realization_seeds"]
        assert manifest["format_versions"]["snapshot"] == 1
        assert "stopping" in manifest and "potential_term" in manifest
        assert_environment(manifest)
        snaps = sorted((out / "snapshots").iterdir())
        assert [s.name for s in snaps] == [
            "step_00000000.sbq", "step_00000002.sbq", "step_00000004.sbq",
            "step_00000005.sbq"]

    def test_stopping_table_folds_the_written_records(self, tmp_path):
        levels = [0.01, 0.02, 0.05, 1.0, 50.0]
        cfg = write_config(tmp_path, T=0.1, diagnostics_interval=3,
                           stopping_levels=levels)
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        stopping = StoppingTimeReport.new(levels)
        for rec in read_diagnostics_csv(out / "diagnostics.csv"):
            update_stopping_report(stopping, rec)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stopping"] == json.loads(json.dumps(stopping.as_dict()))
        assert manifest["stopping"]["tauinf"]  # some level was crossed

    def test_zero_horizon_emits_initial_row_and_snapshot(self, tmp_path):
        cfg = write_config(tmp_path, T=0.0)
        rc = main(["simulate", "--config", str(cfg), "--quiet"])
        assert rc == 0
        out = tmp_path / "out"
        assert len(read_diagnostics_csv(out / "diagnostics.csv")) == 1
        snap = read_snapshot(out / "snapshots" / "step_00000000.sbq")
        assert snap.t == 0.0

    def test_config_error_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, dt=-1)
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_noise_mode_outside_the_ball_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, n=16, realizations=2, noise={
            "type": "modes", "modes": [{"wavevector": [7, 0], "amplitude": 0.1}]})
        assert main([command, "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "noise.modes[0].wavevector" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "ensemble", "verify-operators",
                                         "verify-conservation"])
    def test_unusable_out_exits_2(self, tmp_path, capsys, command):
        # --out names an existing file: the run directory, or the directory
        # of a verify command's report, cannot be created
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        if command.startswith("verify"):
            args = [command, "--out", str(blocker / "report.json")]
        else:
            args = [command, "--config", str(write_config(tmp_path)), "--out", str(blocker)]
        assert main(args + ["--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err
        assert "Traceback" not in err and blocker.read_text() == ""

    @pytest.mark.parametrize("command", ["verify-operators", "verify-conservation"])
    def test_out_naming_a_directory_exits_2_before_the_battery(self, tmp_path, capsys,
                                                               monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("the battery ran")

        monkeypatch.setattr(sbq.cli, "run_verification", refuse)
        monkeypatch.setattr(sbq.cli, "run_conservation_battery", refuse)
        assert main([command, "--out", str(tmp_path), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--quiet"]) == 2

    def test_blowup_exit_4(self, tmp_path):
        # absurd dt on a strong random state goes non-finite quickly
        cfg = write_config(
            tmp_path, T=40.0, dt=1.0, noise={"type": "none"},
            initial={"type": "random_hs", "s_omega": 2.0, "s_theta": 3.0,
                     "seed": 3, "amplitude": 40.0})
        rc = main(["simulate", "--config", str(cfg), "--quiet"])
        assert rc == 4
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["blowup_suspected"] is True
        assert manifest["abort_step"] is not None

    def test_overflowing_norms_exit_4(self, tmp_path):
        # the third step overflows the norms' sums (NaN): the magnitude guard
        # aborts the run, not the omega mean guard (exit 3)
        cfg = write_config(
            tmp_path, T=40.0, dt=0.5, noise={"type": "none"},
            initial={"type": "random_hs", "s_omega": 0.0, "s_theta": 0.0,
                     "seed": 0, "amplitude": 100.0, "band": 8})
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 4
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["blowup_suspected"] is True
        assert manifest["abort_step"] == 3

    def test_assertion_exit_3(self, tmp_path, monkeypatch, capsys):
        # e.g. the stepper's omega mean guard firing mid-run
        def failing_steps(*args, **kwargs):
            raise AssertionError("omega mean mode drifted to 1.000e-03")
            yield
        monkeypatch.setattr("sbq.cli._lane_steps", failing_steps)
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 3
        assert "error: omega mean mode drifted" in capsys.readouterr().err

    def test_assertion_exit_3_writes_manifest(self, tmp_path, monkeypatch):
        # the guard fires inside the third step; run attaches its index
        calls = []

        def failing_advance(lanes, *args):
            calls.append(None)
            new, errors = real_advance(lanes, *args)
            if len(calls) == 3:
                errors = [AssertionError("omega mean mode drifted to 1.000e-03")]
            return new, errors
        real_advance = sbq.integrator._advance
        monkeypatch.setattr("sbq.integrator._advance", failing_advance)
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["abort_reason"] == "omega mean mode drifted to 1.000e-03"
        assert manifest["abort_step"] == 2
        config = json.loads(cfg.read_text())
        assert manifest["master_seed"] == config["seed"]
        assert manifest["realization_seeds"] == [mix_seed(config["seed"], 0)]
        for key in ("config", "format_versions", "package_version", "build_id"):
            assert key in manifest
        assert_environment(manifest)

    @pytest.mark.parametrize("scheme", ["stratonovich_heun", "ito_euler"])
    def test_never_builds_a_full_layout_view(self, tmp_path, monkeypatch, scheme):
        # stepping, records, snapshots and the CSV all work on the half
        # spectrum: 20 steps never read a field's coeffs view
        def refuse(*args):
            raise AssertionError("coeffs view built")
        monkeypatch.setattr(sbq.spectral, "_full_layout", refuse)
        cfg = write_config(tmp_path, T=0.2, scheme=scheme, snapshot_interval=5)
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        assert len(read_diagnostics_csv(out / "diagnostics.csv")) == 21
        assert len(list((out / "snapshots").iterdir())) == 5

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--quiet",
              "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["simulate", "--config", str(cfg), "--quiet",
              "--out", str(tmp_path / "b"), "--seed", "1"])
        main(["simulate", "--config", str(cfg), "--quiet",
              "--out", str(tmp_path / "c"), "--seed", "2"])
        a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        c = (tmp_path / "c" / "diagnostics.csv").read_bytes()
        assert a == b
        assert a != c


class TestEnsembleCommand:
    def test_layout_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, realizations=3)
        rc = main(["ensemble", "--config", str(cfg), "--quiet"])
        assert rc == 0
        out = tmp_path / "out"
        for i in range(3):
            assert (out / f"run_{i}" / "diagnostics.csv").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("t,kinetic_energy_mean,kinetic_energy_var,")
        assert len(summary) == 1 + 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["realization_seeds"]) == 3
        assert_environment(manifest)

    def test_workers_flag_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, realizations=4)
        main(["ensemble", "--config", str(cfg), "--quiet",
              "--out", str(tmp_path / "w1"), "--workers", "1"])
        main(["ensemble", "--config", str(cfg), "--quiet",
              "--out", str(tmp_path / "w4"), "--workers", "4"])
        assert (tmp_path / "w1" / "summary.csv").read_bytes() == \
            (tmp_path / "w4" / "summary.csv").read_bytes()

    def test_failures_name_their_reason_and_step(self, tmp_path, capsys):
        # dt far above the CFL bound: every lane fails at step 0
        cfg = write_config(tmp_path, realizations=2, cfl_guard=True, cfl=1e-4)
        assert main(["ensemble", "--config", str(cfg), "--quiet"]) == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failed_realizations"] == [0, 1]
        failures = manifest["failures"]
        assert [(f["index"], f["step"]) for f in failures] == [(0, 0), (1, 0)]
        err = capsys.readouterr().err
        for f in failures:
            assert f["reason"].startswith("TimeStepError: dt=1.000e-02 exceeds CFL bound")
            assert f"realization {f['index']} failed: {f['reason']}" in err
        assert_environment(manifest)

    def test_no_failures_no_failure_list(self, tmp_path):
        cfg = write_config(tmp_path, realizations=2)
        assert main(["ensemble", "--config", str(cfg), "--quiet"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failed_realizations"] == [] and "failures" not in manifest


class TestVerifyOperators:
    def test_report_and_exit_code(self, tmp_path):
        report_path = tmp_path / "ops.json"
        rc = main(["verify-operators", "--quiet", "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        assert report["checks"]["cancellation"]["max_scaled_residual"] <= 1e-10

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        report_path = tmp_path / "ops.json"
        assert main(["verify-operators", "--quiet", "--seed", seed,
                     "--out", str(report_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed: ") and "Traceback" not in err
        assert not report_path.exists()


class TestReport:
    def test_empty_series_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        from sbq.diagnostics import RECORD_FIELDS
        path.write_text(",".join(RECORD_FIELDS) + "\n")
        rc = main(["report", str(path)])
        assert rc == 2
        assert "empty series" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("header", "unexpected diagnostics header"),
        ("short_row", "line 3: expected"),
        ("not_a_number", "line 2: could not convert"),
    ])
    def test_malformed_csv_exits_2_without_traceback(self, tmp_path, capsys, case, message):
        from sbq.diagnostics import RECORD_FIELDS
        row = ",".join(["0.5"] * len(RECORD_FIELDS))
        lines = {"header": ["t,kinetic_energy", row],
                 "short_row": [",".join(RECORD_FIELDS), row, "0.5,0.25"],
                 "not_a_number": [",".join(RECORD_FIELDS), row.replace("0.5", "abc", 1)]}[case]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            read_diagnostics_csv(path)
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("variant, r", [("truncated", 0.05), ("hyper", 0.05),
                                            ("truncated", 1e3)])
    def test_cutoffs_from_the_manifest(self, tmp_path, capsys, variant, r):
        cfg = write_config(tmp_path, variant=variant, r=r,
                           **({"nu": 1e-9} if variant == "hyper" else {}))
        main(["simulate", "--config", str(cfg), "--quiet"])
        csv = tmp_path / "out" / "diagnostics.csv"
        capsys.readouterr()
        assert main(["report", str(csv)]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = read_diagnostics_csv(csv)
        eta_u = [sbq.integrator.eta_cutoff(rec.linf_grad_u, r) for rec in records]
        eta_theta = [sbq.integrator.eta_cutoff(rec.linf_grad_theta, r) for rec in records]
        below = [rec.t for rec, a, b in zip(records, eta_u, eta_theta) if min(a, b) < 1.0]
        assert lines[-2] == (f"cutoffs (r = {r:g}): min eta_u {min(eta_u):.6g}, "
                             f"min eta_theta {min(eta_theta):.6g}")
        if r < 1:
            assert min(eta_u + eta_theta) < 1.0 and lines[-1] == f"first eta < 1:    t = {below[0]:g}"
        else:
            assert min(eta_u + eta_theta) == 1.0 and lines[-1] == "first eta < 1:    none"
        # without the manifest: the table alone, as before
        (tmp_path / "out" / "manifest.json").unlink()
        assert main(["report", str(csv)]) == 0
        assert capsys.readouterr().out.splitlines() == lines[:-2]

    def test_ensemble_runs_read_the_root_manifest(self, tmp_path, capsys):
        # sbq ensemble writes its manifest in the output root, each CSV in run_<i>/
        cfg = write_config(tmp_path, variant="truncated", r=0.05, realizations=2)
        assert main(["ensemble", "--config", str(cfg), "--quiet"]) == 0
        csv = tmp_path / "out" / "run_0" / "diagnostics.csv"
        capsys.readouterr()
        assert main(["report", str(csv)]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = read_diagnostics_csv(csv)
        eta_u = [sbq.integrator.eta_cutoff(rec.linf_grad_u, 0.05) for rec in records]
        eta_theta = [sbq.integrator.eta_cutoff(rec.linf_grad_theta, 0.05) for rec in records]
        assert lines[-2] == (f"cutoffs (r = 0.05): min eta_u {min(eta_u):.6g}, "
                             f"min eta_theta {min(eta_theta):.6g}")
        assert lines[-1].startswith("first eta < 1:    t = ")
        # a run_<i> CSV elsewhere, with no manifest above it, shows none
        (tmp_path / "out" / "manifest.json").unlink()
        assert main(["report", str(csv)]) == 0
        assert capsys.readouterr().out.splitlines() == lines[:-2]

    def test_plain_run_prints_no_cutoffs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--quiet"])
        csv = tmp_path / "out" / "diagnostics.csv"
        capsys.readouterr()
        assert main(["report", str(csv)]) == 0
        with_manifest = capsys.readouterr()
        (tmp_path / "out" / "manifest.json").unlink()
        assert main(["report", str(csv)]) == 0
        assert capsys.readouterr() == with_manifest
        assert "cutoffs" not in with_manifest.out and not with_manifest.err

    def test_unreadable_manifest_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, variant="truncated", r=0.05)
        main(["simulate", "--config", str(cfg), "--quiet"])
        (tmp_path / "out" / "manifest.json").write_text("{not json")
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out" / "diagnostics.csv")]) == 0
        out, err = capsys.readouterr()
        assert "cutoffs" not in out
        assert err.startswith("warning: cannot read") and "manifest.json" in err

    def test_summary_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--quiet"])
        rc = main(["report", str(tmp_path / "out" / "diagnostics.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kinetic_energy" in out
        assert "tau2 crossings" in out
