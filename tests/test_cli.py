"""CLI subcommands, exit codes, output layout."""

import json

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

    def test_assertion_exit_3(self, tmp_path, monkeypatch, capsys):
        # e.g. the stepper's omega mean guard firing mid-run
        def failing_run(*args, **kwargs):
            raise AssertionError("omega mean mode drifted to 1.000e-03")
        monkeypatch.setattr("sbq.cli.run", failing_run)
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 3
        assert "error: omega mean mode drifted" in capsys.readouterr().err

    def test_assertion_exit_3_writes_manifest(self, tmp_path, monkeypatch):
        def failing_run(*args, **kwargs):
            raise AssertionError("omega mean mode drifted to 1.000e-03")
        monkeypatch.setattr("sbq.cli.run", failing_run)
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["abort_reason"] == "omega mean mode drifted to 1.000e-03"
        config = json.loads(cfg.read_text())
        assert manifest["master_seed"] == config["seed"]
        assert manifest["realization_seeds"] == [mix_seed(config["seed"], 0)]
        for key in ("config", "format_versions", "package_version", "build_id"):
            assert key in manifest

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

    def test_workers_flag_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, realizations=4)
        main(["ensemble", "--config", str(cfg), "--quiet",
              "--out", str(tmp_path / "w1"), "--workers", "1"])
        main(["ensemble", "--config", str(cfg), "--quiet",
              "--out", str(tmp_path / "w4"), "--workers", "4"])
        assert (tmp_path / "w1" / "summary.csv").read_bytes() == \
            (tmp_path / "w4" / "summary.csv").read_bytes()


class TestVerifyOperators:
    def test_report_and_exit_code(self, tmp_path):
        report_path = tmp_path / "ops.json"
        rc = main(["verify-operators", "--quiet", "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        assert report["checks"]["cancellation"]["max_scaled_residual"] <= 1e-10


class TestReport:
    def test_empty_series_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        from sbq.diagnostics import RECORD_FIELDS
        path.write_text(",".join(RECORD_FIELDS) + "\n")
        rc = main(["report", str(path)])
        assert rc == 2
        assert "empty series" in capsys.readouterr().err

    def test_summary_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--quiet"])
        rc = main(["report", str(tmp_path / "out" / "diagnostics.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kinetic_energy" in out
        assert "tau2 crossings" in out
