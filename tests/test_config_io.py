"""Config parsing (strict, path-naming errors), initial conditions, snapshot
and CSV round trips."""

import json
import struct

import numpy as np
import pytest

from sbq import spectral as sp
from sbq.cli import main
from sbq.config import (
    ConfigError,
    RunConfig,
    build_noise_basis,
    initial_condition,
    parse_config,
    random_hs_field,
)
from sbq.diagnostics import compute_record
from sbq.io import (
    SnapshotError,
    read_diagnostics_csv,
    read_snapshot,
    write_diagnostics_csv,
    write_snapshot,
)
from sbq.state import SimState
from oracles import hs_field_reference


MINIMAL = {"n": 64, "T": 1.0, "dt": 0.001, "scheme": "stratonovich_heun",
           "seed": 1, "initial": "taylor_green"}


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(dict(MINIMAL))
        assert cfg.variant == "plain"
        assert cfg.noise["type"] == "default_family"
        assert cfg.noise["gamma"] == 5.0 and cfg.noise["sigma"] == 0.1
        assert cfg.initial == {"type": "taylor_green", "amplitude": 1.0}
        assert cfg.stopping_levels == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
        assert cfg.p == 2.0 and cfg.diagnostics_interval == 1

    def test_negative_dt_names_field(self):
        with pytest.raises(ConfigError) as info:
            parse_config({**MINIMAL, "dt": -1})
        assert info.value.path == "dt"

    def test_hyper_without_nu_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config({**MINIMAL, "variant": "hyper", "r": 1.0})
        assert info.value.path == "nu"

    def test_truncated_without_r_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config({**MINIMAL, "variant": "truncated"})
        assert info.value.path == "r"

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError) as info:
            parse_config({**MINIMAL, "quux": 1})
        assert info.value.path == "quux"
        with pytest.raises(ConfigError) as info:
            parse_config({**MINIMAL, "dealias": True})
        assert info.value.path == "dealias"
        with pytest.raises(ConfigError) as info:
            parse_config({**MINIMAL,
                          "noise": {"type": "default_family", "sigmaa": 1.0}})
        assert info.value.path == "noise.sigmaa"

    def test_missing_required_key(self):
        bad = dict(MINIMAL)
        del bad["seed"]
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert info.value.path == "seed"

    def test_bad_noise_mode_path(self):
        with pytest.raises(ConfigError) as info:
            parse_config({**MINIMAL, "noise": {"type": "modes", "modes": [
                {"wavevector": [0, 0], "phase": "sine", "amplitude": 1.0}]}})
        assert "modes[0]" in info.value.path

    def test_odd_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({**MINIMAL, "n": 63})

    def test_noise_kmax_vs_grid(self):
        with pytest.raises(ConfigError) as info:
            parse_config({**MINIMAL, "n": 8,
                          "noise": {"type": "default_family", "k_max": 4}})
        assert info.value.path == "noise.k_max"
        with pytest.raises(ConfigError) as info:
            parse_config({**MINIMAL, "n": 32,
                          "initial": {"type": "random_hs", "band": 11}})
        assert info.value.path == "initial.band"

    def test_noise_modes_vs_grid(self):
        # each mode is checked as k_max is: a mode the 2/3 rule would remove
        # is a config error, not a failure of the noise basis at run time
        modes = [{"wavevector": [1, 2]}, {"wavevector": [-5, 6]}]
        parse_config({**MINIMAL, "n": 18, "noise": {"type": "modes", "modes": modes}})
        with pytest.raises(ConfigError) as info:
            parse_config({**MINIMAL, "n": 16, "noise": {"type": "modes", "modes": modes}})
        assert info.value.path == "noise.modes[1].wavevector"
        with pytest.raises(ConfigError) as info:
            parse_config({**MINIMAL, "n": 16, "noise": {"type": "modes", "modes": [
                {"wavevector": [7, 0]}]}})
        assert info.value.path == "noise.modes[0].wavevector"

    def test_initial_wavevector_vs_grid(self):
        # checked as a noise mode is: at n = 16, [12, 0] would alias to
        # cos(4x), and [6, 0] lies where the stage's rates are zero
        single = {"type": "single_mode", "amplitude": 1.0, "target": "theta"}
        cfg = parse_config({**MINIMAL, "n": 16, "initial": {**single, "wavevector": [5, -5]}})
        assert cfg.initial["wavevector"] == [5, -5]
        for wv in ([12, 0], [6, 0], [0, -6]):
            with pytest.raises(ConfigError) as info:
                parse_config({**MINIMAL, "n": 16, "initial": {**single, "wavevector": wv}})
            assert info.value.path == "initial.wavevector"

    def test_initial_wavevector_outside_the_ball_exits_2(self, tmp_path, capsys):
        doc = {**MINIMAL, "n": 16, "out": str(tmp_path / "out"), "initial": {
            "type": "single_mode", "wavevector": [12, 0]}}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(tmp_path / "config.json"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: initial.wavevector: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_stopping_levels_must_increase(self):
        with pytest.raises(ConfigError):
            parse_config({**MINIMAL, "stopping_levels": [1, 1, 2]})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seeds_outside_64_bits_rejected(self, seed):
        # numpy's default_rng would raise on them, outside the config's paths
        for doc, path in (({**MINIMAL, "seed": seed}, "seed"),
                          ({**MINIMAL, "initial": {"type": "random_hs", "seed": seed}},
                           "initial.seed")):
            with pytest.raises(ConfigError) as info:
                parse_config(doc)
            assert info.value.path == path

    def test_direct_config_has_the_parsed_default_noise(self):
        grid = sp.Grid(32)
        direct = RunConfig(n=32, T=0.01, dt=0.01, scheme="stratonovich_heun", seed=1,
                           initial={"type": "taylor_green", "amplitude": 1.0})
        parsed = parse_config({**MINIMAL, "n": 32})
        assert direct.noise == parsed.noise
        built = build_noise_basis(direct, grid)
        assert len(built) == 48
        assert built.modes == build_noise_basis(parsed, grid).modes


class TestInitialConditions:
    def test_single_mode_omega(self):
        grid = sp.Grid(64)
        cfg = parse_config({**MINIMAL, "initial": {
            "type": "single_mode", "wavevector": [1, 0], "amplitude": 1.0,
            "target": "omega"}})
        state = initial_condition(cfg.initial, grid)
        assert np.allclose(state.omega.values(), np.cos(grid.x), atol=1e-12)
        assert sp.l2_norm(state.theta) == 0.0

    def test_taylor_green_vorticity(self):
        grid = sp.Grid(64)
        state = initial_condition({"type": "taylor_green", "amplitude": 1.0}, grid)
        expect = 2.0 * np.sin(grid.x) * np.sin(grid.y)
        assert np.allclose(state.omega.values(), expect, atol=1e-12)
        # consistency: biot_savart recovers u = (sin x cos y, -cos x sin y)
        u = sp.biot_savart(state.omega)
        assert np.allclose(u.u1.values(), np.sin(grid.x) * np.cos(grid.y),
                           atol=1e-12)
        assert np.allclose(u.u2.values(), -np.cos(grid.x) * np.sin(grid.y),
                           atol=1e-12)

    def test_random_hs_reproducible_and_finite(self):
        grid = sp.Grid(64)
        spec = {"type": "random_hs", "s_omega": 2.0, "s_theta": 3.0,
                "seed": 11, "amplitude": 1.0}
        a = initial_condition(spec, grid)
        b = initial_condition(spec, grid)
        assert np.array_equal(a.omega.coeffs, b.omega.coeffs)
        assert np.array_equal(a.theta.coeffs, b.theta.coeffs)
        assert abs(a.omega.mean()) <= 1e-15
        assert np.isfinite(sp.sobolev_norm(a.omega, 2.0))
        assert np.isfinite(sp.sobolev_norm(a.theta, 3.0))
        rec = compute_record(a)
        assert rec.is_finite()

    def test_random_hs_matches_reference_draw(self):
        for n in (32, 64, 128):
            grid = sp.Grid(n)
            for s in (1.0, 2.0, 2.5, 3.0):
                for zero_mean in (True, False):
                    ours = random_hs_field(grid, s, np.random.default_rng(3), 1.5,
                                           zero_mean=zero_mean)
                    ref = hs_field_reference(grid, s, np.random.default_rng(3), 1.5,
                                             zero_mean=zero_mean)
                    assert np.array_equal(ours.coeffs, ref.coeffs)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({**MINIMAL, "initial": "vortex_pair"})


class TestSnapshots:
    def test_round_trip_bytes(self, tmp_path):
        grid = sp.Grid(32)
        rng = np.random.default_rng(0)
        state = SimState(sp.random_field(grid, rng, band=8, zero_mean=True),
                         sp.random_field(grid, rng, band=8), t=0.731)
        path = tmp_path / "a.sbq"
        write_snapshot(path, state)
        raw = path.read_bytes()
        assert raw[:4] == b"SBQ1"
        assert len(raw) == 4 + 2 + 4 + 4 + 8 + 2 * 32 * 32 * 8
        back = read_snapshot(path)
        assert back.t == state.t
        # physical values round-trip bit-exactly
        assert np.array_equal(back.omega.values(), state.omega.values())
        path2 = tmp_path / "b.sbq"
        write_snapshot(path2, back)
        assert path2.read_bytes() == raw

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sbq"
        path.write_bytes(b"NOPE" + bytes(18))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_truncated_rejected(self, tmp_path):
        grid = sp.Grid(32)
        state = SimState(sp.SpectralField.zero(grid), sp.SpectralField.zero(grid))
        path = tmp_path / "t.sbq"
        write_snapshot(path, state)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SnapshotError):
            read_snapshot(path)


    @pytest.mark.parametrize("n", [7, 0])
    def test_bad_grid_size_rejected(self, tmp_path, n):
        # a header n no grid accepts, with a body of the size it implies
        path = tmp_path / "n.sbq"
        path.write_bytes(struct.pack("<4sHIId", b"SBQ1", 1, n, 2, 0.0) + bytes(2 * n * n * 8))
        with pytest.raises(SnapshotError, match="bad grid size"):
            read_snapshot(path)


class TestDiagnosticsCsv:
    def test_round_trip_17_digits(self, tmp_path):
        grid = sp.Grid(32)
        rng = np.random.default_rng(1)
        state = SimState(sp.random_field(grid, rng, band=6, zero_mean=True),
                         sp.random_field(grid, rng, band=6), t=1/3,
                         blowup_accum=np.pi)
        records = [compute_record(state, p=2.0)]
        path = tmp_path / "d.csv"
        write_diagnostics_csv(path, records)
        text = path.read_text().splitlines()
        assert text[0].startswith("t,kinetic_energy,buoyancy_flux,")
        back = read_diagnostics_csv(path)
        assert back == records  # 17 significant digits round-trip doubles

    def test_header_validated(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_diagnostics_csv(path)
