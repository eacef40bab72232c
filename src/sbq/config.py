"""Run configuration: strict JSON parsing, validation, and the builders that
turn a config into grid / noise basis / initial state / scheme objects.

Parsing is strict: unknown keys are rejected, and every violation names the
offending field path (e.g. ``noise.sigma``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .integrator import SchemeConfig
from .noise import (NoiseBasis, build_basis, constant_shift_basis, default_family,
                    empty_basis)
from .spectral import Grid, SpectralField, random_field
from .state import SimState

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "config_to_dict",
    "build_noise_basis",
    "build_initial_state",
    "build_scheme",
    "initial_condition",
    "random_hs_field",
]

DEFAULT_STOPPING_LEVELS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_U64_MAX = 2**64 - 1


class ConfigError(ValueError):
    """Invalid configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class RunConfig:
    n: int
    T: float
    dt: float
    scheme: str
    seed: int
    initial: dict
    noise: dict = field(default_factory=lambda: {"type": "default_family"})
    variant: str = "plain"
    r: float | None = None
    nu: float | None = None
    out: str = "out"
    snapshot_interval: int = 0
    diagnostics_interval: int = 1
    p: float = 2.0
    stopping_levels: tuple = DEFAULT_STOPPING_LEVELS
    realizations: int = 1
    workers: int = 1
    cfl_guard: bool = False
    cfl: float = 0.5


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _check_keys(obj: dict, allowed: set, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _number(obj, path):
    _require(isinstance(obj, (int, float)) and not isinstance(obj, bool),
             path, "expected a number")
    return float(obj)


def _integer(obj, path):
    _require(isinstance(obj, int) and not isinstance(obj, bool),
             path, "expected an integer")
    return int(obj)


_NOISE_KEYS = {
    "none": set(),
    "default_family": {"gamma", "sigma", "k_max", "max_modes"},
    "modes": {"modes"},
    "constant": {"direction", "amplitude"},
}

_INITIAL_KEYS = {
    "single_mode": {"wavevector", "amplitude", "target"},
    "taylor_green": {"amplitude"},
    "random_hs": {"s_omega", "s_theta", "seed", "amplitude", "band"},
}


def _parse_noise(obj, path="noise") -> dict:
    if obj is None:
        obj = {"type": "default_family"}
    _require(isinstance(obj, dict), path, "expected an object")
    kind = obj.get("type")
    _require(kind in _NOISE_KEYS, f"{path}.type",
             f"expected one of {sorted(_NOISE_KEYS)}")
    _check_keys(obj, _NOISE_KEYS[kind] | {"type"}, path)
    out = {"type": kind}
    if kind == "default_family":
        out["gamma"] = _number(obj.get("gamma", 5.0), f"{path}.gamma")
        out["sigma"] = _number(obj.get("sigma", 0.1), f"{path}.sigma")
        out["k_max"] = _integer(obj.get("k_max", 4), f"{path}.k_max")
        _require(out["sigma"] > 0, f"{path}.sigma", "must be positive")
        _require(out["k_max"] >= 1, f"{path}.k_max", "must be >= 1")
        if "max_modes" in obj:
            out["max_modes"] = _integer(obj["max_modes"], f"{path}.max_modes")
            _require(out["max_modes"] >= 1, f"{path}.max_modes", "must be >= 1")
    elif kind == "modes":
        modes = obj.get("modes")
        _require(isinstance(modes, list) and modes, f"{path}.modes",
                 "expected a non-empty list")
        parsed = []
        for i, m in enumerate(modes):
            mp = f"{path}.modes[{i}]"
            _require(isinstance(m, dict), mp, "expected an object")
            _check_keys(m, {"wavevector", "phase", "amplitude"}, mp)
            wv = m.get("wavevector")
            _require(isinstance(wv, list) and len(wv) == 2, f"{mp}.wavevector",
                     "expected a pair of integers")
            k1 = _integer(wv[0], f"{mp}.wavevector[0]")
            k2 = _integer(wv[1], f"{mp}.wavevector[1]")
            _require((k1, k2) != (0, 0), f"{mp}.wavevector", "must be nonzero")
            phase = m.get("phase", "cosine")
            _require(phase in ("cosine", "sine"), f"{mp}.phase",
                     "expected 'cosine' or 'sine'")
            amp = _number(m.get("amplitude", 1.0), f"{mp}.amplitude")
            _require(amp > 0, f"{mp}.amplitude", "must be positive")
            parsed.append({"wavevector": [k1, k2], "phase": phase, "amplitude": amp})
        out["modes"] = parsed
    elif kind == "constant":
        direction = obj.get("direction", "x")
        _require(direction in ("x", "y"), f"{path}.direction", "expected 'x' or 'y'")
        amp = _number(obj.get("amplitude", 1.0), f"{path}.amplitude")
        _require(amp != 0, f"{path}.amplitude", "must be nonzero")
        out["direction"] = direction
        out["amplitude"] = amp
    return out


def _parse_initial(obj, path="initial") -> dict:
    if isinstance(obj, str):
        obj = {"type": obj}
    _require(isinstance(obj, dict), path, "expected an object or preset name")
    kind = obj.get("type")
    _require(kind in _INITIAL_KEYS, f"{path}.type",
             f"expected one of {sorted(_INITIAL_KEYS)}")
    _check_keys(obj, _INITIAL_KEYS[kind] | {"type"}, path)
    out = {"type": kind}
    if kind == "single_mode":
        wv = obj.get("wavevector", [1, 0])
        _require(isinstance(wv, list) and len(wv) == 2, f"{path}.wavevector",
                 "expected a pair of integers")
        out["wavevector"] = [_integer(wv[0], f"{path}.wavevector[0]"),
                             _integer(wv[1], f"{path}.wavevector[1]")]
        _require(tuple(out["wavevector"]) != (0, 0), f"{path}.wavevector",
                 "must be nonzero")
        out["amplitude"] = _number(obj.get("amplitude", 1.0), f"{path}.amplitude")
        target = obj.get("target", "omega")
        _require(target in ("omega", "theta"), f"{path}.target",
                 "expected 'omega' or 'theta'")
        out["target"] = target
    elif kind == "taylor_green":
        out["amplitude"] = _number(obj.get("amplitude", 1.0), f"{path}.amplitude")
    elif kind == "random_hs":
        out["s_omega"] = _number(obj.get("s_omega", 2.0), f"{path}.s_omega")
        out["s_theta"] = _number(obj.get("s_theta", 3.0), f"{path}.s_theta")
        out["seed"] = _integer(obj.get("seed", 0), f"{path}.seed")
        out["amplitude"] = _number(obj.get("amplitude", 1.0), f"{path}.amplitude")
        if "band" in obj:
            out["band"] = _integer(obj["band"], f"{path}.band")
            _require(out["band"] >= 1, f"{path}.band", "must be >= 1")
    return out


_TOP_KEYS = {
    "n", "T", "dt", "scheme", "seed", "initial", "noise", "variant", "r", "nu",
    "out", "snapshot_interval", "diagnostics_interval", "p",
    "stopping_levels", "realizations", "workers", "cfl_guard", "cfl",
}


def parse_config(obj: dict) -> RunConfig:
    """Validate a decoded JSON document into a RunConfig."""
    _require(isinstance(obj, dict), "config", "expected a JSON object")
    _check_keys(obj, _TOP_KEYS, "")
    for key in ("n", "T", "dt", "scheme", "seed", "initial"):
        _require(key in obj, key, "required key missing")
    n = _integer(obj["n"], "n")
    _require(n >= 8 and n % 2 == 0, "n", "must be even and >= 8")
    T = _number(obj["T"], "T")
    _require(T >= 0, "T", "must be >= 0")
    dt = _number(obj["dt"], "dt")
    _require(dt > 0, "dt", "must be positive")
    scheme = obj["scheme"]
    _require(scheme in ("ito_euler", "stratonovich_heun"), "scheme",
             "expected 'ito_euler' or 'stratonovich_heun'")
    seed = _integer(obj["seed"], "seed")
    _require(0 <= seed <= _U64_MAX, "seed", "must fit in 64 bits")
    variant = obj.get("variant", "plain")
    _require(variant in ("plain", "truncated", "hyper"), "variant",
             "expected 'plain', 'truncated' or 'hyper'")
    r = _number(obj["r"], "r") if obj.get("r") is not None else None
    nu = _number(obj["nu"], "nu") if obj.get("nu") is not None else None
    if variant in ("truncated", "hyper"):
        _require(r is not None and r > 0, "r",
                 f"variant '{variant}' requires r > 0")
    if variant == "hyper":
        _require(nu is not None and nu > 0, "nu", "variant 'hyper' requires nu > 0")
    p = _number(obj.get("p", 2.0), "p")
    _require(p >= 2, "p", "must be >= 2")
    snap = _integer(obj.get("snapshot_interval", 0), "snapshot_interval")
    _require(snap >= 0, "snapshot_interval", "must be >= 0")
    diag = _integer(obj.get("diagnostics_interval", 1), "diagnostics_interval")
    _require(diag >= 1, "diagnostics_interval", "must be >= 1")
    levels = obj.get("stopping_levels", list(DEFAULT_STOPPING_LEVELS))
    _require(isinstance(levels, list) and levels, "stopping_levels",
             "expected a non-empty list")
    levels = tuple(_number(v, f"stopping_levels[{i}]") for i, v in enumerate(levels))
    _require(all(b > a for a, b in zip(levels, levels[1:])), "stopping_levels",
             "must be strictly increasing")
    realizations = _integer(obj.get("realizations", 1), "realizations")
    _require(realizations >= 1, "realizations", "must be >= 1")
    workers = _integer(obj.get("workers", 1), "workers")
    _require(workers >= 1, "workers", "must be >= 1")
    cfl = _number(obj.get("cfl", 0.5), "cfl")
    _require(cfl > 0, "cfl", "must be positive")
    cfl_guard = obj.get("cfl_guard", False)
    _require(isinstance(cfl_guard, bool), "cfl_guard", "expected a boolean")
    out_dir = obj.get("out", "out")
    _require(isinstance(out_dir, str) and out_dir, "out", "expected a path string")
    noise = _parse_noise(obj.get("noise"))
    initial = _parse_initial(obj["initial"])
    if noise.get("k_max") is not None:
        _require(noise["k_max"] <= n / 3.0, "noise.k_max",
                 "noise wavevectors must fit the dealias ball (k_max <= n/3)")
    if initial.get("band") is not None:
        _require(initial["band"] <= n / 3.0, "initial.band",
                 "the initial band must fit the dealias ball (band <= n/3)")
    return RunConfig(
        n=n, T=T, dt=dt, scheme=scheme, seed=seed, initial=initial, noise=noise,
        variant=variant, r=r, nu=nu, out=out_dir,
        snapshot_interval=snap, diagnostics_interval=diag, p=p,
        stopping_levels=levels, realizations=realizations, workers=workers,
        cfl_guard=cfl_guard, cfl=cfl,
    )


def config_to_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["stopping_levels"] = list(cfg.stopping_levels)
    return d


def build_noise_basis(cfg: RunConfig, grid: Grid) -> NoiseBasis:
    spec = cfg.noise
    kind = spec["type"]
    if kind == "none":
        return empty_basis(grid)
    if kind == "constant":
        return constant_shift_basis(spec["direction"], spec["amplitude"], grid)
    if kind == "default_family":
        modes = default_family(grid, gamma=spec["gamma"], sigma=spec["sigma"],
                               k_max=spec["k_max"],
                               max_modes=spec.get("max_modes"))
        return build_basis(modes, grid)
    modes = [(tuple(m["wavevector"]), m["phase"], m["amplitude"])
             for m in spec["modes"]]
    return build_basis(modes, grid)


def random_hs_field(grid: Grid, s: float, rng: np.random.Generator,
                    amplitude: float = 1.0, band: int | None = None,
                    zero_mean: bool = False) -> SpectralField:
    """Band-limited random field whose coefficient magnitudes follow the
    H^s-type law sd(k) proportional to (1 + |k|^2)^(-(s+1)/2 - eps/2) with
    eps = 0.1, Hermitian-symmetrized and rescaled to the requested L2 norm.

    On the continuum family this law gives a field almost surely in H^s; here
    it is truncated to the dealiasing ball (or a tighter ``band``).
    """
    # (s + 1) + 0.1 makes -decay/2 equal -(s + 1)/2 - 0.05 exactly
    return random_field(grid, rng, band if band is not None else int(grid.n / 3.0),
                        amplitude, decay=(s + 1.0) + 0.1, zero_mean=zero_mean)


def initial_condition(spec: dict, grid: Grid) -> SimState:
    """Build the t = 0 state from a validated initial-condition spec."""
    kind = spec["type"]
    zero = SpectralField.zero(grid)
    if kind == "single_mode":
        k1, k2 = spec["wavevector"]
        fld = SpectralField.from_physical(
            grid, spec["amplitude"] * np.cos(k1 * grid.x + k2 * grid.y))
        if spec["target"] == "omega":
            return SimState(fld, zero)
        return SimState(zero, fld)
    if kind == "taylor_green":
        # vorticity of u = (sin x cos y, -cos x sin y)
        amp = spec["amplitude"]
        omega = SpectralField.from_physical(
            grid, 2.0 * amp * np.sin(grid.x) * np.sin(grid.y))
        return SimState(omega, zero)
    # random_hs
    seed = spec["seed"]
    band = spec.get("band")
    omega = random_hs_field(grid, spec["s_omega"], np.random.default_rng((seed, 1)),
                            spec["amplitude"], band, zero_mean=True)
    theta = random_hs_field(grid, spec["s_theta"], np.random.default_rng((seed, 2)),
                            spec["amplitude"], band)
    return SimState(omega, theta)


def build_initial_state(cfg: RunConfig, grid: Grid) -> SimState:
    return initial_condition(cfg.initial, grid)


def build_scheme(cfg: RunConfig) -> SchemeConfig:
    return SchemeConfig(
        scheme=cfg.scheme, dt=cfg.dt, variant=cfg.variant, r=cfg.r, nu=cfg.nu,
        cfl=cfg.cfl if cfg.cfl_guard else None,
    )
