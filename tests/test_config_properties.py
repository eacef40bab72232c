"""Property tests of strict config parsing.

Hypothesis puts an unknown key at every nesting level, or a value of the
wrong type at every field path, into an otherwise valid config; non-finite
numbers are tried at every numeric path.  Each case must raise a
``ConfigError`` naming that path, and ``sbq simulate`` must exit 2 on it
without a traceback.  The draws are derandomized, with no example database,
so the suite stays deterministic.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbq.cli import main
from sbq.config import ConfigError, parse_config

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None, database=None)

# one valid config per noise and initial-condition kind, each naming every
# key its kind accepts
NOISE = {
    "none": {"type": "none"},
    "default_family": {"type": "default_family", "gamma": 5.0, "sigma": 0.1,
                       "k_max": 2, "max_modes": 4},
    "modes": {"type": "modes", "modes": [
        {"wavevector": [1, 0], "phase": "sine", "amplitude": 0.1}]},
    "constant": {"type": "constant", "direction": "x", "amplitude": 1.0},
}
INITIAL = {
    "single_mode": {"type": "single_mode", "wavevector": [1, 0], "amplitude": 1.0,
                    "target": "omega"},
    "taylor_green": {"type": "taylor_green", "amplitude": 1.0},
    "random_hs": {"type": "random_hs", "s_omega": 2.0, "s_theta": 3.0, "seed": 0,
                  "amplitude": 1.0, "band": 4},
}


def base_config(noise="default_family", initial="taylor_green") -> dict:
    return {
        "n": 16, "T": 0.0, "dt": 0.01, "scheme": "stratonovich_heun", "seed": 1,
        "initial": copy.deepcopy(INITIAL[initial]),
        "noise": copy.deepcopy(NOISE[noise]),
        "variant": "hyper", "r": 1.0, "nu": 1e-9, "out": "out",
        "snapshot_interval": 0, "diagnostics_interval": 1, "p": 2.0,
        "stopping_levels": [1.0, 2.0], "realizations": 1, "workers": 1,
        "cfl_guard": False, "cfl": 0.5,
    }


# every field path of the configs above, by the kind of value it takes
INTEGER, NUMBER, TEXT, CHOICE, OBJECT, LIST, PAIR, BOOL = range(8)
FIELDS = {
    "n": INTEGER, "T": NUMBER, "dt": NUMBER, "scheme": CHOICE, "seed": INTEGER,
    "variant": CHOICE, "r": NUMBER, "nu": NUMBER, "out": TEXT,
    "snapshot_interval": INTEGER, "diagnostics_interval": INTEGER, "p": NUMBER,
    "stopping_levels": LIST, "stopping_levels[1]": NUMBER,
    "realizations": INTEGER, "workers": INTEGER, "cfl_guard": BOOL, "cfl": NUMBER,
    "initial": OBJECT, "noise": OBJECT,
    "noise.type": CHOICE,
    "noise.gamma": NUMBER, "noise.sigma": NUMBER, "noise.k_max": INTEGER,
    "noise.max_modes": INTEGER,
    "noise.modes": LIST, "noise.modes[0]": OBJECT, "noise.modes[0].wavevector": PAIR,
    "noise.modes[0].wavevector[0]": INTEGER, "noise.modes[0].wavevector[1]": INTEGER,
    "noise.modes[0].phase": CHOICE, "noise.modes[0].amplitude": NUMBER,
    "noise.direction": CHOICE, "noise.amplitude": NUMBER,
    "initial.type": CHOICE,
    "initial.wavevector": PAIR, "initial.wavevector[0]": INTEGER,
    "initial.wavevector[1]": INTEGER, "initial.amplitude": NUMBER,
    "initial.target": CHOICE,
    "initial.s_omega": NUMBER, "initial.s_theta": NUMBER, "initial.seed": INTEGER,
    "initial.band": INTEGER,
}
# values of the wrong JSON type for each kind of field; a float is never an
# integer, and an optional key set to null counts as absent, so null is not
# drawn
_text = st.text(max_size=8)
_lists = st.lists(st.integers(), max_size=3)
_dicts = st.dictionaries(st.sampled_from(["a", "type"]), st.integers(), max_size=2)
WRONG = {
    INTEGER: st.one_of(_text, st.booleans(), _lists, _dicts, st.floats()),
    NUMBER: st.one_of(_text, st.booleans(), _lists, _dicts),
    TEXT: st.one_of(st.integers(), st.booleans(), _lists, _dicts, st.just("")),
    CHOICE: st.one_of(st.integers(), st.booleans(), _lists, _dicts, st.floats()),
    OBJECT: st.one_of(st.integers(), st.booleans(), _lists, st.floats()),
    LIST: st.one_of(_text, st.integers(), st.booleans(), _dicts, st.just([])),
    PAIR: st.one_of(_text, st.integers(), _dicts, st.just([1]), st.just([1, 2, 3])),
    BOOL: st.one_of(st.integers(), _text, _lists, _dicts, st.floats()),
}
# the objects that take keys: the top level, each noise and initial kind, and
# a noise mode, as (path, noise kind, initial kind)
LEVELS = ([("", "none", "taylor_green"), ("noise.modes[0]", "modes", "taylor_green")]
          + [("noise", kind, "taylor_green") for kind in NOISE]
          + [("initial", "none", kind) for kind in INITIAL])


def _steps(path: str) -> list:
    """Keys and indices along a dotted path with [index] steps."""
    steps = []
    for part in path.split(".") if path else ():
        name, *indices = part.replace("]", "").split("[")
        steps.append(name)
        steps.extend(int(i) for i in indices)
    return steps


def _holding(path: str) -> tuple[dict, object, object]:
    """(config, parent, key): the first valid config that holds ``path``."""
    for noise in NOISE:
        for initial in INITIAL:
            cfg = target = base_config(noise, initial)
            *parents, last = _steps(path)
            try:
                for step in parents:
                    target = target[step]
                target[last]
            except (KeyError, IndexError):
                continue
            return cfg, target, last
    raise AssertionError(f"no config holds {path}")


def _expect_config_error(cfg: dict, path: str):
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert info.value.path == path
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("initial", INITIAL)
@pytest.mark.parametrize("noise", NOISE)
def test_base_configs_are_valid(noise, initial):
    cfg = parse_config(base_config(noise, initial))
    assert (cfg.noise["type"], cfg.initial["type"]) == (noise, initial)


@pytest.mark.parametrize("level", LEVELS, ids=lambda level: "/".join(level))
@PROPERTY
@given(key=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1,
                   max_size=12),
       value=st.one_of(st.integers(), _text, st.booleans(), st.none()))
def test_unknown_key_names_its_path(level, key, value):
    at, noise, initial = level
    cfg = target = base_config(noise, initial)
    for step in _steps(at):
        target = target[step]
    if key in target:
        return  # a known key: not the case under test
    target[key] = value
    _expect_config_error(cfg, f"{at}.{key}" if at else key)


@pytest.mark.parametrize("path", sorted(FIELDS))
@PROPERTY
@given(data=st.data())
def test_wrong_type_names_its_path(path, data):
    cfg, parent, key = _holding(path)
    parent[key] = data.draw(WRONG[FIELDS[path]], label="value")
    _expect_config_error(cfg, path)


@pytest.mark.parametrize("path", sorted(p for p, kind in FIELDS.items() if kind == NUMBER))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
def test_non_finite_number_names_its_path(path, value):
    # JSON admits NaN, Infinity and integers beyond the float range
    cfg, parent, key = _holding(path)
    parent[key] = value
    _expect_config_error(cfg, path)


@pytest.mark.parametrize("path", sorted(FIELDS))
@settings(PROPERTY, max_examples=3)
@given(data=st.data())
def test_cli_exits_2_without_traceback(path, data):
    cfg, parent, key = _holding(path)
    parent[key] = data.draw(WRONG[FIELDS[path]], label="value")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if path != "out":
            cfg["out"] = str(Path(tmp) / "out")
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(err):
            rc = main(["simulate", "--config", str(config), "--quiet"])
    assert rc == 2
    assert err.getvalue().startswith(f"config error: {path}: ")
    assert "Traceback" not in err.getvalue()
