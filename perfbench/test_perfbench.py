"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Smoke mode (``--smoke``: n = 32 for the Heun workloads, a few steps, one
realization per worker, fewer battery samples; the Ito workload and the
battery keep n = 64, where their window and baselines hold) runs every
workload end to end in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED_END_TO_END = ("setup_s", "step_ms_p50", "step_ms_tail", "sim_steps_per_s",
                    "realizations_per_s", "verify_s", "peak_rss_mb", "failed_frac")
UNITS = {"setup_s": " s", "step_ms_p50": " ms", "step_ms_tail": " ms",
         "sim_steps_per_s": " 1/s", "realizations_per_s": " 1/s", "verify_s": " s",
         "peak_rss_mb": " MB", "failed_frac": " ("}

sys.path.insert(0, str(HERE))
import layers  # noqa: E402


def bench(workload, trace, seed=3, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced_reports_every_end_to_end_metric(workload):
    proc = bench(workload, 0)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = proc.stdout
    for name in NAMED_END_TO_END:
        line = next(l for l in report.splitlines() if l.strip().startswith(name + " "))
        assert UNITS[name] in line or "n/a (" in line, line


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_reports_every_per_layer_metric(workload):
    proc = bench(workload, 1)
    result = result_of(proc)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, (unit, _) in layers.METRICS.items():
        assert any(l.strip().startswith(name + " ") for l in proc.stdout.splitlines()), name
        if name in expected:
            assert expected[name] == unit
    assert "FFT calls attributed" not in proc.stderr


def test_traced_counts_repeat_exactly():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    for workload in ("heun-n128-diag", "ensemble-n64-hyper"):
        first, second = (result_of(bench(workload, 1))["metrics"] for _ in range(2))
        assert {k: first[k]["value"] for k in counts} == \
            {k: second[k]["value"] for k in counts}


def test_fft_counts_match_the_stepper():
    """FFT calls per step and per record, as measured at the seed commit."""
    heun = result_of(bench("heun-n128-diag", 1))["metrics"]
    ito = result_of(bench("ito-n64-trunc", 1))["metrics"]
    assert heun["spectral.fft_calls_per_step"]["value"] == 54
    assert ito["spectral.fft_calls_per_step"]["value"] == 1182
    assert ito["operators.lie_second_calls_per_step"]["value"] == 96
    assert heun["operators.lie_second_calls_per_step"]["value"] == 0
    assert heun["diagnostics.fft_calls_per_record"]["value"] == 9


def test_fails_without_the_program():
    """A directory holding only BENCHMARK.json and the benchmark."""
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(WORKLOADS[0], 0, cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
