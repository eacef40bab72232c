"""Per-layer metrics derived from the spans of the traced operations.

"Per step" divides by the time steps the traced operations took (all
realizations together on the ensemble workload) and by battery passes on
verify-ops-n64.  Per-step spectral and operator figures count only the
stepping work: spans under ``diagnostics``, ``io`` and ``config`` calls are
kept apart (see ``tracing.CATEGORY_BY_LAYER``).  Byte figures are computed
from array sizes, not measured.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

ID, PARENT, PID, LAYER, NAME, CATEGORY, T0, T1, SELF, FFTS, FFT_S, FFT_BYTES = range(12)
SNAPSHOT_HEADER_BYTES = 22

# name -> (unit, what it measures); the order is the report order
METRICS = {
    "spectral.fft_calls_per_step": ("count", "FFT calls in stepping work"),
    "spectral.fft_ms_per_step": ("ms", "time inside FFT calls in stepping work"),
    "spectral.fft_bytes_per_step": ("bytes", "computed: FFT input + output array bytes"),
    "spectral.product_calls_per_step": ("count", "dealiased products"),
    "spectral.product_self_ms_per_step": ("ms", "product self time, FFTs excluded"),
    "spectral.derivative_calls_per_step": ("count", "spectral derivatives"),
    "spectral.derivative_ms_per_step": ("ms", "derivative time, multiplier rebuilt per call"),
    "spectral.biot_savart_ms_per_step": ("ms", "Biot-Savart time"),
    "operators.lie_derivative_calls_per_step": ("count", "first-order transports"),
    "operators.lie_derivative_self_ms_per_step": ("ms", "lie_derivative self time"),
    "operators.lie_second_calls_per_step": ("count", "double transports (Ito correction)"),
    "operators.lie_second_ms_per_step": ("ms", "lie_second time"),
    "operators.cancellation_residual_ms": ("ms", "per call"),
    "operators.adjoint_defect_ms": ("ms", "per call"),
    "operators.weighted_cancellation_ratio_ms": ("ms", "per call"),
    "operators.general_estimate_ratio_ms": ("ms", "per call"),
    "integrator.step_self_ms_per_step": ("ms", "noise combination, field arithmetic, finalize guards"),
    "integrator.grad_sup_calls_per_step": ("count", "including the recomputation in compute_record"),
    "noise.sample_increments_ms_per_step": ("ms", "Brownian increment sampling"),
    "noise.build_basis_s": ("s", "median per call"),
    "diagnostics.compute_record_ms": ("ms", "per record"),
    "diagnostics.records_per_step": ("count", "records per step"),
    "diagnostics.fft_calls_per_record": ("count", "FFT calls under compute_record"),
    "io.write_snapshot_ms": ("ms", "per snapshot"),
    "io.snapshot_bytes": ("bytes", "computed: 22 + 2 n^2 x 8 per snapshot"),
    "io.write_diagnostics_csv_ms": ("ms", "per file"),
    "io.write_manifest_ms": ("ms", "per file"),
    "ensemble.run_realization_s_p50": ("s", "median realization wall time in a worker"),
    "ensemble.worker_busy_frac": ("frac", "realization time / (workers x run_ensemble time)"),
    "ensemble.summarize_ms": ("ms", "per call"),
    "ensemble.ok_frac": ("frac", "realizations that did not fail"),
    "config.build_noise_basis_s": ("s", "median per call"),
    "config.build_initial_state_s": ("s", "median per call"),
    "trace.overhead_frac": ("frac", "traced / untraced median time per unit of work - 1"),
}


def _inclusive_ffts(spans) -> list:
    """FFT calls of each span including its descendants.  Spans are stored
    when they close, so every child precedes its parent."""
    pending = defaultdict(int)
    out = []
    for s in spans:
        total = s[FFTS] + pending.pop((s[PID], s[ID]), 0)
        pending[(s[PID], s[PARENT])] += total
        out.append(total)
    return out


def derive(wl, spans, setup_spans, traced_ops, overhead_frac) -> dict:
    """name -> (value or None when the workload never exercises it, unit)."""
    steps = sum(r.steps for r in traced_ops) or 1
    work = [s for s in spans if s[CATEGORY] == "work"]

    def calls(layer, name, pool=work):
        return [s for s in pool if s[LAYER] == layer and s[NAME] == name]

    def per_step(values, scale=1.0):
        return scale * sum(values) / steps

    def mean_ms(found):
        return 1000.0 * statistics.fmean(s[T1] - s[T0] for s in found) if found else None

    def median_s(found):
        return statistics.median(s[T1] - s[T0] for s in found) if found else None

    everything = spans + setup_spans
    records = calls("diagnostics", "compute_record", spans)
    incl = dict(zip((id(s) for s in spans), _inclusive_ffts(spans)))
    realizations = calls("ensemble", "run_realization", spans)
    ensembles = calls("ensemble", "run_ensemble", spans)
    results = [r for op in traced_ops for r in op.results]
    snapshots = calls("io", "write_snapshot", spans)
    workers = getattr(wl, "workers", 1)
    busy = (sum(s[T1] - s[T0] for s in realizations)
            / (workers * sum(s[T1] - s[T0] for s in ensembles))) if ensembles else None

    values = {
        "spectral.fft_calls_per_step": per_step(s[FFTS] for s in work),
        "spectral.fft_ms_per_step": per_step((s[FFT_S] for s in work), 1000.0),
        "spectral.fft_bytes_per_step": per_step(s[FFT_BYTES] for s in work),
        "spectral.product_calls_per_step": per_step(1 for _ in calls("spectral", "product")),
        "spectral.product_self_ms_per_step":
            per_step((s[SELF] for s in calls("spectral", "product")), 1000.0),
        "spectral.derivative_calls_per_step":
            per_step(1 for _ in calls("spectral", "derivative")),
        "spectral.derivative_ms_per_step":
            per_step((s[T1] - s[T0] for s in calls("spectral", "derivative")), 1000.0),
        "spectral.biot_savart_ms_per_step":
            per_step((s[T1] - s[T0] for s in calls("spectral", "biot_savart")), 1000.0),
        "operators.lie_derivative_calls_per_step":
            per_step(1 for _ in calls("operators", "lie_derivative")),
        "operators.lie_derivative_self_ms_per_step":
            per_step((s[SELF] for s in calls("operators", "lie_derivative")), 1000.0),
        "operators.lie_second_calls_per_step":
            per_step(1 for _ in calls("operators", "lie_second")),
        "operators.lie_second_ms_per_step":
            per_step((s[T1] - s[T0] for s in calls("operators", "lie_second")), 1000.0),
        "operators.cancellation_residual_ms": mean_ms(calls("operators", "cancellation_residual")),
        "operators.adjoint_defect_ms": mean_ms(calls("operators", "adjoint_defect")),
        "operators.weighted_cancellation_ratio_ms":
            mean_ms(calls("operators", "weighted_cancellation_ratio")),
        "operators.general_estimate_ratio_ms":
            mean_ms(calls("operators", "general_estimate_ratio")),
        "integrator.step_self_ms_per_step":
            per_step((s[SELF] for s in work if s[LAYER] == "integrator"), 1000.0),
        "integrator.grad_sup_calls_per_step":
            per_step(1 for _ in calls("integrator", "grad_sup", spans)),
        "noise.sample_increments_ms_per_step":
            per_step((s[T1] - s[T0] for s in calls("noise", "sample_increments")), 1000.0),
        "noise.build_basis_s": median_s(calls("noise", "build_basis", everything)),
        "diagnostics.compute_record_ms": mean_ms(records),
        "diagnostics.records_per_step": len(records) / steps,
        "diagnostics.fft_calls_per_record":
            sum(incl[id(s)] for s in records) / len(records) if records else 0.0,
        "io.write_snapshot_ms": mean_ms(snapshots),
        "io.snapshot_bytes":
            SNAPSHOT_HEADER_BYTES + 2 * wl.n ** 2 * 8 if snapshots else 0,
        "io.write_diagnostics_csv_ms": mean_ms(calls("io", "write_diagnostics_csv", spans)),
        "io.write_manifest_ms": mean_ms(calls("io", "write_manifest", spans)),
        "ensemble.run_realization_s_p50": median_s(realizations),
        "ensemble.worker_busy_frac": busy,
        "ensemble.summarize_ms": mean_ms(calls("ensemble", "summarize", spans)),
        "ensemble.ok_frac":
            sum(1 for r in results if not r.failed) / len(results) if results else None,
        "config.build_noise_basis_s": median_s(calls("config", "build_noise_basis", everything)),
        "config.build_initial_state_s":
            median_s(calls("config", "build_initial_state", everything)),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: (values[name], unit) for name, (unit, _) in METRICS.items()}


def layer_self_ms_per_step(spans, steps) -> dict:
    """Self time of each layer per step, over every category, plus FFTs."""
    out = defaultdict(float)
    for s in spans:
        out[s[LAYER]] += s[SELF]
        out["numpy.fft"] += s[FFT_S]
    return {k: 1000.0 * v / max(steps, 1) for k, v in sorted(out.items())}


def report_lines(per_layer) -> list:
    width = max(len(name) for name in per_layer)
    lines = []
    for name, (value, unit) in per_layer.items():
        note = METRICS[name][1]
        shown = "n/a (not exercised by this workload)" if value is None \
            else f"{value:.6g} {unit}"
        lines.append(f"  {name.ljust(width)}  {shown}  [{note}]")
    return lines
