"""Bit-exact output formats: binary snapshots, the diagnostics CSV, and the
run manifest.

Snapshot layout (little-endian throughout):

    magic   4 bytes  b"SBQ1"
    version u16      currently 1
    n       u32      grid points per axis
    fields  u32      number of field arrays (2: omega then theta)
    time    f64
    data    fields * n * n * f64, row-major physical-space samples

File size is exactly 22 + 2 * n^2 * 8 bytes and read(write(x)) is the
identity on bytes.  Snapshots store physical-space values for portability;
the spectral representation is recovered by a forward transform since all
dynamical fields are band-limited.

The diagnostics CSV has the exact column order of DiagnosticsRecord, a
header row, "." as the decimal separator, and 17 significant digits.  The
ensemble summary CSV has a ``t`` column, then ``<field>_mean``,
``<field>_var`` and ``<field>_max`` for every other record field, then
``count``; its floats use the same format.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsRecord, RECORD_FIELDS
from .spectral import Grid, SpectralField
from .state import SimState

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    "write_diagnostics_csv",
    "read_diagnostics_csv",
    "write_summary_csv",
    "write_manifest",
]

SNAPSHOT_MAGIC = b"SBQ1"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sHIId")


class SnapshotError(ValueError):
    pass


def write_snapshot(path, state: SimState) -> None:
    n = state.grid.n
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, n, 2, state.t)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.omega.values(), dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.theta.values(), dtype="<f8").tobytes())


def read_snapshot(path) -> SimState:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SnapshotError("truncated snapshot header")
    magic, version, n, nfields, t = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    if nfields != 2:
        raise SnapshotError(f"expected 2 fields, got {nfields}")
    expected = _HEADER.size + nfields * n * n * 8
    if len(raw) != expected:
        raise SnapshotError(f"size mismatch: {len(raw)} != {expected}")
    try:
        grid = Grid(n)
    except ValueError as exc:  # an odd or too small n with a matching body
        raise SnapshotError(f"bad grid size: {exc}") from exc
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    omega = SpectralField.from_physical(grid, body[:n * n].reshape(n, n))
    theta = SpectralField.from_physical(grid, body[n * n:].reshape(n, n))
    return SimState(omega, theta, t=t)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_diagnostics_csv(path, records: list) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(RECORD_FIELDS) + "\n")
        for rec in records:
            fh.write(",".join(_fmt(getattr(rec, f)) for f in RECORD_FIELDS) + "\n")


def read_diagnostics_csv(path) -> list:
    """The records of a diagnostics CSV; a malformed file (wrong header, a
    row of the wrong length, a cell that is not a number) raises
    ``ValueError`` naming the file and the line."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header.split(",") != list(RECORD_FIELDS):
            raise ValueError(f"unexpected diagnostics header in {path}")
        records = []
        for number, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            if len(cells) != len(RECORD_FIELDS):
                raise ValueError(f"{path}, line {number}: expected {len(RECORD_FIELDS)} "
                                 f"values, got {len(cells)}")
            try:
                values = [float(v) for v in cells]
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from None
            records.append(DiagnosticsRecord(*values))
    return records


def write_summary_csv(path, summary) -> None:
    """Write an ``EnsembleSummary``, one row per record time."""
    cols = [(f, s) for f in RECORD_FIELDS if f != "t" for s in ("mean", "var", "max")]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(["t"] + [f"{f}_{s}" for f, s in cols] + ["count"]) + "\n")
        for j, t in enumerate(summary.times):
            cells = [_fmt(t)] + [_fmt(summary.stats[f][s][j]) for f, s in cols]
            fh.write(",".join(cells + [str(summary.counts[j])]) + "\n")


def write_manifest(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
