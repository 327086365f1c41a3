"""Run artifacts: snapshots and convergence log as CSV, timing report as JSON.

Both CSV files are comma-separated with one header line, every line ending
in CR LF and no field quoted: each field is a number or a fixed column name.
Floats are written with repr, Python's shortest digit string that round-trips
to the same double, so the same values give the same bytes and readers
recover the exact values.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .grid import SpatialGrid
from .moments import MomentField
from .parareal import ConvergenceRecord

__all__ = [
    "write_snapshots",
    "read_snapshot",
    "write_convergence",
    "read_convergence",
    "write_timing",
]

SNAPSHOT_HEADER = ["x", "rho", "ux", "uy", "uz", "theta"]
CONVERGENCE_HEADER = ["k", "error", "seconds"]


def _directory(out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_table(path: Path, header: list[str], rows) -> Path:
    """Write the header and each row of formatted fields, comma-joined, one
    line each ending in CR LF."""
    text = "".join(",".join(row) + "\r\n" for row in [header, *rows])
    path.write_text(text, newline="")
    return path


def _read_table(path: str | Path, types=None) -> tuple[list[str], list[list]]:
    """The header and the rows of a file written by _write_table, each field
    converted by its column's type in types (float in every column of the
    header when types is None). A line with another field count or a field
    its type refuses, and a file with no header line, raise
    ConfigurationError naming the path and the line."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ConfigurationError(f"{path} line 1: no header")
    header = lines[0].split(",")
    types = types or [float] * len(header)
    rows = []
    for number, line in enumerate(lines, start=1):
        fields = line.split(",")
        try:
            if len(fields) != len(types):
                raise ValueError(f"{len(fields)} fields where {len(types)} are needed")
            if number > 1:
                rows.append([kind(field) for kind, field in zip(types, fields)])
        except ValueError as exc:
            raise ConfigurationError(f"{path} line {number}: {exc}") from None
    return header, rows


def _column(values: np.ndarray) -> list[str]:
    return [repr(x) for x in np.asarray(values, dtype=float).tolist()]


def write_snapshots(snapshots: list[MomentField], space: SpatialGrid,
                    out_dir: str | Path) -> list[Path]:
    """One snap_NNNNN.csv per coarse time, one row per cell.

    A snapshot whose cell count is not space.n_x raises ConfigurationError,
    naming its index and both counts, before any file is written.
    """
    for n, U in enumerate(snapshots):
        if U.n_x != space.n_x:
            raise ConfigurationError(f"snapshot {n} has {U.n_x} cells "
                                     f"for a grid of {space.n_x}")
    out_dir = _directory(out_dir)
    x = _column(space.centers)
    return [_write_table(out_dir / f"snap_{n:05d}.csv", SNAPSHOT_HEADER,
                         zip(x, *map(_column, (U.rho, *U.u.T, U.theta))))
            for n, U in enumerate(snapshots)]


def read_snapshot(path: str | Path) -> dict[str, np.ndarray]:
    """Columns of one snapshot file as float arrays keyed by header name; a
    malformed file raises ConfigurationError (_read_table)."""
    header, rows = _read_table(path)
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


def write_convergence(records: list[ConvergenceRecord],
                      out_dir: str | Path) -> Path:
    return _write_table(_directory(out_dir) / "convergence.csv", CONVERGENCE_HEADER,
                        ([str(rec.k), repr(rec.error), repr(rec.seconds)]
                         for rec in records))


def read_convergence(path: str | Path) -> list[ConvergenceRecord]:
    """The records of one convergence file; a malformed file raises
    ConfigurationError (_read_table)."""
    return [ConvergenceRecord(*row) for row in _read_table(path, (int, float, float))[1]]


def write_timing(report: dict, out_dir: str | Path) -> Path:
    """timing.json: the report as it is, its keys in order, two-space indent."""
    path = _directory(out_dir) / "timing.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
