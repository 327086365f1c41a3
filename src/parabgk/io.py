"""Run artifacts: snapshots and convergence log as CSV, timing report as JSON.

Both CSV files are comma-separated with one header line, every line ending
in CR LF and no field quoted: each field is a number or a fixed column name.
Floats are written with repr, Python's shortest digit string that round-trips
to the same double, so the same values give the same bytes and readers
recover the exact values.

Each table's columns are declared once, in order, each with its type: the
snapshot table's six floats, and the convergence table's ConvergenceRecord
fields with their annotated types, so a field added to the record is a new
column. The writer writes each field as the repr of its column's type
applied to the value; the reader refuses any other header and converts each
field by its column's type.
"""

from __future__ import annotations

import json
from dataclasses import astuple
from pathlib import Path
from typing import get_type_hints

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

# Each table's columns, in order, with the type a field is written and read by.
SNAPSHOT_COLUMNS = dict.fromkeys(["x", "rho", "ux", "uy", "uz", "theta"], float)
CONVERGENCE_COLUMNS = get_type_hints(ConvergenceRecord)


def _directory(out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_table(path: Path, columns: dict[str, type], values) -> Path:
    """Write the header of columns, then one row per index into values, which
    holds one sequence per column in order. Each field is the repr of its
    column's type applied to the value; fields are comma-joined and every
    line ends in CR LF."""
    fields = [map(repr, map(kind, column)) for kind, column in zip(columns.values(), values)]
    text = "".join(",".join(row) + "\r\n" for row in [columns, *zip(*fields)])
    path.write_text(text, newline="")
    return path


def _read_table(path: str | Path, columns: dict[str, type]) -> list[list]:
    """The rows of a file written by _write_table with columns, each field
    converted by its column's type. A file with no header line or another
    header, a line with another field count and a field its type refuses
    raise ConfigurationError naming the path and the line."""
    lines, header = Path(path).read_text().splitlines(), ",".join(columns)
    if lines[:1] != [header]:
        why = f"header {lines[0]!r} where {header!r} is needed" if lines else "no header"
        raise ConfigurationError(f"{path} line 1: {why}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != len(columns):
                raise ValueError(f"{len(fields)} fields where {len(columns)} are needed")
            rows.append([kind(field) for kind, field in zip(columns.values(), fields)])
        except ValueError as exc:
            raise ConfigurationError(f"{path} line {number}: {exc}") from None
    return rows


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
    x = space.centers.tolist()
    return [_write_table(out_dir / f"snap_{n:05d}.csv", SNAPSHOT_COLUMNS,
                         [x, U.rho.tolist(), *U.u.T.tolist(), U.theta.tolist()])
            for n, U in enumerate(snapshots)]


def read_snapshot(path: str | Path) -> dict[str, np.ndarray]:
    """Columns of one snapshot file as float arrays keyed by column name; a
    malformed file raises ConfigurationError (_read_table)."""
    rows = _read_table(path, SNAPSHOT_COLUMNS)
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(SNAPSHOT_COLUMNS))
    return {name: data[:, j] for j, name in enumerate(SNAPSHOT_COLUMNS)}


def write_convergence(records: list[ConvergenceRecord],
                      out_dir: str | Path) -> Path:
    return _write_table(_directory(out_dir) / "convergence.csv", CONVERGENCE_COLUMNS,
                        zip(*map(astuple, records)))


def read_convergence(path: str | Path) -> list[ConvergenceRecord]:
    """The records of one convergence file; a malformed file raises
    ConfigurationError (_read_table)."""
    return [ConvergenceRecord(*row) for row in _read_table(path, CONVERGENCE_COLUMNS)]


def write_timing(report: dict, out_dir: str | Path) -> Path:
    """timing.json: the report as it is, its keys in order, two-space indent."""
    path = _directory(out_dir) / "timing.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
