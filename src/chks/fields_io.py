"""Binary field snapshots and trajectory directories.

Snapshot format (bit-exact):
    32-byte header: magic "CHKSFLD1", u32 nx, u32 ny, f64 lx, f64 ly
    payload: nx*ny little-endian float64, row-major with y as the outer
    loop and x as the inner loop.

Trajectory directories hold one snapshot per field per stored step,
named ``{field}_{step:06}.fld``, plus a ``series.csv`` with the per-step
scalar monitors.
"""

from __future__ import annotations

import csv
import os
import struct
from pathlib import Path

import numpy as np

from .grid import Grid

MAGIC = b"CHKSFLD1"
_HEADER = struct.Struct("<8sIIdd")


def write_field(path: str | Path, grid: Grid, data: np.ndarray) -> None:
    """Write one field snapshot (y outer, x inner, little-endian f64)."""
    if data.shape != grid.shape:
        raise ValueError("field shape does not match grid")
    payload = np.ascontiguousarray(data.T, dtype="<f8")
    # An existing snapshot is overwritten in place, not truncated first:
    # rewriting the same size leaves its blocks allocated, and truncate()
    # cuts off the tail of a longer old file.
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, grid.nx, grid.ny, grid.lx, grid.ly))
        fh.write(payload)
        fh.truncate()


def read_field(path: str | Path) -> tuple[Grid, np.ndarray]:
    """Read a field snapshot back into (grid, data) with data shaped (nx, ny)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"not a field snapshot: {len(header)}-byte file")
        magic, nx, ny, lx, ly = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"not a field snapshot: bad magic {magic!r}")
        raw = fh.read()
    if len(raw) != 8 * nx * ny:
        raise ValueError(f"field snapshot payload has {len(raw)} bytes, "
                         f"expected {8 * nx * ny} for {nx}x{ny}")
    data = np.frombuffer(raw, dtype="<f8").reshape(ny, nx).T.copy()
    return Grid(nx, ny, lx, ly), data


def write_trajectory(
    out_dir: str | Path,
    grid: Grid,
    fields: dict[str, np.ndarray],
    prefix: str = "",
    start: int = 0,
) -> None:
    """Write per-step snapshots for each named field array of shape (nsteps, nx, ny).

    Entry j of an array is step start + j, so a caller can write a run's
    levels as they come, one slice f[k:k + 1] with start=k at a time, and
    get the files that writing the whole array at once gives.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, arr in fields.items():
        for j in range(arr.shape[0]):
            write_field(out / f"{prefix}{name}_{start + j:06}.fld", grid, arr[j])


def write_csv(path: str | Path, rows: list[dict]) -> None:
    """Write rows under a header of the first row's keys, in their order."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
