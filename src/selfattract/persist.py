"""CSV / JSON-lines artifacts and run manifests.

Floats are written with repr so artifacts round-trip exactly and reruns of
the same seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .measures import GridDensity, ParticleMeasure


def _format_column(column) -> list[str]:
    """Cells of one column: floats through repr (exact round trip), integers
    and booleans through str."""
    values = np.asarray(column)
    if values.dtype.kind == "f":
        return list(map(repr, values.tolist()))
    if values.dtype.kind in "iub":
        return list(map(str, values.tolist()))
    raise InvalidInputError(f"CSV columns hold numbers, not {values.dtype}")


def write_series_csv(path: Path, header: list[str], columns) -> None:
    """One CSV file from equal-length columns, each formatted once and the
    file written in one piece; rows end in a bare newline."""
    cells = [_format_column(c) for c in columns]
    if len({len(c) for c in cells}) > 1:
        raise InvalidInputError("CSV columns differ in length")
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_grid_density(path: Path, g: GridDensity) -> None:
    """Density CSV (x, density) plus a small key-value header file."""
    if g.dim != 1:
        xs = g.centers().reshape(-1, 2)
        write_series_csv(path, ["x1", "x2", "density"],
                         [xs[:, 0], xs[:, 1], g.values.reshape(-1)])
    else:
        write_series_csv(path, ["x", "density"], [g.axis_centers(0), g.values])
    meta = path.with_suffix(path.suffix + ".meta")
    with open(meta, "w") as fh:
        fh.write(f"dim = {g.dim}\n")
        fh.write(f"lo = {' '.join(repr(float(v)) for v in g.lo)}\n")
        fh.write(f"hi = {' '.join(repr(float(v)) for v in g.hi)}\n")
        fh.write(f"cells = {' '.join(str(c) for c in g.values.shape)}\n")


def write_particle_measure(path: Path, m: ParticleMeasure) -> None:
    if m.dim != 1:
        raise InvalidInputError("particle CSV format is 1-d")
    write_series_csv(path, ["position", "weight"], [m.positions, m.weights])


def load_measure(path: Path):
    """Sniff the header row: position/weight -> atoms, x/density -> grid."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    cols = [c.strip().lower() for c in header]
    data = np.asarray(rows)
    if cols == ["position", "weight"]:
        return ParticleMeasure(data[:, 0], data[:, 1])
    if cols == ["x", "density"]:
        meta = path.with_suffix(path.suffix + ".meta")
        if meta.exists():
            kv = {}
            for line in meta.read_text().splitlines():
                key, _, value = line.partition("=")
                kv[key.strip()] = value.strip()
            lo = np.array([float(v) for v in kv["lo"].split()])
            hi = np.array([float(v) for v in kv["hi"].split()])
            return GridDensity(lo, hi, data[:, 1])
        xs = data[:, 0]
        width = xs[1] - xs[0]
        return GridDensity(np.array([xs[0] - width / 2]),
                           np.array([xs[-1] + width / 2]), data[:, 1])
    raise InvalidInputError(f"unrecognized measure CSV header {header!r}")


def config_digest(resolved: dict) -> str:
    return hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()


def write_manifest(path: Path, command: str, resolved_config: dict, seed: int) -> None:
    manifest = {
        "command": command,
        "config": resolved_config,
        "config_sha256": config_digest(resolved_config),
        "seed": seed,
        "versions": {
            "selfattract": "0.1.0",
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
