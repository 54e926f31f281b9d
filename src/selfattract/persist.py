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


def load_measure(path: Path):
    """Sniff the header row: position/weight -> atoms, x/density -> grid.
    A file that is not one of these two tables raises `InvalidInputError`
    naming it."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            table = [row for row in csv.reader(fh) if row]
        return _measure_from_table(path, table)
    except OSError as exc:
        raise InvalidInputError(f"cannot read measure file {path}: {exc.strerror}")
    except (InvalidInputError, ValueError) as exc:
        raise InvalidInputError(f"measure file {path}: {exc}")


def _measure_from_table(path: Path, table: list[list[str]]):
    if not table:
        raise InvalidInputError("the file is empty")
    header, rows = table[0], table[1:]
    cols = [c.strip().lower() for c in header]
    if cols not in (["position", "weight"], ["x", "density"]):
        raise InvalidInputError(f"unrecognized header {header!r}")
    if not rows or any(len(row) != 2 for row in rows):
        raise InvalidInputError("need one or more rows of two cells")
    data = np.array([[float(v) for v in row] for row in rows])
    if not np.all(np.isfinite(data)):
        raise InvalidInputError("cells must be finite")
    if cols == ["position", "weight"]:
        return ParticleMeasure(data[:, 0], data[:, 1])
    meta = path.with_suffix(path.suffix + ".meta")
    if meta.exists():
        kv = {}
        for line in meta.read_text().splitlines():
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
        if not {"lo", "hi"} <= kv.keys():
            raise InvalidInputError(f"{meta.name} needs lo and hi lines")
        lo = np.array([float(v) for v in kv["lo"].split()])
        hi = np.array([float(v) for v in kv["hi"].split()])
        return GridDensity(lo, hi, data[:, 1])
    if len(rows) < 2:
        raise InvalidInputError(f"a grid without {meta.name} needs two or more rows")
    xs = data[:, 0]
    steps = np.diff(xs)
    width = steps[0]
    if not (width > 0 and np.all(np.abs(steps - width) <= 1e-6 * width)):
        raise InvalidInputError(f"a grid without {meta.name} needs evenly spaced, "
                                "increasing x")
    return GridDensity(np.array([xs[0] - width / 2]),
                       np.array([xs[-1] + width / 2]), data[:, 1])


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
