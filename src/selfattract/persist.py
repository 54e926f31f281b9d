"""CSV / JSON-lines artifacts and run manifests.

Floats are written with repr so artifacts round-trip exactly and reruns of
the same seed produce byte-identical files.  A column several files share,
like the time column of `simulate`'s path files, is formatted once
(`format_column`) and handed to each file as its `Cells`.
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


class Cells(list):
    """The formatted cells of one column (`format_column`), which
    `write_series_csv` writes as they are: a column that several files
    share is formatted once."""


def format_column(column) -> Cells:
    """Cells of one column: floats through repr (exact round trip), integers
    and booleans through str; a `Cells` column is already formatted."""
    if isinstance(column, Cells):
        return column
    values = np.asarray(column)
    if values.dtype.kind == "f":
        return Cells(map(repr, values.tolist()))
    if values.dtype.kind in "iub":
        return Cells(map(str, values.tolist()))
    raise InvalidInputError(f"CSV columns hold numbers, not {values.dtype}")


def write_series_csv(path: Path, header: list[str], columns) -> None:
    """One CSV file from equal-length columns, each formatted once
    (`format_column`) and the file written in one piece; rows end in a bare
    newline."""
    cells = [format_column(c) for c in columns]
    if len({len(c) for c in cells}) > 1:
        raise InvalidInputError("CSV columns differ in length")
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_grid_density(path: Path, g: GridDensity) -> None:
    """Density CSV (x, density) plus a small key-value header file."""
    write_series_csv(path, ["x", "density"], [g.centers(), g.values])
    meta = path.with_suffix(path.suffix + ".meta")
    with open(meta, "w") as fh:
        fh.write(f"dim = 1\nlo = {g.lo!r}\nhi = {g.hi!r}\ncells = {g.values.size}\n")


def load_measure(path: Path):
    """Sniff the header row: position/weight -> atoms, x/density -> grid.
    A file that is not one of these two tables, or a grid whose x column is
    not the cell midpoints of its box, raises `InvalidInputError` naming
    it."""
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
    xs = data[:, 0]
    meta = path.with_suffix(path.suffix + ".meta")
    if meta.exists():
        kv = {}
        for line in meta.read_text().splitlines():
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
        if not {"lo", "hi"} <= kv.keys():
            raise InvalidInputError(f"{meta.name} needs lo and hi lines")
        lo, hi, box = float(kv["lo"]), float(kv["hi"]), f"the box in {meta.name}"
    elif len(rows) < 2:
        raise InvalidInputError(f"a grid without {meta.name} needs two or more rows")
    else:
        width = xs[1] - xs[0]
        lo, hi, box = xs[0] - width / 2, xs[-1] + width / 2, "the box its end rows span"
    g = GridDensity(lo, hi, data[:, 1])
    if np.abs(xs - g.centers()).max() > 1e-6 * g.spacing:
        raise InvalidInputError(f"x must be the evenly spaced, increasing cell midpoints "
                                f"of {box}")
    return g


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
