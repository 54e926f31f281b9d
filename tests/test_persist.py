import csv
import re

import numpy as np
import pytest

from selfattract import GridDensity, InvalidInputError, gaussian_density
from selfattract.persist import (format_column, load_measure, write_grid_density,
                                 write_series_csv)
from conftest import make_rng


def _row_writer(path, header, rows):
    """The former cell-by-cell writer: the byte oracle for the column one."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, (float, np.floating))
                             else x for x in row])


def _adversarial_columns():
    gen = make_rng(51)
    bits = gen.integers(0, 2**64 - 1, size=4000, dtype=np.uint64, endpoint=True)
    doubles = bits.view(np.float64)
    doubles = doubles[np.isfinite(doubles)][:3000]
    n = doubles.size
    edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 1e16 + 2,
                     0.1, 1 / 3, 2.0**-1074, np.finfo(float).max, -np.finfo(float).max,
                     123456789012345678.0, 1e-5, 1e21, 1e22])
    floats = np.resize(edge, n)
    floats[::7] = gen.standard_normal(floats[::7].size) * 10.0 ** gen.integers(-30, 30, floats[::7].size)
    return [
        np.arange(n),                                   # integer column
        doubles,                                        # raw random bit patterns
        floats,                                         # edge values and scaled normals
        (gen.standard_normal(n) * 1e3).astype(np.float32),
        gen.integers(-10**12, 10**12, size=n),
        list(gen.standard_normal(n)),                   # a list of Python floats
        [int(k) for k in gen.integers(-5, 5, size=n)],  # a list of Python ints
    ]


def test_column_writer_matches_row_writer_byte_for_byte(tmp_path):
    cols = _adversarial_columns()
    header = [f"c{k}" for k in range(len(cols))]
    _row_writer(tmp_path / "rows.csv", header, zip(*cols))
    write_series_csv(tmp_path / "cols.csv", header, cols)
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    # columns formatted beforehand, as files sharing a column pass it
    write_series_csv(tmp_path / "cells.csv", header, [format_column(c) for c in cols])
    assert (tmp_path / "cells.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("cols", [[], [np.array([])], [np.array([-0.0]), np.array([7])]])
def test_column_writer_matches_row_writer_on_small_tables(tmp_path, cols):
    header = [f"c{k}" for k in range(len(cols))]
    _row_writer(tmp_path / "rows.csv", header, zip(*cols))
    write_series_csv(tmp_path / "cols.csv", header, cols)
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_columns_of_different_lengths_are_rejected(tmp_path):
    with pytest.raises(InvalidInputError, match="length"):
        write_series_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])


def test_non_numeric_column_is_rejected(tmp_path):
    with pytest.raises(InvalidInputError, match="numbers"):
        write_series_csv(tmp_path / "x.csv", ["a"], [["x", "y"]])


def test_load_measure_names_a_meta_file_without_bounds(tmp_path):
    path = tmp_path / "g.csv"
    write_series_csv(path, ["x", "density"], [np.arange(16.0), np.ones(16)])
    (tmp_path / "g.csv.meta").write_text("dim = 1\n")
    with pytest.raises(InvalidInputError, match="g.csv.meta needs lo and hi lines"):
        load_measure(path)


def test_load_measure_rejects_an_uneven_grid_without_meta(tmp_path):
    path = tmp_path / "u.csv"
    xs = np.delete(np.arange(17.0), 2)   # 0, 1, 3, 4, ..., 16
    write_series_csv(path, ["x", "density"], [xs, np.ones(16)])
    with pytest.raises(InvalidInputError, match=f"{re.escape(str(path))}.*evenly spaced"):
        load_measure(path)


def test_load_measure_reads_a_written_grid_without_its_meta(tmp_path):
    g = GridDensity(-3.7, 5.1, make_rng(3).uniform(0.1, 1.0, 300))
    path = tmp_path / "g.csv"
    write_grid_density(path, g)
    (tmp_path / "g.csv.meta").unlink()
    m = load_measure(path)
    assert np.array_equal(m.values, g.values)
    assert np.abs(m.lo - g.lo).max() <= 1e-12 and np.abs(m.hi - g.hi).max() <= 1e-12


def test_written_meta_holds_dim_lo_hi_and_cells(tmp_path):
    g = GridDensity(-3.7, 5.1, make_rng(3).uniform(0.1, 1.0, 300))
    path = tmp_path / "g.csv"
    write_grid_density(path, g)
    assert (tmp_path / "g.csv.meta").read_bytes() == b"dim = 1\nlo = -3.7\nhi = 5.1\ncells = 300\n"
    m = load_measure(path)
    assert (m.lo, m.hi) == (g.lo, g.hi) and np.array_equal(m.values, g.values)


@pytest.mark.parametrize("edit", [
    lambda csv_path, meta: csv_path.write_text(
        "".join(csv_path.read_text().splitlines(keepends=True)[:-24])),
    lambda csv_path, meta: meta.write_text("dim = 1\nlo = 100.0\nhi = 116.0\ncells = 1024\n"),
    lambda csv_path, meta: meta.write_text("dim = 2\nlo = -8.0 -8.0\nhi = 8.0 8.0\n"
                                           "cells = 1024 1024\n")],
    ids=["rows-cut", "box-shifted", "two-numbers-on-lo"])
def test_load_measure_checks_the_table_against_its_meta(tmp_path, edit):
    path = tmp_path / "density.csv"
    write_grid_density(path, gaussian_density(0.0, 1.0, -8.0, 8.0, 1024))
    edit(path, tmp_path / "density.csv.meta")
    with pytest.raises(InvalidInputError, match=re.escape(f"measure file {path}: ")):
        load_measure(path)
