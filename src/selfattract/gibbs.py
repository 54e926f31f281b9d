"""The Gibbs map m -> Z^-1 exp(-(V + W*m)) dx.

`gibbs_map` returns the image as a `GridDensity`.  It reads the measure
only through its power sums (`measures.density_sums`) and V only through
the box's memoized geometry (`BoxGeometry.potential`).  Normalization
subtracts the exponent's minimum before exponentiating, so that the
polynomial growth of the exponent never underflows the partition sum.  Its
fixed point is solved in `flow` by the flow's own mixing step at a constant
weight (`flow.solve_fixed_point`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericFailureError
from .measures import (DensitySums, GridDensity, Measure, center, convolve_potential,
                       density_sums)
from .potentials import PotentialSpec, polynomial_derivative
from .powersums import PowerSums
from .transport import tp_distance_1d  # noqa: F401  (bench/tracer.py wraps it here)

_CELLS = 1024   # cells of the auto-sized box


def _auto_grid(w: PotentialSpec, v: PotentialSpec | None, m: PowerSums) -> GridDensity:
    """Grid centered at the measure's center, wide enough that the Gibbs
    exponent at the boundary is ~ 46 nats above the minimum (tail < 1e-10)."""
    c = center(w, m) if w.convexity_constant > 0 else m.mean()
    conv = w.convexity_constant + (v.convexity_constant if v is not None else 0.0)
    radius = max(4.0, 2.0 * math.sqrt(46.0 / max(conv, 1e-2)))
    for _ in range(40):
        xs = np.array([c - radius, c, c + radius])
        probe = _exponent(w, v, m, xs)
        if min(probe[0], probe[2]) - probe[1] >= 46.0:
            break
        radius *= 1.5
    else:
        raise NumericFailureError("could not bracket the Gibbs density support")
    return GridDensity(c - radius, c + radius, np.full(_CELLS, 1.0 / (2 * radius)))


def _exponent(w: PotentialSpec, v: PotentialSpec | None, m: PowerSums,
              xs: np.ndarray) -> np.ndarray:
    out = convolve_potential(w, m, xs)
    if v is not None:
        out = out + polynomial_derivative(v.poly1d_coefficients(), xs)
    return out


def gibbs_map(w: PotentialSpec, m: Measure | PowerSums, v: PotentialSpec | None = None,
              grid: GridDensity | None = None) -> GridDensity:
    """The normalized density proportional to exp(-(V + W*m)) on a grid.

    m is a measure or its `PowerSums`: the exponent reads m only through
    them.  A measure is read once (`density_sums`), and its `DensitySums`
    may be passed instead, as the flow and the fixed point do.  The
    evaluation grid defaults to an auto-sized box of `_CELLS` cells around
    the center of m; pass ``grid`` to reuse an existing geometry (the flow
    does).  The grid's centers and V at them come from its box's memoized
    geometry, and the image, valid by construction, is not checked again.
    NumericFailureError when the envelope norm of a read measure diverges,
    or when bare `PowerSums` overflowed.
    """
    if not isinstance(m, PowerSums):
        m = density_sums(w, m)
    if isinstance(m, DensitySums):
        if not math.isfinite(m.envelope_norm):
            raise NumericFailureError("envelope norm diverged")
    elif not np.all(np.isfinite(m.sums)):
        raise NumericFailureError("power sums of the measure overflowed")
    if grid is None:
        grid = _auto_grid(w, v, m)
    geo = grid.geometry(w)
    phi = convolve_potential(w, m, geo.centers)
    if v is not None:
        phi = phi + geo.potential(v)
    weights = np.exp(phi.min() - phi)
    z = float(weights.sum())
    if not math.isfinite(z) or z <= 0.0:
        raise NumericFailureError(
            "all Gibbs cell weights underflowed; the grid is misplaced -- "
            "re-center it on the measure before applying the map")
    density = GridDensity._view(grid.lo, grid.hi, weights / (z * grid.spacing))
    boundary = float((density.values[0] + density.values[-1]) * density.spacing)
    if boundary > 1e-5:
        raise NumericFailureError(
            f"Gibbs density keeps {boundary:.2e} mass at the grid boundary; "
            "re-center or widen the grid")
    return density
