"""The Gibbs map m -> Z^-1 exp(-(V + W*m)) dx and its fixed point.

`gibbs_map` returns the image as a `GridDensity`.  Normalization subtracts
the exponent's minimum before exponentiating, so that the polynomial growth
of the exponent never underflows the partition sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError
from .gridkernel import potential_on_grid
from .measures import (DensitySums, GridDensity, Measure, _finite_norm, _summable,
                       center, convolve_potential, density_sums, p_norm)
from .potentials import PotentialSpec
from .powersums import PowerSums
from .transport import tp_distance_1d


def _auto_grid(w: PotentialSpec, v: PotentialSpec | None, m: Measure | PowerSums,
               cells: int) -> GridDensity:
    """Grid centered at the measure's center, wide enough that the Gibbs
    exponent at the boundary is ~ 46 nats above the minimum (tail < 1e-10)."""
    c = center(w, m) if w.convexity_constant > 0 else _summable(m).mean()
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
    return GridDensity(c - radius, c + radius, np.full(cells, 1.0 / (2 * radius)))


def _exponent(w: PotentialSpec, v: PotentialSpec | None, m: Measure | PowerSums,
              xs: np.ndarray) -> np.ndarray:
    out = convolve_potential(w, m, xs)
    if v is not None:
        out = out + np.polynomial.polynomial.polyval(xs, v.poly1d_coefficients())
    return out


def gibbs_map(w: PotentialSpec, m: Measure | PowerSums, v: PotentialSpec | None = None,
              grid: GridDensity | None = None, cells: int = 1024) -> GridDensity:
    """The normalized density proportional to exp(-(V + W*m)) on a grid.

    m is a measure or its `PowerSums`: the exponent reads m only
    through them.  A grid density is read once (`density_sums`), and its
    `DensitySums` may be passed instead, as the flow and the fixed point
    do.  The evaluation grid defaults to an auto-sized box around the center
    of m; pass ``grid`` to reuse an existing geometry (the flow does).
    NumericFailureError when the envelope norm of m diverges, or for bare
    `PowerSums`, when they overflowed.
    """
    if isinstance(m, GridDensity):
        m = density_sums(w, m)
    if isinstance(m, DensitySums):
        _finite_norm(m.envelope_norm)
    elif isinstance(m, PowerSums):
        if not np.all(np.isfinite(m.sums)):
            raise NumericFailureError("power sums of the measure overflowed")
    else:
        p_norm(w, m)
    if grid is None:
        grid = _auto_grid(w, v, m, cells)
    phi = convolve_potential(w, m, grid.centers())
    if v is not None:
        phi = phi + potential_on_grid(v, grid)
    weights = np.exp(phi.min() - phi)
    z = float(weights.sum())
    if not math.isfinite(z) or z <= 0.0:
        raise NumericFailureError(
            "all Gibbs cell weights underflowed; the grid is misplaced -- "
            "re-center it on the measure before applying the map")
    density = GridDensity(grid.lo, grid.hi, weights / (z * grid.spacing))
    boundary = float((density.values[0] + density.values[-1]) * density.spacing)
    if boundary > 1e-5:
        raise NumericFailureError(
            f"Gibbs density keeps {boundary:.2e} mass at the grid boundary; "
            "re-center or widen the grid")
    return density


def _box_follows(g: GridDensity, c: float) -> GridDensity:
    """The grid with its box moved by the whole number of cells nearest
    to c minus the box middle, and the measure left in place: the values move
    the same number of slots the other way, zero-filled, and are renormalized
    for the tail that leaves the box.  Whole cells keep the old and the new
    grid on one lattice."""
    h = g.spacing
    k = round((c - 0.5 * (g.lo + g.hi)) / h)
    if k == 0:
        return g
    vals = np.zeros_like(g.values)
    if k > 0:
        vals[:-k] = g.values[k:]
    else:
        vals[-k:] = g.values[:k]
    return GridDensity.proportional_to(g.lo + k * h, g.hi + k * h, vals)


@dataclass(frozen=True)
class FixedPointResult:
    density: GridDensity
    residuals: tuple[float, ...]
    energies: tuple[float, ...] = ()


def solve_fixed_point(w: PotentialSpec, init: GridDensity,
                      v: PotentialSpec | None = None, damping: float = 0.5,
                      tol: float = 1e-12, max_iter: int = 500,
                      track_energy: bool = False) -> FixedPointResult:
    """Damped iteration rho <- (1 - damping) rho + damping * Pi(rho).

    When W has a center, the grid box follows the iterate: before each
    Gibbs image the box moves by whole cells to the iterate's center
    (`_box_follows`), and the iterate stays where it is.  Convergence is
    measured by the translation distance between successive iterates.  The
    result carries the last iterate, the residuals and, with
    ``track_energy``, the free energy of every iterate.  Each iterate is read
    once (`density_sums`) for its center, its Gibbs image and its free
    energy, and again only when its box moves.
    """
    if not 0.0 < damping <= 1.0:
        raise InvalidInputError("damping must lie in (0, 1]")
    init.require_probability()
    follow = w.convexity_constant > 0
    rho = init
    sums = density_sums(w, rho)
    residuals = []
    energies = []
    for _ in range(max_iter):
        if follow:
            moved = _box_follows(rho, center(w, sums))
            if moved is not rho:
                rho, sums = moved, density_sums(w, moved)
        image = gibbs_map(w, sums, v=v, grid=rho)
        mixed = GridDensity.proportional_to(
            rho.lo, rho.hi, (1.0 - damping) * rho.values + damping * image.values)
        res = tp_distance_1d(w, rho, mixed)
        residuals.append(res)
        rho, sums = mixed, density_sums(w, mixed)
        if track_energy:
            from .energy import free_energy

            energies.append(free_energy(w, rho, v=v, sums=sums).total)
        if res < tol:
            return FixedPointResult(rho, tuple(residuals), tuple(energies))
    raise NumericFailureError(
        f"fixed point not reached in {max_iter} iterations (residual {residuals[-1]:.3e})")
