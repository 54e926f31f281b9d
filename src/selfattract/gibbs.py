"""The Gibbs map m -> Z^-1 exp(-(V + W*m)) dx and its fixed point.

Normalization goes through log-sum-exp with max subtraction so that the
polynomial growth of the exponent never underflows the partition sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError
from .gridkernel import convolve_measure_on_grid, potential_on_grid
from .measures import (GridDensity, Measure, as_atoms, center, convolve_potential,
                       p_norm, recenter)
from .potentials import PotentialSpec
from .transport import tp_distance_1d

_TAIL_MASS = 1e-10


@dataclass(frozen=True)
class GibbsResult:
    density: GridDensity
    log_partition: float
    center: object


def _auto_grid(w: PotentialSpec, v: PotentialSpec | None, m: Measure,
               cells: int) -> GridDensity:
    """1-d grid centered at the measure's center, wide enough that the Gibbs
    exponent at the boundary is ~ 46 nats above the minimum (tail < 1e-10)."""
    atoms = as_atoms(m)
    c = center(w, m) if w.convexity_constant > 0 else atoms.mean()
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
    vals = np.full(cells, 1.0 / (2 * radius))
    return GridDensity(np.array([c - radius]), np.array([c + radius]), vals)


def _exponent(w: PotentialSpec, v: PotentialSpec | None, m: Measure,
              xs: np.ndarray) -> np.ndarray:
    out = convolve_potential(w, m, xs)
    if v is not None:
        out = out + np.polynomial.polynomial.polyval(xs, v.poly1d_coefficients())
    return out


def gibbs_map(w: PotentialSpec, m: Measure, v: PotentialSpec | None = None,
              grid: GridDensity | None = None, cells: int = 1024) -> GibbsResult:
    """Normalized density proportional to exp(-(V + W*m)) on a grid.

    The evaluation grid defaults to an auto-sized box around the center of m;
    pass ``grid`` to reuse an existing geometry (the flow does).
    """
    if p_norm(w, m) == float("inf"):
        raise InvalidInputError("measure has infinite envelope norm")
    if grid is None:
        if as_atoms(m).dim != 1:
            raise InvalidInputError("2-d Gibbs map needs an explicit grid")
        grid = _auto_grid(w, v, m, cells)
    phi = convolve_measure_on_grid(w, m, grid)
    if v is not None:
        phi = phi + potential_on_grid(v, grid)
    phi_min = float(phi.min())
    expo = -(phi - phi_min)
    weights = np.exp(expo)
    z = float(weights.sum())
    if not math.isfinite(z) or z <= 0.0:
        raise NumericFailureError(
            "all Gibbs cell weights underflowed; the grid is misplaced -- "
            "re-center it on the measure before applying the map")
    log_partition = math.log(z) + math.log(grid.cell_volume) - phi_min
    density = GridDensity(grid.lo, grid.hi, weights / (z * grid.cell_volume))
    boundary = _boundary_mass(density)
    if boundary > 1e-5:
        raise NumericFailureError(
            f"Gibbs density keeps {boundary:.2e} mass at the grid boundary; "
            "re-center or widen the grid")
    if w.convexity_constant > 0:
        c = center(w, density)
    else:
        c = density.mean()
    return GibbsResult(density=density, log_partition=log_partition, center=c)


def _boundary_mass(g: GridDensity) -> float:
    if g.dim == 1:
        return float((g.values[0] + g.values[-1]) * g.cell_volume)
    edge = (g.values[0, :].sum() + g.values[-1, :].sum()
            + g.values[:, 0].sum() + g.values[:, -1].sum())
    return float(edge * g.cell_volume)


def _snap_shift(c: float, width: float) -> float:
    """Shift rounded to a whole number of cells so values stay aligned."""
    return round(c / width) * width


@dataclass(frozen=True)
class FixedPointResult:
    density: GridDensity
    iterations: int
    residuals: tuple[float, ...]
    energies: tuple[float, ...] = ()


def solve_fixed_point(w: PotentialSpec, init: GridDensity,
                      v: PotentialSpec | None = None, damping: float = 0.5,
                      tol: float = 1e-12, max_iter: int = 500,
                      return_info: bool = False, track_energy: bool = False):
    """Damped iteration rho <- (1 - damping) rho + damping * Pi(rho).

    Each step re-centers the iterate (domain shift snapped to whole cells so
    successive iterates stay mixable).  Convergence is measured by the 1-d
    translation distance between successive centered iterates (L1 in 2-d).
    """
    if not 0.0 < damping <= 1.0:
        raise InvalidInputError("damping must lie in (0, 1]")
    init.require_probability()
    rho = init
    residuals = []
    energies = []
    for it in range(1, max_iter + 1):
        image = gibbs_map(w, rho, v=v, grid=rho).density
        mixed = GridDensity(rho.lo, rho.hi,
                            (1.0 - damping) * rho.values + damping * image.values)
        mixed = mixed.normalized()
        if w.convexity_constant > 0 and mixed.dim == 1:
            c = center(w, mixed)
            shift = _snap_shift(c, float(mixed.spacing[0]))
            if shift != 0.0:
                mixed = recenter(mixed, shift)
        if mixed.dim == 1:
            res = tp_distance_1d(w, rho, mixed).value
        else:
            res = float(np.abs(mixed.values - rho.values).sum() * rho.cell_volume)
        residuals.append(res)
        rho = mixed
        if track_energy:
            from .energy import free_energy

            energies.append(free_energy(w, rho, v=v).total)
        if res < tol:
            if return_info:
                return FixedPointResult(rho, it, tuple(residuals), tuple(energies))
            return rho
    raise NumericFailureError(
        f"fixed point not reached in {max_iter} iterations (residual {residuals[-1]:.3e})")
