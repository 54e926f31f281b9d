"""Shared grid-evaluation helpers: potential values at cell centers, cell
power sums and the interaction energy of a density.

The interaction double sum over cells is the bilinear form of `powersums`
in the cell power sums about the grid's midpoint, in 1-d and per axis in
2-d: for polynomial W it equals the direct double sum up to rounding, in
O(n) time and memory, with no n-by-n kernel.  W*m at cell centers is
`convolve_potential` at `GridDensity.centers()`.
"""

from __future__ import annotations

import numpy as np

from .measures import GridDensity
from .potentials import PotentialSpec, polynomial_derivative
from .powersums import anchor, convolution_matrix, interaction_form, power_sums


def potential_on_grid(p: PotentialSpec, grid: GridDensity) -> np.ndarray:
    """Potential values at all cell centers."""
    coeffs = p.poly1d_coefficients() if grid.dim == 1 else p.poly2d_coefficients()
    return polynomial_derivative(coeffs, grid.centers())


def grid_power_sums(p: PotentialSpec, grid: GridDensity, values: np.ndarray) -> np.ndarray:
    """Power sums of the cell masses values * h about the grid's midpoint, as
    many per axis as the interaction form of p reads; values may be
    signed."""
    count = convolution_matrix(p).shape[0]
    pts = grid.centers()
    if grid.dim == 2:
        pts, count = pts.reshape(-1, 2), (count, count)
    return power_sums(pts, (values * grid.cell_volume).reshape(-1), anchor(pts), count)


def interaction_energy(p: PotentialSpec, grid: GridDensity) -> float:
    """Half the double integral of mu(x) W(x-y) mu(y) over the cells: the
    bilinear form in the cell power sums about the grid midpoint, equal to
    the direct double sum up to rounding."""
    sums = grid_power_sums(p, grid, grid.values)
    return 0.5 * interaction_form(p, sums, sums)
