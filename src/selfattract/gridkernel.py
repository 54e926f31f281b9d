"""Shared grid-evaluation helpers: potential values at cell centers, cell
power sums and the interaction energy of a density on a grid of the line
(the package implements d = 1 of the paper's R^d).

The interaction double sum over cells is the bilinear form of `powersums`
in the cell power sums about the grid's midpoint: for polynomial W it
equals the direct double sum up to rounding, in O(n) time and memory, with
no n-by-n kernel.  W*m at cell centers is `convolve_potential` at
`GridDensity.centers()`.
"""

from __future__ import annotations

import numpy as np

from .measures import DensitySums, GridDensity
from .potentials import PotentialSpec, polynomial_derivative
from .powersums import anchor, convolution_matrix, interaction_form, power_sums


def potential_on_grid(p: PotentialSpec, grid: GridDensity) -> np.ndarray:
    """Potential values at all cell centers."""
    return polynomial_derivative(p.poly1d_coefficients(), grid.centers())


def grid_power_sums(p: PotentialSpec, grid: GridDensity, values: np.ndarray) -> np.ndarray:
    """Power sums of the cell masses values * h about the grid's midpoint, as
    many as the interaction form of p reads; values may be signed.  The
    centers are the box's memoized ones (`GridDensity.geometry`)."""
    pts = grid.geometry(p).centers
    return power_sums(pts, values * grid.spacing, anchor(pts),
                      convolution_matrix(p).shape[0])


def interaction_energy(p: PotentialSpec, grid: GridDensity,
                       sums: DensitySums | None = None) -> float:
    """Half the double integral of mu(x) W(x-y) mu(y) over the cells: the
    bilinear form in the cell power sums about the grid midpoint, equal to
    the direct double sum up to rounding.  ``sums``, the grid read by
    `density_sums`, give those cell sums when they cover every cell."""
    s = (sums.sums if sums is not None and sums.whole
         else grid_power_sums(p, grid, grid.values))
    return 0.5 * interaction_form(p, s, s)
