"""Shared grid-evaluation helpers: potential values at cell centers, the
convolution W*m at cell centers and the interaction energy of a density.

In 1-d both go through the anchored power-sum expansion (`powersums`): for
polynomial W the convolution is a polynomial whose coefficients are linear in
the measure's power sums, and the interaction double sum over cells is a
bilinear form in them, so O(n) work and memory replace the n-by-n kernel
with no approximation.  2-d keeps direct sums.
"""

from __future__ import annotations

import numpy as np

from .measures import GridDensity, Measure, as_atoms, convolve_potential
from .potentials import PotentialSpec, _polyval
from .powersums import anchor, convolution_matrix, interaction_form, power_sums


def potential_on_grid(p: PotentialSpec, grid: GridDensity) -> np.ndarray:
    """Potential values at all cell centers."""
    if grid.dim == 1:
        return _polyval(p.poly1d_coefficients(), grid.axis_centers(0))
    r = np.linalg.norm(grid.centers(), axis=-1)
    return _polyval(p.radial_coefficients(), r)


def grid_power_sums(p: PotentialSpec, grid: GridDensity, values: np.ndarray) -> np.ndarray:
    """Power sums of the cell masses values * h about the 1-d grid's midpoint,
    as many as the interaction form of p reads; values may be signed."""
    xs = grid.axis_centers(0)
    count = convolution_matrix(p).shape[0]
    return power_sums(xs, values * grid.cell_volume, anchor(xs), count)


def convolve_measure_on_grid(p: PotentialSpec, m: Measure, grid: GridDensity) -> np.ndarray:
    """(W*m) at the grid's cell centers.

    1-d uses the anchored polynomial-moment expansion, as does the 2-d
    quadratic family (|x-y|^2 needs only the mean and the second moment);
    other 2-d cases fall back to a chunked direct sum.
    """
    if grid.dim == 1:
        return convolve_potential(p, m, grid.axis_centers(0))
    atoms = as_atoms(m)
    pts = grid.centers()
    if p.kind == "quadratic-symmetric":
        c = p.coefficients[0]
        mass = atoms.total_mass
        mean = (atoms.weights @ atoms.positions) / mass
        second = float(atoms.weights @ np.einsum("ij,ij->i", atoms.positions,
                                                 atoms.positions)) / mass
        sq = np.einsum("...k,...k->...", pts, pts)
        return 0.5 * c * mass * (sq - 2.0 * pts @ mean + second)
    flat = pts.reshape(-1, 2)
    out = np.zeros(flat.shape[0])
    coeffs = p.radial_coefficients()
    chunk = max(1, int(4e6 // max(1, flat.shape[0])))
    for start in range(0, atoms.positions.shape[0], chunk):
        pp = atoms.positions[start:start + chunk]
        ww = atoms.weights[start:start + chunk]
        diff = flat[None, :, :] - pp[:, None, :]
        r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        out += ww @ _polyval(coeffs, r)
    return out.reshape(grid.values.shape)


def interaction_energy(p: PotentialSpec, grid: GridDensity) -> float:
    """Half the double integral of mu(x) W(x-y) mu(y) over the cells.

    1-d: the bilinear form in the cell power sums about the grid midpoint,
    equal to the direct double sum up to rounding."""
    if grid.dim == 1:
        sums = grid_power_sums(p, grid, grid.values)
        return 0.5 * interaction_form(p, sums, sums)
    # conv already carries the source cell volume through the atom weights
    conv = convolve_measure_on_grid(p, grid, grid)
    return 0.5 * float((grid.values * conv).sum()) * grid.cell_volume
