"""Measure representations and measure-level primitives.

Two representations are used throughout: weighted atoms (occupation
measures of simulated paths) and densities on a uniform grid (anything
that needs an entropy or a Gibbs image).  All quadrature is midpoint
rule on the grid, with reductions in a fixed order so that results are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError, UnsupportedInputError
from .potentials import PotentialSpec, as_envelope, polynomial_derivative
from .powersums import PowerSums, anchor, convolution_matrix, convolution_tensor, power_sums

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class ParticleMeasure:
    """Finite weighted atoms; positions shape (n,) in 1-d or (n, d)."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pos.shape[0] != w.shape[0]:
            raise InvalidInputError("positions and weights must have equal length")
        if pos.shape[0] == 0:
            raise InvalidInputError("measure needs at least one atom")
        if not np.all(np.isfinite(pos)):
            raise InvalidInputError("atom positions must be finite")
        if not (np.all(np.isfinite(w)) and np.all(w > 0)):
            raise InvalidInputError("atom weights must be positive and finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return 1 if self.positions.ndim == 1 else self.positions.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def normalized(self) -> "ParticleMeasure":
        return ParticleMeasure(self.positions, self.weights / self.total_mass)

    def mean(self):
        if self.dim == 1:
            return float(self.weights @ self.positions) / self.total_mass
        return np.asarray(self.weights @ self.positions) / self.total_mass


def dirac(position, weight: float = 1.0) -> ParticleMeasure:
    pos = np.atleast_1d(np.asarray(position, dtype=float))
    if pos.size == 1:
        return ParticleMeasure(pos.reshape(1), np.array([weight]))
    return ParticleMeasure(pos.reshape(1, -1), np.array([weight]))


@dataclass(frozen=True)
class GridDensity:
    """Probability density sampled at cell midpoints of a uniform grid.

    1-d: lo/hi floats, values shape (cells,).  2-d: lo/hi length-2 arrays,
    values shape (cells_x, cells_y).  Units of values are 1/length^d.
    """

    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        v = np.asarray(self.values, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size not in (1, 2):
            raise InvalidInputError("domain must be a 1-d or 2-d box")
        if np.any(hi <= lo):
            raise InvalidInputError("domain box must have positive extent")
        if v.ndim != lo.size:
            raise InvalidInputError("values rank must match domain dimension")
        if min(v.shape) < 16:
            raise InvalidInputError("need at least 16 cells per axis")
        if not np.all(np.isfinite(v)):
            raise NumericFailureError("grid density has non-finite cells")
        if np.any(v < 0):
            raise InvalidInputError("grid density must be non-negative")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def cells(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / np.asarray(self.values.shape, dtype=float)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_centers(self, axis: int = 0) -> np.ndarray:
        n = self.values.shape[axis]
        h = self.spacing[axis]
        return self.lo[axis] + (np.arange(n) + 0.5) * h

    def centers(self) -> np.ndarray:
        """Cell midpoints: shape (n,) in 1-d, (nx, ny, 2) in 2-d."""
        if self.dim == 1:
            return self.axis_centers(0)
        cx = self.axis_centers(0)
        cy = self.axis_centers(1)
        return np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1)

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    def normalized(self) -> "GridDensity":
        m = self.mass
        if not math.isfinite(m) or m <= 0:
            raise NumericFailureError("cannot normalize grid with non-finite or zero mass")
        return GridDensity(self.lo, self.hi, self.values / m)

    def require_probability(self):
        if abs(self.mass - 1.0) > _MASS_TOL:
            raise InvalidInputError(f"grid mass {self.mass} is not 1 within {_MASS_TOL}")

    def mean(self):
        if self.dim == 1:
            m = float(self.axis_centers(0) @ self.values) * self.cell_volume / self.mass
            return m
        c = self.centers()
        m = np.tensordot(self.values, c, axes=([0, 1], [0, 1])) * self.cell_volume / self.mass
        return np.asarray(m)


Measure = ParticleMeasure | GridDensity


def uniform_density(lo: float, hi: float, cells: int = 1024) -> GridDensity:
    vals = np.full(cells, 1.0 / (hi - lo))
    return GridDensity(np.array([lo]), np.array([hi]), vals)


def gaussian_density(mean: float, sigma: float, lo: float, hi: float,
                     cells: int = 1024) -> GridDensity:
    xs = np.linspace(lo, hi, cells, endpoint=False) + (hi - lo) / cells / 2
    vals = np.exp(-0.5 * ((xs - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return GridDensity(np.array([lo]), np.array([hi]), vals).normalized()


def as_atoms(m: Measure) -> ParticleMeasure:
    """View of the measure as weighted atoms at cell midpoints; cells with no
    mass are dropped."""
    if isinstance(m, ParticleMeasure):
        return m
    if m.dim == 1:
        pos = m.axis_centers(0)
        w = m.values * m.cell_volume
    else:
        pos = m.centers().reshape(-1, 2)
        w = m.values.reshape(-1) * m.cell_volume
    keep = w > 0
    if not keep.all():
        pos, w = pos[keep], w[keep]
    return ParticleMeasure(pos, w)


# ---------------------------------------------------------------------------
# convolution, center, recentering


def _summable(m):
    """The measure as weighted atoms, or as given when it is `PowerSums`."""
    return m if isinstance(m, PowerSums) else as_atoms(m)


def _expansion(p: PotentialSpec, atoms, order: int):
    """Anchor a, ascending coefficients in y = x - a, and the derivative order
    still to take of them to get (d^order W * m)(x).

    1-d expands the order-th derivative of W (`convolution_matrix`), so none
    is left; 2-d expands W itself (`convolution_tensor`) and leaves all of
    them to `polynomial_derivative`.  `PowerSums` bring their own anchor.
    """
    if isinstance(atoms, PowerSums):
        T = convolution_matrix(p, order)
        if atoms.sums.size < T.shape[0]:
            raise InvalidInputError(f"W reads {T.shape[0]} power sums, got {atoms.sums.size}")
        return atoms.anchor, T @ atoms.sums[:T.shape[0]], 0
    a = anchor(atoms.positions)
    if atoms.dim == 1:
        T = convolution_matrix(p, order)
        return a, T @ power_sums(atoms.positions, atoms.weights, a, T.shape[0]), 0
    T = convolution_tensor(p)
    S = power_sums(atoms.positions, atoms.weights, a, T.shape[2:])
    return a, np.einsum("ijkl,kl->ij", T, S), order


def convolve_potential(p: PotentialSpec, m: Measure, x, order: int = 0):
    """(W*m)(x), (grad W*m)(x) or (hess W*m)(x) by the anchored power-sum
    expansion, exact for the polynomial families (midpoint quadrature for
    grids).

    1-d: x is a scalar or an array of points.  2-d: x has shape (..., 2);
    the result has shape (...), (..., 2) or (..., 2, 2) by order.  m may be
    a measure or its `PowerSums`.
    """
    atoms = _summable(m)
    if atoms.total_mass <= 0:
        raise InvalidInputError("empty measure")
    x = np.asarray(x, dtype=float)
    if atoms.dim == 1:
        if x.ndim == 1 and x.size == 1:
            x = x.reshape(())
    elif atoms.dim != x.shape[-1]:
        raise InvalidInputError("point dimension does not match the measure")
    a, coeffs, k = _expansion(p, atoms, order)
    out = polynomial_derivative(coeffs, x - a, k)
    return float(out) if np.ndim(out) == 0 else out


def center(p: PotentialSpec, m: Measure, tol: float = 1e-10, max_iter: int = 50):
    """Unique root of grad (W*m); Newton from the mean with the exact Hessian.

    Works in y = x - a about the anchor a of the measure, on one expansion,
    so the iteration is the same wherever the measure sits.  m may be a
    measure or its `PowerSums`.
    """
    atoms = _summable(m)
    if p.convexity_constant <= 0:
        raise InvalidInputError("center requires a uniformly convex potential")
    a, grad, k = _expansion(p, atoms, 1)
    c = atoms.mean() - a
    for _ in range(max_iter):
        g = polynomial_derivative(grad, c, k)
        if float(np.linalg.norm(g)) <= tol:
            out = a + c
            return float(out) if np.ndim(out) == 0 else out
        h = polynomial_derivative(grad, c, k + 1)
        c = c - (g / h if atoms.dim == 1 else np.linalg.solve(h, g))
    raise NumericFailureError(
        f"center Newton did not converge (|grad|={float(np.linalg.norm(g)):.3e})")


def recenter(m: Measure, c) -> Measure:
    """Translate the measure by -c, i.e. return m(. + c)."""
    if isinstance(m, ParticleMeasure):
        return ParticleMeasure(m.positions - c, m.weights)
    shift = np.atleast_1d(np.asarray(c, dtype=float))
    return GridDensity(m.lo - shift, m.hi - shift, m.values)


def centered(p: PotentialSpec, m: Measure) -> Measure:
    return recenter(m, center(p, m))


# ---------------------------------------------------------------------------
# smoothing (1-d: exact overlap of the flat kernel with cells)


def smooth(m: ParticleMeasure, h: float, lo: float | None = None,
           hi: float | None = None, cells: int | None = None) -> GridDensity:
    """Convolve atoms with the uniform kernel on [-h, h] and bin exactly.

    Mass is preserved exactly up to rounding because every atom's kernel is
    split over cells by its true overlap length.
    """
    if h <= 0:
        raise InvalidInputError("smoothing width must be positive")
    if m.dim != 1:
        raise UnsupportedInputError("smoothing is implemented in 1-d")
    pos = m.positions
    if lo is None:
        lo = float(pos.min()) - h
    if hi is None:
        hi = float(pos.max()) + h
    if pos.min() - h < lo - 1e-12 or pos.max() + h > hi + 1e-12:
        raise InvalidInputError("domain does not cover the smoothed support")
    if cells is None:
        cells = max(16, int(math.ceil((hi - lo) / (h / 4.0))))
    width = (hi - lo) / cells
    if width > h / 4.0 + 1e-12:
        raise InvalidInputError("cell width must be at most h/4")
    edges = np.linspace(lo, hi, cells + 1)
    masses = np.zeros(cells)
    chunk = max(1, int(4e6 // (cells + 1)))
    for start in range(0, pos.size, chunk):
        pp = pos[start:start + chunk, None]
        ww = m.weights[start:start + chunk, None]
        cdf = np.clip((edges[None, :] - (pp - h)) / (2 * h), 0.0, 1.0)
        masses += (ww * np.diff(cdf, axis=1)).sum(axis=0)
    return GridDensity(np.array([lo]), np.array([hi]), masses / width)


# ---------------------------------------------------------------------------
# envelope norm


def p_norm(p, m: Measure) -> float:
    """Integral of P(|y|) against |m|; at least the total mass since P >= 1."""
    env = as_envelope(p)
    atoms = as_atoms(m)
    if atoms.dim == 1:
        r = np.abs(atoms.positions)
    else:
        r = np.linalg.norm(atoms.positions, axis=1)
    out = float(atoms.weights @ env(r))
    if not math.isfinite(out):
        raise NumericFailureError("envelope norm diverged")
    return out
