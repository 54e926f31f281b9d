"""Measure representations and measure-level primitives.

Measures live on the line: the package implements d = 1 of the paper's
R^d.  Two representations are used throughout: weighted atoms (occupation
measures of simulated paths) and densities on a uniform grid (anything
that needs an entropy or a Gibbs image).  All quadrature is midpoint
rule on the grid, with reductions in a fixed order so that results are
reproducible bit for bit.

Every object that depends on a measure -- W*m, its center, the Gibbs
image, the interaction energy -- reads it through its power sums about an
anchor, and `density_sums` is the one reader: it takes atoms or a grid
density and returns those sums with the measure's envelope norm.  The
center is the root of W' * m that the path stepper's solver finds
(`powersums.block_centers`), from the mean S1/S0 about the anchor, so it
moves exactly with the measure.

What a grid's box fixes under an envelope P -- its cell centers, P(|x|) at
them, tp's envelope primitives at its edges and a potential V at its
centers -- is memoized per (envelope, box ends, cell count) and read-only
(`box_geometry`); the cell centers, which need no envelope, per box alone,
so a density's `centers()` and `mean()` read the same array.  A density
keeps its normalized CDF once taken (`GridDensity.cdf`), its values turning
read-only with it.  A flow step or a fixed-point iteration on a box that
stands still therefore evaluates none of the box's geometry, V included,
and takes one CDF, its mixture's.
A density built from checked ones -- a Gibbs image, a mixture, a
renormalized density -- is not checked again (`GridDensity._view`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError
from .potentials import PotentialSpec, as_envelope, polynomial_derivative
from .powersums import PowerSums, anchor, block_centers, convolution_matrix, power_sums

_MASS_TOL = 1e-9
_BOX_CACHE = 1   # boxes whose geometry is kept: the one a flow or a fixed point is on


@dataclass(frozen=True)
class ParticleMeasure:
    """Finite weighted atoms on the line; positions and weights of shape (n,)."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pos.ndim != 1:
            raise InvalidInputError("atom positions must be a 1-d array")
        if pos.shape != w.shape:
            raise InvalidInputError("positions and weights must have equal length")
        if pos.size == 0:
            raise InvalidInputError("measure needs at least one atom")
        if not np.all(np.isfinite(pos)):
            raise InvalidInputError("atom positions must be finite")
        if not (np.all(np.isfinite(w)) and np.all(w > 0)):
            raise InvalidInputError("atom weights must be positive and finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def mean(self) -> float:
        return float(self.weights @ self.positions) / self.total_mass


def dirac(position: float) -> ParticleMeasure:
    return ParticleMeasure(np.array([position], dtype=float), np.array([1.0]))


@dataclass(frozen=True)
class GridDensity:
    """Probability density sampled at the cell midpoints of a uniform grid on
    the interval [lo, hi] of the line (d = 1 of the paper's R^d): finite
    floats lo < hi and values of shape (cells,), in units of 1/length.  The
    checks run once, here; its reader (`density_sums`) trusts them, and so
    does a density built from checked ones (`_view`)."""

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        v = np.asarray(self.values, dtype=float)
        if not hi > lo:
            raise InvalidInputError("domain box must have positive extent")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInputError("domain box must be finite")
        if v.ndim != 1:
            raise InvalidInputError("grid values must be a 1-d array")
        if v.size < 16:
            raise InvalidInputError("need at least 16 cells")
        if not np.all(np.isfinite(v)):
            raise NumericFailureError("grid density has non-finite cells")
        if np.any(v < 0):
            raise InvalidInputError("grid density must be non-negative")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "values", v)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.values.size

    def centers(self) -> np.ndarray:
        """Cell midpoints, memoized per box and read-only."""
        return _cell_centers(self.lo, self.hi, self.values.size)

    def geometry(self, envelope) -> "BoxGeometry":
        """The memoized geometry of this density's box under ``envelope``
        (`box_geometry`)."""
        return box_geometry(as_envelope(envelope), self.lo, self.hi, self.values.size)

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """The normalized CDF at the cells' right edges, taken once and
        read-only; the values turn read-only with it, so it never goes stale."""
        cum = np.cumsum(self.values * self.spacing)
        cum /= cum[-1]
        _read_only(self.values)
        return _read_only(cum)

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.spacing)

    @classmethod
    def _view(cls, lo: float, hi: float, values: np.ndarray) -> "GridDensity":
        """A density valid by construction -- a Gibbs image on a checked box,
        a mixture of checked densities -- built without checking it again."""
        g = object.__new__(cls)
        object.__setattr__(g, "lo", lo)
        object.__setattr__(g, "hi", hi)
        object.__setattr__(g, "values", values)
        return g

    @classmethod
    def proportional_to(cls, lo: float, hi: float, values: np.ndarray) -> "GridDensity":
        """The density on [lo, hi] proportional to ``values``, which come
        from checked densities: the values divided by their midpoint-rule
        mass.  Only the mass can fail, so it is checked and the density is
        not (`_view`).  A mixture of densities is built this way, never as
        an unnormalized density first."""
        m = float(values.sum() * ((hi - lo) / values.size))
        if not math.isfinite(m) or m <= 0:
            raise NumericFailureError("cannot normalize grid with non-finite or zero mass")
        return cls._view(lo, hi, values / m)

    def normalized(self) -> "GridDensity":
        return GridDensity.proportional_to(self.lo, self.hi, self.values)

    def require_probability(self):
        if abs(self.mass - 1.0) > _MASS_TOL:
            raise InvalidInputError(f"grid mass {self.mass} is not 1 within {_MASS_TOL}")

    def mean(self) -> float:
        return float(self.centers() @ self.values) * self.spacing / self.mass


Measure = ParticleMeasure | GridDensity


@functools.lru_cache(maxsize=_BOX_CACHE)
def _cell_centers(lo: float, hi: float, cells: int) -> np.ndarray:
    """The cell midpoints of a box, evaluated once per box and read-only."""
    return _read_only(lo + (np.arange(cells) + 0.5) * ((hi - lo) / cells))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def envelope_primitives(env, xs: np.ndarray):
    """(xs, Phi0, Phi1, dPhi0, dPhi1, dx): the odd primitive Phi0 of P(|x|)
    and the even primitive Phi1 of x P(|x|) at the sorted points xs, and
    their differences over each interval (tp's integration tail)."""
    phi0, phi1 = env.antiderivative(xs), env.moment_antiderivative(xs)
    return xs, phi0, phi1, np.diff(phi0), np.diff(phi1), np.diff(xs)


class BoxGeometry:
    """What the uniform grid of ``cells`` cells on [lo, hi] fixes under an
    envelope P: its cell centers, P(|x|) at them, tp's `envelope_primitives`
    at its cells + 1 edges, and a potential's values at its centers
    (`potential`).  Each is evaluated when first read, and is read-only (a
    write raises ``ValueError``)."""

    def __init__(self, env, lo: float, hi: float, cells: int):
        self.env, self.lo, self.hi, self.cells = env, lo, hi, cells
        self._potentials: dict[PotentialSpec, np.ndarray] = {}

    def potential(self, v: PotentialSpec) -> np.ndarray:
        """V at the cell centers, evaluated once per potential."""
        if v not in self._potentials:
            self._potentials[v] = _read_only(
                polynomial_derivative(v.poly1d_coefficients(), self.centers))
        return self._potentials[v]

    @functools.cached_property
    def centers(self) -> np.ndarray:
        return _cell_centers(self.lo, self.hi, self.cells)

    @functools.cached_property
    def envelope(self) -> np.ndarray:
        return _read_only(self.env(np.abs(self.centers)))

    @functools.cached_property
    def primitives(self) -> tuple:
        edges = np.linspace(self.lo, self.hi, self.cells + 1)
        return tuple(map(_read_only, envelope_primitives(self.env, edges)))


# one geometry per (envelope, box ends, cell count): a flow or a fixed point
# evaluates its box's once, for as long as the box stands still
box_geometry = functools.lru_cache(maxsize=_BOX_CACHE)(BoxGeometry)


def uniform_density(lo: float, hi: float, cells: int = 1024) -> GridDensity:
    return GridDensity(lo, hi, np.full(cells, 1.0 / (hi - lo)))


def gaussian_density(mean: float, sigma: float, lo: float, hi: float,
                     cells: int = 1024) -> GridDensity:
    xs = np.linspace(lo, hi, cells, endpoint=False) + (hi - lo) / cells / 2
    vals = np.exp(-0.5 * ((xs - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return GridDensity(lo, hi, vals).normalized()


@dataclass(frozen=True, slots=True)
class DensitySums(PowerSums):
    """A measure read once as weighted atoms for the potential W
    (`density_sums`): the atoms' `PowerSums` about their anchor, as many as
    W's convolution reads and at least two, with their envelope norm, which
    `gibbs_map` checks.  ``whole`` says the atoms are every cell of a grid:
    the sums are then also the cell sums about the grid's midpoint that the
    free energy reads.  `gibbs_map`, `center` and `convolve_potential` take
    it in place of the measure and give the same numbers bit for bit."""

    potential: PotentialSpec
    envelope_norm: float
    whole: bool


def density_sums(p: PotentialSpec, m: Measure) -> DensitySums:
    """Read the measure m once for the potential p (`DensitySums`).  Atoms
    are read as they are, with P(|x|) evaluated at them.  A grid density is
    read as atoms at its cells with mass, at the centers of its box's
    geometry and with the envelope there, which its cache evaluated once;
    InvalidInputError when no cell has mass."""
    if isinstance(m, ParticleMeasure):
        pos, env, w = m.positions, as_envelope(p)(np.abs(m.positions)), m.weights
    else:
        geo = m.geometry(p)
        pos, env, w = geo.centers, geo.envelope, m.values * m.spacing
        keep = w > 0
        if not keep.any():
            raise InvalidInputError("empty measure")
        if not keep.all():
            pos, env, w = pos[keep], env[keep], w[keep]
    a = anchor(pos)
    sums = power_sums(pos, w, a, max(2, convolution_matrix(p).shape[0]))
    return DensitySums(a, sums, p, float(w @ env),
                       isinstance(m, GridDensity) and pos.size == m.values.size)


# ---------------------------------------------------------------------------
# convolution, center, recentering


def _sums(p: PotentialSpec, m, order: int):
    """The power sums of m -- read once (`density_sums`) unless they are
    given as `PowerSums` -- and p's order-``order`` convolution matrix T,
    which reads the first T.shape[0] of them."""
    s = m if isinstance(m, PowerSums) else density_sums(p, m)
    T = convolution_matrix(p, order)
    if s.sums.size < T.shape[0]:
        raise InvalidInputError(f"W reads {T.shape[0]} power sums, got {s.sums.size}")
    return s, T


def convolve_potential(p: PotentialSpec, m: Measure, x, order: int = 0):
    """(W*m)(x), (W'*m)(x) or (W''*m)(x) at a point or an array of points x,
    by the anchored power-sum expansion, exact for the polynomial families
    (midpoint quadrature for grids).  m may be a measure or its
    `PowerSums`."""
    s, T = _sums(p, m, order)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 and x.size == 1:
        x = x.reshape(())
    out = polynomial_derivative(T @ s.sums[:T.shape[0]], x - s.anchor)
    return float(out) if np.ndim(out) == 0 else out


def center(p: PotentialSpec, m: Measure) -> float:
    """Unique root of W' * m, found about the anchor a of m's power sums by
    the path stepper's center solver (`powersums.block_centers`): Newton
    from the mean S1/S0 until |W' * m| / mass <= 1e-12.  It reads m only
    through those sums, so the center moves exactly with the measure.  m
    may be a measure or its `PowerSums`."""
    if p.convexity_constant <= 0:
        raise InvalidInputError("center requires a uniformly convex potential")
    s, T = _sums(p, m, 1)
    return s.anchor + float(block_centers(T, s.sums[:T.shape[0]], s.sums[0]))


def recenter(m: Measure, c) -> Measure:
    """Translate the measure by -c, i.e. return m(. + c)."""
    if isinstance(m, ParticleMeasure):
        return ParticleMeasure(m.positions - c, m.weights)
    return GridDensity(m.lo - c, m.hi - c, m.values)


def centered(p: PotentialSpec, m: Measure) -> Measure:
    return recenter(m, center(p, m))


# ---------------------------------------------------------------------------
# smoothing: exact overlap of the flat kernel with cells


def smooth(m: ParticleMeasure, h: float, lo: float, hi: float, cells: int) -> GridDensity:
    """Convolve atoms with the uniform kernel on [-h, h] and bin exactly on
    the grid of ``cells`` cells on [lo, hi], which must cover every atom's
    kernel with cells no wider than h/4.

    Mass is preserved exactly up to rounding because every atom's kernel is
    split over cells by its true overlap length.
    """
    if h <= 0:
        raise InvalidInputError("smoothing width must be positive")
    pos = m.positions
    if pos.min() - h < lo - 1e-12 or pos.max() + h > hi + 1e-12:
        raise InvalidInputError("domain does not cover the smoothed support")
    width = (hi - lo) / cells
    if width > h / 4.0 + 1e-12:
        raise InvalidInputError("cell width must be at most h/4")
    edges = np.linspace(lo, hi, cells + 1)
    cdf = np.clip((edges - (pos[:, None] - h)) / (2 * h), 0.0, 1.0)
    masses = (m.weights[:, None] * np.diff(cdf, axis=1)).sum(axis=0)
    return GridDensity(lo, hi, masses / width)
