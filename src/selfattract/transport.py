"""Transport distances between measures.

Both 1-d distances read one piecewise-linear description of a measure,
`_quantile_pieces`: an atom is a flat quantile piece and a CDF step at its
position, a grid cell a ramp of both from its start to its end.  Each
merges the knots of its two measures by counting and integrates exactly
over the merged intervals in one vectorised pass.  For tp, the integral of
P(|x|) |F1 - F2| dx, the CDF gap is linear, g = c0 + c1 x, between merged
x-knots; an interval is split only where g changes sign, and P(|x|) g
integrates to c0 dPhi0 + c1 dPhi1 with Phi0 the odd primitive of P(|x|) and
Phi1 the even primitive of x P(|x|), both valid across x = 0.  For W2 the
quantile gap is linear between merged probability knots and its square
integrates to w (ga^2 + ga gb + gb^2) / 3.  In 2-d W2 is an exact
minimum-cost assignment for small equal-weight clouds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError, UnsupportedInputError
from .measures import GridDensity, Measure, ParticleMeasure, center, recenter
from .potentials import PotentialSpec, as_envelope

_MASS_GAP_TOL = 1e-9


@dataclass(frozen=True)
class DistanceResult:
    value: float
    method: str          # tp-1d | w2-quantile | w2-assignment
    centered_at: object = None

    def __float__(self):
        return self.value


# ---------------------------------------------------------------------------
# piecewise-linear pieces of a 1-d measure; W2 reads them as quantiles


def _quantile_pieces(m: Measure):
    """(cum, start, end): on the k-th probability interval
    (cum[k-1], cum[k]] (cum[-1] = 1, and 0 before the first) the quantile of
    m runs linearly from start[k] to end[k].  Atoms, in stable position
    order, are flat pieces (end None); grid cells are ramps, and cells whose
    mass does not move the normalized CDF are dropped.  Read as a CDF, an
    atom is a step at start and a cell a ramp from start to end."""
    if isinstance(m, ParticleMeasure):
        pos, wts = m.positions, m.weights
        if (pos[1:] < pos[:-1]).any():   # ordered input is its own stable sort
            order = np.argsort(pos, kind="stable")
            pos, wts = pos[order], wts[order]
        cum = np.cumsum(wts)
        cum /= cum[-1]
        return cum, pos, None
    edges = np.linspace(m.lo[0], m.hi[0], m.values.size + 1)
    cum = np.cumsum(m.values * m.cell_volume)
    cum /= cum[-1]
    keep = np.diff(cum, prepend=0.0) > 0
    return cum[keep], edges[:-1][keep], edges[1:][keep]


def _merge(ka: np.ndarray, kb: np.ndarray, merged: np.ndarray) -> np.ndarray:
    """Write the sorted knots ka and kb, merged by counting (ties: ka
    first), into merged; return nb[i], the number of kb knots among the
    first i merged knots."""
    from_b = np.zeros(ka.size + kb.size, dtype=bool)
    from_b[np.arange(kb.size) + np.searchsorted(ka, kb, side="right")] = True
    merged[from_b] = kb
    merged[~from_b] = ka
    nb = np.zeros(from_b.size + 1, dtype=np.intp)
    np.cumsum(from_b, out=nb[1:])
    return nb


def _quantile_on_piece(pieces, k: np.ndarray, ps: np.ndarray, dp=0.0):
    """Quantile at probabilities ps inside pieces k, and its rise over
    [ps, ps + dp] (dp within the same piece)."""
    cum, start, end = pieces
    if end is None:
        return start[k], 0.0
    left = np.concatenate(([0.0], cum[:-1]))[k]
    span = cum[k] - left
    lo = start[k]
    width = end[k] - lo
    return lo + width * ((ps - left) / span), width * (dp / span)


def _quantile_at(pieces, ps: np.ndarray) -> np.ndarray:
    k = np.minimum(np.searchsorted(pieces[0], ps, side="left"), pieces[0].size - 1)
    return _quantile_on_piece(pieces, k, ps)[0]


def _w2_quantile(m1: Measure, m2: Measure) -> float:
    """Integral over p in [0, 1] of (q1 - q2)^2.  Both quantiles are linear on
    every interval between the merged interior knots of the two measures, so
    the gap g is linear there and the integral is w (ga^2 + ga gb + gb^2) / 3
    exactly: one O(n) pass once the knots are merged by counting."""
    a = _quantile_pieces(m1)
    b = _quantile_pieces(m2)
    if a[0].size < b[0].size:
        a, b = b, a   # W2 is symmetric; search the shorter knot list
    ps = np.empty(a[0].size + b[0].size)   # 0, the merged inner knots, 1
    ps[0], ps[-1] = 0.0, 1.0
    ib = _merge(a[0][:-1], b[0][:-1], ps[1:-1])
    lo = ps[:-1]
    w = np.diff(ps)
    ia = np.arange(lo.size) - ib   # the piece of each measure on every interval
    qa, ra = _quantile_on_piece(a, ia, lo, w)
    qb, rb = _quantile_on_piece(b, ib, lo, w)
    ga = qa - qb
    gb = ga + (ra - rb)
    total = float(w @ (ga * ga + ga * gb + gb * gb)) / 3.0
    return math.sqrt(max(0.0, total))


# ---------------------------------------------------------------------------
# tp: the CDF side of the same pieces


def _cdf_segments(pieces):
    """(knots, level, slope): between knots j - 1 and j the CDF is
    level[j] + slope[j] (x - knots[j - 1]), with level[0] = 0 before the
    first knot.  Atoms are steps at their positions (slope None); grid cells
    give the ends of runs of adjacent cells and the inner edges once, so
    the knots of a grid are distinct."""
    cum, start, end = pieces
    if end is None:
        return start, np.concatenate(([0.0], cum)), None
    knots = np.column_stack((start, end)).ravel()
    values = np.column_stack((np.concatenate(([0.0], cum[:-1])), cum)).ravel()
    keep = np.ones(knots.size, dtype=bool)
    keep[2::2] = start[1:] != end[:-1]
    knots, values = knots[keep], values[keep]
    slope = np.zeros(knots.size + 1)
    slope[1:-1] = np.diff(values) / np.diff(knots)
    return knots, np.concatenate(([0.0], values)), slope


def _cdf_after_knot(segments, j: np.ndarray, xs: np.ndarray):
    """CDF value and slope just right of xs, on segment j (xs lies between
    knots j - 1 and j)."""
    knots, level, slope = segments
    if slope is None:
        return level[j], 0.0
    s = slope[j]
    return level[j] + s * (xs - knots[j - 1]), s


def tp_distance_1d(envelope, m1: Measure, m2: Measure) -> DistanceResult:
    """Translation distance: integral of P(|x|) |F1(x) - F2(x)| dx, exact for
    the piecewise-linear CDFs of atoms and grid cells."""
    if m1.dim != 1 or m2.dim != 1:
        raise UnsupportedInputError("the tp distance is 1-d")
    mass1, mass2 = (m.total_mass if isinstance(m, ParticleMeasure) else m.mass
                    for m in (m1, m2))
    if abs(mass1 - mass2) > _MASS_GAP_TOL:
        raise NumericFailureError(
            "total masses differ; the CDF gap does not vanish at infinity "
            "(extend the grid or normalize the inputs)")
    a = _cdf_segments(_quantile_pieces(m1))
    b = _cdf_segments(_quantile_pieces(m2))
    xs = np.empty(a[0].size + b[0].size)
    nb = _merge(a[0], b[0], xs)
    lo = xs[:-1]
    ib = nb[1:-1]          # knots of b at or left of each interval
    ia = np.arange(1, xs.size) - ib
    fa, sa = _cdf_after_knot(a, ia, lo)
    fb, sb = _cdf_after_knot(b, ib, lo)
    ga = fa - fb
    c1 = sa - sb
    c0 = ga - c1 * lo
    env = as_envelope(envelope)
    phi0 = env.antiderivative(xs)
    phi1 = env.moment_antiderivative(xs)
    signed = c0 * np.diff(phi0) + c1 * np.diff(phi1)
    parts = np.abs(signed)
    cross = np.nonzero(ga * (ga + c1 * np.diff(xs)) < 0.0)[0]
    if cross.size:   # g changes sign at r: split the interval there
        r = lo[cross] - ga[cross] / c1[cross]
        left = (c0[cross] * (env.antiderivative(r) - phi0[cross])
                + c1[cross] * (env.moment_antiderivative(r) - phi1[cross]))
        parts[cross] = np.abs(left) + np.abs(signed[cross] - left)
    return DistanceResult(0.5 * (mass1 + mass2) * float(parts.sum()), "tp-1d")


# ---------------------------------------------------------------------------
# exact small assignment (2-d W2)


def min_cost_assignment(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimum-cost perfect matching of a square cost matrix.

    Classic O(n^3) potentials-and-augmenting-paths scheme; intended for the
    small clouds (n <= 64) used in the 2-d Wasserstein check.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise InvalidInputError("cost matrix must be square")
    INF = float("inf")
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=int)   # match[j] = row assigned to column j
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        way = np.zeros(n + 1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assign = np.empty(n, dtype=int)      # assign[row] = column
    for j in range(1, n + 1):
        assign[match[j] - 1] = j - 1
    total = float(cost[np.arange(n), assign].sum())
    return assign, total


def w2_distance(m1: Measure, m2: Measure) -> DistanceResult:
    """Quadratic Wasserstein distance; quantile formula in 1-d, exact
    assignment for equal-weight atomic clouds of at most 64 points in 2-d."""
    if m1.dim == 1:
        return DistanceResult(_w2_quantile(m1, m2), "w2-quantile")
    if not (isinstance(m1, ParticleMeasure) and isinstance(m2, ParticleMeasure)):
        raise UnsupportedInputError("2-d W2 needs atomic inputs")
    n = m1.positions.shape[0]
    if m2.positions.shape[0] != n or n > 64:
        raise UnsupportedInputError("2-d W2 assignment needs equal counts, n <= 64")
    if (np.ptp(m1.weights) > 1e-12 * m1.total_mass
            or np.ptp(m2.weights) > 1e-12 * m2.total_mass):
        raise UnsupportedInputError("2-d W2 assignment needs equal weights")
    diff = m1.positions[:, None, :] - m2.positions[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    _, total = min_cost_assignment(cost)
    return DistanceResult(math.sqrt(total / n), "w2-assignment")


def centered_distance(w: PotentialSpec, m1: Measure, m2: Measure,
                      which: str = "tp", envelope=None,
                      common_center=None) -> DistanceResult:
    """Distance after recentering.

    With ``common_center`` both measures are shifted by that one point (the
    windowed comparisons of the flow use the pre-window center); otherwise
    each measure is shifted to its own center.
    """
    if common_center is not None:
        a = recenter(m1, common_center)
        b = recenter(m2, common_center)
        at = common_center
    else:
        c1 = center(w, m1)
        c2 = center(w, m2)
        a = recenter(m1, c1)
        b = recenter(m2, c2)
        at = (c1, c2)
    if which == "tp":
        res = tp_distance_1d(envelope if envelope is not None else w, a, b)
    elif which == "w2":
        res = w2_distance(a, b)
    else:
        raise InvalidInputError("which must be 'tp' or 'w2'")
    return DistanceResult(res.value, res.method, centered_at=at)


# ---------------------------------------------------------------------------
# displacement interpolation (for the convexity checks)


def displacement_interpolate(m0: GridDensity, m1: GridDensity, s: float,
                             cells: int | None = None,
                             n_nodes: int = 16384) -> GridDensity:
    """Law of (1-s) xi_0 + s xi_1 under the monotone 1-d coupling, re-binned.

    Samples the interpolated quantile at uniform probability nodes and bins
    the resulting equal-weight atoms back onto a grid.
    """
    if not 0.0 <= s <= 1.0:
        raise InvalidInputError("interpolation parameter must lie in [0, 1]")
    ps = (np.arange(n_nodes) + 0.5) / n_nodes
    xs = ((1.0 - s) * _quantile_at(_quantile_pieces(m0), ps)
          + s * _quantile_at(_quantile_pieces(m1), ps))
    lo = min(m0.lo[0], m1.lo[0])
    hi = max(m0.hi[0], m1.hi[0])
    if cells is None:
        cells = m0.values.size
    hist, edges = np.histogram(xs, bins=cells, range=(lo, hi))
    width = edges[1] - edges[0]
    vals = hist / (n_nodes * width)
    return GridDensity(np.array([lo]), np.array([hi]), vals).normalized()
