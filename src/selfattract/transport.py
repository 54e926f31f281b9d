"""Transport distances between measures.

The 1-d translation distance integrates the envelope-weighted CDF gap
exactly: both CDFs are piecewise linear (atoms contribute jumps, grid
densities contribute ramps), so on every interval between breakpoints the
gap is linear and the integral of P(|x|)|gap| has a closed form.  The
quadratic Wasserstein distance in 1-d is the same construction on the
quantile side: both quantiles are linear between the merged probability
knots of the two measures, so the squared quantile gap integrates exactly
in one O(n) pass.  In 2-d it is an exact minimum-cost assignment for small
equal-weight clouds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError, UnsupportedInputError
from .measures import GridDensity, Measure, ParticleMeasure, center, recenter
from .potentials import DominatingPolynomial, PotentialSpec, as_envelope

_MASS_GAP_TOL = 1e-9


@dataclass(frozen=True)
class DistanceResult:
    value: float
    method: str          # tp-1d | w2-quantile | w2-assignment
    centered_at: object = None

    def __float__(self):
        return self.value


# ---------------------------------------------------------------------------
# piecewise-linear CDF machinery (1-d)


def _cdf_pieces(m: Measure):
    """(knots, cum) describing the CDF: piecewise linear between knots,
    jumps encoded by repeated knot positions (atoms)."""
    if isinstance(m, ParticleMeasure):
        if m.dim != 1:
            raise UnsupportedInputError("CDF representation is 1-d")
        order = np.argsort(m.positions, kind="stable")
        pos = m.positions[order]
        cum = np.cumsum(m.weights[order])
        knots = np.repeat(pos, 2)
        vals = np.empty_like(knots)
        vals[0::2] = cum - m.weights[order]
        vals[1::2] = cum
        return knots, vals
    if m.dim != 1:
        raise UnsupportedInputError("CDF representation is 1-d")
    edges = np.linspace(m.lo[0], m.hi[0], m.values.size + 1)
    cum = np.concatenate(([0.0], np.cumsum(m.values) * m.cell_volume))
    return edges, cum


def _cdf_eval(knots: np.ndarray, vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """CDF values at points that avoid the knots (interior of intervals)."""
    out = np.interp(xs, knots, vals, left=0.0, right=vals[-1])
    return out


def _integrate_env_abs_linear(env: DominatingPolynomial, a: float, b: float,
                              ga: float, gb: float) -> float:
    """Integral over [a, b] of P(|x|) * |g(x)| for g linear with g(a)=ga, g(b)=gb."""
    if b <= a:
        return 0.0
    pieces = [a, b]
    if a < 0.0 < b:
        pieces.append(0.0)
    slope = (gb - ga) / (b - a)
    if ga * gb < 0.0:
        pieces.append(a - ga / slope)
    pieces = sorted(pieces)
    total = 0.0
    A, k = env.scale, env.degree
    for u, v in zip(pieces[:-1], pieces[1:]):
        if v <= u:
            continue
        mid = 0.5 * (u + v)
        s = 1.0 if mid >= 0 else -1.0          # sign of x on the piece
        gm = ga + slope * (mid - a)
        sg = 1.0 if gm >= 0 else -1.0          # sign of g on the piece
        c0 = ga - slope * a                    # g(x) = c0 + c1 x on the piece
        c1 = slope
        sk = s ** k
        # closed form for the integral of A(1 + s^k x^k)(c0 + c1 x) dx
        val = (c0 * (v - u)
               + c1 * (v * v - u * u) / 2.0
               + sk * c0 * (v ** (k + 1) - u ** (k + 1)) / (k + 1)
               + sk * c1 * (v ** (k + 2) - u ** (k + 2)) / (k + 2))
        total += sg * A * val
    return total


def tp_distance_1d(envelope, m1: Measure, m2: Measure) -> DistanceResult:
    """Translation distance: integral of P(|x|) |F1(x) - F2(x)| dx.

    Exact for atomic inputs (piecewise-polynomial integration between atoms);
    exact up to the piecewise-constant density convention for grids.
    """
    env = as_envelope(envelope)
    k1, v1 = _cdf_pieces(m1)
    k2, v2 = _cdf_pieces(m2)
    if abs(v1[-1] - v2[-1]) > _MASS_GAP_TOL:
        raise NumericFailureError(
            "total masses differ; the CDF gap does not vanish at infinity "
            "(extend the grid or normalize the inputs)")
    breaks = np.unique(np.concatenate((k1, k2)))
    if breaks.size < 2:
        return DistanceResult(0.0, "tp-1d")
    a = breaks[:-1]
    b = breaks[1:]
    # two interior Gauss nodes reconstruct the (linear) gap on each interval;
    # intervals narrower than float resolution contribute below rounding
    off = (b - a) / (2.0 * math.sqrt(3.0))
    xm = 0.5 * (a + b)
    xl, xr = xm - off, xm + off
    keep = xr > xl
    a, b, xl, xr = a[keep], b[keep], xl[keep], xr[keep]
    if a.size == 0:
        return DistanceResult(0.0, "tp-1d")
    gl = _cdf_eval(k1, v1, xl) - _cdf_eval(k2, v2, xl)
    gr = _cdf_eval(k1, v1, xr) - _cdf_eval(k2, v2, xr)
    slope = (gr - gl) / (xr - xl)
    ga = gl + slope * (a - xl)
    gb = gl + slope * (b - xl)

    # vector path: intervals where neither the gap nor x changes sign
    messy = (ga * gb < 0.0) | ((a < 0.0) & (b > 0.0))
    clean = ~messy & ~((ga == 0.0) & (gb == 0.0))
    A, k = env.scale, env.degree
    total = 0.0
    if np.any(clean):
        aa, bb = a[clean], b[clean]
        c1 = slope[clean]
        c0 = ga[clean] - c1 * aa
        s = np.where(aa + bb >= 0.0, 1.0, -1.0)
        sg = np.where(ga[clean] + gb[clean] >= 0.0, 1.0, -1.0)
        val = (c0 * (bb - aa) + c1 * (bb * bb - aa * aa) / 2.0
               + s ** k * (c0 * (bb ** (k + 1) - aa ** (k + 1)) / (k + 1)
                           + c1 * (bb ** (k + 2) - aa ** (k + 2)) / (k + 2)))
        total += A * float((sg * val).sum())
    for i in np.nonzero(messy)[0]:
        total += _integrate_env_abs_linear(env, a[i], b[i], ga[i], gb[i])
    return DistanceResult(float(total), "tp-1d")


# ---------------------------------------------------------------------------
# quantile machinery (1-d W2)


def _quantile_pieces(m: Measure):
    """(cum, start, width): on the k-th probability interval
    (cum[k-1], cum[k]] (cum[-1] = 1, and 0 before the first) the quantile of
    m runs linearly from start[k] to start[k] + width[k].  Atoms, in stable
    position order, are flat pieces (width None); grid cells are ramps, and
    cells whose mass does not move the normalized CDF are dropped."""
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
    return cum[keep], edges[:-1][keep], np.diff(edges)[keep]


def _quantile_on_piece(pieces, k: np.ndarray, ps: np.ndarray, dp=0.0):
    """Quantile at probabilities ps inside pieces k, and its rise over
    [ps, ps + dp] (dp within the same piece)."""
    cum, start, width = pieces
    if width is None:
        return start[k], 0.0
    left = np.concatenate(([0.0], cum[:-1]))[k]
    span = cum[k] - left
    width = width[k]
    return start[k] + width * ((ps - left) / span), width * (dp / span)


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
    ka, kb = a[0][:-1], b[0][:-1]
    from_b = np.zeros(ka.size + kb.size, dtype=bool)
    from_b[np.arange(kb.size) + np.searchsorted(ka, kb, side="right")] = True
    ps = np.empty(from_b.size + 2)   # 0, the merged knots, 1
    ps[0], ps[-1] = 0.0, 1.0
    inner = ps[1:-1]
    inner[from_b] = kb
    inner[~from_b] = ka
    lo = ps[:-1]
    w = np.diff(ps)
    # the piece of each measure on every merged interval
    ib = np.zeros(lo.size, dtype=np.intp)
    np.cumsum(from_b, out=ib[1:])
    ia = np.arange(lo.size) - ib
    qa, ra = _quantile_on_piece(a, ia, lo, w)
    qb, rb = _quantile_on_piece(b, ib, lo, w)
    ga = qa - qb
    gb = ga + (ra - rb)
    total = float(w @ (ga * ga + ga * gb + gb * gb)) / 3.0
    return math.sqrt(max(0.0, total))


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
    d1 = m1.dim if isinstance(m1, ParticleMeasure) else m1.dim
    if d1 == 1:
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
