"""Transport distances between measures on the line.

`tp_distance_1d` and `w2_distance` return floats; a centered distance is
either one of them on `measures.centered` inputs.

Both distances read one piecewise-linear description of a measure,
`_quantile_pieces`: an atom is a flat quantile piece and a CDF step at its
position, a grid cell a ramp of both from its start to its end.  Each
merges the knots of its two measures by counting and integrates exactly
over the merged intervals in one vectorised pass.  For tp, the integral of
P(|x|) |F1 - F2| dx, the CDF gap is linear, g = c0 + c1 x, between merged
x-knots; an interval is split only where g changes sign, and P(|x|) g
integrates to c0 dPhi0 + c1 dPhi1 with Phi0 the odd primitive of P(|x|) and
Phi1 the even primitive of x P(|x|), both valid across x = 0.  Two grids on
one box, as every flow step and fixed-point iteration compares, skip the
knots: the gap is the difference of the two normalized CDFs at the box's
edges, linear on each cell, and each density takes its CDF once and keeps
it (`GridDensity.cdf`).  Phi0 and Phi1 at the edges and their differences
are the primitives of the box's memoized geometry (`measures.box_geometry`,
per envelope, box ends and cell count).  So on a box that stands still, a
step's tp takes one new cumulative sum, the mixture's, and evaluates no
primitive.  Every other pair, two grids on different boxes included, takes
the merged knots; both cases (`_lattice_gap`, `_merged_gap`) end in the
same integration tail, `_abs_gap_integral`.
For W2 the quantile gap is linear between merged probability knots and its
square integrates to w (ga^2 + ga gb + gb^2) / 3.  `QuantileTarget` does the
same against one fixed measure for many sorted atom measures (the prefix
occupations of a path), reading the fixed measure's pieces once and each
atom measure in chunks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericFailureError
from .measures import GridDensity, Measure, ParticleMeasure, envelope_primitives
from .potentials import as_envelope

_MASS_GAP_TOL = 1e-9


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
    edges = np.linspace(m.lo, m.hi, m.values.size + 1)
    cum = m.cdf
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


def w2_distance(m1: Measure, m2: Measure) -> float:
    """Quadratic Wasserstein distance between two measures by the quantile
    formula: the root of the integral over p in [0, 1] of (q1 - q2)^2.  Both
    quantiles are linear on
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


class QuantileTarget:
    """W2 from many sorted atom measures to one fixed 1-d measure.

    The fixed measure's pieces are read once.  Against atoms x_i in
    position order with normalized cumulative weights u_i, the quantile gap
    is linear on the intervals between the merged knots, and each such
    interval ends either at an atom's u_i or at a knot c_j of the fixed
    measure.  So no merged knot list is built: one search of the (few)
    knots c_j into u gives, by counting, the piece of every atom's end and
    the atom of every knot.  An interval of width w on which the fixed
    quantile runs linearly with rate r adds
    int (x - q)^2 = w (x - q_mid)^2 + r^2 w^3 / 12, so the total is a sum of
    non-negative terms with no cancellation between atoms (1-d quantile
    formula, Villani 2003, Thm 2.18).  The atoms therefore come in chunks
    and are summed one chunk at a time: a chunk takes the knots below its
    last u_i that earlier chunks left, and its first interval starts at the
    last u_i of the chunk before.
    """

    def __init__(self, m: Measure):
        self.cum, self.start, end = _quantile_pieces(m)
        self.left = np.concatenate(([0.0], self.cum[:-1]))
        self.rate = (np.zeros_like(self.start) if end is None
                     else (end - self.start) / (self.cum - self.left))

    def _gap_integral(self, k, prev, hi, x) -> float:
        """Sum over the intervals (max(prev, left[k]), hi] inside piece k of
        the integral of (x - q)^2."""
        left = self.left[k]
        lo = np.maximum(prev, left)
        w = hi - lo
        t = lo - left
        t += 0.5 * w
        r = self.rate[k]
        gap = x - (self.start[k] + r * t)
        rw = r * w
        return (float(np.einsum("i,i,i->", w, gap, gap))
                + float(np.einsum("i,i,i->", rw, rw, w)) / 12.0)

    def w2(self, chunks) -> float:
        """W2 to atoms in position order, given as consecutive
        (positions, cum) chunks, cum their cumulative weights normalized to
        end at 1.  The last cum and the first knot not yet passed carry
        from one chunk to the next."""
        inner = self.cum[:-1]
        total, u, j0 = 0.0, 0.0, 0
        for positions, cum in chunks:
            j1 = int(np.searchsorted(inner, cum[-1], side="left"))   # knots c < cum[-1]
            own = np.searchsorted(cum, inner[j0:j1], side="right")  # u[own - 1] <= c < u[own]
            runs = np.diff(own, prepend=0, append=cum.size)
            piece = np.repeat(np.arange(j0, j1 + 1), runs)   # c[piece - 1] < u <= c[piece]
            prev = np.concatenate(([u], cum[:-1]))
            total += (self._gap_integral(piece, prev, cum, positions)
                      + self._gap_integral(np.arange(j0, j1), prev[own], inner[j0:j1],
                                           positions[own]))
            u, j0 = cum[-1], j1
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


def _lattice_gap(m1: Measure, m2: Measure):
    """The CDF gap of two grids on one box, as every flow step and
    fixed-point iteration compares: the difference of their normalized CDFs
    (`GridDensity.cdf`) at the box's cells + 1 edges.  None for any other
    pair."""
    if not (isinstance(m1, GridDensity) and isinstance(m2, GridDensity)
            and (m1.lo, m1.hi, m1.values.size) == (m2.lo, m2.hi, m2.values.size)):
        return None
    return np.concatenate(([0.0], m1.cdf - m2.cdf))


def _merged_gap(m1: Measure, m2: Measure):
    """(knots, ga, c1) as in `_abs_gap_integral` for any two 1-d measures:
    the knots of both CDFs merged by counting, and each CDF's one-sided
    value and slope on every merged interval."""
    a, b = (_cdf_segments(_quantile_pieces(m)) for m in (m1, m2))
    xs = np.empty(a[0].size + b[0].size)
    nb = _merge(a[0], b[0], xs)
    ib = nb[1:-1]          # knots of b at or left of each interval
    ia = np.arange(1, xs.size) - ib
    fa, sa = _cdf_after_knot(a, ia, xs[:-1])
    fb, sb = _cdf_after_knot(b, ib, xs[:-1])
    return xs, fa - fb, sa - sb


def _abs_gap_integral(env, prim, ga: np.ndarray, c1: np.ndarray) -> float:
    """Integral of P(|x|) |g| over [xs[0], xs[-1]] when g = ga + c1 (x - lo)
    on each interval [lo, hi] between the sorted knots xs, given with
    their `envelope_primitives`.  An interval is split only where g changes
    sign."""
    xs, phi0, phi1, dphi0, dphi1, dx = prim
    lo = xs[:-1]
    c0 = ga - c1 * lo
    signed = c0 * dphi0 + c1 * dphi1
    parts = np.abs(signed)
    cross = np.nonzero(ga * (ga + c1 * dx) < 0.0)[0]
    if cross.size:   # g changes sign at r: split the interval there
        r = lo[cross] - ga[cross] / c1[cross]
        left = (c0[cross] * (env.antiderivative(r) - phi0[cross])
                + c1[cross] * (env.moment_antiderivative(r) - phi1[cross]))
        parts[cross] = np.abs(left) + np.abs(signed[cross] - left)
    return float(parts.sum())


def tp_distance_1d(envelope, m1: Measure, m2: Measure) -> float:
    """Translation distance: integral of P(|x|) |F1(x) - F2(x)| dx, exact for
    the piecewise-linear CDFs of atoms and grid cells."""
    mass1, mass2 = (m.total_mass if isinstance(m, ParticleMeasure) else m.mass
                    for m in (m1, m2))
    if abs(mass1 - mass2) > _MASS_GAP_TOL:
        raise NumericFailureError(
            "total masses differ; the CDF gap does not vanish at infinity "
            "(extend the grid or normalize the inputs)")
    env = as_envelope(envelope)
    gap = _lattice_gap(m1, m2)
    if gap is None:
        xs, ga, c1 = _merged_gap(m1, m2)
        prim = envelope_primitives(env, xs)
    else:
        prim = m1.geometry(env).primitives
        ga, c1 = gap[:-1], np.diff(gap) / prim[-1]   # prim[-1]: the cell widths
    total = _abs_gap_integral(env, prim, ga, c1)
    return 0.5 * (mass1 + mass2) * total
