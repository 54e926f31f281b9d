"""Reference computations the package is checked against.

The full-history drift is the definition the running-moment simulator
reproduces: the gradient of W summed over every past atom of the path, on
the same noise and pre-history as `simulate`.  The tail certificate and the
displacement interpolant are the 1-d measurements that tail and convexity
properties of the Gibbs map, the flow and the free energy are stated in.
"""

import numpy as np

from selfattract.errors import NumericFailureError
from selfattract.measures import GridDensity, center
from selfattract.sde import _CENTER_EVERY, _increments, _prehistory, _v_gradient


def full_history_path(w, x0, cfg, v=None, replica=0, initial_occupation=None):
    """Brute-force drift summed over every past atom, on the noise of
    ``simulate(..., replica=replica)`` with t_start > 0: the exactness
    oracle for the running-moment steppers.  Returns positions and centers
    (n+1), the centers placed where the moment steppers place them and
    interpolated between."""
    n = cfg.n_steps
    dt = cfg.dt
    increments = _increments(cfg, n, replica)
    base_pos, base_w = _prehistory(x0, cfg.t_start, initial_occupation)
    positions = np.empty(n + 1)
    positions[0] = x0
    g = np.polynomial.polynomial.polytrim(
        np.polynomial.polynomial.polyder(w.poly1d_coefficients()))
    vg = _v_gradient(v)
    x = float(x0)
    mass = float(base_w.sum())
    for i in range(n):
        d = float(base_w @ np.polynomial.polynomial.polyval(x - base_pos, g))
        if i > 0:
            d += dt * float(np.polynomial.polynomial.polyval(
                x - positions[1:i + 1], g).sum())
        d = d / mass
        if vg is not None:
            d += float(np.polynomial.polynomial.polyval(x, vg))
        x += -d * dt + increments[i]
        mass += dt
        positions[i + 1] = x
    # center knots where the moment steppers place them: every step for a
    # linear drift; no attraction keeps the start point
    atoms = np.concatenate((base_pos, positions[1:]))
    weights = np.concatenate((base_w, np.full(n, dt)))
    centers = np.full(n + 1, np.nan)
    c = float(x0)
    for i in range(0, n + 1, 1 if g.size <= 2 else _CENTER_EVERY):
        if g.any():
            c = history_center(g, atoms[:base_w.size + i], weights[:base_w.size + i], c)
        centers[i] = c
    _interpolate_center_gaps(centers)
    return positions, centers


def _interpolate_center_gaps(centers):
    """Fill the NaN entries of a center track by linear interpolation
    between its knots, holding the last knot's value after it."""
    bad = np.isnan(centers)
    if bad.any():
        idx = np.arange(centers.size)
        centers[bad] = np.interp(idx[bad], idx[~bad], centers[~bad])


def history_drift(g, pos, wts, c):
    """sum_k w_k W'(c - x_k) / mass, summed over every atom; g holds W'."""
    return float(wts @ np.polynomial.polynomial.polyval(c - pos, g)) / float(wts.sum())


def history_center(g, pos, wts, c, tol=1e-12, max_iter=60):
    """Root of `history_drift` in c by Newton from c (the stopping rule of
    `sde._block_centers`)."""
    h = np.polynomial.polynomial.polyder(g)
    for _ in range(max_iter):
        val = history_drift(g, pos, wts, c)
        if abs(val) <= tol:
            return c
        c -= val / history_drift(h, pos, wts, c)
    raise NumericFailureError("center Newton on the full history did not converge")


def tail_certificate(w, m, alpha, n_radii=128):
    """Smallest C with m(|x - c| > r) <= C exp(-alpha r) at n_radii radii
    from 0 to the farthest cell with mass, c the center of the 1-d grid
    density m under the convex W."""
    p = m.values * m.cell_volume
    keep = p > 0
    dist = np.abs(m.axis_centers(0)[keep] - center(w, m))
    p = p[keep] / p[keep].sum()
    order = np.argsort(dist)
    tail = np.concatenate((np.cumsum(p[order][::-1])[::-1], [0.0]))
    radii = np.linspace(0.0, dist.max(), n_radii)
    exceed = tail[np.searchsorted(dist[order], radii, side="right")]
    return float(np.max(exceed * np.exp(alpha * radii)))


def displacement_interpolate(m0, m1, s, n_nodes=16384):
    """Law of (1 - s) q0(U) + s q1(U), U uniform and q0, q1 the quantiles
    of two 1-d grid densities on one box (the monotone coupling), sampled at
    n_nodes equal-probability nodes and binned back onto the box."""
    ps = (np.arange(n_nodes) + 0.5) / n_nodes
    edges = np.linspace(m0.lo[0], m0.hi[0], m0.values.size + 1)

    def quantile(m):
        cum = np.concatenate(([0.0], np.cumsum(m.values)))
        return np.interp(ps, cum / cum[-1], edges)

    xs = (1.0 - s) * quantile(m0) + s * quantile(m1)
    hist, _ = np.histogram(xs, bins=edges)
    return GridDensity(m0.lo, m0.hi, hist / (n_nodes * (edges[1] - edges[0]))).normalized()
