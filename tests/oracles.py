"""Reference computations the package is checked against.

The full-history drift is the definition the running-moment simulator
reproduces: the gradient of W summed over every past atom of the path, on
the same noise and start atom as `simulate`.  `loop_moment_columns` is
the column stepper's loop as first written, the bitwise reference for the
stepper's per-call rewrites; `loop_center_tracks` runs the simulator with
it to give every step's center as the stepper once stored it.  The tail
certificate and the displacement interpolant are the 1-d measurements that
tail and convexity properties of the Gibbs map, the flow and the free
energy are stated in.
"""

from unittest import mock

import numpy as np

from selfattract import sde
from selfattract.errors import NumericFailureError
from selfattract.measures import GridDensity, center
from selfattract.potentials import horner
from selfattract.powersums import block_centers, reanchor
from selfattract.sde import (_CENTER_BLOCK, _CENTER_EVERY, _REANCHOR_RADIUS, _check_finite,
                             _increments, _v_gradient)


def full_history_path(w, x0, cfg, v=None, replica=0):
    """Brute-force drift summed over every past atom, on the noise of
    ``simulate(..., replica=replica)``: the exactness oracle for the
    running-moment steppers.  With t_start > 0 the history starts with the
    start atom, of mass t_start at x0; from t = 0 there is none, step 0
    drifts against the start atom alone and step i > 0 against the path's
    atoms 1..i.  Returns
    positions and centers (n+1), the centers placed where the moment
    steppers place them and interpolated between."""
    n = cfg.n_steps
    dt = cfg.dt
    increments = _increments(cfg, n, replica)
    if cfg.t_start > 0:   # the start atom
        base_pos, base_w = np.array([float(x0)]), np.array([cfg.t_start])
    else:
        base_pos, base_w = np.empty(0), np.empty(0)
    positions = np.empty(n + 1)
    positions[0] = x0
    g = np.polynomial.polynomial.polytrim(
        np.polynomial.polynomial.polyder(w.poly1d_coefficients()))
    vg = _v_gradient(v)
    x = float(x0)
    mass = float(base_w.sum())
    for i in range(n):
        if mass == 0:   # step 0 from t = 0: the start atom, of unit mass
            d = float(np.polynomial.polynomial.polyval(x - x0, g))
        else:
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
    # linear drift, else every _CENTER_EVERY steps from the stepper's first
    # row (row 1 from t = 0, whose row 0 is the start atom's center); no
    # attraction keeps the start point
    atoms = np.concatenate((base_pos, positions[1:]))
    weights = np.concatenate((base_w, np.full(n, dt)))
    first = 0 if base_w.size else 1
    knots = range(first, n + 1, 1 if g.size <= 2 else _CENTER_EVERY)
    if first:
        knots = [0, *knots]
    centers = np.full(n + 1, np.nan)
    c = float(x0)
    for i in knots:
        if g.any():
            c = (history_center(g, np.array([x0]), np.ones(1), c) if i == 0 and first
                 else history_center(g, atoms[:base_w.size + i], weights[:base_w.size + i], c))
        centers[i] = c
    _interpolate_center_gaps(centers)
    return positions, centers


def loop_moment_columns(T, v, x0, sums, positions, centers, dt, every, origin, y0=0.0):
    """The column stepper as first written, one fresh view and keyword
    ``out`` per numpy call: the bitwise reference for
    `sde._run_moment_columns`, which must write the same positions and
    centers to the last bit on the same arguments (positions (R, n+1)
    holding the increments in columns 1..n, overwritten in place, and the
    pre-history's power sums (count, R) or (count, 1))."""
    count = T.shape[0]
    R, n = positions.shape[0], positions.shape[1] - 1
    mass = float(sums[0, 0])
    S = np.broadcast_to(sums, (count, R)).copy()
    a = np.full(R, float(x0))
    vg = _v_gradient(v)
    if count <= 2:
        every = 1
    knot_S = np.empty((_CENTER_BLOCK, count, R))
    knot_mass = np.empty((_CENTER_BLOCK, 1))
    knot_a = np.empty((_CENTER_BLOCK, R))
    k = 0                              # knots in the buffer
    checked = 0                        # positions before this index are finite
    y = np.full(R, y0, dtype=float)   # one start or one per replica
    P = np.zeros((max(count, 2), R))   # a zero drift (count 1) never reads row 1
    P[0] = dt
    powers = P[:count]
    shift = None
    segments = [(0, a)]
    for i in range(n + 1):
        if i:
            y -= d
            y += positions[:, i]
        if shift is not None:   # the re-anchor the last knot asked for
            S[...] = reanchor(S, shift)
            y -= shift
            a, shift = a + shift, None
            segments.append((i, a))
        positions[:, i] = y
        np.multiply(y, dt, out=P[1])
        for j in range(2, count):
            np.multiply(P[j - 1], y, out=P[j])
        if i:
            S += powers
            mass += dt
        if i % every == 0:
            knot_S[k], knot_mass[k], knot_a[k] = S, mass, a
            k += 1
            if count > 1:
                mean = S[1] / S[0]
                far = np.abs(mean) > _REANCHOR_RADIUS
                if far.any():
                    shift = mean * far
        if k == _CENTER_BLOCK or i == n:
            _check_finite(positions[:, checked:i + 1], checked, origin, dt)
            last = i - i % every   # the block's last knot; it holds k of them
            first = last - (k - 1) * every
            centers[:, first:last + 1:every] = (block_centers(
                T, np.moveaxis(knot_S[:k], 1, 0), knot_mass[:k]) + knot_a[:k]).T
            lo = max(first - every, 0)   # the previous block's last knot
            slope = (centers[:, lo + every:last + 1:every] - centers[:, lo:last:every]) / every
            for j in range(1, every):
                centers[:, lo + j:last:every] = slope * j + centers[:, lo:last:every]
            centers[:, last + 1:i + 1] = centers[:, last, None]
            k, checked = 0, i + 1
        if i < n:
            d = np.einsum("ij,jr,ir->r", T, S, powers) / mass
            if vg is not None:
                d += horner(vg, y + a) * dt
    # back from y to x, one anchor segment (start index, anchors) at a time
    segments.append((n + 1, None))
    for (start, a_seg), (stop, _) in zip(segments, segments[1:]):
        positions[:, start:stop] += a_seg[:, None]


def loop_center_tracks(*args, **kwargs):
    """(R, n+1) centers of ``sde.simulate_ensemble(*args, **kwargs)`` with
    its column stepper replaced by `loop_moment_columns`, which writes the
    center at every step: the knots, their linear interpolation between
    them and the last knot's value after it.  Step 0 of a run from t = 0
    (not stepped) keeps the start atom's center."""
    tracks = []

    def stepper(T, v, x0, sums, positions, knots, dt, every, origin, y0=0.0):
        full = np.empty(positions.shape)
        loop_moment_columns(T, v, x0, sums, positions, full, dt, every, origin, y0)
        knots[...] = full[:, ::every]
        tracks.append(full)

    with mock.patch.object(sde, "_run_moment_columns", stepper):
        records = sde.simulate_ensemble(*args, **kwargs)
    (full,) = tracks
    first = records[0].first
    return np.hstack([[rec.center_knots[:first] for rec in records], full])


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
    `powersums.block_centers`)."""
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
    p = m.values * m.spacing
    keep = p > 0
    dist = np.abs(m.centers()[keep] - center(w, m))
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
    edges = np.linspace(m0.lo, m0.hi, m0.values.size + 1)

    def quantile(m):
        cum = np.concatenate(([0.0], np.cumsum(m.values)))
        return np.interp(ps, cum / cum[-1], edges)

    xs = (1.0 - s) * quantile(m0) + s * quantile(m1)
    hist, _ = np.histogram(xs, bins=edges)
    return GridDensity(m0.lo, m0.hi, hist / (n_nodes * (edges[1] - edges[0]))).normalized()
