"""Euler-Maruyama simulation of the self-attracting diffusion.

The drift at time t is the gradient of the potential convolved with the
normalized occupation measure of the path so far.  For polynomial
interactions that convolution is an exact function of the running power
sums of the path, which is the identity the whole simulator rests on:
the running-moment drift and the brute-force drift summed over the full
history agree to rounding on the same noise path.  The brute-force sum is
not a mode here: it lives with the tests as their exactness oracle
(`tests/oracles.py`).

Running sums are taken about an anchor (`powersums`): paths step in
y = x - a, the anchor starts at x0 and moves onto the running mean, with an
exact binomial re-anchor of the sums, whenever the mean leaves the unit
radius around it.  The sums then stay of the size of the path's spread
wherever the path sits, so a path started at x0 + s is the x0 path shifted
by s.

Every self-driven path is a row of a replica ensemble: `simulate` is
`simulate_ensemble` of one replica, so ``simulate(..., replica=r)`` is row
r of every ensemble, and a caller may simulate its replicas one at a time
(`diagnose` does, one per task) or in blocks (`simulate` does, one per
worker).  The ensemble
keeps the sums of all R replicas as one (count, R) array that starts
from the start atom's sums, adds the dt-weighted powers dt y^j of the
new positions to it each step, and takes its drift from one contraction
per step; the occupation mass is the same for every replica.
Each replica's increments are drawn into its row of the positions array,
which the stepper overwrites step by step.  The center of
W' * mu feeds nothing back into the drift, so the stepper only copies the
sums at each center knot and solves a block of knots at once with the
package's one center solver (`powersums.block_centers`), by Newton from
each column's running mean; a path holds its positions and these
center knots, and its record rebuilds the centers between knots by linear
interpolation when they are read.  Nothing else of the path's length is
kept: its time grid and occupation weights follow from the `SimConfig`.
For quadratic W without V (drift t00 + t11 (x - mean)) the Euler scheme
reduces to a scalar linear recursion in y = x - mean with the mean
carried by the occupation mass; it is summed in closed form with
blockwise scaled cumulative sums instead of stepped, which matches the
stepped scheme to rounding, in one pass over its blocks: each block forms
its occupation masses, sums its recursion and its means, and writes its
positions and centers.

The occupation measure of a path is its own atoms.  A run from
t_start > 0 starts it with one atom of mass t_start at x0, the start atom,
which stands for the path's pre-history; a run from t = 0 has none: the
Euler scheme is explicit, so its step 0 drifts against the start atom
alone, W'(0) + V'(x0), and from t = dt on each row's occupation is its own
positions from step 1 on, each of mass dt, with its sums still anchored at
x0.

Also here: the Ornstein-Uhlenbeck domination coupling; the contraction
(Picard) bootstrap, which checks on a short interval the fixed-point
argument by which the continuous process from t = 0 exists (each round
steps one float loop over the drift of the previous iterate); and the
non-symmetric counterexample pair whose center drifts like log t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import rng
from .errors import InvalidInputError, NumericFailureError
from .measures import ParticleMeasure, _read_only
from .potentials import PotentialSpec, derivative, horner, polynomial_derivative
from .powersums import (PowerSums, anchor, block_centers, convolution_matrix, power_sums,
                        reanchor)

try:   # the C einsum that np.einsum calls, without its per-call Python layers
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:   # numpy 1.x keeps it elsewhere; the public one computes the same
    _c_einsum = np.einsum

_SQRT2 = math.sqrt(2.0)
_REANCHOR_RADIUS = 1.0   # the anchor follows the mean once it is this far
_CENTER_EVERY = 10       # steps between Newton centers of a nonlinear drift
_CENTER_BLOCK = 64       # center knots the column stepper solves at once
_BOOTSTRAP_TOL = 1e-10   # sup distance between Picard rounds that ends the bootstrap
_BOOTSTRAP_MAX_ROUNDS = 80   # Picard rounds before the bootstrap fails
_BOOTSTRAP_MAX_RATIO = 0.9   # a Picard round shrinking the sup distance less fails


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float
    t_start: float = 1.0
    seed: int = 0
    noise_scale: float = _SQRT2

    def __post_init__(self):
        if self.dt <= 0:
            raise InvalidInputError("dt must be positive")
        if self.t_end <= self.t_start or self.t_start < 0:
            raise InvalidInputError("need t_end > t_start >= 0")
        if self.n_steps < 1:
            raise InvalidInputError("t_end - t_start must hold at least one step dt")
        if self.noise_scale < 0:
            raise InvalidInputError("noise scale must be non-negative")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))

    @property
    def t_last(self) -> float:
        """The time of a path's last step, t_start + dt n_steps: t_end
        rounded to the step grid, where the path ends."""
        return self.t_start + self.dt * self.n_steps


def _check_dt(w: PotentialSpec, cfg: SimConfig):
    cap = 0.01 * min(1.0, 1.0 / w.convexity_constant) if w.convexity_constant > 0 else 0.01
    if cfg.dt > cap + 1e-15:
        raise InvalidInputError(f"dt={cfg.dt} exceeds the stability cap {cap}")


@dataclass
class TrajectoryRecord:
    """One path with its occupation bookkeeping: its positions and center
    knots, and nothing else of the path's length.

    The time grid and the occupation weights follow from the `SimConfig`:
    step k is at t_start + dt k, the start atom has mass t_start and every
    step after it mass dt.  `times` builds the grid, read-only, when it is
    read; `index_at` reads it by arithmetic.

    The occupation up to step i is the record's own atoms
    ``positions[first:i + 1]``: the start atom, of mass t_start at x0
    (step 0), then one atom of mass dt per step.  A run from t = 0 has no
    start atom, so its occupation begins at step 1 (`first`).

    The centers are held at their knots only: ``center_knots[k]`` is the
    center at step k for k < `first` (step 0 of a run from t = 0, the
    start atom's), then at steps first + m ``center_every``.  The steps
    between two knots take their linear interpolation and the steps after
    the last knot its value, which `centers` rebuilds.
    """

    config: SimConfig
    replica: int
    positions: np.ndarray
    center_knots: np.ndarray
    center_every: int = 1

    @property
    def first(self) -> int:
        """The step of the occupation's first atom: 0, the start atom, or 1
        for a run from t = 0, which has none."""
        return int(self.config.t_start == 0)

    @property
    def times(self) -> np.ndarray:
        """The time of every step, t_start + dt k, a new read-only array."""
        cfg = self.config
        return _read_only(cfg.t_start + cfg.dt * np.arange(cfg.n_steps + 1))

    def index_at(self, t: float) -> int:
        """Largest step index with times[index] <= t + 1e-12, -1 before the
        first: a guess from the grid's spacing, moved onto the grid's own
        float times t_start + dt k, so it is `times`' searchsorted."""
        cfg, u = self.config, t + 1e-12
        k = math.floor(min(max((u - cfg.t_start) / cfg.dt, -1.0), cfg.n_steps))
        while k < cfg.n_steps and cfg.t_start + cfg.dt * (k + 1) <= u:
            k += 1
        while k >= 0 and cfg.t_start + cfg.dt * k > u:
            k -= 1
        return k

    def occupation(self, upto: float | None = None) -> ParticleMeasure:
        """Normalized occupation measure of the path up to time ``upto``:
        the record's atoms from `first` on, of mass t_start for the start
        atom, then dt."""
        i = self.config.n_steps if upto is None else self.index_at(upto)
        w = np.full(i + 1, self.config.dt)
        w[:1] = self.config.t_start
        w = w[self.first:]
        return ParticleMeasure(self.positions[self.first:i + 1], w / w.sum())

    def power_sums_at(self, times, count: int) -> list[PowerSums]:
        """Power sums S_j, j < count, of the normalized occupation up to each
        of the increasing ``times``, all about one anchor: the midpoint of the
        path up to the last time.

        The path atoms between consecutive times are summed as one segment,
        one at a time (one `np.add.reduceat` per power, an empty segment
        skipped), and the segments are cumulated on top of the start atom's
        sums, so no prefix occupation is built and a pass holds one
        segment's powers.
        """
        idx = np.array([self.index_at(t) for t in times])
        a = anchor(self.positions[:idx[-1] + 1])
        start = slice(0, 1 - self.first)      # the start atom; none from t = 0
        bounds = np.concatenate(([0], idx))
        seg = np.zeros((idx.size, count))
        seg[:, 0] = np.diff(bounds)
        for row, lo, hi in zip(seg, bounds[:-1], bounds[1:]):
            if hi > lo:   # reduceat, a sequential sum, reads no empty segment
                y = self.positions[1 + lo:1 + hi] - a
                row[1:] = [np.add.reduceat(acc, [0])[0]
                           for acc in accumulate([y] * (count - 1), np.multiply)]
        sums = (power_sums(self.positions[start], [self.config.t_start][start], a, count)
                + self.config.dt * np.cumsum(seg, axis=0))
        if not np.all(sums[:, 0] > 0):
            raise InvalidInputError("the occupation is empty at the first time")
        return [PowerSums(a, row) for row in sums / sums[:, :1]]

    def window_occupation(self, t0: float, t1: float) -> ParticleMeasure:
        """Normalized occupation measure over (t0, t1]."""
        i0 = self.index_at(t0)
        i1 = self.index_at(t1)
        if i1 <= i0:
            raise InvalidInputError("window contains no steps")
        pos = self.positions[i0 + 1:i1 + 1]
        return ParticleMeasure(pos, np.full(pos.shape[0], 1.0 / pos.shape[0]))

    def center_at(self, t: float) -> float:
        return float(self.centers(self.index_at(t)))

    def centers(self, steps):
        """The centers at ``steps``, a step index or a slice of steps, with
        the stepper's arithmetic: j steps past knot k the center is
        slope j + c[k], slope = (c[k+1] - c[k]) / every, so the values
        are the ones it would have interpolated, bit for bit."""
        c, every, first = self.center_knots, self.center_every, self.first
        if every == 1:
            return c[steps]
        i = range(self.positions.size)[steps]
        i = np.arange(i.start, i.stop, i.step) if isinstance(i, range) else np.asarray(i)
        past = np.maximum(i - first, 0)
        k, j = np.minimum(i, first) + past // every, past % every
        slope = (c[np.minimum(k + 1, c.size - 1)] - c[k]) / every
        return np.where((j == 0) | (k == c.size - 1), c[k], slope * j + c[k])

    @property
    def center_track(self) -> np.ndarray:
        """The center at every step: the knots themselves when every step
        is a knot, else rebuilt at full length."""
        return self.center_knots if self.center_every == 1 else self.centers(slice(None))


# ---------------------------------------------------------------------------
# running-moment drift for 1-d polynomial potentials
#
# grad(W * mu)(a + y) = sum_i b_i y^i with b = T S / S_0, T the order-1
# convolution matrix of `powersums` and S the weighted power sums of mu
# about the anchor a.  `potentials.horner` evaluates it, for one drift or
# for columns side by side, and `powersums.block_centers` finds its roots,
# the centers, as `measures.center` does for a measure.


def _locate(origin, step, row, dt):
    """The path step of ``row`` at ``step`` of a column run, and words naming
    that step, its t and the row's replica id, from ``origin`` = (the rows'
    replica ids, the path step of column 0, the path's time at step 0)."""
    ids, step0, t0 = origin
    step += step0
    return step, f"step {step}, t = {t0 + dt * step!r}, replica {ids[row]}"


def _check_finite(positions, first, origin, dt):
    """NumericFailureError when a block of paths, columns ``first``.. of
    (R, n+1) positions, holds a non-finite entry.  The message names the
    earliest one's replica, step and t (`_locate`), and the error carries
    the step."""
    # min and max propagate NaN, so two reductions check every entry
    # without a mask the size of the positions
    if (np.isfinite(positions.min(initial=0.0))
            and np.isfinite(positions.max(initial=0.0))):
        return
    bad = ~np.isfinite(positions)
    col = int(np.argmax(bad.any(axis=0)))
    step, where = _locate(origin, first + col, int(np.argmax(bad[:, col])), dt)
    raise NumericFailureError(f"path lost finiteness (explosion) at {where}; "
                              "check the step size against the potential", step=step)


def _increments(cfg: SimConfig, n: int, replica: int, out=None) -> np.ndarray:
    """The first n noise increments noise_scale sqrt(dt) xi of a replica's
    stream, drawn into ``out`` when given and scaled in place.  The draw for
    n is a prefix of the draw for any longer n."""
    draws = rng.normal_increments(cfg.seed, n, replica, out=out)
    draws *= cfg.noise_scale * math.sqrt(cfg.dt)
    return draws


def _v_gradient(v: PotentialSpec | None):
    """Coefficients of V' as a list of floats, or None without V."""
    return None if v is None else derivative(v.poly1d_coefficients()).tolist()


def _step_driven(B, a, x, noise, dts):
    """Euler steps of one path under a drift it does not generate: step k
    moves x by -b_k(x - a) dts[k] + noise[k], with b_k = B[:, k] the drift
    coefficients about the anchor a.  Returns the n + 1 positions."""
    out = np.empty(len(noise) + 1)
    out[0] = x
    for k, (b, xi, h) in enumerate(zip(B.T.tolist(), noise.tolist(), dts.tolist()), 1):
        x = x - horner(b, x - a) * h + xi
        out[k] = x
    return out


def _run_moments(T, v, x0, sums, positions, centers, dt, origin, every, y0=0.0):
    """The running-moment Euler scheme for R replicas started at x0 + y0,
    their sums anchored at x0: ``sums`` (count, R), or (count, 1) for a
    pre-history every replica shares, holds the pre-history's power sums
    about x0, whose mass is the same for every replica.  ``positions``
    (R, n+1) holds each replica's n increments in columns 1..n; the scheme
    overwrites it with the positions in x and writes the center knots,
    steps 0, every, 2 every, .., into ``centers`` (R, n // every + 1).
    Quadratic W without V takes the closed form, which needs every = 1,
    everything else the column stepper.  A non-finite path
    raises `NumericFailureError` naming the replica, step and t that
    ``origin`` (`_check_finite`) gives; the overflows and invalid values
    of the steps that lead to it warn nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        if T.shape[0] == 2 and v is None:
            _run_quadratic_closed_form(T, x0, sums, positions, centers, dt, y0)
            _check_finite(positions, 0, origin, dt)
        else:
            _run_moment_columns(T, v, x0, sums, positions, centers, dt, every, origin, y0)


def _run_moment_columns(T, v, x0, sums, positions, centers, dt, every, origin, y0=0.0):
    """The Euler scheme for R replicas side by side.  ``positions`` (R, n+1)
    holds each replica's n increments in columns 1..n: step i reads column i
    and overwrites it with the new position, so no noise array is kept.
    ``sums`` holds the pre-history's power sums about x0 (`_run_moments`).

    The sums about each column's anchor are one (count, R) array S.  P holds
    the dt-weighted powers dt y^j of the current positions, the products one
    path adds to its sums, so a step adds P to S and the drift times dt is
    sum_ij T_ij S_j P_i / mass, one einsum contraction (the mass is the
    same for every replica).  einsum adds each column's terms in order
    without BLAS: BLAS takes another kernel for one column than for several,
    and a replica's path would then depend on the ensemble size.  numpy adds
    a lone column of 8 or more terms pairwise, so from W of degree 8 on a
    one-replica path matches an ensemble row to rounding only.

    A step is a fixed run of numpy calls on (R,) and (count, R) arrays,
    each on views built before the loop and with its output passed
    positionally: the last y minus the drift, into the drift's buffer; that
    plus the increment column i holds, into column i, which is then y;
    count - 1 multiplies down the power chain P[j] = P[j-1] y; S += P; and
    the drift, contracted into the kept buffer by numpy's C einsum (which
    `np.einsum` forwards to through a Python dispatch layer) and divided by
    the mass in place.  A step builds the one column view and allocates no
    array unless V adds its term or a knot re-anchors or solves a block; at
    64 replicas its cost is the per-call overhead of those calls, not
    their arithmetic.

    The center of W' * mu feeds nothing back into the drift.  Every
    ``every`` steps the loop copies (S, mass, anchor) into a buffer of
    `_CENTER_BLOCK` knots, its sums (count, `_CENTER_BLOCK`, R), and solves
    a full buffer at once (`powersums.block_centers`) into the next columns
    of ``centers`` (R, n // every + 1), after it checks the block's
    positions for finiteness.  The steps between knots are not written:
    `TrajectoryRecord.centers` interpolates them when they are read.  Once
    a column's running mean S1/S0 leaves the unit radius, its anchor moves
    onto that mean, with an exact re-anchor of its sums, before the next
    position is stored.  Writes the positions (R, n+1) and the center knots
    in x.
    """
    count = T.shape[0]
    R, n = positions.shape[0], positions.shape[1] - 1
    mass = float(sums[0, 0])
    S = np.broadcast_to(sums, (count, R)).copy()
    a = np.full(R, float(x0))
    vg = _v_gradient(v)
    knot_S = np.empty((count, _CENTER_BLOCK, R))
    knot_mass = np.empty((_CENTER_BLOCK, 1))
    knot_a = np.empty((_CENTER_BLOCK, R))
    k = done = 0                       # knots in the buffer, knots solved
    checked = 0                        # positions before this index are finite
    P = np.zeros((max(count, 2), R))   # a zero drift (count 1) never reads row 1
    P[0] = dt
    powers = P[:count]
    chain = [(P[j - 1], P[j]) for j in range(2, count)]
    P0, P1 = P[0], P[1]                # P0 holds dt: y * P0 is dt y, array by array
    S0, S1 = S[0], S[1 % count]        # S keeps its buffer through re-anchors
    d = np.empty(R)                    # the drift times dt of the last step
    columns = positions.T              # columns[i] is the view positions[:, i]
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    einsum = _c_einsum
    shift = None
    segments = [(0, a)]
    y = columns[0]                     # y of step i is column i, in place
    y[...] = y0
    for i in range(n + 1):
        if i:
            subtract(y, d, d)
            y = columns[i]
            add(d, y, y)
        if shift is not None:   # the re-anchor the last knot asked for
            S[...] = reanchor(S, shift)
            y -= shift
            a, shift = a + shift, None
            segments.append((i, a))
        multiply(y, P0, P1)
        for prev, cur in chain:
            multiply(prev, y, cur)
        if i:
            add(S, powers, S)
            mass += dt
        if i % every == 0:
            knot_S[:, k], knot_mass[k], knot_a[k] = S, mass, a
            k += 1
            if count > 1:
                mean = S1 / S0
                far = np.abs(mean) > _REANCHOR_RADIUS
                if far.any():
                    shift = mean * far
        if k == _CENTER_BLOCK or i == n:
            _check_finite(positions[:, checked:i + 1], checked, origin, dt)
            centers[:, done:done + k] = (block_centers(
                T, knot_S[:, :k], knot_mass[:k],
                lambda j, r: _locate(origin, (done + j) * every, r, dt)) + knot_a[:k]).T
            k, done, checked = 0, done + k, i + 1
        if i < n:
            einsum("ij,jr,ir->r", T, S, powers, out=d)
            divide(d, mass, d)
            if vg is not None:
                d += horner(vg, y + a) * dt
    # back from y to x, one anchor segment (start index, anchors) at a time
    segments.append((n + 1, None))
    for (start, a_seg), (stop, _) in zip(segments, segments[1:]):
        positions[:, start:stop] += a_seg[:, None]


def simulate(w: PotentialSpec, x0: float, cfg: SimConfig,
             v: PotentialSpec | None = None, replica: int = 0) -> TrajectoryRecord:
    """One path of the self-attracting diffusion: the ensemble of the one
    replica ``replica`` (`simulate_ensemble`)."""
    return simulate_ensemble(w, x0, cfg, 1, v=v, first=replica)[0]


def simulate_ensemble(w: PotentialSpec, x0: float, cfg: SimConfig,
                      n_replicas: int, v: PotentialSpec | None = None,
                      first: int = 0) -> list[TrajectoryRecord]:
    """Replica ensemble with independent noise streams: replicas ``first``
    .. ``first + n_replicas - 1``, each driven by its own noise row, so a
    block of replicas gives the rows of the whole ensemble.  The replicas
    step in lock-step (quadratic W without V in closed form), from every
    start time.  The records hold row views of one positions and one
    center knots array.

    A run from t_start > 0 starts every row's sums at the start atom's,
    t_start at its own anchor x0.  A run from t = 0 takes its first Euler
    step for every replica here: the drift of step 0 is W'(0) + V'(x0),
    taken against the start atom, and its center is that atom's.  From
    t = dt on, each row's occupation is its own positions, the first of
    mass dt, and its sums stay anchored at x0, so a path without attraction
    keeps x0 as its center."""
    _check_dt(w, cfg)
    replicas = range(first, first + n_replicas)
    n, dt, R = cfg.n_steps, cfg.dt, n_replicas
    T = convolution_matrix(w, 1)
    every = _CENTER_EVERY if T.shape[0] > 2 else 1   # a linear drift: every step
    taken = int(cfg.t_start == 0.0)                  # the step taken here
    positions = np.empty((R, n + 1))
    centers = np.empty((R, taken + (n - taken) // every + 1))   # the center knots
    for row, r in zip(positions, replicas):
        _increments(cfg, n, r, out=row[1:])
    if taken:
        # step 0 against the start atom; the new positions in y = x - x0 and
        # their dt-weighted powers are the sums the steps after it start from
        drift = T[0, 0] if v is None else T[0, 0] + horner(_v_gradient(v), x0)
        y = positions[:, 1] - drift * dt
        sums = np.cumprod([np.full(R, dt)] + [y] * (T.shape[0] - 1), axis=0)
        atom = np.eye(T.shape[0], 1)   # the sums of a unit atom at x0
        positions[:, 0] = x0
        centers[:, 0] = x0 + block_centers(T, atom, 1.0)
    else:
        sums, y = cfg.t_start * np.eye(T.shape[0], 1), 0.0   # the start atom's sums
    _run_moments(T, v, x0, sums, positions[:, taken:], centers[:, taken:], dt,
                 (replicas, taken, cfg.t_start), every, y0=y)
    return [TrajectoryRecord(cfg, r, positions[k], centers[k], every)
            for k, r in enumerate(replicas)]


def _run_quadratic_closed_form(T, x0, sums, positions, centers, dt, y0=0.0):
    """The Euler scheme for drift t00 + t11 (x - mean), summed in closed form.

    With y = x - mean, alpha = 1 - t11 dt, S0_i the occupation mass after i
    steps and eta_i = xi_i - t00 dt, one step is the linear recursion
        y_(i+1) = (S0_i / S0_(i+1)) (alpha y_i + eta_i),
        mean_(i+1) = mean_i + dt y_(i+1) / S0_i,
    so z_i = y_i S0_i follows z_(i+1) = alpha z_i + S0_i eta_i.  From a
    block start p,
        z_(p+j) = alpha^j (z_p + sum_(i<j) alpha^(-i-1) S0_(p+i) eta_(p+i)),
    one scaled cumulative sum; the sum restarts every block, short enough
    that alpha^(-j) stays below about e^30.  Paths start at x0 + y0, their
    sums anchored at x0 and starting from ``sums`` (`_run_moments`).
    ``positions`` (R, n+1) holds each replica's n increments in columns
    1..n.  One pass over the blocks does all of a block's work in place:
    its masses S0, then in its columns of ``centers`` S0 eta, while z and
    then y stand in its positions; then the mean increments, whose
    cumulative sum carries over from the block before, so the means are
    one sequential sum; then its positions and centers.  Writes positions
    and centers (R, n+1).  t11 != 0 because `convolution_matrix` trims
    zero coefficients.
    """
    t00, t11 = T[0, 0], T[1, 0]
    R, n = centers.shape[0], centers.shape[1] - 1
    s0, s1 = sums[0, 0], sums[1]
    mean = x0 + s1 / s0
    positions[:, 0] = x0 + y0
    centers[:, 0] = mean - t00 / t11
    alpha = 1.0 - t11 * dt
    block = max(8, min(8192, int(30.0 / max(abs(1.0 - alpha), 1e-12))))
    up = alpha ** np.arange(1, min(block, n) + 1)
    z = np.full(R, (y0 - s1 / s0) * s0)
    for p in range(0, n, block):
        y, f = positions[:, 1 + p:1 + p + block], centers[:, 1 + p:1 + p + block]
        b = y.shape[1]
        S0 = s0 + dt * np.arange(p, p + b + 1)
        np.multiply(np.subtract(y, t00 * dt, out=f), S0[:-1], out=f)
        np.cumsum(np.divide(f, up[:b], out=y), axis=1, out=y)
        y += z[:, None]
        y *= up[:b]
        z = y[:, -1].copy()   # y is divided in place next
        y /= S0[1:]
        np.divide(y, S0[:-1], out=f)
        f *= dt
        if p:                 # not on the first block: 0.0 + -0.0 is +0.0
            f[:, 0] += carry
        np.cumsum(f, axis=1, out=f)
        carry = f[:, -1].copy()
        f += mean[:, None]
        y += f
        f -= t00 / t11


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck domination coupling


_BLEND_LOW = 0.1       # radius below which the coupling takes no path noise
_OU_BURN_IN = 10.0     # time after t_start before the domination is checked
_OU_Z_MIN = 1e-6       # the OU modulus reflects here


def blend(r: float) -> float:
    """Smooth ramp: 0 up to radius `_BLEND_LOW`, 1 from radius 1 on (quintic
    spline)."""
    if r <= _BLEND_LOW:
        return 0.0
    if r >= 1.0:
        return 1.0
    s = (r - _BLEND_LOW) / (1.0 - _BLEND_LOW)
    return s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)


@dataclass(frozen=True)
class OuDominationResult:
    times: np.ndarray
    x_path: np.ndarray
    center_track: np.ndarray
    z_path: np.ndarray
    violation_fraction: float
    n_checked: int
    n_reflections: int
    eps_disc: float


def ou_domination(w: PotentialSpec, cfg: SimConfig) -> OuDominationResult:
    """Couple the path from x0 = 0 with the modulus of a 3d-dimensional OU
    process through the blended noise and report how often the domination
    inequality |X - c| <= 2 + Z + eps fails after a burn-in of
    `_OU_BURN_IN` (d = 1 here, so 3d - 1 = 2).

    eps allows for the Euler discretization: 0.05 at dt = 1e-3, scaled with
    sqrt(dt).  X does not depend on Z, so the path and its every-step center
    come from the running-moment stepper first, on an atom of mass t_start
    at 0 as the pre-history, so the coupling needs t_start > 0.
    """
    _check_dt(w, cfg)
    if w.convexity_constant <= 0:
        raise InvalidInputError("domination needs a uniformly convex interaction")
    if cfg.t_start <= 0:
        raise InvalidInputError("the coupling needs a pre-history: t_start > 0")
    dt = cfg.dt
    n = cfg.n_steps
    eps_disc = 0.05 * math.sqrt(dt / 1e-3)
    c_w = w.convexity_constant
    sq_dt = math.sqrt(dt)
    db = sq_dt * rng.normal_increments(cfg.seed, n, 0, rng.NOISE)
    dbeta = (sq_dt * rng.normal_increments(cfg.seed, n, 0, rng.AUX_NOISE)).tolist()

    T = convolution_matrix(w, 1)
    xs, cs = np.empty((2, n + 1))
    np.multiply(cfg.noise_scale, db, out=xs[1:])
    _run_moments(T, None, 0.0, cfg.t_start * np.eye(T.shape[0], 1), xs[None], cs[None],
                 dt, ((0,), 0, cfg.t_start), 1)
    gaps = (xs - cs).tolist()
    db = db.tolist()
    z = max(1.0, abs(gaps[0]))
    zs = np.empty(n + 1)
    zs[0] = z
    violations = 0
    checked = 0
    reflections = 0
    t_check = cfg.t_start + _OU_BURN_IN
    times = cfg.t_start + dt * np.arange(n + 1)
    for i in range(n):
        gap = gaps[i]
        a = blend(abs(gap))
        dg = (a * (db[i] if gap >= 0 else -db[i])
              + math.sqrt(max(0.0, 1.0 - a * a)) * dbeta[i])
        z += _SQRT2 * dg - (0.5 * c_w * z - 2.0 / z) * dt
        if z < _OU_Z_MIN:
            z = _OU_Z_MIN
            reflections += 1
        zs[i + 1] = z
        if times[i + 1] >= t_check:
            checked += 1
            if abs(gaps[i + 1]) > 2.0 + z + eps_disc:
                violations += 1
    frac = violations / checked if checked else 0.0
    return OuDominationResult(times=times, x_path=xs, center_track=cs, z_path=zs,
                              violation_fraction=frac, n_checked=checked,
                              n_reflections=reflections, eps_disc=eps_disc)


# ---------------------------------------------------------------------------
# contraction bootstrap at time zero


@dataclass(frozen=True)
class PicardResult:
    times: np.ndarray
    path: np.ndarray
    sup_distances: tuple[float, ...]

    @property
    def contraction_ratios(self) -> tuple[float, ...]:
        d = self.sup_distances
        return tuple(d[i + 1] / d[i] for i in range(len(d) - 1) if d[i] > 0)


def picard_bootstrap(w: PotentialSpec, x0: float, times: np.ndarray,
                     noise_path: np.ndarray) -> PicardResult:
    """Construct the path on a short initial interval by fixed-point iteration.

    The iteration map rebuilds the path from the supplied noise with the
    drift taken against the previous iterate's occupation measure; on a
    short enough interval it contracts at rate about one half.  Sums are
    anchored at x0, inside the half-unit ball the path stays in.
    """
    times = np.asarray(times, dtype=float)
    noise = np.asarray(noise_path, dtype=float)
    if times[0] != 0.0 or times.size < 3 or times.size != noise.size:
        raise InvalidInputError("need matching time/noise grids starting at 0")
    delta = float(times[-1])
    lip = _lipschitz_radius2(w)
    if delta * lip >= 1.0 / 3.0:
        raise InvalidInputError(
            f"delta * Lip(grad W) = {delta * lip:.3f} >= 1/3; shrink the interval")
    if float(np.abs(noise).max()) > 0.5 + 1e-12:
        raise InvalidInputError("noise path leaves the half-unit ball; resample "
                                "with a smaller delta")
    T = convolution_matrix(w, 1)
    count = T.shape[0]
    dts = np.diff(times)
    increments = np.diff(noise)
    path = x0 + noise
    sups = []
    for _ in range(_BOOTSTRAP_MAX_ROUNDS):
        # step j > 0 drifts against the old path's atoms 1..j, each of mass
        # dt: prefix sums of its dt-weighted powers; step 0, before any
        # occupation accrues, against its first atom
        u = path[1:-1] - x0
        P = np.cumprod([dts[:-1]] + [u] * (count - 1), axis=0)
        S = np.column_stack((power_sums(path[:1], [1.0], x0, count),
                             np.cumsum(P, axis=1)))
        new = _step_driven(T @ S / S[0], x0, x0, increments, dts)
        sup = float(np.abs(new - path).max())
        sups.append(sup)
        path = new
        ratio = sups[-1] / sups[-2] if len(sups) >= 2 and sups[-2] > 0 else None
        if ratio is not None and ratio > _BOOTSTRAP_MAX_RATIO:
            raise NumericFailureError(
                f"bootstrap iteration is not contracting ({_rounds(sups, ratio)}); "
                "the interval is too long")
        if sup < _BOOTSTRAP_TOL:
            return PicardResult(times=times, path=path, sup_distances=tuple(sups))
    raise NumericFailureError(f"bootstrap did not reach tolerance {_BOOTSTRAP_TOL!r} "
                              f"({_rounds(sups, ratio)})")


def _rounds(sups, ratio):
    """The bootstrap's progress in words: its round, last sup distance and
    last contraction ratio."""
    return (f"round {len(sups)}, last sup distance {sups[-1]!r}, contraction ratio "
            f"{'undefined' if ratio is None else repr(ratio)}")


def _lipschitz_radius2(w: PotentialSpec) -> float:
    xs = np.linspace(-2.0, 2.0, 2001)
    h = polynomial_derivative(w.poly1d_coefficients(), xs, 2)
    return float(np.abs(h).max())


# ---------------------------------------------------------------------------
# non-symmetric counterexample pair


_CE_GROWTH = 0.01      # the counterexample's steps grow to this fraction of t


def counterexample_system(t_end: float, dt: float, seed: int
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced Markov pair for the shifted quadratic attraction, from
    Y = 0 and center 1 at t = 1.

    Y is the path seen from the moving center and follows a linear SDE whose
    conditional transition is Gaussian with closed-form moments, so steps can
    grow proportionally to t (factor `_CE_GROWTH`) without integration bias;
    the center increments use log-exact quadrature plus a trapezoid for the
    fluctuation part.  The center grows like log t.
    """
    if t_end <= 1.0 or dt <= 0:
        raise InvalidInputError("need t_end > 1 and dt > 0")
    gen = rng.stream(seed, 0, rng.NOISE)
    t, y, c = 1.0, 0.0, 1.0
    ts, ys, cs = [t], [y], [c]
    while t < t_end - 1e-12:
        h = min(max(dt, _CE_GROWTH * t), t_end - t)
        T = t + h
        eh = math.exp(-h)
        phi = eh * t / T
        mean_add = -(1.0 - eh) / T

        def prim(s):
            return math.exp(2.0 * (s - T)) * (0.5 * s * s - 0.5 * s + 0.25)

        var = max(0.0, (prim(T) - prim(t)) / (T * T))
        y_new = phi * y + mean_add + math.sqrt(var) * gen.standard_normal()
        c += math.log(T / t) + 0.5 * h * (y / t + y_new / T)
        t, y = T, y_new
        ts.append(t)
        ys.append(y)
        cs.append(c)
    return np.asarray(ts), np.asarray(ys), np.asarray(cs)
