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
y = x - a, the anchor starts at x0 and moves onto the center, with an exact
binomial re-anchor of the sums, whenever the center leaves the unit radius
around it.  The sums then stay of the size of the path's spread wherever
the path sits, so a path started at x0 + s is the x0 path shifted by s.

Every self-driven path is a row of a replica ensemble: `simulate` and
`simulate_ensemble` share one body for every start time.  The ensemble
keeps the sums of all R replicas as one (count, R) array, adds the
dt-weighted powers dt y^j of the new positions to it each step, and takes
its drift coefficients from one matrix product per step; the occupation
mass is the same for every replica.  For quadratic W without V (drift
t00 + t11 (x - mean)) the Euler scheme reduces to a scalar linear
recursion in y = x - mean with the mean carried by the occupation mass; it
is summed in closed form with blockwise scaled cumulative sums (`_ar1`)
instead of stepped, which matches the stepped scheme to rounding.  A run
from t = 0 builds each row from a short contraction-bootstrap segment and
a running-moment tail anchored at x0.

Also here: the Ornstein-Uhlenbeck domination coupling, the contraction
bootstrap for starting at time zero (each Picard round steps one float
loop over the drift of the previous iterate), and the non-symmetric
counterexample pair whose center drifts like log t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidInputError, NumericFailureError, UnsupportedInputError
from .measures import ParticleMeasure
from .potentials import PotentialSpec
from .powersums import PowerSums, anchor, convolution_matrix, power_sums, reanchor

_SQRT2 = math.sqrt(2.0)
_REANCHOR_RADIUS = 1.0   # the anchor follows the center once it is this far
_CENTER_EVERY = 10       # steps between Newton centers of a nonlinear drift


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
        if self.noise_scale < 0:
            raise InvalidInputError("noise scale must be non-negative")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))


def _check_dt(w: PotentialSpec, cfg: SimConfig):
    cap = 0.01 * min(1.0, 1.0 / w.convexity_constant) if w.convexity_constant > 0 else 0.01
    if cfg.dt > cap + 1e-15:
        raise InvalidInputError(f"dt={cfg.dt} exceeds the stability cap {cap}")


@dataclass
class TrajectoryRecord:
    """One path with its occupation bookkeeping.

    ``weights[i]`` is the occupation weight of the atom at ``times[i]``: the
    pre-history block t_start for the first atom, dt for the rest (zero when
    the run starts at t = 0, where there is no pre-history).
    """

    potential: PotentialSpec
    external: PotentialSpec | None
    config: SimConfig
    replica: int
    times: np.ndarray
    positions: np.ndarray
    weights: np.ndarray
    center_track: np.ndarray
    initial_occupation: ParticleMeasure | None = None

    def index_at(self, t: float) -> int:
        """Largest step index with times[index] <= t (+ tolerance)."""
        return int(np.searchsorted(self.times, t + 1e-12, side="right") - 1)

    def prehistory(self) -> tuple[np.ndarray, np.ndarray]:
        """Atoms and weights of the pre-history block: the warm-start
        occupation scaled to mass weights[0] when one was supplied, otherwise
        an atom of mass t_start at the starting point, and nothing for a run
        from t = 0."""
        if self.weights[0] == 0:
            return self.positions[:0], self.weights[:0]
        return _prehistory(self.positions[0], self.weights[0], self.initial_occupation)

    def occupation(self, upto: float | None = None) -> ParticleMeasure:
        """Normalized occupation measure of the path up to time ``upto``:
        the pre-history block, then one atom of weight dt per step."""
        i = self.times.size - 1 if upto is None else self.index_at(upto)
        pre_pos, pre_w = self.prehistory()
        pos = np.concatenate((pre_pos, self.positions[1:i + 1]))
        w = np.concatenate((pre_w, self.weights[1:i + 1]))
        return ParticleMeasure(pos, w / w.sum())

    def power_sums_at(self, times, count: int) -> list[PowerSums]:
        """Power sums S_j, j < count, of the normalized occupation up to each
        of the increasing ``times``, all about one anchor: the midpoint of the
        path up to the last time.

        The path atoms between consecutive times are summed as one segment
        (one `np.add.reduceat` per power) and the segments are cumulated on
        top of the pre-history block, so no prefix occupation is built.
        """
        idx = np.array([self.index_at(t) for t in times])
        a = anchor(self.positions[:idx[-1] + 1])
        pre_pos, pre_w = self.prehistory()
        y = self.positions[1:idx[-1] + 1] - a
        bounds = np.concatenate(([0], idx))
        full = np.diff(bounds) > 0            # reduceat misreads empty segments
        seg = np.zeros((idx.size, count))
        seg[:, 0] = np.diff(bounds)
        acc = y
        for j in range(1, count):
            seg[full, j] = np.add.reduceat(acc, bounds[:-1][full])
            if j + 1 < count:
                acc = acc * y
        sums = power_sums(pre_pos, pre_w, a, count) + self.config.dt * np.cumsum(seg, axis=0)
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
        return float(self.center_track[self.index_at(t)])


# ---------------------------------------------------------------------------
# running-moment drift for 1-d polynomial potentials
#
# grad(W * mu)(a + y) = sum_i b_i y^i with b = T S / S_0, T the order-1
# convolution matrix of `powersums` and S the weighted power sums of mu
# about the anchor a.  `_horner` and `_center` take b as a sequence of
# floats (one drift) or as the rows of a (count, R) array (replicas side by
# side).


def _horner(b, y):
    out = b[-1]
    for bi in b[-2::-1]:
        out = out * y + bi
    return out


def _center(b, start, tol=1e-12, max_iter=60):
    """Root in y of the drift polynomial b: closed form when it is linear,
    Newton from ``start`` otherwise.  A column stops at its own first
    iterate with |g| <= tol, so it does not depend on the other columns."""
    if len(b) < 2:
        return start
    if len(b) == 2:
        return -b[0] / b[1]
    db = [k * b[k] for k in range(1, len(b))]
    c = start
    for _ in range(max_iter):
        g = _horner(b, c)
        moving = np.abs(g) > tol
        if not moving.any():
            return c
        c = c - np.where(moving, g / _horner(db, c), 0.0)
    raise NumericFailureError("center Newton on running moments did not converge")


def _prehistory(x0: float, t_start: float,
                initial_occupation: ParticleMeasure | None):
    """Atoms and weights of the pre-history block of mass t_start."""
    if initial_occupation is None:
        return np.array([float(x0)]), np.array([t_start])
    return (initial_occupation.positions,
            initial_occupation.weights * (t_start / initial_occupation.total_mass))


def _increments(cfg: SimConfig, n: int, replica: int, out=None) -> np.ndarray:
    """The first n noise increments noise_scale sqrt(dt) xi of a replica's
    stream, into ``out`` when given.  The draw for n is a prefix of the draw
    for any longer n."""
    return np.multiply(rng.normal_increments(cfg.seed, n, replica),
                       cfg.noise_scale * math.sqrt(cfg.dt), out=out)


def _v_gradient(v: PotentialSpec | None):
    """Coefficients of V' as a list of floats, or None without V."""
    return None if v is None else \
        np.polynomial.polynomial.polyder(v.poly1d_coefficients()).tolist()


def _step_driven(B, a, x, noise, dts):
    """Euler steps of one path under a drift it does not generate: step k
    moves x by -b_k(x - a) dts[k] + noise[k], with b_k = B[:, k] the drift
    coefficients about the anchor a.  Returns the n + 1 positions."""
    out = np.empty(len(noise) + 1)
    out[0] = x
    for k, (b, xi, h) in enumerate(zip(B.T.tolist(), noise.tolist(), dts.tolist()), 1):
        x = x - _horner(b, x - a) * h + xi
        out[k] = x
    return out


def _run_moments(w, v, x0, prehistory, noise, dt, every=_CENTER_EVERY, y0=0.0):
    """Positions and centers (R, n+1) in x of the running-moment Euler scheme
    for R replicas started at x0 + y0, their sums anchored at x0; ``noise``
    is (R, n).  Quadratic W without V takes the closed form, everything else
    the column stepper, which places a Newton center every ``every`` steps."""
    T = convolution_matrix(w, 1)
    if T.shape[0] == 2 and v is None:
        return _run_quadratic_closed_form(T, x0, prehistory, noise, dt, y0)
    return _run_moment_columns(T, v, x0, prehistory, noise, dt, every, y0)


def _run_moment_columns(T, v, x0, prehistory, noise, dt, every, y0=0.0):
    """The Euler scheme for R replicas side by side; ``noise`` is (R, n).

    The sums about each column's anchor are one (count, R) array S.  P holds
    the dt-weighted powers dt y^j of the current positions, the products one
    path adds to its sums, so a step adds P to S and the drift times dt is
    the column sum of B * P, with B = T S / mass from one matrix product
    (the mass is the same for every replica).  The product is `np.einsum`,
    which adds each column's terms in order without BLAS: BLAS takes another
    kernel for one column than for several, and a replica's path would then
    depend on the ensemble size.  numpy adds a lone column of 8 or more
    terms pairwise, so from W of degree 8 on a one-replica path matches an
    ensemble row to rounding only.  A center that leaves the unit radius
    re-anchors its column before the next position is stored, so each step
    refreshes P and B once.  Returns positions and centers (R, n+1) in x,
    centers NaN between recomputations.
    """
    count = T.shape[0]
    R, n = noise.shape
    sums = power_sums(*prehistory, float(x0), count)
    mass = float(sums[0])
    S = np.repeat(sums[:, None], R, axis=1)
    a = np.full(R, float(x0))
    vg = _v_gradient(v)
    if count <= 2:
        every = 1
    positions = np.empty((R, n + 1))
    centers = np.full((R, n + 1), np.nan)
    y = np.full(R, float(y0))
    c = np.zeros(R)
    P = np.zeros((max(count, 2), R))   # a zero drift (count 1) never reads row 1
    P[0] = dt
    powers = P[:count]
    B = np.empty((count, R))
    prod = np.empty((count, R))
    d = np.empty(R)
    shift = None
    segments = [(0, a)]
    for i in range(n + 1):
        if i:
            y -= d
            y += noise[:, i - 1]
        if shift is not None:   # the re-anchor the last center asked for
            S[...] = reanchor(S, shift)
            y -= shift
            c, a, shift = c - shift, a + shift, None
            segments.append((i, a))
        positions[:, i] = y
        np.multiply(y, dt, out=P[1])
        for j in range(2, count):
            np.multiply(P[j - 1], y, out=P[j])
        if i:
            S += powers
            mass += dt
        np.einsum("ij,jr->ir", T, S, out=B)
        B *= 1.0 / mass
        if i % every == 0:
            c = _center(B, c)
            centers[:, i] = c
            far = np.abs(c) > _REANCHOR_RADIUS
            if far.any():
                shift = c * far
        if i < n:
            np.multiply(B, powers, out=prod)
            np.add.reduce(prod, axis=0, out=d)
            if vg is not None:
                d += _horner(vg, y + a) * dt
    # back from y to x, one anchor segment (start index, anchors) at a time
    segments.append((n + 1, None))
    for (start, a_seg), (stop, _) in zip(segments, segments[1:]):
        positions[:, start:stop] += a_seg[:, None]
        centers[:, start:stop] += a_seg[:, None]
    return positions, centers


def _interpolate_center_gaps(centers: np.ndarray):
    bad = np.isnan(centers)
    if bad.any():
        idx = np.arange(centers.size)
        centers[bad] = np.interp(idx[bad], idx[~bad], centers[~bad])


def simulate(w: PotentialSpec, x0: float, cfg: SimConfig,
             v: PotentialSpec | None = None, replica: int = 0,
             initial_occupation: ParticleMeasure | None = None) -> TrajectoryRecord:
    """One path of the self-attracting diffusion.

    The occupation measure starts as a pre-history block of mass t_start
    (an atom at x0, or ``initial_occupation`` rescaled to that mass); runs
    started at t = 0 have no pre-history, so they take no
    ``initial_occupation``, and first build a short segment with the
    contraction bootstrap and then switch to stepping.
    """
    _check_dt(w, cfg)
    return _simulate_replicas(w, x0, cfg, [replica], v, initial_occupation)[0]


def simulate_ensemble(w: PotentialSpec, x0: float, cfg: SimConfig,
                      n_replicas: int, v: PotentialSpec | None = None,
                      initial_occupation: ParticleMeasure | None = None
                      ) -> list[TrajectoryRecord]:
    """Replica ensemble with independent noise streams; replica r is the
    path ``simulate(..., replica=r)`` returns.  Running-moment replicas step
    in lock-step (quadratic W without V in closed form); runs from t = 0
    take each replica through its own contraction bootstrap.  The records
    share ``times`` and one read-only ``weights`` array and hold row views
    of one positions and one centers array."""
    _check_dt(w, cfg)
    return _simulate_replicas(w, x0, cfg, range(n_replicas), v, initial_occupation)


def _simulate_replicas(w, x0, cfg, replicas, v, initial_occupation):
    """Records of the given replica ids, each driven by its own noise row."""
    if cfg.t_start == 0.0 and initial_occupation is not None:
        raise InvalidInputError("a run from t = 0 has no pre-history to warm-start")
    n = cfg.n_steps
    dt = cfg.dt
    noise = np.empty((len(replicas), n))
    for k, r in enumerate(replicas):
        _increments(cfg, n, r, out=noise[k])
    if cfg.t_start == 0.0:
        positions = np.empty((len(replicas), n + 1))
        centers = np.empty_like(positions)
        for k in range(len(replicas)):
            positions[k], centers[k] = _from_zero(w, x0, dt, v, noise[k])
    else:
        pre = _prehistory(x0, cfg.t_start, initial_occupation)
        positions, centers = _run_moments(w, v, x0, pre, noise, dt)
    del noise   # freed before the finiteness mask is allocated
    if not np.all(np.isfinite(positions)):
        raise NumericFailureError("path lost finiteness (explosion); "
                                  "check the step size against the potential")
    times = cfg.t_start + dt * np.arange(n + 1)
    # occupation weights: t_start for the pre-history, then dt; every
    # replica shares the one read-only array
    weights = np.full(n + 1, dt)
    weights[0] = cfg.t_start
    weights.flags.writeable = False
    for row in centers:
        _interpolate_center_gaps(row)
    return [TrajectoryRecord(w, v, cfg, r, times, positions[k], weights, centers[k],
                             initial_occupation=initial_occupation)
            for k, r in enumerate(replicas)]


def _ar1(alpha, z, f, out):
    """The linear recursion z_(k+1) = alpha z_k + f_k, summed along the last
    axis: ``z`` holds z_0, ``f`` (..., n) holds f_0 .. f_(n-1) and ``out``
    (..., n) receives z_1 .. z_n.  From a block start p,
        z_(p+j) = alpha^j (z_p + sum_(i<j) alpha^(-i-1) f_(p+i)),
    one scaled cumulative sum; the sum restarts every block, short enough
    that alpha^(-j) stays below about e^30.  Returns ``out``."""
    n = f.shape[-1]
    block = max(8, min(8192, int(30.0 / max(abs(1.0 - alpha), 1e-12))))
    up = alpha ** np.arange(1, min(block, n) + 1)
    for p in range(0, n, block):
        seg = out[..., p:p + block]
        b = seg.shape[-1]
        np.divide(f[..., p:p + b], up[:b], out=seg)
        np.cumsum(seg, axis=-1, out=seg)
        seg += z[..., None]
        seg *= up[:b]
        z = seg[..., -1]
    return out


def _run_quadratic_closed_form(T, x0, prehistory, noise, dt, y0=0.0):
    """The Euler scheme for drift t00 + t11 (x - mean), summed in closed form.

    With y = x - mean, alpha = 1 - t11 dt, S0_i the occupation mass after i
    steps and eta_i = xi_i - t00 dt, one step is the linear recursion
        y_(i+1) = (S0_i / S0_(i+1)) (alpha y_i + eta_i),
        mean_(i+1) = mean_i + dt y_(i+1) / S0_i,
    so z_i = y_i S0_i follows z_(i+1) = alpha z_i + S0_i eta_i (`_ar1`).
    Paths start at x0 + y0, their sums anchored at x0.  ``noise`` (R, n) is
    overwritten: it holds S0 eta, then the means; z and then y stand in the
    positions.  Returns positions and centers (R, n+1).  t11 != 0 because
    `convolution_matrix` trims zero coefficients.
    """
    t00, t11 = T[0, 0], T[1, 0]
    R, n = noise.shape
    s0, s1 = power_sums(*prehistory, float(x0), 2)
    S0 = s0 + dt * np.arange(n + 1)
    positions = np.empty((R, n + 1))
    centers = np.empty((R, n + 1))
    positions[:, 0] = x0 + y0
    centers[:, 0] = x0 + s1 / s0 - t00 / t11
    noise -= t00 * dt
    noise *= S0[:-1]
    y = _ar1(1.0 - t11 * dt, np.full(R, (y0 - s1 / s0) * s0), noise, positions[:, 1:])
    y /= S0[1:]
    np.divide(y, S0[:-1], out=noise)
    noise *= dt
    np.cumsum(noise, axis=1, out=noise)
    noise += x0 + s1 / s0
    y += noise
    np.subtract(noise, t00 / t11, out=centers[:, 1:])
    return positions, centers


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck domination coupling


def blend(r: float, low: float = 0.1) -> float:
    """Smooth ramp: 0 near the origin, 1 from radius 1 on (quintic spline)."""
    if r <= low:
        return 0.0
    if r >= 1.0:
        return 1.0
    s = (r - low) / (1.0 - low)
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


def ou_domination(w: PotentialSpec, cfg: SimConfig, seed: int | None = None,
                  x0: float = 0.0, burn_in: float = 10.0,
                  eps_disc: float | None = None, z_min: float = 1e-6,
                  blend_low: float = 0.1) -> OuDominationResult:
    """Couple the path with the modulus of a 3d-dimensional OU process through
    the blended noise and report how often the domination inequality
    |X - c| <= 2 + Z + eps fails after burn-in (d = 1 here, so 3d - 1 = 2).

    eps allows for the Euler discretization; it defaults to 0.05 at dt = 1e-3
    and scales with sqrt(dt).  X does not depend on Z, so the path and its
    every-step center come from the running-moment stepper first.
    """
    _check_dt(w, cfg)
    if w.convexity_constant <= 0:
        raise InvalidInputError("domination needs a uniformly convex interaction")
    if seed is None:
        seed = cfg.seed
    dt = cfg.dt
    n = cfg.n_steps
    if eps_disc is None:
        eps_disc = 0.05 * math.sqrt(dt / 1e-3)
    c_w = w.convexity_constant
    sq_dt = math.sqrt(dt)
    db = sq_dt * rng.normal_increments(seed, n, 0, rng.NOISE)
    dbeta = (sq_dt * rng.normal_increments(seed, n, 0, rng.AUX_NOISE)).tolist()

    (xs,), (cs,) = _run_moments(w, None, x0, _prehistory(x0, cfg.t_start, None),
                                (cfg.noise_scale * db)[None], dt, every=1)
    gaps = (xs - cs).tolist()
    db = db.tolist()
    z = max(1.0, abs(gaps[0]))
    zs = np.empty(n + 1)
    zs[0] = z
    violations = 0
    checked = 0
    reflections = 0
    t_check = cfg.t_start + burn_in
    times = cfg.t_start + dt * np.arange(n + 1)
    for i in range(n):
        gap = gaps[i]
        a = blend(abs(gap), blend_low)
        dg = (a * (db[i] if gap >= 0 else -db[i])
              + math.sqrt(max(0.0, 1.0 - a * a)) * dbeta[i])
        z += _SQRT2 * dg - (0.5 * c_w * z - 2.0 / z) * dt
        if z < z_min:
            z = z_min
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
                     noise_path: np.ndarray, tol: float = 1e-10,
                     max_rounds: int = 80) -> PicardResult:
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
    for _ in range(max_rounds):
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
        if len(sups) >= 2 and sups[-2] > 0 and sups[-1] / sups[-2] > 0.9:
            raise NumericFailureError("bootstrap iteration is not contracting; "
                                      "the interval is too long")
        if sup < tol:
            return PicardResult(times=times, path=path, sup_distances=tuple(sups))
    raise NumericFailureError("bootstrap did not reach tolerance")


def _lipschitz_radius2(w: PotentialSpec) -> float:
    xs = np.linspace(-2.0, 2.0, 2001)
    h = np.polynomial.polynomial.polyval(xs, np.polynomial.polynomial.polyder(
        w.poly1d_coefficients(), 2))
    return float(np.abs(h).max())


def _from_zero(w, x0, dt, v, incs):
    """Positions and centers (n+1, centers NaN between recomputations) of a
    run from t = 0 on the n increments ``incs`` (overwritten): the
    contraction bootstrap on a short first segment, then the running-moment
    tail.  The tail's sums stay anchored at x0 like the bootstrap's, so a
    path without attraction keeps x0 as its center."""
    if v is not None:
        raise UnsupportedInputError("the t = 0 bootstrap handles the pure "
                                    "interaction case only")
    lip = _lipschitz_radius2(w)
    n = incs.size
    noise_path = np.concatenate(([0.0], np.cumsum(incs)))
    # the bootstrap segment: at most half the run, delta * Lip(grad W) below
    # 1/3.2, and the noise path inside the half-unit ball
    m = n // 2
    if lip > 0:
        m = min(m, max(2, math.floor((1.0 / (3.2 * lip)) / dt)))
    while m >= 2 and float(np.abs(noise_path[:m + 1]).max()) > 0.5:
        m //= 2
    if m < 2:
        raise InvalidInputError(
            "the t = 0 bootstrap needs 2 or more steps in the first half of the "
            f"run ({n} steps) on which the noise path stays within 0.5 of x0; "
            "lengthen the run, or lower dt or noise_scale")
    boot = picard_bootstrap(w, x0, dt * np.arange(m + 1), noise_path[:m + 1])
    # the tail goes on with the same increment stream
    (positions,), (centers,) = _run_moments(w, None, x0, (boot.path[1:], np.full(m, dt)),
                                            incs[None, m:], dt, y0=boot.path[-1] - x0)
    return (np.concatenate((boot.path[:-1], positions)),
            np.concatenate((np.full(m, centers[0]), centers)))


# ---------------------------------------------------------------------------
# non-symmetric counterexample pair


def counterexample_system(t_end: float, dt: float, seed: int,
                          y0: float = 0.0, c0: float = 1.0,
                          t_start: float = 1.0, growth: float = 0.01
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced Markov pair for the shifted quadratic attraction.

    Y is the path seen from the moving center and follows a linear SDE whose
    conditional transition is Gaussian with closed-form moments, so steps can
    grow proportionally to t (factor ``growth``) without integration bias;
    the center increments use log-exact quadrature plus a trapezoid for the
    fluctuation part.  The center grows like log t.
    """
    if t_start <= 0 or t_end <= t_start or dt <= 0:
        raise InvalidInputError("need t_end > t_start > 0 and dt > 0")
    gen = rng.stream(seed, 0, rng.NOISE)
    ts = [t_start]
    ys = [y0]
    cs = [c0]
    t, y, c = t_start, y0, c0
    while t < t_end - 1e-12:
        h = min(max(dt, growth * t), t_end - t)
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
