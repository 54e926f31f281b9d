"""Euler-discretized measure flow on the polynomial time schedule.

One step mixes the current density with its Gibbs image, weighted by the
relative length of the next schedule interval; every state records the
center, the free-energy breakdown and the translation distance moved.
Each density is read once (`measures.density_sums`, a few floats kept on
its state) for its center, its free energy and the next step's Gibbs
image.

The flow holds one density: `run_flow` keeps its current state, appends
that state's scalars to columns and drops the state at the next step, so
its memory is the grid's, whatever the step count (`FlowRun`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyBreakdown, RateParams, energy_envelope, free_energy
from .errors import InvalidInputError
from .gibbs import _box_follows, gibbs_map, solve_fixed_point
from .measures import DensitySums, GridDensity, center, density_sums
from .potentials import PotentialSpec
from .transport import tp_distance_1d


@dataclass(frozen=True)
class Schedule:
    """Knots T_n = n**exponent; interval lengths grow like T_n^(1/3) for the
    default exponent 3/2."""

    n_end: int
    n_start: int = 1
    exponent: float = 1.5

    def __post_init__(self):
        if self.n_start < 1 or self.n_end <= self.n_start:
            raise InvalidInputError("need n_end > n_start >= 1")
        if self.exponent <= 1.0:
            raise InvalidInputError("schedule exponent must exceed 1")

    def time(self, n: int) -> float:
        return float(n) ** self.exponent

    def indices(self) -> range:
        return range(self.n_start, self.n_end)


@dataclass(frozen=True)
class FlowState:
    n: int
    time: float
    density: GridDensity
    center: float
    free_energy: EnergyBreakdown
    step_distance: float
    # the density read for the flow's W: a few floats, never its atoms
    sums: DensitySums | None = field(default=None, repr=False, compare=False)


def _recenter_policy(w: PotentialSpec, g: GridDensity, c: float) -> GridDensity:
    """The box follows the measure: once the center c strays past 10% of the
    half-width from the box middle, the box moves by whole cells to put its
    middle at c, and the measure stays where it is."""
    mid = 0.5 * (g.lo + g.hi)
    half = 0.5 * (g.hi - g.lo)
    return _box_follows(g, c) if abs(c - mid) > 0.1 * half else g


def initial_state(w: PotentialSpec, init: GridDensity, s: Schedule,
                  v: PotentialSpec | None = None,
                  reference_total: float | None = None) -> FlowState:
    init.require_probability()
    sums = density_sums(w, init)
    c = center(w, sums) if w.convexity_constant > 0 else init.mean()
    e = free_energy(w, init, v=v, relative_to=reference_total, sums=sums)
    return FlowState(n=s.n_start, time=s.time(s.n_start), density=init,
                     center=float(c), free_energy=e, step_distance=0.0, sums=sums)


def euler_step(w: PotentialSpec, state: FlowState, next_time: float,
               v: PotentialSpec | None = None,
               reference_total: float | None = None) -> FlowState:
    """One mixing step: rho <- rho + lam (Pi(rho) - rho), lam = dT / T_next,
    with the box first following the state's center (`_recenter_policy`).

    Each derived quantity is computed once.  The new density is read once
    (`density_sums`) for its center, its free energy and, through the
    returned state, the next step's Gibbs image; the state's density is read
    again only when its box moves or the state was read for another W.
    The convolution matrices and tp's lattice primitives come from their
    caches, so a step whose box stands still builds neither."""
    if next_time <= state.time:
        raise InvalidInputError("next_time must exceed the state time")
    lam = (next_time - state.time) / next_time
    if not 0.0 < lam < 1.0:
        raise InvalidInputError(f"mixing weight {lam} outside (0, 1)")
    rho = _recenter_policy(w, state.density, state.center)
    sums = state.sums
    if rho is not state.density or sums is None or sums.potential != w:
        sums = density_sums(w, rho)
    image = gibbs_map(w, sums, v=v, grid=rho)
    mixed = GridDensity.proportional_to(
        rho.lo, rho.hi, (1.0 - lam) * rho.values + lam * image.values)
    sums = density_sums(w, mixed)
    c = center(w, sums) if w.convexity_constant > 0 else mixed.mean()
    step = tp_distance_1d(w, state.density, mixed)
    e = free_energy(w, mixed, v=v, relative_to=reference_total, sums=sums)
    return FlowState(n=state.n + 1, time=next_time, density=mixed,
                     center=float(c), free_energy=e, step_distance=step, sums=sums)


@dataclass(frozen=True)
class FlowRun:
    """What a flow keeps: one column per scalar of its states, n_start to
    n_end, and its last state, whose density is the only one it holds.  Its
    length is the number of states."""

    n: np.ndarray
    time: np.ndarray
    center: np.ndarray
    step_tp: np.ndarray
    entropy: np.ndarray
    interaction: np.ndarray
    total: np.ndarray
    relative: np.ndarray
    final: FlowState

    def __len__(self) -> int:
        return self.n.size


def _scalars(st: FlowState) -> tuple:
    """A state's row of the `FlowRun` columns, in their order."""
    e = st.free_energy
    return (st.n, st.time, st.center, st.step_distance, e.entropy,
            e.interaction_term, e.total, e.relative)


def run_flow(w: PotentialSpec, init: GridDensity, s: Schedule,
             v: PotentialSpec | None = None,
             rho_inf: GridDensity | None = None, damping: float = 0.5,
             tol: float = 1e-11, max_iter: int = 500) -> FlowRun:
    """The flow from n_start to n_end, with energies relative to the fixed
    point.  When not supplied, the fixed point is solved on the same grid by
    `solve_fixed_point` with ``damping``, ``tol`` and ``max_iter``.

    Each step replaces the one state held and appends its scalars to the
    columns, so no density outlives the step after it."""
    if rho_inf is None:
        rho_inf = solve_fixed_point(w, init, v=v, damping=damping, tol=tol,
                                    max_iter=max_iter).density
    ref = free_energy(w, rho_inf, v=v).total
    state = initial_state(w, init, s, v=v, reference_total=ref)
    rows = [_scalars(state)]
    for n in s.indices():
        state = euler_step(w, state, s.time(n + 1), v=v, reference_total=ref)
        rows.append(_scalars(state))
    return FlowRun(*map(np.array, zip(*rows)), final=state)


def envelope_compare(times, relative, params: RateParams, tol: float = 1e-9) -> dict:
    """Overlay the rate envelope on a relative-energy trace: the relative
    free energies ``relative`` at the schedule times ``times``, as a
    `FlowRun` holds them.

    Reports the fraction of steps with F <= y and a least-squares decay
    exponent of F against exp(-a (log t)^(1/(k+1))).
    """
    times = np.asarray(times, dtype=float)
    f_rel = np.asarray(relative, dtype=float)
    if times.shape != f_rel.shape:
        raise InvalidInputError("times and relative energies differ in length")
    if np.any(np.isnan(f_rel)):
        raise InvalidInputError("relative free energies must be numbers")
    y0 = max(float(f_rel[0]), 1.0)
    ts, ys = energy_envelope(params, y0, float(times[0]), float(times[-1]))
    y_at = np.interp(np.log(times), np.log(ts), ys)
    satisfied = f_rel <= y_at + tol
    positive = f_rel > 0
    a_fit = float("nan")
    if positive.sum() >= 2:
        xs = np.log(times[positive]) ** (1.0 / (params.k + 1))
        slope, _ = np.polyfit(xs, np.log(f_rel[positive]), 1)
        a_fit = -float(slope)
    return {
        "fraction_satisfied": float(satisfied.mean()),
        "n_steps": times.size,
        "decay_exponent": a_fit,
        "envelope_start": y0,
        "times": times,
        "energy_trace": f_rel,
        "envelope_trace": y_at,
    }
