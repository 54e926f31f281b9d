"""The damped mixing step, the measure flow it makes and the fixed point.

One step, `mix_step`, maps rho to (1 - lam) rho + lam Pi(rho), Pi the Gibbs
map.  The box first follows the center.  Then the step computes:

- the Gibbs image, from the few floats the state keeps of rho
  (`measures.density_sums`);
- the mixture, built once, already normalized;
- the mixture's normalized CDF, for the translation distance from rho, the
  step's distance (rho kept its own CDF from the step before);
- one read of the mixture (`density_sums`) for its center, its free energy
  and the next step's Gibbs image.

Neither the image nor the mixture is checked again: both are valid by
construction.  What the box fixes -- its cell centers, the envelope at them
and tp's primitives at its edges -- is memoized per (envelope, box ends,
cell count) (`measures.box_geometry`), so a step whose box stands still
evaluates none of it.  The two callers of the step differ only in lam and
in how far the center may stray from the box middle before the box moves
(the slack):

- `euler_step`, the Euler-discretized flow on the polynomial time
  schedule: lam = dT / T_next and a slack of 10% of the half-width;
- `solve_fixed_point`: lam = ``damping`` and a slack of 0 when W has a
  center, so the box follows every iterate, and an infinite one otherwise,
  so the box stays where it starts.

The flow holds one density: `run_flow` keeps its current state, appends
that state's scalars to columns and drops the state at the next step, so
its memory is the grid's, whatever the step count (`FlowRun`).  The fixed
point likewise keeps only its current iterate.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .energy import (EnergyBreakdown, RateParams, decay_exponent, energy_envelope,
                     free_energy)
from .errors import InvalidInputError, NumericFailureError
from .gibbs import gibbs_map
from .measures import DensitySums, GridDensity, center, density_sums
from .potentials import PotentialSpec
from .transport import tp_distance_1d

_ENVELOPE_TOL = 1e-9   # slack of F <= y in `envelope_compare`


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
    sums: DensitySums = field(repr=False, compare=False)


@contextmanager
def _failing_at(place: str):
    """A `NumericFailureError` raised inside names ``place`` before its text."""
    try:
        yield
    except NumericFailureError as exc:
        raise NumericFailureError(f"{place}: {exc}") from exc


def _box_follows(g: GridDensity, c: float) -> GridDensity:
    """The grid with its box moved by the whole number of cells nearest
    to c minus the box middle, and the measure left in place: the values move
    the same number of slots the other way, zero-filled, and are renormalized
    for the tail that leaves the box.  Whole cells move the values without
    interpolating them."""
    h = g.spacing
    k = round((c - 0.5 * (g.lo + g.hi)) / h)
    if k == 0:
        return g
    vals = np.zeros_like(g.values)
    if k > 0:
        vals[:-k] = g.values[k:]
    else:
        vals[-k:] = g.values[:k]
    return GridDensity.proportional_to(g.lo + k * h, g.hi + k * h, vals)


def _state(w: PotentialSpec, density: GridDensity, n: int, time: float, step: float,
           v: PotentialSpec | None) -> FlowState:
    """The state of a density, read once (`density_sums`) for its center
    (its mean when W has none) and its free energy."""
    sums = density_sums(w, density)
    c = center(w, sums) if w.convexity_constant > 0 else density.mean()
    e = free_energy(w, density, v=v, sums=sums)
    return FlowState(n=n, time=time, density=density, center=float(c), free_energy=e,
                     step_distance=step, sums=sums)


def initial_state(w: PotentialSpec, init: GridDensity, s: Schedule,
                  v: PotentialSpec | None = None) -> FlowState:
    init.require_probability()
    return _state(w, init, s.n_start, s.time(s.n_start), 0.0, v)


def mix_step(w: PotentialSpec, state: FlowState, lam: float, slack: float, time: float,
             v: PotentialSpec | None = None) -> FlowState:
    """The damped mixing step rho <- (1 - lam) rho + lam Pi(rho), as the
    state n + 1 at ``time``.

    Once the state's center strays more than ``slack`` half-widths from the
    box middle, the box moves by whole cells to put its middle at the center
    (`_box_follows`), and the measure stays where it is.  Each derived
    quantity is computed once: the state's density is read again only when
    its box moves or it was read for another W, and the mixture is read once
    (`_state`).  The convolution matrices and the box's geometry, V at its
    cells included, come from their caches, so a step whose box stands
    still builds neither.  The
    step distance is tp from the density mixed, on the box it was mixed in,
    whose CDF the density mixed kept from the step before."""
    rho, sums = state.density, state.sums
    if abs(state.center - 0.5 * (rho.lo + rho.hi)) > slack * 0.5 * (rho.hi - rho.lo):
        rho = _box_follows(rho, state.center)
    if rho is not state.density or sums.potential != w:
        sums = density_sums(w, rho)
    image = gibbs_map(w, sums, v=v, grid=rho)
    mixed = GridDensity.proportional_to(
        rho.lo, rho.hi, (1.0 - lam) * rho.values + lam * image.values)
    step = tp_distance_1d(w, rho, mixed)
    return _state(w, mixed, state.n + 1, time, step, v)


def euler_step(w: PotentialSpec, state: FlowState, next_time: float,
               v: PotentialSpec | None = None) -> FlowState:
    """One flow step: `mix_step` at lam = dT / T_next, the box following the
    center once it strays past 10% of the half-width."""
    if next_time <= state.time:
        raise InvalidInputError("next_time must exceed the state time")
    lam = (next_time - state.time) / next_time
    if not 0.0 < lam < 1.0:
        raise InvalidInputError(f"mixing weight {lam} outside (0, 1)")
    with _failing_at(f"flow step from n = {state.n}, t = {state.time!r}"):
        return mix_step(w, state, lam, 0.1, next_time, v=v)


@dataclass(frozen=True)
class FixedPointResult:
    density: GridDensity
    residuals: tuple[float, ...]
    energies: tuple[float, ...]


def solve_fixed_point(w: PotentialSpec, init: GridDensity,
                      v: PotentialSpec | None = None, damping: float = 0.5,
                      tol: float = 1e-12, max_iter: int = 500) -> FixedPointResult:
    """Damped iteration of `mix_step` at lam = ``damping``.

    When W has a center, the box follows every iterate (slack 0); otherwise
    it stays where it starts.  Convergence is measured by the translation
    distance between successive iterates.  The result carries the last
    iterate, the residuals and the free energy of every iterate.  A
    quadratic-shifted W without V is rejected: its Gibbs map sends every
    measure of mean m to N(m + 1, 1/c), so the iterates drift and never settle.
    """
    if w.kind == "quadratic-shifted" and v is None:
        raise InvalidInputError(
            "a quadratic-shifted W without V has no fixed point: the Gibbs map "
            "translates every measure by +1; `appendix2` follows its drifting center")
    if not 0.0 < damping <= 1.0:
        raise InvalidInputError("damping must lie in (0, 1]")
    if max_iter < 1:
        raise InvalidInputError("max_iter must be positive")
    init.require_probability()
    slack = 0.0 if w.convexity_constant > 0 else math.inf
    state = _state(w, init, 0, 0.0, 0.0, v)
    residuals, energies = [], []
    for k in range(1, max_iter + 1):
        last = f"{residuals[-1]:.3e}" if residuals else "none"
        with _failing_at(f"fixed-point iteration {k} (last residual {last})"):
            state = mix_step(w, state, damping, slack, float(k), v=v)
        residuals.append(state.step_distance)
        energies.append(state.free_energy.total)
        if state.step_distance < tol:
            return FixedPointResult(state.density, tuple(residuals), tuple(energies))
    raise NumericFailureError(
        f"fixed point not reached in {max_iter} iterations (residual {residuals[-1]:.3e})")


@dataclass(frozen=True)
class FlowRun:
    """What a flow keeps: one column per scalar of its states, n_start to
    n_end, the total free energy relative to the fixed point's, and its last
    state, whose density is the only one it holds.  Its length is the number
    of states."""

    n: np.ndarray
    time: np.ndarray
    center: np.ndarray
    step_tp: np.ndarray
    entropy: np.ndarray
    external: np.ndarray
    interaction: np.ndarray
    total: np.ndarray
    relative: np.ndarray
    final: FlowState

    def __len__(self) -> int:
        return self.n.size


def _scalars(st: FlowState) -> tuple:
    """A state's row of the `FlowRun` columns, in their order."""
    e = st.free_energy
    return (st.n, st.time, st.center, st.step_distance, e.entropy, e.external_term,
            e.interaction_term, e.total)


def run_flow(w: PotentialSpec, init: GridDensity, s: Schedule,
             v: PotentialSpec | None = None,
             rho_inf: GridDensity | None = None, **fixpoint) -> FlowRun:
    """The flow from n_start to n_end, with energies relative to the fixed
    point.  When not supplied, the fixed point is solved on the same grid by
    `solve_fixed_point`, with its defaults or the keywords ``fixpoint``.

    Each step replaces the one state held and appends its scalars to the
    columns, so no density outlives the step after it."""
    if rho_inf is None:
        with _failing_at("the flow's reference fixed point"):
            rho_inf = solve_fixed_point(w, init, v=v, **fixpoint).density
    ref = free_energy(w, rho_inf, v=v).total
    state = initial_state(w, init, s, v=v)
    rows = [_scalars(state)]
    for n in s.indices():
        state = euler_step(w, state, s.time(n + 1), v=v)
        rows.append(_scalars(state))
    cols = [np.array(c) for c in zip(*rows)]
    return FlowRun(*cols, relative=cols[-1] - ref, final=state)


def envelope_compare(times, relative, params: RateParams) -> dict:
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
    satisfied = f_rel <= y_at + _ENVELOPE_TOL
    positive = f_rel > 0
    a_fit = float("nan")
    if positive.sum() >= 2:
        a_fit = decay_exponent(times[positive], f_rel[positive], params.k)
    return {
        "fraction_satisfied": float(satisfied.mean()),
        "n_steps": times.size,
        "decay_exponent": a_fit,
        "envelope_start": y0,
        "times": times,
        "energy_trace": f_rel,
        "envelope_trace": y_at,
    }
