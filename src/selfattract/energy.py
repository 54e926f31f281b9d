"""Free-energy functionals and the decay-rate machinery.

The free energy of a density is its entropy plus the external term plus
half the self-interaction double integral.  Every interaction integral --
self (1-d and 2-d), cross and against a signed difference (1-d) -- is the
bilinear form of `powersums` in cell power sums taken about the shared
grid's midpoint.  For polynomial W it equals the cell-by-cell double sum up to
rounding, in O(n) time and memory, so the quadratic-expansion identities
below hold to rounding on a shared grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError
from .gridkernel import grid_power_sums, interaction_energy, potential_on_grid
from .measures import GridDensity
from .potentials import PotentialSpec
from .powersums import interaction_form

_ENTROPY_FLOOR = 1e-300


@dataclass(frozen=True)
class EnergyBreakdown:
    entropy: float
    external_term: float
    interaction_term: float
    relative_to: float | None = None

    @property
    def total(self) -> float:
        return self.entropy + self.external_term + self.interaction_term

    @property
    def relative(self) -> float | None:
        if self.relative_to is None:
            return None
        return self.total - self.relative_to


def entropy(m: GridDensity) -> float:
    """Quadrature of m log m with the continuous extension 0 log 0 = 0."""
    v = m.values
    if np.any(v < 0):
        raise InvalidInputError("entropy needs a non-negative density")
    mask = v > _ENTROPY_FLOOR
    return float((v[mask] * np.log(v[mask])).sum() * m.cell_volume)


def free_energy(w: PotentialSpec, m: GridDensity,
                v: PotentialSpec | None = None,
                relative_to: float | None = None) -> EnergyBreakdown:
    """Entropy + external term + half the interaction double integral."""
    ent = entropy(m)
    ext = 0.0
    if v is not None:
        ext = float((potential_on_grid(v, m) * m.values).sum()) * m.cell_volume
    inter = interaction_energy(w, m)
    return EnergyBreakdown(entropy=ent, external_term=ext, interaction_term=inter,
                           relative_to=relative_to)


def relative_free_energy(w: PotentialSpec, m: GridDensity, rho_inf: GridDensity,
                         v: PotentialSpec | None = None) -> float:
    """Difference of free-energy totals; zero at the fixed point itself."""
    return free_energy(w, m, v=v).total - free_energy(w, rho_inf, v=v).total


def _require_shared_grid(a: GridDensity, b: GridDensity):
    if a.dim != 1 or b.dim != 1 or a.cells != b.cells \
            or not np.allclose(a.lo, b.lo) or not np.allclose(a.hi, b.hi):
        raise InvalidInputError("both densities must live on one shared 1-d grid")


def frozen_energy_difference(w: PotentialSpec, mu: GridDensity,
                             nu: GridDensity) -> tuple[float, float]:
    """Both sides of the quadratic expansion of the frozen-potential energy gap.

    Left side: difference of free energies in the potential generated by mu.
    Right side: difference of self-consistent free energies plus half the
    interaction energy of the signed difference.  The two agree identically
    for an even interaction.
    """
    _require_shared_grid(mu, nu)
    s_mu = grid_power_sums(w, mu, mu.values)
    s_diff = grid_power_sums(w, mu, mu.values - nu.values)
    lhs = entropy(mu) - entropy(nu) + interaction_form(w, s_diff, s_mu)
    rhs = (free_energy(w, mu).total - free_energy(w, nu).total
           + 0.5 * interaction_form(w, s_diff, s_diff))
    return lhs, rhs


def mixing_inequality(w: PotentialSpec, mu: GridDensity, nu: GridDensity,
                      lam: float) -> tuple[float, float]:
    """Free energy of the mixture versus its first-order expansion bound.

    Returns (lhs, rhs) with lhs <= rhs guaranteed by the convexity of
    x log x; both sides omit the common reference constant, which cancels.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidInputError("mixing weight must lie in [0, 1]")
    _require_shared_grid(mu, nu)
    mix = GridDensity(mu.lo, mu.hi, (1.0 - lam) * mu.values + lam * nu.values)
    lhs = free_energy(w, mix).total
    gap_lhs, _ = frozen_energy_difference(w, mu, nu)
    s_diff = grid_power_sums(w, mu, mu.values - nu.values)
    rhs = (free_energy(w, mu).total - lam * gap_lhs
           + 0.5 * lam * lam * interaction_form(w, s_diff, s_diff))
    return lhs, rhs


def frozen_energy(w: PotentialSpec, mu: GridDensity, g: GridDensity) -> float:
    """Free energy of g in the external potential generated by mu."""
    _require_shared_grid(mu, g)
    return entropy(g) + interaction_form(w, grid_power_sums(w, g, g.values),
                                         grid_power_sums(w, mu, mu.values))


# ---------------------------------------------------------------------------
# decay-rate function and energy envelope


@dataclass(frozen=True)
class RateParams:
    """Parameters of the piecewise decay-rate function g.

    The true constants exist but are not computable from the inputs at
    hand; the defaults are placeholders for envelope demonstrations and
    rate reports, never asserted values.
    """

    c7: float = 1.0
    eps0: float = math.exp(-2.0)
    eps1: float = 1.0
    k: int = 2

    def __post_init__(self):
        if not (self.c7 > 0 and 0 < self.eps0 < 1 and self.eps1 > self.eps0
                and self.k >= 1):
            raise InvalidInputError("rate parameters out of range")


def rate_function(params: RateParams, energy_value: float) -> float:
    """Increasing continuous rate: c7 E/|log E|^k on [0, eps0], linear through
    the origin on (eps0, eps1], affine slope-one beyond."""
    if energy_value < 0:
        raise InvalidInputError("rate function takes non-negative arguments")
    e0, e1, c7, k = params.eps0, params.eps1, params.c7, params.k
    if energy_value == 0.0:
        return 0.0
    if energy_value <= e0:
        return c7 * energy_value / abs(math.log(energy_value)) ** k
    g_e0 = c7 * e0 / abs(math.log(e0)) ** k
    if energy_value <= e1:
        return energy_value / e0 * g_e0
    g_e1 = e1 / e0 * g_e0
    return energy_value + (g_e1 - e1)


def energy_envelope(params: RateParams, y0: float, t0: float, t1: float,
                    n_steps: int = 4000) -> tuple[np.ndarray, np.ndarray]:
    """Decreasing envelope y(t) solving y' = -g(y)/(2t), sampled on log-time.

    Integrated with classic fourth-order Runge-Kutta in theta = log t; in
    the small-y regime the solution matches the closed form
    exp(-((c7/2)(k+1) log(t/T0))^(1/(k+1))).
    """
    if y0 <= 0 or t0 <= 0 or t1 <= t0:
        raise InvalidInputError("need y0 > 0 and t1 > t0 > 0")
    theta0, theta1 = math.log(t0), math.log(t1)
    dth = (theta1 - theta0) / n_steps
    ys = np.empty(n_steps + 1)
    ys[0] = y0
    y = y0
    floor = 1e-300

    def rhs(val: float) -> float:
        return -0.5 * rate_function(params, max(val, 0.0))

    for i in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dth * k1)
        k3 = rhs(y + 0.5 * dth * k2)
        k4 = rhs(y + dth * k3)
        y = y + dth / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not math.isfinite(y):
            raise NumericFailureError("envelope integration lost finiteness")
        y = max(y, floor)
        ys[i + 1] = y
    ts = np.exp(np.linspace(theta0, theta1, n_steps + 1))
    return ts, ys


def envelope_closed_form(params: RateParams, y_start: float, t_start: float,
                         ts: np.ndarray) -> np.ndarray:
    """Small-y closed form of the envelope, anchored at (t_start, y_start)."""
    if y_start >= params.eps0:
        raise InvalidInputError("closed form is valid in the small-y branch only")
    u0 = -math.log(y_start)
    k = params.k
    base = u0 ** (k + 1) + 0.5 * params.c7 * (k + 1) * np.log(np.asarray(ts) / t_start)
    return np.exp(-(base ** (1.0 / (k + 1))))
