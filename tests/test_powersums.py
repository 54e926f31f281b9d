"""The anchored power-sum engine and the translation equivariance it buys.

Without V the model depends only on differences X_t - X_s, so shifting the
input by s must shift every output by s: centers, Gibbs densities, free
energies and SDE paths alike.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from selfattract import (GridDensity, ParticleMeasure, SimConfig, center,
                         convolve_potential, dirac, even_polynomial, free_energy,
                         frozen_energy_difference, gaussian_density, gibbs_map,
                         quadratic_shifted, quadratic_symmetric, simulate,
                         simulate_ensemble, zero_interaction)
from selfattract import sde
from selfattract.gridkernel import interaction_energy
from selfattract.powersums import power_sums, reanchor
from conftest import make_rng

POTENTIALS = {
    "quadratic": quadratic_symmetric(1.0),
    "quartic": even_polynomial([0.5, 0.1]),
    "sextic": even_polynomial([0.5, 0.1, 0.01]),
}
SHIFTS = (10.0, 100.0, 1000.0)


def skewed_atoms() -> ParticleMeasure:
    gen = make_rng(5)
    pos = np.concatenate((gen.normal(0.0, 1.0, 300), gen.normal(1.5, 0.4, 100)))
    return ParticleMeasure(pos, gen.uniform(0.5, 1.0, pos.size))


def shifted(m: ParticleMeasure, s: float) -> ParticleMeasure:
    return ParticleMeasure(m.positions + s, m.weights)


def test_reanchor_matches_sums_about_the_new_anchor():
    gen = make_rng(3)
    x = gen.normal(2.0, 1.5, 50)
    w = gen.uniform(-1.0, 1.0, 50)
    for shift in (-1.3, 0.4, 2.5):
        got = reanchor(power_sums(x, w, 2.0, 7), shift)
        want = power_sums(x, w, 2.0 + shift, 7)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-11)
    cols = np.stack([power_sums(x, w, 2.0, 5), power_sums(x, -w, 2.0, 5)], axis=1)
    moved = reanchor(cols, np.array([0.0, -0.7]))
    assert np.array_equal(moved[:, 0], cols[:, 0])
    assert np.allclose(moved[:, 1], power_sums(x, -w, 1.3, 5), rtol=1e-12, atol=1e-11)


@pytest.mark.parametrize("w", [quadratic_symmetric(1.0), quadratic_shifted(1.0),
                               even_polynomial([0.5, 0.1]),
                               even_polynomial([0.5, 0.1, 0.01])],
                         ids=["quadratic", "shifted", "quartic", "sextic"])
@pytest.mark.parametrize("s", [0.0, 100.0])
def test_interaction_energy_equals_direct_double_sum(w, s):
    g = gaussian_density(0.3 + s, 1.0, -6.0 + s, 6.0 + s, 256)
    xs = g.axis_centers(0)
    kernel = np.polynomial.polynomial.polyval(xs[:, None] - xs[None, :],
                                              w.poly1d_coefficients())
    want = 0.5 * float(g.values @ kernel @ g.values) * g.cell_volume ** 2
    assert interaction_energy(w, g) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("name", POTENTIALS)
@pytest.mark.parametrize("s", SHIFTS)
def test_center_is_equivariant(name, s):
    w = POTENTIALS[name]
    atoms = skewed_atoms()
    assert abs(center(w, shifted(atoms, s)) - s - center(w, atoms)) <= 1e-9
    grid = gaussian_density(0.5, 1.2, -8.0, 8.0, 1024)
    moved = GridDensity(grid.lo + s, grid.hi + s, grid.values)
    assert abs(center(w, moved) - s - center(w, grid)) <= 1e-9


@pytest.mark.parametrize("name", POTENTIALS)
@pytest.mark.parametrize("s", SHIFTS)
def test_gibbs_map_is_equivariant(name, s):
    w = POTENTIALS[name]
    atoms = skewed_atoms()
    base = gibbs_map(w, atoms).density
    moved = gibbs_map(w, shifted(atoms, s)).density
    assert float(np.abs(moved.values - base.values).max()) <= 1e-9


@pytest.mark.parametrize("name", POTENTIALS)
@pytest.mark.parametrize("s", SHIFTS)
def test_free_energy_is_equivariant(name, s):
    w = POTENTIALS[name]
    grid = gaussian_density(0.5, 1.2, -8.0, 8.0, 1024)
    moved = GridDensity(grid.lo + s, grid.hi + s, grid.values)
    want = free_energy(w, grid).total
    assert free_energy(w, moved).total == pytest.approx(want, rel=1e-12)


# 2-d: the same engine per axis, checked against direct double sums
POTENTIALS_2D = dict(POTENTIALS, flat_quartic=even_polynomial([0.5, 0.0]))
DIRECTIONS = {"x1": (1.0, 0.0), "x2": (0.0, 1.0), "diagonal": (1.0, 1.0)}


def random_grid_2d(shift) -> GridDensity:
    vals = make_rng(8).uniform(0.1, 1.0, (32, 32))
    return GridDensity(np.array([-3.0, -2.5]) + shift, np.array([2.5, 3.0]) + shift,
                       vals).normalized()


def radial_terms(w, u: np.ndarray, order: int) -> np.ndarray:
    """W, grad W or hess W at each row of u, from W(x) = sum_j c_j |x|^(2j)."""
    c = w.radial_coefficients()[2::2]
    r2 = np.einsum("...k,...k->...", u, u)
    if order == 0:
        return sum(cj * r2 ** j for j, cj in enumerate(c, start=1))
    s = sum(2 * j * cj * r2 ** (j - 1) for j, cj in enumerate(c, start=1))
    if order == 1:
        return s[..., None] * u
    t = sum(4 * j * (j - 1) * cj * r2 ** (j - 2) for j, cj in enumerate(c, start=1) if j > 1)
    return s[..., None, None] * np.eye(2) + np.asarray(t)[..., None, None] \
        * u[..., :, None] * u[..., None, :]


def direct_sums_2d(w, g: GridDensity, x: np.ndarray):
    """(W*g)(x) and its gradient and Hessian, and half the double sum of
    g W g over the cells, term by term."""
    pts = g.centers().reshape(-1, 2)
    mass = g.values.reshape(-1) * g.cell_volume
    conv = [np.tensordot(mass, radial_terms(w, x - pts, k), axes=1) for k in (0, 1, 2)]
    kernel = radial_terms(w, pts[:, None, :] - pts[None, :, :], 0)
    return conv, 0.5 * float(mass @ kernel @ mass)


@pytest.mark.parametrize("name", POTENTIALS_2D)
@pytest.mark.parametrize("s, direction", [(0.0, "x1")] + [(s, d) for s in SHIFTS
                                                          for d in DIRECTIONS])
def test_2d_engine_equals_direct_double_sums(name, s, direction):
    w = POTENTIALS_2D[name]
    shift = s * np.array(DIRECTIONS[direction])
    g = random_grid_2d(shift)
    x = shift + np.array([1.3, -0.8])
    conv, energy = direct_sums_2d(w, g, x)
    for order, want in enumerate(conv):
        got = convolve_potential(w, g, x, order)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert interaction_energy(w, g) == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize("name", POTENTIALS_2D)
@pytest.mark.parametrize("s", SHIFTS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_2d_center_gibbs_and_energy_are_equivariant(name, s, direction):
    w = POTENTIALS_2D[name]
    shift = s * np.array(DIRECTIONS[direction])
    base, moved = random_grid_2d(0.0), random_grid_2d(shift)
    assert np.abs(center(w, moved) - shift - center(w, base)).max() <= 1e-9 * max(1.0, s)
    box = np.full((32, 32), 1.0 / 144.0)
    on_base = GridDensity(np.array([-6.0, -6.0]), np.array([6.0, 6.0]), box)
    on_moved = GridDensity(on_base.lo + shift, on_base.hi + shift, box)
    want = gibbs_map(w, base, grid=on_base).density.values
    got = gibbs_map(w, moved, grid=on_moved).density.values
    assert np.abs(got - want).max() <= 1e-9
    assert interaction_energy(w, moved) == pytest.approx(interaction_energy(w, base),
                                                         rel=1e-12)


def test_2d_zero_interaction_is_zero():
    w, g = zero_interaction(), random_grid_2d(np.array([10.0, -3.0]))
    x = np.array([11.3, -3.8])
    assert convolve_potential(w, g, x, 0) == 0.0
    assert np.all(convolve_potential(w, g, x, 1) == 0.0)
    assert np.all(convolve_potential(w, g, x, 2) == 0.0)
    assert interaction_energy(w, g) == 0.0


EQUIVARIANCE_CFG = SimConfig(dt=0.01, t_end=51.0, t_start=1.0, seed=12)  # 5000 steps


@lru_cache(maxsize=None)
def paths(name: str, x0: float) -> tuple[np.ndarray, np.ndarray]:
    w = POTENTIALS[name]
    single = simulate(w, x0, EQUIVARIANCE_CFG).positions
    ensemble = np.stack([rec.positions for rec in
                         simulate_ensemble(w, x0, EQUIVARIANCE_CFG, 2)])
    return single, ensemble


@pytest.mark.parametrize("name", POTENTIALS)
@pytest.mark.parametrize("s", SHIFTS)
def test_sde_paths_are_equivariant(name, s):
    tol = 1e-9 * max(1.0, s)
    base_single, base_ensemble = paths(name, 0.0)
    single, ensemble = paths(name, s)
    assert base_single.size == EQUIVARIANCE_CFG.n_steps + 1
    assert float(np.abs(single - s - base_single).max()) <= tol
    assert float(np.abs(ensemble - s - base_ensemble).max()) <= tol


def test_energies_on_a_wide_grid_need_linear_memory():
    w = even_polynomial([0.5, 0.1])
    mu = gaussian_density(0.0, 1.0, -8.0, 8.0, 4096)
    nu = gaussian_density(0.5, 1.3, -8.0, 8.0, 4096)
    tracemalloc.start()
    try:
        free_energy(w, mu)
        frozen_energy_difference(w, mu, nu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20



def test_reanchored_paths_match_the_full_history_oracle():
    # the pre-history sits at 0 and the path starts at 4, so the center is
    # far from the anchor x0 at the first recomputation and the sums re-anchor
    w = even_polynomial([0.5, 0.25])
    cfg = SimConfig(dt=0.01, t_end=6.0, t_start=1.0, seed=5)
    single = simulate(w, 4.0, cfg, initial_occupation=dirac(0.0))
    oracle, _ = sde._full_history_path(w, 4.0, cfg, initial_occupation=dirac(0.0))
    assert np.abs(single.positions - oracle).max() <= 1e-12
    ensemble = simulate_ensemble(w, 4.0, cfg, 2, initial_occupation=dirac(0.0))
    assert np.abs(ensemble[0].positions - single.positions).max() <= 1e-13
