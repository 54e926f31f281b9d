"""The anchored power-sum engine and the translation equivariance it buys.

Without V the model depends only on differences X_t - X_s, so shifting the
input by s must shift every output by s: centers, Gibbs densities, free
energies and SDE paths alike.
"""

from functools import lru_cache

import numpy as np
import pytest

from selfattract import (GridDensity, ParticleMeasure, SimConfig, center,
                         convolve_potential, even_polynomial, external_polynomial,
                         free_energy, frozen_energy_difference, gaussian_density, gibbs_map,
                         quadratic_shifted, quadratic_symmetric, simulate,
                         simulate_ensemble, zero_interaction)
from selfattract import sde
from selfattract.energy import interaction_energy
from selfattract.powersums import convolution_matrix, power_sums, reanchor
from conftest import make_rng, peak_bytes
from oracles import full_history_path

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


def test_convolution_matrix_is_memoized_and_read_only():
    # every caller shares one matrix per (potential, order): a write raises
    w = even_polynomial([0.5, 0.1])
    T = convolution_matrix(w, 1)
    assert convolution_matrix(even_polynomial([0.5, 0.1]), 1) is T
    with pytest.raises(ValueError):
        T[0, 0] = 1.0
    convolution_matrix.cache_clear()
    fresh = convolution_matrix(w, 1)
    assert fresh is not T and np.array_equal(fresh, T)
    assert not fresh.flags.writeable
    assert convolution_matrix(w, 0).shape == (5, 5) and fresh.shape == (4, 4)


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
    xs = g.centers()
    kernel = np.polynomial.polynomial.polyval(xs[:, None] - xs[None, :],
                                              w.poly1d_coefficients())
    want = 0.5 * float(g.values @ kernel @ g.values) * g.spacing ** 2
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
    base = gibbs_map(w, atoms)
    moved = gibbs_map(w, shifted(atoms, s))
    assert float(np.abs(moved.values - base.values).max()) <= 1e-9


@pytest.mark.parametrize("name", POTENTIALS)
@pytest.mark.parametrize("s", SHIFTS)
def test_free_energy_is_equivariant(name, s):
    w = POTENTIALS[name]
    grid = gaussian_density(0.5, 1.2, -8.0, 8.0, 1024)
    moved = GridDensity(grid.lo + s, grid.hi + s, grid.values)
    want = free_energy(w, grid).total
    assert free_energy(w, moved).total == pytest.approx(want, rel=1e-12)


# A measure on a line in R^2: for a radial W(x) = w(|x|) its sums in the
# plane are the 1-d sums of its coordinate t along the line, so the engine
# is checked against direct 2-d double sums wherever the line sits.
POTENTIALS_2D = dict(POTENTIALS, flat_quartic=even_polynomial([0.5, 0.0]))
DIRECTIONS = {"x1": (1.0, 0.0), "x2": (0.0, 1.0), "diagonal": (1.0, 1.0)}


def line_through(direction: str, s: float) -> tuple[np.ndarray, float]:
    """The unit vector u of a direction, and the coordinate along u of the
    shift s * direction."""
    d = np.array(DIRECTIONS[direction])
    return d / np.linalg.norm(d), s * float(np.linalg.norm(d))


def random_grid_on_line(offset: float) -> GridDensity:
    vals = make_rng(8).uniform(0.1, 1.0, 64)
    return GridDensity(-3.0 + offset, 2.5 + offset, vals).normalized()


def radial_terms(w, v: np.ndarray, order: int) -> np.ndarray:
    """W, grad W or hess W at each row of v, from W(x) = sum_j c_j |x|^(2j)."""
    c = w.poly1d_coefficients()[2::2]
    r2 = np.einsum("...k,...k->...", v, v)
    if order == 0:
        return sum(cj * r2 ** j for j, cj in enumerate(c, start=1))
    s = sum(2 * j * cj * r2 ** (j - 1) for j, cj in enumerate(c, start=1))
    if order == 1:
        return s[..., None] * v
    t = sum(4 * j * (j - 1) * cj * r2 ** (j - 2) for j, cj in enumerate(c, start=1) if j > 1)
    return s[..., None, None] * np.eye(2) + np.asarray(t)[..., None, None] \
        * v[..., :, None] * v[..., None, :]


def direct_sums_2d(w, g: GridDensity, u: np.ndarray, x: np.ndarray):
    """(W*g)(x) and its gradient and Hessian in the plane, for g laid on the
    line t -> t u, and half the double sum of g W g, term by term."""
    pts = g.centers()[:, None] * u
    mass = g.values * g.spacing
    conv = [np.tensordot(mass, radial_terms(w, x - pts, k), axes=1) for k in (0, 1, 2)]
    kernel = radial_terms(w, pts[:, None, :] - pts[None, :, :], 0)
    return conv, 0.5 * float(mass @ kernel @ mass)


@pytest.mark.parametrize("name", POTENTIALS_2D)
@pytest.mark.parametrize("s, direction", [(0.0, "x1")] + [(s, d) for s in SHIFTS
                                                          for d in DIRECTIONS])
def test_2d_engine_equals_direct_double_sums(name, s, direction):
    w = POTENTIALS_2D[name]
    u, offset = line_through(direction, s)
    g = random_grid_on_line(offset)
    t = offset + 1.3
    conv, energy = direct_sums_2d(w, g, u, t * u)
    got = [convolve_potential(w, g, t, order) for order in (0, 1, 2)]
    assert abs(got[0] - conv[0]) <= 1e-12 * abs(conv[0])
    assert np.linalg.norm(got[1] * u - conv[1]) <= 1e-12 * np.linalg.norm(conv[1])
    assert abs(got[2] - u @ conv[2] @ u) <= 1e-12 * abs(u @ conv[2] @ u)
    assert interaction_energy(w, g) == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize("name", POTENTIALS_2D)
@pytest.mark.parametrize("s", SHIFTS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_2d_center_gibbs_and_energy_are_equivariant(name, s, direction):
    w = POTENTIALS_2D[name]
    u, offset = line_through(direction, s)
    shift = s * np.array(DIRECTIONS[direction])
    base, moved = random_grid_on_line(0.0), random_grid_on_line(offset)
    assert np.abs(center(w, moved) * u - shift - center(w, base) * u).max() \
        <= 1e-9 * max(1.0, s)
    box = np.full(64, 1.0 / 12.0)
    on_base = GridDensity(-6.0, 6.0, box)
    on_moved = GridDensity(on_base.lo + offset, on_base.hi + offset, box)
    want = gibbs_map(w, base, grid=on_base).values
    got = gibbs_map(w, moved, grid=on_moved).values
    assert np.abs(got - want).max() <= 1e-9
    assert interaction_energy(w, moved) == pytest.approx(interaction_energy(w, base),
                                                         rel=1e-12)


def test_2d_zero_interaction_is_zero():
    w = zero_interaction()
    _, offset = line_through("diagonal", 10.0)
    g = random_grid_on_line(offset)
    for order in (0, 1, 2):
        assert convolve_potential(w, g, offset + 1.3, order) == 0.0
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
    _, peak = peak_bytes(lambda: (free_energy(w, mu), frozen_energy_difference(w, mu, nu)))
    assert peak < 8 * 2 ** 20



def test_reanchored_paths_match_the_full_history_oracle(monkeypatch):
    # V = x^2 / 2 pulls the path from x0 = 4 toward the origin, so the mean
    # leaves the unit radius about the anchor x0 and the sums re-anchor
    shifts = []
    original = sde.reanchor
    monkeypatch.setattr(sde, "reanchor",
                        lambda sums, shift: shifts.append(shift) or original(sums, shift))
    w, v = even_polynomial([0.5, 0.25]), external_polynomial([0.5])
    cfg = SimConfig(dt=0.01, t_end=6.0, t_start=1.0, seed=5)
    single = simulate(w, 4.0, cfg, v=v)
    assert shifts
    oracle, _ = full_history_path(w, 4.0, cfg, v=v)
    assert np.abs(single.positions - oracle).max() <= 1e-12
    ensemble = simulate_ensemble(w, 4.0, cfg, 2, v=v)
    assert np.abs(ensemble[0].positions - single.positions).max() <= 1e-13
