import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfattract import (GridDensity, InvalidInputError, NumericFailureError,
                         ParticleMeasure, center, convolve_potential, dirac, entropy,
                         even_polynomial, free_energy, gaussian_density, gibbs_map,
                         quadratic_shifted, quadratic_symmetric, recenter,
                         smooth, tp_distance_1d, uniform_density)
from selfattract import powersums
from selfattract.measures import box_geometry, density_sums
from selfattract.potentials import as_envelope
from conftest import make_rng, random_atoms
from oracles import history_drift, tail_certificate


def halves(a=-1.0, b=1.0):
    return ParticleMeasure(np.array([a, b]), np.array([0.5, 0.5]))


class TestConvolve:
    def test_dirac(self, quad):
        assert convolve_potential(quad, dirac(0.0), 3.0, 0) == 4.5

    def test_two_atoms(self, quad):
        assert convolve_potential(quad, halves(), 0.0, 0) == pytest.approx(0.5)

    def test_gaussian_grid(self, quad, std_gauss_grid):
        val = convolve_potential(quad, std_gauss_grid, 0.0, 0)
        assert val == pytest.approx(0.5, abs=1e-6)

    def test_empty_grid_rejected(self, quad):
        g = GridDensity(-1.0, 1.0, np.zeros(32))
        with pytest.raises(InvalidInputError):
            convolve_potential(quad, g, 0.0, 0)

    def test_gradient_order(self, quad):
        m = halves(0.0, 2.0)
        # grad(W*m)(x) = x - 1
        assert convolve_potential(quad, m, 3.0, 1) == pytest.approx(2.0)
        assert convolve_potential(quad, m, 3.0, 2) == pytest.approx(1.0)


class TestCenter:
    def test_two_atom_mean(self, quad):
        assert center(quad, halves(0.0, 2.0)) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_measure(self, quad):
        assert center(quad, halves()) == pytest.approx(0.0, abs=1e-10)

    def test_shifted_center_is_mean_plus_one(self):
        w = quadratic_shifted(1.0)
        m = ParticleMeasure(np.array([-1.0, 2.0]), np.array([0.25, 0.75]))
        assert center(w, m) == pytest.approx(m.mean() + 1.0, abs=1e-10)

    def test_center_recenter_roundtrip(self, quad):
        gen = make_rng(7)
        for _ in range(20):
            m = random_atoms(gen)
            c = center(quad, m)
            assert center(quad, recenter(m, c)) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("w", [quadratic_symmetric(1.0), even_polynomial([0.5, 0.1]),
                                   even_polynomial([0.5, 0.1, 0.02])],
                             ids=["quadratic", "quartic", "sextic"])
    def test_center_stops_within_the_newton_tolerance(self, w):
        # |W' * m| / mass <= 1e-12 at the center, summed atom by atom, for
        # measures of mass 1 to 7 about 0 and about 40
        gen = make_rng(5)
        g = np.polynomial.polynomial.polyder(w.poly1d_coefficients())
        for k in range(20):
            m = random_atoms(gen)
            pos, wts = m.positions + 40.0 * (k % 2), m.weights * (1 + k % 7)
            c = center(w, ParticleMeasure(pos, wts))
            assert abs(history_drift(g, pos, wts, c)) <= 1e-12

    def test_newton_failure_names_its_residual_and_iterations(self, monkeypatch):
        # one Newton update from the mean leaves a skewed measure under a
        # quartic W short of the tolerance
        w = even_polynomial([0.5, 0.1])
        m = ParticleMeasure(np.array([0.0, 3.0]), np.array([0.9, 0.1]))
        c = center(w, m)
        monkeypatch.setattr(powersums, "_NEWTON_ITERS", 1)
        with pytest.raises(NumericFailureError, match="center Newton") as err:
            center(w, m)
        found = re.search(r"\|g\| = (\S+) after 1 iterations", str(err.value))
        assert found and float(found[1]) > 1e-12
        assert abs(history_drift(np.polynomial.polynomial.polyder(w.poly1d_coefficients()),
                                 m.positions, m.weights, c)) <= 1e-12

    def test_center_lipschitz_via_translation_distance(self, quad):
        # |c1 - c2| <= min(P(|c1|), P(|c2|)) / C_W * tp(m1, m2)
        gen = make_rng(11)
        env = quad.bound
        for _ in range(25):
            m1 = random_atoms(gen, radius=3.0)
            m2 = random_atoms(gen, radius=3.0)
            c1, c2 = center(quad, m1), center(quad, m2)
            lhs = abs(c1 - c2)
            bound = (min(env(abs(c1)), env(abs(c2))) / quad.convexity_constant
                     * tp_distance_1d(env, m1, m2))
            assert lhs <= bound + 1e-9


class TestRecenter:
    def test_dirac(self):
        m = recenter(dirac(2.0), 2.0)
        assert m.positions[0] == 0.0

    def test_identity(self, quad):
        m = halves(0.0, 2.0)
        out = recenter(m, 0.0)
        assert np.array_equal(out.positions, m.positions)

    def test_grid_domain_shift_only(self, quad):
        g = gaussian_density(3.0, 1.0, -4.0, 10.0, 512)
        c = center(quad, g)
        assert c == pytest.approx(3.0, abs=1e-4)
        shifted = recenter(g, c)
        assert np.array_equal(shifted.values, g.values)
        assert shifted.mean() == pytest.approx(0.0, abs=1e-6)


class TestSmooth:
    def test_flat_bump(self):
        g = smooth(dirac(0.0), 0.5, lo=-0.5, hi=0.5, cells=16)
        inside = np.abs(g.centers()) < 0.45
        assert np.allclose(g.values[inside], 1.0)
        assert g.mass == pytest.approx(1.0, abs=1e-12)

    def test_mass_and_mean_preserved(self):
        gen = make_rng(3)
        m = random_atoms(gen, n_max=40)
        # the box of the smoothed support, in cells of at most h/4
        lo, hi = m.positions.min() - 0.3, m.positions.max() + 0.3
        g = smooth(m, 0.3, lo=lo, hi=hi, cells=math.ceil((hi - lo) / 0.075))
        assert g.mass == pytest.approx(m.total_mass, abs=1e-9)
        # mean is preserved up to the midpoint-binning quadrature error
        assert g.mean() == pytest.approx(m.mean(), abs=1e-4)

    def test_entropy_of_smoothed_atom(self):
        for h in (0.5, 1.0):
            g = smooth(dirac(0.0), h, lo=-h, hi=h, cells=512)
            assert entropy(g) == pytest.approx(-math.log(2 * h), abs=1e-9)

    def test_rejects_bad_width(self):
        with pytest.raises(InvalidInputError):
            smooth(dirac(0.0), 0.0, lo=-4.0, hi=4.0, cells=64)

    def test_rejects_coarse_grid(self):
        with pytest.raises(InvalidInputError):
            smooth(dirac(0.0), 0.1, lo=-4.0, hi=4.0, cells=64)


def p_norm(w, m) -> float:
    """The envelope norm of m, as its reader takes it."""
    return density_sums(w, m).envelope_norm


class TestPNorm:
    def test_examples(self):
        w = quadratic_symmetric(1.0, bound_scale=1.0)
        assert p_norm(w, dirac(0.0)) == 1.0
        assert p_norm(w, dirac(2.0)) == 5.0
        assert p_norm(w, halves(0.0, 2.0)) == 3.0

    def test_triangle_with_translation_distance(self):
        # norm(m2) <= norm(m1) + tp(m1, m2) for the degree-2 envelope
        w = quadratic_symmetric(1.0, bound_scale=1.0)
        gen = make_rng(5)
        for _ in range(30):
            m1 = random_atoms(gen)
            m2 = random_atoms(gen)
            assert p_norm(w, m2) <= (p_norm(w, m1)
                                     + tp_distance_1d(w, m1, m2) + 1e-9)


class TestTailProfile:
    def test_gibbs_image_has_exponential_tail(self, quad):
        m = halves(0.0, 2.0)
        dens = gibbs_map(quad, m)
        assert tail_certificate(quad, dens, alpha=quad.convexity_constant) < 5.0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_grid_mass_one_after_normalize(seed):
    gen = make_rng(seed)
    vals = gen.uniform(0.0, 3.0, size=64)
    g = GridDensity(-2.0, 2.0, vals).normalized()
    assert abs(g.mass - 1.0) <= 1e-12


def grid_atoms(g: GridDensity) -> ParticleMeasure:
    """The grid's cells with mass as weighted atoms at their centers."""
    keep = g.values > 0
    return ParticleMeasure(g.centers()[keep], (g.values * g.spacing)[keep])


class TestDensitySums:
    """A measure read once stands in for it bit for bit, and a grid reads
    as its cells with mass read as atoms."""

    @pytest.mark.parametrize("w", [quadratic_symmetric(1.0), quadratic_shifted(0.7),
                                   even_polynomial([0.5, 0.1])],
                             ids=["quadratic", "shifted", "quartic"])
    @pytest.mark.parametrize("start", ["atom", "full"])
    def test_read_matches_the_density(self, w, start):
        # the smoothed atom has empty cells, which the reader drops: its
        # anchor and sums then differ from the grid's, and the free energy
        # reads its own; the full Gaussian covers every cell
        g = (smooth(dirac(1.3), 0.5, lo=-6.5, hi=9.5, cells=512) if start == "atom"
             else gaussian_density(1.3, 1.0, -6.5, 9.5, 512))
        read, atoms = density_sums(w, g), grid_atoms(g)
        assert read.whole == (start == "full")
        # the mean of the sums about their anchor: the atoms' to rounding
        assert read.mean() == pytest.approx(atoms.mean(), rel=0, abs=1e-15)
        by_atoms = density_sums(w, atoms)
        assert (by_atoms.anchor, by_atoms.mean(), by_atoms.envelope_norm) == \
            (read.anchor, read.mean(), read.envelope_norm)
        assert np.array_equal(by_atoms.sums, read.sums) and not by_atoms.whole
        assert center(w, read) == center(w, g)
        xs = np.linspace(-3.0, 5.0, 7)
        for order in (0, 1, 2):
            assert np.array_equal(convolve_potential(w, read, xs, order),
                                  convolve_potential(w, g, xs, order))
        assert np.array_equal(gibbs_map(w, read, grid=g).values,
                              gibbs_map(w, atoms, grid=g).values)
        assert free_energy(w, g, sums=read) == free_energy(w, g)

    def test_divergent_envelope_norm_fails(self):
        g = uniform_density(1e80, 1e80 + 1e70, 64)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericFailureError, match="envelope norm diverged"):
            gibbs_map(even_polynomial([0.5, 0.1]), density_sums(even_polynomial([0.5, 0.1]), g),
                      grid=g)

    def test_grid_box_must_be_finite(self):
        with pytest.raises(InvalidInputError, match="finite"):
            GridDensity(-np.inf, 0.0, np.ones(16))


class TestMemoizedGeometry:
    """What a box or a density fixes is derived once, shared and read-only."""

    def test_box_geometry_is_memoized_and_read_only(self):
        w = even_polynomial([0.5, 0.1])
        g = gaussian_density(0.3, 1.0, -6.0, 6.0, 256)
        geo = g.geometry(w)
        assert GridDensity(g.lo, g.hi, g.values.copy()).geometry(as_envelope(w)) is geo
        assert np.array_equal(geo.centers, g.centers())
        assert np.array_equal(geo.envelope, as_envelope(w)(np.abs(g.centers())))
        for a in (geo.centers, geo.envelope, *geo.primitives):
            with pytest.raises(ValueError):
                a[0] = 1.0
        box_geometry.cache_clear()
        assert g.geometry(w) is not geo

    def test_values_are_read_only_once_the_cdf_is_cached(self):
        vals = make_rng(4).uniform(0.0, 2.0, 64)
        g = GridDensity(-2.0, 2.0, vals)
        g.values[0] = 1.0   # writable until the CDF is taken
        cdf = g.cdf
        cum = np.cumsum(g.values * g.spacing)
        assert g.cdf is cdf and np.array_equal(cdf, cum / cum[-1])
        for a in (g.values, cdf):
            with pytest.raises(ValueError):
                a[0] = 0.5


def test_grid_rejects_too_few_cells():
    with pytest.raises(InvalidInputError):
        GridDensity(0.0, 1.0, np.ones(8))


@pytest.mark.parametrize("build", [
    lambda: ParticleMeasure(np.ones((2, 2)), np.array([0.5, 0.5])),
    lambda: GridDensity(-1.0, 1.0, np.ones((16, 16)))], ids=["particles", "grid"])
def test_non_1d_inputs_rejected(build):
    # the package works on the line: a measure is refused when it is built
    with pytest.raises(InvalidInputError, match="must be a 1-d array"):
        build()


def test_particle_rejects_nonpositive_weights():
    with pytest.raises(InvalidInputError):
        ParticleMeasure(np.array([0.0]), np.array([0.0]))


def test_uniform_density_mass():
    assert uniform_density(-5, 5, 128).mass == pytest.approx(1.0, abs=1e-12)
