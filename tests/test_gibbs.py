import math

import numpy as np
import pytest

from selfattract import (GridDensity, NumericFailureError, ParticleMeasure,
                         dirac, entropy, even_polynomial, external_polynomial,
                         gaussian_density, gibbs_map, quadratic_shifted,
                         quadratic_symmetric, solve_fixed_point, tail_profile,
                         uniform_density, zero_interaction)
from selfattract.energy import frozen_energy
from selfattract.measures import p_norm_difference
from conftest import make_rng, random_mixture


def gauss_values(xs, mean, sigma=1.0):
    return np.exp(-0.5 * ((xs - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


class TestGibbsMap:
    def test_quadratic_gives_gaussian_at_the_mean(self, quad):
        m = ParticleMeasure(np.array([0.1, 1.3]), np.array([0.5, 0.5]))
        res = gibbs_map(quad, m, cells=1024)
        xs = res.density.axis_centers(0)
        assert np.abs(res.density.values - gauss_values(xs, 0.7)).max() <= 1e-6
        assert res.center == pytest.approx(0.7, abs=1e-8)

    def test_shifted_potential_shifts_the_gaussian(self):
        w = quadratic_shifted(1.0)
        m = ParticleMeasure(np.array([-0.5, 0.9]), np.array([0.5, 0.5]))
        mean = m.mean()
        res = gibbs_map(w, m, cells=1024)
        xs = res.density.axis_centers(0)
        assert np.abs(res.density.values - gauss_values(xs, mean + 1.0)).max() <= 1e-6

    def test_fixed_point_is_invariant(self, quad):
        rho = solve_fixed_point(quad, uniform_density(-6, 6, 1024))
        image = gibbs_map(quad, rho, grid=rho).density
        assert np.abs(image.values - rho.values).max() <= 1e-8

    def test_mass_is_exactly_one_and_positive(self, quad):
        res = gibbs_map(quad, dirac(0.4), cells=512)
        assert res.density.mass == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.density.values > 0)

    def test_tail_decays_at_the_convexity_rate(self, quad):
        res = gibbs_map(quad, dirac(0.0))
        prof = tail_profile(quad, res.density, alpha=quad.convexity_constant)
        assert prof.certificate is not None and prof.certificate < 10.0

    def test_log_partition_quadratic_closed_form(self, quad):
        # W*m = x^2/2 - m1 x + m2/2 -> log Z = log sqrt(2 pi) + (m1^2 - m2)/2
        m = ParticleMeasure(np.array([0.2, 1.2]), np.array([0.5, 0.5]))
        m1 = m.mean()
        m2 = float(m.weights @ m.positions ** 2)
        res = gibbs_map(quad, m)
        want = 0.5 * math.log(2 * math.pi) + 0.5 * (m1 * m1 - m2)
        assert res.log_partition == pytest.approx(want, abs=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergent_envelope_norm_fails(self):
        # quartic envelope at 1e80 overflows: p_norm is the one check
        with pytest.raises(NumericFailureError, match="envelope norm diverged"):
            gibbs_map(even_polynomial([0.5, 0.1]), dirac(1e80))

    def test_misplaced_grid_fails_with_hint(self, quad):
        grid = uniform_density(40.0, 50.0, 256)
        with pytest.raises(NumericFailureError, match="re-center"):
            gibbs_map(quad, dirac(0.0), grid=grid)

    def test_empirical_lipschitz_ratio_bounded(self, quad):
        gen = make_rng(9)
        ratios = []
        base = uniform_density(-8, 8, 512)
        for _ in range(15):
            m1 = random_mixture(gen, cells=512)
            m2 = random_mixture(gen, cells=512)
            num = p_norm_difference(quad, gibbs_map(quad, m1, grid=base).density,
                                    gibbs_map(quad, m2, grid=base).density)
            den = p_norm_difference(quad, m1, m2)
            if den > 1e-12:
                ratios.append(num / den)
        assert ratios and max(ratios) < 50.0

    def test_gibbs_image_minimizes_frozen_energy(self, quad):
        gen = make_rng(15)
        mu = random_mixture(gen, cells=512)
        image = gibbs_map(quad, mu, grid=mu).density
        best = frozen_energy(quad, mu, image)
        for _ in range(10):
            other = random_mixture(gen, cells=512)
            assert best <= frozen_energy(quad, mu, other) + 1e-9


class TestFixedPoint:
    def test_quadratic_from_uniform_hits_standard_gaussian(self, quad):
        rho = solve_fixed_point(quad, uniform_density(-5, 5, 1024))
        xs = rho.axis_centers(0)
        assert np.abs(rho.values - gauss_values(xs, 0.0)).max() <= 1e-3

    def test_zero_interaction_one_undamped_step(self):
        w = zero_interaction()
        v = external_polynomial([0.5])  # V = x^2/2
        rho = solve_fixed_point(w, uniform_density(-6, 6, 512), v=v, damping=1.0)
        xs = rho.axis_centers(0)
        assert np.abs(rho.values - gauss_values(xs, 0.0)).max() <= 1e-6

    def test_symmetric_potential_symmetric_fixed_point(self):
        w = quadratic_symmetric(0.8)
        rho = solve_fixed_point(w, uniform_density(-7, 7, 1024))
        xs = rho.axis_centers(0)
        odd1 = float(xs @ rho.values) * rho.cell_volume
        odd3 = float((xs ** 3) @ rho.values) * rho.cell_volume
        assert abs(odd1) <= 1e-8 and abs(odd3) <= 1e-8

    def test_quartic_interaction_converges(self):
        from selfattract import even_polynomial

        w = even_polynomial([0.5, 0.1])
        rho = solve_fixed_point(w, uniform_density(-6, 6, 512))
        image = gibbs_map(w, rho, grid=rho).density
        assert np.abs(image.values - rho.values).max() <= 1e-7

    def test_divergent_damping_rejected(self, quad):
        with pytest.raises(Exception):
            solve_fixed_point(quad, uniform_density(-5, 5, 512), damping=0.0)

    def test_2d_fixed_point_is_standard_gaussian(self, quad):
        vals = np.full((64, 64), 1.0 / 100.0)
        init = GridDensity(np.array([-5.0, -5.0]), np.array([5.0, 5.0]), vals)
        rho = solve_fixed_point(quad, init, tol=1e-8, max_iter=200)
        r2 = np.sum(rho.centers() ** 2, axis=-1)
        target = np.exp(-r2 / 2) / (2 * math.pi)
        assert np.abs(rho.values - target).max() <= 1e-5
