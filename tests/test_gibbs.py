import math

import numpy as np
import pytest

from selfattract import (GridDensity, NumericFailureError, ParticleMeasure,
                         center, dirac, even_polynomial, external_polynomial,
                         frozen_energy_difference, gaussian_density,
                         gibbs_map, quadratic_shifted, quadratic_symmetric,
                         recenter, smooth, solve_fixed_point, tp_distance_1d,
                         uniform_density, zero_interaction)
from selfattract import flow as flow_module
from selfattract.errors import InvalidInputError
from selfattract.measures import box_geometry
from selfattract.powersums import convolution_matrix
from selfattract.potentials import as_envelope
from conftest import make_rng, random_mixture
from oracles import tail_certificate


def p_norm_difference(p, a: GridDensity, b: GridDensity) -> float:
    """Envelope norm of the signed difference of two densities on one grid."""
    if a.values.size != b.values.size or not np.allclose([a.lo, a.hi], [b.lo, b.hi]):
        raise InvalidInputError("densities must share one grid")
    env = as_envelope(p)
    xs = a.centers()
    return float(env(np.abs(xs)) @ np.abs(a.values - b.values)) * a.spacing


def gauss_values(xs, mean, sigma=1.0):
    return np.exp(-0.5 * ((xs - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


class TestGibbsMap:
    def test_quadratic_gives_gaussian_at_the_mean(self, quad):
        m = ParticleMeasure(np.array([0.1, 1.3]), np.array([0.5, 0.5]))
        image = gibbs_map(quad, m)
        xs = image.centers()
        assert np.abs(image.values - gauss_values(xs, 0.7)).max() <= 1e-6
        assert center(quad, image) == pytest.approx(0.7, abs=1e-8)

    def test_shifted_potential_shifts_the_gaussian(self):
        w = quadratic_shifted(1.0)
        m = ParticleMeasure(np.array([-0.5, 0.9]), np.array([0.5, 0.5]))
        mean = m.mean()
        image = gibbs_map(w, m)
        xs = image.centers()
        assert np.abs(image.values - gauss_values(xs, mean + 1.0)).max() <= 1e-6

    def test_fixed_point_is_invariant(self, quad):
        rho = solve_fixed_point(quad, uniform_density(-6, 6, 1024)).density
        image = gibbs_map(quad, rho, grid=rho)
        assert np.abs(image.values - rho.values).max() <= 1e-8

    def test_mass_is_exactly_one_and_positive(self, quad):
        image = gibbs_map(quad, dirac(0.4))
        assert image.mass == pytest.approx(1.0, abs=1e-12)
        assert np.all(image.values > 0)

    def test_tail_decays_at_the_convexity_rate(self, quad):
        image = gibbs_map(quad, dirac(0.0))
        assert tail_certificate(quad, image, alpha=quad.convexity_constant) < 10.0

    def test_given_grid_solves_no_center(self, quad, monkeypatch):
        # the image is the density alone: on a given grid no Newton center runs
        def no_center(*args, **kwargs):
            raise AssertionError("gibbs_map called center")

        monkeypatch.setattr("selfattract.gibbs.center", no_center)
        rho = gaussian_density(0.3, 1.0, -8, 8, 256)
        image = gibbs_map(quad, rho, grid=rho)
        assert image.mass == pytest.approx(1.0, abs=1e-12)

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
            num = p_norm_difference(quad, gibbs_map(quad, m1, grid=base),
                                    gibbs_map(quad, m2, grid=base))
            den = p_norm_difference(quad, m1, m2)
            if den > 1e-12:
                ratios.append(num / den)
        assert ratios and max(ratios) < 50.0

    def test_gibbs_image_minimizes_frozen_energy(self, quad):
        # lhs(mu, nu) of `frozen_energy_difference` is F_mu(mu) - F_mu(nu), so
        # F_mu(image) <= F_mu(nu) reads lhs(mu, nu) <= lhs(mu, image)
        gen = make_rng(15)
        mu = random_mixture(gen, cells=512)
        image = gibbs_map(quad, mu, grid=mu)
        best, _ = frozen_energy_difference(quad, mu, image)
        for _ in range(10):
            other = random_mixture(gen, cells=512)
            gap, _ = frozen_energy_difference(quad, mu, other)
            assert gap - best <= 1e-9


class TestFixedPoint:
    def test_quadratic_from_uniform_hits_standard_gaussian(self, quad):
        rho = solve_fixed_point(quad, uniform_density(-5, 5, 1024)).density
        xs = rho.centers()
        assert np.abs(rho.values - gauss_values(xs, 0.0)).max() <= 1e-3

    def test_zero_interaction_one_undamped_step(self):
        w = zero_interaction()
        v = external_polynomial([0.5])  # V = x^2/2
        rho = solve_fixed_point(w, uniform_density(-6, 6, 512), v=v, damping=1.0).density
        xs = rho.centers()
        assert np.abs(rho.values - gauss_values(xs, 0.0)).max() <= 1e-6

    def test_symmetric_potential_symmetric_fixed_point(self):
        w = quadratic_symmetric(0.8)
        rho = solve_fixed_point(w, uniform_density(-7, 7, 1024)).density
        xs = rho.centers()
        odd1 = float(xs @ rho.values) * rho.spacing
        odd3 = float((xs ** 3) @ rho.values) * rho.spacing
        assert abs(odd1) <= 1e-8 and abs(odd3) <= 1e-8

    def test_quartic_interaction_converges(self):
        from selfattract import even_polynomial

        w = even_polynomial([0.5, 0.1])
        rho = solve_fixed_point(w, uniform_density(-6, 6, 512)).density
        image = gibbs_map(w, rho, grid=rho)
        assert np.abs(image.values - rho.values).max() <= 1e-7

    @pytest.mark.parametrize("w", [quadratic_symmetric(1.0), even_polynomial([0.5, 0.1])],
                             ids=["quadratic", "quartic"])
    def test_box_follows_an_off_center_start(self, w):
        # the box moves by whole cells to the measure, which stays put: every
        # start converges where it is, and at whole-cell starts (h = 1/64)
        # the centered result is the centered result of the start at 0
        def solve(x0):
            init = smooth(dirac(x0), 0.5, lo=-8, hi=8, cells=1024)
            rho = solve_fixed_point(w, init).density
            c = center(w, rho)
            assert abs(c - x0) <= 0.25
            assert abs(c - 0.5 * (rho.lo + rho.hi)) <= 0.5 * rho.spacing
            return recenter(rho, c)

        at_zero = solve(0.0)
        for x0 in (0.4, 1.0, 3.0):
            rho = solve(x0)
            if x0 * 64 == round(x0 * 64):
                assert tp_distance_1d(w, rho, at_zero) <= 1e-10

    @pytest.mark.parametrize("w", [quadratic_symmetric(1.0), even_polynomial([0.5, 0.1])],
                             ids=["quadratic", "quartic"])
    def test_moving_box_residuals_match_cold_caches(self, w, monkeypatch):
        # V pulls an off-center start to 0, and the box follows it there in
        # several moves; clearing every cache between iterations (after each
        # residual) changes no bit of the residuals
        v = external_polynomial([0.5])
        init = smooth(dirac(2.3), 0.5, lo=-8, hi=8, cells=512)
        boxes = set()
        follows = flow_module._box_follows

        def record(g, c):
            moved = follows(g, c)
            boxes.add(moved.lo)
            return moved

        monkeypatch.setattr(flow_module, "_box_follows", record)
        warm = solve_fixed_point(w, init, v=v, tol=1e-11)
        assert len(boxes) >= 3
        tp = flow_module.tp_distance_1d

        def tp_then_clear(*args):
            out = tp(*args)
            convolution_matrix.cache_clear()
            box_geometry.cache_clear()
            for m in args[1:]:
                vars(m).pop("cdf", None)   # each density's memoized CDF
            return out

        monkeypatch.setattr(flow_module, "tp_distance_1d", tp_then_clear)
        cold = solve_fixed_point(w, init, v=v, tol=1e-11)
        assert warm.residuals == cold.residuals and warm.energies == cold.energies
        assert np.array_equal(warm.density.values, cold.density.values)

    def test_divergent_damping_rejected(self, quad):
        with pytest.raises(Exception):
            solve_fixed_point(quad, uniform_density(-5, 5, 512), damping=0.0)

    def test_no_iteration_rejected(self, quad):
        # max_iter = 0 has no residual to report
        with pytest.raises(InvalidInputError, match="max_iter must be positive"):
            solve_fixed_point(quad, uniform_density(-5, 5, 512), max_iter=0)

