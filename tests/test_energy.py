import math

import numpy as np
import pytest

from selfattract import (RateParams, energy_envelope, entropy, free_energy,
                         frozen_energy_difference, gaussian_density,
                         mixing_inequality, rate_function, recenter,
                         relative_free_energy, uniform_density, w2_distance,
                         zero_interaction)
from selfattract.errors import InvalidInputError
from selfattract.gibbs import gibbs_map
from conftest import make_rng, random_mixture
from oracles import displacement_interpolate


def envelope_closed_form(params: RateParams, y_start: float, t_start: float,
                         ts: np.ndarray) -> np.ndarray:
    """Small-y closed form of the envelope, anchored at (t_start, y_start)."""
    if y_start >= params.eps0:
        raise InvalidInputError("closed form is valid in the small-y branch only")
    u0 = -math.log(y_start)
    k = params.k
    base = u0 ** (k + 1) + 0.5 * params.c7 * (k + 1) * np.log(np.asarray(ts) / t_start)
    return np.exp(-(base ** (1.0 / (k + 1))))


def gaussian_free_energy(sigma):
    """F of N(0, sigma^2) under W = x^2/2: entropy + sigma^2/2."""
    return -0.5 * math.log(2 * math.pi * math.e * sigma ** 2) + sigma ** 2 / 2


class TestEntropy:
    def test_uniform_unit_interval(self):
        g = uniform_density(0.0, 1.0, 64)
        assert entropy(g) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_width_two(self):
        g = uniform_density(-1.0, 1.0, 64)
        assert entropy(g) == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_standard_gaussian(self, std_gauss_grid):
        assert entropy(std_gauss_grid) == pytest.approx(
            -0.5 * math.log(2 * math.pi * math.e), abs=1e-4)


class TestFreeEnergy:
    def test_standard_gaussian(self, quad, std_gauss_grid):
        fe = free_energy(quad, std_gauss_grid)
        assert fe.total == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-3)
        assert fe.total == pytest.approx(fe.entropy + fe.external_term
                                         + fe.interaction_term, abs=1e-12)

    def test_zero_interaction_collapses_to_entropy(self, std_gauss_grid):
        fe = free_energy(zero_interaction(), std_gauss_grid)
        assert fe.total == pytest.approx(entropy(std_gauss_grid), abs=1e-12)

    def test_wide_gaussian(self, quad):
        g = gaussian_density(0.0, 2.0, -14, 14, 2048)
        want = -0.5 * math.log(8 * math.pi) - 0.5 + 2.0
        assert free_energy(quad, g).total == pytest.approx(want, abs=1e-3)


class TestRelativeFreeEnergy:
    def test_self_is_zero(self, quad, std_gauss_grid):
        assert relative_free_energy(quad, std_gauss_grid, std_gauss_grid) == 0.0

    def test_gaussian_closed_form(self, quad, std_gauss_grid):
        g = gaussian_density(0.0, 1.2, -10, 10, 2048)
        want = gaussian_free_energy(1.2) - gaussian_free_energy(1.0)
        got = relative_free_energy(quad, g, std_gauss_grid)
        assert got == pytest.approx(want, abs=1e-4)
        assert got == pytest.approx(0.0377, abs=1e-3)

    def test_nonnegative_for_centered_densities(self, quad, std_gauss_grid):
        gen = make_rng(19)
        for _ in range(15):
            m = random_mixture(gen, lo=-10, hi=10, cells=1024)
            m = recenter(m, m.mean())
            assert relative_free_energy(quad, m, std_gauss_grid) >= -1e-9


class TestQuadraticExpansionIdentity:
    def test_identical_inputs(self, quad, std_gauss_grid):
        lhs, rhs = frozen_energy_difference(quad, std_gauss_grid, std_gauss_grid)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_pair(self, quad):
        mu = gaussian_density(0.0, 1.0, -9, 9, 1024)
        nu = gaussian_density(0.5, 1.0, -9, 9, 1024)
        lhs, rhs = frozen_energy_difference(quad, mu, nu)
        assert abs(lhs - rhs) <= 1e-6

    def test_random_mixtures(self, quad):
        gen = make_rng(29)
        for _ in range(20):
            mu = random_mixture(gen, cells=512)
            nu = random_mixture(gen, cells=512)
            lhs, rhs = frozen_energy_difference(quad, mu, nu)
            assert abs(lhs - rhs) <= 1e-6


class TestMixingInequality:
    def test_endpoint_lambda_zero(self, quad):
        gen = make_rng(37)
        mu, nu = random_mixture(gen, cells=512), random_mixture(gen, cells=512)
        lhs, rhs = mixing_inequality(quad, mu, nu, 0.0)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_equal_measures_lambda_one(self, quad):
        gen = make_rng(39)
        mu = random_mixture(gen, cells=512)
        lhs, rhs = mixing_inequality(quad, mu, mu, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_random_mixtures_hold(self, quad):
        gen = make_rng(43)
        for _ in range(15):
            mu, nu = random_mixture(gen, cells=512), random_mixture(gen, cells=512)
            for lam in (0.1, 0.3, 0.7):
                lhs, rhs = mixing_inequality(quad, mu, nu, lam)
                assert lhs <= rhs + 1e-8


class TestRateFunction:
    def test_zero_limit(self):
        assert rate_function(RateParams(), 0.0) == 0.0

    def test_continuity_at_the_knots(self):
        p = RateParams(c7=1.3, eps0=math.exp(-2), eps1=0.8, k=2)
        for knot in (p.eps0, p.eps1):
            below = rate_function(p, knot * (1 - 1e-12))
            above = rate_function(p, knot * (1 + 1e-12))
            assert below == pytest.approx(above, rel=1e-9)

    def test_small_branch_value(self):
        p = RateParams(c7=1.0, k=2)
        e = math.exp(-2.0)
        assert rate_function(p, e) == pytest.approx(e / 4.0, rel=1e-12)

    def test_increasing(self):
        p = RateParams(c7=0.7, k=3, eps0=0.1, eps1=0.9)
        es = np.linspace(0.0, 3.0, 400)
        vals = [rate_function(p, e) for e in es]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestEnergyEnvelope:
    def test_initial_condition(self):
        ts, ys = energy_envelope(RateParams(), 0.7, 2.0, 50.0)
        assert ys[0] == 0.7
        assert ts[0] == pytest.approx(2.0)

    def test_small_branch_matches_closed_form(self):
        p = RateParams(c7=1.0, k=2)
        y0 = 0.5 * p.eps0
        ts, ys = energy_envelope(p, y0, 10.0, 1e5)
        want = envelope_closed_form(p, y0, 10.0, ts)
        rel = np.abs(ys - want) / want
        assert rel.max() <= 1e-4

    def test_large_branch_against_step_halving(self):
        p = RateParams(c7=1.0, k=2, eps1=1.0)
        ts, coarse = energy_envelope(p, 8.0, 1.0, 40.0, n_steps=400)
        _, fine = energy_envelope(p, 8.0, 1.0, 40.0, n_steps=800)
        _, finest = energy_envelope(p, 8.0, 1.0, 40.0, n_steps=6400)
        assert np.abs(coarse[-1] - finest[-1]) / finest[-1] <= 1e-4
        # fourth-order: halving the step shrinks the defect by ~16
        e1 = abs(coarse[-1] - finest[-1])
        e2 = abs(fine[-1] - finest[-1])
        assert e2 < e1

    def test_monotone_decreasing(self):
        _, ys = energy_envelope(RateParams(), 2.0, 1.0, 100.0)
        assert np.all(np.diff(ys) <= 0)


class TestTransportEnergyBound:
    def test_gaussian_family(self, quad, std_gauss_grid):
        for sigma in (0.6, 0.9, 1.4, 2.0):
            g = gaussian_density(0.0, sigma, -12, 12, 2048)
            w2 = w2_distance(g, std_gauss_grid)
            rel = relative_free_energy(quad, g, std_gauss_grid)
            assert w2 * w2 <= 2.0 / quad.convexity_constant * rel + 1e-6

    def test_random_centered_mixtures(self, quad, std_gauss_grid):
        gen = make_rng(47)
        for _ in range(20):
            m = random_mixture(gen, lo=-10, hi=10, cells=1024)
            m = recenter(m, m.mean())
            w2 = w2_distance(m, std_gauss_grid)
            rel = relative_free_energy(quad, m, std_gauss_grid)
            assert w2 * w2 <= 2.0 / quad.convexity_constant * rel + 1e-6


def test_displacement_convexity_along_quantile_paths(quad):
    gen = make_rng(53)
    for _ in range(6):
        m0 = random_mixture(gen, cells=1024)
        m1 = random_mixture(gen, cells=1024)
        f0 = free_energy(quad, m0).total
        f1 = free_energy(quad, m1).total
        for s in (0.25, 0.5, 0.75):
            mid = displacement_interpolate(m0, m1, s)
            fs = free_energy(quad, mid).total
            # binning the interpolant back onto the grid costs a little entropy
            assert fs <= (1 - s) * f0 + s * f1 + 5e-3


def test_frozen_energy_minimized_by_gibbs_image(quad):
    # F_mu(g) = entropy(g) + int (W*mu) g, the free energy in the potential
    # generated by mu, has F_mu(mu) - F_mu(nu) = lhs(mu, nu) of
    # `frozen_energy_difference`, so F_mu(image) - F_mu(nu) is
    # lhs(mu, nu) - lhs(mu, image)
    gen = make_rng(59)
    for _ in range(2):
        mu = random_mixture(gen, cells=512)
        image = gibbs_map(quad, mu, grid=mu)
        base, _ = frozen_energy_difference(quad, mu, image)
        for _ in range(9):
            nu = random_mixture(gen, cells=512)
            gap, _ = frozen_energy_difference(quad, mu, nu)
            assert gap - base <= 1e-9
