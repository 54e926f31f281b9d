import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfattract import (DominatingPolynomial, InvalidInputError, certify,
                         even_polynomial, external_polynomial, quadratic_shifted,
                         quadratic_symmetric, zero_interaction)
from selfattract.potentials import polynomial_derivative


def derivative(p, x, order=0):
    """W(x), W'(x) or W''(x) of a 1-d potential."""
    return float(polynomial_derivative(p.poly1d_coefficients(), x, order))


def test_evaluate_quadratic_value():
    w = quadratic_symmetric(1.0)
    assert derivative(w, 2.0, 0) == 2.0


def test_evaluate_shifted_at_its_minimum():
    w = quadratic_shifted(1.0)
    assert derivative(w, 1.0, 0) == 0.0
    assert derivative(w, 1.0, 1) == 0.0


def test_evaluate_even_polynomial_gradient():
    w = even_polynomial([0.5, 0.25])  # x^2/2 + x^4/4
    assert derivative(w, 1.0, 1) == pytest.approx(2.0, abs=1e-14)


def test_horner_is_numpy_polynomial_evaluation_bit_for_bit():
    # the package's one evaluator takes numpy's multiply-adds in numpy's
    # order, so swapping it in moves no bit; a constant keeps y's shape
    poly = np.polynomial.polynomial
    gen = np.random.default_rng(4)
    for _ in range(500):
        c = gen.normal(size=int(gen.integers(1, 9))) * 10.0 ** gen.integers(-3, 4)
        y = gen.normal(size=int(gen.integers(1, 40))) * 10.0 ** gen.integers(-2, 3)
        for order in range(3):
            want = poly.polyval(y, poly.polyder(c, order))
            got = polynomial_derivative(c, y, order)
            assert got.shape == y.shape and np.array_equal(got, want)


@given(st.floats(-3.0, 3.0), st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_evaluate_derivatives_match_finite_differences(x, order):
    w = even_polynomial([0.5, 0.1])
    h = 1e-5
    if order == 1:
        approx = (derivative(w, x + h, 0) - derivative(w, x - h, 0)) / (2 * h)
    else:
        approx = (derivative(w, x + h, 1) - derivative(w, x - h, 1)) / (2 * h)
    assert derivative(w, x, order) == pytest.approx(approx, abs=1e-6, rel=1e-6)


def test_dominating_polynomial_values():
    w = quadratic_symmetric(1.0, bound_scale=1.0)
    assert w.bound(0.0) == 1.0
    assert w.bound(2.0) == 5.0
    w3 = even_polynomial([0.5], bound_scale=2.0, bound_degree=3)
    assert w3.bound(1.0) == 4.0


def test_dominating_polynomial_monotone_and_bounded_below():
    w = quadratic_symmetric()
    rs = np.linspace(0, 10, 50)
    vals = [w.bound(r) for r in rs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] >= 1.0
    with pytest.raises(InvalidInputError):
        w.bound(-0.1)


def test_certify_quadratic_passes():
    rep = certify(quadratic_symmetric(1.0), sample_radius=10.0)
    assert rep.passed and rep.failures == ()
    assert rep.min_directional_curvature == pytest.approx(1.0, abs=1e-12)


def test_certify_pure_quartic_fails_uniform_convexity():
    w = even_polynomial([0.0, 0.25])  # x^4/4, second derivative vanishes at 0
    rep = certify(w, sample_radius=10.0)
    assert rep.failures == ("uniform-convexity",)
    assert not rep.passed


def test_certify_shifted_with_symmetry_claim_fails():
    w = quadratic_shifted(1.0, claim_symmetric=True)
    rep = certify(w, sample_radius=10.0)
    assert rep.failures == ("symmetry",)


def test_certify_shifted_without_claim_passes():
    # no symmetry claim: the auto envelope must cover the heavier left branch
    rep = certify(quadratic_shifted(1.0), sample_radius=10.0)
    assert rep.failures == ()
    assert rep.passed


def test_envelope_submultiplicative_on_samples():
    rep = certify(quadratic_symmetric(1.0), sample_radius=20.0, n_samples=301)
    assert "envelope-submultiplicativity" not in rep.failures


@given(st.floats(-8.0, 8.0))
@settings(max_examples=50, deadline=None)
def test_certified_curvature_lower_bound(x):
    w = even_polynomial([0.7, 0.05])
    assert derivative(w, x, 2) >= w.convexity_constant - 1e-12


def test_evaluate_is_pure():
    w = quadratic_symmetric(1.3)
    a = derivative(w, 1.2345, 1)
    b = derivative(w, 1.2345, 1)
    assert a == b


def test_envelope_integral_closed_form():
    env = DominatingPolynomial(1.0, 2)
    # integral of 1 + x^2 over [0, 1] and over [-1, 1]
    prim = env.antiderivative
    assert prim(1.0) - prim(0.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert prim(1.0) - prim(-1.0) == pytest.approx(8.0 / 3.0, abs=1e-15)


def test_zero_interaction_evaluates_to_zero():
    w = zero_interaction()
    assert derivative(w, 3.0, 0) == 0.0
    assert derivative(w, 3.0, 1) == 0.0


def test_external_polynomial_is_convex_claim():
    v = external_polynomial([0.5])
    assert v.kind == "external"
    assert v.convexity_constant == pytest.approx(1.0)
