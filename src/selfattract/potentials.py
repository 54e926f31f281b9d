"""Interaction potentials W, external potentials V, and their polynomial envelope.

The shipped families are all polynomial, so convolutions against empirical
measures reduce to running moments elsewhere in the package.  Every
potential carries a radial envelope P(r) = A(1 + r^k) that is meant to
dominate |W| + |grad W| + |hess W|; `certify` checks that claim (and
convexity, symmetry, sub-multiplicativity of P) numerically on a sample
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnsupportedInputError

KINDS = ("quadratic-symmetric", "quadratic-shifted", "even-polynomial", "external")


@dataclass(frozen=True)
class DominatingPolynomial:
    """Radial weight P(r) = scale * (1 + r**degree), scale >= 1, degree >= 2."""

    scale: float = 1.0
    degree: int = 2

    def __post_init__(self):
        if self.degree < 2:
            raise InvalidInputError("envelope degree must be >= 2")
        if self.scale < 1.0:
            raise InvalidInputError("envelope scale must be >= 1")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise InvalidInputError("envelope argument must be non-negative")
        out = self.scale * (1.0 + r ** self.degree)
        return float(out) if out.ndim == 0 else out

    def antiderivative(self, x):
        """Odd primitive of x -> P(|x|), vanishing at 0."""
        x = np.asarray(x, dtype=float)
        out = self.scale * (x + np.sign(x) * np.abs(x) ** (self.degree + 1) / (self.degree + 1))
        return float(out) if out.ndim == 0 else out

    def moment_antiderivative(self, x):
        """Even primitive of x -> x P(|x|), vanishing at 0."""
        x = np.asarray(x, dtype=float)
        out = self.scale * (0.5 * x * x + np.abs(x) ** (self.degree + 2) / (self.degree + 2))
        return float(out) if out.ndim == 0 else out

    def integral(self, a: float, b: float) -> float:
        """Integral of P(|x|) over [a, b]."""
        return float(self.antiderivative(b) - self.antiderivative(a))


def as_envelope(p) -> DominatingPolynomial:
    """Coerce a PotentialSpec (or an envelope) to its DominatingPolynomial."""
    if isinstance(p, DominatingPolynomial):
        return p
    return DominatingPolynomial(scale=p.bound_scale, degree=p.bound_degree)


@dataclass(frozen=True)
class PotentialSpec:
    """One potential: an interaction W (or external V) with its certificates.

    kind
        'quadratic-symmetric'  W(x) = c/2 |x|^2,          coefficients=(c,)
        'quadratic-shifted'    W(x) = c/2 (x-1)^2, 1-d,   coefficients=(c,)
        'even-polynomial'      W(x) = sum_j c_j |x|^(2j), coefficients=(c_1, c_2, ...)
        'external'             same shape as even-polynomial, used as V
    convexity_constant
        Claimed uniform lower bound on directional second derivatives.
    bound_scale, bound_degree
        Parameters (A, k) of the dominating envelope P(r) = A(1 + r^k).
    """

    kind: str
    coefficients: tuple[float, ...]
    convexity_constant: float
    symmetric: bool
    bound_degree: int
    bound_scale: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown potential kind {self.kind!r}")
        if self.bound_degree < 2 or self.bound_scale < 1.0:
            raise InvalidInputError("envelope must have degree >= 2 and scale >= 1")
        if self.kind in ("quadratic-symmetric", "quadratic-shifted") and len(self.coefficients) != 1:
            raise InvalidInputError(f"{self.kind} takes a single strength coefficient")

    @property
    def bound(self) -> DominatingPolynomial:
        return DominatingPolynomial(scale=self.bound_scale, degree=self.bound_degree)

    @property
    def degree(self) -> int:
        """Polynomial degree of the potential itself."""
        if self.kind in ("quadratic-symmetric", "quadratic-shifted"):
            return 2
        return 2 * len(self.coefficients) if self.coefficients else 0

    def poly1d_coefficients(self) -> np.ndarray:
        """Ascending-power coefficients of W as a 1-d polynomial in x."""
        if self.kind == "quadratic-symmetric":
            c = self.coefficients[0]
            return np.array([0.0, 0.0, 0.5 * c])
        if self.kind == "quadratic-shifted":
            c = self.coefficients[0]
            return np.array([0.5 * c, -c, 0.5 * c])
        out = np.zeros(2 * len(self.coefficients) + 1)
        for j, cj in enumerate(self.coefficients, start=1):
            out[2 * j] = cj
        return out

    def radial_coefficients(self) -> np.ndarray:
        """Coefficients of w(r) with W(x) = w(|x|): ascending powers of r."""
        if self.kind == "quadratic-shifted":
            raise UnsupportedInputError("shifted potential is not spherically symmetric")
        return self.poly1d_coefficients()

    def poly2d_coefficients(self) -> np.ndarray:
        """Coefficients P[i, j] of W(x) = sum P[i, j] x1^i x2^j in 2-d: each
        |x|^(2j) = (x1^2 + x2^2)^j expanded binomially."""
        w = self.radial_coefficients()
        out = np.zeros((w.size, w.size))
        for n in range(0, w.size, 2):
            for k in range(0, n + 1, 2):
                out[k, n - k] = w[n] * math.comb(n // 2, k // 2)
        return out


def polynomial_derivative(coeffs, y, order: int = 0):
    """Value, gradient or Hessian at y of a polynomial in ascending
    coefficients, by differentiating the coefficients along each axis.

    1-d: coeffs of shape (L,); returns the order-th derivative at y, of y's
    shape.  2-d: coeffs[i, j] multiplies y1^i y2^j and y has shape (..., 2);
    returns shape (...) for order 0, (..., 2) for the gradient and
    (..., 2, 2) for the Hessian.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim == 1:
        for _ in range(order):
            c = _derivative(c, 0)
        return np.polynomial.polynomial.polyval(y, c)
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape[:-1] + (2,) * order)
    for axes in np.ndindex(*(2,) * order):
        d = c
        for axis in axes:
            d = _derivative(d, axis)
        out[(...,) + axes] = np.polynomial.polynomial.polyval2d(y[..., 0], y[..., 1], d)
    return out


def _derivative(c: np.ndarray, axis: int) -> np.ndarray:
    """`polyder` of a coefficient array along one axis, with the same
    products j * c[j] but without its per-call overhead (Newton calls this
    on every iteration)."""
    n = c.shape[axis]
    if n == 1:
        return np.zeros_like(c)
    j = np.arange(1.0, n).reshape((-1,) + (1,) * (c.ndim - 1 - axis))
    return c[(slice(None),) * axis + (slice(1, None),)] * j


def evaluate(p: PotentialSpec, x, order: int = 0):
    """W(x), grad W(x) or hess W(x); exact for the polynomial families.

    x is a scalar (d = 1) or a length-2 array (d = 2, through the coordinate
    polynomial `PotentialSpec.poly2d_coefficients`).  Returns a float for
    order 0, a float / vector for order 1, a float / matrix for order 2.
    """
    if order not in (0, 1, 2):
        raise InvalidInputError("order must be 0, 1 or 2")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("potential argument must be finite")
    if x.ndim == 0:
        return float(polynomial_derivative(p.poly1d_coefficients(), x, order))
    if x.shape != (2,):
        raise UnsupportedInputError("only d in {1, 2} is supported")
    out = polynomial_derivative(p.poly2d_coefficients(), x, order)
    return float(out) if order == 0 else out


def dominating_polynomial(p: PotentialSpec, r: float) -> float:
    """Envelope value A(1 + r**k)."""
    if r < 0:
        raise InvalidInputError("radius must be non-negative")
    return float(p.bound(r))


@dataclass(frozen=True)
class CertificateReport:
    """Numeric check of the potential's claims on a sample grid."""

    sample_radius: float
    n_samples: int
    min_directional_curvature: float
    curvature_pass: bool
    max_domination_ratio: float
    domination_pass: bool
    symmetry_defect: float
    symmetry_pass: bool
    max_submultiplicativity_ratio: float
    submultiplicativity_pass: bool

    @property
    def passed(self) -> bool:
        return (self.curvature_pass and self.domination_pass
                and self.symmetry_pass and self.submultiplicativity_pass)

    def failures(self) -> list[str]:
        out = []
        if not self.curvature_pass:
            out.append("uniform-convexity")
        if not self.domination_pass:
            out.append("domination")
        if not self.symmetry_pass:
            out.append("symmetry")
        if not self.submultiplicativity_pass:
            out.append("envelope-submultiplicativity")
        return out


def certify(p: PotentialSpec, sample_radius: float, n_samples: int = 512) -> CertificateReport:
    """Check convexity, domination, symmetry and P-submultiplicativity on a grid."""
    if sample_radius <= 0:
        raise InvalidInputError("sample_radius must be positive")
    if n_samples < 2:
        raise InvalidInputError("need at least two samples")

    xs = np.linspace(-sample_radius, sample_radius, n_samples)
    w = p.poly1d_coefficients()
    vals, grads, hesss = (polynomial_derivative(w, xs, k) for k in range(3))

    # directional curvature: in d=1 just W''; spherically symmetric kinds also
    # carry the tangential eigenvalue w'(r)/r relevant in d=2.
    curvatures = [hesss.min()]
    if p.kind != "quadratic-shifted":
        rs = np.abs(xs[xs != 0])
        if rs.size:
            s_coeffs = _derivative(w, 0)[1::2]
            curvatures.append(np.polynomial.polynomial.polyval(rs * rs, s_coeffs).min())
    min_curv = float(min(curvatures))
    curvature_pass = p.convexity_constant > 0 and min_curv >= p.convexity_constant - 1e-9

    env = p.bound
    ratio = (np.abs(vals) + np.abs(grads) + np.abs(hesss)) / env(np.abs(xs))
    max_ratio = float(ratio.max())
    domination_pass = max_ratio <= 1.0 + 1e-9

    defect = float(np.abs(vals - vals[::-1]).max())
    scale = max(1.0, float(np.abs(vals).max()))
    symmetry_pass = (not p.symmetric) or defect <= 1e-10 * scale

    rr = np.abs(xs)
    sub = env(np.abs(xs[:, None] - xs[None, :])) / (env(rr)[:, None] * env(rr)[None, :])
    max_sub = float(sub.max())
    submult_pass = max_sub <= 1.0 + 1e-9

    return CertificateReport(
        sample_radius=sample_radius,
        n_samples=n_samples,
        min_directional_curvature=min_curv,
        curvature_pass=curvature_pass,
        max_domination_ratio=max_ratio,
        domination_pass=domination_pass,
        symmetry_defect=defect,
        symmetry_pass=symmetry_pass,
        max_submultiplicativity_ratio=max_sub,
        submultiplicativity_pass=submult_pass,
    )


def _auto_envelope(poly: np.ndarray, degree: int, probe_radius: float = 50.0) -> float:
    """Smallest comfortable A so that A(1+r^k) dominates |W|+|W'|+|W''| and
    P stays sub-multiplicative.  Probes both half-lines: the shifted family
    is not even."""
    xs = np.linspace(-probe_radius, probe_radius, 8001)
    need = sum(np.abs(polynomial_derivative(poly, xs, k)) for k in range(3))
    dom = float((need / (1.0 + np.abs(xs) ** degree)).max()) * 1.05
    # sub-multiplicativity worst case sits at r1 = r2 = (1 - 2^(1-k))^(1/k)
    a_star = (1.0 - 2.0 ** (1 - degree)) ** (1.0 / degree)
    sub = (1.0 + (2 * a_star) ** degree) / (1.0 + a_star ** degree) ** 2
    return max(1.0, dom, sub)


def quadratic_symmetric(strength: float = 1.0, bound_scale: float | None = None,
                        bound_degree: int = 2) -> PotentialSpec:
    """W(x) = strength/2 * |x|^2."""
    if strength <= 0:
        raise InvalidInputError("strength must be positive")
    spec = PotentialSpec("quadratic-symmetric", (float(strength),), float(strength),
                         True, bound_degree, 2.0)
    if bound_scale is None:
        bound_scale = _auto_envelope(spec.poly1d_coefficients(), bound_degree)
    return PotentialSpec("quadratic-symmetric", (float(strength),), float(strength),
                         True, bound_degree, float(bound_scale))


def quadratic_shifted(strength: float = 1.0, bound_scale: float | None = None,
                      bound_degree: int = 2, claim_symmetric: bool = False) -> PotentialSpec:
    """W(x) = strength/2 * (x-1)^2; attracts toward one unit right of the mean."""
    if strength <= 0:
        raise InvalidInputError("strength must be positive")
    probe = PotentialSpec("quadratic-shifted", (float(strength),), float(strength),
                          claim_symmetric, bound_degree, 2.0)
    if bound_scale is None:
        bound_scale = _auto_envelope(probe.poly1d_coefficients(), bound_degree)
    return PotentialSpec("quadratic-shifted", (float(strength),), float(strength),
                         claim_symmetric, bound_degree, float(bound_scale))


def even_polynomial(coefficients, convexity_constant: float | None = None,
                    bound_scale: float | None = None,
                    bound_degree: int | None = None) -> PotentialSpec:
    """W(x) = sum_j coefficients[j-1] * |x|^(2j).

    The default convexity claim 2*c_1 comes from the quadratic term; it is a
    claim, not a certificate -- run `certify` to check it.
    """
    coefficients = tuple(float(c) for c in coefficients)
    if convexity_constant is None:
        convexity_constant = 2.0 * coefficients[0] if coefficients else 0.0
    if bound_degree is None:
        bound_degree = max(2, 2 * len(coefficients))
    probe = PotentialSpec("even-polynomial", coefficients, max(convexity_constant, 1e-300),
                          True, bound_degree, 2.0 ** max(1, bound_degree - 1))
    if bound_scale is None:
        bound_scale = _auto_envelope(probe.poly1d_coefficients(), bound_degree)
    return PotentialSpec("even-polynomial", coefficients, float(convexity_constant),
                         True, bound_degree, float(bound_scale))


def external_polynomial(coefficients, convexity_constant: float | None = None,
                        bound_scale: float | None = None,
                        bound_degree: int | None = None) -> PotentialSpec:
    """External potential V with the same radial-even-polynomial shape."""
    base = even_polynomial(coefficients, convexity_constant, bound_scale, bound_degree)
    return PotentialSpec("external", base.coefficients, base.convexity_constant,
                         True, base.bound_degree, base.bound_scale)


def zero_interaction() -> PotentialSpec:
    """W identically zero (useful with an external potential)."""
    return PotentialSpec("even-polynomial", (), 0.0, True, 2, 1.0)
