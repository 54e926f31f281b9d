"""Interaction potentials W, external potentials V, and their polynomial envelope.

The shipped families are all polynomial, so convolutions against empirical
measures reduce to running moments elsewhere in the package.  Every
potential carries a radial envelope P(r) = A(1 + r^k) that is meant to
dominate |W| + |grad W| + |hess W|; `certify` checks that claim (and
convexity, symmetry, sub-multiplicativity of P) numerically on a sample
grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

KINDS = ("quadratic-symmetric", "quadratic-shifted", "even-polynomial", "external")
_PROBE_RADIUS = 50.0   # the automatic envelope's probe covers [-R, R]


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
        # a tuple of floats, so every spec hashes (caches key on it)
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown potential kind {self.kind!r}")
        if self.bound_degree < 2 or self.bound_scale < 1.0:
            raise InvalidInputError("envelope must have degree >= 2 and scale >= 1")
        if self.kind in ("quadratic-symmetric", "quadratic-shifted") and len(self.coefficients) != 1:
            raise InvalidInputError(f"{self.kind} takes a single strength coefficient")

    @property
    def bound(self) -> DominatingPolynomial:
        return DominatingPolynomial(scale=self.bound_scale, degree=self.bound_degree)

    def poly1d_coefficients(self) -> np.ndarray:
        """Ascending-power coefficients of W as a 1-d polynomial in x."""
        return _poly1d(self.kind, self.coefficients)


def _poly1d(kind: str, coefficients: tuple[float, ...]) -> np.ndarray:
    if kind == "quadratic-symmetric":
        c = coefficients[0]
        return np.array([0.0, 0.0, 0.5 * c])
    if kind == "quadratic-shifted":
        c = coefficients[0]
        return np.array([0.5 * c, -c, 0.5 * c])
    out = np.zeros(2 * len(coefficients) + 1)
    for j, cj in enumerate(coefficients, start=1):
        out[2 * j] = cj
    return out


def horner(c, y):
    """The polynomial with ascending coefficients c -- a sequence of floats,
    or of arrays side by side -- at y, by Horner's rule: numpy's polynomial
    evaluation, multiply-add for multiply-add, without its per-call checks.
    A constant c gives c[0] whatever y's shape."""
    out = c[-1]
    for ci in c[-2::-1]:
        out = out * y + ci
    return out


def polynomial_derivative(coeffs, y, order: int = 0):
    """The order-th derivative at y (of y's shape) of the polynomial with
    ascending coefficients coeffs."""
    c = derivative(np.asarray(coeffs, dtype=float), order)
    return horner(c, y) if c.size > 1 else c[0] + 0.0 * y


def derivative(c: np.ndarray, order: int = 1) -> np.ndarray:
    """The ascending coefficients of the order-th derivative: `polyder`'s
    products j * c[j], without its per-call overhead."""
    for _ in range(order):
        c = c[1:] * np.arange(1.0, c.size) if c.size > 1 else np.zeros_like(c)
    return c


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

    # directional curvature: W'' on the line, where the package works (d = 1
    # of the paper's R^d).  The radial kinds also check w'(r)/r, the
    # tangential Hessian eigenvalue of W(x) = w(|x|) for d >= 2: a 1-d
    # computation on the same samples.
    curvatures = [hesss.min()]
    if p.kind != "quadratic-shifted":
        rs = np.abs(xs[xs != 0])
        if rs.size:
            curvatures.append(polynomial_derivative(derivative(w)[1::2], rs * rs).min())
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


def _spec(kind: str, coefficients: tuple[float, ...], convexity_constant: float,
          symmetric: bool, bound_degree: int, bound_scale: float | None) -> PotentialSpec:
    """The spec a factory returns; without ``bound_scale``, the envelope's
    scale is `_auto_envelope`'s for W's polynomial."""
    if bound_scale is None:
        bound_scale = _auto_envelope(_poly1d(kind, coefficients), bound_degree)
    return PotentialSpec(kind, coefficients, float(convexity_constant), symmetric,
                         bound_degree, float(bound_scale))


def _auto_envelope(poly: np.ndarray, degree: int) -> float:
    """Smallest comfortable A so that A(1+r^k) dominates |W|+|W'|+|W''| and
    P stays sub-multiplicative.  Probes both half-lines: the shifted family
    is not even."""
    if degree < 2:   # the spec's own check, before the probe divides by it
        raise InvalidInputError("envelope must have degree >= 2 and scale >= 1")
    xs = np.linspace(-_PROBE_RADIUS, _PROBE_RADIUS, 8001)
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
    return _spec("quadratic-symmetric", (float(strength),), strength, True,
                 bound_degree, bound_scale)


def quadratic_shifted(strength: float = 1.0, bound_scale: float | None = None,
                      bound_degree: int = 2, claim_symmetric: bool = False) -> PotentialSpec:
    """W(x) = strength/2 * (x-1)^2; attracts toward one unit right of the mean."""
    if strength <= 0:
        raise InvalidInputError("strength must be positive")
    return _spec("quadratic-shifted", (float(strength),), strength, claim_symmetric,
                 bound_degree, bound_scale)


def even_polynomial(coefficients, convexity_constant: float | None = None,
                    bound_scale: float | None = None,
                    bound_degree: int | None = None) -> PotentialSpec:
    """W(x) = sum_j coefficients[j-1] * |x|^(2j).

    The default convexity claim 2*c_1 comes from the quadratic term; it is a
    claim, not a certificate -- run `certify` to check it.
    """
    return _even("even-polynomial", coefficients, convexity_constant, bound_scale,
                 bound_degree)


def external_polynomial(coefficients, convexity_constant: float | None = None,
                        bound_scale: float | None = None,
                        bound_degree: int | None = None) -> PotentialSpec:
    """External potential V with the same radial-even-polynomial shape."""
    return _even("external", coefficients, convexity_constant, bound_scale, bound_degree)


def _even(kind, coefficients, convexity_constant, bound_scale, bound_degree) -> PotentialSpec:
    """The spec of `even_polynomial` or `external_polynomial`."""
    coefficients = tuple(float(c) for c in coefficients)
    if convexity_constant is None:
        convexity_constant = 2.0 * coefficients[0] if coefficients else 0.0
    if bound_degree is None:
        bound_degree = max(2, 2 * len(coefficients))
    return _spec(kind, coefficients, convexity_constant, True, bound_degree, bound_scale)


def zero_interaction(bound_scale: float = 1.0, bound_degree: int = 2) -> PotentialSpec:
    """W identically zero (useful with an external potential)."""
    return PotentialSpec("even-polynomial", (), 0.0, True, bound_degree, float(bound_scale))
