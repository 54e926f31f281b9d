"""Weighted power sums about an anchor: the one polynomial-moment expansion.

For a polynomial W and a finite measure m with power sums
S_j = sum_i w_i (x_i - a)^j about an anchor a, the convolution
(d^k W * m)(x) is a polynomial in (x - a) whose coefficients are fixed
linear combinations of the S_j, and the interaction integral of two
measures is a bilinear form in their power sums.  Both are exact binomial
identities for every anchor.  An anchor inside the support keeps each S_j
of the size of the measure's spread wherever the measure sits, so results
built on them are translation-equivariant to rounding; raw sums about the
origin are not.  Sums move from one anchor to another by an exact binomial
re-anchor.

The center of m under W, the root of W' * m, is one Newton solve on these
sums (`block_centers`): about the anchor, from the mean S1/S0, stopping at
|W' * m| / mass <= 1e-12.  The path stepper solves its center knots with it
a block at a time, and `measures.center` solves a measure's center with it.

The package implements d = 1 of the paper's R^d: the points are reals and
the sums are arrays of shape (count,), or (count, R) for R measures side by
side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailureError
from .potentials import PotentialSpec, derivative, horner

_MATRIX_CACHE = 32   # convolution matrices kept, one per (potential, order)
_NEWTON_ITERS = 60   # Newton updates a center gets before it fails
_NEWTON_TOL = 1e-12  # |W' * m| / mass at which a center stops


def anchor(x) -> float:
    """Midpoint of the interval spanned by the points x, which lies inside
    their support's hull."""
    x = np.asarray(x, dtype=float)
    return float(0.5 * (x.min() + x.max()))


@dataclass(frozen=True, slots=True)
class PowerSums:
    """A 1-d measure known through its power sums about an anchor,
    sums[j] = sum_i w_i (x_i - anchor)^j.  `convolve_potential`, `center`
    and `gibbs_map` take it in place of the measure; it needs as many sums
    as W's convolution matrix reads, and at least two."""

    anchor: float
    sums: np.ndarray

    def mean(self) -> float:
        return self.anchor + float(self.sums[1] / self.sums[0])


def power_sums(x, weights, a, count) -> np.ndarray:
    """S_j = sum_i weights_i (x_i - a)^j for j = 0 .. count-1; signed weights
    are allowed."""
    y = np.asarray(x, dtype=float) - a
    acc = np.asarray(weights, dtype=float)
    out = np.empty(count)
    for j in range(count):
        if j:
            acc = acc * y
        out[j] = acc.sum()
    return out


def reanchor(sums: np.ndarray, shift) -> np.ndarray:
    """Sums about a + shift from sums about a (shift scalar or per column):
    (x - a - shift)^j = sum_i C(j, i) (x - a)^i (-shift)^(j-i)."""
    sums = np.asarray(sums, dtype=float)
    h = -np.asarray(shift, dtype=float)
    out = np.zeros_like(sums)
    for j in range(sums.shape[0]):
        for i in range(j + 1):
            out[j] = out[j] + math.comb(j, i) * h ** (j - i) * sums[i]
    return out


@functools.lru_cache(maxsize=_MATRIX_CACHE)
def convolution_matrix(p: PotentialSpec, order: int = 0) -> np.ndarray:
    """Square T with (d^order W * m)(a + y) = sum_i (T @ S)_i y^i for S the
    power sums of m about a; T.shape[0] is the number of sums it reads.

    From g(y - z) = sum_n g_n sum_i C(n, i) y^i (-z)^(n-i) with g the
    order-th derivative of W: T[i, j] = g_(i+j) C(i+j, i) (-1)^j.  Trailing
    zero coefficients of g are dropped, so T reads no sum it does not use and
    an identically zero g gives the 1 x 1 zero matrix.

    Memoized per (potential, order) in a least-recently-used cache of
    `_MATRIX_CACHE` entries: every caller shares one matrix, so it is
    read-only, and a write raises ``ValueError``.
    """
    g = np.polynomial.polynomial.polytrim(derivative(p.poly1d_coefficients(), order))
    L = g.size
    T = np.zeros((L, L))
    for i in range(L):
        for j in range(L - i):
            T[i, j] = g[i + j] * math.comb(i + j, i) * (-1.0) ** j
    T.flags.writeable = False
    return T


def interaction_form(p: PotentialSpec, sums_x: np.ndarray, sums_y: np.ndarray) -> float:
    """Double integral of W(x - y) dm(x) dm'(y) from power sums of m (in x)
    and m' (in y) about one anchor, each of shape (count,):
    sum_(n, k) w_n C(n, k) (-1)^(n-k) S_k S'_(n-k)."""
    T = convolution_matrix(p)
    L = T.shape[0]
    return float(sums_x[:L] @ (T @ sums_y[:L]))


def block_centers(T, S, mass, locate=None):
    """The centers, roots in y of the drift polynomials T S / mass, of the
    measures with power sums S about their anchors, T the order-1
    `convolution_matrix`: S (count, K, R) and mass (K, 1) for a block of K
    knots of R columns, or S (count,) and its mass for one measure, whose
    center is then a scalar.  Zero without attraction, closed form for a
    linear drift, Newton from each column's mean S1/S0 otherwise.  Every
    operation is elementwise, a column stops at its own first iterate with
    |g| <= `_NEWTON_TOL` and divides only while it moves, so its root does
    not depend on the other columns or on the block length.

    A column still above it after `_NEWTON_ITERS` updates raises
    NumericFailureError naming the earliest such knot by ``locate(knot,
    column)`` (a step and words; block indices without it) and its final
    |g|."""
    count = T.shape[0]
    if count < 2:
        return np.zeros_like(S[0])
    b = [sum(t * s for t, s in zip(row, S)) / mass for row in T.tolist()]
    if count == 2:
        return -b[0] / b[1]
    db = [k * b[k] for k in range(1, count)]
    c = S[1] / S[0]
    for it in range(_NEWTON_ITERS + 1):
        g = horner(b, c)
        moving = np.abs(g) > _NEWTON_TOL
        if not np.count_nonzero(moving):
            return c
        if it < _NEWTON_ITERS:
            c = c - np.divide(g, horner(db, c), out=np.zeros_like(c), where=moving)
    g, moving = np.atleast_2d(g, moving)   # one measure is knot 0, column 0
    knot, col = (int(i) for i in np.argwhere(moving)[0])
    step, where = (None, f"knot {knot}, column {col}") if locate is None else \
        locate(knot, col)
    raise NumericFailureError(
        f"center Newton on power sums did not converge at {where}: "
        f"|g| = {float(abs(g[knot, col]))!r} after {_NEWTON_ITERS} iterations", step=step)
