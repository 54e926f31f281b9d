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

2-d is the same on each axis (Pebay, Terriberry, Kolla and Bennett 2016):
points of shape (n, 2), a per-axis anchor, sums S[i, j] = sum w y1^i y2^j
of shape (L1, L2), and a convolution tensor built from W's coordinate
polynomial.

1-d sums are arrays of shape (count,) or (count, R) for R measures side by
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import PotentialSpec


def anchor(x):
    """Midpoint of the bounding box of the points x, which lies inside their
    support's hull: a float for (n,) points, per axis for (n, 2) points."""
    x = np.asarray(x, dtype=float)
    mid = 0.5 * (x.min(axis=0) + x.max(axis=0))
    return float(mid) if x.ndim == 1 else mid


@dataclass(frozen=True)
class PowerSums:
    """A 1-d measure known through its power sums about an anchor,
    sums[j] = sum_i w_i (x_i - anchor)^j.  `convolve_potential`, `center`
    and `gibbs_map` take it in place of the measure; it needs as many sums
    as W's convolution matrix reads, and at least two."""

    anchor: float
    sums: np.ndarray

    dim = 1

    @property
    def total_mass(self) -> float:
        return float(self.sums[0])

    def mean(self) -> float:
        return self.anchor + float(self.sums[1] / self.sums[0])


def power_sums(x, weights, a, count) -> np.ndarray:
    """S_j = sum_i weights_i (x_i - a)^j for j = 0 .. count-1; signed weights
    are allowed.  For (n, 2) points, a per-axis anchor a and
    count = (L1, L2) give S[i, j] = sum_n weights_n y1^i y2^j with y = x - a."""
    y = np.asarray(x, dtype=float) - a
    acc = np.asarray(weights, dtype=float)
    if y.ndim == 2:
        v1, v2 = (np.polynomial.polynomial.polyvander(y[:, k], n - 1)
                  for k, n in enumerate(count))
        return np.einsum("n,ni,nj->ij", acc, v1, v2)
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


def convolution_matrix(p: PotentialSpec, order: int = 0) -> np.ndarray:
    """Square T with (d^order W * m)(a + y) = sum_i (T @ S)_i y^i for S the
    power sums of m about a; T.shape[0] is the number of sums it reads.

    From g(y - z) = sum_n g_n sum_i C(n, i) y^i (-z)^(n-i) with g the
    order-th derivative of W: T[i, j] = g_(i+j) C(i+j, i) (-1)^j.  Trailing
    zero coefficients of g are dropped, so T reads no sum it does not use and
    an identically zero g gives the 1 x 1 zero matrix.
    """
    g = np.polynomial.polynomial.polytrim(
        np.polynomial.polynomial.polyder(p.poly1d_coefficients(), order))
    L = g.size
    T = np.zeros((L, L))
    for i in range(L):
        for j in range(L - i):
            T[i, j] = g[i + j] * math.comb(i + j, i) * (-1.0) ** j
    return T


def convolution_tensor(p: PotentialSpec) -> np.ndarray:
    """2-d T of shape (L, L, L, L) with
    (W * m)(a + y) = sum_(i, j) (sum_(k, l) T[i, j, k, l] S[k, l]) y1^i y2^j
    for S the 2-d power sums of m about a; T.shape[2:] is the count of sums
    it reads.

    W's coordinate polynomial P (`PotentialSpec.poly2d_coefficients`) is
    expanded on each axis as `convolution_matrix` expands g:
    T[i1, i2, j1, j2] = P[i1+j1, i2+j2] C(i1+j1, i1) C(i2+j2, i2) (-1)^(j1+j2).
    Trailing zero coefficients are dropped the same way; P is symmetric for
    radial W, so one length trims both axes.
    """
    P = p.poly2d_coefficients()
    L = np.polynomial.polynomial.polytrim(np.abs(P).max(axis=1)).size
    B = np.zeros((L, L, L))     # (y - z)^n = sum_(i + j = n) B[n, i, j] y^i z^j
    for i in range(L):
        for j in range(L - i):
            B[i + j, i, j] = math.comb(i + j, i) * (-1.0) ** j
    return np.einsum("nm,nik,mjl->ijkl", P[:L, :L], B, B)


def interaction_form(p: PotentialSpec, sums_x: np.ndarray, sums_y: np.ndarray) -> float:
    """Double integral of W(x - y) dm(x) dm'(y) from power sums of m (in x)
    and m' (in y) about one anchor:
    sum_(n, k) w_n C(n, k) (-1)^(n-k) S_k S'_(n-k) for 1-d sums of shape
    (count,), and the same contracted over both axes for 2-d sums."""
    if np.ndim(sums_x) == 1:
        T = convolution_matrix(p)
        L = T.shape[0]
        return float(sums_x[:L] @ (T @ sums_y[:L]))
    T = convolution_tensor(p)
    L = T.shape[0]
    return float(np.einsum("ij,ijkl,kl->", sums_x[:L, :L], T, sums_y[:L, :L]))
