import tracemalloc

import numpy as np
import pytest

from selfattract import (GridDensity, ParticleMeasure, gaussian_density,
                         quadratic_symmetric)


@pytest.fixture
def quad():
    return quadratic_symmetric(1.0)


@pytest.fixture
def std_gauss_grid():
    return gaussian_density(0.0, 1.0, -8.0, 8.0, 2048)


def peak_bytes(fn):
    """(fn(), the peak bytes that tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def random_atoms(gen, n_max=8, radius=4.0) -> ParticleMeasure:
    n = int(gen.integers(1, n_max + 1))
    pos = gen.uniform(-radius, radius, size=n)
    w = gen.uniform(0.2, 1.0, size=n)
    return ParticleMeasure(pos, w / w.sum())


def random_mixture(gen, lo=-8.0, hi=8.0, cells=1024, spread=2.0) -> GridDensity:
    """Random 2-3 component Gaussian mixture density on a shared grid."""
    k = int(gen.integers(2, 4))
    means = gen.uniform(-spread, spread, size=k)
    sigmas = gen.uniform(0.6, 1.5, size=k)
    weights = gen.uniform(0.2, 1.0, size=k)
    weights = weights / weights.sum()
    xs = np.linspace(lo, hi, cells, endpoint=False) + (hi - lo) / cells / 2
    vals = np.zeros(cells)
    for m, s, w in zip(means, sigmas, weights):
        vals += w * np.exp(-0.5 * ((xs - m) / s) ** 2) / (s * np.sqrt(2 * np.pi))
    return GridDensity(lo, hi, vals).normalized()
