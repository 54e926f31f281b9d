import itertools
import math

import numpy as np
import pytest

from selfattract import (DominatingPolynomial, GridDensity, InvalidInputError,
                         ParticleMeasure, dirac, gaussian_density, recenter,
                         tp_distance_1d, w2_distance)
from selfattract import even_polynomial, transport
from selfattract.flow import _box_follows
from selfattract.powersums import convolution_matrix
from selfattract.measures import box_geometry, centered, density_sums
from selfattract.transport import _quantile_pieces
from conftest import make_rng, random_atoms
from oracles import displacement_interpolate

ENV = DominatingPolynomial(1.0, 2)


def monotone_coupling_cost(env, m1, m2):
    """Oracle: enumerate the monotone rearrangement piece by piece and pay
    the envelope-weighted path length for each piece."""
    def pieces(m):
        order = np.argsort(m.positions, kind="stable")
        return m.positions[order], np.cumsum(m.weights[order]) / m.mass

    x1, c1 = pieces(m1)
    x2, c2 = pieces(m2)
    levels = np.unique(np.concatenate(([0.0], c1, c2)))
    cost = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        a = x1[min(np.searchsorted(c1, mid, side="left"), x1.size - 1)]
        b = x2[min(np.searchsorted(c2, mid, side="left"), x2.size - 1)]
        cost += (hi - lo) * abs(env.antiderivative(b) - env.antiderivative(a))
    return cost


def w2_bruteforce_equal_atoms(x, y):
    n = len(x)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum((x[i] - y[perm[i]]) ** 2 for i in range(n)) / n
        best = min(best, cost)
    return math.sqrt(best)


class TestTpDistance:
    def test_identical_measures(self):
        m = dirac(0.3)
        assert tp_distance_1d(ENV, m, m) == 0.0

    def test_dirac_pair_closed_form(self):
        d = tp_distance_1d(ENV, dirac(0.0), dirac(1.0))
        assert d == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_matches_monotone_coupling_oracle(self):
        gen = make_rng(21)
        for _ in range(60):
            m1 = random_atoms(gen)
            m2 = random_atoms(gen)
            got = tp_distance_1d(ENV, m1, m2)
            want = monotone_coupling_cost(ENV, m1, m2)
            assert got == pytest.approx(want, abs=1e-10)

    def test_metric_axioms_on_atoms(self):
        gen = make_rng(13)
        for _ in range(25):
            a, b, c = (random_atoms(gen, radius=3.0) for _ in range(3))
            dab = tp_distance_1d(ENV, a, b)
            dba = tp_distance_1d(ENV, b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            dac = tp_distance_1d(ENV, a, c)
            dcb = tp_distance_1d(ENV, c, b)
            assert dab <= dac + dcb + 1e-10
            assert tp_distance_1d(ENV, a, a) <= 1e-14


def cdf_by_definition(m, xs):
    """Right-continuous CDF of m at xs: the weight of atoms at or left of x,
    or the integral of the cell-constant density up to x."""
    if isinstance(m, ParticleMeasure):
        order = np.argsort(m.positions)
        cum = np.concatenate(([0.0], np.cumsum(m.weights[order])))
        return cum[np.searchsorted(m.positions[order], xs, side="right")]
    edges = np.linspace(m.lo, m.hi, m.values.size + 1)
    cum = np.concatenate(([0.0], np.cumsum(m.values) * m.spacing))
    return np.interp(xs, edges, cum)


def cdf_knots(m):
    if isinstance(m, ParticleMeasure):
        return m.positions
    return np.linspace(m.lo, m.hi, m.values.size + 1)


def tp_quadrature(env, m1, m2, points=2 ** 20):
    """Oracle: both CDFs evaluated on a partition of 2^20 points that holds
    every knot, so the gap is linear on each piece and P(|x|)|gap| is a
    polynomial there except on the few pieces where the gap changes sign;
    3-point Gauss-Legendre on every piece."""
    knots = np.concatenate((cdf_knots(m1), cdf_knots(m2)))
    xs = np.union1d(np.linspace(knots.min(), knots.max(), points), knots)
    a, b = xs[:-1], xs[1:]
    total = 0.0
    for t, wt in zip(*np.polynomial.legendre.leggauss(3)):
        x = 0.5 * (a + b) + 0.5 * (b - a) * t
        gap = cdf_by_definition(m1, x) - cdf_by_definition(m2, x)
        total += float((0.5 * wt * (b - a) * env(np.abs(x)) * np.abs(gap)).sum())
    return total


def gap_sign_changes(m1, m2):
    xs = np.union1d(cdf_knots(m1), cdf_knots(m2))
    gap = cdf_by_definition(m1, xs) - cdf_by_definition(m2, xs)
    signs = np.sign(gap[np.abs(gap) > 1e-12])
    return int((signs[1:] != signs[:-1]).sum())


def bumps(lo, hi, cells, centers, widths, empty=None):
    xs = lo + (np.arange(cells) + 0.5) * (hi - lo) / cells
    vals = sum(np.exp(-0.5 * ((xs - c) / s) ** 2) for c, s in zip(centers, widths))
    if empty is not None:
        vals[(xs > empty[0]) & (xs < empty[1])] = 0.0
    return GridDensity(lo, hi, vals).normalized()


def scaled(m, c):
    if isinstance(m, ParticleMeasure):
        return ParticleMeasure(m.positions, c * m.weights)
    return GridDensity(m.lo, m.hi, c * m.values)


@pytest.mark.parametrize("degree", [2, 4])
class TestTpOnGrids:
    # grids straddling 0 on different geometries: the second starts 0.37 of
    # a cell off the first's lattice, and has a band of empty cells; four of
    # the atoms sit on edges of the first grid, to within an ulp
    G1 = bumps(-5.0, 3.0, 400, (-1.8, 0.0, 1.5), (0.6, 0.4, 0.5))
    G2 = bumps(-4.4 + 0.37 * 0.02, 4.2, 430, (-2.2, -0.8, 0.4, 1.6),
               (0.3, 0.5, 0.3, 0.4), empty=(-0.4, -0.1))
    ATOMS = ParticleMeasure(np.array([-2.5, -0.7, 0.0, 0.45, 1.9]),
                            np.array([0.1, 0.3, 0.15, 0.25, 0.2]))

    def test_grid_against_grid(self, degree):
        env = DominatingPolynomial(1.5, degree)
        assert gap_sign_changes(self.G1, self.G2) >= 3
        want = tp_quadrature(env, self.G1, self.G2)
        assert tp_distance_1d(env, self.G1, self.G2) == pytest.approx(want, rel=1e-8)
        assert tp_distance_1d(env, self.G2, self.G1) == pytest.approx(want, rel=1e-8)

    def test_grid_against_atoms(self, degree):
        env = DominatingPolynomial(1.5, degree)
        for grid in (self.G1, self.G2):
            assert gap_sign_changes(grid, self.ATOMS) >= 3
            want = tp_quadrature(env, grid, self.ATOMS)
            assert tp_distance_1d(env, grid, self.ATOMS) == pytest.approx(want, rel=1e-8)
            assert tp_distance_1d(env, self.ATOMS, grid) == pytest.approx(want, rel=1e-8)

    def test_grid_against_its_translate(self, degree):
        # shift s > 0: F(x) >= F(x - s), so tp = E[Phi0(Y + s) - Phi0(Y)];
        # on a cell of constant density the expectation integrates Psi, the
        # primitive of Phi0, in closed form
        env = DominatingPolynomial(1.5, degree)
        k, s = degree, 0.37 * 0.02 + 0.5
        moved = GridDensity(self.G1.lo + s, self.G1.hi + s, self.G1.values)

        def psi(x):
            return env.scale * (x * x / 2 + np.abs(x) ** (k + 2) / ((k + 1) * (k + 2)))

        edges = np.linspace(self.G1.lo, self.G1.hi, self.G1.values.size + 1)
        lo, hi = edges[:-1], edges[1:]
        want = float(self.G1.values @ (psi(hi + s) - psi(lo + s) - psi(hi) + psi(lo)))
        assert tp_distance_1d(env, self.G1, moved) == pytest.approx(want, rel=1e-8)
        assert tp_distance_1d(env, moved, self.G1) == pytest.approx(want, rel=1e-8)

    def test_equal_masses_scale_the_distance(self, degree):
        env = DominatingPolynomial(1.5, degree)
        for m1, m2 in ((self.G1, self.G2), (self.G2, self.ATOMS)):
            want = tp_quadrature(env, m1, m2)
            for c in (0.25, 3.0):
                got = tp_distance_1d(env, scaled(m1, c), scaled(m2, c))
                assert got == pytest.approx(c * want, rel=1e-8)


def lattice_grid(gen, lo, hi, cells):
    """Random bumps with a run of zero-mass cells at each end of the box."""
    xs = lo + (np.arange(cells) + 0.5) * (hi - lo) / cells
    k = int(gen.integers(2, 5))
    vals = sum(gen.uniform(0.2, 1.0) * np.exp(-0.5 * ((xs - c) / s) ** 2)
               for c, s in zip(gen.uniform(-2.5, 1.5, k), gen.uniform(0.2, 0.8, k)))
    vals[:int(gen.integers(1, 30))] = 0.0
    vals[-int(gen.integers(1, 30)):] = 0.0
    return GridDensity(lo, hi, vals).normalized()


class TestTpOnLattice:
    """Two grids on one box take a direct pass over the box's edges, with
    no knot merge; it must give what the general pass gives, which every
    other pair takes, two grids a whole number of cells apart included."""

    H = 8.0 / 400

    @staticmethod
    def general(env, m1, m2, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(transport, "_lattice_gap", lambda a, b: None)
            return tp_distance_1d(env, m1, m2)

    @staticmethod
    def on_union_box(a, b):
        """a and b zero-padded onto the one box that holds both: the same
        two measures on one box, which the lattice pass reads."""
        lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
        cells = int(round((hi - lo) / a.spacing))
        padded = []
        for g in (a, b):
            vals = np.zeros(cells)
            first = int(round((g.lo - lo) / g.spacing))
            vals[first:first + g.values.size] = g.values
            padded.append(GridDensity(lo, hi, vals))
        return padded

    @pytest.mark.parametrize("degree", [2, 4])
    @pytest.mark.parametrize("k", [0, 1, -1, 37, -150])
    def test_matches_the_general_pass(self, degree, k, monkeypatch):
        # on one box (k = 0) the lattice pass against the general one; on
        # boxes k cells apart the general pass against the lattice pass of
        # the same two grids on their union box
        env = DominatingPolynomial(1.5, degree)
        gen = make_rng(1000 + 7 * degree + k)
        changes = 0
        for _ in range(8):
            a = lattice_grid(gen, -5.0, 3.0, 400)
            b = lattice_grid(gen, -5.0 + k * self.H, 3.0 + k * self.H, 400)
            assert a.values[0] == 0.0 and b.values[-1] == 0.0
            assert (transport._lattice_gap(a, b) is None) == (k != 0)
            changes += gap_sign_changes(a, b)
            pa, pb = self.on_union_box(a, b)
            assert transport._lattice_gap(pa, pb) is not None
            for (m1, m2), (p1, p2) in (((a, b), (pa, pb)), ((b, a), (pb, pa))):
                want = (self.general(env, m1, m2, monkeypatch) if k == 0
                        else tp_distance_1d(env, p1, p2))
                assert tp_distance_1d(env, m1, m2) == pytest.approx(want, rel=1e-13)
        assert changes >= 4   # the gap changes sign: the split is covered

    @pytest.mark.parametrize("k", [3, -40])
    def test_moved_box_matches_cold_caches(self, k):
        # the box geometry (and its primitives) is keyed by envelope, box
        # ends and cell count: after `_box_follows` moves a box, tp reads the
        # new box's primitives and each density's CDF, and the old and the
        # new box's grids take the general pass, bit for bit what each
        # computes with every cache cleared
        w = even_polynomial([0.5, 0.1])
        gen = make_rng(77 + k)
        a, b = (lattice_grid(gen, -5.0, 3.0, 400) for _ in range(2))
        tp_distance_1d(w, a, b)   # the old box's primitives are cached
        c = 0.5 * (a.lo + a.hi) + k * self.H
        moved, moved_b = _box_follows(a, c), _box_follows(b, c)
        assert moved.lo == pytest.approx(a.lo + k * self.H, abs=1e-12)
        pairs = ((a, moved), (moved, b), (moved, moved_b), (a, b))
        warm = [tp_distance_1d(w, m1, m2) for m1, m2 in pairs]
        cold = []
        for m1, m2 in pairs:
            convolution_matrix.cache_clear()
            box_geometry.cache_clear()
            for m in (m1, m2):
                vars(m).pop("cdf", None)   # each density's memoized CDF
            cold.append(tp_distance_1d(w, m1, m2))
        assert warm == cold
        assert min(warm[1:]) > 0.0

    @pytest.mark.parametrize("frac", [0.37, 1e-7])
    def test_off_lattice_offsets_take_the_general_pass(self, frac):
        env = DominatingPolynomial(1.5, 4)
        gen = make_rng(5)
        a = lattice_grid(gen, -5.0, 3.0, 400)
        s = (12 + frac) * self.H
        b = lattice_grid(gen, -5.0 + s, 3.0 + s, 400)
        assert transport._lattice_gap(a, b) is None
        want = tp_quadrature(env, a, b)
        assert tp_distance_1d(env, a, b) == pytest.approx(want, rel=1e-8)


class TestW2:
    def test_dirac_pair(self):
        assert w2_distance(dirac(0.0), dirac(-2.5)) == pytest.approx(2.5)

    def test_gaussian_grids(self):
        g1 = gaussian_density(0.0, 1.0, -10, 10, 2048)
        g2 = gaussian_density(0.0, 1.4, -10, 10, 2048)
        assert w2_distance(g1, g2) == pytest.approx(0.4, abs=1e-4)

    def test_quantile_equals_bruteforce_assignment(self):
        gen = make_rng(2)
        for _ in range(25):
            x = gen.uniform(-3, 3, size=6)
            y = gen.uniform(-3, 3, size=6)
            m1 = ParticleMeasure(x, np.full(6, 1 / 6))
            m2 = ParticleMeasure(y, np.full(6, 1 / 6))
            got = w2_distance(m1, m2)
            assert got == pytest.approx(w2_bruteforce_equal_atoms(x, y), abs=1e-10)

    def test_equal_weight_clouds_match_sorted_oracle(self):
        # equal counts and weights: W2^2 = mean((sort x - sort y)^2) exactly
        gen = make_rng(61)
        for n in (1, 2, 7, 100, 5000):
            x = 3.0 * gen.standard_normal(n)
            y = gen.standard_normal(n) + 0.4
            want = math.sqrt(np.mean((np.sort(x) - np.sort(y)) ** 2))
            got = w2_distance(ParticleMeasure(x, np.full(n, 1 / n)),
                              ParticleMeasure(y, np.full(n, 1 / n)))
            assert got == pytest.approx(want, rel=1e-12)

    def test_tied_atoms(self):
        x = np.array([0.5, -1.0, 0.5, 0.5, 2.0, -1.0])
        y = np.array([1.0, 1.0, 1.0, -2.0, 0.0, 0.0])
        want = math.sqrt(np.mean((np.sort(x) - np.sort(y)) ** 2))
        got = w2_distance(ParticleMeasure(x, np.full(6, 1 / 6)),
                          ParticleMeasure(y, np.full(6, 1 / 6)))
        assert got == pytest.approx(want, abs=1e-14)

    def test_quantile_pieces_of_ordered_atoms_skip_the_sort(self):
        # sorted, tied and unsorted atoms give the pieces of an explicit
        # stable sort; already ordered positions come back as they are
        gen = make_rng(63)
        sorted_x = np.sort(gen.standard_normal(50))
        tied = np.array([-1.0, -1.0, 0.5, 0.5, 0.5, 2.0])
        unsorted = np.array([0.5, -1.0, 0.5, 0.5, 2.0, -1.0])
        for x in (sorted_x, tied, unsorted):
            m = ParticleMeasure(x, gen.uniform(0.2, 1.0, x.size))
            order = np.argsort(m.positions, kind="stable")
            want = np.cumsum(m.weights[order])
            want /= want[-1]
            cum, start, width = _quantile_pieces(m)
            assert np.array_equal(cum, want)
            assert np.array_equal(start, m.positions[order])
            assert width is None
        m = ParticleMeasure(sorted_x, np.ones(50))
        assert _quantile_pieces(m)[1] is m.positions

    def test_single_atom_against_cloud(self):
        gen = make_rng(62)
        x = gen.uniform(-2, 2, size=9)
        w = gen.uniform(0.2, 1.0, size=9)
        w = w / w.sum()
        want = math.sqrt(float(w @ (x - 0.3) ** 2))
        cloud = ParticleMeasure(x, w)
        assert w2_distance(dirac(0.3), cloud) == pytest.approx(want, abs=1e-14)
        assert w2_distance(cloud, dirac(0.3)) == pytest.approx(want, abs=1e-14)

    def test_grid_with_empty_cells_against_atoms(self):
        # mass 1/2 on each of two cells with empty cells between: the
        # quantile jumps across the gap; each half meets its own atom
        vals = np.zeros(32)
        vals[[5, 20]] = 1.0
        grid = GridDensity(-4.0, 4.0, vals).normalized()
        atoms = ParticleMeasure(np.array([-2.0, 1.5]), np.array([0.5, 0.5]))
        h = 0.25

        def mean_sq(lo, a):   # mean of (u - a)^2 for u uniform on [lo, lo + h]
            return ((lo + h - a) ** 3 - (lo - a) ** 3) / (3.0 * h)

        want = math.sqrt(0.5 * mean_sq(-4.0 + 5 * h, -2.0)
                         + 0.5 * mean_sq(-4.0 + 20 * h, 1.5))
        assert w2_distance(grid, atoms) == pytest.approx(want, abs=1e-14)
        assert w2_distance(atoms, grid) == pytest.approx(want, abs=1e-14)

    def test_grid_against_grid(self):
        # a translated copy of a grid density is at W2 distance |shift|
        g = gaussian_density(0.2, 0.7, -6.0, 6.0, 300)
        moved = GridDensity(g.lo + 1.25, g.hi + 1.25, g.values)
        assert w2_distance(g, moved) == pytest.approx(1.25, abs=1e-14)
        other = gaussian_density(-0.5, 1.3, -7.0, 5.0, 200)
        assert w2_distance(g, other) == pytest.approx(
            w2_distance(other, g), abs=1e-14)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 8])
    def test_quantile_target_sums_chunks_that_end_on_its_knots(self, chunk):
        # weights 1/8 against knots at multiples of 1/4 (atoms) or 1/16
        # (cells): chunks of 1, 2 and 3 atoms end exactly on knots
        gen = make_rng(64)
        x = np.sort(gen.standard_normal(8))
        for fixed in (ParticleMeasure(np.array([-1.0, 0.0, 0.5, 2.0]), np.full(4, 0.25)),
                      GridDensity(-2.0, 2.0, np.ones(16)).normalized()):
            cum = np.arange(1, 9) / 8.0
            chunks = [(x[s:s + chunk], cum[s:s + chunk]) for s in range(0, 8, chunk)]
            want = w2_distance(ParticleMeasure(x, np.full(8, 0.125)), fixed)
            got = transport.QuantileTarget(fixed).w2(chunks)
            assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1), (2, 2)],
                             ids=["1d-2d", "2d-1d", "2d-2d"])
    def test_non_1d_inputs_rejected(self, dims):
        # W2 is the 1-d quantile formula; a 2-d input on either side is
        # refused when its measure is built, before W2 sees it
        def cloud(dim):
            if dim == 1:
                return ParticleMeasure(np.array([0.0, 1.0]), np.array([0.3, 0.7]))
            return ParticleMeasure(np.ones((2, 2)), np.array([0.5, 0.5]))

        with pytest.raises(InvalidInputError, match="must be a 1-d array"):
            w2_distance(cloud(dims[0]), cloud(dims[1]))


class TestCenteredDistance:
    def test_translation_bound_common_center(self, quad):
        # tp(mu, mu(.+v)) <= |v| P(|v|) ||mu||_P after a common shift
        gen = make_rng(17)
        env = quad.bound
        for _ in range(20):
            m = random_atoms(gen, radius=2.0)
            v = float(gen.uniform(-1.5, 1.5))
            shifted = recenter(m, -v)  # atoms moved by +v
            c = float(np.average(m.positions, weights=m.weights))
            a = recenter(m, c)
            d = tp_distance_1d(quad, a, recenter(shifted, c))
            bound = abs(v) * env(abs(v)) * density_sums(quad, a).envelope_norm
            assert d <= bound + 1e-9

    def test_own_center_cancels_translation(self, quad):
        m = random_atoms(make_rng(23), radius=2.0)
        shifted = recenter(m, -1.7)
        d = tp_distance_1d(quad, centered(quad, m), centered(quad, shifted))
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_gaussians_same_shape_w2(self, quad):
        g1 = gaussian_density(0.0, 1.0, -8, 8, 1024)
        g2 = gaussian_density(3.0, 1.0, -5, 11, 1024)
        d = w2_distance(centered(quad, g1), centered(quad, g2))
        assert d == pytest.approx(0.0, abs=1e-6)

    def test_center_shift_inflation(self, quad):
        # tp after a common shift by v is at most P(|v|) times the raw tp
        gen = make_rng(31)
        env = quad.bound
        for _ in range(20):
            m1 = random_atoms(gen, radius=2.0)
            m2 = random_atoms(gen, radius=2.0)
            v = float(gen.uniform(-2, 2))
            raw = tp_distance_1d(env, m1, m2)
            shifted = tp_distance_1d(env, recenter(m1, v), recenter(m2, v))
            assert shifted <= env(abs(v)) * raw + 1e-9


def test_w2_squared_bounded_by_tp_on_tail_class(quad):
    # ratio w2^2 / tp stays bounded over a family with uniform tails
    gen = make_rng(41)
    ratios = []
    for _ in range(30):
        m1 = random_atoms(gen, radius=3.0)
        m2 = random_atoms(gen, radius=3.0)
        tp = tp_distance_1d(ENV, m1, m2)
        if tp < 1e-12:
            continue
        w2 = w2_distance(m1, m2)
        ratios.append(w2 * w2 / tp)
    assert max(ratios) < 10.0


def test_mass_mismatch_raises_with_extension_hint():
    from selfattract import NumericFailureError

    m1 = ParticleMeasure(np.array([0.0]), np.array([1.0]))
    m2 = ParticleMeasure(np.array([1.0]), np.array([0.5]))
    with pytest.raises(NumericFailureError, match="extend the grid"):
        tp_distance_1d(ENV, m1, m2)


def test_displacement_interpolation_endpoints():
    g0 = gaussian_density(-1.0, 1.0, -8, 8, 1024)
    g1 = gaussian_density(1.5, 0.8, -8, 8, 1024)
    mid = displacement_interpolate(g0, g1, 0.5)
    assert mid.mass == pytest.approx(1.0, abs=1e-9)
    assert mid.mean() == pytest.approx(0.5 * (-1.0) + 0.5 * 1.5, abs=5e-3)
    ends = displacement_interpolate(g0, g1, 0.0)
    assert w2_distance(ends, g0) < 5e-3
