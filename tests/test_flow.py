import cProfile
import dataclasses
import pstats

import numpy as np
import pytest

from selfattract import (DominatingPolynomial, GridDensity, InvalidInputError,
                         RateParams, Schedule, dirac, envelope_compare,
                         euler_step, even_polynomial, external_polynomial,
                         gaussian_density, quadratic_symmetric, run_flow,
                         smooth, solve_fixed_point, tp_distance_1d,
                         uniform_density)
from selfattract import cli, potentials, transport
from selfattract.flow import initial_state
from selfattract.measures import _cell_centers, box_geometry, density_sums
from selfattract.powersums import convolution_matrix
from selfattract.energy import free_energy
from conftest import peak_bytes
from oracles import tail_certificate


class TestSchedule:
    def test_exact_powers(self):
        s = Schedule(n_end=10)
        assert s.time(4) == 8.0
        assert s.time(1) == 1.0
        assert list(s.indices()) == list(range(1, 10))

    def test_interval_scaling(self):
        s = Schedule(n_end=101)
        n = s.indices()[-1]
        assert n == 100
        assert s.time(n) == pytest.approx(100.0 ** 1.5)
        assert (s.time(n + 1) - s.time(n)) / 100.0 ** 0.5 == pytest.approx(1.5, rel=0.02)

    def test_strictly_increasing(self):
        s = Schedule(n_end=40)
        ts = [s.time(n) for n in s.indices()]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert s.time(s.n_end) > ts[-1]

    def test_rejects_bad_range(self):
        with pytest.raises(InvalidInputError):
            Schedule(n_end=1)


def _walk(w, init, s):
    """Every state of the flow in turn, as `run_flow` steps them, for the
    tests that read each state's density."""
    state = initial_state(w, init, s)
    yield state
    for n in s.indices():
        state = euler_step(w, state, s.time(n + 1))
        yield state


@pytest.fixture(scope="module")
def rho_quad():
    return solve_fixed_point(quadratic_symmetric(1.0), uniform_density(-8, 8, 1024),
                             tol=1e-13).density


class TestEulerStep:
    @pytest.mark.parametrize("n", [1, 10, 60])
    def test_fixed_point_is_invariant_at_any_mixing_weight(self, quad, rho_quad, n):
        s = Schedule(n_start=n, n_end=n + 2)
        ref = free_energy(quad, rho_quad).total
        state = initial_state(quad, rho_quad, s)
        nxt = euler_step(quad, state, s.time(n + 1))
        assert tp_distance_1d(quad, nxt.density, rho_quad) <= 1e-8
        assert nxt.free_energy.total - ref <= 1e-10

    def test_mass_preserved(self, quad):
        init = smooth(dirac(0.0), 0.5, lo=-8, hi=8, cells=1024)
        s = Schedule(n_end=5)
        state = initial_state(quad, init, s)
        nxt = euler_step(quad, state, s.time(2))
        assert nxt.density.mass == pytest.approx(1.0, abs=1e-9)

    def test_state_sums_are_the_density_read_again(self, quad):
        # a step reuses its state's read of the density; reading it again
        # gives the same next state bit for bit, boxes moving or not
        init = smooth(dirac(3.0), 0.5, lo=-8, hi=8, cells=512)
        s = Schedule(n_end=30)
        state = initial_state(quad, init, s)
        moves = 0
        for n in s.indices():
            nxt = euler_step(quad, state, s.time(n + 1))
            reread = dataclasses.replace(state, sums=density_sums(quad, state.density))
            again = euler_step(quad, reread, s.time(n + 1))
            assert (nxt.center, nxt.free_energy, nxt.step_distance) == \
                (again.center, again.free_energy, again.step_distance)
            assert np.array_equal(nxt.density.values, again.density.values)
            moves += nxt.density.lo != state.density.lo
            state = nxt
        assert moves >= 1

    def test_rejects_non_increasing_time(self, quad, rho_quad):
        s = Schedule(n_end=5)
        state = initial_state(quad, rho_quad, s)
        with pytest.raises(InvalidInputError):
            euler_step(quad, state, state.time)

    def test_energy_decreases_from_smoothed_atom(self, quad):
        init = smooth(dirac(0.0), 0.5, lo=-8, hi=8, cells=1024)
        run = run_flow(quad, init, Schedule(n_end=40))
        assert np.all(np.diff(run.relative) <= 1e-8)


class TestRunFlow:
    def test_start_at_fixed_point_stays_there(self, quad, rho_quad):
        for st in _walk(quad, rho_quad, Schedule(n_end=12)):
            assert tp_distance_1d(quad, st.density, rho_quad) <= 1e-7

    def test_smoothed_atom_approaches_gaussian(self, quad, rho_quad):
        init = smooth(dirac(0.0), 0.5, lo=-8, hi=8, cells=1024)
        final = run_flow(quad, init, Schedule(n_end=120), rho_inf=rho_quad).final
        from selfattract import recenter

        centered = recenter(final.density, final.center)
        target = gaussian_density(0, 1, float(centered.lo),
                                  float(centered.hi), 1024)
        assert tp_distance_1d(quad, centered, target) <= 2e-3

    def test_center_increments_flatten(self, quad):
        init = smooth(dirac(0.4), 0.5, lo=-8, hi=8, cells=1024)
        run = run_flow(quad, init, Schedule(n_end=80))
        inc = np.abs(np.diff(run.center))
        first_half = inc[: inc.size // 2].sum()
        second_half = inc[inc.size // 2:].sum()
        assert second_half <= 0.2 * first_half + 1e-12

    def test_off_center_start_keeps_its_center(self, quad):
        # without V nothing pulls the measure anywhere: the box follows it,
        # and it stays at 3
        init = smooth(dirac(3.0), 0.5, lo=-8, hi=8, cells=1024)
        run = run_flow(quad, init, Schedule(n_end=60))
        assert np.abs(run.center - 3.0).max() <= 1e-9
        assert run.final.density.lo > -8.0

    def test_energy_decreases_from_off_center_start_with_v(self, quad):
        v = external_polynomial([0.5])   # V = x^2 / 2 pulls the measure to 0
        init = smooth(dirac(3.0), 0.5, lo=-8, hi=8, cells=1024)
        run = run_flow(quad, init, Schedule(n_end=40), v=v)
        assert np.all(np.diff(run.relative) <= 1e-8)
        assert run.final.center < 1.0

    @pytest.mark.parametrize("w", [quadratic_symmetric(1.0), even_polynomial([0.5, 0.1])],
                             ids=["quadratic", "quartic"])
    def test_a_moving_box_compares_grids_on_one_box(self, w, monkeypatch):
        # an atom at 3 with V = x^2 / 2: both boxes move, and still every tp
        # the flow and the fixed point take is between two grids on one box,
        # so none reaches the general pass that any other pair takes
        def refuse(m1, m2):
            raise AssertionError("tp merged the knots of two measures")

        monkeypatch.setattr(transport, "_merged_gap", refuse)
        v = external_polynomial([0.5])
        init = smooth(dirac(3.0), 0.5, lo=-5, hi=11, cells=1024)
        run = run_flow(w, init, Schedule(n_end=400), v=v)
        fixed = solve_fixed_point(w, init, v=v)
        assert run.final.density.lo < init.lo and fixed.density.lo < init.lo

    def test_columns_are_the_states_scalars(self, quad):
        # one row per state, its length the number of states: the columns
        # hold, bit for bit, what each state of the walk holds, and the
        # final state is the walk's last
        init = smooth(dirac(3.0), 0.5, lo=-8, hi=8, cells=512)
        s = Schedule(n_start=3, n_end=30)
        run = run_flow(quad, init, s, rho_inf=init)
        ref = free_energy(quad, init).total
        states = list(_walk(quad, init, s))
        assert len(run) == len(states) == s.n_end - s.n_start + 1
        assert run.n.tolist() == [st.n for st in states]
        assert run.time.tolist() == [st.time for st in states]
        assert run.center.tolist() == [st.center for st in states]
        assert run.step_tp.tolist() == [st.step_distance for st in states]
        assert run.entropy.tolist() == [st.free_energy.entropy for st in states]
        assert run.external.tolist() == [st.free_energy.external_term for st in states]
        assert run.interaction.tolist() == [st.free_energy.interaction_term for st in states]
        assert run.total.tolist() == [st.free_energy.total for st in states]
        assert run.relative.tolist() == [st.free_energy.total - ref for st in states]
        assert run.final.n == s.n_end
        assert np.array_equal(run.final.density.values, states[-1].density.values)

    @pytest.mark.parametrize("n_end", [50, 400])
    def test_flow_memory_does_not_grow_with_the_step_count(self, tmp_path, n_end):
        # the flow holds one density: the peak of the whole command is the
        # fixed point, one state, the step's temporaries, the caches and the
        # writing of the final density, none of which grows with the steps
        cells = 4096
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("[potential]\nkind = even-polynomial\ncoefficients = 0.5 0.1\n"
                       f"[schedule]\nn_end = {n_end}\n[grid]\ncells = {cells}\n"
                       "[init]\nkind = atom\n")
        convolution_matrix.cache_clear()
        box_geometry.cache_clear()
        rc, peak = peak_bytes(
            lambda: cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "flow"]))
        assert rc == 0
        assert (tmp_path / "out" / "flow.csv").read_text().count("\n") == n_end + 1
        assert peak <= 96 * 8 * cells

    def test_a_still_box_derives_each_quantity_once(self):
        # cProfile's call counts are deterministic: on a box that never
        # moves, each tp call takes at most one new cumulative sum (the
        # earlier density's CDF is kept on it), no step validates a density
        # it built, and the box's centers and envelope are evaluated once
        w = even_polynomial([0.5, 0.1])
        init = smooth(dirac(0.0), 0.5, lo=-8, hi=8, cells=1024)
        convolution_matrix.cache_clear()
        box_geometry.cache_clear()
        prof = cProfile.Profile()
        run = prof.runcall(run_flow, w, init, Schedule(n_end=31))
        stats = pstats.Stats(prof).stats

        def calls(file, name, line=None):
            return sum(count for (f, ln, fn), (_, count, *_) in stats.items()
                       if f.endswith(file) and fn == name and (line is None or ln == line))

        def calls_of(fn):
            code = fn.__code__
            return calls(code.co_filename, fn.__name__, code.co_firstlineno)

        assert (run.final.density.lo, run.final.density.hi) == (init.lo, init.hi)
        steps = calls_of(tp_distance_1d)
        assert steps > 30   # the flow's 30 steps and its fixed point's iterations
        assert calls("~", "<method 'cumsum' of 'numpy.ndarray' objects>") <= steps + 1
        assert calls_of(GridDensity.__post_init__) <= steps
        assert calls("selfattract/measures.py", "centers") == 1
        assert calls_of(DominatingPolynomial.__call__) == 1

    def test_v_is_evaluated_once_on_a_still_box(self, monkeypatch):
        # V at the cells is part of the box's memoized geometry: the flow and
        # its fixed point, on a box that never moves, evaluate it once
        w, v = even_polynomial([0.5, 0.1]), external_polynomial([0.5])
        init = smooth(dirac(0.0), 0.5, lo=-8, hi=8, cells=1024)
        box_geometry.cache_clear()
        horner, on_cells = potentials.horner, []

        def counted(c, y):
            if np.shape(y) == (1024,) and np.array_equal(c, v.poly1d_coefficients()):
                on_cells.append(y)
            return horner(c, y)

        monkeypatch.setattr(potentials, "horner", counted)
        run = run_flow(w, init, Schedule(n_end=31), v=v)
        assert (run.final.density.lo, run.final.density.hi) == (init.lo, init.hi)
        assert len(on_cells) == 1

    def test_cell_centers_are_evaluated_once_without_a_center(self):
        # a W without a center takes each state's center as its density's
        # mean, which reads the cell centers: they are memoized per box, as
        # the box's geometry reads them, so a still box evaluates them once
        w, v = even_polynomial([0.0, 0.1]), external_polynomial([0.5])
        init = smooth(dirac(0.0), 0.5, lo=-8, hi=8, cells=1024)
        box_geometry.cache_clear()
        _cell_centers.cache_clear()
        prof = cProfile.Profile()
        run = prof.runcall(run_flow, w, init, Schedule(n_end=31), v=v)
        evaluations = sum(count for (f, _, fn), (_, count, *_) in pstats.Stats(prof).stats.items()
                          if f.endswith("selfattract/measures.py") and fn == "_cell_centers")
        assert (run.final.density.lo, run.final.density.hi) == (init.lo, init.hi)
        assert evaluations == 1

    def test_tail_certificates_stay_bounded(self, quad):
        init = smooth(dirac(0.0), 0.5, lo=-8, hi=8, cells=1024)
        # fitted tail constants along the run stay within a bounded multiple
        # of the initial one
        track = np.array([tail_certificate(quad, st.density, quad.convexity_constant)
                          for st in _walk(quad, init, Schedule(n_end=50))])
        assert np.all(np.isfinite(track))
        assert track.max() <= 2.0 * track[0]


class TestEnvelopeCompare:
    def test_flat_zero_trace_fully_satisfied(self, quad, rho_quad):
        run = run_flow(quad, rho_quad, Schedule(n_end=10), rho_inf=rho_quad)
        report = envelope_compare(run.time, run.relative, RateParams())
        assert report["fraction_satisfied"] == 1.0

    def test_huge_rate_constant_dominates(self, quad):
        init = smooth(dirac(0.0), 0.5, lo=-8, hi=8, cells=1024)
        run = run_flow(quad, init, Schedule(n_end=40))
        report = envelope_compare(run.time, run.relative, RateParams(c7=1e-6))
        assert report["fraction_satisfied"] == 1.0

    def test_decay_exponent_positive_on_contracting_run(self, quad):
        init = smooth(dirac(0.0), 0.5, lo=-8, hi=8, cells=1024)
        run = run_flow(quad, init, Schedule(n_end=60))
        report = envelope_compare(run.time, run.relative, RateParams())
        assert report["decay_exponent"] > 0
