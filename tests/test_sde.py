import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfattract import rng
from selfattract import (InvalidInputError, NumericFailureError, SimConfig,
                         counterexample_system,
                         even_polynomial, external_polynomial, ou_domination,
                         picard_bootstrap,
                         quadratic_shifted, quadratic_symmetric, simulate,
                         simulate_ensemble, TrajectoryRecord, zero_interaction)
from selfattract import powersums, sde
from selfattract.powersums import anchor, convolution_matrix, power_sums
from conftest import make_rng, peak_bytes
from oracles import (full_history_path, history_drift, loop_center_tracks,
                     loop_moment_columns, loop_ou_domination)


def checked_blocks(monkeypatch) -> list:
    """Record a copy of every (block, first column) `_check_finite` sees."""
    blocks = []
    check = sde._check_finite

    def record(positions, first, origin, dt):
        blocks.append((positions.copy(), first))
        return check(positions, first, origin, dt)

    monkeypatch.setattr(sde, "_check_finite", record)
    return blocks


def first_non_finite(block, first, ids):
    """(step, replica id) of the earliest non-finite entry, lowest row first."""
    for col in range(block.shape[1]):
        for row in range(block.shape[0]):
            if not math.isfinite(block[row, col]):
                return first + col, ids[row]
    return None


def explosion_fields(err):
    found = re.search(r"at step (\d+), t = (\S+), replica (\d+);", str(err.value))
    return int(found[1]), float(found[2]), int(found[3])


def short_cfg(**kw):
    base = dict(dt=0.01, t_end=4.0, t_start=1.0, seed=5)
    base.update(kw)
    return SimConfig(**base)


def stepped_from(pre_pos, pre_w, w, x0, cfg, replicas, v=None):
    """Positions and every-step centers (R, n+1) of the replicas' paths
    from x0 whose sums start from the atoms ``pre_pos`` with weights
    ``pre_w`` instead of the start atom: the `sde._run_moment_columns`
    call of `simulate` on those atoms' sums about x0 and each replica's
    noise, under the same `np.errstate`."""
    T = convolution_matrix(w, 1)
    every = sde._CENTER_EVERY if T.shape[0] > 2 else 1   # as the simulator places them
    n = cfg.n_steps
    positions = np.empty((len(replicas), n + 1))
    knots = np.empty((len(replicas), n // every + 1))
    for row, r in zip(positions, replicas):
        sde._increments(cfg, n, r, out=row[1:])
    sums = power_sums(pre_pos, pre_w, x0, T.shape[0])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        sde._run_moment_columns(T, v, x0, sums, positions, knots, cfg.dt, every,
                                (replicas, 0, cfg.t_start))
    tracks = [TrajectoryRecord(cfg, r, row, k, every).center_track
              for r, row, k in zip(replicas, positions, knots)]
    return positions, np.array(tracks)


class TestSimulate:
    def test_running_moments_equal_full_history(self, quad):
        r1 = simulate(quad, 0.5, short_cfg())
        oracle, _ = full_history_path(quad, 0.5, short_cfg())
        assert np.abs(r1.positions - oracle).max() <= 1e-12

    def test_identity_holds_for_quartic(self):
        w = even_polynomial([0.5, 0.25])
        r1 = simulate(w, 0.5, short_cfg())
        oracle, _ = full_history_path(w, 0.5, short_cfg())
        assert np.abs(r1.positions - oracle).max() <= 1e-12

    def test_bit_identical_reruns(self, quad):
        cfg = short_cfg(seed=123)
        r1 = simulate(quad, 0.0, cfg)
        r2 = simulate(quad, 0.0, cfg)
        assert np.array_equal(r1.positions, r2.positions)
        assert np.array_equal(r1.center_track, r2.center_track)

    def test_dt_cap_enforced(self, quad):
        with pytest.raises(InvalidInputError):
            simulate(quad, 0.0, SimConfig(dt=0.05, t_end=2.0, t_start=1.0, seed=0))

    @pytest.mark.parametrize("t_start", [0.0, 1.0])
    def test_run_without_a_step_rejected(self, t_start):
        # a run from t = 0 takes its first step before the stepper, and a
        # path without a step has nothing to report
        with pytest.raises(InvalidInputError, match="at least one step"):
            SimConfig(dt=0.01, t_end=t_start + 0.004, t_start=t_start)

    def test_noiseless_run_contracts_to_center(self, quad, monkeypatch):
        # the first increment kicks the path from the start atom at 5 to the
        # origin, and no noise follows: from step 1 on the path sits away
        # from its center and contracts to it
        def kick(cfg, n, replica, out=None):
            out = np.empty(n) if out is None else out
            out[:] = 0.0
            out[0] = -5.0
            return out

        monkeypatch.setattr(sde, "_increments", kick)
        cfg = short_cfg(t_end=20.0, dt=1e-3)
        rec = simulate(quad, 5.0, cfg)
        assert abs(rec.positions[1]) <= 1e-12
        gap = np.abs(rec.positions - rec.center_track)[1:]
        assert np.all(np.diff(gap) <= 1e-12)
        assert gap[-1] < 1e-3 * gap[0]

    def test_noiseless_run_first_order_in_dt(self, quad):
        # V = x^2 / 2 pulls the path from 5 toward the origin
        runs = {}
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = short_cfg(noise_scale=0.0, dt=dt, t_end=3.0)
            runs[dt] = simulate(quad, 5.0, cfg, v=external_polynomial([0.5]))
        e1 = abs(runs[4e-3].positions[-1] - runs[1e-3].positions[-1])
        e2 = abs(runs[2e-3].positions[-1] - runs[1e-3].positions[-1])
        assert 1.3 <= e1 / e2 <= 3.5

    def test_occupation_decomposition_is_exact(self, quad):
        rec = simulate(quad, 0.3, short_cfg(t_end=5.0))
        t, s = 2.0, 1.5
        full = rec.occupation(t + s)
        head = rec.occupation(t)
        window = rec.window_occupation(t, t + s)
        lam = s / (t + s)
        rebuilt = np.concatenate(((1 - lam) * head.weights, lam * window.weights))
        pos = np.concatenate((head.positions, window.positions))
        assert np.allclose(np.sort(pos), np.sort(full.positions))
        assert rebuilt.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rebuilt, full.weights)

    def test_center_speed_bound(self, quad):
        cfg = short_cfg(t_end=30.0, seed=9)
        rec = simulate(quad, 1.0, cfg)
        env = quad.bound
        dc = np.abs(np.diff(rec.center_track)) / cfg.dt
        gap = np.abs(rec.positions - rec.center_track)[:-1]
        bound = env(gap) / (quad.convexity_constant * rec.times[:-1])
        # discrete estimate, allow integrator slack proportional to dt
        assert np.all(dc <= bound + 10 * cfg.dt)

    def test_zero_interaction_center_agrees_across_history_modes(self):
        # no attraction: the moment stepper and the full-history oracle keep
        # the start point as the center; otherwise both take the root of
        # W' * mu, at every step for a linear drift, also where W is not
        # uniformly convex
        cfg = short_cfg(seed=2, t_end=3.0)
        moments = simulate(zero_interaction(), 0.5, cfg)
        positions, centers = full_history_path(zero_interaction(), 0.5, cfg)
        assert np.abs(moments.positions - positions).max() <= 1e-12
        assert np.array_equal(moments.center_track, centers)
        for w in (even_polynomial([0.0, 0.1]), quadratic_symmetric(1.0)):
            moments = simulate(w, 0.5, cfg)
            positions, centers = full_history_path(w, 0.5, cfg)
            assert np.abs(moments.positions - positions).max() <= 1e-12
            assert np.abs(moments.center_track - centers).max() <= 1e-9

    def test_warm_start_occupation(self, quad):
        # a start at t_start = 50: the start atom keeps its place in the
        # occupation and carries mass t_start / t_end
        cfg = SimConfig(dt=0.01, t_end=60.0, t_start=50.0, seed=31)
        rec = simulate(quad, 0.0, cfg)
        occ = rec.occupation()
        assert occ.positions.size == 1 + cfg.n_steps
        assert occ.positions[0] == 0.0
        assert occ.weights[0] == pytest.approx(50.0 / 60.0, abs=1e-9)
        assert abs(occ.mean()) < 0.3


@pytest.mark.parametrize("dt", [0.01, 1e-3, 0.3])
@pytest.mark.parametrize("from_zero", [True, False], ids=["t_start=0", "t_start>0"])
@given(start=st.floats(0.01, 1000.0), n=st.integers(1, 500_000),
       picks=st.lists(st.integers(0, 500_000), max_size=16))
@settings(max_examples=20, deadline=None)
def test_index_at_is_the_searchsorted_of_the_time_grid(dt, from_zero, start, n, picks):
    # a record reads its time grid by arithmetic; it must find the step a
    # search of the built times finds: on grid points, 1e-13 and 1e-12 either
    # side of them, where t + 1e-12 ties with one and a float either side of
    # that, before t_start and past t_last
    t_start = 0.0 if from_zero else start
    cfg = SimConfig(dt=dt, t_end=t_start + dt * n, t_start=t_start)
    rec = TrajectoryRecord(cfg, 0, np.zeros(cfg.n_steps + 1), np.zeros(cfg.n_steps + 1))
    times = rec.times
    assert times.size == cfg.n_steps + 1 and times[-1] == cfg.t_last
    ts = [times[0] - 1.0, times[0] - 1e-11, times[-1] + 1e-11, times[-1] + 1.0]
    for k in {0, 1, times.size - 2, times.size - 1, *(k % times.size for k in picks)}:
        ts += [times[k] + s for s in (0.0, 1e-13, -1e-13, 1e-12, -1e-12)]
        tie = times[k] - 1e-12
        ts += [np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf)]
    for t in ts:
        assert rec.index_at(t) == np.searchsorted(times, t + 1e-12, side="right") - 1, t


class TestEnsemble:
    def test_matches_single_runs(self, quad):
        cfg = short_cfg(seed=77)
        ens = simulate_ensemble(quad, 0.2, cfg, 3)
        for r, rec in enumerate(ens):
            single = simulate(quad, 0.2, cfg, replica=r)
            assert np.array_equal(rec.positions, single.positions)
            assert np.array_equal(rec.center_track, single.center_track)

    @pytest.mark.parametrize("w", [even_polynomial([0.5, 0.1]), quadratic_symmetric(1.0)],
                             ids=["quartic", "quadratic"])
    def test_external_potential_matches_single_runs(self, w):
        # with V even quadratic W is stepped, not summed in closed form
        v = external_polynomial([0.3])
        cfg = SimConfig(dt=0.01, t_end=101.0, t_start=1.0, seed=31)
        ens = simulate_ensemble(w, 0.7, cfg, 3, v=v)
        for r, rec in enumerate(ens):
            single = simulate(w, 0.7, cfg, v=v, replica=r)
            assert rec.positions.size == 10_001
            assert np.array_equal(rec.positions, single.positions)
            assert np.array_equal(rec.center_track, single.center_track)

    def test_replicas_reanchor_at_different_steps(self, monkeypatch):
        # sums that start from an atom at 0 pull every center away from the
        # anchor x0 = 3 at once; under the weak attraction the centers then
        # wander off on their own schedules, so later re-anchors move some
        # columns, and each row is still the one-row run
        shifts = []
        original = sde.reanchor

        def recording_reanchor(sums, shift):
            shifts.append(np.array(shift))
            return original(sums, shift)

        monkeypatch.setattr(sde, "reanchor", recording_reanchor)
        w = even_polynomial([0.05, 0.01])
        cfg = SimConfig(dt=0.01, t_end=101.0, t_start=1.0, seed=8)
        ens, _ = stepped_from([0.0], [1.0], w, 3.0, cfg, range(4))
        partial = [s for s in shifts if s.ndim == 1 and (s == 0).any() and (s != 0).any()]
        assert partial
        for r, row in enumerate(ens):
            single, _ = stepped_from([0.0], [1.0], w, 3.0, cfg, [r])
            assert np.array_equal(row, single[0])

    @pytest.mark.parametrize("w", [even_polynomial([0.5, 0.1]), quadratic_symmetric(1.0),
                                   even_polynomial([0.5, 0.1, 0.01, 0.001]),
                                   even_polynomial([0.5, 0.1, 0.01, 0.001, 1e-4, 1e-5])],
                             ids=["quartic", "quadratic", "octic", "degree-12"])
    @pytest.mark.parametrize("t_start", [1.0, 0.0])
    def test_a_block_of_replicas_is_rows_of_the_ensemble(self, w, t_start):
        # a lone row too: the contraction adds a column's terms in the same
        # order at any ensemble size, from W of degree 8 on as well
        cfg = SimConfig(dt=0.01, t_end=21.0, t_start=t_start, seed=12)
        ens = simulate_ensemble(w, 0.4, cfg, 5)
        for size in (2, 1):
            block = simulate_ensemble(w, 0.4, cfg, size, first=3)
            assert [rec.replica for rec in block] == [3, 4][:size]
            for rec, row in zip(block, ens[3:]):
                assert np.array_equal(rec.positions, row.positions)
                assert np.array_equal(rec.center_track, row.center_track)

    def test_one_replica_ensemble_matches_single_run(self):
        w = even_polynomial([0.5, 0.1])
        cfg = SimConfig(dt=0.01, t_end=101.0, t_start=1.0, seed=9)
        (rec,) = simulate_ensemble(w, 3.0, cfg, 1)
        single = simulate(w, 3.0, cfg)
        assert np.array_equal(rec.positions, single.positions)
        assert np.array_equal(rec.center_track, single.center_track)

    def test_records_read_equal_read_only_times_and_weights_from_the_config(self):
        # a record holds its positions and center knots alone; every replica
        # reads the same time grid and weights, built from the config
        cfg = short_cfg()
        assert [f.name for f in dataclasses.fields(TrajectoryRecord)] == [
            "config", "replica", "positions", "center_knots", "center_every"]
        for w in (quadratic_symmetric(1.0), even_polynomial([0.5, 0.1])):
            for rec in simulate_ensemble(w, 0.0, cfg, 3):
                assert np.array_equal(rec.times,
                                      cfg.t_start + cfg.dt * np.arange(cfg.n_steps + 1))
                weights = np.full(rec.positions.size, 0.01)
                weights[0] = 1.0
                occ = rec.occupation()
                assert np.array_equal(occ.positions, rec.positions)
                assert np.array_equal(occ.weights, weights / weights.sum())
                with pytest.raises(ValueError):
                    rec.times[0] = 2.0

    def test_stepped_ensemble_memory_is_its_outputs(self):
        # the increments are drawn into the positions, which the stepper
        # and the quadratic closed form overwrite, so the positions (R, n + 1)
        # and the center knots bound the peak, also from t = 0: one knot
        # every 10 steps for the quartic W, every step for the closed form,
        # whose centers array is its working space
        R = 64
        for t_start in (1.0, 0.0):
            cfg = SimConfig(dt=0.01, t_end=t_start + 200.0, t_start=t_start, seed=3)
            n = cfg.n_steps
            for w, knots in ((even_polynomial([0.5, 0.1]), n // 10 + 1),
                             (quadratic_symmetric(1.0), n + 1)):
                simulate_ensemble(w, 0.0, short_cfg(t_start=t_start, t_end=t_start + 3.0),
                                  2)   # one-time caches outside the trace
                ens, peak = peak_bytes(lambda: simulate_ensemble(w, 0.0, cfg, R))
                assert len(ens) == R and n == 20_000
                assert ens[0].center_knots.size == knots
                assert peak <= 1.1 * 8 * R * ((n + 1) + knots)
                del ens

    def test_one_replica_memory_is_its_positions_and_centers(self):
        # one replica of 500k quadratic steps, as `diagnose` simulates it:
        # its record holds the positions and the every-step centers, and no
        # time grid, weights or occupation masses of the path's length
        quad = quadratic_symmetric(1.0)
        cfg = SimConfig(dt=0.01, t_end=5001.0, t_start=1.0, seed=55)
        simulate(quad, 0.0, short_cfg())   # one-time caches outside the trace
        rec, peak = peak_bytes(lambda: simulate(quad, 0.0, cfg))
        assert rec.positions.size == rec.center_knots.size == 500_001
        assert peak <= 1.25 * (rec.positions.nbytes + rec.center_knots.nbytes)

    @pytest.mark.parametrize("w, dt, n", [
        (quadratic_symmetric(0.01), 1e-3, 20_000),   # alpha = 1 - 1e-5: blocks of 8192
        (quadratic_symmetric(1.0), 0.01, 10_000),    # t11 dt = 0.01 at the dt cap: ~3000
        (quadratic_shifted(2.0), 0.005, 10_000),     # the same, with t00 != 0
    ], ids=["near-one", "smallest-block", "shifted"])
    @pytest.mark.parametrize("t_start", [1.0, 0.0])
    def test_closed_form_across_blocks_matches_the_scalar_recursion(self, w, dt, n,
                                                                    t_start):
        # the closed form sums each block's recursion and carries z and the
        # means' cumulative sum into the next; the Euler scheme stepped one
        # float at a time, with the mean carried by the running mass and sum,
        # must agree with it over every block
        cfg = SimConfig(dt=dt, t_end=t_start + dt * n, t_start=t_start, seed=4)
        assert cfg.n_steps == n
        (t00, t11), x0 = convolution_matrix(w, 1)[:, 0], 0.5
        for rec in simulate_ensemble(w, x0, cfg, 2):
            xi = (cfg.noise_scale * math.sqrt(dt)
                  * rng.normal_increments(cfg.seed, n, rec.replica)).tolist()
            x, mass, total, mean = x0, t_start, t_start * x0, x0
            positions, centers = [x], [mean - t00 / t11]
            for k in range(n):
                x = x - (t00 + t11 * (x - mean)) * dt + xi[k]
                mass, total = mass + dt, total + dt * x
                mean = total / mass
                positions.append(x)
                centers.append(mean - t00 / t11)
            for got, want in ((rec.positions, positions), (rec.center_knots, centers)):
                want = np.array(want)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("v", [None, external_polynomial([0.3])], ids=["W", "W+V"])
    def test_block_centers_are_exact_and_independent_of_the_block_length(self, v,
                                                                        monkeypatch):
        # 301 knots: four full blocks of the default length and a partial one,
        # with re-anchors as the mean leaves the atom at 0 the sums start
        # from, for x0 = 3
        w = even_polynomial([0.5, 0.1])
        cfg = SimConfig(dt=0.01, t_end=31.0, t_start=1.0, seed=6)
        positions, tracks = stepped_from([0.0], [1.0], w, 3.0, cfg, range(3), v=v)
        monkeypatch.setattr(sde, "_CENTER_BLOCK", 1)
        one = stepped_from([0.0], [1.0], w, 3.0, cfg, range(3), v=v)
        assert np.array_equal(positions, one[0])
        assert np.array_equal(tracks, one[1])
        # at every knot the center is a root of W' * mu summed over the history
        g = np.polynomial.polynomial.polyder(w.poly1d_coefficients())
        for row, track in zip(positions, tracks):
            atoms = np.concatenate(([0.0], row[1:]))
            wts = np.concatenate(([1.0], np.full(cfg.n_steps, cfg.dt)))
            for i in range(0, cfg.n_steps + 1, sde._CENTER_EVERY):
                assert abs(history_drift(g, atoms[:i + 1], wts[:i + 1], track[i])) <= 1e-12

    def test_exploding_stepped_path_is_a_numeric_failure(self, monkeypatch):
        # a steep V overshoots from x0 = 30 at once; the stepper checks each
        # block of positions for finiteness before it solves its centers, and
        # names the replica id, step and t of the earliest non-finite entry
        w = even_polynomial([0.5, 0.1])
        v = external_polynomial([0.0, 1.0])
        cfg = SimConfig(dt=0.01, t_end=11.0, t_start=1.0, seed=1)
        blocks = checked_blocks(monkeypatch)
        runs = [([2], lambda: simulate(w, 30.0, cfg, v=v, replica=2)),
                (range(3), lambda: simulate_ensemble(w, 30.0, cfg, 3, v=v))]
        for ids, run in runs:
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NumericFailureError, match="lost finiteness") as err:
                run()
            step, t, replica = explosion_fields(err)
            assert (step, replica) == first_non_finite(*blocks[-1], ids)
            assert t == cfg.t_start + cfg.dt * step
            assert 0 < step < cfg.n_steps

    def test_exploding_closed_form_names_replica_step_and_t(self, quad, monkeypatch):
        # noise of scale 1e306 overflows the closed form's S0 eta products
        cfg = SimConfig(dt=0.01, t_end=101.0, t_start=100.0, seed=1, noise_scale=1e306)
        blocks = checked_blocks(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericFailureError, match="lost finiteness") as err:
            simulate_ensemble(quad, 0.0, cfg, 3)
        (block, first), = blocks
        assert first == 0 and block.shape == (3, cfg.n_steps + 1)
        step, t, replica = explosion_fields(err)
        assert (step, replica) == first_non_finite(block, first, range(3))
        assert t == cfg.t_start + cfg.dt * step

    def test_block_newton_divides_only_on_moving_columns(self):
        # under pure quartic W a point mass has g = g' = 0 at its mean: that
        # column is done at once and must not divide while the other moves
        T = convolution_matrix(even_polynomial([0.0, 0.1]), 1)
        S = np.stack([power_sums([0.0], [1.0], 0.0, 4),
                      power_sums([0.0, 1.0], [0.8, 0.2], 0.0, 4)], axis=1)[:, None]
        with np.errstate(all="raise"):
            c = powersums.block_centers(T, S, np.ones((1, 1)))
        assert c[0, 0] == 0.0
        assert abs(history_drift([0, 0, 0, 0.4], np.array([0.0, 1.0]),
                                 np.array([0.8, 0.2]), c[0, 1])) <= 1e-12

    def test_replicas_differ(self, quad):
        ens = simulate_ensemble(quad, 0.0, short_cfg(), 2)
        assert np.abs(ens[0].positions - ens[1].positions).max() > 1e-3

    @pytest.mark.parametrize("w", [quadratic_symmetric(1.0), quadratic_symmetric(0.3),
                                   quadratic_shifted(1.0)],
                             ids=["unit", "weak", "shifted"])
    @pytest.mark.parametrize("x0", [0.0, 1000.0])
    @pytest.mark.parametrize("warm", [False, True], ids=["atom", "warm"])
    def test_closed_form_matches_euler_loop(self, w, x0, warm):
        # the quadratic closed form sums the Euler recursion that the column
        # stepper takes one step at a time, on the same noise, from the start
        # atom's sums or from those of ten atoms about x0 of the same mass
        cfg = SimConfig(dt=0.01, t_end=501.0, t_start=1.0, seed=58)
        pre = [x0], [cfg.t_start]
        if warm:
            gen = make_rng(27)
            pos, wts = x0 + gen.standard_normal(10), gen.uniform(0.5, 1.0, 10)
            pre = pos, wts * (cfg.t_start / wts.sum())
        sums = power_sums(*pre, x0, 2)[:, None]
        T = convolution_matrix(w, 1)
        noise = np.stack([cfg.noise_scale * math.sqrt(cfg.dt)
                          * rng.normal_increments(cfg.seed, cfg.n_steps, r) for r in range(2)])
        summed, stepped = np.empty((2, 2, 2, cfg.n_steps + 1))
        for positions, _ in (summed, stepped):
            positions[:, 1:] = noise
        sde._run_quadratic_closed_form(T, x0, sums, *summed, cfg.dt)
        sde._run_moment_columns(T, None, x0, sums, *stepped, cfg.dt, 1,
                                (range(2), 0, cfg.t_start))
        assert summed[0].shape == (2, 50_001)
        for got, want in zip(summed, stepped):
            assert np.abs(got - want).max() <= 1e-11
        if warm:
            return
        # and against the full-history oracle on a short run (relative away
        # from the origin, where one ulp of x is 1e-13)
        short = SimConfig(dt=0.01, t_end=6.0, t_start=1.0, seed=58)
        rec = simulate(w, x0, short)
        positions, centers = full_history_path(w, x0, short)
        assert np.abs(rec.positions - positions).max() <= 1e-12 * max(1.0, x0)
        assert np.abs(rec.center_track - centers).max() <= 1e-12 * max(1.0, x0)

    def test_zero_slope_quadratic_matches_zero_interaction(self):
        # W = 0 x^2 has an identically zero drift, like zero_interaction():
        # the path is x0 plus the noise and the center keeps its start
        cfg = short_cfg(seed=12)
        ref = simulate(zero_interaction(), 0.5, cfg)
        incs = cfg.noise_scale * math.sqrt(cfg.dt) * rng.normal_increments(cfg.seed, cfg.n_steps, 0)
        assert np.allclose(ref.positions[1:], 0.5 + np.cumsum(incs), atol=1e-13)
        assert np.all(ref.center_track == 0.5)
        for w in (even_polynomial([0.0]), zero_interaction()):
            for rec in (simulate(w, 0.5, cfg), simulate_ensemble(w, 0.5, cfg, 2)[0]):
                assert np.array_equal(rec.positions, ref.positions)
                assert np.array_equal(rec.center_track, ref.center_track)



class TestStrongOrder:
    FINE = 0.01 / 32   # the step of the reference path

    @pytest.mark.parametrize("w, v", [
        (quadratic_symmetric(1.0), None),
        (even_polynomial([0.5, 0.1]), None),
        (quadratic_symmetric(1.0), external_polynomial([0.3])),
    ], ids=["closed-form", "column-stepper", "quadratic-with-v"])
    def test_euler_converges_at_strong_order_one(self, w, v, monkeypatch):
        # every step size sums the same fine Brownian increments, so the
        # paths at t = 11 differ from the finest by the scheme's error alone;
        # with additive noise its strong order is 1, in the positions and in
        # the centers.  Averaged over 64 replicas, the position slopes of
        # seeds 0-7 lie in [1.04, 1.20], well inside the bounds (over 16:
        # 0.90-1.25)
        draw = sde._increments

        def coarse(cfg, n, replica, out=None):
            m = int(round(cfg.dt / self.FINE))
            fine = draw(dataclasses.replace(cfg, dt=self.FINE), n * m, replica)
            if out is None:
                out = np.empty(n)
            out[:] = fine.reshape(n, m).sum(axis=1)
            return out

        monkeypatch.setattr(sde, "_increments", coarse)

        def ends(dt):
            cfg = SimConfig(dt=dt, t_end=11.0, t_start=1.0)
            records = simulate_ensemble(w, 0.3, cfg, 64, v=v)
            return np.array([[rec.positions[-1], rec.center_track[-1]] for rec in records])

        steps = 0.01 / 2.0 ** np.arange(5)
        exact = ends(self.FINE)
        errors = np.array([np.abs(ends(dt) - exact).mean(axis=0) for dt in steps])
        slopes = [np.polyfit(np.log(steps), np.log(errors[:, k]), 1)[0] for k in (0, 1)]
        assert 0.9 <= slopes[0] <= 1.3, slopes
        assert slopes[1] >= 0.9, slopes


class TestColumnStepper:
    # the stepper against the loop it replaced, on one set of increments:
    # (W, V, x0, the atoms (positions, weights) the sums start from when not
    # the start atom, replicas, steps); 3 * 640 + 11 steps leave the last
    # center block partial
    CASES = {
        "zero-W": (zero_interaction(), external_polynomial([0.3]), 0.0, None, 3, 1931),
        "quadratic+V": (quadratic_symmetric(1.0), external_polynomial([0.3]), 0.5, None,
                        3, 700),
        "quartic": (even_polynomial([0.5, 0.1]), None, 0.0, None, 4, 3 * 640 + 11),
        "quartic+V": (even_polynomial([0.5, 0.1]), external_polynomial([0.3]), 1.0, None,
                      4, 3 * 640 + 11),
        "degree-6": (even_polynomial([0.5, 0.1, 0.01]), None, 0.0, None, 3, 3 * 640 + 11),
        "re-anchor": (even_polynomial([0.5, 0.1]), None, 3.0, ([0.0], [1.0]), 3, 1500),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_stepper_matches_the_loop_reference_bit_for_bit(self, case, monkeypatch):
        w, v, x0, pre, R, n = self.CASES[case]
        cfg = SimConfig(dt=0.01, t_end=1.0 + 0.01 * n, t_start=1.0, seed=11)
        assert cfg.n_steps == n
        T = convolution_matrix(w, 1)
        sums = power_sums(*(pre or ([x0], [cfg.t_start])), x0, T.shape[0])[:, None]
        increments = np.zeros((R, n + 1))
        for r in range(R):
            sde._increments(cfg, n, r, out=increments[r, 1:])
        shifts = []
        reanchor = sde.reanchor

        def record(S, shift):
            shifts.append(shift.copy())
            return reanchor(S, shift)

        monkeypatch.setattr(sde, "reanchor", record)
        args = (T, v, x0, sums)
        every = sde._CENTER_EVERY if T.shape[0] > 2 else 1   # as the simulator places them
        rest = (cfg.dt, every, (range(R), 0, cfg.t_start))
        got = increments.copy(), np.empty((R, n // every + 1))
        want = increments.copy(), np.empty((R, n + 1))
        sde._run_moment_columns(*args, *got, *rest)
        loop_moment_columns(*args, *want, *rest)
        assert np.array_equal(got[0], want[0])
        # the stepper writes the knots alone; a record rebuilds the loop's
        # interpolated centers between them
        assert np.array_equal(got[1], want[1][:, ::every])
        assert np.all(np.isfinite(got[1]))
        for r in range(R):
            rec = TrajectoryRecord(cfg, r, got[0][r], got[1][r], every)
            assert np.array_equal(rec.center_track, want[1][r])
        assert T.shape[0] == {"zero-W": 1, "quadratic+V": 2, "degree-6": 6}.get(case, 4)
        if case == "re-anchor":
            assert shifts and np.count_nonzero(shifts[0]) == R

    # (W, V, x0, t_start, steps), none a multiple of 10 steps, so a tail
    # is held after the last knot, and each ends in a partial block of
    # knots: from t = 0 with V, whose knots start at step 1; degree 6;
    # re-anchors as V pulls the mean away from x0 = 3
    TRACKS = {
        "t0+V": (even_polynomial([0.5, 0.1]), external_polynomial([0.3]), 0.5, 0.0,
                 2 * 640 + 17),
        "degree-6": (even_polynomial([0.5, 0.1, 0.01]), None, 0.0, 1.0, 3 * 640 + 7),
        "re-anchor": (even_polynomial([0.5, 0.1]), external_polynomial([0.3]), 3.0, 1.0,
                      1503),
    }

    @pytest.mark.parametrize("case", TRACKS)
    def test_rebuilt_centers_are_the_interpolated_track_bit_for_bit(self, case, monkeypatch):
        w, v, x0, t_start, n = self.TRACKS[case]
        cfg = SimConfig(dt=0.01, t_end=t_start + 0.01 * n, t_start=t_start, seed=13)
        assert cfg.n_steps == n and n % sde._CENTER_EVERY
        shifts = []
        reanchor = sde.reanchor
        monkeypatch.setattr(sde, "reanchor",
                            lambda S, shift: shifts.append(shift) or reanchor(S, shift))
        ens = simulate_ensemble(w, x0, cfg, 3, v=v)
        assert bool(shifts) == (case == "re-anchor")
        tracks = loop_center_tracks(w, x0, cfg, 3, v=v)
        first = int(t_start == 0)
        for rec, track in zip(ens, tracks):
            knots = rec.center_knots.size - first
            assert (rec.center_every, rec.first) == (sde._CENTER_EVERY, first)
            assert knots == (n - first) // sde._CENTER_EVERY + 1 and knots % sde._CENTER_BLOCK
            assert np.array_equal(rec.center_track, track)
            for steps in (slice(None, None, 26), slice(5, -3, 7), slice(n - 12, None)):
                assert np.array_equal(rec.centers(steps), track[steps])
            for i in (0, 1, 2, 11, 12, n - 1, n, -4):
                assert rec.centers(i) == track[i]
            assert rec.center_at(rec.times[-4]) == track[-4]

    @pytest.mark.parametrize("t_start", [1.0, 0.0])
    def test_every_step_knots_are_the_track_itself(self, t_start):
        # a linear drift (quadratic W, with V or not) solves its center at
        # every step: the record's track is the knots array, not a copy
        cfg = SimConfig(dt=0.01, t_end=t_start + 5.0, t_start=t_start, seed=2)
        for v in (None, external_polynomial([0.3])):
            for rec in simulate_ensemble(quadratic_symmetric(1.0), 0.5, cfg, 2, v=v):
                assert rec.center_every == 1
                assert rec.center_track is rec.center_knots
                assert rec.center_knots.size == cfg.n_steps + 1
                assert np.shares_memory(rec.centers(slice(3, None, 7)), rec.center_knots)

    def test_a_center_before_the_first_step_is_an_input_error(self, quad):
        # index -1 would read the path's last center
        rec = simulate(quad, 0.0, SimConfig(dt=0.01, t_end=90.0, t_start=8.0, seed=3))
        assert rec.center_at(8.0) == rec.center_knots[0]
        with pytest.raises(InvalidInputError, match=r"t = 7\.0 lies before"):
            rec.center_at(7.0)

    def test_a_path_covers_from_its_start_to_its_last_step_and_1e_9(self):
        cfg = SimConfig(dt=0.01, t_end=20.004, t_start=8.0)
        assert cfg.t_last == 8.0 + 0.01 * 1200
        assert cfg.covers(8.0, cfg.t_last + 1e-9)
        assert not cfg.covers(math.nextafter(8.0, 0.0), cfg.t_last)
        assert not cfg.covers(8.0, cfg.t_last + 2e-9)

    def test_drawn_row_is_the_allocated_draw(self):
        rows = np.zeros((2, 1001))
        row = rows[1, 1:]
        assert rng.normal_increments(7, 1000, 3, out=row) is row
        assert np.all(rows[0] == 0.0) and rows[1, 0] == 0.0
        assert np.array_equal(row, rng.normal_increments(7, 1000, 3))

    def test_center_newton_failure_names_replica_step_t_and_residual(self, monkeypatch):
        # with one Newton update per knot, the first knot whose column is
        # still off its root fails; the message names that knot's replica
        # id, step and t and its final |g|, each checked against |g| one
        # update from the running mean recomputed from the finished paths
        w = even_polynomial([0.5, 0.1])
        cfg = SimConfig(dt=0.01, t_end=3.0, t_start=1.0, seed=2)
        T = convolution_matrix(w, 1)
        knots = np.arange(0, cfg.n_steps + 1, sde._CENTER_EVERY)
        for ids, run in (([5], lambda: [simulate(w, 0.0, cfg, replica=5)]),
                         (range(3), lambda: simulate_ensemble(w, 0.0, cfg, 3))):
            residuals = np.array([[one_update_residual(T, ps) for ps in
                                   rec.power_sums_at(rec.times[knots], T.shape[0])]
                                  for rec in run()])
            knot = int(np.argmax((residuals > 1e-12).any(axis=0)))
            row = int(np.argmax(residuals[:, knot] > 1e-12))
            assert knot > 0 and residuals[:, :knot].max() <= 1e-13
            with monkeypatch.context() as m:
                m.setattr(powersums, "_NEWTON_ITERS", 1)
                with pytest.raises(NumericFailureError, match="center Newton") as err:
                    run()
            found = re.search(r"at step (\d+), t = (\S+), replica (\d+): \|g\| = (\S+) "
                              r"after 1 iterations", str(err.value))
            assert (int(found[1]), int(found[3])) == (knots[knot], ids[row])
            assert float(found[2]) == cfg.t_start + cfg.dt * knots[knot]
            assert float(found[4]) == pytest.approx(residuals[row, knot], rel=1e-6)


def one_update_residual(T, ps):
    """|g| of the drift polynomial T S / S0 one Newton update from the
    running mean of the power sums ``ps``."""
    poly = np.polynomial.polynomial
    b = T @ ps.sums / ps.sums[0]
    c = ps.sums[1] / ps.sums[0]
    c -= poly.polyval(c, b) / poly.polyval(c, np.arange(1, b.size) * b[1:])
    return abs(poly.polyval(c, b))


class TestOuDomination:
    def test_violation_fraction_small(self, quad):
        cfg = SimConfig(dt=1e-3, t_end=51.0, t_start=1.0, seed=17)
        res = ou_domination(quad, cfg)
        assert res.violation_fraction <= 0.01

    def test_reflection_events_counted(self, quad):
        cfg = SimConfig(dt=1e-3, t_end=3.0, t_start=1.0, seed=29)
        res = ou_domination(quad, cfg)
        assert res.n_reflections >= 0
        assert np.all(res.z_path >= 1e-6 - 1e-15)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_violation_fraction_small_above_quadratic_w(self, seed):
        # quartic W: the coupling reads the record's centers, interpolated
        # between the knots every `_CENTER_EVERY` steps
        cfg = SimConfig(dt=1e-3, t_end=51.0, t_start=1.0, seed=seed)
        res = ou_domination(even_polynomial([0.5, 0.1]), cfg)
        assert res.violation_fraction <= 0.01

    @pytest.mark.parametrize("w, cfg, reflects, violates", [
        (quadratic_symmetric(1.0), SimConfig(dt=1e-3, t_end=51.0, seed=17), False, False),
        # a strong attraction: Z reflects at its floor
        (quadratic_symmetric(10.0), SimConfig(dt=1e-3, t_end=51.0, seed=29), True, False),
        # a noise scale of 5: the domination fails on about a quarter of the steps
        (quadratic_symmetric(1.0), SimConfig(dt=1e-3, t_end=21.0, seed=2, noise_scale=5.0),
         False, True),
        (even_polynomial([0.5, 0.1]), SimConfig(dt=1e-3, t_end=21.0, seed=1), False, False),
        (even_polynomial([0.5, 0.1]), SimConfig(dt=1e-3, t_end=21.0, seed=2), False, False)],
        ids=["quadratic-17", "quadratic-reflects-29", "quadratic-violates-2", "quartic-1",
             "quartic-2"])
    def test_array_coupling_is_the_step_loops_bits(self, w, cfg, reflects, violates):
        # the blend, the mixed noise and the violations taken over the whole
        # path, and the Z recursion over floats, give the step-by-step loop's
        # Z path, violation fraction and reflection count to the last bit
        res = ou_domination(w, cfg)
        z_path, fraction, reflections = loop_ou_domination(w, cfg)
        assert np.array_equal(res.z_path, z_path)
        assert (res.violation_fraction, res.n_reflections) == (fraction, reflections)
        assert type(res.violation_fraction) is float and type(res.n_reflections) is int
        assert (reflections > 0, fraction > 0) == (reflects, violates)

    def test_dt_above_the_stability_cap_is_an_input_error(self, quad):
        cfg = SimConfig(dt=0.02, t_end=3.0, t_start=1.0)
        with pytest.raises(InvalidInputError, match=r"exceeds the stability cap 0\.01"):
            ou_domination(quad, cfg)

    def test_start_at_zero_needs_a_pre_history(self, quad):
        # the path is stepped on an atom of mass t_start: from t = 0 it has
        # none, which is an input error, not an explosion of the path
        cfg = SimConfig(dt=1e-3, t_end=3.0, t_start=0.0)
        with pytest.raises(InvalidInputError, match="pre-history"):
            ou_domination(quad, cfg)


class TestPicardBootstrap:
    def _noise(self, m, dt, seed=5, scale=math.sqrt(2.0)):
        # deterministic search for a stream whose path stays in the half-ball
        for s in range(seed, seed + 200):
            gen = make_rng(s)
            incs = scale * math.sqrt(dt) * gen.standard_normal(m)
            path = np.concatenate(([0.0], np.cumsum(incs)))
            if np.abs(path).max() <= 0.45:
                return path
        raise AssertionError("no suitable noise path found")

    def test_zero_interaction_returns_the_noise(self):
        from selfattract import zero_interaction

        dt, m = 1e-3, 100
        noise = self._noise(m, dt, seed=41)
        noise = np.clip(noise, -0.45, 0.45)
        res = picard_bootstrap(zero_interaction(), 0.0, dt * np.arange(m + 1), noise)
        assert np.abs(res.path - noise).max() <= 1e-15

    def test_contraction_factor(self, quad):
        dt, m = 1e-3, 120
        noise = self._noise(m, dt)
        res = picard_bootstrap(quad, 0.0, dt * np.arange(m + 1), noise)
        assert all(r <= 0.6 for r in res.contraction_ratios)

    def test_matches_fine_step_restart(self, quad):
        dt, m = 2e-3, 80
        noise = self._noise(m, dt, seed=61)
        times = dt * np.arange(m + 1)
        res = picard_bootstrap(quad, 0.0, times, noise)
        # oracle: direct self-interacting Euler recursion on an 8x finer grid
        refine = 8
        fine_t = np.linspace(0.0, times[-1], refine * m + 1)
        fine_noise = np.interp(fine_t, times, noise)
        fdt = fine_t[1] - fine_t[0]
        x = np.empty(fine_t.size)
        x[0] = 0.0
        s0 = s1 = 0.0
        for j in range(fine_t.size - 1):
            drift = (x[j] - 0.0) if j == 0 else (x[j] - s1 / s0)
            x[j + 1] = x[j] + (fine_noise[j + 1] - fine_noise[j]) - fdt * drift
            s0 += fdt
            s1 += fdt * x[j + 1]
        sup = np.abs(res.path - x[::refine]).max()
        assert sup <= 5 * dt

    def test_matches_direct_sum_oracle(self):
        # every Picard round, step j > 0 drifts against the previous
        # iterate's atoms 1..j of mass dt, step 0 against its first atom
        w = even_polynomial([0.5, 0.1])
        dt, m, x0 = 1e-3, 40, 0.7
        noise = self._noise(m, dt, seed=11)
        res = picard_bootstrap(w, x0, dt * np.arange(m + 1), noise)
        poly = np.polynomial.polynomial
        g = poly.polyder(w.poly1d_coefficients())
        path = x0 + noise
        for _ in res.sup_distances:
            new = [x0]
            for j in range(m):
                atoms, wts = (path[:1], np.ones(1)) if j == 0 else (path[1:j + 1], np.full(j, dt))
                d = float(wts @ poly.polyval(new[-1] - atoms, g)) / wts.sum()
                new.append(new[-1] - d * dt + (noise[j + 1] - noise[j]))
            path = np.array(new)
        assert len(res.sup_distances) >= 3
        assert np.abs(res.path - path).max() <= 1e-12 * np.abs(path).max()

    def test_zero_interaction_from_time_zero_is_the_noise_path(self):
        # no drift, so no contraction limit on the bootstrap segment
        cfg = SimConfig(dt=1e-3, t_end=1.0, t_start=0.0)
        rec = simulate(zero_interaction(), 0.0, cfg)
        incs = cfg.noise_scale * math.sqrt(cfg.dt) * rng.normal_increments(cfg.seed, cfg.n_steps, 0)
        assert rec.times.size == cfg.n_steps + 1
        assert np.abs(rec.positions[1:] - np.cumsum(incs)).max() <= 1e-13

    @pytest.mark.parametrize("t_end", [0.03, 0.01], ids=["three-steps", "one-step"])
    def test_short_runs_from_zero_match_the_oracle(self, quad, t_end):
        # a run from t = 0 needs no bootstrap segment, so one step is enough
        cfg = SimConfig(dt=0.01, t_end=t_end, t_start=0.0, seed=3)
        for r, rec in enumerate(simulate_ensemble(quad, 0.0, cfg, 2)):
            positions, centers = full_history_path(quad, 0.0, cfg, replica=r)
            assert rec.positions.size == cfg.n_steps + 1 == round(100 * t_end) + 1
            assert np.abs(rec.positions - positions).max() <= 1e-12
            assert np.abs(rec.center_track - centers).max() <= 1e-12

    @pytest.mark.parametrize("w,v,x0", [
        (quadratic_symmetric(1.0), None, 0.4), (even_polynomial([0.5, 0.1]), None, 0.4),
        (quadratic_shifted(1.0), None, 0.4),
        (even_polynomial([0.5, 0.1]), external_polynomial([0.5]), 0.4),
        (quadratic_symmetric(1.0), None, 1000.0), (even_polynomial([0.5, 0.1]), None, 1000.0),
        (quadratic_shifted(1.0), None, 1000.0)],
        ids=["quadratic", "quartic", "shifted", "quartic+V", "quadratic-1000", "quartic-1000",
             "shifted-1000"])
    def test_ensemble_from_zero_matches_the_full_history(self, w, v, x0):
        # step 0 drifts against the start atom alone, step i > 0 against the
        # path's atoms 1..i; relative away from the origin, where one ulp of
        # x is 1e-13
        cfg = SimConfig(dt=1e-3, t_end=2.0, t_start=0.0, seed=83)
        for r, rec in enumerate(simulate_ensemble(w, x0, cfg, 3, v=v)):
            positions, centers = full_history_path(w, x0, cfg, v=v, replica=r)
            assert rec.positions[0] == x0
            assert np.abs(rec.positions - positions).max() <= 1e-12 * max(1.0, x0)
            assert np.abs(rec.center_track - centers).max() <= 1e-12 * max(1.0, x0)

    def test_failures_from_a_zero_start_name_replica_round_sup_and_ratio(self, quad,
                                                                            monkeypatch):
        # each bootstrap error names the round, the last sup distance and the
        # last contraction ratio of the same rounds an unforced bootstrap takes
        dt, m = 1e-3, 120
        args = (quad, 0.0, dt * np.arange(m + 1), self._noise(m, dt))
        sups = picard_bootstrap(*args).sup_distances
        assert len(sups) > 3
        forced = [(3, "did not reach tolerance 1e-10", {"_BOOTSTRAP_MAX_ROUNDS": 3}),
                  (2, "is not contracting", {"_BOOTSTRAP_MAX_RATIO": 0.0})]
        for k, what, patches in forced:
            with monkeypatch.context() as mp:
                for name, value in patches.items():
                    mp.setattr(sde, name, value)
                with pytest.raises(NumericFailureError, match=what) as err:
                    picard_bootstrap(*args)
            found = re.search(r"\(round (\d+), last sup distance (\S+), "
                              r"contraction ratio (\S+)\)", str(err.value))
            assert int(found[1]) == k
            assert float(found[2]) == sups[k - 1]
            assert float(found[3]) == sups[k - 1] / sups[k - 2]

    def test_interval_too_long_rejected(self, quad):
        dt, m = 1e-2, 60  # delta = 0.6 > 1/3
        noise = np.zeros(m + 1)
        with pytest.raises(InvalidInputError):
            picard_bootstrap(quad, 0.0, dt * np.arange(m + 1), noise)

    def test_start_at_zero_without_attraction_keeps_x0_as_center(self):
        for x0 in (0.0, 2.5):
            cfg = SimConfig(dt=1e-3, t_end=1.0, t_start=0.0)
            rec = simulate(zero_interaction(), x0, cfg)
            assert np.all(rec.center_track == x0)

    @pytest.mark.parametrize("w", [quadratic_symmetric(1.0), even_polynomial([0.5, 0.1])],
                             ids=["quadratic", "quartic"])
    def test_start_at_zero_ensemble_rows_are_single_runs(self, w):
        cfg = SimConfig(dt=1e-3, t_end=2.0, t_start=0.0, seed=83)
        ens = simulate_ensemble(w, 0.4, cfg, 3)
        for r, rec in enumerate(ens):
            single = simulate(w, 0.4, cfg, replica=r)
            occ = rec.occupation()   # no start atom: step 1 on, of equal mass
            assert rec.times[0] == 0.0 and np.array_equal(occ.positions, rec.positions[1:])
            assert np.all(occ.weights == occ.weights[0])
            assert np.array_equal(rec.times, single.times)
            assert np.array_equal(rec.positions, single.positions)
            assert np.array_equal(rec.center_track, single.center_track)

    def test_start_at_zero_runs_through_bootstrap(self, quad):
        cfg = SimConfig(dt=1e-3, t_end=1.0, t_start=0.0, seed=83)
        rec = simulate(quad, 0.0, cfg)
        assert rec.times[0] == 0.0
        assert np.all(np.isfinite(rec.positions))
        assert rec.occupation(0.5).mass == pytest.approx(1.0)


class TestCounterexample:
    def test_mean_track_matches_closed_form(self):
        ys_at_2 = []
        for r in range(48):
            ts, ys, _ = counterexample_system(2.0, 0.005, seed=100 + r)
            ys_at_2.append(ys[-1])
        # closed-form mean of Y from y0 = 0 at t0 = 1: (t0 e^(t0 - t) - 1) / t
        want = (math.exp(1.0 - 2.0) - 1.0) / 2.0
        assert np.mean(ys_at_2) == pytest.approx(want, abs=0.12)

    def test_center_grows_like_log_t(self):
        ts, _, cs = counterexample_system(1e5, 0.01, seed=3)
        mask = ts >= 100.0
        slope = np.polyfit(np.log(ts[mask]), cs[mask], 1)[0]
        assert 0.85 <= slope <= 1.15

    def test_center_increases_in_the_mean(self):
        finals = []
        firsts = []
        for r in range(8):
            ts, _, cs = counterexample_system(1e4, 0.01, seed=7 + r)
            firsts.append(cs[ts <= 10.0][-1])
            finals.append(cs[-1])
        assert np.mean(finals) > np.mean(firsts) + 4.0


def test_poly_drift_coefficients_match_direct_convolution(quad):
    gen = make_rng(71)
    w = even_polynomial([0.5, 0.25])
    pos = gen.uniform(-2, 2, size=30)
    wts = gen.uniform(0.1, 1.0, size=30)
    a = anchor(pos)
    S = power_sums(pos, wts, a, 4)
    # the drift is against the normalized law
    coeffs = convolution_matrix(w, 1) @ S / S[0]
    grad = np.polynomial.polynomial.polyder(w.poly1d_coefficients())
    for x in (-1.5, 0.0, 0.7, 2.2):
        want = float(wts @ np.polynomial.polynomial.polyval(x - pos, grad)) / wts.sum()
        got = np.polynomial.polynomial.polyval(x - a, coeffs)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
