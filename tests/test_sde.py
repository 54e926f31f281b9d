import math
import tracemalloc

import numpy as np
import pytest

from selfattract import rng
from selfattract import (InvalidInputError, NumericFailureError, ParticleMeasure, SimConfig,
                         counterexample_system, dirac,
                         even_polynomial, external_polynomial, ou_domination,
                         picard_bootstrap,
                         quadratic_shifted, quadratic_symmetric, simulate,
                         simulate_ensemble, zero_interaction)
from selfattract import sde
from selfattract.powersums import anchor, convolution_matrix, power_sums
from conftest import make_rng
from oracles import full_history_path, history_drift


def short_cfg(**kw):
    base = dict(dt=0.01, t_end=4.0, t_start=1.0, seed=5)
    base.update(kw)
    return SimConfig(**base)


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

    def test_noiseless_run_contracts_to_center(self, quad):
        # pre-history sits at the origin, the path starts away from it
        cfg = short_cfg(noise_scale=0.0, t_end=20.0, dt=1e-3)
        rec = simulate(quad, 5.0, cfg, initial_occupation=dirac(0.0))
        gap = np.abs(rec.positions - rec.center_track)
        assert np.all(np.diff(gap) <= 1e-12)
        assert gap[-1] < 1e-3 * gap[0]

    def test_noiseless_run_first_order_in_dt(self, quad):
        runs = {}
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = short_cfg(noise_scale=0.0, dt=dt, t_end=3.0)
            runs[dt] = simulate(quad, 5.0, cfg, initial_occupation=dirac(0.0))
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
        gen = make_rng(8)
        warm = ParticleMeasure(gen.standard_normal(4000), np.full(4000, 1 / 4000))
        cfg = SimConfig(dt=0.01, t_end=60.0, t_start=50.0, seed=31)
        rec = simulate(quad, 0.0, cfg, initial_occupation=warm)
        occ = rec.occupation()
        # the warm block keeps its atoms and carries mass t_start / t_end
        assert occ.positions.size == 4000 + cfg.n_steps
        assert occ.weights[:4000].sum() == pytest.approx(50.0 / 60.0, abs=1e-9)
        assert abs(occ.mean()) < 0.3


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
        # the pre-history at 0 pulls every center away from the anchor
        # x0 = 3 at once; under the weak attraction the centers then wander
        # off on their own schedules, so later re-anchors move some columns
        shifts = []
        original = sde.reanchor

        def recording_reanchor(sums, shift):
            shifts.append(np.array(shift))
            return original(sums, shift)

        monkeypatch.setattr(sde, "reanchor", recording_reanchor)
        w = even_polynomial([0.05, 0.01])
        cfg = SimConfig(dt=0.01, t_end=101.0, t_start=1.0, seed=8)
        ens = simulate_ensemble(w, 3.0, cfg, 4, initial_occupation=dirac(0.0))
        partial = [s for s in shifts if s.ndim == 1 and (s == 0).any() and (s != 0).any()]
        assert partial
        for r, rec in enumerate(ens):
            single = simulate(w, 3.0, cfg, replica=r, initial_occupation=dirac(0.0))
            assert np.array_equal(rec.positions, single.positions)

    def test_one_replica_ensemble_matches_single_run(self):
        w = even_polynomial([0.5, 0.1])
        cfg = SimConfig(dt=0.01, t_end=101.0, t_start=1.0, seed=9)
        (rec,) = simulate_ensemble(w, 3.0, cfg, 1)
        single = simulate(w, 3.0, cfg)
        assert np.array_equal(rec.positions, single.positions)
        assert np.array_equal(rec.center_track, single.center_track)

    def test_records_share_one_read_only_weights_array(self):
        for w in (quadratic_symmetric(1.0), even_polynomial([0.5, 0.1])):
            ens = simulate_ensemble(w, 0.0, short_cfg(), 3)
            assert all(rec.weights is ens[0].weights for rec in ens)
            assert ens[0].weights[0] == 1.0 and np.all(ens[0].weights[1:] == 0.01)
            with pytest.raises(ValueError):
                ens[1].weights[0] = 2.0

    def test_stepped_ensemble_memory_is_its_outputs(self):
        # the increments are drawn into the positions, so positions and
        # centers (R, n + 1) bound the peak
        w = even_polynomial([0.5, 0.1])
        cfg = SimConfig(dt=0.01, t_end=201.0, t_start=1.0, seed=3)
        R, n = 64, cfg.n_steps
        tracemalloc.start()
        try:
            ens = simulate_ensemble(w, 0.0, cfg, R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ens) == R and n == 20_000
        assert peak <= 1.1 * 8 * 2 * R * (n + 1)

    @pytest.mark.parametrize("v", [None, external_polynomial([0.3])], ids=["W", "W+V"])
    def test_block_centers_are_exact_and_independent_of_the_block_length(self, v,
                                                                        monkeypatch):
        # 301 knots: four full blocks of the default length and a partial one,
        # with re-anchors as the mean leaves the warm start at 0 for x0 = 3
        w = even_polynomial([0.5, 0.1])
        cfg = SimConfig(dt=0.01, t_end=31.0, t_start=1.0, seed=6)
        ens = simulate_ensemble(w, 3.0, cfg, 3, v=v, initial_occupation=dirac(0.0))
        monkeypatch.setattr(sde, "_CENTER_BLOCK", 1)
        for rec, one in zip(ens, simulate_ensemble(w, 3.0, cfg, 3, v=v,
                                                   initial_occupation=dirac(0.0))):
            assert np.array_equal(rec.positions, one.positions)
            assert np.array_equal(rec.center_track, one.center_track)
        # at every knot the center is a root of W' * mu summed over the history
        g = np.polynomial.polynomial.polyder(w.poly1d_coefficients())
        for rec in ens:
            pre_pos, pre_w = rec.prehistory()
            atoms = np.concatenate((pre_pos, rec.positions[1:]))
            wts = np.concatenate((pre_w, rec.weights[1:]))
            for i in range(0, cfg.n_steps + 1, sde._CENTER_EVERY):
                m = pre_w.size + i
                assert abs(history_drift(g, atoms[:m], wts[:m], rec.center_track[i])) <= 1e-12

    def test_exploding_stepped_path_is_a_numeric_failure(self):
        # a steep V overshoots from x0 = 30 at once; the stepper checks each
        # block of positions for finiteness before it solves its centers
        w = even_polynomial([0.5, 0.1])
        cfg = SimConfig(dt=0.01, t_end=11.0, t_start=1.0, seed=1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericFailureError, match="lost finiteness"):
            simulate_ensemble(w, 30.0, cfg, 2, v=external_polynomial([0.0, 1.0]))

    def test_block_newton_divides_only_on_moving_columns(self):
        # under pure quartic W a point mass has g = g' = 0 at its mean: that
        # column is done at once and must not divide while the other moves
        T = convolution_matrix(even_polynomial([0.0, 0.1]), 1)
        S = np.stack([power_sums([0.0], [1.0], 0.0, 4),
                      power_sums([0.0, 1.0], [0.8, 0.2], 0.0, 4)], axis=1)[None]
        with np.errstate(all="raise"):
            c = sde._block_centers(T, S, np.ones((1, 1)))
        assert c[0, 0] == 0.0
        assert abs(history_drift([0, 0, 0, 0.4], np.array([0.0, 1.0]),
                                 np.array([0.8, 0.2]), c[0, 1])) <= 1e-12

    def test_replicas_differ(self, quad):
        ens = simulate_ensemble(quad, 0.0, short_cfg(), 2)
        assert np.abs(ens[0].positions - ens[1].positions).max() > 1e-3

    def test_full_history_ensemble_keeps_warm_block(self, quad):
        # every row of a warm-started ensemble is its replica's path under
        # the drift summed over the warm block and the path's own atoms
        warm = ParticleMeasure(make_rng(19).standard_normal(10) + 1.0, np.full(10, 0.1))
        cfg = short_cfg(seed=41)
        ens = simulate_ensemble(quad, 0.0, cfg, 2, initial_occupation=warm)
        for r, rec in enumerate(ens):
            positions, centers = full_history_path(quad, 0.0, cfg, replica=r,
                                                   initial_occupation=warm)
            assert rec.initial_occupation is warm
            assert np.abs(rec.positions - positions).max() <= 1e-12
            assert np.abs(rec.center_track - centers).max() <= 1e-12

    @pytest.mark.parametrize("w", [quadratic_symmetric(1.0), quadratic_symmetric(0.3),
                                   quadratic_shifted(1.0)],
                             ids=["unit", "weak", "shifted"])
    @pytest.mark.parametrize("x0", [0.0, 1000.0])
    @pytest.mark.parametrize("warm", [False, True], ids=["atom", "warm"])
    def test_closed_form_matches_euler_loop(self, w, x0, warm):
        # the quadratic closed form sums the Euler recursion that the column
        # stepper takes one step at a time, on the same noise
        init = None
        if warm:
            gen = make_rng(27)
            init = ParticleMeasure(x0 + gen.standard_normal(10), gen.uniform(0.5, 1.0, 10))
        cfg = SimConfig(dt=0.01, t_end=501.0, t_start=1.0, seed=58)
        pre = sde._prehistory(x0, cfg.t_start, init)
        T = convolution_matrix(w, 1)
        noise = np.stack([cfg.noise_scale * math.sqrt(cfg.dt)
                          * rng.normal_increments(cfg.seed, cfg.n_steps, r) for r in range(2)])
        steps = np.empty((2, cfg.n_steps + 1))
        steps[:, 1:] = noise
        stepped = sde._run_moment_columns(T, None, x0, pre, steps, cfg.dt, 1)
        summed = sde._run_quadratic_closed_form(T, x0, pre, noise, cfg.dt)
        assert summed[0].shape == (2, 50_001)
        for got, want in zip(summed, stepped):
            assert np.abs(got - want).max() <= 1e-11
        # and against the full-history oracle on a short run (relative away
        # from the origin, where one ulp of x is 1e-13)
        short = SimConfig(dt=0.01, t_end=6.0, t_start=1.0, seed=58)
        rec = simulate(w, x0, short, initial_occupation=init)
        positions, centers = full_history_path(w, x0, short, initial_occupation=init)
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


    @pytest.mark.parametrize("alpha,n", [(1.0 - 1e-4, 20_000), (0.9, 2_000)],
                             ids=["near-one", "decaying"])
    def test_ar1_block_sum_matches_the_recursion(self, alpha, n):
        # both runs cross more than one block of the scaled cumulative sum
        gen = make_rng(5)
        f = gen.standard_normal((2, n))
        z0 = np.array([0.3, -2.0])
        got = sde._ar1(alpha, z0, f, np.empty((2, n)))
        want = np.empty((2, n))
        for r in range(2):
            z = float(z0[r])
            for k in range(n):
                z = alpha * z + float(f[r, k])
                want[r, k] = z
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestOuDomination:
    def test_violation_fraction_small(self, quad):
        cfg = SimConfig(dt=1e-3, t_end=51.0, t_start=1.0, seed=17)
        res = ou_domination(quad, cfg, burn_in=10.0)
        assert res.violation_fraction <= 0.01

    def test_reflection_events_counted(self, quad):
        cfg = SimConfig(dt=1e-3, t_end=3.0, t_start=1.0, seed=29)
        res = ou_domination(quad, cfg, burn_in=0.5)
        assert res.n_reflections >= 0
        assert np.all(res.z_path >= 1e-6 - 1e-15)


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

    @pytest.mark.parametrize("kw", [dict(dt=0.01, t_end=0.03),
                                    dict(dt=0.01, t_end=1.0, noise_scale=20.0),
                                    dict(dt=1e-3, t_end=1.0, noise_scale=20.0)],
                             ids=["short", "noisy", "noisy-at-two-steps"])
    def test_start_at_zero_names_the_bootstrap_condition(self, quad, kw):
        with pytest.raises(InvalidInputError, match="t = 0 bootstrap needs 2 or more steps"):
            simulate(quad, 0.0, SimConfig(t_start=0.0, **kw))

    @pytest.mark.parametrize("run", [
        lambda w, cfg, occ: simulate(w, 0.0, cfg, initial_occupation=occ),
        lambda w, cfg, occ: simulate_ensemble(w, 0.0, cfg, 2, initial_occupation=occ)],
        ids=["simulate", "ensemble"])
    def test_warm_start_at_zero_rejected(self, quad, run):
        # at t = 0 the pre-history has no mass to carry a warm start
        cfg = SimConfig(dt=1e-3, t_end=1.0, t_start=0.0, seed=3)
        with pytest.raises(InvalidInputError, match="no pre-history"):
            run(quad, cfg, dirac(3.0))

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
            assert rec.times[0] == 0.0 and rec.weights[0] == 0.0
            assert np.array_equal(rec.times, single.times)
            assert np.array_equal(rec.positions, single.positions)
            assert np.array_equal(rec.center_track, single.center_track)

    def test_start_at_zero_runs_through_bootstrap(self, quad):
        cfg = SimConfig(dt=1e-3, t_end=1.0, t_start=0.0, seed=83)
        rec = simulate(quad, 0.0, cfg)
        assert rec.times[0] == 0.0
        assert np.all(np.isfinite(rec.positions))
        assert rec.occupation(0.5).total_mass == pytest.approx(1.0)


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
