import dataclasses
import json
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from selfattract import (InvalidInputError, NumericFailureError, Schedule, SimConfig,
                         TrajectoryRecord, counterexample_system, even_polynomial,
                         external_polynomial, gaussian_density, gibbs_map,
                         quadratic_shifted, quadratic_symmetric, recenter, simulate,
                         simulate_ensemble, w2_distance, zero_interaction)
from selfattract import diagnostics, sde, workers
from selfattract.diagnostics import (center_convergence, ergodicity_check,
                                     one_step_error)
from selfattract.powersums import PowerSums, power_sums
from conftest import make_rng


def ergodicity(w, records, rho, **kwargs):
    """The ergodicity report of the records as `diagnose` makes it from its
    replicas: the checkpoints of the longest path, each record's W2 curve
    as one task of the fork map, then the fit."""
    ts = diagnostics.checkpoints(max((rec.config for rec in records),
                                     key=lambda cfg: cfg.t_last))
    curves = workers.fork_map(
        lambda i: (records[i].replica, diagnostics.w2_curve(w, records[i], rho, ts)),
        len(records))
    return ergodicity_check(w, ts, curves, **kwargs)


@pytest.fixture(scope="module")
def medium_record():
    quad = quadratic_symmetric(1.0)
    cfg = SimConfig(dt=0.01, t_end=320.0, t_start=1.0, seed=6)
    return simulate(quad, 0.0, cfg)


class TestOneStepError:
    def test_series_positive_and_slope_negative(self, quad, medium_record):
        sched = Schedule(n_start=10, n_end=45)
        report = one_step_error(quad, medium_record, sched)
        errors = [v for _, _, v in report.series]
        assert all(e > 0 for e in errors)
        fit = dict(zip(("slope", "intercept"),
                       (report.fits[0][1]["slope"], report.fits[0][1]["intercept"])))
        assert fit["slope"] < 0
        assert report.passed

    def test_stationary_frozen_windows_sit_at_monte_carlo_floor(self, quad):
        # a heavy start atom at the fixed point's center holds the center
        # there, so every window samples the stationary law; errors sit at
        # the ergodic-average scale and shrink with the window length
        # roughly like its inverse square root
        cfg = SimConfig(dt=0.01, t_end=1700.0, t_start=200.0, seed=9)
        rec = simulate(quad, 0.0, cfg)
        sched = Schedule(n_start=35, n_end=140)
        report = one_step_error(quad, rec, sched)
        errors = np.array([v for _, _, v in report.series])
        assert errors.max() < 5.0
        assert -1.3 < report.fits[0][1]["slope"] < 0.1

    def test_requires_coverage(self, quad, medium_record):
        with pytest.raises(Exception):
            one_step_error(quad, medium_record, Schedule(n_start=10, n_end=200))

    @pytest.mark.parametrize("name", ["gibbs_map", "tp_distance_1d"])
    def test_failure_names_its_window(self, quad, medium_record, monkeypatch, name):
        # the third window's Gibbs image or distance fails
        calls, real = [], getattr(diagnostics, name)

        def fails_on_the_3rd(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise NumericFailureError("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(diagnostics, name, fails_on_the_3rd)
        sched = Schedule(n_start=10, n_end=45)
        with pytest.raises(NumericFailureError) as caught:
            one_step_error(quad, medium_record, sched)
        assert str(caught.value) == (f"one-step window 2 (t0 = {sched.time(12)!r}, "
                                     f"t1 = {sched.time(13)!r}): forced")


class TestCenterConvergence:
    def test_noiseless_symmetric_start_keeps_center_fixed(self, quad):
        cfg = SimConfig(dt=0.005, t_end=70.0, t_start=1.0, seed=1, noise_scale=0.0)
        rec = simulate(quad, 0.0, cfg)
        report = center_convergence(rec, Schedule(n_start=1, n_end=17))
        partial = [v for label, _, v in report.series if label == "partial_sum"]
        assert partial[-1] <= 1e-10

    def test_attracting_run_flattens(self, quad, medium_record):
        report = center_convergence(medium_record, Schedule(n_start=4, n_end=46))
        assert report.passed

    def test_shifted_attraction_fails_the_tail_sum(self):
        # negative control: without V the shifted W pushes the center on
        # like log t, so the increments' tail sum stays above the threshold
        cfg = SimConfig(dt=0.01, t_end=2000.0, t_start=1.0, seed=2)
        rec = simulate(quadratic_shifted(1.0), 0.0, cfg)
        report = center_convergence(rec, Schedule(n_start=10, n_end=150))
        (ok, margin), = [(ok, m) for name, ok, m in report.verdicts
                         if name == "increment tail sum below threshold"]
        assert not ok and margin < -0.4

    def test_counterexample_partial_sums_grow_like_log_t(self):
        # negative control: the shifted potential keeps pushing the center
        ts, _, cs = counterexample_system(2.2e4, 0.01, seed=5)
        knots = np.array([n ** 1.5 for n in range(4, 80)])
        idx = np.searchsorted(ts, knots)
        partial = np.cumsum(np.abs(np.diff(cs[idx])))
        # compare against log growth of the knot times
        ratio = partial / np.log(knots[1:])
        assert partial[-1] > 2.0
        assert ratio[-1] == pytest.approx(ratio[ratio.size // 2], rel=0.35)


class TestErgodicity:
    def test_replicas_converge_and_fit_positive(self, quad):
        cfg = SimConfig(dt=0.01, t_end=420.0, t_start=1.0, seed=3)
        records = simulate_ensemble(quad, 0.0, cfg, 4)
        rho = gaussian_density(0, 1, -8, 8, 1024)
        report = ergodicity(quad, records, rho, final_w2_bound=0.25, min_passing=3)
        assert report.passed
        fit = report.fits[0][1]
        assert fit["a"] > 0 and fit["ci_low"] > 0

    @pytest.mark.parametrize("noise_scale, failing", [
        (2.0, "fitted decay exponent positive"),
        (1.0, "final w2 <= 0.1 for >= 7 replicas")])
    def test_the_shipped_run_with_the_wrong_noise_fails(self, quad, noise_scale, failing):
        # negative controls: the shipped run's paths with a noise scale
        # other than sqrt(2) settle at another law than the fixed point, so
        # the named verdict fails (noise 2: the fit's bootstrap low is -0.23)
        cfg = SimConfig(dt=0.01, t_end=5000.0, t_start=1.0, seed=55, noise_scale=noise_scale)
        records = simulate_ensemble(quad, 0.0, cfg, 8)
        report = ergodicity(quad, records, gaussian_density(0, 1, -8, 8, 2048))
        verdicts = {name: (ok, margin) for name, ok, margin in report.verdicts}
        ok, margin = verdicts[failing]
        assert not ok and margin < 0

    def test_one_replica_must_pass_the_final_w2(self, quad):
        # by default all but one replica must end within the bound, and at
        # least one: a lone replica that ends far from the fixed point fails
        ts = np.array([2.0, 5.0, 10.0, 20.0])
        far, near = [0.5, 0.4, 0.3, 0.2], [0.5, 0.3, 0.1, 0.05]
        for curves, ok, margin in (([(0, far)], False, -1.0), ([(0, near)], True, 0.0),
                                   ([(0, far), (1, near)], True, 0.0)):
            report = ergodicity_check(quad, ts, curves, n_boot=10)
            assert report.verdicts[0] == ("final w2 <= 0.1 for >= 1 replicas", ok, margin)

    def test_sorted_prefixes_match_per_checkpoint_occupations(self, quad):
        # each checkpoint's W2 comes from one sort of the whole path; it must
        # equal W2 of that checkpoint's own occupation measure: a start atom
        # of mass 1 and of mass 5 (heavier than many path atoms), and none
        plain = simulate_ensemble(quad, 0.0, SimConfig(dt=0.01, t_end=80.0, seed=2), 1)
        heavy = simulate_ensemble(quad, 0.7, SimConfig(dt=0.01, t_end=80.0, t_start=5.0,
                                                       seed=3), 1)
        from_zero = simulate(quad, 0.0, SimConfig(dt=1e-3, t_end=20.0, t_start=0.0, seed=4))
        rho = gaussian_density(0, 1, -8, 8, 512)
        for rec in (plain[0], heavy[0], from_zero):
            report = ergodicity(quad, [rec], rho, min_passing=0, n_boot=10)
            series = [(t, v) for label, t, v in report.series if label.startswith("w2")]
            assert len(series) >= 10
            for t, got in series:
                want = w2_distance(recenter(rec.occupation(t), rec.center_at(t)), rho)
                assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("chunk", [2, 97])
    def test_sorted_prefix_chunks_match_across_chunk_boundaries(self, quad, chunk,
                                                               monkeypatch):
        # with chunks of 2 or 97 atoms the start atom falls mid-chunk and on
        # chunk boundaries; it ties with path atoms, and a record from t = 0
        # has none
        monkeypatch.setattr(diagnostics, "_PREFIX_CHUNK", chunk)
        cfg = SimConfig(dt=0.01, t_end=40.0, t_start=5.0, seed=7)
        (rec,) = simulate_ensemble(quad, 0.0, cfg, 1)
        ts = diagnostics.checkpoints(cfg)
        ranked = np.sort(rec.positions[1:rec.index_at(ts[-1]) + 1])

        def starting_at(x0):   # the record with its start atom moved to x0
            return dataclasses.replace(rec, positions=np.concatenate(([x0], rec.positions[1:])))

        tied = rec.positions.copy()
        tied[1::23] = tied[0]   # path atoms equal to the start atom
        records = [dataclasses.replace(rec, positions=tied),
                   # at the last checkpoint, rank 3 chunk opens a chunk and
                   # rank 3 chunk + 1 is inside one
                   starting_at(ranked[3 * chunk]),
                   starting_at(ranked[3 * chunk + 1]),
                   simulate(quad, 0.0, dataclasses.replace(cfg, t_start=0.0))]
        rho = gaussian_density(0, 1, -8, 8, 512)
        ranks = set()
        for rec in records:
            ts = diagnostics.checkpoints(rec.config)
            for t, chunks in zip(ts, diagnostics._sorted_prefixes(rec, ts)):
                chunks = list(chunks)
                assert all(pos.size == chunk for pos, _ in chunks[:-1])
                occ = rec.occupation(t)
                order = np.argsort(occ.positions, kind="stable")   # start atom first
                pos = np.concatenate([p for p, _ in chunks])
                cum = np.concatenate([c for _, c in chunks])
                assert np.array_equal(pos, occ.positions[order] - rec.center_at(t))
                assert np.abs(cum - np.cumsum(occ.weights[order])).max() <= 1e-12
                assert cum[-1] == 1.0
                if rec.first == 0:
                    ranks.add(int(np.flatnonzero(order == 0)[0]) % chunk == 0)
            report = ergodicity(quad, [rec], rho, min_passing=0, n_boot=10)
            series = [(t, v) for label, t, v in report.series if label.startswith("w2")]
            assert len(series) == ts.size
            for t, got in series:
                want = w2_distance(recenter(rec.occupation(t), rec.center_at(t)), rho)
                assert abs(got - want) <= 1e-12
        assert ranks == {True, False}
        assert np.count_nonzero(records[0].positions == records[0].positions[0]) > 100

    @pytest.mark.parametrize("n", [1_000_000, 4_000_000], ids=["1M", "4M"])
    def test_prefix_pass_memory_is_its_sort_buffer_and_a_constant(self, n):
        # a record of n path atoms with a view for its centers; the W2 pass
        # over its full prefix holds the one sort buffer and chunks of a
        # fixed size, whatever n is
        cfg = SimConfig(dt=0.01, t_end=1.0 + 0.01 * n)
        rec = TrajectoryRecord(cfg, 0, make_rng(5).standard_normal(n + 1),
                               np.broadcast_to(0.0, (n + 1,)))
        target = diagnostics.QuantileTarget(gaussian_density(0, 1, -8, 8, 1024))
        tracemalloc.start()
        try:
            (chunks,) = diagnostics._sorted_prefixes(rec, [cfg.t_last])
            d = target.w2(chunks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < d < 0.1
        # 8 n bytes of sort buffer, then a few arrays of a chunk's length
        assert peak - 8 * n <= 16 * 8 * diagnostics._PREFIX_CHUNK

    @pytest.mark.parametrize("n", [1_000_000, 4_000_000], ids=["1M", "4M"])
    def test_one_step_error_memory_is_a_constant(self, quad, n):
        # a record of n path atoms and a schedule of windows that covers it:
        # the pre-window power sums are taken over groups of whole segments,
        # so the pass holds a group's powers and a window's atoms, whatever
        # n is, not arrays of the path's length
        cfg = SimConfig(dt=1e-3, t_end=1.0 + 1e-3 * n)
        rec = TrajectoryRecord(cfg, 0, make_rng(5).standard_normal(n + 1),
                               np.broadcast_to(0.0, (n + 1,)))
        sched = Schedule(n_start=10, n_end=int(cfg.t_last ** (2 / 3)))
        tracemalloc.start()
        try:
            report = one_step_error(quad, rec, sched)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.series) == sched.n_end - sched.n_start
        assert peak <= 8 * 8 * sde._SUM_GROUP

    def test_without_a_center_the_fixed_point_is_read_as_given(self):
        # W = 0 has no center to put the fixed point at; V = x^2 / 2 places it
        w, v = zero_interaction(), external_polynomial([0.5])
        records = simulate_ensemble(w, 0.0, SimConfig(dt=0.01, t_end=60.0, seed=5), 2, v=v)
        rho = gaussian_density(0, 1, -8, 8, 512)
        report = ergodicity(w, records, rho, min_passing=0, n_boot=10)
        assert len([label for label, _, _ in report.series]) >= 20

    def test_report_is_reproducible(self, quad):
        cfg = SimConfig(dt=0.01, t_end=60.0, t_start=1.0, seed=14)
        records = simulate_ensemble(quad, 0.0, cfg, 2)
        rho = gaussian_density(0, 1, -8, 8, 512)
        r1 = ergodicity(quad, records, rho, n_boot=40)
        r2 = ergodicity(quad, records, rho, n_boot=40)
        assert r1.to_jsonl() == r2.to_jsonl()


def test_report_jsonl_round_trips(quad, medium_record):
    report = center_convergence(medium_record, Schedule(n_start=4, n_end=20))
    lines = report.to_jsonl().strip().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert parsed[0] == {"experiment": "center-convergence"}
    assert any("criterion" in p for p in parsed)
    assert "PASS" in report.summary() or "FAIL" in report.summary()


def _records():
    """A plain record, one whose start atom of mass 5 away from the origin
    outweighs its first 500 path atoms, and a t = 0 record, short enough
    for oracles."""
    quad = quadratic_symmetric(1.0)
    return {
        "plain": simulate(quad, 0.0, SimConfig(dt=0.01, t_end=80.0, seed=2)),
        "heavy": simulate(quad, 0.7, SimConfig(dt=0.01, t_end=80.0, t_start=5.0, seed=3)),
        "from_zero": simulate(quad, 0.0, SimConfig(dt=1e-3, t_end=20.0, t_start=0.0,
                                                   seed=4)),
    }


def _shifted(rec: TrajectoryRecord, s: float) -> TrajectoryRecord:
    return TrajectoryRecord(rec.config, rec.replica, rec.positions + s, rec.center_track + s)


class TestPrefixSums:
    """The diagnostics read prefixes as sorted atoms and as power sums; both
    must equal what the prefix occupation measure gives."""

    @pytest.mark.parametrize("from_zero", [False, True])
    def test_tied_atoms_match_occupation_w2(self, quad, from_zero):
        # positions on a 0.01 lattice: many path atoms tie with each other
        # and with the start atom at 0, which has mass 4, or from t = 0 is
        # not there
        cfg = SimConfig(dt=0.01, t_end=60.0, t_start=0.0 if from_zero else 4.0, seed=5)
        base = simulate(quad, 0.0, cfg)
        rec = TrajectoryRecord(base.config, 0, np.round(base.positions, 2), base.center_track)
        assert np.unique(rec.positions).size < rec.positions.size // 10
        assert np.count_nonzero(rec.positions[1:] == rec.positions[0]) > 10
        rho = gaussian_density(0, 1, -8, 8, 512)
        report = ergodicity(quad, [rec], rho, min_passing=0, n_boot=10)
        series = [(t, v) for label, t, v in report.series if label.startswith("w2")]
        assert len(series) >= 10
        for t, got in series:
            want = w2_distance(recenter(rec.occupation(t), rec.center_at(t)), rho)
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("name", ["plain", "heavy", "from_zero"])
    def test_power_sums_at_knots_match_occupation(self, name):
        rec = _records()[name]
        knots = [rec.times[0] + 0.5, 7.3, 12.0, 12.0, 19.999, rec.times[-1]]
        found = rec.power_sums_at(knots, 5)
        assert len(found) == len(knots)
        for t, got in zip(knots, found):
            occ = rec.occupation(t)
            want = power_sums(occ.positions, occ.weights, got.anchor, 5)
            scale = power_sums(np.abs(occ.positions - got.anchor), occ.weights, 0.0, 5)
            assert np.all(np.abs(got.sums - want) <= 1e-12 * scale), (t, got.sums, want)

    @pytest.mark.parametrize("group", [1, 97])
    def test_power_sums_at_are_the_same_bits_in_any_grouping(self, group, monkeypatch):
        # the record's 7900 path atoms are one group by default; in groups of
        # one segment, or of 97 atoms, each segment is still one reduction,
        # empty segments (the repeated knot) included
        rec = _records()["heavy"]
        knots = [6.0, 6.0, 7.3, 12.0, 30.0, 79.99, 80.0]
        want = rec.power_sums_at(knots, 5)
        monkeypatch.setattr(sde, "_SUM_GROUP", group)
        for got, one in zip(rec.power_sums_at(knots, 5), want, strict=True):
            assert got.anchor == one.anchor and np.array_equal(got.sums, one.sums)

    @pytest.mark.parametrize("w, v", [
        (quadratic_symmetric(1.0), None),
        (even_polynomial([0.5, 0.1]), None),
        (quadratic_symmetric(1.0), external_polynomial([0.3])),
    ])
    def test_gibbs_map_on_sums_matches_occupation(self, w, v):
        rec = _records()["heavy"]
        for t, pre in zip((6.0, 30.0, 80.0), rec.power_sums_at((6.0, 30.0, 80.0), 5)):
            want = gibbs_map(w, rec.occupation(t), v=v)
            got = gibbs_map(w, pre, v=v)
            assert np.abs(got.lo - want.lo).max() <= 1e-12
            assert np.abs(got.hi - want.hi).max() <= 1e-12
            assert np.abs(got.values - want.values).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_gibbs_map_on_overflowing_sums_fails(self):
        quartic = even_polynomial([0.5, 0.1])
        pos = np.array([-1e80, 1e80])
        sums = power_sums(pos, np.array([0.5, 0.5]), 0.0, 5)
        with pytest.raises(NumericFailureError):
            gibbs_map(quartic, PowerSums(0.0, sums))

    def test_one_step_error_builds_no_occupation(self, quad, medium_record, monkeypatch):
        def refuse(self, upto=None):
            raise AssertionError("one_step_error built a prefix occupation")

        monkeypatch.setattr(TrajectoryRecord, "occupation", refuse)
        report = one_step_error(quad, medium_record, Schedule(n_start=10, n_end=45))
        assert len(report.series) == 35

    @pytest.mark.parametrize("name", ["plain", "heavy"])
    def test_series_are_translation_invariant(self, quad, name):
        rec = _records()[name]
        moved = _shifted(rec, 1000.0)
        sched = Schedule(n_start=3, n_end=18)
        # the fixed point moves with the record: ergodicity centers both
        rho = gaussian_density(0, 1, -8, 8, 512)
        far = gaussian_density(1000, 1, 992, 1008, 512)
        for run in (lambda r, g: one_step_error(quad, r, sched),
                    lambda r, g: ergodicity(quad, [r], g, min_passing=0, n_boot=10)):
            base, shifted = run(rec, rho).series, run(moved, far).series
            assert [(label, t) for label, t, _ in base] == [(label, t) for label, t, _
                                                            in shifted]
            assert max(abs(a[2] - b[2]) for a, b in zip(base, shifted)) <= 1e-9


def test_ergodicity_rejects_records_ending_before_the_checkpoints(quad):
    records = simulate_ensemble(quad, 0.0, SimConfig(dt=0.01, t_start=1.0, t_end=1.5), 2)
    rho = gaussian_density(0, 1, -8, 8, 512)
    with pytest.raises(InvalidInputError, match=r"max\(2 t_start, t_start \+ 1\) = 2"):
        ergodicity(quad, records, rho)


def test_checkpoints_end_where_the_path_ends(quad):
    # t_end = 60.004 lies off the step grid: the path, and so the last
    # checkpoint, ends at t_start + dt n_steps = 60
    cfg = SimConfig(dt=0.01, t_end=60.004, seed=8)
    ts = diagnostics.checkpoints(cfg)
    assert cfg.t_last == simulate(quad, 0.0, cfg).times[-1]
    assert abs(ts[0] - 2.0) <= 1e-12 and abs(ts[-1] - cfg.t_last) <= 1e-12


@pytest.mark.parametrize("short_first", [False, True])
def test_ergodicity_rejects_a_record_ending_before_the_last_checkpoint(quad, short_first):
    # a record that stops early would otherwise repeat its full-path W2 at
    # the checkpoints it never reached
    records = simulate_ensemble(quad, 0.0, SimConfig(dt=0.01, t_end=60.0, seed=8), 2)
    short = simulate(quad, 0.0, SimConfig(dt=0.01, t_end=20.0, seed=9), replica=5)
    records = [short, *records] if short_first else [*records, short]
    rho = gaussian_density(0, 1, -8, 8, 512)
    with pytest.raises(InvalidInputError, match=r"replica 5 ends at t = 20\b"):
        ergodicity(quad, records, rho, min_passing=0, n_boot=10)


def _cpus(monkeypatch, n):
    """Make the fork map see n CPUs in its affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _pool_sizes(monkeypatch) -> list[int]:
    """The worker counts of the fork pools made from now on."""
    fork = multiprocessing.get_context("fork")
    sizes, make_pool = [], fork.Pool
    monkeypatch.setattr(fork, "Pool", lambda n: sizes.append(n) or make_pool(n))
    return sizes


class TestWorkerPool:
    @pytest.fixture(scope="class")
    def records(self):
        # two records with a start atom of mass 5 and one from t = 0
        quad = quadratic_symmetric(1.0)
        cfg = SimConfig(dt=0.01, t_end=60.0, t_start=5.0, seed=17)
        plain = simulate_ensemble(quad, 0.0, cfg, 2)
        from_zero = simulate(quad, 0.0, dataclasses.replace(cfg, t_start=0.0), replica=2)
        return [*plain, from_zero]

    def test_pooled_and_in_process_reports_are_identical(self, quad, records,
                                                         monkeypatch):
        # chunks of 97 atoms: the start atoms fall at their own ranks in
        # the chunks of every worker
        monkeypatch.setattr(diagnostics, "_PREFIX_CHUNK", 97)
        pools = _pool_sizes(monkeypatch)
        rho = gaussian_density(0, 1, -8, 8, 512)
        reports = []
        for cpus in (2, 1):
            _cpus(monkeypatch, cpus)
            reports.append(ergodicity(quad, records, rho, min_passing=0, n_boot=20))
        assert pools == [2]
        pooled, in_process = reports
        assert pooled.to_jsonl() == in_process.to_jsonl()   # repr of every float
        assert multiprocessing.active_children() == []

    def test_worker_count_is_capped_by_the_records_and_needs_fork(self, quad, records,
                                                                  monkeypatch):
        pools = _pool_sizes(monkeypatch)
        _cpus(monkeypatch, 8)
        rho = gaussian_density(0, 1, -8, 8, 512)
        ergodicity(quad, records[:2], rho, min_passing=0, n_boot=10)
        ergodicity(quad, records[:1], rho, min_passing=0, n_boot=10)
        assert pools == [2]
        # without a "fork" start method the curves are computed in-process
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        ergodicity(quad, records, rho, min_passing=0, n_boot=10)
        assert pools == [2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_replicas_read_one_at_a_time_give_the_ensembles_report(self, quad,
                                                                   monkeypatch, cpus):
        # each task simulates the one replica it reads, as `diagnose` does:
        # the same path as the ensemble's row, and the same report
        cfg = SimConfig(dt=0.01, t_end=60.0, seed=17)
        ensemble = simulate_ensemble(quad, 0.0, cfg, 3)
        for rec in ensemble:
            read = simulate(quad, 0.0, cfg, replica=rec.replica)
            assert read.replica == rec.replica
            assert np.array_equal(read.positions, rec.positions)
            assert np.array_equal(read.center_track, rec.center_track)
        _cpus(monkeypatch, cpus)
        rho = gaussian_density(0, 1, -8, 8, 512)
        ts = diagnostics.checkpoints(cfg)
        curves = workers.fork_map(lambda r: (r, diagnostics.w2_curve(
            quad, simulate(quad, 0.0, cfg, replica=r), rho, ts)), 3)
        streamed = ergodicity_check(quad, ts, curves, min_passing=0, n_boot=10)
        held = ergodicity(quad, ensemble, rho, min_passing=0, n_boot=10)
        assert streamed.to_jsonl() == held.to_jsonl()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("error", [NumericFailureError, InvalidInputError])
    def test_worker_errors_reach_the_caller(self, quad, records, monkeypatch, cpus,
                                            error):
        def fail(self, chunks):
            raise error("W2 pass failed: quantile pieces out of order")

        monkeypatch.setattr(diagnostics.QuantileTarget, "w2", fail)
        _cpus(monkeypatch, cpus)
        rho = gaussian_density(0, 1, -8, 8, 512)
        with pytest.raises(error) as caught:
            ergodicity(quad, records, rho, min_passing=0, n_boot=10)
        assert type(caught.value) is error
        assert str(caught.value) == "W2 pass failed: quantile pieces out of order"
        assert multiprocessing.active_children() == []
        assert workers._task is None
