import json

import numpy as np
import pytest

from selfattract import (InvalidInputError, NumericFailureError, ParticleMeasure,
                         Schedule, SimConfig, TrajectoryRecord,
                         counterexample_system, even_polynomial,
                         external_polynomial, gaussian_density, gibbs_map,
                         quadratic_symmetric, recenter, simulate,
                         simulate_ensemble, w2_distance)
from selfattract.diagnostics import (center_convergence, ergodicity_check,
                                     one_step_error)
from selfattract.powersums import PowerSums, power_sums
from conftest import make_rng


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
        # pre-history drawn from the fixed point, so every window samples the
        # stationary law; errors sit at the ergodic-average scale and shrink
        # with the window length roughly like its inverse square root
        gen = make_rng(44)
        warm = ParticleMeasure(gen.standard_normal(20_000), np.full(20_000, 5e-5))
        cfg = SimConfig(dt=0.01, t_end=1700.0, t_start=200.0, seed=9)
        rec = simulate(quad, 0.0, cfg, initial_occupation=warm)
        sched = Schedule(n_start=35, n_end=140)
        report = one_step_error(quad, rec, sched)
        errors = np.array([v for _, _, v in report.series])
        assert errors.max() < 5.0
        assert -1.3 < report.fits[0][1]["slope"] < 0.1

    def test_requires_coverage(self, quad, medium_record):
        with pytest.raises(Exception):
            one_step_error(quad, medium_record, Schedule(n_start=10, n_end=200))


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
        report = ergodicity_check(quad, records, rho, final_w2_bound=0.25,
                                  min_passing=3)
        assert report.passed
        fit = report.fits[0][1]
        assert fit["a"] > 0 and fit["ci_low"] > 0

    def test_warm_start_stays_at_floor(self, quad):
        gen = make_rng(12)
        warm = ParticleMeasure(gen.standard_normal(50_000), np.full(50_000, 1.0))
        cfg = SimConfig(dt=0.01, t_end=250.0, t_start=100.0, seed=21)
        records = simulate_ensemble(quad, 0.0, cfg, 2, initial_occupation=warm)
        rho = gaussian_density(0, 1, -8, 8, 1024)
        report = ergodicity_check(quad, records, rho, final_w2_bound=0.1,
                                  min_passing=2, n_boot=50)
        dists = [v for label, _, v in report.series if label.startswith("w2")]
        assert max(dists) < 0.05

    def test_sorted_prefixes_match_per_checkpoint_occupations(self, quad):
        # each checkpoint's W2 comes from one sort of the whole path; it must
        # equal W2 of that checkpoint's own occupation measure
        gen = make_rng(13)
        warm = ParticleMeasure(gen.standard_normal(300), gen.uniform(0.5, 1.0, 300))
        plain = simulate_ensemble(quad, 0.0, SimConfig(dt=0.01, t_end=80.0, seed=2), 1)
        warmed = simulate_ensemble(quad, 0.0, SimConfig(dt=0.01, t_end=80.0, t_start=5.0,
                                                        seed=3), 1, initial_occupation=warm)
        from_zero = simulate(quad, 0.0, SimConfig(dt=1e-3, t_end=20.0, t_start=0.0, seed=4))
        rho = gaussian_density(0, 1, -8, 8, 512)
        for rec in (plain[0], warmed[0], from_zero):
            report = ergodicity_check(quad, [rec], rho, min_passing=0, n_boot=10)
            series = [(t, v) for label, t, v in report.series if label.startswith("w2")]
            assert len(series) >= 10
            for t, got in series:
                want = w2_distance(recenter(rec.occupation(t), rec.center_at(t)), rho).value
                assert abs(got - want) <= 1e-12

    def test_report_is_reproducible(self, quad):
        cfg = SimConfig(dt=0.01, t_end=60.0, t_start=1.0, seed=14)
        records = simulate_ensemble(quad, 0.0, cfg, 2)
        rho = gaussian_density(0, 1, -8, 8, 512)
        r1 = ergodicity_check(quad, records, rho, n_boot=40)
        r2 = ergodicity_check(quad, records, rho, n_boot=40)
        assert r1.to_jsonl() == r2.to_jsonl()


def test_report_jsonl_round_trips(quad, medium_record):
    report = center_convergence(medium_record, Schedule(n_start=4, n_end=20))
    lines = report.to_jsonl().strip().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert parsed[0] == {"experiment": "center-convergence"}
    assert any("criterion" in p for p in parsed)
    assert "PASS" in report.summary() or "FAIL" in report.summary()


def _records():
    """A plain, a warm-started and a t = 0 record, short enough for oracles."""
    quad = quadratic_symmetric(1.0)
    gen = make_rng(31)
    warm = ParticleMeasure(gen.standard_normal(300), gen.uniform(0.5, 1.0, 300))
    return {
        "plain": simulate(quad, 0.0, SimConfig(dt=0.01, t_end=80.0, seed=2)),
        "warm": simulate(quad, 0.0, SimConfig(dt=0.01, t_end=80.0, t_start=5.0, seed=3),
                         initial_occupation=warm),
        "from_zero": simulate(quad, 0.0, SimConfig(dt=1e-3, t_end=20.0, t_start=0.0,
                                                   seed=4)),
    }


def _shifted(rec: TrajectoryRecord, s: float) -> TrajectoryRecord:
    warm = rec.initial_occupation
    if warm is not None:
        warm = ParticleMeasure(warm.positions + s, warm.weights)
    return TrajectoryRecord(rec.potential, rec.external, rec.config, rec.replica,
                            rec.times, rec.positions + s, rec.weights,
                            rec.center_track + s, initial_occupation=warm)


class TestPrefixSums:
    """The diagnostics read prefixes as sorted atoms and as power sums; both
    must equal what the prefix occupation measure gives."""

    @pytest.mark.parametrize("warm", [False, True])
    def test_tied_atoms_match_occupation_w2(self, quad, warm):
        # positions on a 0.01 lattice: many path atoms tie with each other
        # and with the pre-history atoms
        gen = make_rng(32)
        base = simulate(quad, 0.0, SimConfig(dt=0.01, t_end=60.0, t_start=4.0, seed=5))
        pre = (ParticleMeasure(np.round(gen.standard_normal(200), 2),
                               gen.uniform(0.5, 1.0, 200)) if warm else None)
        rec = TrajectoryRecord(quad, None, base.config, 0, base.times,
                               np.round(base.positions, 2), base.weights,
                               base.center_track, initial_occupation=pre)
        assert np.unique(rec.positions).size < rec.positions.size // 10
        rho = gaussian_density(0, 1, -8, 8, 512)
        report = ergodicity_check(quad, [rec], rho, min_passing=0, n_boot=10)
        series = [(t, v) for label, t, v in report.series if label.startswith("w2")]
        assert len(series) >= 10
        for t, got in series:
            want = w2_distance(recenter(rec.occupation(t), rec.center_at(t)), rho).value
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("name", ["plain", "warm", "from_zero"])
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

    @pytest.mark.parametrize("w, v", [
        (quadratic_symmetric(1.0), None),
        (even_polynomial([0.5, 0.1]), None),
        (quadratic_symmetric(1.0), external_polynomial([0.3])),
    ])
    def test_gibbs_map_on_sums_matches_occupation(self, w, v):
        rec = _records()["warm"]
        for t, pre in zip((6.0, 30.0, 80.0), rec.power_sums_at((6.0, 30.0, 80.0), 5)):
            want = gibbs_map(w, rec.occupation(t), v=v).density
            got = gibbs_map(w, pre, v=v).density
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

    @pytest.mark.parametrize("name", ["plain", "warm"])
    def test_series_are_translation_invariant(self, quad, name):
        rec = _records()[name]
        moved = _shifted(rec, 1000.0)
        sched = Schedule(n_start=3, n_end=18)
        rho = gaussian_density(0, 1, -8, 8, 512)
        for run in (lambda r: one_step_error(quad, r, sched),
                    lambda r: ergodicity_check(quad, [r], rho, min_passing=0, n_boot=10)):
            base, shifted = run(rec).series, run(moved).series
            assert [(label, t) for label, t, _ in base] == [(label, t) for label, t, _
                                                            in shifted]
            assert max(abs(a[2] - b[2]) for a, b in zip(base, shifted)) <= 1e-9


def test_ergodicity_rejects_records_ending_before_the_checkpoints(quad):
    records = simulate_ensemble(quad, 0.0, SimConfig(dt=0.01, t_start=1.0, t_end=1.5), 2)
    rho = gaussian_density(0, 1, -8, 8, 512)
    with pytest.raises(InvalidInputError, match=r"max\(2 t_start, t_start \+ 1\) = 2"):
        ergodicity_check(quad, records, rho)
