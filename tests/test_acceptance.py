"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else.  Criteria with runtime budgets
assert wall-clock time as well.
"""

import math
import time

import numpy as np
import pytest

from selfattract import (ParticleMeasure, RateParams, Schedule, SimConfig,
                         counterexample_system, dirac, envelope_compare,
                         gaussian_density, mixing_inequality, ou_domination,
                         picard_bootstrap, quadratic_symmetric, recenter,
                         relative_free_energy, run_flow, simulate_ensemble,
                         smooth, solve_fixed_point, tp_distance_1d,
                         uniform_density, w2_distance)
from selfattract.energy import entropy, free_energy, frozen_energy_difference
from conftest import make_rng, random_atoms, random_mixture

QUAD = quadratic_symmetric(1.0)


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_fixed_point_of_the_gibbs_map():
    start = time.perf_counter()
    rho = solve_fixed_point(QUAD, uniform_density(-5.0, 5.0, 1024)).density
    elapsed = time.perf_counter() - start
    xs = rho.centers()
    target = np.exp(-xs ** 2 / 2) / math.sqrt(2 * math.pi)
    sup = float(np.abs(rho.values - target).max())
    report("criterion 1 (fixed point from uniform)",
           sup <= 1e-3 and elapsed < 5.0,
           f"sup-error {sup:.2e} (<= 1e-3), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_gaussian_free_energy_values():
    g = gaussian_density(0.0, 1.0, -8.0, 8.0, 2048)
    fe = free_energy(QUAD, g).total
    ent = entropy(g)
    fe_err = abs(fe - (-0.5 * math.log(2 * math.pi)))
    ent_err = abs(ent - (-0.5 * math.log(2 * math.pi * math.e)))
    report("criterion 2 (Gaussian free energy and entropy)",
           fe_err <= 1e-3 and ent_err <= 1e-4,
           f"free-energy error {fe_err:.2e} (<= 1e-3), entropy error {ent_err:.2e} (<= 1e-4)")


def test_criterion_3_energy_identity_and_mixing_bound():
    gen = make_rng(303)
    worst_gap = 0.0
    worst_slack = math.inf
    for _ in range(50):
        mu = random_mixture(gen, cells=512)
        nu = random_mixture(gen, cells=512)
        lhs, rhs = frozen_energy_difference(QUAD, mu, nu)
        worst_gap = max(worst_gap, abs(lhs - rhs))
        for lam in (0.1, 0.3, 0.7):
            ml, mr = mixing_inequality(QUAD, mu, nu, lam)
            worst_slack = min(worst_slack, mr - ml)
    report("criterion 3 (energy identity + mixing inequality)",
           worst_gap <= 1e-6 and worst_slack >= -1e-8,
           f"max identity gap {worst_gap:.2e} (<= 1e-6), "
           f"min mixing slack {worst_slack:.2e} (>= -1e-8)")


@pytest.fixture(scope="module")
def flow_run():
    init = smooth(dirac(0.0), 0.5, lo=-8.0, hi=8.0, cells=1024)
    start = time.perf_counter()
    run = run_flow(QUAD, init, Schedule(n_start=1, n_end=400))
    elapsed = time.perf_counter() - start
    return run, elapsed


def test_criterion_4_monotone_flow(flow_run):
    run, elapsed = flow_run
    monotone = bool(np.all(np.diff(run.relative) <= 1e-8))
    final = run.final
    centered = recenter(final.density, final.center)
    target = gaussian_density(0.0, 1.0, float(centered.lo),
                              float(centered.hi), 1024)
    dist = tp_distance_1d(QUAD, centered, target)
    report("criterion 4 (monotone flow to the Gaussian)",
           monotone and dist <= 1e-2 and elapsed < 30.0,
           f"monotone {monotone}, final tp {dist:.2e} (<= 1e-2), "
           f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_5_sde_ergodicity():
    start = time.perf_counter()
    cfg = SimConfig(dt=0.01, t_end=5000.0, t_start=1.0, seed=55)
    records = simulate_ensemble(QUAD, 0.0, cfg, 8)
    rho = gaussian_density(0.0, 1.0, -8.0, 8.0, 2048)
    dists = []
    for rec in records:
        occ = rec.occupation()
        centered = recenter(occ, rec.center_track[-1])
        dists.append(w2_distance(centered, rho))
    elapsed = time.perf_counter() - start
    n_pass = sum(d <= 0.1 for d in dists)
    report("criterion 5 (ergodicity of 8 replicas)",
           n_pass >= 7 and elapsed < 60.0,
           f"{n_pass}/8 replicas with w2 <= 0.1 (need >= 7), "
           f"max w2 {max(dists):.3f}, runtime {elapsed:.1f}s (< 60s)")


def test_criterion_6_transport_energy_bound():
    gen = make_rng(606)
    rho = gaussian_density(0.0, 1.0, -10.0, 10.0, 1024)
    violations = 0
    for _ in range(100):
        m = random_mixture(gen, lo=-10.0, hi=10.0, cells=1024)
        m = recenter(m, m.mean())
        w2 = w2_distance(m, rho)
        rel = relative_free_energy(QUAD, m, rho)
        if w2 * w2 > 2.0 / QUAD.convexity_constant * rel + 1e-6:
            violations += 1
    report("criterion 6 (transport-energy inequality)",
           violations == 0, f"{violations}/100 violations (need 0)")


def test_criterion_7_transport_oracles():
    from test_transport import monotone_coupling_cost, w2_bruteforce_equal_atoms

    gen = make_rng(707)
    env = QUAD.bound
    worst_tp = 0.0
    for _ in range(200):
        m1 = random_atoms(gen, n_max=8)
        m2 = random_atoms(gen, n_max=8)
        got = tp_distance_1d(env, m1, m2)
        want = monotone_coupling_cost(env, m1, m2)
        worst_tp = max(worst_tp, abs(got - want))
    worst_w2 = 0.0
    for _ in range(40):
        x = gen.uniform(-3.0, 3.0, size=6)
        y = gen.uniform(-3.0, 3.0, size=6)
        got = w2_distance(ParticleMeasure(x, np.full(6, 1 / 6)),
                          ParticleMeasure(y, np.full(6, 1 / 6)))
        worst_w2 = max(worst_w2, abs(got - w2_bruteforce_equal_atoms(x, y)))
    report("criterion 7 (transport oracles)",
           worst_tp <= 1e-10 and worst_w2 <= 1e-10,
           f"tp vs monotone-coupling {worst_tp:.2e}, "
           f"w2 vs exhaustive assignment {worst_w2:.2e} (both <= 1e-10)")


def test_criterion_8_ou_domination():
    fractions = []
    for seed in (1, 2, 3, 4):
        cfg = SimConfig(dt=1e-3, t_end=201.0, t_start=1.0, seed=seed)
        res = ou_domination(QUAD, cfg)
        fractions.append(res.violation_fraction)
    report("criterion 8 (OU domination coupling)",
           all(f <= 0.01 for f in fractions),
           f"violation fractions {['%.4f' % f for f in fractions]} (each <= 1%)")


def test_criterion_9_contraction_bootstrap():
    dt, m = 1e-3, 150
    path = None
    for seed in range(40):
        gen = make_rng(900 + seed)
        incs = math.sqrt(2.0) * math.sqrt(dt) * gen.standard_normal(m)
        cand = np.concatenate(([0.0], np.cumsum(incs)))
        if np.abs(cand).max() <= 0.45:
            path = cand
            break
    times = dt * np.arange(m + 1)
    res = picard_bootstrap(QUAD, 0.0, times, path)
    ratios_ok = all(r <= 0.6 for r in res.contraction_ratios)
    # fine-step oracle: direct self-consistent Euler recursion, 8x finer
    refine = 8
    fine_t = np.linspace(0.0, times[-1], refine * m + 1)
    fine_noise = np.interp(fine_t, times, path)
    fdt = fine_t[1] - fine_t[0]
    x = np.empty(fine_t.size)
    x[0] = 0.0
    s0 = s1 = 0.0
    for j in range(fine_t.size - 1):
        drift = 0.0 if j == 0 else (x[j] - s1 / s0)
        x[j + 1] = x[j] + (fine_noise[j + 1] - fine_noise[j]) - fdt * drift
        s0 += fdt
        s1 += fdt * x[j + 1]
    sup = float(np.abs(res.path - x[::refine]).max())
    report("criterion 9 (contraction bootstrap)",
           ratios_ok and sup <= 5 * dt,
           f"max ratio {max(res.contraction_ratios):.3f} (<= 0.6), "
           f"fine-restart gap {sup:.2e} (<= {5 * dt:.0e})")


def test_criterion_10_counterexample_center_drift():
    slopes = []
    for r in range(8):
        ts, _, cs = counterexample_system(1e5, 0.01, seed=1000 + r)
        mask = ts >= 100.0
        slopes.append(float(np.polyfit(np.log(ts[mask]), cs[mask], 1)[0]))
    mean_slope = float(np.mean(slopes))
    report("criterion 10 (non-symmetric center drift)",
           0.9 <= mean_slope <= 1.1,
           f"mean center-vs-log-t slope {mean_slope:.3f} (in [0.9, 1.1])")


def test_criterion_11_rate_shape_fit(flow_run):
    run, _ = flow_run
    rep = envelope_compare(run.time, run.relative, RateParams(c7=1.0, k=QUAD.bound_degree))
    a_fit = rep["decay_exponent"]
    # bootstrap the fitted exponent over step resamples
    times = rep["times"]
    trace = rep["energy_trace"]
    mask = trace > 0
    xs = np.log(times[mask]) ** (1.0 / (QUAD.bound_degree + 1))
    ys = np.log(trace[mask])
    gen = make_rng(1111)
    boots = []
    for _ in range(300):
        pick = gen.integers(0, xs.size, size=xs.size)
        boots.append(-np.polyfit(xs[pick], ys[pick], 1)[0])
    lo = float(np.percentile(boots, 2.5))
    # fit the largest rate constant whose envelope still dominates >= 95%
    c7_fit = None
    fraction = 0.0
    for c7 in np.geomspace(1e-3, 4.0, 24):
        cand = envelope_compare(run.time, run.relative,
                                RateParams(c7=float(c7), k=QUAD.bound_degree))
        if cand["fraction_satisfied"] >= 0.95:
            c7_fit = float(c7)
            fraction = cand["fraction_satisfied"]
    report("criterion 11 (rate-shape fit and envelope)",
           a_fit > 0 and lo > 0 and c7_fit is not None and fraction >= 0.95,
           f"decay exponent {a_fit:.3f} (bootstrap low {lo:.3f} > 0), "
           f"envelope holds at {fraction:.0%} of steps with fitted c7 {c7_fit}")
