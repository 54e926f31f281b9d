"""Command line entry point.

Subcommands: simulate, flow, fixpoint, compare, diagnose, appendix2, certify.
Each run writes CSV / JSON-lines artifacts plus a manifest (config hash,
seed, versions) into the output directory.  `simulate` and `diagnose`
spread contiguous blocks of replicas over forked workers, each with one
call of the fork map of `workers`: `simulate` one block per worker, each
an ensemble; `diagnose` an ensemble of at most `_DIAGNOSE_BLOCK` replicas
per task where the column stepper runs, and one replica per task where
the closed form does.  Exit codes: 0 success, 1 failed verdicts under
--assert, 2 configuration errors, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .diagnostics import (center_convergence, checkpoints, ergodicity_check,
                          one_step_error, w2_curve)
from .errors import InvalidInputError, NumericFailureError
from .flow import run_flow, solve_fixed_point
from .measures import (GridDensity, centered, dirac, gaussian_density, smooth,
                       uniform_density)
from .persist import (format_column, load_measure, write_grid_density, write_manifest,
                      write_series_csv)
from .potentials import certify
from .sde import closed_form, counterexample_system, simulate_ensemble
from .sde import simulate  # noqa: F401  (bench/tracer.py wraps it here)
from .transport import tp_distance_1d, w2_distance
from .workers import blocks, fork_map, workers

_DIAGNOSE_BLOCK = 8   # replicas a `diagnose` task steps as one ensemble


def _initial_density(cfg: ExperimentConfig) -> GridDensity:
    """The start density on the box of half-width [grid] half_width centered
    on the init's location: the atom's position, the Gaussian's mean, 0 for
    uniform."""
    init, cells = cfg.init, cfg.grid["cells"]
    mid = {"atom": init["position"], "gaussian": init["mean"]}.get(init["kind"], 0.0)
    lo, hi = mid - cfg.grid["half_width"], mid + cfg.grid["half_width"]
    if init["kind"] == "uniform":
        return uniform_density(lo, hi, cells)
    if init["kind"] == "gaussian":
        return gaussian_density(init["mean"], init["sigma"], lo, hi, cells)
    return smooth(dirac(init["position"]), init["width"], lo=lo, hi=hi, cells=cells)


def _cmd_simulate(cfg: ExperimentConfig, out: Path, args) -> int:
    """Per replica, its thinned path (t, x, center) and its occupation
    histogram.  The replicas are cut into contiguous blocks, one per
    worker (`workers.workers`), each simulated as an ensemble and written
    in a forked worker (`workers.fork_map`), so no process holds the whole
    ensemble.  A block's rows are the ensemble's rows, so the files are the
    same whatever the CPU set, and a failure is reported at its earliest
    step, then its lowest replica, as one ensemble run reports it.  The
    histogram bins a record's occupation atoms, its positions from
    `TrajectoryRecord.first` on (the start atom, none from t = 0) with
    their weights.  The records of a block share one config, so its time
    grid is built, the time column formatted and the normalized weights
    taken from the first record's occupation once per block."""
    parts = blocks(cfg.replicas, workers(cfg.replicas))

    def block(k):
        records = simulate_ensemble(cfg.potential, cfg.init["position"], cfg.sim,
                                    len(parts[k]), v=cfg.external, first=parts[k].start)
        grid, first = records[0].times, records[0].first
        thin = max(1, grid.size // 2000)
        times = format_column(grid[::thin])
        w = records[0].occupation().weights
        for rec in records:
            write_series_csv(out / f"path_r{rec.replica}.csv", ["t", "x", "center"],
                             [times, rec.positions[::thin],
                              rec.centers(slice(None, None, thin))])
            hist, edges = np.histogram(rec.positions[first:], bins=128, weights=w)
            mids = 0.5 * (edges[:-1] + edges[1:])
            width = edges[1] - edges[0]
            write_series_csv(out / f"occupation_r{rec.replica}.csv", ["x", "density"],
                             [mids, hist / width])

    fork_map(block, len(parts))
    return 0


def _cmd_flow(cfg: ExperimentConfig, out: Path, args) -> int:
    """The flow's scalars per state and its last density.  Its reference
    fixed point is solved with the [fixpoint] settings, as `fixpoint` and
    `diagnose` solve theirs.  The free energy is a Lyapunov function of the
    flow only for a symmetric W, so a failed verdict on another W says so."""
    run = run_flow(cfg.potential, _initial_density(cfg), cfg.schedule, v=cfg.external,
                   **cfg.fixpoint)
    write_series_csv(out / "flow.csv", ["n", "t", "free_energy", "relative",
                                        "center", "step_tp"],
                     [run.n, run.time, run.total, run.relative, run.center, run.step_tp])
    write_series_csv(out / "energy_trace.csv",
                     ["step", "entropy", "external", "interaction", "total", "relative"],
                     [run.n, run.entropy, run.external, run.interaction, run.total,
                      run.relative])
    write_grid_density(out / "final_density.csv", run.final.density)
    monotone = bool(np.all(np.diff(run.relative) <= 1e-8))
    if args.do_assert and not monotone:
        why = "" if cfg.potential.symmetric else (
            "; W is not symmetric, so the decrease of the free energy is not claimed there")
        print(f"FAIL: relative free energy increased along the flow{why}", file=sys.stderr)
        return 1
    return 0


def _cmd_fixpoint(cfg: ExperimentConfig, out: Path, args) -> int:
    result = solve_fixed_point(cfg.potential, _initial_density(cfg), v=cfg.external,
                               **cfg.fixpoint)
    write_grid_density(out / "density.csv", result.density)
    write_series_csv(out / "convergence.csv", ["iteration", "residual", "free_energy"],
                     [np.arange(1, len(result.residuals) + 1), result.residuals,
                      result.energies])
    return 0


def _cmd_compare(cfg: ExperimentConfig, out: None, args) -> int:
    a = load_measure(Path(args.measures[0]))
    b = load_measure(Path(args.measures[1]))
    w = cfg.potential
    rows = [("tp-1d", tp_distance_1d(w, a, b), "tp-1d"),
            ("w2", w2_distance(a, b), "w2-quantile")]
    if w.convexity_constant > 0:
        a, b = centered(w, a), centered(w, b)
        rows += [("tp-centered", tp_distance_1d(w, a, b), "tp-1d"),
                 ("w2-centered", w2_distance(a, b), "w2-quantile")]
    text = "".join(json.dumps({"distance": d, "value": x, "method": m}) + "\n"
                   for d, x, m in rows)
    if args.out_file:
        Path(args.out_file).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _diagnose_covers(cfg: ExperimentConfig) -> bool:
    """Whether the paths cover the schedule, so that `diagnose` reports
    replica 0's one-step error and center convergence over its windows.
    A config the comparison cannot hold for is an error before any work:
    a noise scale other than sqrt(2), the one at which the Gibbs map is
    the SDE's invariant law, and a covered schedule of one window, too few
    for the error's slope or a change in the oscillations."""
    noise, sched = cfg.sim.noise_scale, cfg.schedule
    if not math.isclose(noise * noise / 2, 1.0, rel_tol=1e-12):
        raise InvalidInputError(
            f"[sim] noise_scale = {noise!r} sets the temperature noise_scale^2 / 2 = "
            f"{noise * noise / 2!r}; diagnose compares the paths with the Gibbs map at "
            "temperature 1, their invariant law only at noise_scale = sqrt(2)")
    covered = cfg.sim.covers(sched.time(sched.n_start), sched.time(sched.n_end))
    if covered and sched.n_end - sched.n_start < 2:
        raise InvalidInputError(
            f"[schedule] n_end = {sched.n_end}: diagnose fits a slope over the "
            f"n_end - n_start = {sched.n_end - sched.n_start} windows, it needs two: "
            f"n_end >= {sched.n_start + 2}")
    return covered


def _cmd_diagnose(cfg: ExperimentConfig, out: Path, args) -> int:
    """The ergodicity report of every replica, then the one-step error and
    the center convergence of replica 0 when its path covers the schedule.
    The checkpoints and the fixed point come first.  Then each task of the
    fork map (`workers.fork_map`) simulates a contiguous block of replicas
    as one ensemble: at most `_DIAGNOSE_BLOCK` where the column stepper
    runs, whose steps cost about as much for one replica as for several,
    and one where the closed form sums the paths (`sde.closed_form`).  The
    block size is a constant, so the blocks, and the bytes, do not depend
    on the CPU set.  Replica 0's task takes its two reports first; then
    each record's W2 curve is taken in turn, a pass that takes the
    record's path and sorts it in place (`diagnostics.w2_curve`).  A task
    returns only its curves and reports, so each replica is simulated once
    and no process holds more than one block of paths.  A failed curve or
    report ranks after every failed path, then by replica."""
    w, x0, v, sched = cfg.potential, cfg.init["position"], cfg.external, cfg.schedule
    covered = _diagnose_covers(cfg)
    ts = checkpoints(cfg.sim)
    rho = solve_fixed_point(w, _initial_density(cfg), v=v, **cfg.fixpoint).density
    size = 1 if closed_form(w, v) else _DIAGNOSE_BLOCK
    parts = blocks(cfg.replicas, math.ceil(cfg.replicas / size))

    def block(k):
        records = simulate_ensemble(w, x0, cfg.sim, len(parts[k]), v=v, first=parts[k].start)
        try:
            own = ([one_step_error(w, records[0], sched, v=v),
                    center_convergence(records[0], sched)] if k == 0 and covered else [])
            curves = [(rec.replica, w2_curve(w, rec, rho, ts)) for rec in records]
        except (InvalidInputError, NumericFailureError) as exc:
            exc.step = math.inf   # after every failed path (`workers._ranked`)
            raise
        return curves, own

    done = fork_map(block, len(parts))
    curves = [curve for block_curves, _ in done for curve in block_curves]
    reports = [ergodicity_check(w, ts, curves), *done[0][1]]
    with open(out / "diagnostics.jsonl", "w") as fh:
        for rep in reports:
            fh.write(rep.to_jsonl())
    summary = "".join(rep.summary() for rep in reports)
    (out / "diagnostics.txt").write_text(summary)
    sys.stdout.write(summary)
    if args.do_assert and not all(rep.passed for rep in reports):
        return 1
    return 0


def _cmd_appendix2(cfg: ExperimentConfig, out: Path, args) -> int:
    slopes = []
    for r in range(cfg.replicas):
        ts, ys, cs = counterexample_system(cfg.sim.t_end, cfg.sim.dt,
                                           cfg.sim.seed + r)
        write_series_csv(out / f"counterexample_r{r}.csv", ["t", "y", "center"],
                         [ts, ys, cs])
        mask = ts >= min(100.0, cfg.sim.t_end / 10)
        slope, _ = np.polyfit(np.log(ts[mask]), cs[mask], 1)
        slopes.append(float(slope))
    mean_slope = float(np.mean(slopes))
    write_series_csv(out / "slopes.csv", ["replica", "slope"],
                     [np.arange(len(slopes)), slopes])
    print(f"center-vs-log-time slope (replica mean): {mean_slope:.4f}")
    if args.do_assert and not 0.9 <= mean_slope <= 1.1:
        return 1
    return 0


def _cmd_certify(cfg: ExperimentConfig, out: None, args) -> int:
    report = certify(cfg.potential, sample_radius=10.0)
    print(f"min directional curvature: {report.min_directional_curvature:.6g}")
    print(f"max domination ratio:      {report.max_domination_ratio:.6g}")
    print(f"symmetry defect:           {report.symmetry_defect:.6g}")
    print(f"submultiplicativity ratio: {report.max_submultiplicativity_ratio:.6g}")
    if report.passed:
        print("certificate: PASS")
        return 0
    print("certificate: FAIL (" + ", ".join(report.failures) + ")")
    return 1


# command -> (handler, whether it writes a manifest).  A handler takes the
# config, the output directory (made for it when it writes a manifest, else
# None) and the parsed flags, and returns the exit code.
COMMANDS = {
    "simulate": (_cmd_simulate, True),
    "flow": (_cmd_flow, True),
    "fixpoint": (_cmd_fixpoint, True),
    "compare": (_cmd_compare, False),
    "diagnose": (_cmd_diagnose, True),
    "appendix2": (_cmd_appendix2, True),
    "certify": (_cmd_certify, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfattract",
        description="Self-attracting diffusion laboratory")
    parser.add_argument("--config", default=None, help="config file (key-value text)")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--replicas", type=int, default=None)
    parser.add_argument("--assert", dest="do_assert", action="store_true",
                        help="exit nonzero when a verdict fails")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in COMMANDS}
    commands["compare"].add_argument("measures", nargs=2, help="two measure CSV files")
    commands["compare"].add_argument("--out-file", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides={
            "seed": args.seed, "out": args.out, "replicas": args.replicas,
        })
        if args.command == "diagnose":
            _diagnose_covers(cfg)   # a config error, before `out` is made
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    handler, manifest = COMMANDS[args.command]
    out = None
    if manifest:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
    try:
        code = handler(cfg, out, args)
    except InvalidInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    if manifest:
        write_manifest(out / "manifest.json", args.command, cfg.resolved(), cfg.sim.seed)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
