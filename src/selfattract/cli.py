"""Command line entry point.

Subcommands: simulate, flow, fixpoint, compare, diagnose, appendix2, certify.
Each run writes CSV / JSON-lines artifacts plus a manifest (config hash,
seed, versions) into the output directory.  Exit codes: 0 success, 1 failed
verdicts under --assert, 2 configuration errors, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .diagnostics import center_convergence, ergodicity_check, one_step_error
from .errors import InvalidInputError, NumericFailureError
from .flow import run_flow
from .gibbs import solve_fixed_point
from .measures import GridDensity, dirac, gaussian_density, smooth, uniform_density
from .persist import (load_measure, write_grid_density, write_manifest,
                      write_series_csv)
from .potentials import certify
from .sde import counterexample_system, simulate, simulate_ensemble
from .transport import centered_distance, tp_distance_1d, w2_distance


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _initial_density(cfg: ExperimentConfig) -> GridDensity:
    lo, hi = -cfg.grid_half_width, cfg.grid_half_width
    if cfg.init_kind == "uniform":
        return uniform_density(lo, hi, cfg.grid_cells)
    if cfg.init_kind == "gaussian":
        return gaussian_density(cfg.init_mean, cfg.init_sigma, lo, hi, cfg.grid_cells)
    atom = dirac(cfg.init_position)
    return smooth(atom, cfg.init_width, lo=lo, hi=hi, cells=cfg.grid_cells)


def _cmd_simulate(cfg: ExperimentConfig, do_assert: bool) -> int:
    out = _out_dir(cfg)
    if cfg.replicas > 1:
        records = simulate_ensemble(cfg.potential, cfg.init_position, cfg.sim,
                                    cfg.replicas, v=cfg.external)
    else:
        records = [simulate(cfg.potential, cfg.init_position, cfg.sim,
                            v=cfg.external)]
    for rec in records:
        thin = max(1, rec.times.size // 2000)
        write_series_csv(out / f"path_r{rec.replica}.csv", ["t", "x", "center"],
                         [rec.times[::thin], rec.positions[::thin],
                          rec.center_track[::thin]])
        occ = rec.occupation()
        hist, edges = np.histogram(occ.positions, bins=128, weights=occ.weights)
        mids = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        write_series_csv(out / f"occupation_r{rec.replica}.csv", ["x", "density"],
                         [mids, hist / width])
    write_manifest(out / "manifest.json", "simulate", cfg.resolved(), cfg.sim.seed)
    return 0


def _cmd_flow(cfg: ExperimentConfig, do_assert: bool) -> int:
    out = _out_dir(cfg)
    init = _initial_density(cfg)
    states = run_flow(cfg.potential, init, cfg.schedule, v=cfg.external)
    steps = [st.n for st in states]
    energies = [st.free_energy for st in states]
    totals = [e.total for e in energies]
    relatives = [e.relative for e in energies]
    write_series_csv(out / "flow.csv", ["n", "t", "free_energy", "relative",
                                        "center", "step_tp"],
                     [steps, [st.time for st in states], totals, relatives,
                      [st.center for st in states], [st.step_distance for st in states]])
    write_series_csv(out / "energy_trace.csv",
                     ["step", "entropy", "interaction", "total", "relative"],
                     [steps, [e.entropy for e in energies],
                      [e.interaction_term for e in energies], totals, relatives])
    write_grid_density(out / "final_density.csv", states[-1].density)
    write_manifest(out / "manifest.json", "flow", cfg.resolved(), cfg.sim.seed)
    rel = np.array(relatives)
    monotone = bool(np.all(np.diff(rel) <= 1e-8))
    if do_assert and not monotone:
        print("FAIL: relative free energy increased along the flow", file=sys.stderr)
        return 1
    return 0


def _cmd_fixpoint(cfg: ExperimentConfig, do_assert: bool) -> int:
    out = _out_dir(cfg)
    init = _initial_density(cfg)
    result = solve_fixed_point(cfg.potential, init, v=cfg.external,
                               damping=cfg.damping, tol=cfg.fixpoint_tol,
                               max_iter=cfg.fixpoint_max_iter, return_info=True,
                               track_energy=True)
    write_grid_density(out / "density.csv", result.density)
    write_series_csv(out / "convergence.csv", ["iteration", "residual", "free_energy"],
                     [np.arange(1, len(result.residuals) + 1), result.residuals,
                      result.energies])
    write_manifest(out / "manifest.json", "fixpoint", cfg.resolved(), cfg.sim.seed)
    return 0


def _cmd_compare(args, cfg: ExperimentConfig) -> int:
    a = load_measure(Path(args.measures[0]))
    b = load_measure(Path(args.measures[1]))
    import json as _json

    results = []
    results.append(("tp-1d", tp_distance_1d(cfg.potential, a, b)))
    results.append(("w2", w2_distance(a, b)))
    if cfg.potential.convexity_constant > 0:
        results.append(("tp-centered", centered_distance(cfg.potential, a, b, "tp")))
        results.append(("w2-centered", centered_distance(cfg.potential, a, b, "w2")))
    lines = []
    for name, res in results:
        lines.append(_json.dumps({"distance": name, "value": res.value,
                                  "method": res.method}))
    text = "\n".join(lines) + "\n"
    if args.out_file:
        Path(args.out_file).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_diagnose(cfg: ExperimentConfig, do_assert: bool) -> int:
    out = _out_dir(cfg)
    records = simulate_ensemble(cfg.potential, cfg.init_position, cfg.sim,
                                cfg.replicas, v=cfg.external)
    rho = solve_fixed_point(cfg.potential, _initial_density(cfg), v=cfg.external,
                            damping=cfg.damping, tol=cfg.fixpoint_tol)
    reports = [ergodicity_check(cfg.potential, records, rho)]
    horizon = cfg.schedule.time(cfg.schedule.n_end)
    if horizon <= cfg.sim.t_end + 1e-9 and cfg.schedule.time(cfg.schedule.n_start) >= cfg.sim.t_start:
        reports.append(one_step_error(cfg.potential, records[0], cfg.schedule,
                                      v=cfg.external))
        reports.append(center_convergence(records[0], cfg.schedule))
    with open(out / "diagnostics.jsonl", "w") as fh:
        for rep in reports:
            fh.write(rep.to_jsonl())
    summary = "".join(rep.summary() for rep in reports)
    (out / "diagnostics.txt").write_text(summary)
    sys.stdout.write(summary)
    write_manifest(out / "manifest.json", "diagnose", cfg.resolved(), cfg.sim.seed)
    if do_assert and not all(rep.passed for rep in reports):
        return 1
    return 0


def _cmd_appendix2(cfg: ExperimentConfig, do_assert: bool) -> int:
    out = _out_dir(cfg)
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
    write_manifest(out / "manifest.json", "appendix2", cfg.resolved(), cfg.sim.seed)
    print(f"center-vs-log-time slope (replica mean): {mean_slope:.4f}")
    if do_assert and not 0.9 <= mean_slope <= 1.1:
        return 1
    return 0


def _cmd_certify(cfg: ExperimentConfig, args) -> int:
    report = certify(cfg.potential, sample_radius=args.radius,
                     n_samples=args.samples)
    print(f"min directional curvature: {report.min_directional_curvature:.6g}")
    print(f"max domination ratio:      {report.max_domination_ratio:.6g}")
    print(f"symmetry defect:           {report.symmetry_defect:.6g}")
    print(f"submultiplicativity ratio: {report.max_submultiplicativity_ratio:.6g}")
    if report.passed:
        print("certificate: PASS")
        return 0
    print("certificate: FAIL (" + ", ".join(report.failures()) + ")")
    return 1


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
    for name in ("simulate", "flow", "fixpoint", "diagnose", "appendix2"):
        sub.add_parser(name)
    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("measures", nargs=2, help="two measure CSV files")
    cmp_parser.add_argument("--out-file", default=None)
    cert_parser = sub.add_parser("certify")
    cert_parser.add_argument("--radius", type=float, default=10.0)
    cert_parser.add_argument("--samples", type=int, default=512)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, overrides={
            "seed": args.seed, "out": args.out, "replicas": args.replicas,
        })
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.do_assert)
        if args.command == "flow":
            return _cmd_flow(cfg, args.do_assert)
        if args.command == "fixpoint":
            return _cmd_fixpoint(cfg, args.do_assert)
        if args.command == "compare":
            return _cmd_compare(args, cfg)
        if args.command == "diagnose":
            return _cmd_diagnose(cfg, args.do_assert)
        if args.command == "appendix2":
            return _cmd_appendix2(cfg, args.do_assert)
        if args.command == "certify":
            return _cmd_certify(cfg, args)
    except InvalidInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
