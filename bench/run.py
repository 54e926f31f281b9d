"""Outside-in benchmark of the selfattract CLI.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each run first times set-up (a fresh interpreter importing
``selfattract.cli`` and loading the workload's config, repeated and
reported as a median), then runs the workload's CLI command as a closed
loop with one client: one child process at a time, the next started only
when the previous one has finished and there is time left for another.
Every child's artifacts are checked (``workloads.check_outputs``); a
nonzero exit or a failed check counts as a failed run.

``--trace 0`` reports the end-to-end metrics: median wall time, set-up time
and peak RSS of the child (``os.wait4``, so each child is measured on its
own).  ``--trace 1`` runs pairs of an untraced child and a traced one
(``bench/traced.py``, the same command in-process with layer spans) on the
same seed, requires their artifacts to be byte-identical, and reports the
per-layer metrics.

The package is taken from ``src/`` of the checkout this file lives in; the
last line of standard output is one JSON object with the result.  Per-run
details (every wall time, environment, layer table, spans) go to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
from workloads import REFERENCE_SEED, ROOT, WORKLOADS, Workload, check_outputs, cli_args

WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # every child is killed once a run has taken this long
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_SNIPPET = """\
import sys
import selfattract.cli as cli
if not cli.__file__.startswith(sys.argv[2]):
    sys.exit("selfattract imported from outside the checkout: " + cli.__file__)
cli.load_config(sys.argv[1])
"""

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, span name, field of tracer.summarize's row)
LAYER_FIELDS = {
    "sde.ensemble_s": ("s", "sde.ensemble", "total_s"),
    "sde.replica_steps": ("count", "sde.ensemble", "replica_steps"),
    "sde.occupation_s": ("s", "sde.occupation", "total_s"),
    "sde.occupation_calls": ("count", "sde.occupation", "calls"),
    "sde.occupation_atoms": ("count", "sde.occupation", "atoms"),
    "rng.normal_s": ("s", "rng.normal", "total_s"),
    "rng.normal_draws": ("count", "rng.normal", "draws"),
    "transport.w2_s": ("s", "transport.w2", "total_s"),
    "transport.w2_calls": ("count", "transport.w2", "calls"),
    "transport.w2_atoms": ("count", "transport.w2", "atoms"),
    "transport.tp_s": ("s", "transport.tp", "total_s"),
    "transport.tp_calls": ("count", "transport.tp", "calls"),
    "gibbs.map_s": ("s", "gibbs.map", "total_s"),
    "gibbs.map_calls": ("count", "gibbs.map", "calls"),
    "gibbs.fixed_point_s": ("s", "gibbs.fixed_point", "total_s"),
    "energy.free_energy_s": ("s", "energy.free_energy", "total_s"),
    "energy.free_energy_calls": ("count", "energy.free_energy", "calls"),
    "energy.cells": ("count", "energy.free_energy", "cells"),
    "measures.center_s": ("s", "measures.center", "total_s"),
    "measures.center_calls": ("count", "measures.center", "calls"),
    "flow.run_flow_s": ("s", "flow.run_flow", "total_s"),
    "flow.steps": ("count", "flow.run_flow", "steps"),
    "diagnostics.ergodicity_s": ("s", "diagnostics.ergodicity", "self_s"),
    "diagnostics.one_step_s": ("s", "diagnostics.one_step", "self_s"),
    "diagnostics.center_conv_s": ("s", "diagnostics.center_conv", "self_s"),
    "persist.write_s": ("s", "persist.write", "total_s"),
    "persist.bytes": ("B", "persist.write", "bytes"),
}
# metrics derived from several spans or from the untraced child
LAYER_DERIVED = {
    "sde.replica_steps_per_s": "1/s",
    "gibbs.fixed_point_iters": "count",
    "cli.cpu_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_s": "s",
}
PER_LAYER = {**{k: v[0] for k, v in LAYER_FIELDS.items()}, **LAYER_DERIVED}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> Child:
    """Run one child to completion; wall time from spawn to reaping, peak
    RSS and CPU time from its own rusage.  Killed at ``deadline``."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=fh)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(seed: int) -> dict:
    commit = ""
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    text=True, capture_output=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def measure_setup(w: Workload, deadline: float) -> list[float]:
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(ROOT / w.config),
            str(ROOT / "src")]
    times = []
    for i in range(SETUP_REPEATS):
        child = run_child(argv, WORK / "logs" / f"setup-{w.name}.log", deadline)
        if child.code != 0:
            raise SystemExit(f"set-up failed for {w.name}; see "
                             f"{WORK / 'logs' / f'setup-{w.name}.log'}")
        times.append(child.wall_s)
    return times


def _artifact_names(out: Path) -> list[str]:
    return sorted(p.name for p in out.iterdir())


def identical_artifacts(a: Path, b: Path) -> list[str]:
    names = _artifact_names(a)
    if names != _artifact_names(b):
        return ["traced run wrote a different set of files"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return [f"traced {n} differs from untraced" for n in mismatch + errors]


def layer_metrics(spans_doc: dict, untraced: Child, traced: Child) -> dict:
    spans = spans_doc["spans"]
    rows = tracer.summarize(spans)
    out = {}
    for metric, (_, name, field) in LAYER_FIELDS.items():
        row = rows.get(name, {"calls": 0, "counts": {}})
        out[metric] = row.get(field, row["counts"].get(field, 0))
    ens = out["sde.ensemble_s"]
    out["sde.replica_steps_per_s"] = out["sde.replica_steps"] / ens if ens else 0.0
    out["gibbs.fixed_point_iters"] = tracer.count_under(spans, "gibbs.map",
                                                        "gibbs.fixed_point")
    out["cli.cpu_s"] = untraced.cpu_s
    out["trace.overhead_frac"] = (traced.wall_s - untraced.wall_s) / untraced.wall_s
    main_idx = next(i for i, s in enumerate(spans) if s["name"] == "cli.main")
    covered_ns = sum(s["end"] - s["start"] for s in spans
                     if s["parent"] == main_idx or s["name"] == "cli.import")
    out["trace.unaccounted_s"] = traced.wall_s - covered_ns * 1e-9
    return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    for sub in ("out", "logs", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    setup = measure_setup(w, deadline)

    runs, layers, problems = [], [], []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        i = first = len(runs)
        out = WORK / "out" / f"{tag}-{i}"
        shutil.rmtree(out, ignore_errors=True)
        argv = cli_args(w, out, seed)
        child = run_child([sys.executable, "-m", "selfattract", *argv],
                          WORK / "logs" / f"{tag}-{i}.log", deadline)
        found = ([f"exit code {child.code}"] if child.code != 0
                 else check_outputs(w, out, seed))
        runs.append({"wall_s": child.wall_s, "cpu_s": child.cpu_s,
                     "peak_rss_mb": child.peak_rss_mb, "exit": child.code,
                     "problems": found})
        if trace:
            traced_out = WORK / "out" / f"{tag}-{i}-traced"
            shutil.rmtree(traced_out, ignore_errors=True)
            spans_path = WORK / "results" / f"{tag}-{i}.spans.json"
            traced = run_child(
                [sys.executable, str(ROOT / "bench" / "traced.py"),
                 "--spans", str(spans_path), "--run-id", f"{tag}-{i}", "--",
                 *cli_args(w, traced_out, seed)],
                WORK / "logs" / f"{tag}-{i}-traced.log", deadline)
            traced_found = ([f"traced exit code {traced.code}"] if traced.code
                            else identical_artifacts(out, traced_out))
            runs.append({"wall_s": traced.wall_s, "traced": True,
                         "exit": traced.code, "problems": traced_found})
            if not traced_found:
                doc = json.loads(spans_path.read_text())
                layers.append({"metrics": layer_metrics(doc, child, traced),
                               "layers": tracer.summarize(doc["spans"]),
                               "absent": doc["absent"],
                               "counter_errors": doc["counter_errors"]})
            shutil.rmtree(traced_out, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        problems += [f"run {i}: {p}" for r in runs[first:] for p in r["problems"]]
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds or now > deadline:
            break

    untraced = [r for r in runs if not r.get("traced")]
    walls = [r["wall_s"] for r in untraced]
    failed = sum(1 for r in runs if r["problems"])
    result = {
        "workload": w.name, "why": w.why, "trace": trace,
        "environment": environment(seed),
        "loop": "closed, 1 client",
        "attempted": len(runs), "failed": failed,
        "fail_frac": failed / len(runs),
        "problems": problems,
        "setup_runs_s": setup,
        "runs": runs,
        "wall_s_quartiles": quartiles(walls),
    }
    if trace:
        result["metrics"] = {
            m: {"value": statistics.median(l["metrics"][m] for l in layers)
                if layers else 0.0, "unit": unit}
            for m, unit in PER_LAYER.items()}
        result["traced_runs"] = layers
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced)}
        result["metrics"] = {m: {"value": values[m], "unit": unit}
                             for m, unit in END_TO_END.items()}
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_table(result: dict) -> None:
    n = len([r for r in result["runs"] if not r.get("traced")])
    print(f"workload {result['workload']}  seed {result['environment']['seed']}  "
          f"trace {int(result['trace'])}  loop {result['loop']}")
    if not result["trace"]:
        q1, q2, q3 = result["wall_s_quartiles"]
        print(f"  wall_s       {q2:10.4f} s   (q1 {q1:.4f}, q3 {q3:.4f}, n={n})")
        s1, s2, s3 = quartiles(result["setup_runs_s"])
        print(f"  setup_s      {s2:10.4f} s   (q1 {s1:.4f}, q3 {s3:.4f}, "
              f"n={len(result['setup_runs_s'])})")
        print(f"  peak_rss_mb  {result['metrics']['peak_rss_mb']['value']:10.1f} MB")
    else:
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
        absent = sorted({a for l in result["traced_runs"] for a in l["absent"]})
        if absent:
            print("  absent layers: " + ", ".join(absent))
    print(f"  fail_frac    {result['fail_frac']:10.4f}     "
          f"({result['failed']}/{result['attempted']} runs failed)")
    for p in result["problems"]:
        print(f"  FAILED {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "selfattract" / "cli.py").is_file():
        print(f"no selfattract sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + RUN_LIMIT_S * len(names)
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds,
                            bool(args.trace), deadline) for n in names]
    for r in results:
        print_table(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
