"""Benchmark workloads and the checks every run's artifacts must pass.

Each workload is one ``selfattract`` CLI command on one config.  After a
run, ``check_outputs`` validates the artifacts:

* for every seed: finite values, normalized densities, and (``diagnose``)
  every verdict passing;
* at the reference seed (and for the seed-free ``flow`` workload always):
  closeness to a reference recorded with this package and stored under
  ``bench/reference``.  The tolerances admit exact reformulations of the
  numerics (path differences ~1e-10, energies ~1e-14 relative) and reject
  any changed result.

Re-record the references after a deliberate change of results with

    python3 bench/workloads.py --record
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
REFERENCE_SEED = 0
PATH_STRIDE = 40  # rows of each path CSV kept in the reference

# file -> (rtol, atol relative to max(1, max |reference|))
TOLERANCE = {
    "diagnostics.jsonl": (1e-7, 1e-9),
    "flow.csv": (1e-9, 1e-12),
    "final_density.csv": (1e-9, 1e-12),
    "path_r*.csv": (1e-8, 1e-8),
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: str       # relative to the checkout root
    command: str
    seeded: bool      # False: the command draws no randomness, --seed unused
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("ergodicity", "configs/quadratic_ergodicity.cfg", "diagnose", True,
             "shipped diagnose run: quadratic 8x500k ensemble, then W2 over "
             "prefix occupations, Gibbs images and tp distances"),
    Workload("flow_wide", "bench/configs/flow_wide.cfg", "flow", False,
             "quartic measure flow on 4096 cells: O(n^2) free-energy kernel, "
             "tp distance, Gibbs map and center; no SDE, no W2"),
    Workload("paths_quartic", "bench/configs/paths_quartic.cfg", "simulate", True,
             "64 quartic replica paths: general ensemble stepper with Newton "
             "centers, noise draws and CSV writing; no Gibbs, energy or transport"),
)}


def cli_args(w: Workload, out: Path, seed: int) -> list[str]:
    args = ["--config", str(ROOT / w.config), "--out", str(out)]
    if w.seeded:
        args += ["--seed", str(seed)]
    return args + ["--assert", w.command]


# ---------------------------------------------------------------------------
# reading artifacts


def _read_csv(path: Path, header: list[str]) -> np.ndarray:
    with open(path) as fh:
        found = fh.readline().strip().split(",")
    if found != header:
        raise ValueError(f"{path.name}: header {found} != {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _path_files(out: Path) -> list[Path]:
    return sorted(out.glob("path_r*.csv"), key=lambda p: int(p.stem[6:]))


def _read_paths(out: Path) -> np.ndarray:
    """(replicas, rows, 3) array of t, x, center."""
    return np.stack([_read_csv(p, ["t", "x", "center"]) for p in _path_files(out)])


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def extract(w: Workload, out: Path) -> dict:
    """The arrays a reference keeps for this workload's artifacts."""
    if w.command == "diagnose":
        return {"diagnostics.jsonl": _read_jsonl(out / "diagnostics.jsonl")}
    if w.command == "flow":
        return {"flow.csv": _read_csv(out / "flow.csv", [
                    "n", "t", "free_energy", "relative", "center", "step_tp"]),
                "final_density.csv": _read_csv(out / "final_density.csv",
                                               ["x", "density"])}
    return {"path_r*.csv": _read_paths(out)[:, ::PATH_STRIDE, :]}


# ---------------------------------------------------------------------------
# checks


def _numbers(obj):
    """Every number in a parsed JSON value, depth first."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def _invariants(w: Workload, out: Path) -> list[str]:
    """Seed-independent properties of a correct run."""
    problems = []
    if w.command == "diagnose":
        rows = _read_jsonl(out / "diagnostics.jsonl")
        if not all(math.isfinite(x) for r in rows for x in _numbers(r)):
            problems.append("diagnostics.jsonl: non-finite value")
        verdicts = [r for r in rows if "criterion" in r]
        if not verdicts:
            problems.append("diagnostics.jsonl: no verdicts")
        problems += [f"verdict failed: {r['criterion']}" for r in verdicts
                     if r["pass"] is not True]
    elif w.command == "flow":
        data = extract(w, out)
        flow, dens = data["flow.csv"], data["final_density.csv"]
        if not (np.all(np.isfinite(flow)) and np.all(np.isfinite(dens))):
            problems.append("flow: non-finite value")
        width = dens[1, 0] - dens[0, 0]
        mass = float(dens[:, 1].sum() * width)
        if np.any(dens[:, 1] < 0) or abs(mass - 1.0) > 1e-9:
            problems.append(f"final_density.csv: mass {mass!r}, not a density")
    else:
        paths = _read_paths(out)
        if not np.all(np.isfinite(paths)):
            problems.append("path_r*.csv: non-finite value")
        occ = sorted(out.glob("occupation_r*.csv"))
        if len(occ) != paths.shape[0]:
            problems.append(f"{len(occ)} occupation files for {paths.shape[0]} paths")
        for p in occ:
            d = _read_csv(p, ["x", "density"])
            mass = float(d[:, 1].sum() * (d[1, 0] - d[0, 0]))
            if not np.all(np.isfinite(d)) or abs(mass - 1.0) > 1e-9:
                problems.append(f"{p.name}: mass {mass!r}, not a density")
                break
    return problems


def _close(found: np.ndarray, ref: np.ndarray, rtol: float, atol: float) -> bool:
    found, ref = np.asarray(found, float), np.asarray(ref, float)
    if found.shape != ref.shape:
        return False
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    return bool(np.all(np.abs(found - ref) <= atol * scale + rtol * np.abs(ref)))


def _same_json(found, ref, rtol: float, atol: float) -> bool:
    if isinstance(ref, bool) or isinstance(ref, str) or ref is None:
        return found == ref
    if isinstance(ref, (int, float)):
        return (isinstance(found, (int, float)) and not isinstance(found, bool)
                and _close(found, ref, rtol, atol))
    if isinstance(ref, dict):
        return (isinstance(found, dict) and found.keys() == ref.keys()
                and all(_same_json(found[k], ref[k], rtol, atol) for k in ref))
    return (isinstance(found, list) and len(found) == len(ref)
            and all(_same_json(f, r, rtol, atol) for f, r in zip(found, ref)))


def compare(found: dict, ref: dict) -> list[str]:
    """Names of the reference entries the found artifacts do not match."""
    problems = []
    for name, ref_value in ref.items():
        rtol, atol = TOLERANCE[name]
        match = (_same_json(found[name], ref_value, rtol, atol)
                 if name.endswith(".jsonl")
                 else _close(found[name], ref_value, rtol, atol))
        if not match:
            problems.append(f"{name}: differs from the reference")
    return problems


def _reference_path(w: Workload) -> Path:
    return REFERENCE / f"{w.name}.json"


def load_reference(w: Workload) -> dict:
    raw = json.loads(_reference_path(w).read_text())
    return {k: v if k.endswith(".jsonl") else np.asarray(v, float)
            for k, v in raw.items()}


def check_outputs(w: Workload, out: Path, seed: int) -> list[str]:
    """Problems found in one run's artifacts; empty when the run is correct."""
    try:
        problems = _invariants(w, out)
        if not w.seeded or seed == REFERENCE_SEED:
            problems += compare(extract(w, out), load_reference(w))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable artifacts: {exc!r}"]
    return problems


def record(w: Workload, work: Path) -> None:
    """Run the workload at the reference seed and store its reference."""
    out = work / f"record-{w.name}"
    subprocess.run([sys.executable, "-m", "selfattract",
                    *cli_args(w, out, REFERENCE_SEED)], check=True,
                   stdout=subprocess.DEVNULL,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    problems = _invariants(w, out)
    if problems:
        raise SystemExit(f"{w.name}: {problems}")
    data = {k: v if k.endswith(".jsonl") else v.tolist()
            for k, v in extract(w, out).items()}
    REFERENCE.mkdir(exist_ok=True)
    _reference_path(w).write_text(json.dumps(data) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Re-record benchmark references.")
    parser.add_argument("--record", action="store_true",
                        help="run every workload at the reference seed")
    if not parser.parse_args().record:
        parser.error("nothing to do without --record")
    for wl in WORKLOADS.values():
        record(wl, ROOT / ".bench_work")
        print(f"recorded {_reference_path(wl).relative_to(ROOT)}")
