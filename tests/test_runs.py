"""The shipped configs and variants of them, each run once through the CLI
in this process (the session fixture `runs`), checked from the files they
wrote and rerun in a fresh interpreter, where a byte that depends on the
process (hash seed, heap layout, pid) differs."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from selfattract.cli import main

ROOT = Path(__file__).resolve().parents[1]
FLOW = (ROOT / "configs" / "flow_from_atom.cfg").read_text()
QUARTIC = "[potential]\nkind = even-polynomial\ncoefficients = 0.5 0.1\n"
SEXTIC = "[potential]\nkind = even-polynomial\ncoefficients = 0.5 0.1 0.01\n"
OCTIC = "[potential]\nkind = even-polynomial\ncoefficients = 0.5 0.1 0.01 0.001\n"
V = "[external]\nkind = external\ncoefficients = 0.5\n"

# the variants' configs, written to {cfgs}/<name>.cfg
CONFIGS = {
    # an atom at 3 pulled back by V = x^2/2 moves the box: the fixed point's
    # box follows every iterate back to [-8, 8], the flow's once the center
    # strays past 10% of the half-width
    "moving": FLOW.replace("position = 0.0\n", "position = 3.0\n") + V,
    # diagnose from t = 0, whose occupation has no start atom
    "diagnose0": "[experiment]\nreplicas = 2\n[sim]\nt_start = 0.0\nt_end = 300.0\n"
                 "[schedule]\nn_start = 4\nn_end = 30\n",
    # diagnose of a stepped W: its 3 replicas are one ensemble, in one task
    "diagnose-quartic": QUARTIC + "[experiment]\nreplicas = 3\n[sim]\nt_end = 101.0\n"
                        "[schedule]\nn_start = 2\nn_end = 20\n[grid]\ncells = 256\n",
    "diagnose-quartic-v": QUARTIC + V + "[experiment]\nreplicas = 3\n[sim]\nt_end = 101.0\n"
                          "[schedule]\nn_start = 2\nn_end = 20\n[grid]\ncells = 256\n",
    "quartic": QUARTIC + "[sim]\nt_end = 201.0\n",
    "sextic": SEXTIC + "[sim]\nt_end = 201.0\n",
    # 3 replicas on two CPUs are blocks of 1 and 2: the lone row's bytes are
    # those of the ensemble's row from W of degree 8 on too
    "octic": OCTIC + "[sim]\nt_end = 201.0\n",
    # a thinning stride of 26 (2009 rows of 52218 steps), not a multiple of
    # the 10 steps between center knots
    "sextic523": SEXTIC + "[sim]\nt_end = 523.17\n",
    "zero": "[potential]\nkind = even-polynomial\ncoefficients = 0\n"
            "[sim]\nt_start = 0.0\nt_end = 50.0\n",
    "quartic0": QUARTIC + "[sim]\nt_start = 0.0\nt_end = 50.0\n",
    "quartic0v": QUARTIC + "[sim]\nt_start = 0.0\nt_end = 50.0\n" + V,
}
SHIPPED_FLOW = "{repo}/configs/flow_from_atom.cfg"
# (config, replicas) of each `simulate` run; a config run at 1 and at 3
# replicas is row 0 of the 3
SIMULATED = ([(name, r) for name in ("quartic", "sextic", "octic", "sextic523", "quartic0")
              for r in (1, 3)]
             + [("zero", 1), ("zero", 2), ("quartic0v", 2)])

# run name -> its flags after `--out {root}/<name>`, in the order they run;
# a compare reads the runs before it
RUNS = {
    "flow": ["--config", SHIPPED_FLOW, "--assert", "flow"],
    "fixpoint": ["--config", SHIPPED_FLOW, "fixpoint"],
    "compare": ["--config", SHIPPED_FLOW, "compare", "{root}/flow/final_density.csv",
                "{root}/fixpoint/density.csv", "--out-file", "{root}/compare.jsonl"],
    "compare-atoms": ["--config", SHIPPED_FLOW, "compare", "{cfgs}/atoms.csv",
                      "{root}/fixpoint/density.csv", "--out-file", "{root}/compare-atoms.jsonl"],
    "moving-fixpoint": ["--config", "{cfgs}/moving.cfg", "fixpoint"],
    "moving-flow": ["--config", "{cfgs}/moving.cfg", "--assert", "flow"],
    # two grids on boxes 19 cells apart
    "compare-moving": ["--config", "{cfgs}/moving.cfg", "compare",
                       "{root}/moving-flow/final_density.csv",
                       "{root}/moving-fixpoint/density.csv",
                       "--out-file", "{root}/compare-moving.jsonl"],
    "diagnose": ["--config", "{repo}/configs/quadratic_ergodicity.cfg", "--assert", "diagnose"],
    "diagnose0": ["--config", "{cfgs}/diagnose0.cfg", "--assert", "diagnose"],
    "diagnose-quartic": ["--config", "{cfgs}/diagnose-quartic.cfg", "diagnose"],
    "diagnose-quartic-v": ["--config", "{cfgs}/diagnose-quartic-v.cfg", "diagnose"],
    **{f"{name}-{r}": ["--config", f"{{cfgs}}/{name}.cfg", "--replicas", str(r), "simulate"]
       for name, r in SIMULATED},
}


def argv(name: str, root: Path, cfgs: Path) -> list[str]:
    return ["--out", f"{root}/{name}",
            *(arg.format(repo=ROOT, root=root, cfgs=cfgs) for arg in RUNS[name])]


def files(root: Path, name: str) -> dict[str, bytes]:
    """The bytes of each file run ``name`` wrote under ``root``."""
    out = root / name
    paths = sorted(out.rglob("*")) if out.is_dir() else [root / f"{name}.jsonl"]
    return {str(p.relative_to(root)): p.read_bytes() for p in paths if p.is_file()}


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    """(the runs' directory, the configs' directory, exit code by run name)
    of every run in RUNS, made once in this process."""
    base = tmp_path_factory.mktemp("runs")
    cfgs, root = base / "configs", base / "runs"
    cfgs.mkdir()
    for name, text in CONFIGS.items():
        (cfgs / f"{name}.cfg").write_text(text)
    (cfgs / "atoms.csv").write_text("position,weight\n0.3,0.1\n-0.5,0.2\n1.2,0.3\n0.1,0.4\n")
    return root, cfgs, {name: main(argv(name, root, cfgs)) for name in RUNS}


def test_every_run_exits_zero_and_passes_its_assert(runs):
    assert runs[2] == dict.fromkeys(RUNS, 0)


# a fresh interpreter that runs each argv of a JSON list, with as many CPUs
# in its affinity mask as its first argument says
RERUN = ("import json, os, sys\n"
         "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
         "from selfattract.cli import main\n"
         "sys.exit(max(main(argv) for argv in json.loads(sys.argv[2])))\n")


@pytest.mark.parametrize("cpus, env, names", [
    (2, {}, list(RUNS)),
    # glibc reads its thresholds when the process starts
    (2, {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864"},
     ["diagnose"]),
    # one CPU: no worker pool
    (1, {}, ["diagnose", "diagnose0", "diagnose-quartic", "diagnose-quartic-v", "sextic523-3",
             "octic-3"])],
    ids=["fresh", "malloc", "one-cpu"])
def test_a_rerun_writes_the_same_bytes(runs, tmp_path, cpus, env, names):
    root, cfgs, _ = runs
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    done = subprocess.run([sys.executable, "-c", RERUN, str(cpus),
                           json.dumps([argv(name, tmp_path, cfgs) for name in names])],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in names:
        want, got = files(root, name), files(tmp_path, name)
        assert want and sorted(p for p in {*want, *got} if want.get(p) != got.get(p)) == []


def test_csv_rows_end_in_newline_alone(runs):
    assert [p for p in runs[0].rglob("*.csv") if b"\r" in p.read_bytes()] == []


def distances(root: Path, name: str) -> dict[str, float]:
    rows = [json.loads(line) for line in (root / f"{name}.jsonl").read_text().splitlines()]
    assert len(rows) == 4 and all(math.isfinite(row["value"]) for row in rows), rows
    return {row["distance"]: row["value"] for row in rows}


def test_compare_reads_atoms_and_grids_on_any_box(runs):
    # the flow ends within W2 1e-3 of the fixed point on the same config
    assert distances(runs[0], "compare")["w2"] < 1e-3
    distances(runs[0], "compare-atoms")
    distances(runs[0], "compare-moving")
    # the moving boxes: the fixed point's back on [-8, 8], the flow's short of it
    assert "lo = -8.0\n" in (runs[0] / "moving-fixpoint/density.csv.meta").read_text()
    assert "lo = -7.703125\n" in (runs[0] / "moving-flow/final_density.csv.meta").read_text()


def test_a_density_cut_short_of_its_meta_is_an_input_error(runs, tmp_path, capsys):
    density = runs[0] / "fixpoint" / "density.csv"
    cut = tmp_path / "cut.csv"
    cut.write_bytes(density.read_bytes().rsplit(b"\n", 2)[0] + b"\n")
    (tmp_path / "cut.csv.meta").write_bytes((runs[0] / "fixpoint/density.csv.meta").read_bytes())
    assert main(["compare", str(cut), str(density)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_simulate_writes_each_replica_and_records_their_count(runs):
    # row 0 of an ensemble is the single path; the manifest records --replicas
    root = runs[0]
    for name, r in SIMULATED:
        out = root / f"{name}-{r}"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["experiment"]["replicas"] == r
        assert sorted(p.name for p in out.glob("path_r*.csv")) == [
            f"path_r{i}.csv" for i in range(r)]
        if r == 3:
            assert ((out / "path_r0.csv").read_bytes()
                    == (root / f"{name}-1/path_r0.csv").read_bytes()), name
    assert len((root / "sextic523-3/path_r0.csv").read_text().splitlines()) == 2010


def test_without_attraction_the_center_stays_at_the_start(runs):
    for path in ("zero-1/path_r0.csv", "zero-2/path_r0.csv", "zero-2/path_r1.csv"):
        rows = np.loadtxt(runs[0] / path, delimiter=",", skiprows=1)
        assert rows.shape[0] > 2000 and np.all(rows[:, 2] == 0.0), path


def test_ci_runs_the_suites_and_no_checks_of_its_own():
    # every check lives in a suite; CI installs, runs the suites and the
    # bench's seed-0 references
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert re.findall(r"^ +- name: (.+)$", text, re.M) == [
        "Install", "Tier-1 tests", "Tier-1 tests on one CPU", "Benchmark tests",
        "The bench workloads match their seed-0 references"]
