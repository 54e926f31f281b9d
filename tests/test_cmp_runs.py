"""The byte-for-byte run comparison that the change log's "same bytes"
claims come from."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "cmp_runs.py"


def cmp_runs(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, timeout=60)


def test_names_each_file_a_changed_tree_writes_differently(tmp_path):
    # two replicas of 200 steps: the copy of this checkout writes the same
    # bytes; a copy whose histograms take 127 bins changes the occupation
    # files and no other
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("[sim]\nt_end = 3.0\n[experiment]\nreplicas = 2\n")
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    same = cmp_runs(str(copy), str(cfg), "simulate")
    assert (same.returncode, same.stdout, same.stderr) == (0, "", "")
    cli = copy / "src" / "selfattract" / "cli.py"
    text = cli.read_text()
    assert text.count("bins=128") == 1
    cli.write_text(text.replace("bins=128", "bins=127"))
    changed = cmp_runs(str(copy), str(cfg), "simulate")
    assert changed.returncode == 1 and changed.stderr == ""
    assert [line.split(":")[0] for line in changed.stdout.splitlines()] == [
        "occupation_r0.csv", "occupation_r1.csv"]
    assert "BASE on all CPUs, BASE on one CPU differ" in changed.stdout


def test_a_failed_run_or_a_wrong_call_exits_2(tmp_path):
    usage = cmp_runs(str(tmp_path))
    assert usage.returncode == 2 and "usage:" in usage.stderr
    missing = cmp_runs(str(tmp_path / "no-tree"), str(tmp_path / "no.cfg"), "simulate")
    assert missing.returncode == 2 and missing.stdout == ""
