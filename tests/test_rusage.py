"""The cost meter that the change log's measurements come from."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rusage.py"


def rusage(*cmd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), "--", *cmd],
                          capture_output=True, text=True, timeout=60)


def test_prints_the_cost_of_a_command_as_one_json_line():
    run = rusage(sys.executable, "-c", "pass")
    assert run.returncode == 0 and run.stderr == ""
    (line,) = run.stdout.splitlines()
    cost = json.loads(line)
    assert list(cost) == ["wall_s", "cpu_s", "peak_rss_mb", "minor_faults"]
    assert 0 < cost["cpu_s"] <= cost["wall_s"] + 1.0
    # an interpreter's resident set is megabytes, and it faults its pages in
    assert 1.0 < cost["peak_rss_mb"] < 1000.0
    assert isinstance(cost["minor_faults"], int) and cost["minor_faults"] > 100


def test_counts_forked_children_and_exits_with_the_commands_status():
    # the child's pages and CPU time reach the meter through its parent's
    # wait; the command's own exit status is the meter's
    grow = ("import os, sys; pid = os.fork()\n"
            "if pid == 0:\n    b = b\"x\" * (32 << 20); os._exit(0)\n"
            "os.waitpid(pid, 0); sys.exit(3)")
    run = rusage(sys.executable, "-c", grow)
    assert run.returncode == 3
    cost = json.loads(run.stdout.splitlines()[-1])
    assert cost["peak_rss_mb"] >= 32.0
    assert cost["minor_faults"] >= (32 << 20) // 4096


def test_without_a_command_it_prints_its_usage():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 2 and run.stdout == "" and "usage:" in run.stderr
