"""Run one command on two source trees and compare what it writes.

    python3 scripts/cmp_runs.py BASE CONFIG COMMAND

runs ``python -m selfattract --config CONFIG --out out COMMAND`` four
times: with ``PYTHONPATH`` set to this checkout's ``src`` and to
``BASE/src``, each once on every CPU this process may use and once pinned
to one of them (the affinity is set on the child alone).  Each run starts
in its own empty temporary working directory.  Every file the runs write
is compared byte for byte with the first run's; each that differs, or
that a run did not write, is printed with the runs it differs in.  Exits
1 if any file differs, 0 if none does, and 2 if a run fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]


def _files(out: Path) -> dict[str, bytes]:
    """Every file under ``out``, by its path relative to ``out``."""
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: cmp_runs.py BASE CONFIG COMMAND", file=sys.stderr)
        return 2
    base, config, command = Path(argv[0]).resolve(), Path(argv[1]).resolve(), argv[2]
    every = os.sched_getaffinity(0)
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, tree in (("this checkout", HEAD), ("BASE", base)):
            for where, cpus in (("all CPUs", every), ("one CPU", {min(every)})):
                label = f"{name} on {where}"
                cwd = Path(tmp) / str(len(runs))
                cwd.mkdir()
                done = subprocess.run(
                    [sys.executable, "-m", "selfattract", "--config", str(config),
                     "--out", "out", command],
                    cwd=cwd, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                    capture_output=True, text=True,
                    preexec_fn=lambda cpus=cpus: os.sched_setaffinity(0, cpus))
                if done.returncode != 0:
                    print(f"{label}: exit {done.returncode}\n{done.stderr}", end="",
                          file=sys.stderr)
                    return 2
                runs[label] = _files(cwd / "out")
    (first, want), *others = runs.items()
    differ = False
    for path in sorted(set().union(*runs.values())):
        bad = [label for label, files in others if files.get(path) != want.get(path)]
        if bad:
            print(f"{path}: {', '.join(bad)} differ from {first}")
            differ = True
    return int(differ)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
