"""Run a command and print what it cost, as one JSON line.

    python3 scripts/rusage.py -- selfattract --config configs/quadratic_ergodicity.cfg diagnose

prints ``{"wall_s": ..., "cpu_s": ..., "peak_rss_mb": ..., "minor_faults": ...}``
on stdout once the command exits, after whatever the command printed there,
and exits with the command's exit status.  All but
the wall time come from ``os.wait4`` on the command, whose usage covers the
command and every descendant it reaped (forked workers included): ``cpu_s``
is their user plus system time, ``peak_rss_mb`` the largest resident set of
any one of them and ``minor_faults`` their minor page faults.  The wall time
runs from the spawn to the reaping.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print("usage: rusage.py -- CMD [ARG...]", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": round(wall, 4),
                      "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
                      "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 2),
                      "minor_faults": usage.ru_minflt}), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
