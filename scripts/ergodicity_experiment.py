#!/usr/bin/env python3
"""Replica experiment: how fast does the centered occupation measure reach
the fixed-point density?

Simulates an ensemble, checks the final Wasserstein distances, fits the
decay exponent on logarithmic checkpoints, and writes the report.
"""

import argparse
from pathlib import Path

from selfattract import (SimConfig, quadratic_symmetric, simulate_ensemble,
                         solve_fixed_point, uniform_density)
from selfattract.diagnostics import ergodicity_check


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-end", type=float, default=5000.0)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--replicas", type=int, default=8)
    ap.add_argument("--seed", type=int, default=55)
    ap.add_argument("--strength", type=float, default=1.0)
    ap.add_argument("--out", default="ergodicity.jsonl")
    args = ap.parse_args()

    w = quadratic_symmetric(args.strength)
    cfg = SimConfig(dt=args.dt, t_end=args.t_end, t_start=1.0, seed=args.seed)
    records = simulate_ensemble(w, 0.0, cfg, args.replicas)
    rho = solve_fixed_point(w, uniform_density(-8, 8, 2048)).density
    report = ergodicity_check(w, records, rho)
    Path(args.out).write_text(report.to_jsonl())
    print(report.summary())


if __name__ == "__main__":
    main()
