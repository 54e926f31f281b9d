#!/usr/bin/env python3
"""Overlay the decay envelope on the relative free energy of a `flow` run.

Reads the run's flow.csv and, from the config its manifest.json records,
the degree of W's envelope; writes flow_trace.csv (n, t, relative energy,
envelope) and prints the fitted decay exponent of the relative free energy.

    python -m selfattract --config configs/flow_from_atom.cfg --out out/flow flow
    python scripts/flow_energy_decay.py out/flow
"""

import argparse
import json
from pathlib import Path

import numpy as np

from selfattract import RateParams, envelope_compare
from selfattract.config import _build_potential
from selfattract.persist import write_series_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("run", type=Path, help="the output directory of a `flow` run")
    ap.add_argument("--c7", type=float, default=1.0)
    ap.add_argument("--out", default="flow_trace.csv")
    args = ap.parse_args()

    config = json.loads((args.run / "manifest.json").read_text())["config"]
    k = _build_potential("potential", config.get("potential", {})).bound_degree
    run = np.genfromtxt(args.run / "flow.csv", delimiter=",", names=True)
    rep = envelope_compare(run["t"], run["relative"], RateParams(c7=args.c7, k=k))

    write_series_csv(args.out, ["n", "t", "relative_energy", "envelope"],
                     [run["n"].astype(int), rep["times"], rep["energy_trace"],
                      rep["envelope_trace"]])
    print(f"wrote {args.out}")
    print(f"decay exponent fit: {rep['decay_exponent']:.4f}")
    print(f"envelope satisfied at {rep['fraction_satisfied']:.1%} of steps")


if __name__ == "__main__":
    main()
