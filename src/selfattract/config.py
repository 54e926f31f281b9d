"""Experiment configuration: a small key-value text format with nested
sections (INI sections, dotted names allowed), strict about unknown keys.

The full schema ships in config-schema.txt at the repository root; command
line flags override file values.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidInputError
from .flow import Schedule
from .potentials import (PotentialSpec, even_polynomial, external_polynomial,
                         quadratic_shifted, quadratic_symmetric, zero_interaction)
from .sde import SimConfig

_SCHEMA: dict[str, dict[str, type]] = {
    "experiment": {"name": str, "out": str, "replicas": int},
    "potential": {"kind": str, "coefficients": str, "convexity_constant": float,
                  "symmetric": bool, "bound_scale": float, "bound_degree": int},
    "external": {"kind": str, "coefficients": str},
    "sim": {"dt": float, "t_end": float, "t_start": float, "seed": int,
            "noise_scale": float},
    "schedule": {"n_start": int, "n_end": int, "exponent": float},
    "grid": {"cells": int, "half_width": float},
    "init": {"kind": str, "position": float, "width": float, "mean": float,
             "sigma": float},
    "fixpoint": {"damping": float, "tol": float, "max_iter": int},
}


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    out: str = "out"
    replicas: int = 1
    potential: PotentialSpec = field(default_factory=quadratic_symmetric)
    external: PotentialSpec | None = None
    sim: SimConfig = field(default_factory=lambda: SimConfig(dt=0.01, t_end=100.0, seed=0))
    schedule: Schedule = field(default_factory=lambda: Schedule(n_end=100))
    grid_cells: int = 1024
    grid_half_width: float = 8.0
    init_kind: str = "uniform"
    init_position: float = 0.0
    init_width: float = 0.5
    init_mean: float = 0.0
    init_sigma: float = 1.0
    damping: float = 0.5
    fixpoint_tol: float = 1e-12
    fixpoint_max_iter: int = 500
    raw: dict = field(default_factory=dict)

    def resolved(self) -> dict:
        """Plain dict for hashing and manifests."""
        out = dict(self.raw)
        out.setdefault("experiment", {})
        out["experiment"]["name"] = self.name
        out["sim_effective"] = {
            "dt": self.sim.dt, "t_start": self.sim.t_start, "t_end": self.sim.t_end,
            "seed": self.sim.seed, "noise_scale": self.sim.noise_scale,
        }
        return out


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise InvalidInputError(f"not a boolean: {s!r}")


def _coerce(section: str, key: str, value: str):
    try:
        want = _SCHEMA[section][key]
    except KeyError:
        raise InvalidInputError(f"unknown config key [{section}] {key}")
    if want is bool:
        return _parse_bool(value)
    if want is str:
        if key == "coefficients":   # kept as text for the manifest, checked here
            for token in value.split():
                _number(section, key, token, float)
        return value
    return _number(section, key, value, want)


def _number(section: str, key: str, text: str, want: type):
    try:
        out = want(text)
    except ValueError:
        raise InvalidInputError(f"bad value for [{section}] {key}: {text!r}")
    if not math.isfinite(out):
        raise InvalidInputError(f"[{section}] {key} must be finite, got {text!r}")
    return out


def _build_potential(kv: dict) -> PotentialSpec:
    kind = kv.get("kind", "quadratic-symmetric")
    coeffs = [float(c) for c in str(kv.get("coefficients", "1.0")).split()]
    extra = {}
    if "bound_scale" in kv:
        extra["bound_scale"] = kv["bound_scale"]
    if "bound_degree" in kv and kind not in ("quadratic-symmetric", "quadratic-shifted"):
        extra["bound_degree"] = kv["bound_degree"]
    if kind == "quadratic-symmetric":
        return quadratic_symmetric(coeffs[0], **extra)
    if kind == "quadratic-shifted":
        return quadratic_shifted(coeffs[0], claim_symmetric=kv.get("symmetric", False),
                                 **extra)
    if kind == "even-polynomial":
        if not coeffs or all(c == 0.0 for c in coeffs):
            return zero_interaction()
        return even_polynomial(coeffs,
                               convexity_constant=kv.get("convexity_constant"),
                               **extra)
    if kind == "external":
        return external_polynomial(coeffs,
                                   convexity_constant=kv.get("convexity_constant"),
                                   **extra)
    raise InvalidInputError(f"unknown potential kind {kind!r}")


def load_config(path: str | Path | None, overrides: dict | None = None) -> ExperimentConfig:
    """Parse the config file, apply flag overrides, validate preconditions."""
    sections: dict[str, dict] = {}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise InvalidInputError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _SCHEMA:
                raise InvalidInputError(f"unknown config section [{section}]")
            sections[section] = {
                key: _coerce(section, key, value)
                for key, value in parser.items(section)
            }
    overrides = overrides or {}
    exp = sections.get("experiment", {})
    sim_kv = dict(sections.get("sim", {}))
    if "seed" in overrides and overrides["seed"] is not None:
        sim_kv["seed"] = int(overrides["seed"])
    sim = SimConfig(
        dt=sim_kv.get("dt", 0.01),
        t_end=sim_kv.get("t_end", 100.0),
        t_start=sim_kv.get("t_start", 1.0),
        seed=sim_kv.get("seed", 0),
        noise_scale=sim_kv.get("noise_scale", math.sqrt(2.0)),
    )
    sched_kv = sections.get("schedule", {})
    schedule = Schedule(n_end=sched_kv.get("n_end", 100),
                        n_start=sched_kv.get("n_start", 1),
                        exponent=sched_kv.get("exponent", 1.5))
    grid = sections.get("grid", {})
    init = sections.get("init", {})
    fix = sections.get("fixpoint", {})
    replicas = overrides.get("replicas")
    out = overrides.get("out")
    if out == "":
        raise InvalidInputError("--out needs a directory name")
    cfg = ExperimentConfig(
        name=exp.get("name", "experiment"),
        out=str(exp.get("out", "out") if out is None else out),
        replicas=int(exp.get("replicas", 1) if replicas is None else replicas),
        potential=_build_potential(sections.get("potential", {})),
        external=(_build_potential(sections["external"])
                  if "external" in sections else None),
        sim=sim,
        schedule=schedule,
        grid_cells=grid.get("cells", 1024),
        grid_half_width=grid.get("half_width", 8.0),
        init_kind=init.get("kind", "uniform"),
        init_position=init.get("position", 0.0),
        init_width=init.get("width", 0.5),
        init_mean=init.get("mean", 0.0),
        init_sigma=init.get("sigma", 1.0),
        damping=fix.get("damping", 0.5),
        fixpoint_tol=fix.get("tol", 1e-12),
        fixpoint_max_iter=fix.get("max_iter", 500),
        raw={k: dict(v) for k, v in sections.items()},
    )
    if cfg.replicas < 1:
        raise InvalidInputError("replicas must be positive")
    if cfg.init_kind not in ("uniform", "atom", "gaussian"):
        raise InvalidInputError(f"unknown init kind {cfg.init_kind!r}")
    return cfg
