"""Experiment configuration: a small key-value text format with nested
sections (INI sections, dotted names allowed), strict about unknown keys.

The full schema ships in config-schema.txt at the repository root; command
line flags override file values.
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import InvalidInputError
from .flow import Schedule
from .potentials import (PotentialSpec, even_polynomial, external_polynomial,
                         quadratic_shifted, quadratic_symmetric, zero_interaction)
from .sde import SimConfig

# section -> key -> (type, default).  A default of None is derived by the
# potential from its kind and coefficients ("auto" in config-schema.txt).
_POTENTIAL = {"kind": (str, "quadratic-symmetric"), "coefficients": (str, "1.0")}
_SCHEMA: dict[str, dict[str, tuple]] = {
    "experiment": {"name": (str, "experiment"), "out": (str, "out"), "replicas": (int, 1)},
    "potential": {**_POTENTIAL, "convexity_constant": (float, None),
                  "symmetric": (bool, False), "bound_scale": (float, None),
                  "bound_degree": (int, None)},
    "external": _POTENTIAL,
    "sim": {"dt": (float, 0.01), "t_end": (float, 100.0), "t_start": (float, 1.0),
            "seed": (int, 0), "noise_scale": (float, math.sqrt(2.0))},
    "schedule": {"n_start": (int, 1), "n_end": (int, 100)},
    "grid": {"cells": (int, 1024), "half_width": (float, 8.0)},
    "init": {"kind": (str, "uniform"), "position": (float, 0.0), "width": (float, 0.5),
             "mean": (float, 0.0), "sigma": (float, 1.0)},
    "fixpoint": {"damping": (float, 0.5), "tol": (float, 1e-12), "max_iter": (int, 500)},
}

# what the commands need of a value, checked on load so that a bad value
# fails before any command work and names its key: (section, key) -> (test,
# what it asks).  A None value is derived ("auto") and passes.
_VALID = {
    ("sim", "dt"): (lambda x: x > 0, "must be positive"),
    ("sim", "t_start"): (lambda x: x >= 0, "must be non-negative"),
    ("sim", "noise_scale"): (lambda x: x >= 0, "must be non-negative"),
    ("schedule", "n_start"): (lambda x: x >= 1, "must be positive"),
    ("potential", "bound_degree"): (lambda x: x is None or x >= 2, "must be at least 2"),
    ("potential", "bound_scale"): (lambda x: x is None or x >= 1, "must be at least 1"),
    ("grid", "cells"): (lambda x: x >= 16, "must be at least 16"),
    ("grid", "half_width"): (lambda x: x > 0, "must be positive"),
    ("init", "width"): (lambda x: x > 0, "must be positive"),
    ("init", "sigma"): (lambda x: x > 0, "must be positive"),
    ("fixpoint", "damping"): (lambda x: 0 < x <= 1, "must lie in (0, 1]"),
    ("fixpoint", "max_iter"): (lambda x: x >= 1, "must be positive"),
}


@dataclass
class ExperimentConfig:
    """A loaded config: the objects its sections build, the [grid], [init]
    and [fixpoint] sections over their defaults, and ``raw``, the sections
    as the file gave them, which the manifest records."""

    name: str
    out: str
    replicas: int
    potential: PotentialSpec
    external: PotentialSpec | None
    sim: SimConfig
    schedule: Schedule
    grid: dict
    init: dict
    fixpoint: dict
    raw: dict

    def resolved(self) -> dict:
        """Plain dict for hashing and manifests.  It leaves out the output
        directory, which names where a run writes, not what it computes."""
        out = {section: dict(kv) for section, kv in self.raw.items()}
        exp = out.setdefault("experiment", {})
        exp.pop("out", None)
        exp.update(name=self.name, replicas=self.replicas)
        out["sim_effective"] = asdict(self.sim)
        return out


def _coerce(section: str, key: str, value: str):
    try:
        want = _SCHEMA[section][key][0]
    except KeyError:
        raise InvalidInputError(f"unknown config key [{section}] {key}")
    if want is bool:
        if value.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise InvalidInputError(f"bad value for [{section}] {key}: {value!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
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


def _check_kind(section: str, kind: str, given: dict, reads: dict) -> None:
    """The section's kind must be one of ``reads``, which maps each kind to
    the keys it reads besides kind.  A key the kind does not read is an
    input error, so the manifest records only what ran."""
    if kind not in reads:
        raise InvalidInputError(f"unknown {section} kind {kind!r}")
    ignored = sorted(set(given) - {"kind"} - reads[kind])
    if ignored:
        raise InvalidInputError(f"[{section}] kind {kind!r} does not read "
                                + ", ".join(ignored))


# the keys each potential kind reads; the quadratic kinds read one coefficient
_COMMON = {"coefficients", "bound_scale", "bound_degree"}
_KIND_KEYS = {"quadratic-symmetric": _COMMON, "quadratic-shifted": {*_COMMON, "symmetric"},
              "even-polynomial": {*_COMMON, "convexity_constant"},
              "external": {*_COMMON, "convexity_constant"}}

# the keys each start reads; every start reads position, the start point of
# `simulate` and `diagnose`
_INIT_KEYS = {"uniform": {"position"}, "atom": {"position", "width"},
              "gaussian": {"position", "mean", "sigma"}}


def _build_potential(section: str, given: dict) -> PotentialSpec:
    """The potential of a [potential] or [external] section."""
    kv = {key: default for key, (_, default) in _SCHEMA["potential"].items()} | given
    kind = kv["kind"]
    _check_kind(section, kind, given, _KIND_KEYS)
    coeffs = [float(c) for c in kv["coefficients"].split()]
    extra = {key: given[key] for key in ("bound_scale", "bound_degree") if key in given}
    if kind.startswith("quadratic") and len(coeffs) != 1:
        raise InvalidInputError(f"[{section}] coefficients: kind {kind!r} reads one "
                                f"strength, got {len(coeffs)} values")
    if kind == "quadratic-symmetric":
        return quadratic_symmetric(coeffs[0], **extra)
    if kind == "quadratic-shifted":
        return quadratic_shifted(coeffs[0], claim_symmetric=kv["symmetric"], **extra)
    if kind == "even-polynomial":
        if not coeffs or all(c == 0.0 for c in coeffs):
            if "convexity_constant" in given:
                raise InvalidInputError("W = 0 (all coefficients zero) has no "
                                        "convexity_constant to claim")
            return zero_interaction(**extra)
        return even_polynomial(coeffs, convexity_constant=kv["convexity_constant"],
                               **extra)
    return external_polynomial(coeffs, convexity_constant=kv["convexity_constant"],
                               **extra)


def _read(path: str | Path | None) -> dict[str, dict]:
    """The sections the file gives, each key coerced to its type."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise InvalidInputError(f"cannot read config file {path}")
    sections = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise InvalidInputError(f"unknown config section [{section}]")
        sections[section] = {key: _coerce(section, key, value)
                             for key, value in parser.items(section)}
    return sections


def load_config(path: str | Path | None, overrides: dict | None = None) -> ExperimentConfig:
    """Parse the config file, lay its keys and the flag overrides over the
    defaults, validate preconditions."""
    given = _read(path)
    kv = {section: {key: default for key, (_, default) in keys.items()} | given.get(section, {})
          for section, keys in _SCHEMA.items()}
    overrides = overrides or {}
    if overrides.get("seed") is not None:
        kv["sim"]["seed"] = int(overrides["seed"])
    exp, init = kv["experiment"], kv["init"]
    out, source = overrides.get("out"), "--out"
    if out is None:
        out, source = exp["out"], "[experiment] out"
    if not out:
        raise InvalidInputError(f"{source} needs a directory name")
    replicas, source = overrides.get("replicas"), "--replicas"
    if replicas is None:
        replicas, source = exp["replicas"], "[experiment] replicas"
    if replicas < 1:
        raise InvalidInputError(f"{source} must be positive, got {replicas!r}")
    _check_kind("init", init["kind"], given.get("init", {}), _INIT_KEYS)
    for (section, key), (ok, what) in _VALID.items():
        if not ok(kv[section][key]):
            raise InvalidInputError(f"[{section}] {key} {what}, got {kv[section][key]!r}")
    with _naming("potential", given):
        potential = _build_potential("potential", given.get("potential", {}))
    with _naming("external", given):
        external = (_build_potential("external", given["external"])
                    if "external" in given else None)
    with _naming("sim", given):
        sim = SimConfig(**kv["sim"])
    with _naming("schedule", given):
        schedule = Schedule(**kv["schedule"])
    return ExperimentConfig(
        name=exp["name"], out=out, replicas=replicas, potential=potential,
        external=external, sim=sim, schedule=schedule,
        grid=kv["grid"], init=init, fixpoint=kv["fixpoint"], raw=given)


@contextmanager
def _naming(section: str, given: dict):
    """An input error raised inside that does not name its section is
    raised again naming the section and the values the file gave it."""
    try:
        yield
    except InvalidInputError as exc:
        if str(exc).startswith(f"[{section}]"):
            raise
        shown = ", ".join(f"{key} = {value}" for key, value in given.get(section, {}).items())
        raise InvalidInputError(f"[{section}] {shown or 'defaults'}: {exc}") from None
