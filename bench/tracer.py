"""Layer spans for one in-process selfattract CLI run.

The tracer wraps public functions at the module attribute where each caller
looks them up (``selfattract.cli.simulate_ensemble``,
``selfattract.flow.free_energy``, ...), so no file of the package changes.
Every call through a wrapped attribute records one span: layer name, start
and end (``perf_counter_ns``), parent span index, run id and the work counts
taken from its arguments or result.  Spans stay in memory until
``Tracer.dump``.

A wrap target that no longer exists is reported in ``absent`` and skipped,
so a later refactor of the package shows up as a missing layer instead of a
crashed benchmark.  The CLI runs single-threaded for every benchmark
workload (``threads = 1``), so one span stack gives the parent links.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time


def _support(m) -> int:
    """Atoms of a particle measure, cells of a grid density."""
    pos = getattr(m, "positions", None)
    return int(pos.shape[0]) if pos is not None else int(m.values.size)


def _records(result) -> list:
    return result if isinstance(result, list) else [result]


def _replica_steps(args, kwargs, result) -> dict:
    return {"replica_steps": sum(int(r.times.size) - 1 for r in _records(result))}


def _draws(args, kwargs, result) -> dict:
    return {"draws": int(result.size)}


def _atoms(args, kwargs, result) -> dict:
    return {"atoms": _support(result)}


def _w2_atoms(args, kwargs, result) -> dict:
    return {"atoms": _support(args[0]) + _support(args[1])}


def _cells(args, kwargs, result) -> dict:
    return {"cells": _support(args[1])}


def _flow_steps(args, kwargs, result) -> dict:
    return {"steps": len(result) - 1}


def _bytes_written(args, kwargs, result) -> dict:
    path = os.fspath(args[0])
    meta = path + ".meta"
    extra = os.path.getsize(meta) if os.path.exists(meta) else 0
    return {"bytes": os.path.getsize(path) + extra}


# (module, attribute path, layer, counter).  Each entry is the lookup a
# caller makes; one layer may be reached through several modules.
WRAPS = [
    ("selfattract.cli", "load_config", "config.load", None),
    ("selfattract.cli", "simulate_ensemble", "sde.ensemble", _replica_steps),
    ("selfattract.cli", "simulate", "sde.ensemble", _replica_steps),
    ("selfattract.rng", "normal_increments", "rng.normal", _draws),
    ("selfattract.sde", "TrajectoryRecord.occupation", "sde.occupation", _atoms),
    ("selfattract.cli", "solve_fixed_point", "gibbs.fixed_point", None),
    ("selfattract.flow", "solve_fixed_point", "gibbs.fixed_point", None),
    ("selfattract.gibbs", "gibbs_map", "gibbs.map", None),
    ("selfattract.flow", "gibbs_map", "gibbs.map", None),
    ("selfattract.diagnostics", "gibbs_map", "gibbs.map", None),
    ("selfattract.diagnostics", "w2_distance", "transport.w2", _w2_atoms),
    ("selfattract.gibbs", "tp_distance_1d", "transport.tp", None),
    ("selfattract.flow", "tp_distance_1d", "transport.tp", None),
    ("selfattract.diagnostics", "tp_distance_1d", "transport.tp", None),
    ("selfattract.flow", "free_energy", "energy.free_energy", _cells),
    ("selfattract.gibbs", "center", "measures.center", None),
    ("selfattract.flow", "center", "measures.center", None),
    ("selfattract.cli", "run_flow", "flow.run_flow", _flow_steps),
    ("selfattract.cli", "ergodicity_check", "diagnostics.ergodicity", None),
    ("selfattract.cli", "one_step_error", "diagnostics.one_step", None),
    ("selfattract.cli", "center_convergence", "diagnostics.center_conv", None),
    ("selfattract.cli", "write_series_csv", "persist.write", _bytes_written),
    ("selfattract.cli", "write_grid_density", "persist.write", _bytes_written),
    ("selfattract.cli", "write_manifest", "persist.write", _bytes_written),
]


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.counter_errors: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter_ns(),
                           "end": None, "parent": parent, "run": self.run_id,
                           "counts": {}})
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the caller times directly."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                try:
                    self.spans[idx]["counts"] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError,
                        OSError) as exc:
                    self.counter_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def install(self, wraps=WRAPS) -> None:
        """Replace every reachable wrap target; record the missing ones."""
        for module_name, attr_path, name, counter in wraps:
            target = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            setattr(owner, attr, self.wrap(fn, name, counter))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "absent": self.absent,
                       "counter_errors": self.counter_errors,
                       "spans": self.spans}, fh)


def summarize(spans: list[dict]) -> dict:
    """Per layer: calls, inclusive seconds (outermost spans of that name
    only), self seconds (span minus its direct children) and summed counts.
    """
    children_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            children_ns[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "counts": {}})
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["self_s"] += (dur - children_ns[i]) * 1e-9
        if not _has_ancestor(spans, i, s["name"]):
            row["total_s"] += dur * 1e-9
        for key, value in s["counts"].items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return out


def _has_ancestor(spans: list[dict], i: int, name: str) -> bool:
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def count_under(spans: list[dict], name: str, ancestor: str) -> int:
    """Spans called ``name`` with some ancestor called ``ancestor``."""
    return sum(1 for i, s in enumerate(spans)
               if s["name"] == name and _has_ancestor(spans, i, ancestor))
