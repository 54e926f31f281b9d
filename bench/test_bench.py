"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import json
import sys
import time
import types

import numpy as np
import pytest

import run
import tracer
import workloads

SMALL = {
    "diagnose": """
[experiment]
replicas = 2
[sim]
dt = 0.01
t_start = 1.0
t_end = 50.0
[schedule]
n_start = 2
n_end = 12
[grid]
cells = 256
""",
    "flow": """
[potential]
kind = even-polynomial
coefficients = 0.5 0.1
[schedule]
n_end = 30
[grid]
cells = 256
[init]
kind = atom
""",
    "simulate": """
[experiment]
replicas = 3
[potential]
kind = even-polynomial
coefficients = 0.5 0.1
[sim]
t_end = 30.0
""",
}


@pytest.mark.parametrize("command", sorted(SMALL))
def test_traced_run_writes_byte_identical_artifacts(tmp_path, command):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL[command])
    deadline = time.perf_counter() + 120
    args = ["--config", str(cfg), "--seed", "7", command]
    plain = run.run_child([sys.executable, "-m", "selfattract", "--out",
                           str(tmp_path / "plain"), *args],
                          tmp_path / "plain.log", deadline)
    spans = tmp_path / "spans.json"
    traced = run.run_child([sys.executable, str(workloads.BENCH / "traced.py"),
                            "--spans", str(spans), "--run-id", "t", "--",
                            "--out", str(tmp_path / "traced"), *args],
                           tmp_path / "traced.log", deadline)
    assert plain.code == 0 and traced.code == 0
    assert run.identical_artifacts(tmp_path / "plain", tmp_path / "traced") == []
    doc = json.loads(spans.read_text())
    assert doc["absent"] == [] and doc["counter_errors"] == []
    assert {"cli.import", "cli.main", "persist.write"} <= {s["name"] for s in doc["spans"]}
    metrics = run.layer_metrics(doc, plain, traced)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["persist.bytes"] > 0


def test_missing_wrap_target_is_reported_not_fatal(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.work = lambda n: np.zeros(n)
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    t = tracer.Tracer("r")
    t.install([("fake_layer", "work", "layer.work", tracer._draws),
               ("fake_layer", "renamed_away", "layer.gone", None),
               ("fake_layer", "Cls.method", "layer.method", None),
               ("no_such_module_for_bench", "f", "layer.module", None)])
    assert t.absent == ["fake_layer.renamed_away", "fake_layer.Cls.method",
                        "no_such_module_for_bench.f"]
    assert fake.work(5).shape == (5,)
    (span,) = t.spans
    assert span["name"] == "layer.work" and span["counts"] == {"draws": 5}
    assert span["run"] == "r" and span["parent"] is None


def test_summary_self_time_and_nesting():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "run": "r", "counts": {"n": 1}}

    spans = [span("fp", 0, 100, None),
             span("map", 10, 60, 0),
             span("map", 20, 40, 1),   # nested call of the same layer
             span("tp", 60, 90, 0)]
    rows = tracer.summarize(spans)
    assert rows["fp"]["self_s"] == pytest.approx(20e-9)
    assert rows["map"]["total_s"] == pytest.approx(50e-9)
    assert rows["map"]["self_s"] == pytest.approx(50e-9)
    assert rows["map"]["calls"] == 2 and rows["map"]["counts"] == {"n": 2}
    assert tracer.count_under(spans, "map", "fp") == 2
    assert tracer.count_under(spans, "fp", "map") == 0


def test_reference_comparison_admits_roundoff_and_rejects_changes():
    w = workloads.WORKLOADS["flow_wide"]
    ref = workloads.load_reference(w)
    assert workloads.compare(ref, ref) == []
    tiny = {k: v * (1 + 1e-13) for k, v in ref.items()}
    assert workloads.compare(tiny, ref) == []
    changed = {k: v.copy() for k, v in ref.items()}
    changed["flow.csv"][-1, 2] *= 1 + 1e-6
    assert workloads.compare(changed, ref) == ["flow.csv: differs from the reference"]

    diag = workloads.load_reference(workloads.WORKLOADS["ergodicity"])
    rows = json.loads(json.dumps(diag["diagnostics.jsonl"]))
    verdict = next(r for r in rows if "criterion" in r)
    verdict["pass"] = not verdict["pass"]
    assert workloads.compare({"diagnostics.jsonl": rows}, diag) != []


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
