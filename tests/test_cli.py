import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from selfattract.cli import main
from selfattract import cli, diagnostics, sde
from selfattract.config import _SCHEMA, _coerce, load_config
from selfattract.errors import InvalidInputError, NumericFailureError
from selfattract.persist import config_digest, load_measure, write_series_csv
from selfattract import RateParams, envelope_compare, simulate, simulate_ensemble
from conftest import peak_bytes
from oracles import full_history_path, loop_center_tracks


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


FIXPOINT_CFG = """
[experiment]
name = fixtest
[potential]
kind = quadratic-symmetric
coefficients = 1.0
[grid]
cells = 512
half_width = 6.0
[init]
kind = uniform
"""


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write(tmp_path / "bad.cfg", "[sim]\nddt = 0.1\n")
        with pytest.raises(InvalidInputError, match="unknown config key"):
            load_config(cfg)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write(tmp_path / "bad.cfg", "[simulation]\ndt = 0.1\n")
        with pytest.raises(InvalidInputError, match="unknown config section"):
            load_config(cfg)

    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.sim.dt == 0.01
        assert cfg.potential.kind == "quadratic-symmetric"

    def test_flag_overrides(self, tmp_path):
        path = write(tmp_path / "c.cfg", "[sim]\nseed = 5\n[experiment]\nout = a\n")
        cfg = load_config(path, overrides={"seed": 9, "out": "b"})
        assert cfg.sim.seed == 9
        assert cfg.out == "b"

    def test_replicas_flag_zero_is_not_ignored(self, tmp_path, capsys):
        cfg = write(tmp_path / "r.cfg", "[experiment]\nreplicas = 3\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                     "--replicas", "0", "simulate"]) == 2
        assert capsys.readouterr().err == "config error: --replicas must be positive, got 0\n"
        assert not (tmp_path / "o").exists()

    def test_empty_out_flag_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # an empty --out is rejected, not read as "take the file's out"
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "o.cfg", "[experiment]\nout = fromfile\n")
        assert main(["--config", cfg, "--out", "", "simulate"]) == 2
        assert capsys.readouterr().err == "config error: --out needs a directory name\n"
        assert not (tmp_path / "fromfile").exists()

    def test_empty_out_in_file_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # an empty [experiment] out would write every artifact into the cwd
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "o.cfg", "[experiment]\nout =\n[sim]\nt_end = 3.0\n")
        assert main(["--config", cfg, "simulate"]) == 2
        assert capsys.readouterr().err == "config error: [experiment] out needs a directory name\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.cfg"]

    def test_resolved_records_effective_replicas_and_leaves_raw(self, tmp_path):
        path = write(tmp_path / "r.cfg", "[experiment]\nreplicas = 2\n")
        cfg = load_config(path, overrides={"replicas": 3})
        before = json.dumps(cfg.raw, sort_keys=True)
        resolved = cfg.resolved()
        assert resolved["experiment"] == {"name": "experiment", "replicas": 3}
        assert json.dumps(cfg.raw, sort_keys=True) == before

    @pytest.mark.parametrize("kind", ["quadratic-symmetric", "quadratic-shifted"])
    def test_bound_degree_reaches_the_quadratic_kinds(self, tmp_path, kind):
        cfg = write(tmp_path / "b.cfg", f"[potential]\nkind = {kind}\ncoefficients = 1.0\n"
                    "bound_degree = 4\n[sim]\nt_end = 3.0\n")
        assert load_config(cfg).potential.bound_degree == 4
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "simulate"]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["potential"]["bound_degree"] == 4

    def test_zero_interaction_keeps_its_envelope_keys(self, tmp_path):
        # all-zero coefficients build W = 0 with the envelope the file names
        text = ("[potential]\nkind = even-polynomial\ncoefficients = 0\n"
                "bound_degree = 4\nbound_scale = 3.0\n[sim]\nt_end = 3.0\n")
        cfg = write(tmp_path / "z.cfg", text)
        w = load_config(cfg).potential
        assert (w.coefficients, w.bound_degree, w.bound_scale) == ((), 4, 3.0)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "simulate"]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["potential"]["bound_degree"] == 4
        assert manifest["config"]["potential"]["bound_scale"] == 3.0
        # W = 0 has no uniform convexity, so claiming one is a config error
        bad = write(tmp_path / "c.cfg", text.replace("[sim]", "convexity_constant = 1.0\n[sim]"))
        assert main(["--config", bad, "--out", str(tmp_path / "c"), "simulate"]) == 2

    @pytest.mark.parametrize("section,kind,line,named", [
        ("potential", "quadratic-symmetric", "coefficients = 1.0 0.5", "coefficients"),
        ("potential", "quadratic-symmetric", "coefficients = 1.0\nconvexity_constant = 5.0",
         "convexity_constant"),
        ("potential", "quadratic-shifted", "coefficients = 1.0\nconvexity_constant = 5.0",
         "convexity_constant"),
        ("potential", "even-polynomial", "coefficients = 0.5 0.1\nsymmetric = false",
         "symmetric"),
        ("init", "uniform", "position = 1.0\nwidth = 0.5", "does not read width"),
        ("init", "uniform", "mean = 1.0\nsigma = 2.0", "does not read mean, sigma"),
        ("init", "atom", "position = 1.0\nsigma = 1.0", "does not read sigma"),
        ("init", "gaussian", "width = 0.5\nmean = 1.0", "does not read width")],
        ids=["quadratic-two-coefficients", "quadratic-convexity", "shifted-convexity",
             "even-polynomial-symmetric", "uniform-width", "uniform-gaussian",
             "atom-sigma", "gaussian-width"])
    def test_key_the_kind_does_not_read_is_a_config_error(self, tmp_path, capsys, section,
                                                          kind, line, named):
        # each key would be recorded in the manifest but change nothing
        cfg = write(tmp_path / "k.cfg", f"[{section}]\nkind = {kind}\n{line}\n"
                    "[sim]\nt_end = 3.0\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{section}] ") and named in err and kind in err

    @pytest.mark.parametrize("text,named", [
        ("[fixpoint]\nmax_iter = 0\n", "[fixpoint] max_iter"),
        ("[fixpoint]\ndamping = 0\n", "[fixpoint] damping"),
        ("[grid]\nhalf_width = 0\n", "[grid] half_width"),
        ("[grid]\ncells = 8\n", "[grid] cells"),
        ("[init]\nkind = atom\nwidth = 0\n", "[init] width"),
        ("[init]\nkind = gaussian\nsigma = 0\n", "[init] sigma"),
        ("[init]\nkind = gaussian\nsigma = -1\n", "[init] sigma")],
        ids=["max-iter-zero", "damping-zero", "half-width-zero", "too-few-cells",
             "width-zero", "sigma-zero", "sigma-negative"])
    def test_value_no_command_can_use_is_a_config_error(self, tmp_path, capsys,
                                                        monkeypatch, text, named):
        # each one fails on load, before `diagnose` simulates its ensemble,
        # and names its key
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "simulate_ensemble", no_work)
        monkeypatch.setattr(cli, "simulate", no_work)
        cfg = write(tmp_path / "v.cfg", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "diagnose"]) == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named} ") and err.count("\n") == 1

    @pytest.mark.parametrize("text,flags,line", [
        ("[sim]\ndt = 0\n", [], "[sim] dt must be positive, got 0.0"),
        ("[potential]\nbound_degree = 0\n", [],
         "[potential] bound_degree must be at least 2, got 0"),
        ("[experiment]\nreplicas = 3\n", ["--replicas", "0"],
         "--replicas must be positive, got 0"),
        ("[experiment]\nreplicas = 0\n", [], "[experiment] replicas must be positive, got 0"),
        ("[sim]\nt_end = 1.0\n", [], "[sim] t_end = 1.0: need t_end > t_start >= 0"),
        ("[schedule]\nn_start = 5\nn_end = 5\n", [],
         "[schedule] n_start = 5, n_end = 5: need n_end > n_start >= 1"),
        ("[potential]\ncoefficients = -1\n", [],
         "[potential] coefficients = -1: strength must be positive"),
        # the two runs diagnose cannot compare, which `simulate` runs
        ("[sim]\nnoise_scale = 1.0\n", [],
         "[sim] noise_scale = 1.0 sets the temperature noise_scale^2 / 2 = 0.5; diagnose "
         "compares the paths with the Gibbs map at temperature 1, their invariant law only "
         "at noise_scale = sqrt(2)"),
        ("[sim]\nt_end = 60.0\n[schedule]\nn_start = 4\nn_end = 5\n", [],
         "[schedule] n_end = 5: diagnose fits a slope over the n_end - n_start = 1 windows, "
         "it needs two: n_end >= 6")],
        ids=["dt-zero", "bound-degree-zero", "replicas-flag-zero", "replicas-zero",
             "t-end-at-t-start", "n-end-at-n-start", "negative-strength", "noise-one",
             "one-window"])
    def test_config_error_names_its_source(self, tmp_path, capsys, text, flags, line):
        # the key or flag that holds the value, and the value given; raised
        # before `out` is made, so before any command work and any warning
        cfg = write(tmp_path / "e.cfg", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), *flags, "diagnose"]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not (tmp_path / "o").exists()

    def test_simulate_runs_what_diagnose_cannot_compare(self, tmp_path):
        cfg = write(tmp_path / "s.cfg", "[sim]\nnoise_scale = 1.0\nt_end = 60.0\n"
                    "[schedule]\nn_start = 4\nn_end = 5\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "simulate"]) == 0

    ROOT = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize("path,digest", [
        ("configs/flow_from_atom.cfg",
         "fb78f063cd184778f0a5cdee3497a911613ae463b56af4a0f730c422406fb83f"),
        ("configs/quadratic_ergodicity.cfg",
         "a70a612f43c3f18a6cb7a808b38c9a0e641467555efcecd3d509996e8878bbe6"),
        ("bench/configs/flow_wide.cfg",
         "37a58fb9260a94e2c9526e10aba8778d19ebc46f55d0333f864f6cbddd07f63f"),
        ("bench/configs/paths_quartic.cfg",
         "ca039295e0c7d3f6db59d0fcb4f7cfe23cd9a1a81aa4845f113ab9d4c215be35"),
        (None, "52a5a02ba068c678ef5adfae1f72e5f9888d94ab2552df30fb052d342f77d075")],
        ids=["flow-from-atom", "quadratic-ergodicity", "flow-wide", "paths-quartic",
             "no-file"])
    def test_config_digest_is_pinned(self, path, digest):
        # the manifests' config_sha256 of the shipped and bench configs
        cfg = load_config(None if path is None else self.ROOT / path)
        assert config_digest(cfg.resolved()) == digest

    def test_manifest_leaves_out_the_output_directory(self, tmp_path):
        # the hashed config says what ran, not where the files went
        manifests = []
        for name in ("a", "b"):
            cfg = write(tmp_path / f"{name}.cfg", f"[experiment]\nout = {name}\n"
                        "[sim]\nt_end = 3.0\n")
            assert main(["--config", cfg, "--out", str(tmp_path / "o"), "simulate"]) == 0
            manifests.append((tmp_path / "o" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("section,key,value", [
        ("sim", "dt", "nan"), ("sim", "t_end", "inf"), ("grid", "half_width", "nan"),
        ("fixpoint", "tol", "nan"), ("potential", "coefficients", "0.5 -inf"),
        ("potential", "coefficients", "0.5 x")])
    def test_non_finite_or_non_numeric_value_is_a_config_error(self, tmp_path, capsys,
                                                               section, key, value):
        cfg = write(tmp_path / "n.cfg", f"[{section}]\n{key} = {value}\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "fixpoint"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"[{section}] {key}" in err
        assert err.count("\n") == 1

    def test_parse_error_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.cfg", "[sim]\nddt = 0.1\n")
        code = main(["--config", cfg, "simulate"])
        assert code == 2

    def test_history_mode_is_not_a_config_key(self, tmp_path, capsys):
        # the full-history drift is a test oracle, not a mode
        cfg = write(tmp_path / "h.cfg", "[sim]\nhistory_mode = full-history\n")
        assert main(["--config", cfg, "simulate"]) == 2
        assert "unknown config key [sim] history_mode" in capsys.readouterr().err

    def test_schema_file_matches_parser(self):
        # a knob deleted from one of the two must not linger in the other,
        # and each key's default is the one the file gives ("auto": derived
        # by the potential)
        text = (self.ROOT / "config-schema.txt").read_text()
        declared: dict[str, dict] = {}
        section = None
        for line in text.splitlines():
            head = re.match(r"\[(\w+)\]", line)
            key = re.match(r"(\w+)\s*=\s*(\S+)", line)
            if head:
                section = head.group(1)
                declared[section] = {}
            elif key:
                name, value = key.groups()
                declared[section][name] = (None if value == "auto"
                                           else _coerce(section, name, value))
        assert declared == {name: {key: default for key, (_, default) in keys.items()}
                            for name, keys in _SCHEMA.items()}


class TestCommands:
    def test_fixpoint_produces_gaussian_density(self, tmp_path):
        cfg = write(tmp_path / "f.cfg", FIXPOINT_CFG)
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out", str(out), "fixpoint"])
        assert code == 0
        dens = load_measure(out / "density.csv")
        xs = dens.centers()
        target = np.exp(-xs ** 2 / 2) / math.sqrt(2 * math.pi)
        assert np.abs(dens.values - target).max() <= 1e-3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fixpoint"
        assert (out / "convergence.csv").exists()

    @pytest.mark.parametrize("verdict, body", [
        ("symmetry", "kind = quadratic-shifted\nsymmetric = true\n"),
        ("domination", "kind = quadratic-symmetric\ncoefficients = 10.0\nbound_scale = 2.0\n"),
        ("envelope-submultiplicativity",
         "kind = quadratic-symmetric\ncoefficients = 0.1\nbound_scale = 1.0\n"),
        ("uniform-convexity", "kind = even-polynomial\ncoefficients = 0.0 0.25\n"),
    ], ids=["symmetry", "domination", "envelope-submultiplicativity", "uniform-convexity"])
    def test_certify_fails_each_verdict_alone(self, tmp_path, capsys, verdict, body):
        # each [potential] fails one claim and no other
        cfg = write(tmp_path / "c.cfg", "[potential]\n" + body)
        code = main(["--config", cfg, "certify"])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[-1] == f"certificate: FAIL ({verdict})"

    def test_certify_passes_for_quadratic(self, tmp_path, capsys):
        code = main(["certify"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_simulate_is_reproducible(self, tmp_path):
        cfg = write(tmp_path / "s.cfg",
                    "[sim]\ndt = 0.01\nt_end = 5.0\nseed = 7\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--config", cfg, "--out", str(out1), "simulate"]) == 0
        assert main(["--config", cfg, "--out", str(out2), "simulate"]) == 0
        for name in ("path_r0.csv", "occupation_r0.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_simulate_replicas_from_time_zero(self, tmp_path):
        # replicas started at t = 0 step side by side; each CSV path is the
        # thinned single-replica path, digit for digit
        cfg = write(tmp_path / "z.cfg",
                    "[sim]\ndt = 0.01\nt_start = 0.0\nt_end = 5.0\nseed = 3\n"
                    "[experiment]\nreplicas = 2\n")
        out = tmp_path / "oz"
        assert main(["--config", cfg, "--out", str(out), "simulate"]) == 0
        loaded = load_config(cfg)
        for r in range(2):
            rec = simulate(loaded.potential, loaded.init["position"], loaded.sim, replica=r)
            thin = max(1, rec.times.size // 2000)
            want = np.column_stack((rec.times, rec.positions, rec.center_track))[::thin]
            got = np.loadtxt(out / f"path_r{r}.csv", delimiter=",", skiprows=1)
            assert np.array_equal(got, want)

    def test_single_path_is_a_row_of_an_ensemble(self, tmp_path):
        # one replica through `simulate` writes the replica-0 row of a
        # three-replica ensemble, digit for digit
        cfg = write(tmp_path / "q.cfg",
                    "[potential]\nkind = even-polynomial\ncoefficients = 0.5 0.1\n"
                    "[sim]\ndt = 0.01\nt_end = 41.0\nseed = 6\n")
        out = tmp_path / "oq"
        assert main(["--config", cfg, "--out", str(out), "--replicas", "1", "simulate"]) == 0
        loaded = load_config(cfg)
        rec = simulate_ensemble(loaded.potential, loaded.init["position"], loaded.sim, 3)[0]
        thin = max(1, rec.times.size // 2000)
        want = np.column_stack((rec.times, rec.positions, rec.center_track))[::thin]
        got = np.loadtxt(out / "path_r0.csv", delimiter=",", skiprows=1)
        assert thin == 2 and np.array_equal(got, want)

    def test_thinned_centers_are_the_interpolated_track(self, tmp_path):
        # a thinning stride of 26, not a multiple of the knot spacing 10:
        # the center column, rebuilt at the thinned rows from the knots, is
        # the track the stepper once interpolated in full
        cfg = write(tmp_path / "q.cfg",
                    "[potential]\nkind = even-polynomial\ncoefficients = 0.5 0.1\n"
                    "[sim]\ndt = 0.01\nt_end = 523.17\nseed = 4\n[experiment]\nreplicas = 2\n")
        out = tmp_path / "oq"
        assert main(["--config", cfg, "--out", str(out), "simulate"]) == 0
        loaded = load_config(cfg)
        tracks = loop_center_tracks(loaded.potential, loaded.init["position"], loaded.sim, 2)
        thin = tracks.shape[1] // 2000
        assert thin == 26
        for r, track in enumerate(tracks):
            got = np.loadtxt(out / f"path_r{r}.csv", delimiter=",", skiprows=1)
            assert np.array_equal(got[:, 2], track[::thin])

    def test_simulate_from_time_zero_without_interaction(self, tmp_path):
        cfg = write(tmp_path / "z.cfg",
                    "[potential]\nkind = even-polynomial\ncoefficients = 0\n"
                    "[sim]\nt_start = 0.0\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "oz"), "simulate"]) == 0

    def test_short_run_from_time_zero_matches_the_oracle(self, tmp_path):
        # no bootstrap segment to fit: three steps from t = 0 run
        cfg = write(tmp_path / "s.cfg", "[sim]\nt_start = 0.0\nt_end = 0.03\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "os"), "simulate"]) == 0
        loaded = load_config(cfg)
        positions, centers = full_history_path(loaded.potential, 0.0, loaded.sim)
        got = np.loadtxt(tmp_path / "os" / "path_r0.csv", delimiter=",", skiprows=1)
        assert got.shape == (4, 3)
        assert np.abs(got[:, 1] - positions).max() <= 1e-12
        assert np.abs(got[:, 2] - centers).max() <= 1e-12

    def test_threads_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "simulate"])
        assert exc.value.code == 2

    def test_compare_emits_jsonl(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_series_csv(a, ["position", "weight"], [np.array([0.0]), np.array([1.0])])
        write_series_csv(b, ["position", "weight"], [np.array([1.0]), np.array([1.0])])
        code = main(["compare", str(a), str(b)])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [(d["distance"], d["method"]) for d in lines] == [
            ("tp-1d", "tp-1d"), ("w2", "w2-quantile"), ("tp-centered", "tp-1d"),
            ("w2-centered", "w2-quantile")]
        by_name = {d["distance"]: d for d in lines}
        assert by_name["w2"]["value"] == pytest.approx(1.0)
        assert by_name["tp-centered"]["value"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("text", [
        None, "", "position,weight\n0.0,abc\n", "position,weight\n0.0,1.0\n1.0\n",
        "x,density\n0.0,1.0\n", "x,density\n" + "".join(f"{i},1.0\n" for i in range(15)) + "15,nan\n",
        "x,density\n" + "".join(f"{i},1.0\n" for i in range(17) if i != 2)],
        ids=["missing", "empty", "non-numeric", "ragged", "one-row-grid", "non-finite",
             "uneven-grid"])
    def test_compare_rejects_a_malformed_measure_file(self, tmp_path, capsys, text):
        good = tmp_path / "good.csv"
        good.write_text("position,weight\n0.0,1.0\n")
        bad = tmp_path / "bad.csv"
        if text is not None:
            bad.write_text(text)
        assert main(["compare", str(bad), str(good)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and str(bad) in err
        assert err.count("\n") == 1

    def test_appendix2_slope_near_one(self, tmp_path, capsys):
        cfg = write(tmp_path / "a.cfg",
                    "[sim]\nt_end = 100000\ndt = 0.01\nseed = 2\n"
                    "[experiment]\nreplicas = 4\n")
        out = tmp_path / "outA"
        code = main(["--config", cfg, "--out", str(out), "--assert", "appendix2"])
        assert code == 0
        assert (out / "counterexample_r0.csv").exists()

    def test_flow_subcommand(self, tmp_path):
        cfg = write(tmp_path / "fl.cfg",
                    "[init]\nkind = atom\nposition = 0.0\nwidth = 0.5\n"
                    "[schedule]\nn_end = 30\n[grid]\ncells = 512\nhalf_width = 7.0\n")
        out = tmp_path / "outF"
        code = main(["--config", cfg, "--out", str(out), "--assert", "flow"])
        assert code == 0
        assert (out / "flow.csv").exists()
        assert (out / "final_density.csv").exists()
        header = (out / "energy_trace.csv").read_text().splitlines()[0]
        assert header == "step,entropy,external,interaction,total,relative"

    def test_flow_energy_decay_script_reads_the_run_it_is_given(self, tmp_path):
        # a run started with --seed: the script takes W's envelope degree (4
        # for a quartic W) from the run's manifest and its trace from flow.csv
        cfg = write(tmp_path / "q.cfg", "[potential]\nkind = even-polynomial\n"
                    "coefficients = 0.5 0.1\n[schedule]\nn_end = 20\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--seed", "3", "flow"]) == 0
        script = Path(__file__).resolve().parents[1] / "scripts" / "flow_energy_decay.py"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, str(script), str(tmp_path / "o"),
                               "--out", str(tmp_path / "trace.csv")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        run = np.genfromtxt(tmp_path / "o/flow.csv", delimiter=",", names=True)
        want = envelope_compare(run["t"], run["relative"], RateParams(c7=1.0, k=4))
        trace = np.genfromtxt(tmp_path / "trace.csv", delimiter=",", names=True)
        assert np.array_equal(trace["envelope"], want["envelope_trace"])
        assert f"decay exponent fit: {want['decay_exponent']:.4f}" in done.stdout

    def test_energy_trace_columns_add_up_to_the_total_with_v(self, tmp_path):
        # an atom at 3 pulled back by V = x^2/2: V's term is a column of its
        # own, and the terms add up to the total
        text = (self.SHIPPED_FLOW.read_text().replace("position = 0.0\n", "position = 3.0\n")
                .replace("n_end = 400\n", "n_end = 40\n")
                + "[external]\nkind = external\ncoefficients = 0.5\n")
        cfg = write(tmp_path / "v.cfg", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "flow"]) == 0
        trace = np.genfromtxt(tmp_path / "o/energy_trace.csv", delimiter=",", names=True)
        assert trace["external"][0] > 4.0
        parts = trace["entropy"] + trace["external"] + trace["interaction"]
        assert np.abs(parts - trace["total"]).max() <= 1e-12

    def test_flow_assert_on_a_w_that_is_not_symmetric_says_why(self, tmp_path, capsys):
        # the free energy sees only W's symmetric part, so it need not
        # decrease along the flow of a shifted W: the verdict says so
        text = (self.SHIPPED_FLOW.read_text()
                .replace("kind = quadratic-symmetric\n", "kind = quadratic-shifted\n")
                .replace("n_end = 400\n", "n_end = 60\n")
                + "[external]\nkind = external\ncoefficients = 0.5\n")
        assert "kind = quadratic-shifted\n" in text and "n_end = 60\n" in text
        cfg = write(tmp_path / "s.cfg", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--assert", "flow"]) == 1
        assert capsys.readouterr().err == (
            "FAIL: relative free energy increased along the flow; W is not symmetric, "
            "so the decrease of the free energy is not claimed there\n")

    SHIPPED_FLOW = Path(__file__).resolve().parents[1] / "configs" / "flow_from_atom.cfg"

    def gaussian_at_30(self) -> str:
        """The shipped flow config with its atom start made a unit Gaussian
        at 30, which reads no width."""
        text = self.SHIPPED_FLOW.read_text()
        assert "kind = atom\n" in text and "width = 0.5\n" in text
        return text.replace("kind = atom\n", "kind = gaussian\nmean = 30.0\nsigma = 1.0\n"
                            ).replace("width = 0.5\n", "")

    def test_gaussian_start_box_follows_its_mean(self, tmp_path):
        # the start box is centered on the init: without V the flow keeps the
        # Gaussian's center at 30, where a box about 0 would hold only its
        # far tail
        cfg = write(tmp_path / "g.cfg", self.gaussian_at_30())
        assert main(["--config", cfg, "--out", str(tmp_path / "g"), "--assert", "flow"]) == 0
        rows = np.loadtxt(tmp_path / "g/flow.csv", delimiter=",", skiprows=1)
        assert rows.shape[0] > 300
        assert np.abs(rows[:, 4] - 30.0).max() <= 1e-9

    @pytest.mark.parametrize("position", ["1000.0", "100000.0"])
    @pytest.mark.parametrize("w", ["quadratic", "quartic"])
    def test_far_atom_flow_centers_are_its_position_exactly(self, tmp_path, position, w):
        # an atom far outside a box about 0: the start box is centered on it,
        # so both commands run.  Without V the flow's center is the atom's
        # position; the center is solved about the measure's anchor, so it
        # carries the shift exactly.  The fixed point converges there too
        text = self.SHIPPED_FLOW.read_text().replace("position = 0.0\n",
                                                     f"position = {position}\n")
        if w == "quartic":
            text = text.replace("kind = quadratic-symmetric\ncoefficients = 1.0\n",
                                "kind = even-polynomial\ncoefficients = 0.5 0.1\n")
        assert f"position = {position}\n" in text and ("0.5 0.1" in text) == (w == "quartic")
        cfg = write(tmp_path / "a.cfg", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "f"), "--assert", "flow"]) == 0
        assert main(["--config", cfg, "--out", str(tmp_path / "p"), "fixpoint"]) == 0
        trace = np.genfromtxt(tmp_path / "f/flow.csv", delimiter=",", names=True)
        assert trace.size == 400 and np.all(trace["center"] == float(position))
        assert abs(load_measure(tmp_path / "p/density.csv").mean() - float(position)) <= 1e-6

    def test_csv_rows_end_in_newline_alone(self, tmp_path):
        sim = write(tmp_path / "s.cfg", "[sim]\ndt = 0.01\nt_end = 5.0\nseed = 7\n")
        flow = write(tmp_path / "f.cfg",
                     "[init]\nkind = atom\nposition = 0.0\nwidth = 0.5\n"
                     "[schedule]\nn_end = 10\n[grid]\ncells = 256\nhalf_width = 7.0\n")
        assert main(["--config", sim, "--out", str(tmp_path / "s"), "simulate"]) == 0
        assert main(["--config", flow, "--out", str(tmp_path / "f"), "flow"]) == 0
        for name in ("s/path_r0.csv", "s/occupation_r0.csv", "f/flow.csv",
                     "f/final_density.csv"):
            assert b"\r" not in (tmp_path / name).read_bytes(), name
        assert load_measure(tmp_path / "s/occupation_r0.csv").mass == pytest.approx(1.0)
        assert load_measure(tmp_path / "f/final_density.csv").mass == pytest.approx(1.0)

    def test_numeric_failure_exit_code(self, tmp_path):
        cfg = write(tmp_path / "nf.cfg",
                    "[fixpoint]\nmax_iter = 1\ntol = 1e-15\n"
                    "[grid]\ncells = 256\nhalf_width = 6.0\n")
        code = main(["--config", cfg, "--out", str(tmp_path / "o"), "fixpoint"])
        assert code == 3

    def test_diagnose_reads_fixpoint_max_iter(self, tmp_path, capsys):
        cfg = write(tmp_path / "m.cfg",
                    "[sim]\nt_end = 30.0\n[fixpoint]\nmax_iter = 1\n"
                    "[grid]\ncells = 256\nhalf_width = 6.0\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "diagnose"]) == 3
        assert "fixed point not reached in 1 iterations" in capsys.readouterr().err

    def test_flow_reads_fixpoint_section(self, tmp_path, capsys):
        # a given [fixpoint] sets the flow's reference fixed point, as it
        # sets the fixpoint command's: both stop after 5 iterations
        text = self.SHIPPED_FLOW.read_text() + "[fixpoint]\nmax_iter = 5\ntol = 1e-3\n"
        cfg = write(tmp_path / "f5.cfg", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "p"), "fixpoint"]) == 3
        assert main(["--config", cfg, "--out", str(tmp_path / "f"), "flow"]) == 3
        assert "fixed point not reached in 5 iterations" in capsys.readouterr().err

    GIBBS_AT_BOUNDARY = "Gibbs density keeps 1.00e+00 mass at the grid boundary"

    def test_fixed_point_failure_names_its_iteration(self, tmp_path, capsys):
        # a quartic V pulls the whole Gibbs image of a start at 30 out of its
        # box about 30: the first iteration fails, in both commands, and the
        # flow says the failure came from its reference fixed point
        cfg = write(tmp_path / "v.cfg",
                    self.gaussian_at_30() + "[external]\nkind = external\ncoefficients = 0.0 0.5\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "p"), "fixpoint"]) == 3
        err = capsys.readouterr().err
        assert "fixed-point iteration 1 (last residual none): " + self.GIBBS_AT_BOUNDARY in err
        assert main(["--config", cfg, "--out", str(tmp_path / "f"), "flow"]) == 3
        err = capsys.readouterr().err
        assert "the flow's reference fixed point: fixed-point iteration 1 " in err
        assert self.GIBBS_AT_BOUNDARY in err

    @pytest.mark.parametrize("command", ["fixpoint", "flow"])
    def test_failure_in_a_later_step_names_it(self, tmp_path, capsys, monkeypatch,
                                              command):
        # the Gibbs map fails on its 4th call: in `fixpoint`, the 4th
        # iteration, after 3 residuals; in `flow`, whose reference fixed
        # point stops after one iteration here, the step from n = 3
        from selfattract import flow

        calls = []
        gibbs_map = flow.gibbs_map

        def fails_on_the_4th(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise NumericFailureError("forced")
            return gibbs_map(*args, **kwargs)

        monkeypatch.setattr(flow, "gibbs_map", fails_on_the_4th)
        text = self.SHIPPED_FLOW.read_text()
        if command == "flow":
            text += "[fixpoint]\nmax_iter = 1\ntol = 1e9\n"
        cfg = write(tmp_path / "c.cfg", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), command]) == 3
        err = capsys.readouterr().err
        if command == "fixpoint":
            assert re.search(r"fixed-point iteration 4 \(last residual \d\.\d{3}e[+-]\d+\): "
                             "forced$", err.strip())
        else:
            assert err.strip().endswith(f"flow step from n = 3, t = {3 ** 1.5!r}: forced")

    def test_box_of_a_w_without_center_stays_in_the_fixed_point(self, tmp_path):
        # W = 0.1 x^4 has no uniform convexity, hence no center: the fixed
        # point keeps its start box about the atom at 3 while a quartic V
        # pulls the measure toward 0
        text = self.SHIPPED_FLOW.read_text()
        text = text.replace("kind = quadratic-symmetric\ncoefficients = 1.0\n",
                            "kind = even-polynomial\ncoefficients = 0 0.1\n")
        text = text.replace("position = 0.0\n", "position = 3.0\n")
        assert "coefficients = 0 0.1\n" in text and "position = 3.0\n" in text
        cfg = write(tmp_path / "nc.cfg",
                    text + "[external]\nkind = external\ncoefficients = 0.0 0.5\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "p"), "fixpoint"]) == 0
        dens = load_measure(tmp_path / "p/density.csv")
        assert (float(dens.lo), float(dens.hi)) == (-5.0, 11.0)

    EXPLODES = ("[experiment]\nreplicas = 4\n[potential]\nkind = even-polynomial\n"
                "coefficients = 0.5 300.0\n[sim]\nt_start = 1.0\nt_end = 50.0\n")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_diagnose_reports_the_ensembles_first_explosion(self, tmp_path, capsys,
                                                           monkeypatch, cpus):
        # replica 0 explodes at step 23 and replica 3 at step 14: simulated
        # one by one in the workers, the run names the earliest step (then
        # the lowest replica), as one ensemble run does, whoever fails first
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = write(tmp_path / "x.cfg", self.EXPLODES)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["--config", cfg, "--out", str(tmp_path / "o"), "diagnose"]) == 3
        assert capsys.readouterr().err == self.EXPLOSION
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failure_of_the_parents_own_work_shuts_the_pool_down(self, tmp_path, capsys,
                                                                monkeypatch, cpus):
        # replica 0's one-step error runs in its task, in this process at 1 CPU
        # and in a worker at 2; its failure names its window and leaves no worker
        def forced(*args, **kwargs):
            raise NumericFailureError("forced")

        monkeypatch.setattr(diagnostics, "gibbs_map", forced)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = write(tmp_path / "d.cfg", "[sim]\nt_end = 60.0\n[experiment]\nreplicas = 3\n"
                    "[schedule]\nn_start = 4\nn_end = 12\n[grid]\ncells = 256\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "diagnose"]) == 3
        assert capsys.readouterr().err == (
            f"numeric failure: one-step window 0 (t0 = {4 ** 1.5!r}, t1 = {5 ** 1.5!r}): "
            "forced\n")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_curves_and_reports_rank_after_failed_paths_then_by_replica(
            self, tmp_path, capsys, monkeypatch, cpus):
        # the W2 curves of replicas 1 and 2 fail, and so does the one-step
        # error of replica 0: the explosion of replica 3 comes first, and
        # without one replica 0's report, named by its window; no worker is left
        curve = cli.w2_curve

        def fails_after_replica_zero(w, rec, rho, ts):
            if rec.replica:
                raise NumericFailureError(f"curve of replica {rec.replica} failed")
            return curve(w, rec, rho, ts)

        def forced(*args, **kwargs):
            raise NumericFailureError("forced")

        monkeypatch.setattr(cli, "w2_curve", fails_after_replica_zero)
        monkeypatch.setattr(diagnostics, "gibbs_map", forced)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = write(tmp_path / "x.cfg", self.EXPLODES)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["--config", cfg, "--out", str(tmp_path / "x"), "diagnose"]) == 3
        assert capsys.readouterr().err == self.EXPLOSION
        cfg = write(tmp_path / "d.cfg", "[sim]\nt_end = 60.0\n[experiment]\nreplicas = 3\n"
                    "[schedule]\nn_start = 4\nn_end = 12\n[grid]\ncells = 256\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "diagnose"]) == 3
        assert capsys.readouterr().err == (
            f"numeric failure: one-step window 0 (t0 = {4 ** 1.5!r}, t1 = {5 ** 1.5!r}): "
            "forced\n")
        assert multiprocessing.active_children() == []

    def test_diagnose_memory_is_bounded_in_the_replica_count(self, tmp_path, monkeypatch):
        # each task of the closed form simulates one replica and returns only
        # its numbers: with workers (2 CPUs) this process holds no path, and
        # its peak stays below the positions and centers of one; without
        # (1 CPU) it holds one path at a time, and its W2 pass no copy of
        # it.  Either way the peak stays below 6.5 paths at 2 and at 16
        # replicas (measured: 6.3, most of it replica 0's one-step error; a
        # sort buffer of the path's length put it at 6.8), where a
        # 16-replica ensemble alone holds 16
        cfg = write(tmp_path / "m.cfg", "[sim]\ndt = 0.01\nt_end = 400.0\nseed = 4\n"
                    "[schedule]\nn_start = 2\nn_end = 20\n[grid]\ncells = 256\n")
        path_bytes = 2 * 8 * 39901

        def diagnose(cpus, replicas):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            return main(["--config", cfg, "--out", str(tmp_path / "o"), "--replicas",
                         str(replicas), "diagnose"])

        assert diagnose(2, 2) == 0   # the pool's one-time imports and caches
        peaks = {}
        for cpus in (2, 1):
            for replicas in (2, 16):
                rc, peaks[cpus, replicas] = peak_bytes(lambda: diagnose(cpus, replicas))
                assert rc == 0
        assert max(peaks.values()) <= 6.5 * path_bytes, peaks
        assert max(peaks[2, 2], peaks[2, 16]) < path_bytes, peaks

    def test_stepped_diagnose_memory_is_bounded_by_the_block(self, tmp_path, monkeypatch):
        # quartic W: a task steps a block of at most `_DIAGNOSE_BLOCK`
        # replicas as one ensemble.  On 1 CPU, 16 replicas (two blocks of 8,
        # one after the other) peak less than 7 paths above 2 replicas (one
        # block of 2; measured: 6.0 above), where one ensemble of 16 would
        # hold 14 more.  With 2 CPUs the two blocks run in the workers, and
        # this process peaks more than a block of paths below the run on 1
        cfg = write(tmp_path / "m.cfg", self._QUARTIC + "[sim]\ndt = 0.01\nt_end = 200.0\n"
                    "seed = 4\n[schedule]\nn_start = 2\nn_end = 20\n[grid]\ncells = 256\n")
        path_bytes = 8 * 19901 + 8 * 1991   # positions and center knots
        assert cli._DIAGNOSE_BLOCK == 8

        def diagnose(cpus, replicas):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            return main(["--config", cfg, "--out", str(tmp_path / "o"), "--replicas",
                         str(replicas), "diagnose"])

        assert diagnose(2, 16) == 0   # the pool's one-time imports and caches
        peaks = {}
        for cpus, replicas in ((1, 2), (1, 16), (2, 16)):
            rc, peaks[cpus, replicas] = peak_bytes(lambda: diagnose(cpus, replicas))
            assert rc == 0
        assert peaks[1, 16] <= peaks[1, 2] + 7 * path_bytes, peaks
        assert peaks[2, 16] < peaks[1, 16] - 8 * path_bytes, peaks

    EXPLOSION = ("numeric failure: path lost finiteness (explosion) at step 14, "
                 "t = 1.1400000000000001, replica 3; check the step size against the "
                 "potential\n")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_simulate_reports_the_ensembles_first_explosion(self, tmp_path, capsys,
                                                           monkeypatch, cpus):
        # at 2 CPUs replica 0 explodes at step 23 in block [0, 2) and replica
        # 3 at step 14 in block [2, 4): the run names the earliest step (then
        # the lowest replica), as one ensemble run does, whichever block fails
        # first
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = write(tmp_path / "x.cfg", self.EXPLODES)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "simulate"]) == 3
        assert capsys.readouterr().err == self.EXPLOSION
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_explosion_prints_only_its_failure(self, tmp_path, command, cpus):
        # a fresh interpreter shows numpy's warnings on stderr: the steps that
        # overflow on the way to the failure warn nothing, here or in a worker
        cfg = write(tmp_path / "x.cfg", self.EXPLODES)
        run = ("import os, sys; os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1]))); "
               "from selfattract.cli import main; sys.exit(main(sys.argv[2:]))")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
               "PYTHONWARNINGS": "default"}
        done = subprocess.run([sys.executable, "-c", run, str(cpus), "--config", cfg,
                               "--out", str(tmp_path / "o"), command],
                              capture_output=True, text=True, env=env, timeout=300)
        assert (done.returncode, done.stderr) == (3, self.EXPLOSION)

    def test_diagnose_on_one_cpu_simulates_each_replica_once(self, tmp_path, monkeypatch):
        # one task per replica of the closed form, in this process (1 CPU) or
        # in the workers (2 CPUs), which append to the log they inherit: 3
        # replicas are 3 simulations either way, and the reports are the
        # same bytes
        log = tmp_path / "simulated.log"
        run = cli.simulate_ensemble

        def logged(*args, first=0, **kwargs):
            with open(log, "a") as fh:
                fh.write(" ".join(map(str, range(first, first + args[3]))) + "\n")
            return run(*args, first=first, **kwargs)

        monkeypatch.setattr(cli, "simulate_ensemble", logged)
        cfg = write(tmp_path / "d.cfg", "[sim]\nt_end = 60.0\n[experiment]\nreplicas = 3\n"
                    "[schedule]\nn_start = 4\nn_end = 12\n[grid]\ncells = 256\n")
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / f"o{cpus}"
            assert main(["--config", cfg, "--out", str(out), "diagnose"]) == 0
            reports.append((out / "diagnostics.jsonl").read_bytes())
            assert sorted(log.read_text().split("\n")[:-1]) == ["0", "1", "2"], cpus
            log.unlink()
        assert reports[0] == reports[1]
        assert multiprocessing.active_children() == []

    _QUARTIC = "[potential]\nkind = even-polynomial\ncoefficients = 0.5 0.1\n"
    BLOCKED = {
        "quadratic": "[sim]\nt_end = 21.0\n",
        "quartic": _QUARTIC + "[sim]\nt_end = 21.0\n",
        "sextic": "[potential]\nkind = even-polynomial\ncoefficients = 0.5 0.1 0.01\n"
                  "[sim]\nt_end = 21.0\n",
        "quartic-with-v": _QUARTIC + "[sim]\nt_end = 21.0\n"
                          "[external]\nkind = external\ncoefficients = 0.5\n",
        "quartic-from-t0": _QUARTIC + "[sim]\nt_start = 0.0\nt_end = 20.0\n",
    }

    @pytest.mark.parametrize("name", ["quartic", "sextic", "quartic-with-v"])
    def test_diagnose_steps_blocks_that_give_the_bytes_of_single_replicas(
            self, tmp_path, monkeypatch, name):
        # a stepped W: 10 replicas are two ensembles of 5, on 1, 2 and 3
        # CPUs alike, and the report is the bytes of one replica per task
        log = tmp_path / "simulated.log"
        run = cli.simulate_ensemble

        def logged(*args, first=0, **kwargs):
            with open(log, "a") as fh:
                fh.write(" ".join(map(str, range(first, first + args[3]))) + "\n")
            return run(*args, first=first, **kwargs)

        monkeypatch.setattr(cli, "simulate_ensemble", logged)
        cfg = write(tmp_path / "b.cfg", "[experiment]\nreplicas = 10\n" + self.BLOCKED[name]
                    + "[schedule]\nn_start = 2\nn_end = 7\n[grid]\ncells = 256\n")
        blocks = [" ".join(map(str, range(5))), " ".join(map(str, range(5, 10)))]
        reports = []
        for cpus, size in ((1, 8), (2, 8), (3, 8), (2, 1)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr(cli, "_DIAGNOSE_BLOCK", size)
            out = tmp_path / f"o{cpus}-{size}"
            assert main(["--config", cfg, "--out", str(out), "diagnose"]) == 0
            reports.append((out / "diagnostics.jsonl").read_bytes())
            assert sorted(log.read_text().split("\n")[:-1]) == (
                blocks if size == 8 else sorted(map(str, range(10)))), (cpus, size)
            log.unlink()
        assert reports[1:] == reports[:1] * 3
        assert reports[0].count(b'"experiment"') == 3   # replica 0's reports too
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("name", sorted(BLOCKED))
    def test_simulate_writes_the_same_bytes_in_any_number_of_blocks(self, tmp_path,
                                                                    monkeypatch, name):
        # 5 replicas in one block (the ensemble), in [0, 2) and [2, 5), and
        # in [0, 1), [1, 3) and [3, 5)
        cfg = write(tmp_path / "b.cfg", "[experiment]\nreplicas = 5\n" + self.BLOCKED[name])
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / f"o{cpus}"
            assert main(["--config", cfg, "--out", str(out), "simulate"]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == sorted(
            ["manifest.json"] + [f"{kind}_r{r}.csv" for kind in ("path", "occupation")
                                 for r in range(5)])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert multiprocessing.active_children() == []

    def test_simulate_holds_no_path_in_this_process(self, tmp_path, monkeypatch):
        # with 2 CPUs the workers simulate and write the blocks: this
        # process's peak stays below the positions and centers of one path,
        # where the 4-replica ensemble holds four
        cfg = write(tmp_path / "m.cfg", "[experiment]\nreplicas = 4\n[sim]\nt_end = 801.0\n")
        path_bytes = 2 * 8 * 80001
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        argv = ["--config", cfg, "--out", str(tmp_path / "o"), "simulate"]
        assert main(argv) == 0   # the pool's one-time imports and caches
        rc, peak = peak_bytes(lambda: main(argv))
        assert rc == 0 and peak < path_bytes, peak

    def test_diagnose_runs(self, tmp_path):
        cfg = write(tmp_path / "d.cfg",
                    "[sim]\ndt = 0.01\nt_end = 130.0\nseed = 4\n"
                    "[experiment]\nreplicas = 2\n"
                    "[schedule]\nn_start = 4\nn_end = 25\n")
        out = tmp_path / "outD"
        code = main(["--config", cfg, "--out", str(out), "diagnose"])
        assert code == 0
        assert (out / "diagnostics.jsonl").exists()
        assert (out / "diagnostics.txt").exists()

    def test_diagnose_assert_fails_a_lone_replica_far_from_the_fixed_point(self, tmp_path,
                                                                           capsys):
        # the schema's one replica must itself end within W2 0.1 of the
        # fixed point; at t = 30 it does not, as with two replicas
        cfg = write(tmp_path / "d.cfg", "[sim]\nt_end = 30.0\n")
        for replicas in ("1", "2"):
            out = tmp_path / f"o{replicas}"
            assert main(["--config", cfg, "--out", str(out), "--replicas", replicas,
                         "--assert", "diagnose"]) == 1
            assert "[FAIL] final w2 <= 0.1 for >= 1 replicas" in capsys.readouterr().out

    @pytest.mark.parametrize("t_end, reports", [
        (96.2, ["ergodicity"]),
        (96.2345, ["ergodicity"]),
        (96.24, ["ergodicity", "one-step-error", "center-convergence"]),
    ])
    def test_diagnose_checks_the_schedule_against_the_paths_end(self, tmp_path, t_end,
                                                                reports):
        # the path ends at t_start + dt n_steps: 96.23 for t_end = 96.2345,
        # before T_21 = 96.234, so replica 0's path does not cover the schedule
        cfg = write(tmp_path / "d.cfg", f"[experiment]\nreplicas = 2\n[sim]\nt_end = {t_end}\n"
                    "[schedule]\nn_start = 4\nn_end = 21\n[grid]\ncells = 256\n")
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "diagnose"]) == 0
        lines = map(json.loads, (out / "diagnostics.jsonl").read_text().splitlines())
        assert [line["experiment"] for line in lines if "experiment" in line] == reports

    @pytest.mark.parametrize("command", ["fixpoint", "flow", "diagnose"])
    def test_shifted_w_without_v_has_no_fixed_point(self, tmp_path, capsys, command):
        # its Gibbs map translates every measure by +1: rejected before any
        # iteration, not after max_iter iterations of drift
        text = self.SHIPPED_FLOW.read_text().replace("kind = quadratic-symmetric\n",
                                                     "kind = quadratic-shifted\n")
        assert "kind = quadratic-shifted\n" in text
        cfg = write(tmp_path / "s.cfg", text)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: a quadratic-shifted W without V has no fixed "
                              "point: the Gibbs map translates every measure by +1")
        assert "`appendix2`" in err
