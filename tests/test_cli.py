import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from selfattract.cli import main
from selfattract.config import _SCHEMA, load_config
from selfattract.errors import InvalidInputError
from selfattract.persist import load_measure, write_series_csv
from selfattract import simulate, simulate_ensemble


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
        assert capsys.readouterr().err == "config error: replicas must be positive\n"
        assert not (tmp_path / "o").exists()

    def test_empty_out_flag_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # an empty --out is rejected, not read as "take the file's out"
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "o.cfg", "[experiment]\nout = fromfile\n")
        assert main(["--config", cfg, "--out", "", "simulate"]) == 2
        assert capsys.readouterr().err == "config error: --out needs a directory name\n"
        assert not (tmp_path / "fromfile").exists()

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
        # a knob deleted from one of the two must not linger in the other
        text = (Path(__file__).resolve().parents[1] / "config-schema.txt").read_text()
        declared: dict[str, set] = {}
        section = None
        for line in text.splitlines():
            head = re.match(r"\[(\w+)\]", line)
            key = re.match(r"(\w+)\s*=", line)
            if head:
                section = head.group(1)
                declared[section] = set()
            elif key:
                declared[section].add(key.group(1))
        assert declared == {name: set(keys) for name, keys in _SCHEMA.items()}


class TestCommands:
    def test_fixpoint_produces_gaussian_density(self, tmp_path):
        cfg = write(tmp_path / "f.cfg", FIXPOINT_CFG)
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out", str(out), "fixpoint"])
        assert code == 0
        dens = load_measure(out / "density.csv")
        xs = dens.axis_centers(0)
        target = np.exp(-xs ** 2 / 2) / math.sqrt(2 * math.pi)
        assert np.abs(dens.values - target).max() <= 1e-3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fixpoint"
        assert (out / "convergence.csv").exists()

    def test_certify_fails_for_pure_quartic(self, tmp_path, capsys):
        cfg = write(tmp_path / "q.cfg",
                    "[potential]\nkind = even-polynomial\ncoefficients = 0.0 0.25\n")
        code = main(["--config", cfg, "certify"])
        assert code == 1
        assert "uniform-convexity" in capsys.readouterr().out

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
        # replicas started at t = 0 each run through their own bootstrap;
        # each CSV path is the thinned single-replica path, digit for digit
        cfg = write(tmp_path / "z.cfg",
                    "[sim]\ndt = 0.01\nt_start = 0.0\nt_end = 5.0\nseed = 3\n"
                    "[experiment]\nreplicas = 2\n")
        out = tmp_path / "oz"
        assert main(["--config", cfg, "--out", str(out), "simulate"]) == 0
        loaded = load_config(cfg)
        for r in range(2):
            rec = simulate(loaded.potential, loaded.init_position, loaded.sim, replica=r)
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
        rec = simulate_ensemble(loaded.potential, loaded.init_position, loaded.sim, 3)[0]
        thin = max(1, rec.times.size // 2000)
        want = np.column_stack((rec.times, rec.positions, rec.center_track))[::thin]
        got = np.loadtxt(out / "path_r0.csv", delimiter=",", skiprows=1)
        assert thin == 2 and np.array_equal(got, want)

    def test_simulate_from_time_zero_without_interaction(self, tmp_path):
        cfg = write(tmp_path / "z.cfg",
                    "[potential]\nkind = even-polynomial\ncoefficients = 0\n"
                    "[sim]\nt_start = 0.0\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "oz"), "simulate"]) == 0

    def test_too_short_run_from_time_zero_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.cfg", "[sim]\nt_start = 0.0\nt_end = 0.03\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "os"), "simulate"]) == 2
        assert "t = 0 bootstrap" in capsys.readouterr().err

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
        assert header == "step,entropy,interaction,total,relative"

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
