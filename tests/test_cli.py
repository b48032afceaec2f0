"""Config parsing, engine dispatch, artifacts, and exit codes."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from epilim import cli


def _write(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _sir_doc(outdir, **over):
    doc = {
        "engine": "fluid",
        "model": {"kind": "SIR", "lam": 1.5, "i0": 0.05,
                  "f": {"family": "Exponential", "params": [1.0]}},
        "grid": {"horizon": 2.0, "dt": 0.1},
        "output": {"directory": outdir},
    }
    doc.update(over)
    return doc


def test_fluid_engine_artifacts(tmp_path):
    out = str(tmp_path / "run")
    path = _write(tmp_path, _sir_doc(out, probes=[0.5, 1.0]))
    assert cli.run(path) == 0
    csv_bytes = (tmp_path / "run" / "fluid.csv").read_bytes()
    assert b"\r" not in csv_bytes  # LF line endings
    header = csv_bytes.split(b"\n", 1)[0]
    assert header == b"t,Sbar,Ebar,Ibar,Rbar,Abar,Lbar"
    assert csv_bytes.count(b"\n") == 22  # header + 21 nodes
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["engine"] == "fluid"
    assert manifest["artifacts"] == ["fluid.csv"]
    assert len(manifest["config_sha256"]) == 64
    assert {"python", "numpy", "scipy", "epilim"} <= set(manifest["versions"])
    probes = manifest["report"]["probes"]
    assert probes[0]["t"] == 0.5
    assert probes[0]["Sbar"] + probes[0]["Ibar"] + probes[0]["Rbar"] == \
        pytest.approx(1.0, abs=1e-9)


def test_probe_at_the_rounded_up_last_node(tmp_path, capsys):
    # horizon 1.06 at dt 0.1 is rounded to 11 steps: the grid ends at 1.1
    out = tmp_path / "run"
    doc = _sir_doc(str(out), grid={"horizon": 1.06, "dt": 0.1}, probes=[1.1])
    assert cli.run(_write(tmp_path, doc)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["report"]["probes"][0]["t"] == 1.1
    doc = _sir_doc(str(tmp_path / "b"), grid={"horizon": 1.06, "dt": 0.1}, probes=[1.2])
    assert cli.run(_write(tmp_path, doc, "b.json")) == 1
    assert "probes[0]" in capsys.readouterr().err


def test_unknown_keys_name_the_path(tmp_path, capsys):
    doc = _sir_doc(str(tmp_path / "a"))
    doc["model"]["lamda"] = 2.0
    del doc["model"]["lam"]
    assert cli.run(_write(tmp_path, doc)) == 1
    assert "model.lamda" in capsys.readouterr().err

    doc = _sir_doc(str(tmp_path / "b"))
    doc["model"]["f"] = {"family": "Exponential", "params": [1.0], "x": 1}
    assert cli.run(_write(tmp_path, doc, "b.json")) == 1
    assert "model.f.x" in capsys.readouterr().err

    doc = _sir_doc(str(tmp_path / "c"))
    doc["grit"] = {}
    assert cli.run(_write(tmp_path, doc, "c.json")) == 1
    assert "'grit'" in capsys.readouterr().err


def test_field_validation_messages(tmp_path, capsys):
    doc = _sir_doc(str(tmp_path / "a"))
    doc["grid"]["dt"] = 0.0
    assert cli.run(_write(tmp_path, doc)) == 1
    assert "grid.dt" in capsys.readouterr().err

    doc = _sir_doc(str(tmp_path / "b"))
    doc["model"]["f"] = {"family": "Exponentail", "params": [1.0]}
    assert cli.run(_write(tmp_path, doc, "b.json")) == 1
    err = capsys.readouterr().err
    assert "model.f" in err and "Exponentail" in err

    doc = _sir_doc(str(tmp_path / "c"), probes=[0.33])
    assert cli.run(_write(tmp_path, doc, "c.json")) == 1
    assert "probes[0]" in capsys.readouterr().err

    doc = _sir_doc(str(tmp_path / "d"))
    doc["engine"] = "simulate"
    assert cli.run(_write(tmp_path, doc, "d.json"), engine="fluid") == 1
    assert "does not match" in capsys.readouterr().err

    assert cli.run(str(tmp_path / "missing.json")) == 1
    assert "config error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(str(bad)) == 1
    assert "JSON" in capsys.readouterr().err


def test_simulate_engine_and_determinism(tmp_path):
    doc = {
        "engine": "simulate",
        "model": {"kind": "SIS", "lam": 2.0, "i0": 0.3,
                  "f": {"family": "LogNormal", "params": [-0.125, 0.5]},
                  "f0": {"equilibrium_of":
                         {"family": "LogNormal", "params": [-0.125, 0.5]}}},
        "grid": {"horizon": 1.0, "dt": 0.25},
        "ensemble": {"n": 300, "reps": 3, "master_seed": 9},
        "output": {"directory": str(tmp_path / "one")},
        "probes": [0.5, 1.0],
    }
    assert cli.run(_write(tmp_path, doc)) == 0
    names = sorted(os.listdir(tmp_path / "one"))
    assert names == ["manifest.json", "sim_0000.csv", "sim_0001.csv",
                     "sim_0002.csv", "stats.json"]
    rows = (tmp_path / "one" / "sim_0000.csv").read_text().splitlines()
    assert rows[0] == "t,S,E,I,R,A,L"
    first = rows[1].split(",")
    assert first[0] == "0.0" and int(first[1]) + int(first[3]) == 300
    stats = json.loads((tmp_path / "one" / "stats.json").read_text())
    assert stats["reps"] == 3 and len(stats["cov"]) == 2

    # same config and seed into a second directory: byte-identical CSVs
    doc["output"]["directory"] = str(tmp_path / "two")
    assert cli.run(_write(tmp_path, doc, "again.json")) == 0
    for name in names:
        if name.endswith(".csv"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()
    m1 = json.loads((tmp_path / "one" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "two" / "manifest.json").read_text())
    assert m1["config_sha256"] == m2["config_sha256"]


def _write_csv_by_rows(path, header, columns):
    # reference: one csv.writer row per grid node, each cell formatted alone
    def fmt(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([fmt(v) for v in row])


def test_csv_bytes_match_row_writer(tmp_path):
    rng = np.random.default_rng(4)
    n = 2503  # three blocks, the last one partial
    special = [-0.0, 0.0, 1e-300, 5e-324, 2.5e-310, np.inf, -np.inf, np.nan,
               1.0 / 3.0, 1e16, 123456789.0, -2.0**-1074]
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[: len(special)] = special
    counts = rng.integers(-10**15, 10**15, n)
    columns = (np.linspace(0.0, 25.0, n), counts, floats,
               (counts % 1000).astype(np.int32),
               rng.standard_normal(n).astype(np.float32))
    header = ("t", "S", "E", "I", "R")
    cli._write_csv(str(tmp_path / "blocks.csv"), header, columns)
    _write_csv_by_rows(str(tmp_path / "rows.csv"), header, columns)
    got = (tmp_path / "blocks.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    assert got.count(b"\n") == n + 1 and b",-0.0," in got and b",nan," in got

    # repeated and constant columns are formatted once per block, but only
    # bitwise copies share strings: not -0.0 and 0.0, nor 0 and 0.0
    near = floats.copy()
    near[0] = 0.0  # floats[0] is -0.0
    mixed = np.zeros(n)
    mixed[2100:] = -0.0  # constant in two blocks, not in the last
    stacked = np.column_stack([floats, counts])  # strided column views
    columns = (np.linspace(0.0, 25.0, n), floats, floats.copy(), stacked[:, 0], near,
               np.zeros(n), np.full(n, -0.0), mixed, np.zeros(n, dtype=np.int64),
               np.zeros(n, dtype=np.float32), np.full(n, np.nan), counts, stacked[:, 1])
    header = tuple(f"c{j}" for j in range(len(columns)))
    cli._write_csv(str(tmp_path / "blocks2.csv"), header, columns)
    _write_csv_by_rows(str(tmp_path / "rows2.csv"), header, columns)
    got = (tmp_path / "blocks2.csv").read_bytes()
    assert got == (tmp_path / "rows2.csv").read_bytes()
    assert b",0.0,-0.0,0.0,0,0.0,nan," in got and b",0.0,-0.0,-0.0,0,0.0,nan," in got


def test_output_directory_guard_and_env_override(tmp_path, monkeypatch):
    out = str(tmp_path / "run")
    path = _write(tmp_path, _sir_doc(out))
    assert cli.run(path) == 0
    assert cli.run(path) == 1  # refuses to reuse without force
    assert cli.run(path, force=True) == 0

    moved = str(tmp_path / "elsewhere")
    monkeypatch.setenv("EPILIM_OUTDIR", moved)
    assert cli.run(path) == 0
    assert (tmp_path / "elsewhere" / "fluid.csv").exists()


def test_thread_cap_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("EPILIM_THREADS", "2")
    assert cli._resolve_threads(None) == 2
    assert cli._resolve_threads(4) == 4  # flag beats env
    monkeypatch.setenv("EPILIM_THREADS", "zero")
    with pytest.raises(cli.ConfigError, match="EPILIM_THREADS"):
        cli._resolve_threads(None)
    with pytest.raises(cli.ConfigError, match="thread cap"):
        cli._resolve_threads(0)


def test_verify_engine_markovian_sir(tmp_path):
    doc = _sir_doc(str(tmp_path / "run"), engine="verify")
    doc["grid"] = {"horizon": 5.0, "dt": 0.01}
    assert cli.run(_write(tmp_path, doc)) == 0
    rep = json.loads((tmp_path / "run" / "report.json").read_text())
    assert rep["passed"] is True
    assert rep["max_sup_error"] < 1e-4


def test_verify_engine_rejects_non_markovian(tmp_path, capsys):
    doc = _sir_doc(str(tmp_path / "run"), engine="verify")
    doc["model"]["f"] = {"family": "Uniform", "params": [0.5, 1.5]}
    assert cli.run(_write(tmp_path, doc)) == 1
    assert "exponential" in capsys.readouterr().err


_EXP = {"family": "Exponential", "params": [1.0]}


@pytest.mark.parametrize("model", [
    {"kind": "SIR", "lam": 1.5, "i0": 0.05, "f": _EXP,
     "f0": {"family": "Exponential", "params": [2.0]}},
    {"kind": "SEIR", "lam": 1.5, "i0": 0.05, "e0": 0.05, "h": {"g": _EXP, "f": _EXP},
     "f0": {"family": "Gamma", "params": [2.0, 2.0]}},
    {"kind": "SIRS", "lam": 1.5, "i0": 0.05, "r0": 0.1, "h": {"g": _EXP, "f": _EXP},
     "f0": {"family": "Uniform", "params": [0.0, 4.0]}},
])
def test_verify_engine_rejects_initial_laws_the_ode_lacks(tmp_path, capsys, model):
    # the ODE holds only where each initial pool's law is a new infection's
    # remaining stages: any other f0 is a validation error, not a check failure
    doc = _sir_doc(str(tmp_path / "run"), engine="verify", model=model)
    doc["grid"] = {"horizon": 5.0, "dt": 0.01}
    assert cli.run(_write(tmp_path, doc)) == 1
    assert "f0 = Exponential(1)" in capsys.readouterr().err


def test_equilibrium_engine_sirs(tmp_path):
    doc = {
        "engine": "equilibrium",
        "model": {"kind": "SIRS", "lam": 3.0, "i0": 0.1,
                  "h": {"g": {"family": "Exponential", "params": [1.0]},
                        "f": {"family": "Exponential", "params": [2.0]}}},
        "grid": {"horizon": 40.0, "dt": 0.002},
        "output": {"directory": str(tmp_path / "run")},
    }
    assert cli.run(_write(tmp_path, doc)) == 0
    rep = json.loads((tmp_path / "run" / "equilibrium.json").read_text())
    assert rep["passed"] is True
    assert rep["S*"] == pytest.approx(1 / 3, abs=1e-12)
    assert rep["I*"] == pytest.approx(4 / 9, abs=1e-12)


def test_fclt_engine_probe_covariance(tmp_path):
    doc = {
        "engine": "fclt",
        "model": {"kind": "SIR", "lam": 1.5, "i0": 0.05,
                  "f": {"family": "Exponential", "params": [1.0]}},
        "grid": {"horizon": 1.0, "dt": 0.1},
        "ensemble": {"reps": 300, "master_seed": 3},
        "output": {"directory": str(tmp_path / "run")},
        "probes": [0.5, 1.0],
    }
    assert cli.run(_write(tmp_path, doc)) == 0
    rows = (tmp_path / "run" / "fclt.csv").read_text().splitlines()
    assert rows[0] == "t,var_Shat,var_Ehat,var_Ihat,var_Rhat"
    assert len(rows) == 12
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    c = np.asarray(manifest["report"]["cov_Ihat"])
    assert c.shape == (2, 2)
    assert c[0, 1] == pytest.approx(c[1, 0], abs=1e-15)
    assert c[0, 0] > 0 and c[1, 1] > 0

    doc["ensemble"]["reps"] = 1
    doc["output"]["directory"] = str(tmp_path / "run2")
    assert cli.run(_write(tmp_path, doc, "b.json")) == 1


def test_rate_engine_requires_size_list(tmp_path, capsys):
    doc = _sir_doc(str(tmp_path / "run"), engine="rate")
    doc["grid"] = {"horizon": 1.0, "dt": 0.1}
    doc["ensemble"] = {"n": 500, "reps": 2}
    assert cli.run(_write(tmp_path, doc)) == 1
    assert "list" in capsys.readouterr().err
    # too narrow a size span is a validation error from the fit contract
    doc["ensemble"] = {"n": [100, 200, 400], "reps": 2}
    assert cli.run(_write(tmp_path, doc, "b.json")) == 1
    assert "decades" in capsys.readouterr().err


def test_numerical_failure_maps_to_exit_2(tmp_path, monkeypatch):
    def boom(spec, grid):
        raise RuntimeError("synthetic solver breakdown")

    monkeypatch.setattr(cli, "solve_fluid", boom)
    path = _write(tmp_path, _sir_doc(str(tmp_path / "run")))
    assert cli.run(path) == 2


def test_describe_output_and_main():
    for kind in ("SIS", "SIR", "SIRS", "SEIR"):
        text = cli.describe(kind)
        assert "Required laws" in text
    assert "Sbar(t) + Ibar(t) = 1" in cli.describe("SIS")
    assert "Rbar(t)" in cli.describe("SIR")
    # Phi/Psi follow KernelTable: psi is "in stage 2 at t", phi "past both"
    seir, sirs = cli.describe("SEIR"), cli.describe("SIRS")
    assert "Phi(t) = P(xi + eta <= t)         recovered by t" in seir
    assert "Psi(t) = P(xi <= t < xi + eta)    exposed at 0, infectious at t" in seir
    assert "Ebar(0) Psi0(t)" in seir and "int_0^t Psi(t-s)" in seir
    assert "Phi(t) = P(eta + chi <= t)        back in S by t" in sirs
    assert "Psi(t) = P(eta <= t < eta + chi)  infectious at 0, immune at t" in sirs
    assert "Ibar(0) Psi0(t)" in sirs and "int_0^t Psi(t-s)" in sirs
    with pytest.raises(ValueError, match="unknown kind"):
        cli.describe("SEIRS")
    assert cli.main(["describe", "SIR"]) == 0
    assert cli.main(["describe", "nope"]) == 1


def test_main_runs_subcommand(tmp_path, capsys):
    path = _write(tmp_path, _sir_doc(str(tmp_path / "run")))
    assert cli.main(["fluid", path]) == 0
    # engine comes from the subcommand when the config omits it
    doc = _sir_doc(str(tmp_path / "run2"))
    del doc["engine"]
    assert cli.main(["fluid", _write(tmp_path, doc, "b.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "x.json"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_import_leaves_scipy_stats_unloaded():
    # the laws call scipy.special directly; scipy.stats would add most of a
    # second to every run's set-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, epilim, epilim.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_import_leaves_fft_and_process_pool_unloaded():
    # the FFT length search is local, and only a multi-worker ensemble
    # imports the process pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, epilim, epilim.cli; "
            "print([m in sys.modules for m in ('scipy.fft', 'concurrent.futures.process')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[False, False]"
