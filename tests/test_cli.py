import configparser
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from damflow import (DamGeometry, IncompatibleRuns, NonConvergence, build_grid, cli,
                     constant_anisotropic_field, hydrostatic_profile, layered_field,
                     solve_stationary, validate_assumptions)
from damflow.config import load_config, pose_problem
from damflow.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK,
                         EXIT_SOLVER, EXIT_VALIDATION, main)
from damflow.io import read_json, write_solution_csv
from damflow.problem_data import load_solution_csv

STATIONARY = """
[run]
mode = stationary

[geometry]
L = 1.0
K = 1.0

[grid]
nx = 16
ny = 16

[data]
phi = hydrostatic
k = 0.5

[penalty]
eps = 3e-2

[output]
dir = {out}
"""

UNSTEADY = """
[run]
mode = unsteady

[geometry]
L = 1.0
K = 1.0

[grid]
nx = 16
ny = 16

[physics]
alpha = 0.3

[data]
phi = barrier-lower
eps0 = 0.2
initial = stationary-lower

[penalty]
eps = 5e-2

[time]
T = 0.04
dt = 0.02

[output]
dir = {out}
"""

# the classical dam: no [data] k, initial or eps0, which a stationary run
# never reads
TWO_RESERVOIR = """
[geometry]
L = 2.0
K = 1.0

[grid]
nx = 32
ny = 16

[data]
phi = two-reservoir
h_left = 0.9
h_right = 0.2

[penalty]
eps = {eps}

[output]
dir = {{out}}
"""


def _config(tmp_path, template, name="run.ini", outname="out"):
    path = tmp_path / name
    path.write_text(template.format(out=outname))
    return str(path), str(tmp_path / outname)


def test_validate_ok(tmp_path, capsys):
    cfg, _ = _config(tmp_path, STATIONARY)
    assert main(["validate", cfg]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] and report["mode"] == "stationary"


def test_validate_bad_config_exit_2(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nmode = nosuchmode\n")
    assert main(["validate", str(path)]) == EXIT_CONFIG


def test_module_entry_point_sets_the_process_exit_status(tmp_path):
    good, _ = _config(tmp_path, STATIONARY)
    unknown, _ = _config(tmp_path, STATIONARY + "\n[physics]\nbeta = 1\n", name="unknown.ini")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for cfg, code in ((good, EXIT_OK), (unknown, EXIT_CONFIG)):
        proc = subprocess.run([sys.executable, "-m", "damflow.cli", "validate", cfg], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
    assert "physics.beta" in proc.stderr


def test_validate_lone_percent_exit_2(tmp_path, capsys):
    # configparser interpolates values, and a lone "%" is a syntax error
    cfg, _ = _config(tmp_path, STATIONARY, outname="a%b")
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("section, key, value", [
    ("grid", "nx", "abc"), ("grid", "nx", "8.0"), ("time", "T", "abc"), ("time", "T", "inf"),
    ("time", "T", "1e308"), ("time", "T", "-1"), ("time", "T", "0"), ("time", "T", "0.001"),
    ("time", "dt", "0"), ("time", "dt", "inf"), ("physics", "alpha", "x"),
    ("penalty", "eps", "nan"), ("solver", "tol_newton", "x"), ("solver", "tol_newton", "-1"),
    ("output", "every_n_steps", "x"), ("output", "every_n_steps", "0"),
    ("output", "every_n_steps", "-1"), ("data", "project", "maybe"), ("data", "M", "0.1"),
    ("penalty", "epsilon", "1e-9"), ("solver", "tol_newtonn", "-1"),
    # values a stationary run never reads are parsed all the same
    ("permeability", "a12", "x"), ("data", "h_left", "x"), ("data", "initial", "fractal"),
    ("permeability", "kind", "fractal"), ("solver", "method", "secant"), ("run", "mode", "banana")])
def test_validate_bad_value_exit_2_naming_the_key(tmp_path, capsys, section, key, value):
    parser = configparser.ConfigParser()
    parser.read_string(STATIONARY.format(out="out"))
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    path = tmp_path / "run.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    # configparser lowercases keys
    assert f"{section}.{key.lower()}" in capsys.readouterr().err


@pytest.mark.parametrize("template, old, new, key", [
    (STATIONARY, "[data]", "[permeability]\nkind = csv\ncsv = missing.csv\n\n[data]",
     "permeability.csv"),
    (UNSTEADY, "initial = stationary-lower", "initial = csv\ninitial_csv = missing.csv",
     "data.initial_csv")])
def test_csv_key_naming_no_file_exit_2(tmp_path, capsys, template, old, new, key):
    cfg, _ = _config(tmp_path, template.replace(old, new))
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert f"{key} names no file" in capsys.readouterr().err


@pytest.mark.parametrize("permeability, make_field", [
    ("kind = layered\na11 = 2.0\na22_base = 1.0\na22_slope = 0.5",
     lambda geometry: layered_field(2.0, 1.0, 0.5, geometry)),
    ("kind = Constant\na11 = 2.0\na12 = 0.25\na22 = 3.0",
     lambda geometry: constant_anisotropic_field(2.0, 0.25, 3.0, geometry))])
def test_validate_reports_the_configured_field(tmp_path, capsys, permeability, make_field):
    cfg, _ = _config(tmp_path, STATIONARY + f"\n[permeability]\n{permeability}\n")
    assert main(["validate", cfg]) == EXIT_OK
    geometry = DamGeometry(1.0, 1.0)
    expected = validate_assumptions(make_field(geometry), build_grid(geometry, 16, 16))
    assert json.loads(capsys.readouterr().out)["assumptions"] == dataclasses.asdict(expected)


def test_validation_failure_exit_3(tmp_path):
    # negative compressibility passes parsing but fails object validation
    cfg, _ = _config(tmp_path, STATIONARY + "\n[physics]\nalpha = -1.0\n")
    assert main(["validate", cfg]) == EXIT_VALIDATION


def test_stationary_run_artifacts_and_determinism(tmp_path):
    cfg, out = _config(tmp_path, STATIONARY)
    assert main(["run", cfg]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "solution.csv"))
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["complete"] and not summary["failures"]
    first = Path(out, "solution.csv").read_bytes()

    cfg2, out2 = _config(tmp_path, STATIONARY, name="run2.ini", outname="out2")
    assert main(["run", cfg2]) == EXIT_OK
    assert Path(out2, "solution.csv").read_bytes() == first


def test_two_reservoir_run_reports_its_stationary_solve(tmp_path):
    cfg, out = _config(tmp_path, TWO_RESERVOIR.format(eps=3e-2))
    assert main(["validate", cfg]) == EXIT_OK
    assert main(["run", cfg]) == EXIT_OK
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["clamped_nodes"] > 0
    assert summary["continuation_steps"] > 1
    assert {"newton_iters", "method", "krylov_iters", "line_search_failures"} <= set(summary)


def test_contact_rounds_that_run_out_exit_4(tmp_path):
    # at 32x16 and eps = 1e-2 the contact set keeps changing for all rounds;
    # the fall-through used to return that solution with exit 0
    cfg, out = _config(tmp_path, TWO_RESERVOIR.format(eps=1e-2))
    p = pose_problem(load_config(cfg))
    with pytest.raises(NonConvergence, match="contact rounds"):
        solve_stationary(p.phi, p.field, p.grid, p.tags, p.evolution.penalty)
    assert main(["run", cfg]) == EXIT_SOLVER
    assert not os.path.exists(os.path.join(out, "summary.json"))


def test_unsteady_run_writes_snapshots(tmp_path):
    cfg, out = _config(tmp_path, UNSTEADY)
    assert main(["run", cfg]) == EXIT_OK
    traj = read_json(os.path.join(out, "trajectory.json"))
    assert len(traj["snapshots"]) == 3
    assert all(os.path.exists(os.path.join(out, s["file"])) for s in traj["snapshots"])
    assert [d["linear_fallbacks"] for d in traj["diagnostics"]] == [0, 0]
    assert [d["line_search_failures"] for d in traj["diagnostics"]] == [0, 0]
    assert all(d["initial_residual_norm"] >= d["residual_norm"] for d in traj["diagnostics"])
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["mass_balance_worst"] <= 1e-10


def test_unsteady_mass_imbalance_fails_the_run(tmp_path, monkeypatch):
    solve_unsteady = cli.solve_unsteady

    def leaky(*args, **kwargs):
        traj = solve_unsteady(*args, **kwargs)
        traj.diagnostics[0].mass_balance_rel = 1e-6
        return traj

    monkeypatch.setattr(cli, "solve_unsteady", leaky)
    cfg, out = _config(tmp_path, UNSTEADY)
    assert main(["run", cfg]) == EXIT_CHECK_FAILED
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["mass_balance_worst"] == 1e-6
    assert any("mass balance" in f for f in summary["failures"])


def test_out_override(tmp_path):
    cfg, _ = _config(tmp_path, STATIONARY)
    override = tmp_path / "cli_out"
    assert main(["run", cfg, "--out", str(override)]) == EXIT_OK
    assert (override / "out" / "solution.csv").exists()


def test_solver_failure_exit_4(tmp_path):
    # a penalty ramp far below the grid scale drives the time stepper into
    # undershoot that no dt halving cures
    text = UNSTEADY.replace("eps = 5e-2", "eps = 2e-3") \
                   .replace("initial = stationary-lower", "initial = midpoint")
    cfg, _ = _config(tmp_path, text)
    assert main(["run", cfg]) == EXIT_SOLVER


def test_compare_identical_runs_pass(tmp_path):
    cfg, out = _config(tmp_path, UNSTEADY)
    assert main(["run", cfg]) == EXIT_OK
    cfg2, out2 = _config(tmp_path, UNSTEADY, name="run2.ini", outname="out2")
    assert main(["run", cfg2]) == EXIT_OK
    report_path = str(tmp_path / "cmp.json")
    assert main(["compare", out, out2, "--out", report_path]) == EXIT_OK
    report = read_json(report_path)
    assert report["passed"]
    assert report["sign_min"] >= 0.0


def test_compare_runs_at_other_times_exit_3(tmp_path):
    cfg, out = _config(tmp_path, UNSTEADY)
    cfg2, out2 = _config(tmp_path, UNSTEADY.replace("T = 0.04", "T = 0.02"), name="run2.ini",
                         outname="out2")
    assert main(["run", cfg]) == EXIT_OK and main(["run", cfg2]) == EXIT_OK
    report_path = tmp_path / "cmp.json"
    assert main(["compare", out, out2, "--out", str(report_path)]) == EXIT_VALIDATION
    with pytest.raises(IncompatibleRuns) as info:
        cli.cmd_compare(out, out2, str(report_path))
    assert info.value.mismatched_keys == ["times"]
    assert not report_path.exists()


def _refused_pair(tmp_path, text_b):
    """Run UNSTEADY and ``text_b``, compare them in both orders, and return
    the keys each order refuses on."""
    cfg, out = _config(tmp_path, UNSTEADY)
    cfg2, out2 = _config(tmp_path, text_b, name="run2.ini", outname="out2")
    assert main(["run", cfg]) == EXIT_OK and main(["run", cfg2]) == EXIT_OK
    report_path = tmp_path / "cmp.json"
    refused = []
    for dir_a, dir_b in ((out, out2), (out2, out)):
        assert main(["compare", dir_a, dir_b, "--out", str(report_path)]) == EXIT_VALIDATION
        with pytest.raises(IncompatibleRuns) as info:
            cli.cmd_compare(dir_a, dir_b, str(report_path))
        refused.append(info.value.mismatched_keys)
    assert not report_path.exists()
    return refused


def test_compare_runs_at_other_eps_exit_3(tmp_path):
    assert _refused_pair(tmp_path, UNSTEADY.replace("eps = 5e-2", "eps = 0.1")) == [["eps"]] * 2


def test_compare_runs_on_other_fields_exit_3_in_either_order(tmp_path):
    # the monitor evaluates both runs on the first run's field, so without
    # this refusal its verdict could depend on the argument order
    layered = UNSTEADY + "\n[permeability]\nkind = layered\na22_slope = 5.0\n"
    assert _refused_pair(tmp_path, layered) == [["permeability"]] * 2


def test_compare_stored_config_with_a_bad_value_exit_2(tmp_path, capsys):
    cfg, out = _config(tmp_path, UNSTEADY)
    assert main(["run", cfg]) == EXIT_OK
    edited = tmp_path / "edited"
    shutil.copytree(out, edited)
    stored = (edited / "config.ini").read_text()
    (edited / "config.ini").write_text(stored.replace("stationary-lower", "fractal"))
    assert main(["compare", out, str(edited), "--out", str(tmp_path / "cmp.json")]) == EXIT_CONFIG
    assert "data.initial" in capsys.readouterr().err


def test_compare_incomplete_run_exit_3(tmp_path, capsys):
    cfg, out = _config(tmp_path, UNSTEADY)
    assert main(["run", cfg]) == EXIT_OK
    partial = tmp_path / "partial"
    shutil.copytree(out, partial)
    os.remove(partial / "trajectory.npz")
    corrupt = {}
    for name in ("summary.json", "trajectory.json"):
        corrupt[name] = tmp_path / f"corrupt_{name}"
        shutil.copytree(out, corrupt[name])
        (corrupt[name] / name).write_text("{")
    # valid JSON of the wrong shape: no snapshot list, an entry without a time,
    # an empty snapshot list, a summary that is not an object, or a time that
    # is infinite or a boolean
    meta = read_json(os.path.join(out, "trajectory.json"))
    no_snapshots = dict(meta, snapshots=[])

    def with_last_time(time):
        edited = json.loads(json.dumps(meta))
        edited["snapshots"][-1]["time"] = time
        return json.dumps(edited)

    infinite_time, boolean_time = with_last_time(float("inf")), with_last_time(True)
    assert "Infinity" in infinite_time and "true" in boolean_time
    del meta["snapshots"][1]["time"]
    misshapen = []
    for k, (name, text) in enumerate((("trajectory.json", "{}"),
                                      ("trajectory.json", json.dumps(meta)),
                                      ("trajectory.json", json.dumps(no_snapshots)),
                                      ("summary.json", "[]"),
                                      ("trajectory.json", infinite_time),
                                      ("trajectory.json", boolean_time))):
        misshapen.append(tmp_path / f"misshapen_{k}")
        shutil.copytree(out, misshapen[-1])
        (misshapen[-1] / name).write_text(text)
    report_path = str(tmp_path / "cmp.json")
    for other, missing in ((tmp_path / "absent", "summary.json"),
                           (partial, "trajectory.npz"),
                           (corrupt["summary.json"], "summary.json"),
                           (corrupt["trajectory.json"], "trajectory.json"),
                           (misshapen[0], "trajectory.json"),
                           (misshapen[1], "trajectory.json"),
                           (misshapen[2], "trajectory.json"),
                           (misshapen[3], "summary.json"),
                           (misshapen[4], "trajectory.json"),
                           (misshapen[5], "trajectory.json")):
        capsys.readouterr()
        assert main(["compare", out, str(other), "--out", report_path]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert missing in err
    # two runs without snapshots agree on their (empty) times, and a run
    # whose last time is infinite or true agrees with itself
    for run in misshapen[2], misshapen[4], misshapen[5]:
        assert main(["compare", str(run), str(run), "--out", report_path]) == EXIT_VALIDATION
        assert "trajectory.json" in capsys.readouterr().err
    assert not os.path.exists(report_path)


def _npz(**arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _npy(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _with_nan(u):
    u = u.copy()
    u[1, 2, 3] = np.nan
    return u


# each defect of a trajectory store: the bytes to put in place of a valid
# store, given its bytes and its arrays
BAD_STORES = {
    "empty": lambda data, u, chi: b"",
    "truncated": lambda data, u, chi: data[:len(data) // 2],
    "plain_npy": lambda data, u, chi: _npy(u),
    "missing_chi": lambda data, u, chi: _npz(u=u),
    "object_array": lambda data, u, chi: _npz(u=u.astype(object), chi=chi),
    "float32": lambda data, u, chi: _npz(u=u.astype(np.float32), chi=chi),
    "other_grid": lambda data, u, chi: _npz(u=u[:, :-1], chi=chi[:, :-1]),
    "one_snapshot_fewer": lambda data, u, chi: _npz(u=u[:-1], chi=chi[:-1]),
    "one_snapshot_more": lambda data, u, chi: _npz(u=np.concatenate((u, u[-1:])),
                                                   chi=np.concatenate((chi, chi[-1:]))),
    "non_finite": lambda data, u, chi: _npz(u=_with_nan(u), chi=chi),
}


@pytest.mark.parametrize("defect", sorted(BAD_STORES))
def test_compare_bad_trajectory_store_exit_3(tmp_path, capsys, defect):
    cfg, out = _config(tmp_path, UNSTEADY)
    assert main(["run", cfg]) == EXIT_OK
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    store = bad / "trajectory.npz"
    with np.load(store) as arrays:
        u, chi = arrays["u"], arrays["chi"]
    store.write_bytes(BAD_STORES[defect](store.read_bytes(), u, chi))
    report_path = tmp_path / "cmp.json"
    capsys.readouterr()
    for pair in ((out, str(bad)), (str(bad), out)):
        assert main(["compare", *pair, "--out", str(report_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert f"{bad} has a corrupt trajectory.npz" in err
    assert not report_path.exists()


def test_trajectory_store_holds_the_indexed_snapshots_bit_for_bit(tmp_path):
    text = UNSTEADY.replace("T = 0.04", "T = 0.1").replace("dir = {out}",
                                                           "dir = {out}\nevery_n_steps = 2")
    cfg, out = _config(tmp_path, text)
    assert main(["run", cfg]) == EXIT_OK
    entries = read_json(os.path.join(out, "trajectory.json"))["snapshots"]
    assert [e["file"] for e in entries] == [f"snapshot_{k:05d}.csv" for k in (0, 2, 4, 5)]
    grid = pose_problem(load_config(cfg)).grid
    with np.load(os.path.join(out, "trajectory.npz"), allow_pickle=False) as store:
        assert sorted(store.files) == ["chi", "u"]
        u, chi = store["u"], store["chi"]
    assert u.dtype == chi.dtype == np.float64
    assert u.shape == chi.shape == (len(entries), grid.ny + 1, grid.nx + 1)
    for k, entry in enumerate(entries):
        dump = load_solution_csv(os.path.join(out, entry["file"]), grid)
        np.testing.assert_array_equal(u[k].view(np.int64), dump.u.view(np.int64))
        np.testing.assert_array_equal(chi[k].view(np.int64), dump.chi.view(np.int64))


def test_compare_reads_no_snapshot_csv(tmp_path):
    cfg, out = _config(tmp_path, UNSTEADY)
    cfg2, out2 = _config(tmp_path, UNSTEADY, name="run2.ini", outname="out2")
    assert main(["run", cfg]) == EXIT_OK and main(["run", cfg2]) == EXIT_OK
    assert main(["compare", out, out2, "--out", str(tmp_path / "intact.json")]) == EXIT_OK
    stripped = []
    for run in out, out2:
        stripped.append(tmp_path / f"stripped_{os.path.basename(run)}")
        shutil.copytree(run, stripped[-1])
        csvs = sorted(stripped[-1].glob("snapshot_*.csv"))
        assert len(csvs) == 3
        for path in csvs:
            path.unlink()
    assert main(["compare", *map(str, stripped), "--out",
                 str(tmp_path / "stripped.json")]) == EXIT_OK
    assert (tmp_path / "stripped.json").read_bytes() == (tmp_path / "intact.json").read_bytes()


def test_compare_runs_with_relative_csv_paths(tmp_path):
    # the configs name their CSVs relative to themselves (one through an
    # escaped "%"); each run directory's config.ini must still find them
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    grid = build_grid(DamGeometry(1.0, 1.0), 16, 16)
    X1, X2 = grid.coords()
    rows = [f"{x1},{x2},1.0,0.0,2.0" for x1, x2 in zip(X1.ravel(), X2.ravel())]
    (cfg_dir / "perm%1.csv").write_text("\n".join(["x1,x2,a11,a12,a22"] + rows) + "\n")
    write_solution_csv(str(cfg_dir / "init.csv"), grid, hydrostatic_profile(0.5, grid))
    text = UNSTEADY.replace("phi = barrier-lower\neps0 = 0.2\ninitial = stationary-lower",
                            "phi = hydrostatic\nk = 0.5\ninitial = csv\ninitial_csv = init.csv") \
        + "\n[permeability]\nkind = csv\ncsv = perm%%1.csv\n"
    runs = []
    for name in ("a", "b"):
        cfg, out = _config(cfg_dir, text, name=f"{name}.ini", outname=f"out_{name}")
        assert main(["run", cfg]) == EXIT_OK
        stored = Path(out, "config.ini").read_text()
        assert f"csv = {cfg_dir / 'perm%%1.csv'}" in stored
        assert f"initial_csv = {cfg_dir / 'init.csv'}" in stored
        runs.append(out)
    assert main(["compare", *runs, "--out", str(tmp_path / "cmp.json")]) == EXIT_OK


def test_sweep_follows_the_config_mode(tmp_path):
    cfg, out = _config(tmp_path, UNSTEADY.replace("mode = unsteady", "mode = certify"))
    assert main(["sweep", cfg, "--param", "penalty.eps", "--values", "5e-2", "4e-2"]) == EXIT_OK
    summary = read_json(os.path.join(out, "sweep_summary.json"))
    assert len(summary["results"]) == 2
    for r in summary["results"]:
        assert r["exit"] == EXIT_OK and r["complementarity_max"] is None
        assert os.path.exists(os.path.join(r["dir"], "certificate.json"))
        assert read_json(os.path.join(r["dir"], "summary.json"))["mode"] == "certify"


def test_sweep_over_run_mode_runs_each_mode(tmp_path):
    cfg, out = _config(tmp_path, UNSTEADY.replace("mode = unsteady", "mode = stationary"))
    assert main(["sweep", cfg, "--param", "run.mode",
                 "--values", "Unsteady", "stationary"]) == EXIT_OK
    results = read_json(os.path.join(out, "sweep_summary.json"))["results"]
    assert [read_json(os.path.join(r["dir"], "summary.json"))["mode"] for r in results] == [
        "unsteady", "stationary"]


def test_sweep_runs_each_value(tmp_path):
    cfg, out = _config(tmp_path, STATIONARY)
    assert main(["sweep", cfg, "--param", "penalty.eps",
                 "--values", "5e-2", "4e-2", "3e-2"]) == EXIT_OK
    summary = read_json(os.path.join(out, "sweep_summary.json"))
    assert [r["value"] for r in summary["results"]] == ["5e-2", "4e-2", "3e-2"]
    for r in summary["results"]:
        assert r["exit"] == EXIT_OK
        assert os.path.exists(os.path.join(r["dir"], "solution.csv"))


def test_sweep_bad_param_exit_2(tmp_path):
    cfg, _ = _config(tmp_path, STATIONARY)
    assert main(["sweep", cfg, "--param", "noseparator", "--values", "1"]) == EXIT_CONFIG


@pytest.mark.parametrize("param", ["penalty.epsilon", "solvers.method"])
def test_sweep_unknown_param_exit_2_before_any_output(tmp_path, capsys, param):
    cfg, out = _config(tmp_path, STATIONARY)
    assert main(["sweep", cfg, "--param", param, "--values", "1", "2"]) == EXIT_CONFIG
    assert param in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("param, values, code, named", [
    ("penalty.eps", ["5e-2", "x"], EXIT_CONFIG, "penalty.eps"),
    # values that parse but fail when their problem is built
    ("output.every_n_steps", ["2", "0"], EXIT_CONFIG, "output.every_n_steps"),
    ("penalty.eps", ["5e-2", "-1"], EXIT_VALIDATION, "penalty eps")],
    ids=["unparsable", "every_n_steps_below_1", "negative_eps"])
def test_sweep_bad_value_exit_2_before_any_output(tmp_path, capsys, param, values, code, named):
    cfg, out = _config(tmp_path, STATIONARY)
    assert main(["sweep", cfg, "--param", param, "--values", *values]) == code
    assert named in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_sweep_mode_rejected(tmp_path, command):
    cfg, out = _config(tmp_path, UNSTEADY.replace("mode = unsteady", "mode = sweep"))
    extra = ["--param", "penalty.eps", "--values", "5e-2"] if command == "sweep" else []
    assert main([command, cfg, *extra]) == EXIT_CONFIG
    assert not os.path.exists(out)
