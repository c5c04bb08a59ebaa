import os
import re
from pathlib import Path

import numpy as np
import pytest

from damflow import stationary
from damflow.config import (KEYS, ConfigError, build_problem, load_config, output_dir,
                            pose_problem)


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """
[run]
mode = stationary

[geometry]
L = 1.0
K = 1.0

[grid]
nx = 8
ny = 8

[data]
phi = hydrostatic
k = 0.5

[penalty]
eps = 3e-2
"""


def test_missing_file_raises():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini")


def test_unknown_mode_rejected(tmp_path):
    path = _write(tmp_path, "[run]\nmode = banana\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_build_problem_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, BASE))
    problem = build_problem(cfg)
    assert problem.grid.geometry.L == 1.0
    assert problem.grid.nx == 8
    assert problem.evolution.penalty.eps == pytest.approx(3e-2)
    assert problem.evolution.method == "newton"
    # a stationary run builds no initial data; eps0 is posed with its default
    assert problem.data is None
    assert problem.eps0 == pytest.approx(0.1)
    assert problem.assumption_report.div_sign_ok


def test_time_step_must_divide_horizon(tmp_path):
    text = BASE + "\n[time]\nT = 1.0\ndt = 0.3\n"
    cfg = load_config(_write(tmp_path, text))
    with pytest.raises(ConfigError):
        build_problem(cfg)


def test_hydrostatic_head_requires_level(tmp_path):
    text = BASE.replace("k = 0.5\n", "")
    cfg = load_config(_write(tmp_path, text))
    with pytest.raises(ConfigError):
        build_problem(cfg)


def test_barrier_head_preset(tmp_path):
    text = BASE.replace("mode = stationary", "mode = unsteady").replace(
        "phi = hydrostatic\nk = 0.5", "phi = barrier-upper\neps0 = 0.2\ninitial = stationary-upper")
    cfg = load_config(_write(tmp_path, text))
    problem = build_problem(cfg)
    assert problem.phi(0.0, 0.0) == pytest.approx(0.8)
    # the stationary-upper initial pair is an admissible (u, chi) field
    assert np.min(problem.data.u0) >= 0.0
    assert np.max(problem.data.chi0) <= 1.0


def test_tol_newton_reaches_the_barrier_solves(tmp_path, monkeypatch):
    seen = []
    solve_stationary = stationary.solve_stationary

    def spy(*args, **kwargs):
        seen.append(kwargs.get("tol_newton"))
        return solve_stationary(*args, **kwargs)

    monkeypatch.setattr(stationary, "solve_stationary", spy)
    text = BASE.replace("mode = stationary", "mode = unsteady").replace(
        "phi = hydrostatic\nk = 0.5", "phi = barrier-upper\neps0 = 0.2\ninitial = midpoint") \
        + "\n[solver]\ntol_newton = 1e-7\n"
    problem = build_problem(load_config(_write(tmp_path, text)))
    assert seen == [1e-7, 1e-7]
    # both barriers are kept
    assert problem.barrier(1) is problem.barrier(1)
    assert len(seen) == 2


def test_unknown_solver_method_rejected(tmp_path):
    text = BASE + "\n[solver]\nmethod = secant\n"
    cfg = load_config(_write(tmp_path, text))
    with pytest.raises(ConfigError):
        build_problem(cfg)


def test_time_regularization_rejected(tmp_path):
    # no time regularization is implemented, so even reg = 0 is refused
    for reg in ("0.0", "0.5"):
        text = BASE + f"\n[time]\nT = 1.0\ndt = 0.5\nreg = {reg}\n"
        cfg = load_config(_write(tmp_path, text, name=f"reg{reg}.ini"))
        with pytest.raises(ConfigError, match="time.reg"):
            pose_problem(cfg)


@pytest.mark.parametrize("value", ["true", "false"])
def test_data_project_rejected_whatever_its_value(tmp_path, value):
    # the initial data are always clipped under the upper barrier
    cfg = load_config(_write(tmp_path, BASE.replace("k = 0.5\n", f"k = 0.5\nproject = {value}\n")))
    with pytest.raises(ConfigError, match="data.project"):
        pose_problem(cfg)


@pytest.mark.parametrize("extra, name", [
    ("[solvers]\nmethod = picard\n", "solvers.method"),
    ("[Penalty]\neps = 1\n", "Penalty.eps"),
    ("[DEFAULT]\neps = 1\n", "DEFAULT.eps"),
    ("[extras]\n", "[extras]"),
])
def test_unknown_section_rejected(tmp_path, extra, name):
    # unknown keys of known sections: tests/test_cli.py
    cfg = load_config(_write(tmp_path, BASE + extra))
    with pytest.raises(ConfigError, match=re.escape(name)):
        pose_problem(cfg)


def test_readme_schema_table_lists_the_known_keys():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("### Configuration schema (INI)", 1)[1]
    rows = re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", table, flags=re.MULTILINE)
    # a key's allowed values and remarks are parenthesized after it
    documented = {section: tuple(key.lower() for key in re.findall(r"`(\w+)`",
                                                                   re.sub(r"\([^)]*\)", "", keys)))
                  for section, keys in rows}
    assert documented == {section: tuple(keys) for section, keys in KEYS.items()}
    # a choice key's values are listed as (`a`\|`b`), in the order of KEYS
    listed = {f"{section}.{key.lower()}": "one of " + ", ".join(re.findall(r"`([\w-]+)`", values))
              for section, keys in rows
              for key, values in re.findall(r"`(\w+)` \(((?:`[\w-]+`\\\|)+`[\w-]+`)\)", keys)}
    assert listed == {f"{section}.{key}": expected for section, keys in KEYS.items()
                      for key, (_, expected, _) in keys.items() if expected.startswith("one of ")}
    assert len(listed) == 5


def test_unknown_permeability_kind_rejected(tmp_path):
    text = BASE + "\n[permeability]\nkind = fractal\n"
    cfg = load_config(_write(tmp_path, text))
    with pytest.raises(ConfigError):
        build_problem(cfg)


def test_output_dir_resolution(tmp_path):
    text = BASE + "\n[output]\ndir = results\n"
    cfg = load_config(_write(tmp_path, text))
    assert output_dir(cfg, None) == str(tmp_path / "results")
    assert output_dir(cfg, "/override") == os.path.join("/override", "results")
