"""The benchmark instruments damflow from outside by patching module and
class attributes (perfbench/spans.py).  Installing and restoring every patch
here makes a refactor that drops or bypasses a patched name fail the test
suite rather than a traced benchmark run."""

import ast
import glob
import importlib
import importlib.util
import os

import numpy as np

import damflow
from damflow import (DamGeometry, EvolutionConfig, PenaltyConfig, ProblemData, build_grid,
                     classify_boundary, cli, evolution, hydrostatic_head, hydrostatic_profile,
                     identity_field, nonlinear, stationary)
from damflow.io import write_solution_csv

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench")
_SPANS = os.path.join(_PERFBENCH, "spans.py")
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _problem():
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 8, 8)
    phi = hydrostatic_head(0.5)
    return grid, identity_field(geom), classify_boundary(grid, phi), phi


# the damflow entry points are looked up at call time, where the patches live


def _stationary():
    grid, field, tags, phi = _problem()
    return damflow.solve_stationary(phi, field, grid, tags, PenaltyConfig(eps=0.1))


def _unsteady(n_steps):
    grid, field, tags, phi = _problem()
    prof = hydrostatic_profile(0.5, grid)
    data = ProblemData(alpha=0.3, T_final=0.1 * n_steps, eps0=0.1, phi=phi,
                       u0=prof.u, chi0=prof.chi)
    config = EvolutionConfig(dt=0.1, n_steps=n_steps, penalty=PenaltyConfig(eps=0.1, alpha=0.3))
    return damflow.solve_unsteady(data, field, grid, tags, config)


def test_span_recorder_patches_and_restores_every_binding():
    rec = spans.SpanRecorder()
    patcher = spans.instrument(rec)
    saved = list(patcher._saved)
    try:
        _stationary()
        _unsteady(2)
    finally:
        patcher.restore()
    assert saved
    assert all(getattr(obj, attr) is old for obj, attr, old in saved)

    names = [span[0] for span in rec.spans]
    for name in ("stationary.solve", "evolution.step", "nonlinear.solve", "nonlinear.residual",
                 "nonlinear.jacobian", "assembly.dirichlet_matrix", "assembly.linsolve"):
        assert name in names, name
    # each solve reaches the nonlinear driver through its own module's binding
    parents = {names[span[3]] for span in rec.spans
               if span[0] == "nonlinear.solve" and span[3] is not None}
    assert parents == {"stationary.solve", "evolution.step"}


TINY_RUN = """
[run]
mode = unsteady

[grid]
nx = 8
ny = 8

[physics]
alpha = 0.3

[data]
phi = hydrostatic
k = 0.5

[penalty]
eps = 0.1

[time]
T = 0.2
dt = 0.1

[output]
dir = run
"""


def test_span_recorder_sees_cli_artifact_round_trip(tmp_path):
    # compare reads no CSV, so the run reads its initial pair from a node dump
    grid, _, _, _ = _problem()
    write_solution_csv(str(tmp_path / "initial.csv"), grid, hydrostatic_profile(0.5, grid))
    config = tmp_path / "run.ini"
    config.write_text(TINY_RUN.replace("k = 0.5",
                                       "k = 0.5\ninitial = csv\ninitial_csv = initial.csv"))
    run_dir = str(tmp_path / "run")
    rec = spans.SpanRecorder()
    patcher = spans.instrument(rec)
    try:
        assert cli.main(["run", str(config)]) == cli.EXIT_OK
        assert cli.main(["compare", run_dir, run_dir,
                         "--out", str(tmp_path / "report.json")]) == cli.EXIT_OK
    finally:
        patcher.restore()

    names = {span[0] for span in rec.spans}
    for name in ("io.csv_write", "io.csv_read", "config.build_problem", "cli.run",
                 "cli.compare"):
        assert name in names, name
    assert rec.counts[rec.run]["io.csv_write.bytes"] > 0
    assert rec.counts[rec.run]["io.csv_read.bytes"] > 0


def test_each_barrier_is_solved_once_per_run_and_never_by_compare(tmp_path):
    barrier_run = TINY_RUN.replace("phi = hydrostatic\nk = 0.5",
                                   "phi = barrier-upper\neps0 = 0.2\ninitial = stationary-upper")
    configs = {}
    for mode in ("certify", "unsteady"):
        configs[mode] = tmp_path / f"{mode}.ini"
        configs[mode].write_text(barrier_run.replace("mode = unsteady", f"mode = {mode}")
                                 .replace("dir = run", f"dir = {mode}"))
    rec = spans.SpanRecorder()
    patcher = spans.instrument(rec)

    def solves(argv):
        start = len(rec.spans)
        assert cli.main(argv) == cli.EXIT_OK
        return sum(span[0] == "stationary.solve" for span in rec.spans[start:])

    try:
        # the upper barrier is the initial data and the projection barrier of
        # both the Newton and the Picard trajectory
        assert solves(["run", str(configs["certify"])]) == 1
        assert solves(["run", str(configs["unsteady"])]) == 1
        run_dir = str(tmp_path / "unsteady")
        assert solves(["compare", run_dir, run_dir,
                       "--out", str(tmp_path / "report.json")]) == 0
    finally:
        patcher.restore()


def test_step_clock_times_iterations_and_steps():
    clock = spans.StepClock(per_iteration=True)
    patcher = clock.install()
    try:
        solve = _stationary()
    finally:
        patcher.restore()
    assert stationary.newton_picard_solve is nonlinear.newton_picard_solve
    assert len(clock.samples_ms) == solve.newton_iters > 0

    clock = spans.StepClock(per_iteration=False)
    step = evolution.step
    patcher = clock.install()
    try:
        _unsteady(3)
    finally:
        patcher.restore()
    assert evolution.step is step
    assert len(clock.samples_ms) == 3
    assert np.all(np.isfinite(clock.samples_ms))


def _damflow_names(tree):
    """Dotted damflow names a module uses: ``damflow.a.b`` attribute chains
    and ``from damflow.x import y`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "damflow":
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "damflow":
                yield ".".join(["damflow"] + parts[::-1])


def _resolves(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:k + 1]))
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


def test_every_damflow_name_the_benchmark_uses_resolves():
    # the suite never imports perfbench/workloads.py, so a deleted export it
    # calls would otherwise fail only the benchmark run
    used = set()
    for path in glob.glob(os.path.join(_PERFBENCH, "*.py")):
        with open(path) as fh:
            used |= set(_damflow_names(ast.parse(fh.read(), path)))
    assert "damflow.solve_unsteady" in used and "damflow.assembly.Q1Assembler" in used
    assert sorted(name for name in used if not _resolves(name)) == []
