"""Run orchestration: ``damflow run | compare | validate | sweep``.

Exit codes: 0 all enabled checks pass, 1 check failure, 2 config parse
error, 3 validation failure, 4 solver nonconvergence.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .certify import gronwall_monitor
from .config import (ConfigError, build_problem, load_config, output_dir, pose_problem,
                     resolve_path)
from .errors import DamflowError, IncompatibleRuns, NonConvergence
from .evolution import Trajectory, solve_unsteady
from .io import (atomic_write_text, read_json, read_trajectory_store, snapshot_filename,
                 write_energy_csv, write_json, write_solution_csv, write_trajectory_store)
from .problem_data import SolutionField
# not called here; perfbench/spans.py patches this name on this module
from .problem_data import load_solution_csv  # noqa: F401
from .stationary import solve_stationary

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4

# per-step relative mass imbalance an unsteady run may report
MASS_BALANCE_TOL = 1e-10


def main(argv=None):
    parser = argparse.ArgumentParser(prog="damflow",
                                     description="Penalized dam-problem solver and certifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the pipeline selected by run.mode")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory override")

    p_val = sub.add_parser("validate", help="parse and validate a config, solving the barrier "
                           "problems that the stationary-*/midpoint initial data of an "
                           "unsteady or certify run need")
    p_val.add_argument("config")

    p_cmp = sub.add_parser("compare", help="uniqueness certificate for two run directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.add_argument("--out", default="compare_report.json")

    p_swp = sub.add_parser("sweep", help="re-run a config over a list of parameter values")
    p_swp.add_argument("config")
    p_swp.add_argument("--param", required=True, help="section.key to vary, e.g. penalty.eps")
    p_swp.add_argument("--values", nargs="+", required=True)
    p_swp.add_argument("--out", help="output root override")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.config)
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "compare":
            return cmd_compare(args.dir_a, args.dir_b, args.out)
        return cmd_sweep(args.config, args.param, args.values, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergence as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DamflowError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def cmd_validate(config_path):
    cfg = load_config(config_path)
    problem = build_problem(cfg)
    print(json.dumps({"mode": cfg.mode, "valid": True,
                      "assumptions": dataclasses.asdict(problem.assumption_report)}, indent=2))
    return EXIT_OK


def cmd_run(config_path, out_override):
    cfg = load_config(config_path)
    return _execute(cfg, build_problem(cfg), output_dir(cfg, out_override))[0]


def _execute(cfg, problem, out):
    """Run the pipeline ``[run] mode`` selects on ``cfg``'s built ``problem``
    into ``out`` and write its config.ini and summary.json; returns (exit
    code, summary)."""
    os.makedirs(out, exist_ok=True)
    _write_config_ini(os.path.join(out, "config.ini"), cfg)
    grid = problem.grid
    summary = {"geometry": {"L": grid.geometry.L, "K": grid.geometry.K},
               "grid": {"nx": grid.nx, "ny": grid.ny},
               "alpha": problem.evolution.penalty.alpha,
               "eps": problem.evolution.penalty.eps,
               "assumptions": dataclasses.asdict(problem.assumption_report),
               "mode": cfg.mode, "complete": True, **PIPELINES[cfg.mode](problem, out)}
    write_json(os.path.join(out, "summary.json"), summary)
    return (EXIT_CHECK_FAILED if summary["failures"] else EXIT_OK), summary


def _run_stationary(problem, out):
    ev = problem.evolution
    solve = solve_stationary(problem.phi, problem.field, problem.grid, problem.tags,
                             ev.penalty, tol_newton=ev.tol_newton, method=ev.method)
    write_solution_csv(os.path.join(out, "solution.csv"), problem.grid, solve.solution_field())
    return {"residual_norm": solve.residual_norm, "newton_iters": solve.newton_iters,
            "method": solve.method, **solve.diagnostics, "failures": []}


def _simulate(problem, evolution):
    """Unsteady pipeline shared by run and certify: barrier clip + stepping."""
    return solve_unsteady(problem.data, problem.field, problem.grid, problem.tags, evolution,
                          v1eps=problem.barrier(1))


def _write_trajectory(problem, traj, out):
    """Write every ``every_n_steps``-th snapshot and the last one as a node
    dump, the same snapshots to ``trajectory.npz``, and their index to
    ``trajectory.json``."""
    last = len(traj.snapshots) - 1
    indexed = [idx for idx in range(last + 1) if idx % problem.every_n_steps == 0 or idx == last]
    for idx in indexed:
        write_solution_csv(os.path.join(out, snapshot_filename(idx)), problem.grid,
                           traj.snapshots[idx])
    write_trajectory_store(os.path.join(out, "trajectory.npz"), problem.grid,
                           [traj.snapshots[idx] for idx in indexed])
    written = [{"file": snapshot_filename(idx), "time": traj.snapshots[idx].time}
               for idx in indexed]
    diag = [dataclasses.asdict(d) for d in traj.diagnostics]
    write_json(os.path.join(out, "trajectory.json"),
               {"times": traj.times, "snapshots": written, "diagnostics": diag})
    return diag


def _run_unsteady(problem, out):
    traj = _simulate(problem, problem.evolution)
    diag = _write_trajectory(problem, traj, out)
    # snapshot 0 is exempt: its (u0, chi0) pair is data, not H_eps-coupled
    comp = max(s.complementarity_residual() for s in traj.snapshots[1:])
    failures = []
    bound = problem.evolution.penalty.complementarity_bound + 1e-12
    if comp > bound:
        failures.append(f"complementarity residual {comp} exceeds eps/4 bound {bound}")
    worst_mass = max((d["mass_balance_rel"] for d in diag), default=0.0)
    if worst_mass > MASS_BALANCE_TOL:
        failures.append(f"mass balance {worst_mass} exceeds {MASS_BALANCE_TOL}")
    return {"times": traj.times, "complementarity_max": comp,
            "mass_balance_worst": worst_mass, "failures": failures}


def _run_certify(problem, out):
    """Newton-path vs Picard-path uniqueness experiment on one config."""
    traj_n = _simulate(problem, dataclasses.replace(problem.evolution, method="newton"))
    traj_p = _simulate(problem, dataclasses.replace(problem.evolution, method="picard"))
    series, report = gronwall_monitor(traj_n, traj_p, problem.field, problem.grid,
                                      problem.tags, problem.evolution.penalty.alpha)
    write_energy_csv(os.path.join(out, "energy.csv"), series)
    certificate = dataclasses.asdict(report)
    write_json(os.path.join(out, "certificate.json"), certificate)
    failures = [] if report.passed else [f"sup_E {report.sup_E} above {report.tol * report.scale}"]
    return {"failures": failures, "certificate": certificate}


PIPELINES = {"stationary": _run_stationary, "unsteady": _run_unsteady, "certify": _run_certify}


def _is_time(value):
    """A snapshot time is a finite real number; JSON's ``true`` is not one."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def load_run(run_dir):
    """Trajectory + problem objects reconstructed from a run directory.

    Only summary.json, trajectory.json (the snapshot times), config.ini and
    trajectory.npz (the snapshots' fields) are read, and the problem is
    posed, not solved.  Raises IncompatibleRuns naming the first artifact
    the directory lacks, whose JSON does not parse or has the wrong shape,
    or whose store does not hold one finite float64 (u, chi) pair per
    indexed snapshot.
    """
    def artifact(name, read=None):
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path):
            raise IncompatibleRuns(f"run directory {run_dir} has no {name}")
        try:
            return read(path) if read else path
        except ValueError as exc:
            raise IncompatibleRuns(f"run directory {run_dir} has a corrupt {name}: {exc}") from exc

    summary = artifact("summary.json", read_json)
    if not isinstance(summary, dict):
        raise IncompatibleRuns(f"run directory {run_dir} has a summary.json that is not a "
                               "JSON object")
    traj_meta = artifact("trajectory.json", read_json)
    entries = traj_meta.get("snapshots") if isinstance(traj_meta, dict) else None
    if not isinstance(entries, list) or not entries or not all(
            isinstance(e, dict) and _is_time(e.get("time")) for e in entries):
        raise IncompatibleRuns(f"run directory {run_dir} has a trajectory.json without a "
                               "nonempty list of snapshots, each with a finite time")
    problem = pose_problem(load_config(artifact("config.ini")))
    u, chi = artifact("trajectory.npz",
                      lambda path: read_trajectory_store(path, problem.grid, len(entries)))
    snaps = [SolutionField(u=u[k], chi=chi[k], time=entry["time"])
             for k, entry in enumerate(entries)]
    return summary, problem, Trajectory(snapshots=snaps)


def cmd_compare(dir_a, dir_b, out_path):
    summary_a, problem_a, traj_a = load_run(dir_a)
    summary_b, problem_b, traj_b = load_run(dir_b)

    mismatched = [key for key in ("geometry", "grid", "alpha", "eps")
                  if summary_a.get(key) != summary_b.get(key)]
    if traj_a.times != traj_b.times:
        mismatched.append("times")
    # the monitor poses both runs on run a's field, so the fields must agree;
    # nodal samples decide it for every configurable kind
    nodes = problem_a.grid.coords()
    if not mismatched and not all(map(np.array_equal, problem_a.field(*nodes),
                                      problem_b.field(*nodes))):
        mismatched.append("permeability")
    if mismatched:
        raise IncompatibleRuns(f"runs disagree on {mismatched}", mismatched_keys=mismatched)

    series, report = gronwall_monitor(traj_a, traj_b, problem_a.field, problem_a.grid,
                                      problem_a.tags, problem_a.evolution.penalty.alpha)
    certificate = dataclasses.asdict(report)
    write_json(out_path, certificate)
    print(json.dumps(certificate, indent=2))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_sweep(config_path, param, values, out_override):
    cfg = load_config(config_path)
    if "." not in param:
        raise ConfigError(f"--param must look like section.key, got {param!r}")
    section, key = param.split(".", 1)
    # every value's problem is built, and so checked, before any directory is made
    runs = []
    for value in values:
        raw = {s: dict(entries) for s, entries in cfg.raw.items()}
        raw.setdefault(section, {})[key] = value
        sub_cfg = dataclasses.replace(cfg, raw=raw)
        runs.append((value, sub_cfg, build_problem(sub_cfg)))
    root = output_dir(cfg, out_override)
    os.makedirs(root, exist_ok=True)

    results = []
    for value, sub_cfg, problem in runs:
        sub_dir = os.path.join(root, f"{section}.{key}={value}")
        code, summary = _execute(sub_cfg, problem, sub_dir)
        results.append({"value": value, "dir": sub_dir, "exit": code,
                        "complementarity_max": summary.get("complementarity_max")})
    write_json(os.path.join(root, "sweep_summary.json"),
               {"param": param, "results": results, "complete": True})
    return max((r["exit"] for r in results), default=EXIT_OK)


def _write_config_ini(path, cfg):
    """Persist a (possibly sweep-modified) config so run dirs are replayable:
    its CSV paths are made absolute, so the copy reads the same files."""
    raw = {section: dict(entries) for section, entries in cfg.raw.items()}
    for section, key in (("permeability", "csv"), ("data", "initial_csv")):
        if raw.get(section, {}).get(key):
            raw[section][key] = os.path.abspath(resolve_path(raw[section][key], cfg.path))
    lines = []
    for section, entries in raw.items():
        lines.append(f"[{section}]")
        # configparser reads "%%" back as "%"
        lines.extend(f"{k} = {str(v).replace('%', '%%')}" for k, v in entries.items())
        lines.append("")
    atomic_write_text(path, "\n".join(lines))


if __name__ == "__main__":
    sys.exit(main())
