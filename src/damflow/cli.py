"""Run orchestration: ``damflow run | compare | validate | sweep``.

Exit codes: 0 all enabled checks pass, 1 check failure, 2 config parse
error, 3 validation failure, 4 solver nonconvergence.
"""

import argparse
import json
import os
import shutil
import sys

from .certify import gronwall_monitor
from .config import ConfigError, build_problem, load_config, output_dir
from .errors import DamflowError, IncompatibleRuns, NonConvergence
from .evolution import EvolutionConfig, Trajectory, solve_unsteady
from .geometry import classify_boundary
from .io import read_json, snapshot_filename, write_energy_csv, write_json, write_solution_csv
from .penalty import complementarity_bound
from .problem_data import load_solution_csv, make_barrier_data
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

    p_val = sub.add_parser("validate", help="parse and validate a config without solving")
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
                      "assumptions": problem.assumption_report.as_dict()}, indent=2))
    return EXIT_OK


def cmd_run(config_path, out_override=None):
    cfg = load_config(config_path)
    problem = build_problem(cfg)
    out = output_dir(cfg, out_override)
    os.makedirs(out, exist_ok=True)
    shutil.copyfile(cfg.path, os.path.join(out, "config.ini"))

    if cfg.mode == "stationary":
        return _run_stationary(problem, out)
    if cfg.mode == "unsteady":
        return _run_unsteady(problem, out)
    if cfg.mode == "certify":
        return _run_certify(problem, out)
    raise ConfigError("run.mode=sweep is driven by the `damflow sweep` command")


def _summary_base(problem):
    grid = problem.grid
    return {"geometry": {"L": grid.geometry.L, "K": grid.geometry.K},
            "grid": {"nx": grid.nx, "ny": grid.ny},
            "alpha": problem.penalty.alpha,
            "eps": problem.penalty.eps,
            "assumptions": problem.assumption_report.as_dict()}


def _run_stationary(problem, out):
    solve = solve_stationary(problem.phi, problem.field, problem.grid, problem.tags,
                             problem.penalty, tol_newton=problem.tol_newton,
                             method=problem.method)
    write_solution_csv(os.path.join(out, "solution.csv"), problem.grid, solve.solution_field())
    summary = _summary_base(problem)
    summary.update({"mode": "stationary", "residual_norm": solve.residual_norm,
                    "newton_iters": solve.newton_iters, "method": solve.method,
                    "complete": True, "failures": []})
    write_json(os.path.join(out, "summary.json"), summary)
    return EXIT_OK


def _simulate(problem):
    """Unsteady pipeline shared by run and certify: barrier clip + stepping."""
    phi1 = make_barrier_data(problem.data.eps0, problem.geometry)[1]
    v1eps = None
    if problem.project:
        tags1 = classify_boundary(problem.grid, phi1)
        v1eps = solve_stationary(phi1, problem.field, problem.grid, tags1, problem.penalty,
                                 tol_newton=problem.tol_newton)
    econfig = EvolutionConfig(dt=problem.dt, n_steps=problem.n_steps, penalty=problem.penalty,
                              tol_newton=problem.tol_newton, method=problem.method)
    return solve_unsteady(problem.data, problem.field, problem.grid, problem.tags, econfig,
                          v1eps=v1eps)


def _write_trajectory(problem, traj, out):
    every = problem.every_n_steps
    written = []
    for idx, snap in enumerate(traj.snapshots):
        if idx % every == 0 or idx == len(traj.snapshots) - 1:
            name = snapshot_filename(idx)
            write_solution_csv(os.path.join(out, name), problem.grid, snap)
            written.append({"file": name, "time": snap.time})
    diag = [{"time": d.time, "newton_iters": d.newton_iters, "residual_norm": d.residual_norm,
             "mass_balance_rel": d.mass_balance_rel, "boundary_inflow": d.boundary_inflow,
             "method": d.method, "dt_halvings": d.dt_halvings} for d in traj.diagnostics]
    write_json(os.path.join(out, "trajectory.json"),
               {"times": list(traj.times), "snapshots": written, "diagnostics": diag})
    return diag


def _run_unsteady(problem, out):
    traj = _simulate(problem)
    diag = _write_trajectory(problem, traj, out)
    # snapshot 0 is exempt: its (u0, chi0) pair is data, not H_eps-coupled
    comp = max(s.complementarity_residual() for s in traj.snapshots[1:])
    failures = []
    bound = complementarity_bound(problem.penalty.eps) + 1e-12
    if comp > bound:
        failures.append(f"complementarity residual {comp} exceeds eps/4 bound {bound}")
    worst_mass = max((d["mass_balance_rel"] for d in diag), default=0.0)
    if worst_mass > MASS_BALANCE_TOL:
        failures.append(f"mass balance {worst_mass} exceeds {MASS_BALANCE_TOL}")
    summary = _summary_base(problem)
    summary.update({"mode": "unsteady", "times": list(traj.times),
                    "complementarity_max": comp, "mass_balance_worst": worst_mass,
                    "complete": True, "failures": failures})
    write_json(os.path.join(out, "summary.json"), summary)
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def _run_certify(problem, out):
    """Newton-path vs Picard-path uniqueness experiment on one config."""
    import dataclasses

    traj_n = _simulate(dataclasses.replace(problem, method="newton"))
    traj_p = _simulate(dataclasses.replace(problem, method="picard"))
    series, report = gronwall_monitor(traj_n, traj_p, problem.field, problem.grid,
                                      problem.tags, problem.penalty.alpha)
    write_energy_csv(os.path.join(out, "energy.csv"), series)
    write_json(os.path.join(out, "certificate.json"), report.as_dict())
    summary = _summary_base(problem)
    failures = [] if report.passed else [f"sup_E {report.sup_E} above {report.tol * report.scale}"]
    summary.update({"mode": "certify", "complete": True, "failures": failures,
                    "certificate": report.as_dict()})
    write_json(os.path.join(out, "summary.json"), summary)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def load_run(run_dir):
    """Trajectory + problem objects reconstructed from a run directory.

    Raises IncompatibleRuns naming the first artifact the directory lacks.
    """
    def artifact(name):
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path):
            raise IncompatibleRuns(f"run directory {run_dir} has no {name}")
        return path

    summary = read_json(artifact("summary.json"))
    traj_meta = read_json(artifact("trajectory.json"))
    cfg = load_config(artifact("config.ini"))
    problem = build_problem(cfg)
    snaps = []
    for entry in traj_meta["snapshots"]:
        snaps.append(load_solution_csv(artifact(entry["file"]), problem.grid,
                                       time=entry["time"]))
    traj = Trajectory(times=[s.time for s in snaps], snapshots=snaps)
    return summary, problem, traj


def cmd_compare(dir_a, dir_b, out_path):
    summary_a, problem_a, traj_a = load_run(dir_a)
    summary_b, _, traj_b = load_run(dir_b)

    mismatched = [key for key in ("geometry", "grid", "alpha", "eps")
                  if summary_a.get(key) != summary_b.get(key)]
    if [s.time for s in traj_a.snapshots] != [s.time for s in traj_b.snapshots]:
        mismatched.append("times")
    if mismatched:
        raise IncompatibleRuns(f"runs disagree on {mismatched}", mismatched_keys=mismatched)

    series, report = gronwall_monitor(traj_a, traj_b, problem_a.field, problem_a.grid,
                                      problem_a.tags, problem_a.penalty.alpha)
    write_json(out_path, report.as_dict())
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_sweep(config_path, param, values, out_override=None):
    cfg = load_config(config_path)
    if "." not in param:
        raise ConfigError(f"--param must look like section.key, got {param!r}")
    section, key = param.split(".", 1)
    root = output_dir(cfg, out_override)
    os.makedirs(root, exist_ok=True)

    results = []
    worst = EXIT_OK
    for value in values:
        sub_cfg = load_config(config_path)
        sub_cfg.raw.setdefault(section, {})[key] = value
        sub_dir = os.path.join(root, f"{section}.{key}={value}")
        problem = build_problem(sub_cfg)
        os.makedirs(sub_dir, exist_ok=True)
        _write_config_ini(os.path.join(sub_dir, "config.ini"), sub_cfg.raw)
        if sub_cfg.mode == "stationary":
            code = _run_stationary(problem, sub_dir)
            comp = None
        else:
            code = _run_unsteady(problem, sub_dir)
            comp = read_json(os.path.join(sub_dir, "summary.json"))["complementarity_max"]
        worst = max(worst, code)
        results.append({"value": value, "dir": sub_dir, "exit": code,
                        "complementarity_max": comp})
    write_json(os.path.join(root, "sweep_summary.json"),
               {"param": param, "results": results, "complete": True})
    return worst


def _write_config_ini(path, raw):
    """Persist a (possibly sweep-modified) config so run dirs are replayable."""
    lines = []
    for section, entries in raw.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in entries.items())
        lines.append("")
    from .io import atomic_write_text
    atomic_write_text(path, "\n".join(lines))


if __name__ == "__main__":
    sys.exit(main())
