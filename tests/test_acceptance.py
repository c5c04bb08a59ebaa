"""End-to-end acceptance suite.

Each test prints a single ``[criterion N] name: PASS/FAIL`` line; run with
``pytest tests/test_acceptance.py -s`` to see them all.  Expensive solves are
shared through module-scoped fixtures, and the conservation check aggregates
the mass ledgers of every trajectory computed here.

Criterion 5 certifies that the Newton and Picard paths of one discrete
problem carry dual energy below 1e-6 of the scale at every level and differ
nodally by at most TOL_NEWTON, and that the certificate tightens under
refinement: the level-2n Newton trajectory, injected onto level n's nodes and
times, is closer in dual energy to level n's Newton trajectory for 32/64 than
for 16/32.  The Newton-vs-Picard energy itself is not a monotone quantity; it
is set by the Picard stopping residual, not by the discretization.

One sub-check is asserted exactly as specified but is known to fail on this
discretization and is deliberately left red rather than weakened: the sign
floor for saturation differences across unequal penalty widths (criterion 6,
second clause: that difference is first-order in the penalty width, far
above the stated floor).
"""

import time

import numpy as np
import pytest

from damflow import (DamGeometry, DualSolver, EvolutionConfig, PenaltyConfig,
                     ProblemData, SolutionField, Trajectory, build_grid,
                     check_sandwich, classify_boundary, dirichlet_values,
                     gronwall_monitor, hydrostatic_head, hydrostatic_profile,
                     identity_field, layered_field, make_barrier_data, sign_check,
                     solve_stationary, solve_unsteady, steklov_average,
                     steklov_derivative)
from damflow.assembly import Q1Assembler
from damflow.stationary import TOL_NEWTON

EPS0 = 0.1
ALPHA = 0.3
# the most saturation (and, times eps, pressure) the dry strip of criterion 4 may hold
TOL_CHI = 1e-2


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _worst_mass(traj):
    return max(d.mass_balance_rel for d in traj.diagnostics)


# ---------------------------------------------------------------------------
# shared solves


@pytest.fixture(scope="module")
def square():
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 64, 64)
    return {"geom": geom, "grid": grid, "field": identity_field(geom)}


@pytest.fixture(scope="module")
def barriers(square):
    """Penalized barrier pair on the 64x64 grid at eps=8e-3 (ordering checks)
    and eps=1e-2 (evolution envelopes)."""
    grid, field = square["grid"], square["field"]
    phi0, phi1 = make_barrier_data(EPS0, square["geom"])
    tags0 = classify_boundary(grid, phi0)
    tags1 = classify_boundary(grid, phi1)
    out = {"phi0": phi0, "phi1": phi1, "tags0": tags0, "tags1": tags1}
    for key, eps in (("8e-3", 8e-3), ("1e-2", 1e-2)):
        pen = PenaltyConfig(eps=eps, alpha=ALPHA)
        out[key] = {
            "pen": pen,
            "s0": solve_stationary(phi0, field, grid, tags0, pen),
            "s1": solve_stationary(phi1, field, grid, tags1, pen),
        }
    return out


@pytest.fixture(scope="module")
def steady_traj(square, barriers):
    """100 implicit steps started at the penalized upper-barrier solution."""
    s1 = barriers["1e-2"]["s1"]
    data = ProblemData(alpha=ALPHA, T_final=1.0, eps0=EPS0, phi=barriers["phi1"],
                       u0=s1.v, chi0=s1.chi)
    cfg = EvolutionConfig(dt=0.01, n_steps=100, penalty=barriers["1e-2"]["pen"])
    return solve_unsteady(data, square["field"], square["grid"], barriers["tags1"], cfg)


@pytest.fixture(scope="module")
def midpoint_traj(square, barriers):
    """100 implicit steps from the midpoint of the two barrier solutions."""
    grid = square["grid"]
    b = barriers["1e-2"]
    u0 = 0.5 * (b["s0"].v + b["s1"].v)
    chi0 = 0.5 * (b["s0"].chi + b["s1"].chi)
    dv = dirichlet_values(grid, barriers["tags0"], barriers["phi0"])
    u0[barriers["tags0"].dirichlet_mask] = dv[barriers["tags0"].dirichlet_mask]
    data = ProblemData(alpha=ALPHA, T_final=1.0, eps0=EPS0, phi=barriers["phi0"],
                       u0=u0, chi0=chi0)
    cfg = EvolutionConfig(dt=0.01, n_steps=100, penalty=b["pen"])
    return solve_unsteady(data, square["field"], grid, barriers["tags0"], cfg,
                          v1eps=b["s1"])


@pytest.fixture(scope="module")
def certificate_ladder():
    """Newton-path vs Picard-path trajectory pairs on a 2x1 strip, with grid,
    time step and penalty width halved together across three levels."""
    geom = DamGeometry(2.0, 1.0)
    field = identity_field(geom)
    phi0, _ = make_barrier_data(0.2, geom)
    levels = []
    for n, dt, eps in ((16, 0.04, 4e-2), (32, 0.02, 2e-2), (64, 0.01, 1e-2)):
        grid = build_grid(geom, n, n)
        tags = classify_boundary(grid, phi0)
        _, X2 = grid.coords()
        u0 = 0.5 * (np.maximum(0.2 - X2, 0.0) + np.maximum(0.8 - X2, 0.0))
        chi0 = 0.5 * (np.where(X2 < 0.2, 1.0, 0.0) + np.where(X2 < 0.8, 1.0, 0.0))
        dv = dirichlet_values(grid, tags, phi0)
        u0[tags.dirichlet_mask] = dv[tags.dirichlet_mask]
        data = ProblemData(alpha=ALPHA, T_final=0.2, eps0=0.2, phi=phi0,
                           u0=u0, chi0=chi0)
        pen = PenaltyConfig(eps=eps, alpha=ALPHA)
        trajs = {m: solve_unsteady(data, field, grid, tags,
                                   EvolutionConfig(dt=dt, n_steps=int(round(0.2 / dt)),
                                                   penalty=pen, method=m))
                 for m in ("newton", "picard")}
        _, report = gronwall_monitor(trajs["newton"], trajs["picard"],
                                     field, grid, tags, ALPHA)
        levels.append({"n": n, "grid": grid, "tags": tags, "field": field,
                       "trajs": trajs, "report": report})
    return levels


@pytest.fixture(scope="module")
def penalty_sweep(square):
    """Drawdown from a hydrostatic column to a lower boundary level, repeated
    over three penalty widths on the 64x64 grid."""
    grid, field = square["grid"], square["field"]
    phi = hydrostatic_head(0.3)
    tags = classify_boundary(grid, phi)
    prof = hydrostatic_profile(0.5, grid)
    trajs = {}
    for eps in (2e-2, 1.5e-2, 1.25e-2):
        pen = PenaltyConfig(eps=eps, alpha=ALPHA)
        data = ProblemData(alpha=ALPHA, T_final=0.2, eps0=EPS0, phi=phi,
                           u0=prof.u, chi0=prof.chi)
        trajs[eps] = solve_unsteady(data, field, grid, tags,
                                    EvolutionConfig(dt=0.01, n_steps=20, penalty=pen))
    return trajs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_hydrostatic_oracle(square):
    geom, grid = square["geom"], square["grid"]
    phi = hydrostatic_head(0.5)
    tags = classify_boundary(grid, phi)
    _, X2 = grid.coords()
    exact = np.maximum(0.5 - X2, 0.0)
    pen = PenaltyConfig(eps=1e-2, alpha=ALPHA)
    errs, runtimes = [], []
    for field in (square["field"], layered_field(1.0, 1.0, 1.0, geom)):
        t0 = time.time()
        sol = solve_stationary(phi, field, grid, tags, pen)
        runtimes.append(time.time() - t0)
        errs.append(float(np.max(np.abs(sol.v - exact))))
    ok = max(errs) <= 1.5e-2 and max(runtimes) < 10.0
    _report(1, "hydrostatic oracle, identity and layered permeability", ok,
            f"max error {max(errs):.2e} <= 1.5e-2, runtime {max(runtimes):.1f}s < 10s")


def test_criterion_2_barrier_sandwich(square, barriers):
    grid = square["grid"]
    b = barriers["8e-3"]
    _, X2 = grid.coords()
    lower = np.maximum(EPS0 - X2, 0.0)
    upper = np.maximum(square["geom"].K - EPS0 - X2, 0.0)
    below = float(np.max(lower - b["s0"].v, initial=0.0))
    between = float(np.max(b["s0"].v - b["s1"].v, initial=0.0))
    above = float(np.max(b["s1"].v - upper, initial=0.0))
    delta = 2.0 * max(grid.h2, b["pen"].eps)
    wet = X2 < EPS0 - delta
    dry = X2 > square["geom"].K - EPS0 + delta
    chi0_min = float(np.min(b["s0"].chi[wet]))
    chi1_max = float(np.max(b["s1"].chi[dry]))
    ok = (below <= 1e-3 and between <= 1e-3 and above <= 1e-3
          and chi0_min >= 0.99 and chi1_max <= 0.01)
    _report(2, "stationary barrier sandwich and saturation strips", ok,
            f"order slack {max(below, between, above):.1e} <= 1e-3, "
            f"wet-strip chi {chi0_min:.4f} >= 0.99, dry-strip chi {chi1_max:.1e} <= 0.01")


def test_criterion_3_steady_state_preservation(square, barriers, steady_traj):
    grid = square["grid"]
    s1 = barriers["1e-2"]["s1"]
    ml = Q1Assembler(grid, square["field"]).lumped_mass()
    dev = max(float(np.sqrt(ml @ (grid.flatten(s.u - s1.v) ** 2)))
              for s in steady_traj.snapshots)
    tol = 10.0 * TOL_NEWTON
    _report(3, "steady state preserved over 100 steps", dev <= tol,
            f"sup L2 drift {dev:.2e} <= {tol:.0e}")


def test_criterion_4_time_sandwich(square, barriers, midpoint_traj):
    grid = square["grid"]
    b = barriers["1e-2"]
    _, X2 = grid.coords()
    worst_below = worst_above = 0.0
    for s in midpoint_traj.snapshots:
        rep = check_sandwich(s.u, b["s0"].v, b["s1"].v, tol=1e-3)
        worst_below = max(worst_below, rep.max_below_lower)
        worst_above = max(worst_above, rep.max_above_upper)
    delta = 2.0 * max(grid.h2, b["pen"].eps)
    wet = X2 < EPS0 - delta
    dry = X2 > square["geom"].K - EPS0 + delta
    u_min_wet = min(float(np.min(s.u[wet])) for s in midpoint_traj.snapshots)
    chi_max_dry = max(float(np.max(s.chi[dry])) for s in midpoint_traj.snapshots)
    u_max_dry = max(float(np.max(s.u[dry])) for s in midpoint_traj.snapshots)
    ok = (worst_below <= 1e-3 and worst_above <= 1e-3 and u_min_wet > 0.0
          and chi_max_dry <= TOL_CHI and u_max_dry <= b["pen"].eps * TOL_CHI)
    _report(4, "evolution stays between the stationary barriers", ok,
            f"order slack {max(worst_below, worst_above):.1e} <= 1e-3, "
            f"wet-strip u {u_min_wet:.2e} > 0, dry-strip chi {chi_max_dry:.1e}, "
            f"u {u_max_dry:.1e}")


def _inject(fine, coarse):
    """Restrict a trajectory at 2n cells and dt/2 onto the nodes and times of
    one at n cells and dt (every other node and snapshot)."""
    return Trajectory(snapshots=[SolutionField(u=s.u[::2, ::2], chi=s.chi[::2, ::2], time=c.time)
                                 for s, c in zip(fine.snapshots[::2], coarse.snapshots)])


def test_criterion_5_uniqueness_certificate(certificate_ladder):
    reports = [lvl["report"] for lvl in certificate_ladder]
    base = reports[0]
    certified = all(r.passed and r.sup_E <= 1e-6 * r.scale for r in reports)
    path_gaps = [max(float(np.max(np.abs(a.u - b.u)))
                     for a, b in zip(lvl["trajs"]["newton"].snapshots,
                                     lvl["trajs"]["picard"].snapshots))
                 for lvl in certificate_ladder]
    same_system = all(g <= TOL_NEWTON for g in path_gaps)
    gaps = []
    for coarse, fine in zip(certificate_ladder, certificate_ladder[1:]):
        coarse_traj = coarse["trajs"]["newton"]
        _, rep = gronwall_monitor(coarse_traj, _inject(fine["trajs"]["newton"], coarse_traj),
                                  coarse["field"], coarse["grid"], coarse["tags"], ALPHA)
        gaps.append(rep.sup_E)
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = certified and same_system and decreasing
    _report(5, "two-path certificate and refinement decrease", ok,
            f"sup E {base.sup_E:.2e} <= {1e-6 * base.scale:.2e} at all levels: "
            f"{certified}; Newton-Picard max|w| "
            + " ".join(f"{g:.1e}" for g in path_gaps)
            + f" <= {TOL_NEWTON:.0e}: {same_system}; consecutive-level sup E 16/32 {gaps[0]:.2e} > "
            f"32/64 {gaps[1]:.2e}: {decreasing}")


def test_criterion_6_saturation_sign(square, certificate_ladder, penalty_sweep):
    equal_min = min(sign_check(lvl["trajs"]["newton"], lvl["trajs"]["picard"])
                    for lvl in certificate_ladder)
    scale = (ALPHA * 0.5 + 1.0) ** 2 * square["geom"].area
    eps_vals = sorted(penalty_sweep)
    unequal_min = min(sign_check(penalty_sweep[a], penalty_sweep[b])
                      for i, a in enumerate(eps_vals) for b in eps_vals[i + 1:])
    ok = equal_min >= 0.0 and unequal_min >= -1e-8 * scale
    _report(6, "pressure/saturation difference sign", ok,
            f"equal-width pairs {equal_min:.1e} >= 0; unequal-width pairs "
            f"{unequal_min:.1e} >= {-1e-8 * scale:.1e}")


def test_criterion_7_dual_solver_convergence():
    geom = DamGeometry(1.0, 1.0)
    field = identity_field(geom)
    lam = np.pi ** 2 / geom.L ** 2 + np.pi ** 2 / (4.0 * geom.K ** 2)
    errs, identity_worst = [], 0.0
    for n in (16, 32, 64):
        grid = build_grid(geom, n, n)
        tags = classify_boundary(grid, hydrostatic_head(0.5))
        X1, X2 = grid.coords()
        v_exact = np.sin(np.pi * X1 / geom.L) * np.cos(np.pi * X2 / (2.0 * geom.K))
        dual = DualSolver(field, grid, tags)
        v = dual.solve(lam * v_exact)
        ml = dual.asm.lumped_mass()
        errs.append(float(np.sqrt(ml @ (grid.flatten(v - v_exact) ** 2))))
        lhs = dual.energy(v)
        rhs = dual.source_pairing(lam * v_exact, v)
        identity_worst = max(identity_worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(3.6 <= r <= 4.4 for r in ratios) and identity_worst <= 1e-12
    _report(7, "dual solver second-order convergence and energy identity", ok,
            f"L2 ratios {ratios[0]:.2f}, {ratios[1]:.2f} in [3.6, 4.4]; "
            f"identity residual {identity_worst:.1e} <= 1e-12")


def test_criterion_8_penalty_complementarity(penalty_sweep):
    worst_slack = -np.inf
    for eps, traj in penalty_sweep.items():
        comp = max(float(np.max(s.u * (1.0 - s.chi))) for s in traj.snapshots)
        worst_slack = max(worst_slack, comp - eps / 4.0)
    ok = worst_slack <= 1e-12
    _report(8, "complementarity bound u(1-chi) <= eps/4 over the sweep", ok,
            f"worst excess {worst_slack:.1e} <= 1e-12")


def test_criterion_9_steklov_identities():
    times = np.linspace(0.0, 1.0, 11)
    h = 0.25
    const = np.full_like(times, 3.7)
    _, avg_c = steklov_average(times, const, h)
    _, der_c = steklov_derivative(times, const, h)
    linear = 2.0 - 0.8 * times
    new_t, avg_l = steklov_average(times, linear, h)
    _, der_l = steklov_derivative(times, linear, h)
    rng = np.random.default_rng(7)
    wiggly = rng.standard_normal(times.size)
    pl_t, pl_der = steklov_derivative(times, wiggly, h)
    exact_der = np.array([(np.interp(t + h, times, wiggly) - np.interp(t, times, wiggly)) / h
                          for t in pl_t])
    ok = (np.array_equal(avg_c, const[: avg_c.size])
          and np.max(np.abs(der_c)) == 0.0
          and np.max(np.abs(avg_l - (2.0 - 0.8 * (new_t + h / 2.0)))) <= 1e-14
          and np.max(np.abs(der_l + 0.8)) <= 1e-13
          and np.max(np.abs(pl_der - exact_der)) <= 1e-13)
    _report(9, "time-average operators reproduce constants and linears", ok,
            "constant/linear reproduction and difference-quotient identity exact")


def test_criterion_10_conservation(steady_traj, midpoint_traj, certificate_ladder,
                                   penalty_sweep):
    worst = max(
        _worst_mass(steady_traj),
        _worst_mass(midpoint_traj),
        max(_worst_mass(t) for lvl in certificate_ladder for t in lvl["trajs"].values()),
        max(_worst_mass(t) for t in penalty_sweep.values()),
    )
    _report(10, "per-step mass balance on every acceptance run", worst <= 1e-10,
            f"worst relative imbalance {worst:.1e} <= 1e-10")
