import dataclasses

import numpy as np
import pytest

from damflow import (DamGeometry, InvalidArgument, InvalidData, NonConvergence, PenaltyConfig,
                     StepFailure, build_grid, classify_boundary, hydrostatic_profile,
                     identity_field, make_barrier_data, solve_stationary)
from damflow import evolution
from damflow.evolution import EvolutionConfig, _Stepper, project_initial, solve_unsteady
from damflow.penalty import complementarity_bound, g_eps, heaviside_eps
from damflow.problem_data import ProblemData


def _barrier_setup(n=32, eps=2e-2, alpha=0.3):
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, n, n)
    phi0, phi1 = make_barrier_data(0.2, geom)
    tags = classify_boundary(grid, phi0)
    field = identity_field(geom)
    pen = PenaltyConfig(eps=eps, alpha=alpha)
    return geom, grid, tags, field, phi0, phi1, pen


def _midpoint_data(grid, tags, phi0, pen, T):
    """Midpoint of the hydrostatic pairs at levels 0.2 and 0.8, with the
    head phi0 on the pervious boundary; chi0 is not H_eps(u0)."""
    _, X2 = grid.coords()
    u0 = 0.5 * (np.maximum(0.2 - X2, 0.0) + np.maximum(0.8 - X2, 0.0))
    chi0 = 0.5 * (np.where(X2 < 0.2, 1.0, 0.0) + np.where(X2 < 0.8, 1.0, 0.0))
    from damflow.geometry import dirichlet_values
    u0[tags.dirichlet_mask] = dirichlet_values(grid, tags, phi0)[tags.dirichlet_mask]
    return ProblemData(alpha=pen.alpha, T_final=T, eps0=0.2, phi=phi0, u0=u0, chi0=chi0)


def test_config_validation():
    pen = PenaltyConfig(eps=1e-2)
    with pytest.raises(InvalidArgument):
        EvolutionConfig(dt=0.0, n_steps=5, penalty=pen)
    with pytest.raises(InvalidArgument):
        EvolutionConfig(dt=0.1, n_steps=0, penalty=pen)
    for dt in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgument):
            EvolutionConfig(dt=dt, n_steps=5, penalty=pen)
    cfg = EvolutionConfig(dt=0.1, n_steps=5, penalty=pen)
    assert cfg.T == pytest.approx(0.5)


def test_steady_state_is_a_fixed_point():
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup()
    tags1 = classify_boundary(grid, phi1)
    steady = solve_stationary(phi1, field, grid, tags1, pen)
    data = ProblemData(alpha=pen.alpha, T_final=0.1, eps0=0.2, phi=phi1,
                       u0=steady.v, chi0=steady.chi)
    cfg = EvolutionConfig(dt=0.01, n_steps=10, penalty=pen)
    traj = solve_unsteady(data, field, grid, tags1, cfg)
    dev = max(np.max(np.abs(s.u - steady.v)) for s in traj.snapshots)
    assert dev <= 1e-8


def test_drawdown_monotone_and_conservative():
    """Midpoint initial data over the lower-barrier head relaxes downward."""
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(eps=3e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.3)
    cfg = EvolutionConfig(dt=0.02, n_steps=15, penalty=pen)
    traj = solve_unsteady(data, field, grid, tags, cfg)

    assert len(traj) == 16
    # stored mass alpha*u + chi decreases as the mound drains out
    stored = [np.sum(pen.alpha * s.u + s.chi) for s in traj.snapshots]
    assert all(b < a + 1e-12 for a, b in zip(stored, stored[1:]))
    # per-step ledger stays at rounding level
    assert max(d.mass_balance_rel for d in traj.diagnostics) <= 1e-10
    # nodal positivity and the penalty complementarity bound
    for s in traj.snapshots[1:]:
        assert np.min(s.u) >= 0.0
        assert np.max(s.u * (1.0 - s.chi)) <= complementarity_bound(pen.eps) + 1e-12


def test_first_step_honors_given_saturation():
    """A chi0 inconsistent with H_eps(u0) changes the first-step outcome."""
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=12, eps=6e-2)
    _, X2 = grid.coords()
    u0 = np.maximum(0.5 - X2, 0.0)
    from damflow.geometry import dirichlet_values
    dvals = dirichlet_values(grid, tags, phi0)
    u0[tags.dirichlet_mask] = dvals[tags.dirichlet_mask]
    chi_own = heaviside_eps(u0, pen.eps)
    chi_wet = np.minimum(chi_own + 0.4, 1.0)
    cfg = EvolutionConfig(dt=0.02, n_steps=1, penalty=pen)

    runs = {}
    for name, chi0 in (("own", chi_own), ("wet", chi_wet)):
        data = ProblemData(alpha=pen.alpha, T_final=0.02, eps0=0.2, phi=phi0,
                           u0=u0, chi0=chi0)
        runs[name] = solve_unsteady(data, field, grid, tags, cfg).final.u
    # the extra stored saturation must slow the drawdown
    assert np.max(np.abs(runs["wet"] - runs["own"])) > 1e-4
    assert np.min(runs["wet"] - runs["own"]) >= -1e-10


def test_project_initial_clips_under_barrier():
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=12, eps=6e-2)
    tags1 = classify_boundary(grid, phi1)
    v1eps = solve_stationary(phi1, field, grid, tags1, pen)
    _, X2 = grid.coords()
    u0 = np.full(grid.shape, 0.9)
    chi0 = np.ones(grid.shape)
    data = ProblemData(alpha=pen.alpha, T_final=0.1, eps0=0.2, phi=phi0,
                       u0=u0, chi0=chi0)
    u0c, chi0c = project_initial(data, v1eps, pen)
    assert np.all(u0c <= v1eps.v + 1e-15)
    assert np.all(chi0c <= heaviside_eps(v1eps.v, pen.eps) + 1e-15)


def test_snapshot_chi_is_ramp_of_pressure():
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=12, eps=6e-2)
    _, X2 = grid.coords()
    u0 = np.maximum(0.2 - X2, 0.0)
    from damflow.geometry import dirichlet_values
    dvals = dirichlet_values(grid, tags, phi0)
    u0[tags.dirichlet_mask] = dvals[tags.dirichlet_mask]
    data = ProblemData(alpha=pen.alpha, T_final=0.04, eps0=0.2, phi=phi0,
                       u0=u0, chi0=heaviside_eps(u0, pen.eps))
    cfg = EvolutionConfig(dt=0.02, n_steps=2, penalty=pen)
    traj = solve_unsteady(data, field, grid, tags, cfg)
    for idx, s in enumerate(traj.snapshots[1:], start=1):
        np.testing.assert_array_equal(s.chi, heaviside_eps(s.u, pen.eps))
        assert s.time == pytest.approx(traj.times[idx])


def test_ledger_splits_the_pde_total():
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=12, eps=6e-2)
    _, X2 = grid.coords()
    cfg = EvolutionConfig(dt=0.02, n_steps=1, penalty=pen)
    stepper = _Stepper(field, grid, tags, phi0, cfg)
    u = np.maximum(0.5 - X2, 0.0).ravel()
    u_next, op, _ = stepper.advance(u, heaviside_eps(u, pen.eps), cfg.dt)
    imbalance, inflow, scale = stepper.ledger(op, u_next)
    pde = op.pde(u_next)
    assert inflow == pytest.approx(-np.sum(pde[tags.dirichlet_mask.ravel()]) * cfg.dt)
    assert imbalance - inflow == pytest.approx(np.sum(pde) * cfg.dt, abs=1e-14 * scale)
    assert abs(imbalance) <= 1e-10 * scale


def test_newton_and_picard_paths_agree_to_rounding():
    """Both paths solve the same implicit system, so their steps agree far
    below the Newton tolerance once Picard solves for its correction."""
    geom = DamGeometry(2.0, 1.0)
    grid = build_grid(geom, 16, 16)
    phi0, _ = make_barrier_data(0.2, geom)
    tags = classify_boundary(grid, phi0)
    field = identity_field(geom)
    pen = PenaltyConfig(eps=4e-2, alpha=0.3)
    _, X2 = grid.coords()
    u0 = 0.5 * (np.maximum(0.2 - X2, 0.0) + np.maximum(0.8 - X2, 0.0))
    chi0 = 0.5 * (np.where(X2 < 0.2, 1.0, 0.0) + np.where(X2 < 0.8, 1.0, 0.0))
    from damflow.geometry import dirichlet_values
    dvals = dirichlet_values(grid, tags, phi0)
    u0[tags.dirichlet_mask] = dvals[tags.dirichlet_mask]
    data = ProblemData(alpha=pen.alpha, T_final=0.1, eps0=0.2, phi=phi0, u0=u0, chi0=chi0)
    trajs = {m: solve_unsteady(data, field, grid, tags,
                               EvolutionConfig(dt=0.02, n_steps=5, penalty=pen, method=m))
             for m in ("newton", "picard")}
    gap = max(float(np.max(np.abs(a.u - b.u)))
              for a, b in zip(trajs["newton"].snapshots, trajs["picard"].snapshots))
    assert gap <= 1e-13


def test_repeated_runs_are_bitwise_equal():
    """The coarse-factor rebuild rule counts iterations, not time, so the same
    input gives the same trajectory and the same counters."""
    geom, grid, tags, field, phi0, _, pen = _barrier_setup(n=24, eps=4e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.1)
    config = EvolutionConfig(dt=0.02, n_steps=5, penalty=pen)
    a, b = (solve_unsteady(data, field, grid, tags, config) for _ in range(2))
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.u, sb.u) and np.array_equal(sa.chi, sb.chi)
    assert a.diagnostics == b.diagnostics
    assert all(d.krylov_iters > 0 for d in a.diagnostics)
    assert a.diagnostics[0].coarse_factors >= 1


def test_unsteady_run_reports_no_lu_fallback():
    """Every step of a 16x16 midpoint run reaches its polish floor or stops
    polishing without factoring a Jacobian, and says so per step."""
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=16, eps=5e-2)
    s0 = solve_stationary(phi0, field, grid, tags, pen)
    s1 = solve_stationary(phi1, field, grid, classify_boundary(grid, phi1), pen)
    u0 = 0.5 * (s0.v + s1.v)
    from damflow.geometry import dirichlet_values
    u0[tags.dirichlet_mask] = dirichlet_values(grid, tags, phi0)[tags.dirichlet_mask]
    data = ProblemData(alpha=pen.alpha, T_final=0.5, eps0=0.2, phi=phi0,
                       u0=u0, chi0=0.5 * (s0.chi + s1.chi))
    traj = solve_unsteady(data, field, grid, tags,
                          EvolutionConfig(dt=0.01, n_steps=50, penalty=pen), v1eps=s1)
    assert [d.linear_fallbacks for d in traj.diagnostics] == [0] * 50
    assert s0.diagnostics["linear_fallbacks"] == s1.diagnostics["linear_fallbacks"] == 0
    assert max(d.mass_balance_rel for d in traj.diagnostics) <= 1e-10


def _recording_solve(monkeypatch, failures):
    """Patch the step's nonlinear solve to raise NonConvergence on its first
    ``failures`` calls; returns the list of (dt, g_old, (v, stats) or None)
    per call."""
    original = evolution.newton_picard_solve
    calls = []

    def solve(v0, residual_fn, *args, **kwargs):
        op = residual_fn.__self__
        if len(calls) < failures:
            calls.append((op.dt, op.g_old.copy(), None))
            raise NonConvergence("injected", residual_norm=1.0)
        result = original(v0, residual_fn, *args, **kwargs)
        calls.append((op.dt, op.g_old.copy(), result))
        return result

    monkeypatch.setattr(evolution, "newton_picard_solve", solve)
    return calls


def test_failed_step_retries_with_half_the_step(monkeypatch):
    """One NonConvergence halves dt: two dt/2 substeps, the first from the
    given pair, the second from H_eps of the first's pressure."""
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=12, eps=6e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.02)
    calls = _recording_solve(monkeypatch, failures=1)
    traj = solve_unsteady(data, field, grid, tags,
                          EvolutionConfig(dt=0.02, n_steps=1, penalty=pen))

    (diag,) = traj.diagnostics
    assert diag.dt_halvings == 1
    assert [c[0] for c in calls] == [0.02, 0.01, 0.01]
    u0, chi0 = grid.flatten(data.u0), grid.flatten(data.chi0)
    np.testing.assert_array_equal(calls[0][1], pen.alpha * u0 + chi0)
    np.testing.assert_array_equal(calls[1][1], pen.alpha * u0 + chi0)
    np.testing.assert_array_equal(calls[2][1], g_eps(calls[1][2][0], pen))
    # the diagnostics cover both sub-steps of the accepted attempt
    substeps = [c[2][1] for c in calls[1:]]
    assert diag.newton_iters == sum(st.iters for st in substeps)
    assert diag.residual_norm == max(st.residual_norm for st in substeps)
    final = traj.final
    assert final.time == pytest.approx(0.02)
    np.testing.assert_array_equal(final.chi, heaviside_eps(final.u, pen.eps))
    assert diag.mass_balance_rel <= 1e-10


def test_step_fails_after_the_last_halving(monkeypatch):
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=12, eps=6e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.02)
    calls = _recording_solve(monkeypatch, failures=10 ** 6)
    with pytest.raises(StepFailure) as info:
        solve_unsteady(data, field, grid, tags, EvolutionConfig(dt=0.02, n_steps=1, penalty=pen))
    assert [c[0] for c in calls] == [0.02 / 2 ** k for k in range(evolution.MAX_DT_RETRIES + 1)]
    assert info.value.step_index == 0
    assert info.value.residual_norm == 1.0


def test_pressure_undershoot_fails_the_step():
    # the hydrostatic pair at level 0.5 drains towards the lower barrier head
    # (level 0.1); at eps = 0.02 < h2 the converged step undershoots
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 16, 16)
    phi0, _ = make_barrier_data(0.1, geom)
    pen = PenaltyConfig(eps=0.02, alpha=0.3)
    prof = hydrostatic_profile(0.5, grid)
    data = ProblemData(alpha=pen.alpha, T_final=0.02, eps0=0.1, phi=phi0, u0=prof.u,
                       chi0=prof.chi)
    with pytest.raises(StepFailure, match=r"pressure undershoot -3\.920e-03 at t=0\.02") as info:
        solve_unsteady(data, identity_field(geom), grid, classify_boundary(grid, phi0),
                       EvolutionConfig(dt=0.02, n_steps=1, penalty=pen))
    assert info.value.step_index == 0


def test_line_search_failures_sum_over_the_accepted_substeps(monkeypatch):
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=12, eps=6e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.02)
    calls = _recording_solve(monkeypatch, failures=1)
    recorded = evolution.newton_picard_solve

    def solve(*args, **kwargs):
        v, stats = recorded(*args, **kwargs)
        return v, dataclasses.replace(stats, line_search_failures=len(calls))

    monkeypatch.setattr(evolution, "newton_picard_solve", solve)
    traj = solve_unsteady(data, field, grid, tags,
                          EvolutionConfig(dt=0.02, n_steps=1, penalty=pen))
    # the failed attempt reports nothing; its two dt/2 sub-steps report 2 and 3
    (diag,) = traj.diagnostics
    assert diag.dt_halvings == 1 and diag.line_search_failures == 2 + 3


def test_negative_head_is_invalid_data_not_a_step_failure():
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=8, eps=6e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.02)
    data.phi = lambda x1, x2: -0.05
    with pytest.raises(InvalidData, match="boundary head -0.05"):
        solve_unsteady(data, field, grid, tags, EvolutionConfig(dt=0.02, n_steps=1, penalty=pen))


@pytest.mark.parametrize("name", ["u0", "chi0"])
def test_initial_data_off_the_grid_rejected(name):
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=8, eps=6e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.02)
    setattr(data, name, getattr(data, name)[:5, :5])
    with pytest.raises(InvalidArgument, match=fr"{name} of shape \(5, 5\).*\(9, 9\)"):
        solve_unsteady(data, field, grid, tags, EvolutionConfig(dt=0.02, n_steps=1, penalty=pen))
