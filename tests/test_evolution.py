import dataclasses
import re

import numpy as np
import pytest

from damflow import (DamGeometry, InvalidArgument, InvalidData, NonConvergence, PenaltyConfig,
                     StepFailure, build_grid, classify_boundary, hydrostatic_profile,
                     identity_field, make_barrier_data, solve_stationary)
from damflow import evolution
from damflow.assembly import Q1Assembler
from damflow.evolution import EvolutionConfig, _Stepper, project_initial, solve_unsteady, step
from damflow.problem_data import ProblemData, SolutionField


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
    assert cfg.dt * cfg.n_steps == pytest.approx(0.5)


@pytest.mark.parametrize("n_steps", [2.5, float("nan"), float("inf"), "3", None])
def test_config_rejects_a_step_count_that_is_not_whole(n_steps):
    with pytest.raises(InvalidArgument, match="n_steps must be a whole number"):
        EvolutionConfig(dt=0.1, n_steps=n_steps, penalty=PenaltyConfig(eps=1e-2))


def test_config_stores_a_whole_step_count_as_an_int():
    cfg = EvolutionConfig(dt=0.1, n_steps=2.0, penalty=PenaltyConfig(eps=1e-2))
    assert cfg.n_steps == 2 and type(cfg.n_steps) is int


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


def test_fixed_point_step_assembles_its_rows_once(monkeypatch):
    """A step that starts at its solution evaluates the operator once: the
    ledger reads the rows of the solve's start residual."""
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup()
    tags1 = classify_boundary(grid, phi1)
    steady = solve_stationary(phi1, field, grid, tags1, pen)
    stepper = _Stepper(field, grid, tags1, phi1, EvolutionConfig(dt=0.01, n_steps=1, penalty=pen))
    calls = []
    original = Q1Assembler.gravity_vector
    monkeypatch.setattr(Q1Assembler, "gravity_vector",
                        lambda asm, chi_q: calls.append(1) or original(asm, chi_q))
    _, diag = step(SolutionField(u=steady.v, chi=steady.chi), stepper)
    assert diag.newton_iters == 0
    assert len(calls) == 1


def test_drawdown_monotone_and_conservative():
    """Midpoint initial data over the lower-barrier head relaxes downward."""
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(eps=3e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.3)
    cfg = EvolutionConfig(dt=0.02, n_steps=15, penalty=pen)
    traj = solve_unsteady(data, field, grid, tags, cfg)

    assert len(traj.snapshots) == 16
    # stored mass alpha*u + chi decreases as the mound drains out
    stored = [np.sum(pen.alpha * s.u + s.chi) for s in traj.snapshots]
    assert all(b < a + 1e-12 for a, b in zip(stored, stored[1:]))
    # per-step ledger stays at rounding level
    assert max(d.mass_balance_rel for d in traj.diagnostics) <= 1e-10
    # nodal positivity and the penalty complementarity bound
    for s in traj.snapshots[1:]:
        assert np.min(s.u) >= 0.0
        assert np.max(s.u * (1.0 - s.chi)) <= pen.complementarity_bound + 1e-12


def test_first_step_honors_given_saturation():
    """A chi0 inconsistent with H_eps(u0) changes the first-step outcome."""
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=12, eps=6e-2)
    _, X2 = grid.coords()
    u0 = np.maximum(0.5 - X2, 0.0)
    from damflow.geometry import dirichlet_values
    dvals = dirichlet_values(grid, tags, phi0)
    u0[tags.dirichlet_mask] = dvals[tags.dirichlet_mask]
    chi_own = pen.heaviside(u0)
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
    assert np.all(chi0c <= pen.heaviside(v1eps.v) + 1e-15)


def test_snapshot_chi_is_ramp_of_pressure():
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=12, eps=6e-2)
    _, X2 = grid.coords()
    u0 = np.maximum(0.2 - X2, 0.0)
    from damflow.geometry import dirichlet_values
    dvals = dirichlet_values(grid, tags, phi0)
    u0[tags.dirichlet_mask] = dvals[tags.dirichlet_mask]
    data = ProblemData(alpha=pen.alpha, T_final=0.04, eps0=0.2, phi=phi0,
                       u0=u0, chi0=pen.heaviside(u0))
    cfg = EvolutionConfig(dt=0.02, n_steps=2, penalty=pen)
    traj = solve_unsteady(data, field, grid, tags, cfg)
    for idx, s in enumerate(traj.snapshots[1:], start=1):
        np.testing.assert_array_equal(s.chi, pen.heaviside(s.u))
        assert s.time == pytest.approx(traj.times[idx])


def test_ledger_splits_the_pde_total():
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=12, eps=6e-2)
    _, X2 = grid.coords()
    cfg = EvolutionConfig(dt=0.02, n_steps=1, penalty=pen)
    stepper = _Stepper(field, grid, tags, phi0, cfg)
    u = np.maximum(0.5 - X2, 0.0).ravel()
    u_next, op, _ = stepper.advance(u, pen.heaviside(u), cfg.dt)
    imbalance, inflow, scale = stepper.ledger(op, u_next)
    pde = op.pde(u_next)
    assert inflow == pytest.approx(-np.sum(pde[tags.dirichlet_mask.ravel()]) * cfg.dt)
    assert imbalance - inflow == pytest.approx(np.sum(pde) * cfg.dt, abs=1e-14 * scale)
    assert abs(imbalance) <= 1e-10 * scale


def test_ledger_equals_a_fresh_evaluation_at_the_accepted_pressure(monkeypatch):
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=24, eps=4e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.1)
    config = EvolutionConfig(dt=0.02, n_steps=5, penalty=pen)
    calls = _recording_solve(monkeypatch, failures=0)
    traj = solve_unsteady(data, field, grid, tags, config)
    fresh = _Stepper(field, grid, tags, phi0, config)
    assert len(calls) == len(traj.diagnostics)
    for (dt, g_old, (v, _), _), diag in zip(calls, traj.diagnostics):
        op = evolution.DamOperator(fresh.asm, pen, fresh.dmask, fresh.phi_flat, fresh.mlump,
                                   dt, g_old)
        imbalance, inflow, scale = fresh.ledger(op, v)
        assert diag.boundary_inflow == inflow
        assert diag.mass_balance_rel == abs(imbalance) / scale


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
    ``failures`` calls, or on the calls whose indices a set ``failures``
    holds; returns the list of (dt, g_old, (v, stats) or None, start) per
    call."""
    original = evolution.newton_picard_solve
    failing = range(failures) if isinstance(failures, int) else failures
    calls = []

    def solve(v0, residual_fn, *args, **kwargs):
        op = residual_fn.__self__
        if len(calls) in failing:
            calls.append((op.dt, op.g_old.copy(), None, v0.copy()))
            raise NonConvergence("injected", residual_norm=1.0)
        result = original(v0, residual_fn, *args, **kwargs)
        calls.append((op.dt, op.g_old.copy(), result, v0.copy()))
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
    np.testing.assert_array_equal(calls[2][1], pen.storage(calls[1][2][0]))
    # the diagnostics cover both sub-steps of the accepted attempt
    substeps = [c[2][1] for c in calls[1:]]
    assert diag.newton_iters == sum(st.iters for st in substeps)
    assert diag.residual_norm == max(st.residual_norm for st in substeps)
    final = traj.final
    assert final.time == pytest.approx(0.02)
    np.testing.assert_array_equal(final.chi, pen.heaviside(final.u))
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


def test_data_alpha_other_than_the_penalty_alpha_rejected():
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=8, eps=6e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.02)
    data.alpha = 0.0
    with pytest.raises(InvalidArgument, match=r"data alpha 0\.0 != penalty alpha 0\.3"):
        solve_unsteady(data, field, grid, tags, EvolutionConfig(dt=0.02, n_steps=1, penalty=pen))


def test_barrier_off_the_grid_rejected():
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=8, eps=6e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.02)
    coarse = build_grid(geom, 4, 4)
    v1eps = solve_stationary(phi1, field, coarse, classify_boundary(coarse, phi1), pen)
    with pytest.raises(InvalidArgument, match=r"\(9, 9\) != barrier shape \(5, 5\)"):
        solve_unsteady(data, field, grid, tags, EvolutionConfig(dt=0.02, n_steps=1, penalty=pen),
                       v1eps=v1eps)


@pytest.mark.parametrize("name", ["u", "chi"])
@pytest.mark.parametrize("layout", ["flat", "transposed"])
def test_step_rejects_a_state_off_the_grid(name, layout):
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 4, 2)
    phi0, _ = make_barrier_data(0.2, geom)
    pen = PenaltyConfig(eps=6e-2, alpha=0.3)
    stepper = _Stepper(identity_field(geom), grid, classify_boundary(grid, phi0), phi0,
                       EvolutionConfig(dt=0.02, n_steps=1, penalty=pen))
    prof = hydrostatic_profile(0.5, grid)
    state = SolutionField(u=prof.u, chi=prof.chi, time=0.0)
    # SolutionField refuses u and chi of unequal shapes, so one is set afterwards
    values = getattr(state, name)
    setattr(state, name, values.ravel() if layout == "flat" else values.T)
    shape = (15,) if layout == "flat" else (5, 3)
    with pytest.raises(InvalidArgument, match=fr"state {name} of shape {re.escape(str(shape))}"):
        step(state, stepper)


# the 32x32 midpoint run of the predictor tests takes this many Newton
# iterations in total when each step starts from the extrapolated pressure
PREDICTED_NEWTON_ITERS = 59


def _predictor_run(n_steps=20):
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=32, eps=4e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.01 * n_steps)
    config = EvolutionConfig(dt=0.01, n_steps=n_steps, penalty=pen)
    first = SolutionField(u=data.u0, chi=data.chi0, time=0.0)
    return data, field, grid, tags, config, _Stepper(field, grid, tags, phi0, config), first


def _coupled(stepper, state):
    """A copy of ``state`` whose chi is H_eps(u)."""
    u = state.u.copy()
    return SolutionField(u=u, chi=stepper.config.penalty.heaviside(u), time=state.time)


def _own_start(stepper, u):
    """The Newton start of a step from ``u`` without history."""
    start = stepper.grid.flatten(u).copy()
    start[stepper.dmask] = stepper.phi_flat[stepper.dmask]
    return start


def _storage_start(stepper, state):
    """The Newton start of a step from a pair whose chi is not H_eps(u)."""
    pen = stepper.config.penalty
    u = stepper.grid.flatten(state.u)
    start = pen.storage_preimage(pen.alpha * u + stepper.grid.flatten(state.chi), u)
    start[stepper.dmask] = stepper.phi_flat[stepper.dmask]
    return start


def _extrapolated_start(stepper, u_prev, u, ratio):
    start = np.maximum(u.ravel() + ratio * (u.ravel() - u_prev.ravel()), 0.0)
    start[stepper.dmask] = stepper.phi_flat[stepper.dmask]
    return start


def test_extrapolated_start_solves_the_same_steps_in_fewer_iterations():
    data, field, grid, tags, config, stepper, state = _predictor_run()
    traj = solve_unsteady(data, field, grid, tags, config)
    own = [state]
    diagnostics = []
    for _ in range(config.n_steps):
        stepper.history = None
        state, diag = step(state, stepper)
        own.append(state)
        diagnostics.append(diag)
    for a, b in zip(traj.snapshots, own):
        assert np.max(np.abs(a.u - b.u)) <= 1e-10
    predicted = sum(d.newton_iters for d in traj.diagnostics)
    assert predicted < sum(d.newton_iters for d in diagnostics)
    # counts repeat exactly, so a lost predictor shows here
    assert predicted == PREDICTED_NEWTON_ITERS


def test_only_the_end_of_the_last_accepted_substep_is_extrapolated(monkeypatch):
    """The midpoint pair is not coupled, so its step starts from its storage
    and feeds no history; the next step starts from its own pressure and
    every later one extrapolates."""
    data, field, grid, tags, config, stepper, first = _predictor_run()
    calls = _recording_solve(monkeypatch, failures=0)
    second, _ = step(first, stepper)
    third, _ = step(second, stepper)
    fourth, _ = step(third, stepper)
    # a copy of the state the stepper produced continues the extrapolation
    step(dataclasses.replace(fourth, u=fourth.u.copy()), stepper)
    # a coupled state the stepper did not produce starts from its own pressure
    step(_coupled(stepper, first), stepper)
    # an uncoupled one from its storage, whatever the history
    step(dataclasses.replace(first, u=first.u.copy()), stepper)
    starts = [c[3] for c in calls]
    np.testing.assert_array_equal(starts[0], _storage_start(stepper, first))
    np.testing.assert_array_equal(starts[1], _own_start(stepper, second.u))
    np.testing.assert_array_equal(starts[2], _extrapolated_start(stepper, second.u, third.u, 1.0))
    np.testing.assert_array_equal(starts[3], _extrapolated_start(stepper, third.u, fourth.u, 1.0))
    np.testing.assert_array_equal(starts[4], _own_start(stepper, first.u))
    np.testing.assert_array_equal(starts[5], _storage_start(stepper, first))


def test_retries_extrapolate_from_the_last_accepted_substep(monkeypatch):
    """From a coupled pair, the first step's retry starts from the state's
    own pressure, its second sub-step from the first.  The next step's
    attempts extrapolate from that accepted dt/2 sub-step with the ratio of
    their dt to it, and the sub-step of an attempt that failed later feeds
    nothing."""
    data, field, grid, tags, config, stepper, first = _predictor_run()
    first = _coupled(stepper, first)
    calls = _recording_solve(monkeypatch, failures=1)
    second, diag = step(first, stepper)
    assert diag.dt_halvings == 1
    middle = calls[1][2][0]
    assert [c[0] for c in calls] == [0.01, 0.005, 0.005]
    np.testing.assert_array_equal(calls[0][3], _own_start(stepper, first.u))
    np.testing.assert_array_equal(calls[1][3], _own_start(stepper, first.u))
    np.testing.assert_array_equal(calls[2][3], _extrapolated_start(stepper, first.u, middle, 1.0))

    calls = _recording_solve(monkeypatch, failures={0, 2})
    step(second, stepper)
    assert [c[0] for c in calls] == [0.01, 0.005, 0.005] + [0.0025] * 4
    for k, ratio in ((0, 2.0), (1, 1.0), (3, 0.5)):
        np.testing.assert_array_equal(calls[k][3],
                                      _extrapolated_start(stepper, middle, second.u, ratio))


def test_an_uncoupled_substep_feeds_no_extrapolation(monkeypatch):
    """From the uncoupled midpoint pair, the first attempt and the retry
    start from its storage, and the retry's second sub-step starts from its
    own pressure; that coupled sub-step feeds the next step."""
    data, field, grid, tags, config, stepper, first = _predictor_run()
    calls = _recording_solve(monkeypatch, failures=1)
    second, diag = step(first, stepper)
    assert diag.dt_halvings == 1
    middle = calls[1][2][0]
    np.testing.assert_array_equal(calls[0][3], _storage_start(stepper, first))
    np.testing.assert_array_equal(calls[1][3], _storage_start(stepper, first))
    np.testing.assert_array_equal(calls[2][3], _own_start(stepper, middle))
    calls.clear()
    step(second, stepper)
    np.testing.assert_array_equal(calls[0][3], _extrapolated_start(stepper, middle, second.u, 2.0))


def test_halved_step_reports_its_worst_start_residual(monkeypatch):
    geom, grid, tags, field, phi0, phi1, pen = _barrier_setup(n=12, eps=6e-2)
    data = _midpoint_data(grid, tags, phi0, pen, T=0.02)
    calls = _recording_solve(monkeypatch, failures=1)
    traj = solve_unsteady(data, field, grid, tags,
                          EvolutionConfig(dt=0.02, n_steps=1, penalty=pen))
    (diag,) = traj.diagnostics
    substeps = [c[2][1] for c in calls[1:]]
    assert diag.dt_halvings == 1 and len(substeps) == 2
    assert diag.initial_residual_norm == max(st.initial_residual_norm for st in substeps)
    assert diag.initial_residual_norm > diag.residual_norm
