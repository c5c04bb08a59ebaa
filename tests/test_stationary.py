import numpy as np
import pytest

from damflow import (DamGeometry, InvalidArgument, InvalidData, PenaltyConfig, build_grid,
                     classify_boundary, hydrostatic_head, identity_field,
                     layered_field, make_barrier_data, solve_stationary, two_reservoir_head)
from damflow import stationary
from damflow.assembly import REFACTOR_EVERY_SOLVE_MIN_N, Q1Assembler
from damflow.stationary import TOL_NEG, TOL_NEWTON, DamOperator, hydrostatic_initial_guess
from damflow.geometry import dirichlet_values


def _setup(n=32, k=0.5, field_maker=identity_field):
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, n, n)
    phi = hydrostatic_head(k)
    tags = classify_boundary(grid, phi)
    return grid, tags, phi, field_maker(geom)


def test_hydrostatic_exact_identity():
    grid, tags, phi, field = _setup()
    solve = solve_stationary(phi, field, grid, tags, PenaltyConfig(eps=2e-2))
    _, X2 = grid.coords()
    exact = np.maximum(0.5 - X2, 0.0)
    # the penalty smears the water table over a band of width ~eps
    assert np.max(np.abs(solve.v - exact)) <= 1.5 * 2e-2
    assert np.min(solve.v) >= 0.0
    np.testing.assert_array_equal(solve.chi, np.clip(solve.v / 2e-2, 0.0, 1.0))


def test_hydrostatic_exact_layered():
    # a = diag(1, 1 + x2) leaves the hydrostatic profile stationary as well
    grid, tags, phi, field = _setup(field_maker=lambda g: layered_field(1.0, 1.0, 1.0, g))
    solve = solve_stationary(phi, field, grid, tags, PenaltyConfig(eps=2e-2))
    _, X2 = grid.coords()
    assert np.max(np.abs(solve.v - np.maximum(0.5 - X2, 0.0))) <= 1.5 * 2e-2


def _upper_barrier(n):
    """The upper barrier head (K - eps0 - x2)+ with eps0 = 0.1.  K - eps0 lies
    off the grid lines at n = 24, so its hydrostatic guess is no solution."""
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, n, n)
    phi = make_barrier_data(0.1, geom)[1]
    return grid, classify_boundary(grid, phi), phi, identity_field(geom)


def test_subgrid_eps_continuation_and_positivity():
    grid, tags, phi, field = _upper_barrier(24)
    solve = solve_stationary(phi, field, grid, tags, PenaltyConfig(eps=5e-3))
    assert solve.diagnostics["continuation_steps"] > 1
    assert float(np.min(solve.v)) >= -TOL_NEG


def test_initial_residual_norm_is_the_hydrostatic_guess_at_first_eps():
    grid, tags, phi, field = _upper_barrier(24)
    solve = solve_stationary(phi, field, grid, tags, PenaltyConfig(eps=5e-3))
    phi_flat = dirichlet_values(grid, tags, phi).ravel()
    v0 = hydrostatic_initial_guess(grid, tags.dirichlet_mask.ravel(), phi_flat)
    first_eps = PenaltyConfig(eps=stationary._EPS_RESOLVED_CELLS * grid.h2)
    r0 = DamOperator(Q1Assembler(grid, field), first_eps, tags.dirichlet_mask.ravel(),
                     v0).residual(v0)
    assert solve.diagnostics["initial_residual_norm"] == pytest.approx(np.linalg.norm(r0),
                                                                       rel=1e-12)


@pytest.mark.parametrize("n, eps_cells, field_maker", [
    (24, 5e-3 * 24, identity_field),
    (48, 0.12, identity_field),
    (64, 0.2, identity_field),
    (32, 0.2, lambda g: layered_field(1.0, 1.0, 1.0, g)),
])
def test_exact_start_skips_the_eps_ladder(n, eps_cells, field_maker):
    """A hydrostatic level on a grid line makes the guess exact once eps is
    below the smallest quadrature-point pressure of the cells under it
    (about 0.21 h2); walking down the ladder from it used to stall."""
    grid, tags, phi, field = _setup(n=n, field_maker=field_maker)
    eps = eps_cells * grid.h2
    solve = solve_stationary(phi, field, grid, tags, PenaltyConfig(eps=eps))
    assert eps < stationary._EPS_RESOLVED_CELLS * grid.h2
    assert solve.diagnostics["continuation_steps"] == 1 and solve.newton_iters == 0
    assert solve.diagnostics["initial_residual_norm"] <= TOL_NEWTON
    _, X2 = grid.coords()
    np.testing.assert_array_equal(solve.v, np.maximum(0.5 - X2, 0.0))


def test_picard_method_converges():
    grid, tags, phi, field = _setup(n=16)
    solve = solve_stationary(phi, field, grid, tags, PenaltyConfig(eps=3e-2),
                             method="picard")
    _, X2 = grid.coords()
    assert np.max(np.abs(solve.v - np.maximum(0.5 - X2, 0.0))) <= 1.5 * 3e-2


def _two_reservoir_dam(eps, method="newton"):
    """The classical two-reservoir dam (2x1, heads 0.9 and 0.2) at 128x64,
    above the two-grid crossover."""
    geom = DamGeometry(2.0, 1.0)
    grid = build_grid(geom, 128, 64)
    assert grid.n_nodes >= REFACTOR_EVERY_SOLVE_MIN_N
    phi = two_reservoir_head(0.9, 0.2, geom)
    return solve_stationary(phi, identity_field(geom), grid, classify_boundary(grid, phi),
                            PenaltyConfig(eps=eps, alpha=0.0), method=method)


def _count_matrix_builds(monkeypatch):
    """Record every DamOperator Jacobian and Picard matrix build."""
    builds = []
    for name in ("jacobian", "picard"):
        def build(self, u, name=name, original=getattr(DamOperator, name)):
            builds.append(name)
            return original(self, u)
        monkeypatch.setattr(DamOperator, name, build)
    return builds


def test_two_grid_stationary_solve_needs_no_lu_fallback(monkeypatch):
    # Jacobi-BiCGStab needed 3 LU factorizations on this solve
    builds = _count_matrix_builds(monkeypatch)
    solve = _two_reservoir_dam(8e-3)
    assert solve.diagnostics["clamped_nodes"] > 0
    assert solve.diagnostics["linear_fallbacks"] == 0
    assert float(np.min(solve.v)) >= 0.0
    # every rung and contact round counts, not just the last solve
    assert solve.newton_iters == len(builds)


def test_picard_request_reports_every_solve(monkeypatch):
    builds = _count_matrix_builds(monkeypatch)
    solve = _two_reservoir_dam(8e-3, method="picard")
    assert solve.method.startswith("picard")
    assert solve.newton_iters == len(builds)
    assert "picard" in builds
    # Picard's path ends at a failed line search before Newton takes over
    assert solve.diagnostics["line_search_failures"] >= 1


def test_picard_above_the_crossover_agrees_with_newton():
    newton = _two_reservoir_dam(1.5e-2)
    picard = _two_reservoir_dam(1.5e-2, method="picard")
    assert picard.method.startswith("picard")
    assert picard.diagnostics["linear_fallbacks"] == 0
    assert np.max(np.abs(picard.v - newton.v)) <= TOL_NEWTON


def test_boundary_values_held_exactly():
    grid, tags, phi, field = _setup(n=16)
    solve = solve_stationary(phi, field, grid, tags, PenaltyConfig(eps=3e-2))
    vals = dirichlet_values(grid, tags, phi)
    np.testing.assert_allclose(solve.v[tags.dirichlet_mask], vals[tags.dirichlet_mask],
                               atol=1e-12)


def test_negative_boundary_head_rejected():
    grid, tags, phi, field = _setup(n=8)
    with pytest.raises(InvalidData):
        solve_stationary(lambda x1, x2: -1.0, field, grid, tags, PenaltyConfig(eps=1e-2))


def test_tags_of_another_grid_rejected():
    grid, _, phi, field = _setup(n=4)
    _, tags, _, _ = _setup(n=8)
    with pytest.raises(InvalidArgument, match="tags of shape"):
        solve_stationary(phi, field, grid, tags, PenaltyConfig(eps=1e-1))


def test_initial_guess_uses_wet_nodes_only():
    grid, tags, phi, field = _setup(n=8, k=0.5)
    phi_flat = dirichlet_values(grid, tags, phi).ravel()
    v0 = hydrostatic_initial_guess(grid, tags.dirichlet_mask.ravel(),
                                   phi_flat).reshape(grid.shape)
    _, X2 = grid.coords()
    # dry pervious nodes must not inflate the inferred water level to K
    np.testing.assert_allclose(v0, np.maximum(0.5 - X2, 0.0), atol=1e-12)


def test_converged_residual_small():
    grid, tags, phi, field = _setup(n=16)
    cfg = PenaltyConfig(eps=3e-2)
    solve = solve_stationary(phi, field, grid, tags, cfg)
    v = solve.v.ravel()
    r = DamOperator(Q1Assembler(grid, field), cfg, tags.dirichlet_mask.ravel(), v).residual(v)
    free = ~tags.dirichlet_mask.ravel()
    # the active-set polish pins contact nodes (values at rounding level),
    # whose rows carry the nonnegative reaction; every other free row is
    # converged
    contact = (solve.v.ravel() < 1e-12) & free
    assert np.max(np.abs(r[free & ~contact])) < 1e-9
    assert np.min(r[contact], initial=0.0) > -TOL_NEG


def _operator(storage, extra_pins, n=8, eps=0.1):
    """DamOperator on a hydrostatic setup, at a state away from the ramp kinks."""
    grid, tags, phi, field = _setup(n=n)
    asm = Q1Assembler(grid, field)
    pen = PenaltyConfig(eps=eps, alpha=0.3)
    X1, X2 = grid.coords()
    u = (0.56 - X2 + 0.01 * np.sin(7.0 * X1)).ravel()
    pinned = tags.dirichlet_mask.ravel().copy()
    values = dirichlet_values(grid, tags, phi).ravel()
    if extra_pins:
        pinned[[20, 31, 42]] = True
        values[[20, 31, 42]] = [0.1, 0.0, 0.3]
    kw = {}
    if storage:
        kw = {"mlump": asm.lumped_mass(), "dt": 0.05, "g_old": pen.storage(u + 0.02)}
    return DamOperator(asm, pen, pinned, values, **kw), u


@pytest.mark.parametrize("storage", [False, True])
@pytest.mark.parametrize("extra_pins", [False, True])
def test_operator_jacobian_is_derivative_of_residual(storage, extra_pins):
    op, u = _operator(storage, extra_pins)
    h = 1e-6
    # the residual is piecewise linear; keep every nodal and quadrature value
    # off the ramp kinks 0 and eps by more than the difference step
    for vals in (u, op.asm.interp_at_quad(u)):
        assert np.min(np.minimum(np.abs(vals), np.abs(vals - op.penalty.eps))) > 10 * h
    J = op.jacobian(u).toarray()
    fd = np.empty_like(J)
    for j in range(u.size):
        e = np.zeros(u.size)
        e[j] = h
        fd[:, j] = (op.residual(u + e) - op.residual(u - e)) / (2 * h)
    np.testing.assert_allclose(J, fd, rtol=0, atol=1e-8 * np.max(np.abs(J)))


@pytest.mark.parametrize("storage", [False, True])
def test_operator_pinned_rows_read_u_minus_values(storage):
    op, u = _operator(storage, extra_pins=True)
    r = op.residual(u)
    np.testing.assert_array_equal(r[op.pinned], u[op.pinned] - op.values[op.pinned])
    np.testing.assert_array_equal(r[~op.pinned], op.pde(u)[~op.pinned])


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _count_row_assemblies(monkeypatch):
    """Count ``Q1Assembler.gravity_vector`` calls: one per evaluation of the rows."""
    calls = []
    original = Q1Assembler.gravity_vector

    def counted(self, chi_q):
        calls.append(1)
        return original(self, chi_q)

    monkeypatch.setattr(Q1Assembler, "gravity_vector", counted)
    return calls


def test_storage_operator_assembles_a_pressure_once(monkeypatch):
    op, u = _operator(storage=True, extra_pins=True)
    fresh, _ = _operator(storage=True, extra_pins=True)
    pde, r = fresh.pde(u), fresh.residual(u)
    calls = _count_row_assemblies(monkeypatch)
    assert _same_bits(op.residual(u), r)
    # an equal pressure in another array reads the kept rows
    assert _same_bits(op.pde(u.copy()), pde)
    assert _same_bits(op.residual(u.copy()), r)
    assert len(calls) == 1


def test_storage_operator_gives_fresh_bits_after_the_caller_mutates(monkeypatch):
    op, u = _operator(storage=True, extra_pins=True)

    def fresh():
        return _operator(storage=True, extra_pins=True)[0]

    op.residual(u)[:] = 7.0
    op.pde(u)[:] = -1.0
    assert _same_bits(op.pde(u), fresh().pde(u))
    assert _same_bits(op.residual(u), fresh().residual(u))
    calls = _count_row_assemblies(monkeypatch)
    u[5] += 1e-3
    assert _same_bits(op.pde(u), fresh().pde(u))
    # a pressure that differs only in the sign of a zero is another pressure
    u[7] = 0.0
    op.pde(u)
    u[7] = -0.0
    op.pde(u)
    assert len(calls) == 4


def test_stationary_operator_keeps_no_rows(monkeypatch):
    op, u = _operator(storage=False, extra_pins=False)
    calls = _count_row_assemblies(monkeypatch)
    op.pde(u)
    op.residual(u)
    assert len(calls) == 2
