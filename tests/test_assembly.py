import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from damflow import (DamGeometry, PenaltyConfig, build_grid, classify_boundary,
                     constant_anisotropic_field, hydrostatic_head, identity_field, layered_field)
from damflow import assembly
from damflow.assembly import (KRYLOV_RTOL, REFACTOR_EVERY_SOLVE_MIN_N, LinearSolver, Q1Assembler,
                              apply_dirichlet_matrix, apply_dirichlet_system, _gauss_1d)
from damflow.errors import InvalidArgument
from damflow.stationary import DamOperator


def _setup(nx=6, ny=4, field_maker=identity_field, L=1.5, K=1.0):
    geom = DamGeometry(L, K)
    grid = build_grid(geom, nx, ny)
    return grid, Q1Assembler(grid, field_maker(geom))


def test_gauss_rule_integrates_polynomials():
    pts, wts = _gauss_1d(3)
    for p in range(6):  # exact through degree 2n-1 = 5
        exact = (1.0 - (-1.0) ** (p + 1)) / (p + 1)
        assert np.dot(wts, pts ** p) == pytest.approx(exact, abs=1e-14)
    with pytest.raises(InvalidArgument):
        _gauss_1d(0)


def test_mass_matrix_total_is_area():
    grid, asm = _setup()
    ones = np.ones(grid.n_nodes)
    assert ones @ (asm.mass() @ ones) == pytest.approx(grid.geometry.area)
    assert asm.lumped_mass().sum() == pytest.approx(grid.geometry.area)
    assert asm.integrate(ones) == pytest.approx(grid.geometry.area)


def test_stiffness_annihilates_constants():
    grid, asm = _setup(field_maker=lambda g: layered_field(2.0, 1.0, 0.5, g))
    ones = np.ones(grid.n_nodes)
    assert np.max(np.abs(asm.stiffness() @ ones)) < 1e-13


def test_stiffness_exact_on_linear_fields():
    # for v = x1 and w = x2, v.(A w) = integral a12 over the rectangle
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 8, 8)
    from damflow import constant_anisotropic_field
    asm = Q1Assembler(grid, constant_anisotropic_field(2.0, 0.25, 3.0, geom))
    X1, X2 = grid.coords()
    v = grid.flatten(X1)
    w = grid.flatten(X2)
    assert v @ (asm.stiffness() @ v) == pytest.approx(2.0)
    assert w @ (asm.stiffness() @ w) == pytest.approx(3.0)
    assert v @ (asm.stiffness() @ w) == pytest.approx(0.25)


def test_stiffness_matches_dense_quadrature_oracle():
    """Element integrals recomputed with a dense high-order rule."""
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 3, 3)
    field = layered_field(1.0, 1.0, 1.0, geom)
    asm = Q1Assembler(grid, field)
    oracle = Q1Assembler(grid, field, n_gauss=6)
    # a22 is linear in x2, so the 2x2 rule already integrates the element
    # forms exactly and both assemblies must agree to rounding
    diff = (asm.stiffness() - oracle.stiffness()).toarray()
    assert np.max(np.abs(diff)) < 1e-13


def test_interp_at_quad_reproduces_bilinear():
    grid, asm = _setup(4, 4, L=1.0, K=1.0)
    X1, X2 = grid.coords()
    v = grid.flatten(2.0 + X1 * X2)
    vq = asm.interp_at_quad(v)
    np.testing.assert_allclose(vq, 2.0 + asm.xq * asm.yq, atol=1e-14)


def test_gravity_vector_is_weak_divergence_pairing():
    # integral chi (a e).grad(w) with chi = 1 and w = x2 equals
    # integral a22 over the rectangle
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 8, 8)
    asm = Q1Assembler(grid, layered_field(1.0, 2.0, 1.0, geom))
    chi_q = np.ones((grid.n_cells, asm.nq))
    g = asm.gravity_vector(chi_q)
    _, X2 = grid.coords()
    w = grid.flatten(X2)
    assert g @ w == pytest.approx(2.5)  # integral of 2 + x2
    v = grid.flatten(grid.coords()[0])
    assert g @ v == pytest.approx(0.0, abs=1e-13)  # a12 = 0


@pytest.mark.parametrize("field_maker", [identity_field,
                                         lambda g: constant_anisotropic_field(2.0, 0.25, 3.0, g)])
def test_gravity_vector_has_the_bits_of_the_full_sum(field_maker):
    """Skipping the a12 term of an axis-aligned field changes no bit, signed
    zeros included."""
    grid, asm = _setup(8, 6, field_maker)
    rng = np.random.default_rng(2)
    chi_q = np.where(rng.random((grid.n_cells, asm.nq)) < 0.3, 0.0,
                     rng.uniform(-0.5, 1.5, (grid.n_cells, asm.nq)))
    w = asm.wq[None, :] * chi_q
    contrib = np.einsum("cq,qm->cm", w * asm.a12, asm.gx)
    contrib += np.einsum("cq,qm->cm", w * asm.a22, asm.gy)
    full = np.zeros(grid.n_nodes)
    np.add.at(full, asm.conn.ravel(), contrib.ravel())
    assert asm.has_a12 == (field_maker is not identity_field)
    assert np.array_equal(asm.gravity_vector(chi_q).view(np.int64), full.view(np.int64))


@pytest.mark.parametrize("field_maker", [identity_field,
                                         lambda g: constant_anisotropic_field(2.0, 0.25, 3.0, g)])
def test_stiffness_has_the_bits_of_the_full_sum(field_maker):
    """Skipping the a12 terms of an axis-aligned field changes no bit."""
    grid, asm = _setup(8, 6, field_maker)
    w = asm.wq[None, :]
    local = (np.einsum("cq,qm,qn->cmn", w * asm.a11, asm.gx, asm.gx)
             + np.einsum("cq,qm,qn->cmn", w * asm.a12, asm.gx, asm.gy)
             + np.einsum("cq,qm,qn->cmn", w * asm.a12, asm.gy, asm.gx)
             + np.einsum("cq,qm,qn->cmn", w * asm.a22, asm.gy, asm.gy))
    full = asm._scatter_matrix(local)
    K = asm.stiffness()
    assert asm.has_a12 == (field_maker is not identity_field)
    assert np.array_equal(K.indices, full.indices) and np.array_equal(K.indptr, full.indptr)
    assert np.array_equal(K.data.view(np.int64), full.data.view(np.int64))


def test_gravity_jacobian_is_derivative_of_vector():
    grid, asm = _setup(4, 4)
    rng = np.random.default_rng(0)
    v = rng.uniform(0.2, 0.8, grid.n_nodes)
    dv = rng.standard_normal(grid.n_nodes)
    # chi(u) = u at quad points gives dchi = 1; the pairing is linear so the
    # Jacobian-vector product must match the difference quotient exactly
    J = asm.gravity_jacobian(np.ones((grid.n_cells, asm.nq)))
    g0 = asm.gravity_vector(asm.interp_at_quad(v))
    g1 = asm.gravity_vector(asm.interp_at_quad(v + dv))
    np.testing.assert_allclose(J @ dv, g1 - g0, atol=1e-13)


def test_energy_equals_quadratic_form():
    grid, asm = _setup()
    rng = np.random.default_rng(1)
    v = rng.standard_normal(grid.n_nodes)
    assert asm.energy(v) == pytest.approx(v @ (asm.stiffness() @ v))


def test_apply_dirichlet_matrix_identity_rows():
    grid, asm = _setup(3, 3)
    mask = np.zeros(grid.n_nodes, dtype=bool)
    mask[[0, 5, 11]] = True
    A = apply_dirichlet_matrix(asm.stiffness(), mask)
    dense = A.toarray()
    for n in np.flatnonzero(mask):
        row = np.zeros(grid.n_nodes)
        row[n] = 1.0
        np.testing.assert_array_equal(dense[n], row)


def test_symmetric_elimination_same_solution_as_row_replacement():
    grid, asm = _setup(5, 5)
    rng = np.random.default_rng(2)
    mask = np.zeros(grid.n_nodes, dtype=bool)
    mask[rng.choice(grid.n_nodes, 8, replace=False)] = True
    # a correction's right-hand side: zero on the pinned rows
    rhs = np.where(mask, 0.0, rng.standard_normal(grid.n_nodes))

    A = asm.stiffness() + sp.identity(grid.n_nodes)  # make it nonsingular
    x_ref = spla.splu(apply_dirichlet_matrix(A, mask).tocsc()).solve(rhs)

    A_sym = apply_dirichlet_system(A, mask)
    x_sym = spla.splu(A_sym.tocsc()).solve(rhs)
    np.testing.assert_allclose(x_sym, x_ref, atol=1e-11)
    assert np.max(np.abs((A_sym - A_sym.T).toarray())) < 1e-14


def test_linear_solver_matches_direct_and_counts_fallbacks():
    grid, asm = _setup(6, 6)
    A = (asm.stiffness() + sp.identity(grid.n_nodes)).tocsr()
    b = np.sin(np.arange(grid.n_nodes, dtype=float))
    solver = LinearSolver(asm.prolongation())
    x = solver.solve(A, b, symmetric=True)
    np.testing.assert_allclose(x, spla.splu(A.tocsc()).solve(b), atol=1e-8)
    assert solver.fallbacks == 0
    assert np.array_equal(solver.solve(A, np.zeros_like(b), symmetric=True),
                          np.zeros_like(b))


def _pinned_jacobian(nx, ny):
    """Newton Jacobian of a storage-free anisotropic ramp problem with its
    Dirichlet rows and three extra pinned nodes."""
    geom = DamGeometry(1.5, 1.0)
    grid = build_grid(geom, nx, ny)
    asm = Q1Assembler(grid, constant_anisotropic_field(2.0, 0.25, 3.0, geom))
    _, X2 = grid.coords()
    rng = np.random.default_rng(3)
    u = grid.flatten(np.maximum(0.5 - X2, 0.0)) + 0.01 * rng.standard_normal(grid.n_nodes)
    pinned = classify_boundary(grid, hydrostatic_head(0.5)).dirichlet_mask.ravel().copy()
    pinned[[grid.n_nodes // 3, grid.n_nodes // 2, grid.n_nodes // 2 + 1]] = True
    op = DamOperator(asm, PenaltyConfig(eps=0.1, alpha=0.3), pinned, np.zeros(grid.n_nodes))
    return asm, op, u, rng.standard_normal(grid.n_nodes)


def test_krylov_solve_is_scale_invariant():
    """scipy's BiCGStab breakdown thresholds are absolute; a tiny right-hand
    side must give the scaled solution, not a breakdown and an LU rescue."""
    asm, op, u, b = _pinned_jacobian(16, 16)
    J = op.jacobian(u)
    solver, small = LinearSolver(asm.prolongation()), LinearSolver(asm.prolongation())
    x = solver.solve(J, b, symmetric=False)
    x_small = small.solve(J, 1e-14 * b, symmetric=False)
    # unscaled, the tiny right-hand side breaks BiCGStab down (info = -10)
    assert solver.fallbacks == 0 and small.fallbacks == 0
    # both solves stop at the Krylov tolerance, so they agree to about it
    assert np.linalg.norm(x_small / 1e-14 - x) <= KRYLOV_RTOL * np.linalg.norm(x)
    np.testing.assert_allclose(x, spla.splu(J.tocsc()).solve(b), rtol=0, atol=1e-8)


@pytest.mark.parametrize("nx, ny", [(3, 2), (8, 8), (16, 5), (127, 63)])
def test_nine_point_pattern_equals_the_sorted_unique_construction(nx, ny):
    grid, asm = _setup(nx, ny)
    n = grid.n_nodes
    keys = (asm.conn[:, :, None] * n + asm.conn[:, None, :]).ravel()
    pattern, slot = np.unique(keys, return_inverse=True)
    rows, cols = np.divmod(pattern, n)
    assert np.array_equal(asm.indices, cols)
    assert np.array_equal(asm.indptr, np.searchsorted(rows, np.arange(n + 1)))
    assert np.array_equal(asm.slot, slot.reshape(asm.conn.shape + (4,)))
    assert np.array_equal(asm.diag_slot, np.flatnonzero(rows == cols))
    assert asm.indices.dtype == np.int32 and asm.indptr.dtype == np.int32


@pytest.mark.parametrize("nx, ny", [(2, 2), (5, 3), (8, 6), (9, 7)])
def test_prolongation_reproduces_bilinear_fields(nx, ny):
    grid, asm = _setup(nx, ny)
    P = asm.prolongation()
    # coarse lines: every other fine line, plus the last one
    cx = np.unique(np.append(np.arange(0, nx + 1, 2), nx)) * grid.h1
    cy = np.unique(np.append(np.arange(0, ny + 1, 2), ny)) * grid.h2
    assert P.shape == (grid.n_nodes, cx.size * cy.size)
    CX, CY = np.meshgrid(cx, cy)
    X1, X2 = grid.coords()

    def f(x, y):
        return 2.0 - 0.5 * x + 3.0 * y + 1.25 * x * y

    np.testing.assert_allclose(P @ f(CX, CY).ravel(), grid.flatten(f(X1, X2)), rtol=0,
                               atol=1e-14)


@pytest.fixture
def krylov_log(monkeypatch):
    """Records the size of each two-grid cycle built and counts Krylov iterations."""
    log = {"two_grid": [], "iters": 0}
    cycle = assembly.two_grid_preconditioner

    def counted(A, *args, **kwargs):
        log["two_grid"].append(A.shape[0])
        return cycle(A, *args, **kwargs)

    def counting(krylov):
        def run(*args, callback=None, **kwargs):
            def tick(xk):
                log["iters"] += 1
                if callback is not None:
                    callback(xk)
            return krylov(*args, callback=tick, **kwargs)
        return run

    monkeypatch.setattr(assembly, "two_grid_preconditioner", counted)
    monkeypatch.setattr(assembly.spla, "cg", counting(assembly.spla.cg))
    monkeypatch.setattr(assembly.spla, "bicgstab", counting(assembly.spla.bicgstab))
    return log


# Jacobi needs ~200 (BiCGStab) and ~290 (CG) iterations on these systems
TWO_GRID_MAX_ITERS = 25


def test_two_grid_bicgstab_matches_splu_on_a_pinned_jacobian(krylov_log):
    asm, op, u, b = _pinned_jacobian(96, 64)
    assert asm.grid.n_nodes >= REFACTOR_EVERY_SOLVE_MIN_N
    J = op.jacobian(u)
    solver = LinearSolver(prolongation=asm.prolongation())
    x = solver.solve(J, b, symmetric=False)
    assert krylov_log["two_grid"] == [asm.grid.n_nodes] and solver.fallbacks == 0
    assert krylov_log["iters"] <= TWO_GRID_MAX_ITERS
    x_ref = spla.splu(J.tocsc()).solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_two_grid_cg_matches_splu_on_a_picard_system(krylov_log):
    asm, op, u, _ = _pinned_jacobian(96, 64)
    A, rhs = op.picard(u), -op.residual(u)
    solver = LinearSolver(prolongation=asm.prolongation())
    x = solver.solve(A, rhs, symmetric=True)
    assert krylov_log["two_grid"] == [asm.grid.n_nodes] and solver.fallbacks == 0
    assert krylov_log["iters"] <= TWO_GRID_MAX_ITERS
    x_ref = spla.splu(A.tocsc()).solve(rhs)
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def _solve_and_check(solver, A, b, symmetric=False):
    """Solve, check against splu and return the solve's Krylov iterations."""
    before = solver.krylov_iters
    x = solver.solve(A, b, symmetric=symmetric)
    x_ref = spla.splu(A.tocsc()).solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)
    return solver.krylov_iters - before


def test_small_systems_reuse_the_coarse_factor(krylov_log):
    asm, op, u, b = _pinned_jacobian(64, 64)
    assert asm.grid.n_nodes < REFACTOR_EVERY_SOLVE_MIN_N
    solver = LinearSolver(prolongation=asm.prolongation())
    shifted = u + 1e-3 * np.random.default_rng(5).standard_normal(u.size)
    first = _solve_and_check(solver, op.jacobian(u), b)
    second = _solve_and_check(solver, op.jacobian(shifted), b)
    # one factor, a smoother per solve, and the solver counts what the log sees
    assert solver.coarse_factors == 1 and krylov_log["two_grid"] == [asm.grid.n_nodes] * 2
    assert second <= 2 * first + 5
    assert solver.krylov_iters == krylov_log["iters"] and solver.fallbacks == 0


def test_iteration_growth_rebuilds_the_coarse_factor():
    asm, op, u, b = _pinned_jacobian(64, 64)
    solver = LinearSolver(prolongation=asm.prolongation())
    J = op.jacobian(u)
    first = _solve_and_check(solver, J, b)
    # rows scaled by 1e3 on a third of the domain: the old coarse factor no
    # longer fits, the solve grows past 2 n0 + 5 and the next one rebuilds
    X1, _ = asm.grid.coords()
    scaled = (sp.diags(asm.grid.flatten(np.where(X1 > 1.0, 1e3, 1.0))) @ J).tocsr()
    assert _solve_and_check(solver, scaled, b) > 2 * first + 5
    # the solve that grew retires the factor itself
    assert solver.coarse_factors == 1 and solver._coarse_symmetric is None
    assert _solve_and_check(solver, scaled, b) <= 2 * first + 5
    assert solver.coarse_factors == 2 and solver.fallbacks == 0


def test_symmetric_solve_after_a_nonsymmetric_one_rebuilds():
    asm, op, u, b = _pinned_jacobian(64, 64)
    solver = LinearSolver(prolongation=asm.prolongation())
    _solve_and_check(solver, op.jacobian(u), b)
    A, rhs = op.picard(u), -op.residual(u)
    _solve_and_check(solver, A, rhs, symmetric=True)
    assert solver.coarse_factors == 2
    _solve_and_check(solver, A, rhs, symmetric=True)
    assert solver.coarse_factors == 2


def test_failed_solve_rebuilds_the_coarse_factor(monkeypatch):
    asm, op, u, b = _pinned_jacobian(64, 64)
    solver = LinearSolver(prolongation=asm.prolongation())
    J = op.jacobian(u)
    _solve_and_check(solver, J, b)
    bicgstab = assembly.spla.bicgstab
    monkeypatch.setattr(assembly.spla, "bicgstab", lambda A, b, **kw: (np.zeros_like(b), 1))
    with solver.tolerance(1e-10, rescue=False):
        assert solver.solve(J, b, symmetric=False) is None
    monkeypatch.setattr(assembly.spla, "bicgstab", bicgstab)
    # the failed solve retires the factor itself
    assert solver.coarse_factors == 1 and solver._coarse_symmetric is None
    _solve_and_check(solver, J, b)
    assert solver.coarse_factors == 2 and solver.fallbacks == 0


def test_large_systems_refactor_on_every_solve(krylov_log):
    asm, op, u, b = _pinned_jacobian(96, 64)
    assert asm.grid.n_nodes >= REFACTOR_EVERY_SOLVE_MIN_N
    solver = LinearSolver(prolongation=asm.prolongation())
    J = op.jacobian(u)
    _solve_and_check(solver, J, b)
    _solve_and_check(solver, J, b)
    assert solver.coarse_factors == 2 and krylov_log["two_grid"] == [asm.grid.n_nodes] * 2
    assert solver.krylov_iters == krylov_log["iters"]
    # a factor this large is not kept past its solve, so it adds no peak memory
    assert solver._coarse is None


@pytest.fixture
def splu_sizes(monkeypatch):
    """Records the size of every matrix ``splu`` factors."""
    sizes = []
    splu = spla.splu

    def recorded(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(assembly.spla, "splu", recorded)
    return sizes


def _level_sizes(prolongations):
    return [P.shape[0] for P in prolongations] + [prolongations[-1].shape[1]]


@pytest.mark.parametrize("nx, ny, sizes", [(64, 64, [4225, 1089, 289]),
                                           (97, 65, [6468, 1700, 468])])
def test_coarse_levels_above_the_crossover_recurse(monkeypatch, splu_sizes, nx, ny, sizes):
    monkeypatch.setattr(assembly, "REFACTOR_EVERY_SOLVE_MIN_N", 1000)
    asm, op, u, b = _pinned_jacobian(nx, ny)
    prolongations = asm.prolongations()
    assert _level_sizes(prolongations) == sizes
    solver = LinearSolver(*prolongations)
    J, A, rhs = op.jacobian(u), op.picard(u), -op.residual(u)
    x_ref, y_ref = spla.splu(J.tocsc()).solve(b), spla.splu(A.tocsc()).solve(rhs)
    splu_sizes.clear()

    # the preconditioner CG sees is symmetric on the Picard matrix
    M = solver._preconditioner(A, symmetric=True)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y = rng.standard_normal((2, A.shape[0]))
        My = M.matvec(y)
        assert abs(x @ My - y @ M.matvec(x)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(My)

    x = solver.solve(J, b, symmetric=False)
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)
    y = solver.solve(A, rhs, symmetric=True)
    assert np.linalg.norm(y - y_ref) <= 1e-8 * np.linalg.norm(y_ref)
    # only the first level below the crossover is factored, once per build,
    # and the whole hierarchy goes with the solve
    assert splu_sizes == [sizes[-1]] * 3 and solver.coarse_factors == 3
    assert solver.fallbacks == 0 and solver._coarse is None


def test_a_one_cell_coarse_axis_maps_by_the_identity(monkeypatch, splu_sizes):
    monkeypatch.setattr(assembly, "REFACTOR_EVERY_SOLVE_MIN_N", 1000)
    asm, op, u, b = _pinned_jacobian(2, 1400)
    prolongations = asm.prolongations()
    assert _level_sizes(prolongations) == [4203, 1402, 702]
    J = op.jacobian(u)
    x = LinearSolver(*prolongations).solve(J, b, symmetric=False)
    assert splu_sizes == [702]
    x_ref = spla.splu(J.tocsc()).solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_large_systems_factor_only_below_the_crossover(splu_sizes):
    asm, op, u, b = _pinned_jacobian(256, 128)
    J = op.jacobian(u)
    solver = LinearSolver(*asm.prolongations())
    x = solver.solve(J, b, symmetric=False)
    assert splu_sizes and max(splu_sizes) < REFACTOR_EVERY_SOLVE_MIN_N
    assert np.linalg.norm(J @ x - b) <= 1e-8 * np.linalg.norm(b)
    assert solver.fallbacks == 0 and solver._coarse is None


def _coo_matrix(asm, local):
    """Element blocks summed through COO, as the assembly did before it kept
    a fixed pattern."""
    n = asm.grid.n_nodes
    rows = np.repeat(asm.conn, 4, axis=1).ravel()
    cols = np.tile(asm.conn, (1, 4)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _full_gravity_jacobian(asm, dchi_q):
    w = asm.wq[None, :] * dchi_q
    local = np.einsum("cq,qm,qn->cmn", w * asm.a12, asm.gx, asm.N)
    local += np.einsum("cq,qm,qn->cmn", w * asm.a22, asm.gy, asm.N)
    return _coo_matrix(asm, local)


def _ramp_problem():
    """8x8 anisotropic (a12 != 0) grid and a pressure whose ramp band 0 < u < eps
    covers some cells and misses others."""
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 8, 8)
    asm = Q1Assembler(grid, constant_anisotropic_field(2.0, 0.25, 3.0, geom))
    _, X2 = grid.coords()
    rng = np.random.default_rng(3)
    u = grid.flatten(np.maximum(0.5 - X2, 0.0)) + 0.01 * rng.standard_normal(grid.n_nodes)
    return grid, asm, PenaltyConfig(eps=0.1, alpha=0.3), u


def test_gravity_jacobian_on_the_band_equals_full_grid_evaluation():
    grid, asm, pen, u = _ramp_problem()
    dchi = pen.heaviside_derivative(asm.interp_at_quad(u))
    band = np.any(dchi != 0.0, axis=1)
    assert 0 < band.sum() < grid.n_cells
    G = asm.gravity_jacobian(dchi)
    assert np.array_equal(G.indptr, asm.indptr) and np.array_equal(G.indices, asm.indices)
    np.testing.assert_array_equal(G.toarray(), _full_gravity_jacobian(asm, dchi).toarray())
    assert G.nnz == asm.indices.size
    assert asm.gravity_jacobian(np.zeros_like(dchi)).data.dtype == float


@pytest.mark.parametrize("storage", [False, True])
@pytest.mark.parametrize("extra_pins", [False, True])
def test_fixed_pattern_jacobian_matches_the_sparse_sum(storage, extra_pins):
    grid, asm, pen, u = _ramp_problem()
    pinned = classify_boundary(grid, hydrostatic_head(0.5)).dirichlet_mask.ravel().copy()
    if extra_pins:
        pinned[[20, 21, 40]] = True
    mlump, dt = asm.lumped_mass(), 0.01
    op = DamOperator(asm, pen, pinned, np.zeros(grid.n_nodes),
                     *((mlump, dt, np.zeros(grid.n_nodes)) if storage else ()))

    w = asm.wq[None, :]
    K = _coo_matrix(asm, np.einsum("cq,qm,qn->cmn", w * asm.a11, asm.gx, asm.gx)
                    + np.einsum("cq,qm,qn->cmn", w * asm.a12, asm.gx, asm.gy)
                    + np.einsum("cq,qm,qn->cmn", w * asm.a12, asm.gy, asm.gx)
                    + np.einsum("cq,qm,qn->cmn", w * asm.a22, asm.gy, asm.gy))
    J = sp.diags(mlump * pen.storage_derivative(u) / dt) + K if storage else K
    J = J + _full_gravity_jacobian(asm, pen.heaviside_derivative(asm.interp_at_quad(u)))
    d = pinned.astype(float)
    expected = (sp.diags(1.0 - d) @ J + sp.diags(d)).toarray()

    got = op.jacobian(u).toarray()
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(expected)))
    assert np.all(np.abs(got - expected) <= ulp)
    np.testing.assert_array_equal(got[pinned], np.eye(grid.n_nodes)[pinned])


def test_apply_dirichlet_matrix_needs_the_diagonal():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(InvalidArgument):
        apply_dirichlet_matrix(A, np.array([True, False]))
