import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from damflow import (DamGeometry, PenaltyConfig, build_grid, classify_boundary,
                     constant_anisotropic_field, hydrostatic_head, identity_field, layered_field)
from damflow.assembly import (LinearSolver, Q1Assembler, apply_dirichlet_matrix,
                              apply_dirichlet_system, _gauss_1d)
from damflow.errors import InvalidArgument
from damflow.penalty import g_eps_derivative, heaviside_eps_derivative
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
    vals = rng.standard_normal(grid.n_nodes)
    rhs = rng.standard_normal(grid.n_nodes)

    A = asm.stiffness() + sp.identity(grid.n_nodes)  # make it nonsingular
    A_rows = apply_dirichlet_matrix(A, mask)
    b_rows = rhs.copy()
    b_rows[mask] = vals[mask]
    x_ref = spla.splu(A_rows.tocsc()).solve(b_rows)

    A_sym, b_sym = apply_dirichlet_system(A, mask, vals, rhs)
    x_sym = spla.splu(A_sym.tocsc()).solve(b_sym)
    np.testing.assert_allclose(x_sym, x_ref, atol=1e-11)
    assert np.max(np.abs((A_sym - A_sym.T).toarray())) < 1e-14


def test_linear_solver_matches_direct_and_counts_fallbacks():
    grid, asm = _setup(6, 6)
    A = (asm.stiffness() + sp.identity(grid.n_nodes)).tocsr()
    b = np.sin(np.arange(grid.n_nodes, dtype=float))
    solver = LinearSolver()
    x = solver.solve(A, b, symmetric=True)
    np.testing.assert_allclose(x, spla.splu(A.tocsc()).solve(b), atol=1e-8)
    assert solver.fallbacks == 0
    assert np.array_equal(solver.solve(A, np.zeros_like(b), symmetric=True),
                          np.zeros_like(b))


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
    dchi = heaviside_eps_derivative(asm.interp_at_quad(u), pen.eps)
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
    J = sp.diags(mlump * g_eps_derivative(u, pen) / dt) + K if storage else K
    J = J + _full_gravity_jacobian(asm, heaviside_eps_derivative(asm.interp_at_quad(u), pen.eps))
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
