import numpy as np
import pytest
import scipy.sparse as sp

from damflow import (DamGeometry, PenaltyConfig, build_grid, classify_boundary,
                     hydrostatic_head, identity_field, solve_stationary)
from damflow.assembly import LinearSolver, _line_prolongation
from damflow.errors import InvalidArgument, NonConvergence
from damflow.nonlinear import TOL_NEWTON, newton_picard_solve

# fixed point of v = cos(v), solved componentwise
_STAR = 0.7390851332151607


def _fixed_point_fns(n):
    def residual(v):
        return v - np.cos(v)

    def jacobian(v):
        return sp.diags(1.0 + np.sin(v)).tocsr()

    def picard(v):
        # P d = -r with P = I is the relaxed fixed-point step towards cos(v)
        return sp.identity(n, format="csr")

    return residual, jacobian, picard


def _solver(n):
    """A linear solver for n unknowns, coarsened as a line of n - 1 cells."""
    return LinearSolver(_line_prolongation(n - 1))


@pytest.mark.parametrize("method", ["newton", "picard"])
def test_converges_to_fixed_point(method):
    n = 20
    residual, jacobian, picard = _fixed_point_fns(n)
    v0 = np.linspace(0.0, 1.5, n)
    v, stats = newton_picard_solve(v0, residual, jacobian, picard, _solver(n),
                                   method=method)
    np.testing.assert_allclose(v, _STAR, atol=1e-9)
    assert stats.residual_norm <= 1e-9 * (1.0 + stats.initial_residual_norm)
    assert stats.iters >= 1
    # every accepted step lowers |r|, so the returned iterate is the last one
    assert np.linalg.norm(residual(v)) == stats.residual_norm


@pytest.mark.parametrize("method, tol_newton", [
    ("bogus", TOL_NEWTON), ("Newton", TOL_NEWTON), ("newton", -1.0), ("picard", 0.0),
    ("newton", float("nan")), ("picard", float("inf"))])
def test_newton_picard_solve_rejects_an_unknown_method_or_a_bad_tolerance(method, tol_newton):
    n = 4
    with pytest.raises(InvalidArgument):
        newton_picard_solve(np.zeros(n), *_fixed_point_fns(n), _solver(n),
                            tol_newton=tol_newton, method=method)
    # the stationary solver reaches these checks before it solves anything
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 8, 8)
    phi = hydrostatic_head(0.5)
    with pytest.raises(InvalidArgument):
        solve_stationary(phi, identity_field(geom), grid, classify_boundary(grid, phi),
                         PenaltyConfig(eps=0.1), tol_newton=tol_newton, method=method)


def test_tolerance_is_relative_to_initial_residual():
    n = 4
    residual, jacobian, picard = _fixed_point_fns(n)
    v0 = np.full(n, 0.5)
    v, stats = newton_picard_solve(v0, residual, jacobian, picard, _solver(n),
                                   tol_newton=1e-12)
    assert stats.residual_norm <= 1e-12 * (1.0 + stats.initial_residual_norm) * 10


def test_unsolvable_system_raises():
    n = 5

    def residual(v):
        return np.ones(n)  # no zero exists

    def jacobian(v):
        return sp.identity(n, format="csr")

    def picard(v):
        return sp.identity(n, format="csr")

    with pytest.raises(NonConvergence):
        newton_picard_solve(np.zeros(n), residual, jacobian, picard, _solver(n))


def _logged_fns(n, stalled):
    """The fixed-point functions with call logs; each path named in
    ``stalled`` gets a linearization that points away from the root."""
    residual, jacobian, picard = _fixed_point_fns(n)
    log = {"residual": [], "jacobian": 0, "picard": 0}

    def logged_residual(v):
        log["residual"].append(v.copy())
        return residual(v)

    def logged_jacobian(v):
        log["jacobian"] += 1
        return -jacobian(v) if "newton" in stalled else jacobian(v)

    def logged_picard(v):
        log["picard"] += 1
        if "picard" in stalled:
            return -sp.identity(n, format="csr")
        return picard(v)

    return logged_residual, logged_jacobian, logged_picard, log


@pytest.mark.parametrize("method", ["newton", "picard"])
def test_stalled_primary_path_falls_back_to_the_other(method):
    other = "picard" if method == "newton" else "newton"
    n = 20
    v0 = np.linspace(0.0, 1.5, n)
    residual, jacobian, picard, log = _logged_fns(n, stalled={method})
    v, stats = newton_picard_solve(v0, residual, jacobian, picard, _solver(n),
                                   method=method)
    np.testing.assert_allclose(v, _STAR, atol=1e-9)
    assert stats.method == f"{method}+{other}"
    # one Jacobian build per Newton iteration, one Picard build per Picard one
    assert log["jacobian"] >= 1 and log["picard"] >= 1
    assert stats.iters == log["jacobian"] + log["picard"]
    # the stalled path ends at its first failed line search
    assert log["jacobian" if method == "newton" else "picard"] == 1
    assert stats.line_search_failures == 1
    assert stats.initial_residual_norm == np.linalg.norm(v0 - np.cos(v0))
    assert stats.residual_norm <= 1e-9 * (1.0 + stats.initial_residual_norm)
    # the fallback starts from the residual the primary path left, at v0 here
    assert sum(np.array_equal(x, v0) for x in log["residual"]) == 1


@pytest.mark.parametrize("method", ["newton", "picard"])
def test_both_paths_stalled_raises_naming_both(method):
    n = 20
    residual, jacobian, picard, _ = _logged_fns(n, stalled={"newton", "picard"})
    first, second = ("Newton", "Picard") if method == "newton" else ("Picard", "Newton")
    with pytest.raises(NonConvergence, match=f"{first} and {second} both stalled"):
        newton_picard_solve(np.linspace(0.0, 1.5, n), residual, jacobian, picard,
                            _solver(n), method=method)


def test_polish_breakdown_ends_the_polish_without_lu(monkeypatch):
    """A polish step (residual inside the target) whose Krylov solve breaks
    down is dropped: no LU factorization, no line-search failure."""
    from damflow import assembly
    bicgstab = assembly.spla.bicgstab
    polish_calls = []

    def breaks_down_in_polish(A, b, rtol, atol, **kwargs):
        if rtol == 0.0:  # only polish solves run on an absolute tolerance
            polish_calls.append(atol)
            return np.full_like(b, np.nan), -10
        return bicgstab(A, b, rtol=rtol, atol=atol, **kwargs)

    monkeypatch.setattr(assembly.spla, "bicgstab", breaks_down_in_polish)
    n = 20
    residual, jacobian, picard = _fixed_point_fns(n)
    solver = _solver(n)
    v, stats = newton_picard_solve(np.linspace(0.0, 1.5, n), residual, jacobian, picard,
                                   solver)
    assert polish_calls
    assert solver.fallbacks == 0
    assert stats.method == "newton" and stats.line_search_failures == 0
    assert stats.residual_norm <= 1e-9 * (1.0 + stats.initial_residual_norm)
    assert np.linalg.norm(residual(v)) == stats.residual_norm
    # Newton's per-step settings do not outlive the solve
    assert (solver.rtol, solver.atol, solver.rescue) == (1e-10, 0.0, True)


def test_krylov_failure_outside_the_polish_is_rescued_by_lu(monkeypatch):
    from damflow import assembly
    monkeypatch.setattr(assembly.spla, "bicgstab",
                        lambda A, b, **kwargs: (np.zeros_like(b), -10))
    n = 20
    residual, jacobian, picard = _fixed_point_fns(n)
    solver = _solver(n)
    v, stats = newton_picard_solve(np.linspace(0.0, 1.5, n), residual, jacobian, picard,
                                   solver)
    np.testing.assert_allclose(v, _STAR, atol=1e-9)
    # every Newton step before the target needed the factorization
    assert 0 < solver.fallbacks <= stats.iters
