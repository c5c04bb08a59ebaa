"""Penalized stationary dam solves.

Find v with v = phi on the pervious boundary and
``integral a(x)(grad v + H_eps(v) e) . grad(xi) = 0`` for all xi vanishing
there; the impervious bottom carries the natural no-flux condition.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .assembly import (LinearSolver, Q1Assembler, apply_dirichlet_matrix,
                       apply_dirichlet_system)
from .errors import InvalidArgument, NonConvergence
from .geometry import dirichlet_values
from .nonlinear import TOL_NEWTON, newton_picard_solve
from .penalty import (PenaltyConfig, g_eps, g_eps_derivative, heaviside_eps,
                      heaviside_eps_derivative)
from .problem_data import SolutionField

TOL_NEG = 1e-10
TOL_CHI = 1e-2


@dataclass
class StationarySolve:
    """Converged penalized stationary solution plus solver diagnostics."""

    v: np.ndarray
    chi: np.ndarray
    residual_norm: float
    newton_iters: int
    method: str = "newton"
    diagnostics: dict = dc_field(default_factory=dict)

    def solution_field(self):
        return SolutionField(u=self.v, chi=self.chi, time=0.0)


class DamOperator:
    """The penalized operator S(u) = A u + b(H_eps(u)) with pinned rows.

    Rows of ``pinned`` nodes read ``u - values``; every other row is the weak
    form.  With a lumped storage term (``mlump``, ``dt``, ``g_old``) the free
    rows are one backward-Euler step, ``mlump (G_eps(u) - g_old)/dt + S(u)``;
    without it they are the stationary problem.
    """

    def __init__(self, asm, penalty, pinned, values, mlump=None, dt=None, g_old=None):
        self.asm = asm
        self.penalty = penalty
        self.pinned = pinned
        self.values = values
        self.mlump = mlump
        self.dt = dt
        self.g_old = g_old

    def pde(self, u):
        """Weak-form rows at every node, pinned ones included."""
        r = self.asm.stiffness() @ u
        if self.mlump is not None:
            r = self.mlump * (g_eps(u, self.penalty) - self.g_old) / self.dt + r
        chi = heaviside_eps(self.asm.interp_at_quad(u), self.penalty.eps)
        return r + self.asm.gravity_vector(chi)

    def residual(self, u):
        r = self.pde(u)
        r[self.pinned] = u[self.pinned] - self.values[self.pinned]
        return r

    def _frozen(self, u):
        """Stiffness plus the storage slope M g_eps'(u)/dt on the diagonal,
        on the Q1 pattern; the stiffness itself without a storage term."""
        K = self.asm.stiffness()
        if self.mlump is None:
            return K
        data = K.data.copy()
        data[self.asm.diag_slot] += self.mlump * g_eps_derivative(u, self.penalty) / self.dt
        return self.asm.pattern_matrix(data)

    def jacobian(self, u):
        """Generalized derivative of ``residual``; identity rows where pinned."""
        dchi = heaviside_eps_derivative(self.asm.interp_at_quad(u), self.penalty.eps)
        J = self.asm.gravity_jacobian(dchi)
        J.data += self._frozen(u).data
        return apply_dirichlet_matrix(J, self.pinned)

    def picard(self, u):
        """Frozen-saturation matrix P: ``jacobian`` without the gravity term.

        P is symmetric and its pinned nodes are eliminated symmetrically, so
        the Picard correction P d = -residual(u) is a CG solve.
        """
        return apply_dirichlet_system(self._frozen(u), self.pinned)


def assemble_stationary_residual(v, field, grid, tags, config):
    """Residual of the penalized stationary weak form for a nodal field v.

    v must already carry its own Dirichlet values (those rows come back 0).
    """
    v_flat = grid.flatten(v)
    if v_flat.size != grid.n_nodes:
        raise InvalidArgument(f"field has {v_flat.size} values, grid has {grid.n_nodes} nodes")
    asm = Q1Assembler(grid, field)
    return DamOperator(asm, config, tags.dirichlet_mask.ravel(), v_flat).residual(v_flat)


def hydrostatic_initial_guess(grid, tags, phi_flat):
    """Hydrostatic extension of the boundary data, exact for hydrostatic runs.

    Uses the highest head seen on the wetted pervious boundary:
    v0(x) = (k* - x2)+ with k* = max(phi + x2 over {phi > 0}), clipped to
    [0, K].  Dry pervious nodes carry no head information (their phi + x2
    would just report their own elevation), so they are excluded.
    """
    _, X2 = grid.coords()
    dmask = tags.dirichlet_mask
    phi2d = phi_flat.reshape(grid.shape)
    wet = dmask & (phi2d > 0.0)
    heads = phi2d[wet] + X2[wet]
    k_star = float(np.max(heads, initial=0.0))
    v = np.clip(np.maximum(k_star - X2, 0.0), 0.0, grid.geometry.K).ravel()
    v[dmask.ravel()] = phi_flat[dmask.ravel()]
    return v


def _positivity_polish(v, problem, linsolver, tol_newton):
    """Active-set enforcement of the nonnegativity constraint v >= 0.

    The sharp penalty ramp is subgrid once eps drops below roughly 2h/3 and
    the plain Galerkin solution then carries tiny negative ripples in the
    unsaturated tail.  The continuous penalized solution is nonnegative, so
    those nodes are clamped to zero (treated as an obstacle contact set) and
    the free nodes re-solved; the loop repeats until the contact set is
    complementary: v >= 0 everywhere, reaction >= 0 on clamped nodes.
    ``problem`` is the stationary DamOperator; its pinned nodes are the
    Dirichlet nodes.  Returns (v, stats, n_clamped).
    """
    dmask = problem.pinned
    contact_values = np.where(dmask, problem.values, 0.0)
    active = np.zeros(v.size, dtype=bool)
    stats = None
    for _ in range(10):
        r = problem.residual(v)
        grow = (v < -TOL_NEG) & ~dmask & ~active
        release = active & (r < -TOL_NEG)
        if not grow.any() and not release.any():
            break
        active = (active | grow) & ~release
        op = DamOperator(problem.asm, problem.penalty, dmask | active, contact_values)
        v = np.where(active, 0.0, v)
        v, stats = newton_picard_solve(v, op.residual, op.jacobian, op.picard, linsolver,
                                       tol_newton=tol_newton)
    return v, stats, int(active.sum())


# continuation kicks in once the penalty ramp is thinner than this many cells
_EPS_RESOLVED_CELLS = 0.7
_EPS_LADDER_RATIO = 0.65


def solve_stationary(phi, field, grid, tags, config, tol_newton=TOL_NEWTON, method="newton"):
    """Solve the penalized stationary problem for boundary head ``phi``.

    phi is a callable (x1, x2) -> head.  Returns a StationarySolve whose
    chi is H_eps(v) nodally.  Subgrid eps is reached by continuation in eps
    (warm-started ladder) unless the hydrostatic guess already meets
    ``tol_newton`` at eps, and residual nodal negativity beyond TOL_NEG is
    removed by an obstacle-style active-set polish, so the returned v is
    nonnegative up to rounding.
    """
    phi_flat = dirichlet_values(grid, tags, phi).ravel()
    dmask = tags.dirichlet_mask.ravel()
    if np.any(phi_flat[dmask] < 0):
        raise InvalidArgument("boundary head must be nonnegative")

    asm = Q1Assembler(grid, field)
    linsolver = LinearSolver(prolongation=asm.prolongation())

    # eps ladder: start where the ramp spans ~a cell, walk down geometrically
    eps_resolved = _EPS_RESOLVED_CELLS * grid.h2
    ladder = []
    e = eps_resolved
    while e > config.eps * (1.0 + 1e-12):
        ladder.append(e)
        e *= _EPS_LADDER_RATIO
    ladder.append(config.eps)

    v = hydrostatic_initial_guess(grid, tags, phi_flat)
    # a guess that already meets the tolerance at config.eps needs no ladder
    if len(ladder) > 1 and (np.linalg.norm(DamOperator(asm, config, dmask, phi_flat).residual(v))
                            <= tol_newton):
        ladder = [config.eps]
    ladder_stats = []
    for eps_k in ladder:
        cfg_k = config if eps_k == config.eps else PenaltyConfig(eps=eps_k, alpha=config.alpha)
        op = DamOperator(asm, cfg_k, dmask, phi_flat)
        v, stats = newton_picard_solve(v, op.residual, op.jacobian, op.picard, linsolver,
                                       tol_newton=tol_newton, method=method)
        ladder_stats.append(stats)
    total_iters = sum(st.iters for st in ladder_stats)
    # the problem's own starting point: the hydrostatic guess at the first eps
    initial_residual_norm = ladder_stats[0].initial_residual_norm

    # the last rung is config.eps itself, so op is the problem being polished
    v, pstats, n_clamped = _positivity_polish(v, op, linsolver, tol_newton)
    if pstats is not None:
        stats = pstats
        total_iters += pstats.iters

    v_min = float(np.min(v))
    if v_min < -TOL_NEG:
        raise NonConvergence(f"pressure undershoot {v_min:.3e} exceeds -{TOL_NEG}",
                             residual_norm=stats.residual_norm)
    v = np.maximum(v, 0.0).reshape(grid.shape)
    chi = heaviside_eps(v, config.eps)
    return StationarySolve(v=v, chi=chi, residual_norm=stats.residual_norm,
                           newton_iters=total_iters, method=stats.method,
                           diagnostics={"initial_residual_norm": initial_residual_norm,
                                        "line_search_failures": stats.line_search_failures,
                                        "linear_fallbacks": linsolver.fallbacks,
                                        "krylov_iters": linsolver.krylov_iters,
                                        "coarse_factors": linsolver.coarse_factors,
                                        "clamped_nodes": n_clamped,
                                        "continuation_steps": len(ladder)})
