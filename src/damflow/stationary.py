"""Penalized stationary dam solves.

Find v with v = phi on the pervious boundary and
``integral a(x)(grad v + H_eps(v) e) . grad(xi) = 0`` for all xi vanishing
there; the impervious bottom carries the natural no-flux condition.
"""

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .assembly import (LinearSolver, Q1Assembler, apply_dirichlet_matrix,
                       apply_dirichlet_system)
from .errors import NonConvergence
from .geometry import dirichlet_values
from .nonlinear import TOL_NEWTON, newton_picard_solve
from .problem_data import SolutionField

TOL_NEG = 1e-10


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

    A storage operator keeps copies of the last pressure it evaluated and of
    its rows, so the step's mass ledger at the accepted pressure assembles
    nothing; only the time stepper asks twice, so a stationary one keeps none.
    """

    def __init__(self, asm, penalty, pinned, values, mlump=None, dt=None, g_old=None):
        self.asm = asm
        self.penalty = penalty
        self.pinned = pinned
        self.values = values
        self.mlump = mlump
        self.dt = dt
        self.g_old = g_old
        self._kept = None

    def pde(self, u):
        """Weak-form rows at every node, pinned ones included; a fresh array."""
        u = np.asarray(u, dtype=float)
        # a pressure equal in every bit (signed zeros and NaNs included)
        if self._kept is not None and np.array_equal(u.view(np.int64), self._kept[0]):
            return self._kept[1].copy()
        r = self.asm.stiffness() @ u
        if self.mlump is not None:
            r = self.mlump * (self.penalty.storage(u) - self.g_old) / self.dt + r
        chi = self.penalty.heaviside(self.asm.interp_at_quad(u))
        r = r + self.asm.gravity_vector(chi)
        if self.mlump is not None:
            self._kept = (u.view(np.int64).copy(), r.copy())
        return r

    def residual(self, u):
        r = self.pde(u)
        r[self.pinned] = u[self.pinned] - self.values[self.pinned]
        return r

    def _frozen(self, u):
        """Stiffness plus the storage slope M G_eps'(u)/dt on the diagonal,
        on the Q1 pattern; the stiffness itself without a storage term."""
        K = self.asm.stiffness()
        if self.mlump is None:
            return K
        data = K.data.copy()
        data[self.asm.diag_slot] += self.mlump * self.penalty.storage_derivative(u) / self.dt
        return self.asm.pattern_matrix(data)

    def jacobian(self, u):
        """Generalized derivative of ``residual``; identity rows where pinned."""
        dchi = self.penalty.heaviside_derivative(self.asm.interp_at_quad(u))
        J = self.asm.gravity_jacobian(dchi)
        J.data += self._frozen(u).data
        return apply_dirichlet_matrix(J, self.pinned)

    def picard(self, u):
        """Frozen-saturation matrix P: ``jacobian`` without the gravity term.

        P is symmetric and its pinned nodes are eliminated symmetrically, so
        the Picard correction P d = -residual(u) is a CG solve.
        """
        return apply_dirichlet_system(self._frozen(u), self.pinned)


def hydrostatic_initial_guess(grid, dmask, phi_flat):
    """Hydrostatic extension of the boundary data, exact for hydrostatic runs.

    ``dmask`` and ``phi_flat`` are the flat pinned mask and pinned values.
    Uses the highest head seen on the wetted pinned boundary:
    v0(x) = (k* - x2)+ with k* = max(phi + x2 over {phi > 0}), clipped to
    [0, K].  Dry pinned nodes carry no head information (their phi + x2
    would just report their own elevation), so they are excluded.
    """
    x2 = grid.flatten(grid.coords()[1])
    wet = dmask & (phi_flat > 0.0)
    k_star = float(np.max(phi_flat[wet] + x2[wet], initial=0.0))
    v = np.clip(k_star - x2, 0.0, grid.geometry.K)
    v[dmask] = phi_flat[dmask]
    return v


# continuation kicks in once the penalty ramp is thinner than this many cells
_EPS_RESOLVED_CELLS = 0.7
_EPS_LADDER_RATIO = 0.65
_CONTACT_ROUNDS = 10


def solve_stationary(phi, field, grid, tags, config, tol_newton=TOL_NEWTON, method="newton"):
    """Solve the penalized stationary problem for boundary head ``phi``.

    phi is a callable (x1, x2) -> head.  Returns a StationarySolve whose
    chi is H_eps(v) nodally.  Subgrid eps is reached by continuation in eps
    (warm-started ladder) unless the hydrostatic guess already meets
    ``tol_newton`` at eps, and residual nodal negativity beyond TOL_NEG is
    removed by at most ``_CONTACT_ROUNDS`` contact rounds, so the returned v
    is nonnegative up to rounding; contact rounds that do not settle raise
    NonConvergence.  ``newton_iters`` and ``line_search_failures`` sum over every
    nonlinear solve (rungs, target eps and contact rounds); ``method`` is
    that of the solve at eps.
    """
    phi_flat = dirichlet_values(grid, tags, phi).ravel()
    dmask = tags.dirichlet_mask.ravel()
    asm = Q1Assembler(grid, field)
    linsolver = LinearSolver(*asm.prolongations())
    solves = []

    def solve(op, v, method):
        v, stats = newton_picard_solve(v, op.residual, op.jacobian, op.picard, linsolver,
                                       tol_newton=tol_newton, method=method)
        solves.append(stats)
        return v

    # eps ladder: start where the ramp spans ~a cell, walk down geometrically
    ladder = []
    e = _EPS_RESOLVED_CELLS * grid.h2
    while e > config.eps * (1.0 + 1e-12):
        ladder.append(e)
        e *= _EPS_LADDER_RATIO
    ladder.append(config.eps)

    v = hydrostatic_initial_guess(grid, dmask, phi_flat)
    op = DamOperator(asm, config, dmask, phi_flat)
    # a guess that already meets the tolerance at config.eps needs no ladder
    if len(ladder) > 1 and np.linalg.norm(op.residual(v)) <= tol_newton:
        ladder = [config.eps]
    for eps_k in ladder[:-1]:
        v = solve(DamOperator(asm, replace(config, eps=eps_k), dmask, phi_flat), v, method)
    v = solve(op, v, method)
    target_method = solves[-1].method

    # Contact rounds: below eps ~ 2h/3 the Galerkin solution carries tiny
    # negative ripples in the unsaturated tail, though the continuous
    # penalized solution is nonnegative.  Those nodes are clamped to 0 as an
    # obstacle contact set and the free nodes re-solved, until v >= 0 and the
    # reaction r >= 0 on every clamped node.  The rounds run Newton whatever
    # the method: Picard rounds cost 0.88 -> 1.11 s (eps = 1e-2) and
    # 1.17 -> 1.41 s (eps = 8e-3) on the two-reservoir dam at 128x64.
    # A loop that runs out raises rather than return a solution that carries
    # the unsettled reactions as mass.
    active = np.zeros(v.size, dtype=bool)
    for rounds in range(_CONTACT_ROUNDS + 1):
        r = op.residual(v)
        grow = (v < -TOL_NEG) & ~dmask & ~active
        release = active & (r < -TOL_NEG)
        if not grow.any() and not release.any():
            break
        if rounds == _CONTACT_ROUNDS:
            raise NonConvergence(f"contact rounds did not settle in {_CONTACT_ROUNDS} rounds: "
                                 f"{int(grow.sum())} nodes still to clamp, "
                                 f"{int(release.sum())} to release",
                                 residual_norm=solves[-1].residual_norm)
        active = (active | grow) & ~release
        v = solve(DamOperator(asm, config, dmask | active, phi_flat),
                  np.where(active, 0.0, v), "newton")

    v_min = float(np.min(v))
    if v_min < -TOL_NEG:
        raise NonConvergence(f"pressure undershoot {v_min:.3e} exceeds -{TOL_NEG}",
                             residual_norm=solves[-1].residual_norm)
    v = np.maximum(v, 0.0).reshape(grid.shape)
    return StationarySolve(
        v=v, chi=config.heaviside(v), residual_norm=solves[-1].residual_norm,
        newton_iters=sum(st.iters for st in solves), method=target_method,
        diagnostics={"initial_residual_norm": solves[0].initial_residual_norm,
                     "line_search_failures": sum(st.line_search_failures for st in solves),
                     "linear_fallbacks": linsolver.fallbacks,
                     "krylov_iters": linsolver.krylov_iters,
                     "coarse_factors": linsolver.coarse_factors,
                     "clamped_nodes": int(active.sum()),
                     "continuation_steps": len(ladder)})
