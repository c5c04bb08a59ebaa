"""Backward-Euler time stepping of the penalized unsteady problem.

Each step solves M (G_eps(u^{n+1}) - G_eps(u^n))/dt + S(u^{n+1}) = 0 with
lumped mass M and the stationary operator S (``stationary.DamOperator`` with
its storage term on); the saturation is always reported as H_eps of the new
pressure.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .assembly import LinearSolver, Q1Assembler
# not called here; perfbench/spans.py patches these two names on this module
from .assembly import apply_dirichlet_matrix, apply_dirichlet_system  # noqa: F401
from .errors import InvalidArgument, NonConvergence, StepFailure
from .geometry import dirichlet_values, whole_number
from .nonlinear import TOL_NEWTON, newton_picard_solve
from .penalty import PenaltyConfig
from .problem_data import SolutionField
from .stationary import TOL_NEG, DamOperator

MAX_DT_RETRIES = 3


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    n_steps: int
    penalty: PenaltyConfig
    tol_newton: float = TOL_NEWTON
    method: str = "newton"

    def __post_init__(self):
        object.__setattr__(self, "n_steps", whole_number("n_steps", self.n_steps))
        if not (self.dt > 0 and math.isfinite(self.dt)) or self.n_steps < 1:
            raise InvalidArgument(f"need a finite dt > 0 and n_steps >= 1, "
                                  f"got {self.dt}, {self.n_steps}")


@dataclass
class StepDiagnostics:
    time: float
    newton_iters: int
    residual_norm: float
    initial_residual_norm: float
    mass_balance_rel: float
    boundary_inflow: float
    method: str
    dt_halvings: int = 0
    linear_fallbacks: int = 0
    krylov_iters: int = 0
    coarse_factors: int = 0
    line_search_failures: int = 0


@dataclass
class Trajectory:
    """Snapshots at t = 0, dt, ..., T plus per-step solver diagnostics."""

    snapshots: list
    diagnostics: list = dc_field(default_factory=list)

    @property
    def times(self):
        return [s.time for s in self.snapshots]

    @property
    def final(self):
        return self.snapshots[-1]


def project_initial(data, v1eps, config):
    """Clip the initial pair under the penalized upper barrier.

    u0e = min(u0, v1e) and chi0e = min(chi0, H_eps(v1e)), both nodal.
    """
    v1 = np.asarray(v1eps.v, dtype=float)
    u0 = np.asarray(data.u0, dtype=float)
    if u0.shape != v1.shape:
        raise InvalidArgument(f"initial data shape {u0.shape} != barrier shape {v1.shape}")
    return np.minimum(u0, v1), np.minimum(np.asarray(data.chi0, dtype=float),
                                          config.heaviside(v1))


class _Stepper:
    """Caches assembly shared by every step of one trajectory, and the
    pressures at the start and end of the last sub-step it accepted, with
    that sub-step's dt, as ``history``; None when that sub-step started from
    an uncoupled pair."""

    def __init__(self, field, grid, tags, phi, config):
        self.config = config
        self.grid = grid
        self.asm = Q1Assembler(grid, field)
        self.phi_flat = dirichlet_values(grid, tags, phi).ravel()
        self.dmask = tags.dirichlet_mask.ravel()
        self.mlump = self.asm.lumped_mass()
        self.linsolver = LinearSolver(*self.asm.prolongations())
        self.history = None

    def advance(self, u_flat, chi_flat, dt):
        """One backward-Euler step from the pair (u, chi) with storage
        alpha*u + chi; returns (u_next_flat, DamOperator, SolveStats).

        Newton starts from u, or, when u is the end of the ``history``
        sub-step, from its linear extrapolation to dt, clipped at 0.  A pair
        whose chi is not H_eps(u) starts instead from the pressure nearest u
        that stores alpha*u + chi, and feeds no history.  The pinned values
        are imposed on every start.  The sub-step becomes the ``history``."""
        cfg = self.config
        pen = cfg.penalty
        g_old = pen.alpha * u_flat + chi_flat
        op = DamOperator(self.asm, pen, self.dmask, self.phi_flat, self.mlump, dt, g_old)
        coupled = np.array_equal(chi_flat, pen.heaviside(u_flat))
        if not coupled:
            u0 = pen.storage_preimage(g_old, u_flat)
        elif self.history is not None and np.array_equal(u_flat, self.history[1]):
            u_prev, _, dt_prev = self.history
            u0 = np.maximum(u_flat + (dt / dt_prev) * (u_flat - u_prev), 0.0)
        else:
            u0 = u_flat.copy()
        u0[self.dmask] = self.phi_flat[self.dmask]
        u_next, stats = newton_picard_solve(u0, op.residual, op.jacobian, op.picard,
                                            self.linsolver, tol_newton=cfg.tol_newton,
                                            method=cfg.method)
        self.history = (u_flat, u_next, dt) if coupled else None
        return u_next, op, stats

    def ledger(self, op, u_new_flat):
        """Per-step mass balance: storage change vs boundary inflow.

        The PDE rows at free nodes are the imbalance between the two
        (discrete divergence theorem; the bottom contributes no flux);
        Dirichlet rows, negated, are the discrete inflow through the
        pervious boundary.  The imbalance is reported relative to the total
        stored mass.  At the pressure of the solve's last residual
        evaluation, ``op.pde`` returns the rows it kept.
        """
        pen = self.config.penalty
        pde = op.pde(u_new_flat)
        inflow = -float(np.sum(pde[self.dmask])) * op.dt
        imbalance = float(np.sum(pde[~self.dmask])) * op.dt
        scale = max(float(np.sum(self.mlump * np.abs(pen.storage(u_new_flat)))), abs(inflow), 1e-30)
        return imbalance, inflow, scale


def step(state, stepper):
    """Advance one snapshot by dt; a failed solve halves dt, at most MAX_DT_RETRIES times.

    Each sub-step of an attempt extrapolates Newton's start from the one
    before it, the first from the stepper's last accepted sub-step if the
    state is its end.  Only an accepted step feeds the stepper's history,
    with its clipped pressure as the end, and only if its last sub-step
    started from a coupled pair."""
    config, grid, pen = stepper.config, stepper.grid, stepper.config.penalty
    grid.check_nodal("state u", state.u)
    grid.check_nodal("state chi", state.chi)
    index = round(state.time / config.dt)
    solver = stepper.linsolver
    counts = solver.fallbacks, solver.krylov_iters, solver.coarse_factors
    accepted = stepper.history
    for halvings in range(MAX_DT_RETRIES + 1):
        stepper.history = accepted
        u, chi, substeps = grid.flatten(state.u), grid.flatten(state.chi), []
        dt = config.dt / 2 ** halvings
        try:
            for k in range(2 ** halvings):
                chi = pen.heaviside(u) if k else chi
                u, op, stats = stepper.advance(u, chi, dt)
                substeps.append((stats, *stepper.ledger(op, u)))
            break
        except NonConvergence as exc:
            failure = exc
    else:
        stepper.history = accepted
        raise StepFailure(f"step at t={state.time} failed after {MAX_DT_RETRIES} dt halvings: "
                          f"{failure}", step_index=index,
                          residual_norm=failure.residual_norm) from failure

    u_min = float(np.min(u))
    if u_min < -TOL_NEG:
        stepper.history = accepted
        raise StepFailure(f"pressure undershoot {u_min:.3e} at t={state.time + config.dt}",
                          step_index=index, residual_norm=stats.residual_norm)
    u = np.maximum(u, 0.0)
    if stepper.history is not None:
        stepper.history = (stepper.history[0], u, dt)
    u = u.reshape(grid.shape)
    # the sub-steps of the accepted attempt; failed attempts show only in
    # the solver counters
    solves, imbalances, inflows, scales = zip(*substeps)
    new = SolutionField(u=u, chi=pen.heaviside(u), time=state.time + config.dt)
    diag = StepDiagnostics(time=new.time, newton_iters=sum(st.iters for st in solves),
                           residual_norm=max(st.residual_norm for st in solves),
                           initial_residual_norm=max(st.initial_residual_norm for st in solves),
                           mass_balance_rel=abs(sum(imbalances)) / max(scales),
                           boundary_inflow=sum(inflows),
                           method=stats.method, dt_halvings=halvings,
                           linear_fallbacks=solver.fallbacks - counts[0],
                           krylov_iters=solver.krylov_iters - counts[1],
                           coarse_factors=solver.coarse_factors - counts[2],
                           line_search_failures=sum(st.line_search_failures for st in solves))
    return new, diag


def solve_unsteady(data, field, grid, tags, config, v1eps=None):
    """Time-step the penalized problem from data's initial pair, clipped
    first under the penalized upper barrier ``v1eps`` when one is given.

    The data's alpha must be the penalty's: that is the alpha it steps with."""
    if data.alpha != config.penalty.alpha:
        raise InvalidArgument(f"data alpha {data.alpha} != penalty alpha {config.penalty.alpha}")
    u0, chi0 = data.u0, data.chi0
    grid.check_nodal("u0", u0)
    grid.check_nodal("chi0", chi0)
    if v1eps is not None:
        u0, chi0 = project_initial(data, v1eps, config.penalty)
    stepper = _Stepper(field, grid, tags, data.phi, config)
    state = SolutionField(u=u0, chi=chi0, time=0.0)
    traj = Trajectory(snapshots=[state])
    for _ in range(config.n_steps):
        state, diag = step(state, stepper)
        traj.snapshots.append(state)
        traj.diagnostics.append(diag)
    return traj
