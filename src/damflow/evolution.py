"""Backward-Euler time stepping of the penalized unsteady problem.

Each step solves M (G_eps(u^{n+1}) - G_eps(u^n))/dt + S(u^{n+1}) = 0 with
lumped mass M and the stationary operator S (``stationary.DamOperator`` with
its storage term on); the saturation is always reported as H_eps of the new
pressure.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .assembly import LinearSolver, Q1Assembler
# not called here; perfbench/spans.py patches these two names on this module
from .assembly import apply_dirichlet_matrix, apply_dirichlet_system  # noqa: F401
from .errors import InvalidArgument, NonConvergence, StepFailure
from .geometry import dirichlet_values
from .nonlinear import newton_picard_solve
from .penalty import PenaltyConfig, g_eps, heaviside_eps
from .problem_data import SolutionField
from .stationary import TOL_NEG, TOL_NEWTON, DamOperator

MAX_DT_RETRIES = 3


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    n_steps: int
    penalty: PenaltyConfig
    tol_newton: float = TOL_NEWTON
    method: str = "newton"

    def __post_init__(self):
        if self.dt <= 0 or self.n_steps < 1:
            raise InvalidArgument(f"need dt > 0 and n_steps >= 1, got {self.dt}, {self.n_steps}")

    @property
    def T(self):
        return self.dt * self.n_steps


@dataclass
class StepDiagnostics:
    time: float
    newton_iters: int
    residual_norm: float
    mass_balance_rel: float
    boundary_inflow: float
    method: str
    dt_halvings: int = 0
    linear_fallbacks: int = 0


@dataclass
class Trajectory:
    """Snapshots at t = 0, dt, ..., T plus per-step solver diagnostics."""

    times: list
    snapshots: list
    diagnostics: list = dc_field(default_factory=list)

    def __len__(self):
        return len(self.snapshots)

    @property
    def final(self):
        return self.snapshots[-1]


def project_initial(data, v1eps, config):
    """Clip the initial pair under the penalized upper barrier.

    u0e = min(u0, v1e) and chi0e = min(chi0, H_eps(v1e)), both nodal.
    """
    return _clip_under_barrier(data.u0, data.chi0, v1eps, config)


def _clip_under_barrier(u0, chi0, v1eps, config):
    v1 = np.asarray(v1eps.v, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != v1.shape:
        raise InvalidArgument(f"initial data shape {u0.shape} != barrier shape {v1.shape}")
    return np.minimum(u0, v1), np.minimum(np.asarray(chi0, dtype=float),
                                          heaviside_eps(v1, config.eps))


class _Stepper:
    """Caches assembly shared by every step of one trajectory."""

    def __init__(self, field, grid, tags, phi, config):
        self.config = config
        self.asm = Q1Assembler(grid, field)
        self.phi_flat = dirichlet_values(grid, tags, phi).ravel() if callable(phi) \
            else grid.flatten(phi).copy()
        self.dmask = tags.dirichlet_mask.ravel()
        self.mlump = self.asm.lumped_mass()
        self.linsolver = LinearSolver(prolongation=self.asm.prolongation())

    def advance(self, u_flat, dt, chi_old=None):
        """One backward-Euler step; returns (u_next_flat, DamOperator, SolveStats).

        chi_old lets the caller carry a saturation that is not H_eps(u_old),
        as happens for the very first step of runs whose initial pair was
        given independently.
        """
        cfg = self.config
        pen = cfg.penalty
        if chi_old is None:
            g_old = g_eps(u_flat, pen)
        else:
            g_old = pen.alpha * u_flat + chi_old
        op = DamOperator(self.asm, pen, self.dmask, self.phi_flat, self.mlump, dt, g_old)
        u0 = u_flat.copy()
        u0[self.dmask] = self.phi_flat[self.dmask]
        u_next, stats = newton_picard_solve(u0, op.residual, op.jacobian, op.picard,
                                            self.linsolver, tol_newton=cfg.tol_newton,
                                            method=cfg.method)
        return u_next, op, stats

    def ledger(self, op, u_new_flat):
        """Per-step mass balance: storage change vs boundary inflow.

        The PDE rows at free nodes are the imbalance between the two
        (discrete divergence theorem; the bottom contributes no flux);
        Dirichlet rows, negated, are the discrete inflow through the
        pervious boundary.  The imbalance is reported relative to the total
        stored mass.
        """
        pen = self.config.penalty
        pde = op.pde(u_new_flat)
        inflow = -float(np.sum(pde[self.dmask])) * op.dt
        imbalance = float(np.sum(pde[~self.dmask])) * op.dt
        scale = max(float(np.sum(self.mlump * np.abs(g_eps(u_new_flat, pen)))), abs(inflow), 1e-30)
        return imbalance, inflow, scale


def step(state, config, field, grid, tags, phi, stepper=None):
    """Advance one snapshot by dt with dt-halving retries on failure."""
    if stepper is None:
        stepper = _Stepper(field, grid, tags, phi, config)
    u_flat = grid.flatten(state.u).copy()
    chi_flat = grid.flatten(state.chi).copy()

    dt = config.dt
    halvings = 0
    fallbacks = stepper.linsolver.fallbacks
    while True:
        try:
            u = u_flat
            chi_old = chi_flat
            ledgers = []
            for _ in range(2 ** halvings):
                u_next, op, stats = stepper.advance(u, dt, chi_old=chi_old)
                ledgers.append(stepper.ledger(op, u_next))
                u = u_next
                chi_old = None  # substeps after the first carry H_eps(u)
            break
        except NonConvergence as exc:
            halvings += 1
            if halvings > MAX_DT_RETRIES:
                raise StepFailure(f"step at t={state.time} failed after {MAX_DT_RETRIES} "
                                  f"dt halvings: {exc}", step_index=round(state.time / config.dt),
                                  residual_norm=exc.residual_norm) from exc
            dt = dt / 2.0

    u_min = float(np.min(u))
    if u_min < -TOL_NEG:
        raise StepFailure(f"pressure undershoot {u_min:.3e} at t={state.time + config.dt}",
                          step_index=round(state.time / config.dt), residual_norm=stats.residual_norm)
    u = np.maximum(u, 0.0)
    imbalance = sum(entry[0] for entry in ledgers)
    inflow = sum(entry[1] for entry in ledgers)
    scale = max(max(entry[2] for entry in ledgers), 1e-30)
    mass_rel = abs(imbalance) / scale
    new = SolutionField(u=u.reshape(grid.shape),
                        chi=heaviside_eps(u.reshape(grid.shape), config.penalty.eps),
                        time=state.time + config.dt)
    diag = StepDiagnostics(time=new.time, newton_iters=stats.iters,
                           residual_norm=stats.residual_norm, mass_balance_rel=mass_rel,
                           boundary_inflow=inflow, method=stats.method, dt_halvings=halvings,
                           linear_fallbacks=stepper.linsolver.fallbacks - fallbacks)
    return new, diag


def solve_unsteady(data, field, grid, tags, config, u0=None, chi0=None,
                   v1eps: Optional[object] = None):
    """Time-step the penalized problem from the (projected) initial data.

    When a penalized upper barrier is supplied the initial pair is first
    clipped under it; otherwise (u0, chi0) (or data.u0, data.chi0) is used
    as given.
    """
    if u0 is None:
        u0, chi0 = data.u0, data.chi0
    if v1eps is not None:
        u0, chi0 = _clip_under_barrier(u0, chi0, v1eps, config.penalty)

    stepper = _Stepper(field, grid, tags, data.phi, config)
    first = SolutionField(u=np.asarray(u0, dtype=float).reshape(grid.shape),
                          chi=np.asarray(chi0, dtype=float).reshape(grid.shape), time=0.0)
    traj = Trajectory(times=[0.0], snapshots=[first], diagnostics=[])
    state = first
    for n in range(config.n_steps):
        new, diag = step(state, config, field, grid, tags, data.phi, stepper=stepper)
        traj.times.append(new.time)
        traj.snapshots.append(new)
        traj.diagnostics.append(diag)
        state = new
    return traj
