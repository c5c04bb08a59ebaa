"""Shared nonlinear driver: semismooth Newton and damped Picard, each the
fallback of the other.

Each step solves M(v) d = -r(v), with the Jacobian (Newton) or the symmetric
frozen-saturation matrix (Picard), and halves the step from 1 (Newton) or
PICARD_RELAX (Picard) until |r| falls; a path ends at the first step that
finds no such point.  Newton's linear solves are inexact, with
Eisenstat-Walker forcing terms.  Converged iterates are polished towards
machine precision while progress lasts, which keeps fixed points of the
time stepper and the per-step mass ledger tight; a polish step whose Krylov
solve breaks down ends the polish instead of factoring the Jacobian.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NonConvergence

# the nonlinear solves stop at TOL_NEWTON * (1 + |r_0|) unless told otherwise
TOL_NEWTON = 1e-9
MAX_HALVINGS = 8
PICARD_RELAX = 0.7
NEWTON_MAX_ITERS = 50
PICARD_MAX_ITERS = 500
POLISH_FLOOR = 5e-14
# Newton solves J d = -r to the relative tolerance
# min(FORCING_MAX, FORCING_GAMMA (|r_k| / |r_k-1|)^2)
FORCING_MAX = 1e-4
FORCING_GAMMA = 0.9


@dataclass
class SolveStats:
    iters: int
    residual_norm: float
    initial_residual_norm: float
    method: str
    line_search_failures: int = 0


def newton_picard_solve(v0, residual_fn, jacobian_fn, picard_fn, linsolver,
                        tol_newton=TOL_NEWTON, method="newton"):
    """Drive the nonlinear solve to tol_newton*(1 + initial residual norm).

    residual_fn(v) -> residual vector (Dirichlet rows included as v - phi);
    jacobian_fn(v) -> sparse Jacobian with identity Dirichlet rows;
    picard_fn(v) -> symmetric matrix P of one frozen-saturation solve
    P d = -r(v), with identity rows and zero columns where v is pinned.

    ``method`` selects the primary path ("newton" or "picard"); when it
    stalls, the other path continues from where it stopped, and the method
    reads "newton+picard" or "picard+newton".  Raises InvalidArgument for
    any other method or a tol_newton that is not a finite number above 0,
    and NonConvergence when both paths miss the tolerance.
    """
    if method not in ("newton", "picard"):
        raise InvalidArgument(f"method must be newton or picard, got {method!r}")
    if not (tol_newton > 0 and math.isfinite(tol_newton)):
        raise InvalidArgument(f"tol_newton must be a finite number above 0, got {tol_newton}")
    r = residual_fn(v0)
    r0n = float(np.linalg.norm(r))
    target = tol_newton * (1.0 + r0n)
    floor = POLISH_FLOOR * (1.0 + r0n)

    paths = [(_newton, NEWTON_MAX_ITERS), (_picard, PICARD_MAX_ITERS)]
    if method == "picard":
        paths.reverse()
    v, done = v0, []
    for path, max_iters in paths:
        v, r, stats = path(v, r, residual_fn, jacobian_fn, picard_fn, linsolver,
                           target, floor, max_iters)
        done.append(stats)
        if stats.residual_norm <= target:
            break
    else:
        raise NonConvergence(
            f"{' and '.join(st.method.capitalize() for st in done)} both stalled at residual "
            f"{stats.residual_norm:.3e} (target {target:.3e})", residual_norm=stats.residual_norm)
    return v, SolveStats(sum(st.iters for st in done), stats.residual_norm, r0n,
                         "+".join(st.method for st in done),
                         sum(st.line_search_failures for st in done))


def _forcing(rn, rn_last):
    """Eisenstat-Walker forcing term: the relative tolerance of a Newton solve."""
    if rn_last is None:
        return FORCING_MAX
    return min(FORCING_MAX, FORCING_GAMMA * (rn / rn_last) ** 2)


def _line_search(v, delta, step, residual_fn, rn):
    """First of v + step*delta, step/2, ... (MAX_HALVINGS halvings) whose
    residual norm is below rn, as (v, r, |r|); None if there is none."""
    for _ in range(MAX_HALVINGS + 1):
        v_try = v + step * delta
        r_try = residual_fn(v_try)
        rn_try = float(np.linalg.norm(r_try))
        if rn_try < rn:
            return v_try, r_try, rn_try
        step *= 0.5
    return None


def _newton(v, r, residual_fn, jacobian_fn, picard_fn, linsolver, target, floor, max_iters):
    """Semismooth Newton with a halving line search; returns (v, r(v), stats)."""
    r0n = float(np.linalg.norm(r))
    rn, rn_last = r0n, None
    ls_failures = 0
    it = 0
    while it < max_iters and rn > floor:
        J = jacobian_fn(v)
        if rn <= target:
            # polish step: aim at the floor, and stop polishing if the Krylov
            # solve breaks down, since the iterate is inside the target
            settings = {"rtol": 0.0, "atol": 0.1 * floor, "rescue": False}
        else:
            settings = {"rtol": _forcing(rn, rn_last)}
        with linsolver.tolerance(**settings):
            delta = linsolver.solve(J, -r, symmetric=False)
        it += 1
        if delta is None:
            break
        trial = _line_search(v, delta, 1.0, residual_fn, rn)
        if trial is None:
            ls_failures += 1
            break
        rn_last = rn
        v, r, rn = trial
        # past the requested tolerance, polish only while converging fast
        if rn <= target and rn > 0.2 * rn_last:
            break
    return v, r, SolveStats(it, rn, r0n, "newton", ls_failures)


def _picard(v, r, residual_fn, jacobian_fn, picard_fn, linsolver, target, floor, max_iters):
    """Relaxed frozen-saturation iteration: P d = -r, then the halving line
    search from PICARD_RELAX, which keeps it from oscillating across the
    ramp; returns (v, r(v), stats)."""
    r0n = rn = float(np.linalg.norm(r))
    ls_failures = 0
    it = 0
    while it < max_iters and rn > floor:
        delta = linsolver.solve(picard_fn(v), -r, symmetric=True)
        it += 1
        trial = _line_search(v, delta, PICARD_RELAX, residual_fn, rn)
        if trial is None:
            ls_failures += 1
            break
        v, r, rn = trial
    return v, r, SolveStats(it, rn, r0n, "picard", ls_failures)
