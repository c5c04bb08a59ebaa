"""Shared nonlinear driver: semismooth Newton with damped Picard fallback.

The penalized residuals are piecewise linear in the unknown, so Newton with
a halving line search converges fast away from the ramp kinks; the relaxed
Picard iteration (penalty terms frozen at the previous iterate) is the
globally stable fallback.  Newton's linear solves are inexact, with
Eisenstat-Walker forcing terms.  Converged iterates are polished towards
machine precision while progress lasts, which keeps fixed points of the
time stepper and the per-step mass ledger tight; a polish step whose Krylov
solve breaks down ends the polish instead of factoring the Jacobian.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence

MAX_HALVINGS = 8
PICARD_RELAX = 0.7
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
                        tol_newton=1e-9, max_iters=50, method="newton"):
    """Drive the nonlinear solve to tol_newton*(1 + initial residual norm).

    residual_fn(v) -> residual vector (Dirichlet rows included as v - phi);
    jacobian_fn(v) -> sparse Jacobian with identity Dirichlet rows;
    picard_fn(v) -> (symmetric matrix, rhs) of one frozen-penalty solve.

    ``method`` selects the primary path ("newton" or "picard"); Newton falls
    back to Picard on line-search failure.  Raises NonConvergence when both
    paths miss the tolerance.
    """
    r = residual_fn(v0)
    r0n = float(np.linalg.norm(r))
    target = tol_newton * (1.0 + r0n)
    floor = POLISH_FLOOR * (1.0 + r0n)

    if method == "picard":
        v, stats = _picard(v0, r0n, residual_fn, picard_fn, linsolver, target, floor)
        if stats.residual_norm <= target:
            return v, stats
        # mirror fallback: finish a stalled Picard run with Newton steps
        v, nstats = _newton(v, residual_fn(v), stats.residual_norm, residual_fn,
                            jacobian_fn, linsolver, target, floor, max_iters)
        nstats.iters += stats.iters
        nstats.initial_residual_norm = r0n
        nstats.method = "picard+newton"
        if nstats.residual_norm > target:
            raise NonConvergence(
                f"Picard and Newton both stalled at residual {nstats.residual_norm:.3e} "
                f"(target {target:.3e})", residual_norm=nstats.residual_norm)
        return v, nstats

    v, stats = _newton(v0, r, r0n, residual_fn, jacobian_fn, linsolver, target, floor, max_iters)
    if stats.residual_norm <= target:
        return v, stats
    # fall back from whichever iterate Newton left us at
    v, pstats = _picard(v, stats.residual_norm, residual_fn, picard_fn, linsolver, target, floor)
    pstats.iters += stats.iters
    pstats.initial_residual_norm = r0n
    pstats.method = "newton+picard"
    if pstats.residual_norm > target:
        raise NonConvergence(
            f"Newton and Picard both stalled at residual {pstats.residual_norm:.3e} "
            f"(target {target:.3e})", residual_norm=pstats.residual_norm)
    return v, pstats


def _forcing(rn, rn_last):
    """Eisenstat-Walker forcing term: the relative tolerance of a Newton solve."""
    if rn_last is None:
        return FORCING_MAX
    return min(FORCING_MAX, FORCING_GAMMA * (rn / rn_last) ** 2)


def _newton(v, r, r0n, residual_fn, jacobian_fn, linsolver, target, floor, max_iters):
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
        step = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            v_try = v + step * delta
            r_try = residual_fn(v_try)
            rn_try = float(np.linalg.norm(r_try))
            if rn_try < rn:
                rn_last = rn
                v, r, rn = v_try, r_try, rn_try
                accepted = True
                break
            step *= 0.5
        if not accepted:
            ls_failures += 1
            break
        # past the requested tolerance, polish only while converging fast
        if rn <= target and rn > 0.2 * rn_last:
            break
    return v, SolveStats(it, rn, r0n, "newton", ls_failures)


def _picard(v, r0n, residual_fn, picard_fn, linsolver, target, floor):
    rn = float(np.linalg.norm(residual_fn(v)))
    best_v, best_rn = v, rn
    stall = 0
    it = 0
    while it < PICARD_MAX_ITERS and rn > floor:
        A, rhs = picard_fn(v)
        # solving for the correction makes the Krylov tolerance relative to
        # the defect, not to the whole right-hand side
        v_lin = v + linsolver.solve(A, rhs - A @ v, symmetric=True)
        # relaxation with backtracking: halve the mixing weight while the
        # residual grows, so the iteration cannot oscillate across the ramp
        omega = PICARD_RELAX
        v_next = v + omega * (v_lin - v)
        rn_next = float(np.linalg.norm(residual_fn(v_next)))
        for _ in range(MAX_HALVINGS):
            if rn_next < rn:
                break
            omega *= 0.5
            v_next = v + omega * (v_lin - v)
            rn_next = float(np.linalg.norm(residual_fn(v_next)))
        v, rn = v_next, rn_next
        it += 1
        if rn < best_rn:
            best_v, best_rn = v, rn
            stall = 0
        else:
            stall += 1
        # once inside tolerance, stop as soon as progress dries up
        if best_rn <= target and stall >= 3:
            break
        if stall >= 20:
            break
    return best_v, SolveStats(it, best_rn, r0n, "picard")
