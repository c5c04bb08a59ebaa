"""Shared nonlinear driver: semismooth Newton and damped Picard, each the
fallback of the other.

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
    picard_fn(v) -> (symmetric matrix, rhs) of one frozen-penalty solve.

    ``method`` selects the primary path ("newton" or "picard"); when it
    stalls, the other path continues from where it stopped, and the method
    reads "newton+picard" or "picard+newton".  Raises NonConvergence when
    both paths miss the tolerance.
    """
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
    return v, r, SolveStats(it, rn, r0n, "newton", ls_failures)


def _picard(v, r, residual_fn, jacobian_fn, picard_fn, linsolver, target, floor, max_iters):
    """Relaxed frozen-penalty iteration; returns the best iterate, its
    residual and the stats."""
    r0n = rn = float(np.linalg.norm(r))
    best_v, best_r, best_rn = v, r, rn
    stall = 0
    it = 0
    while it < max_iters and rn > floor:
        A, rhs = picard_fn(v)
        # solving for the correction makes the Krylov tolerance relative to
        # the defect, not to the whole right-hand side
        v_lin = v + linsolver.solve(A, rhs - A @ v, symmetric=True)
        # relaxation with backtracking: halve the mixing weight while the
        # residual grows, so the iteration cannot oscillate across the ramp
        omega = PICARD_RELAX
        for _ in range(MAX_HALVINGS + 1):
            v_next = v + omega * (v_lin - v)
            r_next = residual_fn(v_next)
            rn_next = float(np.linalg.norm(r_next))
            if rn_next < rn:
                break
            omega *= 0.5
        v, rn = v_next, rn_next
        it += 1
        if rn < best_rn:
            best_v, best_r, best_rn = v, r_next, rn
            stall = 0
        else:
            stall += 1
        # once inside tolerance, stop as soon as progress dries up
        if best_rn <= target and stall >= 3:
            break
        if stall >= 20:
            break
    return best_v, best_r, SolveStats(it, best_rn, r0n, "picard")
