"""Numerical uniqueness certificate for pairs of computed trajectories.

Given two trajectories of the same discrete problem, form the difference
pair w = u1 - u2 and eta = alpha*w + chi1 - chi2, solve the dual elliptic
problem ``div(a grad v) = -eta`` with v = 0 on the pervious boundary at each
time, and monitor the energy E(t) = integral a grad(v).grad(v) together with
its Gronwall functional F(t).  Small sup-energy certifies that the two
trajectories agree; the cross term w*(chi1 - chi2) must stay nonnegative.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import Q1Assembler, apply_dirichlet_matrix
from .errors import InvalidArgument

TOL_UNIQUE = 1e-6


@dataclass
class EnergySeries:
    """Dual energies E(t) and their running integral F(t)."""

    times: np.ndarray
    E: np.ndarray
    F: np.ndarray


@dataclass
class CertificateReport:
    sup_E: float
    F_final: float
    C_fit: float
    cross_term_min: float
    sign_min: float
    ordering_violations: dict = dc_field(default_factory=dict)
    scale: float = 1.0
    tol: float = TOL_UNIQUE
    passed: bool = False


class DualSolver:
    """Factorized dual solve reusing the forward assembly with v=0 on the
    pervious boundary and the natural condition on the bottom."""

    def __init__(self, field, grid, tags):
        grid.check_nodal("boundary tags", tags.dirichlet_mask)
        self.grid = grid
        self.asm = Q1Assembler(grid, field)
        # the whole pervious boundary is homogeneous Dirichlet
        self.dflat = tags.dirichlet_mask.ravel()
        self.M = self.asm.mass()
        self._lu = spla.splu(apply_dirichlet_matrix(self.asm.stiffness(), self.dflat).tocsc())

    def solve(self, eta):
        """Nodal dual potential for a nodal source; direct solve keeps the
        discrete energy identity at machine precision."""
        rhs = self.M @ self._flat("dual source", eta)
        rhs[self.dflat] = 0.0
        v = self._lu.solve(rhs)
        return v.reshape(self.grid.shape)

    def energy(self, v):
        return self.asm.energy(self._flat("dual potential", v))

    def source_pairing(self, eta, v):
        """integral eta*v via the consistent mass matrix."""
        return float(self._flat("dual source", eta) @ (self.M @ self._flat("dual potential", v)))

    def _flat(self, name, values):
        self.grid.check_nodal(name, values)
        return self.grid.flatten(np.asarray(values, dtype=float))


def steklov_average(times, values, h_avg):
    """Forward time mean (1/h) integral_t^{t+h} of the piecewise-linear
    interpolant, integrated exactly; the domain shrinks to [0, T-h].

    ``values`` may be scalars or fields, time along the leading axis.
    Returns (new_times, averaged_values).
    """
    times, values, new_times = _steklov_window(times, values, h_avg)
    ends = new_times + h_avg
    total = np.zeros((new_times.size,) + values.shape[1:])
    for k in range(times.size - 1):
        # the windows [t, t + h] that overlap segment k, and its part in each
        w = slice(np.searchsorted(ends, times[k], side="right"),
                  np.searchsorted(new_times, times[k + 1], side="left"))
        lo = np.maximum(new_times[w], times[k])
        hi = np.minimum(ends[w], times[k + 1])
        width = (hi - lo).reshape((-1,) + (1,) * (values.ndim - 1))
        total[w] += 0.5 * (_eval_pl(times, values, lo) + _eval_pl(times, values, hi)) * width
    return new_times, total / h_avg


def steklov_derivative(times, values, h_avg):
    """Exact time derivative of the Steklov mean: (g(t+h) - g(t))/h."""
    times, values, new_times = _steklov_window(times, values, h_avg)
    return new_times, (_eval_pl(times, values, new_times + h_avg)
                       - _eval_pl(times, values, new_times)) / h_avg


def _steklov_window(times, values, h_avg):
    """(times, values, the start times t whose window [t, t + h] lies inside
    the series); raises InvalidArgument unless the times strictly increase,
    there is one value per time and 0 < h <= T."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if not np.all(np.diff(times) > 0.0):
        raise InvalidArgument("Steklov times must strictly increase")
    if values.shape[:1] != times.shape:
        raise InvalidArgument(f"Steklov values of shape {values.shape} for {times.size} times")
    T = times[-1] - times[0]
    if not (0.0 < h_avg <= T + 1e-15):
        raise InvalidArgument(f"averaging window {h_avg} outside (0, {T}]")
    return times, values, times[times + h_avg <= times[-1] + 1e-12 * max(T, 1.0)]


def _eval_pl(times, values, t):
    """The piecewise-linear interpolant of ``values`` at the times ``t``
    (an array), clamped to the series."""
    t = np.clip(t, times[0], times[-1])
    k = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
    frac = ((t - times[k]) / (times[k + 1] - times[k])).reshape((-1,) + (1,) * (values.ndim - 1))
    return (1.0 - frac) * values[k] + frac * values[k + 1]


def sign_check(traj1, traj2):
    """Minimum over all snapshots and nodes of w*(chi1 - chi2).

    Nonnegative whenever both trajectories use the same penalty (the
    saturation is then a monotone function of the pressure).  For nodal
    saturations chi = H_eps(u) at unequal widths eps_a != eps_b the sharp
    floor is -(eps_a - eps_b)**2 / (4*max(eps_a, eps_b)), attained at
    u = min(eps_a, eps_b) against u = (eps_a + eps_b)/2; it is 0 for equal
    widths and tends to ``PenaltyConfig.complementarity_bound`` = eps/4 as
    the other width goes to 0.
    """
    _check_same_length(traj1, traj2)
    return min(float(np.min((s1.u - s2.u) * (s1.chi - s2.chi)))
               for s1, s2 in zip(traj1.snapshots, traj2.snapshots))


@dataclass(frozen=True)
class OrderingReport:
    """Max violations of a pointwise order interval."""

    max_below_lower: float
    max_above_upper: float
    tol: float

    @property
    def passed(self):
        return self.max_below_lower <= self.tol and self.max_above_upper <= self.tol


def check_sandwich(u, lower, upper, tol):
    """Pointwise order check lower <= u <= upper up to tol."""
    below = float(np.max(np.asarray(lower) - np.asarray(u), initial=0.0))
    above = float(np.max(np.asarray(u) - np.asarray(upper), initial=0.0))
    return OrderingReport(max_below_lower=below, max_above_upper=above, tol=tol)


def extract_free_boundary(solution, grid):
    """Per-column interface height: largest x2 where chi crosses 1/2.

    The crossing lies in the topmost cell [x2_j, x2_{j+1}] of the column
    whose end values chi - 1/2 bracket 0 and differ, at the linear
    interpolant's zero.  Returns (heights, status) with status in {"wet",
    "dry", "interface"}; columns without a crossing report height K if chi
    >= 1/2 throughout (wet) and 0 otherwise (dry).
    """
    grid.check_nodal("solution", solution.chi)
    chi = np.asarray(solution.chi, dtype=float)
    lo, hi = chi[:-1] - 0.5, chi[1:] - 0.5
    brackets = (lo != hi) & (np.minimum(lo, hi) <= 0.0) & (np.maximum(lo, hi) >= 0.0)
    has = brackets.any(axis=0)
    wet = np.all(chi >= 0.5, axis=0)
    heights = np.where(wet, grid.geometry.K, 0.0)
    crossing = np.flatnonzero(has)
    j = grid.ny - 1 - np.argmax(brackets[::-1, crossing], axis=0)
    lo, hi = lo[j, crossing], hi[j, crossing]
    x2 = np.arange(grid.ny + 1) * grid.h2
    heights[crossing] = x2[j] + lo / (lo - hi) * grid.h2
    status = ["interface" if c else "wet" if w else "dry" for c, w in zip(has, wet)]
    return heights, status


def _check_same_length(traj1, traj2):
    if len(traj1.snapshots) != len(traj2.snapshots):
        raise InvalidArgument("trajectories have different lengths")


def _check_aligned(traj1, traj2, grid):
    _check_same_length(traj1, traj2)
    t1 = np.asarray(traj1.times)
    t2 = np.asarray(traj2.times)
    if t1.size == 0 or not np.all(np.diff(t1) > 0.0):
        raise InvalidArgument("trajectory times must be nonempty and strictly increase")
    if not np.allclose(t1, t2, rtol=0, atol=1e-12 * max(1.0, float(t1[-1]))):
        raise InvalidArgument("trajectories are sampled at different times")
    for s in traj1.snapshots + traj2.snapshots:
        grid.check_nodal("snapshot", s.u)


def gronwall_monitor(traj1, traj2, field, grid, tags, alpha):
    """Dual-energy monitor of the uniqueness estimate for two trajectories.

    Returns (EnergySeries, CertificateReport).  The certificate passes iff
    sup_t E(t) <= TOL_UNIQUE * (alpha*M + 1)^2 * |Omega|, with M the largest
    |u| of either trajectory: the discrete expression of "zero dual energy
    forces equal solutions".
    """
    _check_aligned(traj1, traj2, grid)
    dual = DualSolver(field, grid, tags)

    times = np.asarray(traj1.times, dtype=float)
    E = np.empty(times.size)
    cross = np.empty(times.size)
    for k, (s1, s2) in enumerate(zip(traj1.snapshots, traj2.snapshots)):
        w = s1.u - s2.u
        dchi = s1.chi - s2.chi
        E[k] = dual.energy(dual.solve(alpha * w + dchi))
        cross[k] = dual.source_pairing(w, dchi)

    F = _cumtrapz(times, E)
    X = _cumtrapz(times, cross)

    M = max(float(np.max(np.abs(s.u))) for s in traj1.snapshots + traj2.snapshots)
    scale = (alpha * M + 1.0) ** 2 * grid.geometry.area
    sup_E = float(np.max(E))
    report = CertificateReport(
        sup_E=sup_E, F_final=float(F[-1]), C_fit=_fit_growth_rate(times, F),
        cross_term_min=float(np.min(X)), sign_min=sign_check(traj1, traj2),
        scale=scale, tol=TOL_UNIQUE,
        passed=bool(sup_E <= TOL_UNIQUE * scale))
    return EnergySeries(times=times, E=E, F=F), report


def _cumtrapz(times, y):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(times))
    return out


def _fit_growth_rate(times, F):
    """Least-squares slope of log F where F is meaningfully positive."""
    floor = 1e3 * np.finfo(float).eps * max(float(np.max(F)), np.finfo(float).tiny)
    mask = F > floor
    if np.count_nonzero(mask) < 2:
        return 0.0
    t, logF = times[mask], np.log(F[mask])
    slope = np.polyfit(t, logF, 1)[0]
    return float(slope)
