"""Penalized Heaviside ramp and the conserved quantity it defines.

heaviside_eps(s) = min(1, s+/eps) replaces the multivalued Heaviside graph;
g_eps(s) = alpha*s + heaviside_eps(s) is the quantity whose time derivative
drives the unsteady problem.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument


@dataclass(frozen=True)
class PenaltyConfig:
    eps: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise InvalidArgument(f"penalty eps must be finite and positive, got {self.eps}")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise InvalidArgument(f"compressibility alpha must be finite and >= 0, "
                                  f"got {self.alpha}")


def heaviside_eps(s, eps):
    """Ramp min(1, max(s, 0)/eps); nondecreasing, Lipschitz with constant 1/eps."""
    if eps <= 0:
        raise InvalidArgument(f"eps must be positive, got {eps}")
    return np.clip(np.asarray(s, dtype=float) / eps, 0.0, 1.0)


def heaviside_eps_derivative(s, eps):
    """Generalized derivative of the ramp: 1/eps on [0, eps], 0 outside.

    Both kinks take the ramp-side value 1/eps, the semismooth-Newton
    convention that keeps the Jacobian active at the free boundary.
    """
    if eps <= 0:
        raise InvalidArgument(f"eps must be positive, got {eps}")
    s = np.asarray(s, dtype=float)
    return np.where((s >= 0.0) & (s <= eps), 1.0 / eps, 0.0)


def g_eps(s, config):
    """Penalized storage alpha*s + H_eps(s)."""
    return config.alpha * np.asarray(s, dtype=float) + heaviside_eps(s, config.eps)


def g_eps_derivative(s, config):
    return config.alpha + heaviside_eps_derivative(s, config.eps)


def complementarity_bound(eps):
    """Sharp bound on s*(1 - H_eps(s)) over s >= 0, attained at s = eps/2."""
    return eps / 4.0
