"""Penalized Heaviside ramp and the conserved quantity it defines.

H_eps(s) = min(1, s+/eps) replaces the multivalued Heaviside graph;
G_eps(s) = alpha*s + H_eps(s) is the quantity whose time derivative drives
the unsteady problem.  ``PenaltyConfig`` holds (eps, alpha) and evaluates both.
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

    def heaviside(self, s):
        """Ramp H_eps(s) = min(1, max(s, 0)/eps); nondecreasing, Lipschitz with constant 1/eps."""
        return np.clip(np.asarray(s, dtype=float) / self.eps, 0.0, 1.0)

    def heaviside_derivative(self, s):
        """Generalized derivative of the ramp: 1/eps on [0, eps], 0 outside.

        Both kinks take the ramp-side value 1/eps, the semismooth-Newton
        convention that keeps the Jacobian active at the free boundary.
        """
        s = np.asarray(s, dtype=float)
        return np.where((s >= 0.0) & (s <= self.eps), 1.0 / self.eps, 0.0)

    def storage(self, s):
        """Penalized storage G_eps(s) = alpha*s + H_eps(s)."""
        return self.alpha * np.asarray(s, dtype=float) + self.heaviside(s)

    def storage_derivative(self, s):
        return self.alpha + self.heaviside_derivative(s)

    def storage_preimage(self, g, near):
        """The pressure nearest ``near`` whose storage G_eps is ``g`` (g >= 0).

        For alpha > 0 that is G_eps^{-1}(g), whatever ``near``; above the
        ramp it is kept at eps or more, where (g - 1)/alpha can round below.
        For alpha = 0 it is eps*g below g = 1, and ``near`` clipped to
        [eps, inf) at g = 1.
        """
        g = np.asarray(g, dtype=float)
        if self.alpha > 0:
            ramp_top = self.alpha * self.eps + 1.0
            return np.where(g < ramp_top, g * (self.eps / ramp_top),
                            np.maximum((g - 1.0) / self.alpha, self.eps))
        return np.where(g < 1.0, self.eps * g, np.maximum(near, self.eps))

    @property
    def complementarity_bound(self):
        """Sharp bound on s*(1 - H_eps(s)) over s >= 0, attained at s = eps/2."""
        return self.eps / 4.0
