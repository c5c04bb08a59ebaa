"""Boundary heads, barrier data, initial data and the hydrostatic family."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgument, InvalidData
from .io import read_solution_csv


@dataclass
class SolutionField:
    """Nodal pressure/saturation pair at one instant."""

    u: np.ndarray
    chi: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.chi = np.asarray(self.chi, dtype=float)
        if self.u.shape != self.chi.shape:
            raise InvalidArgument(f"u/chi shape mismatch: {self.u.shape} vs {self.chi.shape}")

    def complementarity_residual(self):
        """max over nodes of u*(1-chi)."""
        return float(np.max(self.u * (1.0 - self.chi)))


@dataclass
class ProblemData:
    """Physical constants, boundary head and initial pair for one run."""

    alpha: float
    T_final: float
    eps0: float
    phi: Callable
    u0: np.ndarray
    chi0: np.ndarray

    def __post_init__(self):
        if self.alpha < 0:
            raise InvalidData(f"alpha must be >= 0, got {self.alpha}")
        if self.T_final <= 0:
            raise InvalidData(f"T must be positive, got {self.T_final}")
        self.u0 = np.asarray(self.u0, dtype=float)
        self.chi0 = np.asarray(self.chi0, dtype=float)
        # written so that NaN fails every comparison
        if not np.all(np.isfinite(self.u0) & (self.u0 >= 0)):
            raise InvalidData("initial pressure must be finite and satisfy u0 >= 0 at every node")
        if not np.all((self.chi0 >= 0) & (self.chi0 <= 1)):
            raise InvalidData("initial saturation must lie in [0, 1] at every node")


def make_barrier_data(eps0, geometry):
    """Lower/upper barrier heads for strip height eps0 in (0, K/2).

    Returns callables phi0(x1, x2) = (eps0 - x2)+ and
    phi1(x1, x2) = (K - eps0 - x2)+; both vanish on the top edge.
    """
    K = geometry.K
    if not (0.0 < eps0 < K / 2.0):
        raise InvalidArgument(f"eps0 must lie in (0, K/2)=(0, {K / 2}), got {eps0}")

    def phi0(x1, x2):
        return max(eps0 - x2, 0.0)

    def phi1(x1, x2):
        return max(K - eps0 - x2, 0.0)

    return phi0, phi1


def hydrostatic_head(k):
    """Boundary head (k - x2)+ on the whole pervious boundary."""

    def phi(x1, x2):
        return max(k - x2, 0.0)

    return phi


def two_reservoir_head(h_left, h_right, geometry):
    """Classical dam data: hydrostatic reservoirs of heights h_left/h_right
    on the lateral walls, dry top edge."""
    if h_left < 0 or h_right < 0:
        raise InvalidArgument("reservoir heights must be nonnegative")
    L = geometry.L

    def phi(x1, x2):
        if x1 <= 0.0:
            return max(h_left - x2, 0.0)
        if x1 >= L:
            return max(h_right - x2, 0.0)
        return 0.0

    return phi


def hydrostatic_profile(k, grid):
    """Exact stationary pair u = (k - x2)+, chi = 1_{x2 < k}.

    Nodes exactly at x2 = k count as dry (the wet set is open).
    """
    K = grid.geometry.K
    if not (0.0 < k < K):
        raise InvalidArgument(f"water level k must lie in (0, K)=(0, {K}), got {k}")
    _, X2 = grid.coords()
    u = np.maximum(k - X2, 0.0)
    chi = np.where(X2 < k, 1.0, 0.0)
    return SolutionField(u=u, chi=chi, time=0.0)


def load_solution_csv(path, grid):
    """Load a nodal pair from a node dump ``i,j,x1,x2,u,chi``; a dump holds
    no time, so the pair is at time 0.

    Raises MalformedCSV (an InvalidData) when the file is not one row per node.
    """
    u, chi = read_solution_csv(path, grid)
    return SolutionField(u=u, chi=chi)
