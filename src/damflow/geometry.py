"""Rectangular dam geometry, structured grid and boundary classification.

The domain is the open rectangle (0, L) x (0, K).  Its boundary splits into
the impervious bottom edge (including both bottom corners, so the bottom-flux
condition stays contiguous) and the pervious remainder, where the head is
pinned.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidData


def whole_number(name, n):
    """``n`` as an int; InvalidArgument unless it is a real whole number."""
    if not (isinstance(n, numbers.Real) and float(n).is_integer()):
        raise InvalidArgument(f"{name} must be a whole number, got {n}")
    return int(n)


@dataclass(frozen=True)
class DamGeometry:
    """Rectangle (0, L) x (0, K)."""

    L: float
    K: float

    def __post_init__(self):
        if not all(side > 0 and math.isfinite(side) for side in (self.L, self.K)):
            raise InvalidArgument(f"dam dimensions must be finite and positive, "
                                  f"got L={self.L}, K={self.K}")

    @property
    def area(self):
        return self.L * self.K


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on the closed rectangle.

    Nodes are indexed (i, j) with coordinate (i*h1, j*h2); arrays over nodes
    use shape (ny+1, nx+1) with j (the vertical index) as the leading axis.
    """

    geometry: DamGeometry
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("nx", "ny"):  # stored as ints, so n_nodes is an int too
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if self.nx < 2 or self.ny < 2:
            raise InvalidArgument(f"need at least 2 cells per axis, got nx={self.nx}, ny={self.ny}")

    @property
    def h1(self):
        return self.geometry.L / self.nx

    @property
    def h2(self):
        return self.geometry.K / self.ny

    @property
    def shape(self):
        return (self.ny + 1, self.nx + 1)

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_cells(self):
        return self.nx * self.ny

    def coords(self):
        """Node coordinate arrays (X1, X2), each of shape (ny+1, nx+1)."""
        x1 = np.arange(self.nx + 1) * self.h1
        x2 = np.arange(self.ny + 1) * self.h2
        return np.meshgrid(x1, x2)

    def flatten(self, a):
        return np.asarray(a).reshape(self.n_nodes)

    def check_nodal(self, name, values):
        """Raise InvalidArgument unless ``values`` has one entry per node."""
        if np.shape(values) != self.shape:
            raise InvalidArgument(f"{name} of shape {np.shape(values)} is not on the grid "
                                  f"of shape {self.shape}")


@dataclass(frozen=True)
class BoundaryTags:
    """The pinned (pervious) boundary nodes: ``dirichlet_mask`` is stored as
    a read-only boolean copy of shape (ny+1, nx+1)."""

    dirichlet_mask: np.ndarray

    def __post_init__(self):
        mask = np.array(self.dirichlet_mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "dirichlet_mask", mask)


def build_grid(geometry, nx, ny):
    """Build the uniform structured grid with nx*ny cells."""
    return Grid(geometry=geometry, nx=nx, ny=ny)


def classify_boundary(grid, phi):
    """Pin every boundary node but the impervious bottom edge (j=0, corners
    included).  A negative, NaN or infinite head ``phi(x1, x2)`` anywhere on
    the pinned set is rejected.
    """
    pervious = np.zeros(grid.shape, dtype=bool)
    pervious[-1, :] = pervious[1:, 0] = pervious[1:, -1] = True
    _head_at(grid, pervious, phi)
    return BoundaryTags(dirichlet_mask=pervious)


def dirichlet_values(grid, tags, phi):
    """Nodal array holding phi at Dirichlet nodes and 0 elsewhere: the values
    a solve pins.

    Raises InvalidArgument when ``tags`` are not on ``grid`` and InvalidData
    for a head that is negative, NaN or infinite.
    """
    grid.check_nodal("boundary tags", tags.dirichlet_mask)
    return _head_at(grid, tags.dirichlet_mask, phi)


def _head_at(grid, mask, phi):
    """phi at the ``mask`` nodes, 0 elsewhere; a head that is negative, NaN or
    infinite raises InvalidData."""
    X1, X2 = grid.coords()
    head = np.zeros(grid.shape)
    head[mask] = np.vectorize(phi, otypes=[float])(X1[mask], X2[mask])
    bad = ~((head >= 0) & np.isfinite(head))
    if np.any(bad):
        j, i = np.argwhere(bad)[0]
        raise InvalidData(f"boundary head {head[j, i]} at node ({X1[j, i]}, {X2[j, i]}) "
                          f"is not a finite number >= 0")
    return head
