"""Rectangular dam geometry, structured grid and boundary classification.

The domain is the open rectangle (0, L) x (0, K).  Its boundary splits into
the impervious bottom edge (including both bottom corners, so the bottom-flux
condition stays contiguous) and the pervious remainder, which is further
partitioned into wet and dry Dirichlet parts by the sign of the boundary
head.
"""

import numbers
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import InvalidArgument, InvalidData


class NodeKind(IntEnum):
    INTERIOR = 0
    IMPERVIOUS = 1      # bottom edge, natural no-flux condition
    DIRICHLET_WET = 2   # pervious boundary where the head is positive
    DIRICHLET_DRY = 3   # pervious boundary where the head vanishes


@dataclass(frozen=True)
class DamGeometry:
    """Rectangle (0, L) x (0, K)."""

    L: float
    K: float

    def __post_init__(self):
        if not (self.L > 0 and self.K > 0):
            raise InvalidArgument(f"dam dimensions must be positive, got L={self.L}, K={self.K}")

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
        for name in ("nx", "ny"):
            n = getattr(self, name)
            if not (isinstance(n, numbers.Real) and float(n).is_integer()):
                raise InvalidArgument(f"{name} must be a whole number of cells, got {n}")
            object.__setattr__(self, name, int(n))  # so n_nodes is an int too
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


@dataclass(frozen=True)
class BoundaryTags:
    """Per-node boundary labels.

    ``kind`` has shape (ny+1, nx+1) with interior nodes labeled INTERIOR.
    """

    kind: np.ndarray

    @property
    def dirichlet_mask(self):
        """Nodes with an essential condition (the pervious boundary)."""
        return (self.kind == NodeKind.DIRICHLET_WET) | (self.kind == NodeKind.DIRICHLET_DRY)


def build_grid(geometry, nx, ny):
    """Build the uniform structured grid with nx*ny cells."""
    return Grid(geometry=geometry, nx=nx, ny=ny)


def classify_boundary(grid, phi):
    """Label boundary nodes from the boundary head ``phi(x1, x2)``.

    The bottom edge (j=0, corners included) is impervious.  Every other
    boundary node is wet iff phi at the node is strictly positive, dry iff it
    is zero.  A negative, NaN or infinite head anywhere on the pervious
    boundary is rejected.
    """
    kind = np.full(grid.shape, NodeKind.INTERIOR, dtype=np.int8)
    boundary = np.zeros(grid.shape, dtype=bool)
    boundary[0, :] = boundary[-1, :] = True
    boundary[:, 0] = boundary[:, -1] = True

    pervious = boundary.copy()
    pervious[0, :] = False
    head = _head_at(grid, pervious, phi)

    kind[0, :] = NodeKind.IMPERVIOUS
    kind[pervious] = np.where(head[pervious] > 0.0, NodeKind.DIRICHLET_WET, NodeKind.DIRICHLET_DRY)
    return BoundaryTags(kind=kind)


def dirichlet_values(grid, tags, phi):
    """Nodal array holding phi at Dirichlet nodes and 0 elsewhere: the values
    a solve pins.

    Raises InvalidArgument when ``tags`` are not on ``grid`` and InvalidData
    for a head that is negative, NaN or infinite.
    """
    if tags.kind.shape != grid.shape:
        raise InvalidArgument(f"boundary tags of shape {tags.kind.shape} are not on the grid "
                              f"of shape {grid.shape}")
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
