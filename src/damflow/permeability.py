"""Heterogeneous symmetric permeability tensors and assumption checks.

A permeability field maps points of the closed rectangle to symmetric
positive-definite 2x2 tensors, given by their three entries (a11, a12, a22).
Built-in kinds cover the identity, layered diagonal fields affine in x2,
smooth analytic fields, and fields sampled on a grid with bilinear
interpolation (loadable from CSV).  ``validate_assumptions`` is the one check
of a field against the hypotheses of the uniqueness theorem.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssumptionViolation, InvalidArgument
from .io import read_field_csv

TOL_DIV = 1e-10


@dataclass(frozen=True)
class PermeabilityField:
    """Tensor-valued coefficient field on the closed rectangle ``geometry``.

    ``tensor`` evaluates (a11, a12, a22) on two float arrays of coordinates of
    one shape; an entry may be a scalar or any array that broadcasts to that
    shape.  ``geometry`` is the DamGeometry the field is defined on; ``None``
    means any rectangle.
    """

    tensor: Callable
    geometry: object = None

    def __call__(self, x1, x2):
        """(a11, a12, a22) at the points (x1, x2): three read-only float arrays
        of the shape x1 and x2 broadcast to; a constant entry takes no memory."""
        x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
        return tuple(np.broadcast_to(np.asarray(entry, dtype=float), x1.shape)
                     for entry in self.tensor(x1, x2))

    def check_grid(self, grid):
        """Raise InvalidArgument if the field is defined on another rectangle than ``grid``."""
        geom = self.geometry
        if geom is not None and geom != grid.geometry:
            raise InvalidArgument(f"permeability field is defined on [0,{geom.L}]x[0,{geom.K}], "
                                  f"the grid on [0,{grid.geometry.L}]x[0,{grid.geometry.K}]")


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled estimates of the ellipticity/regularity constants."""

    lambda_est: float
    Lambda_est: float
    N_est: float
    div_ae_min: float
    div_sign_ok: bool


def identity_field(geometry=None):
    return constant_anisotropic_field(geometry=geometry)


def layered_field(a11=1.0, a22_base=1.0, a22_slope=0.0, geometry=None):
    """Diagonal field diag(a11, a22_base + a22_slope * x2)."""
    return PermeabilityField(lambda x1, x2: (a11, 0.0, a22_base + a22_slope * x2),
                             geometry=geometry)


def smooth_field(a11, a12, a22, geometry=None):
    """Analytic field from three callables (x1, x2) -> entry value."""
    return PermeabilityField(lambda x1, x2: (a11(x1, x2), a12(x1, x2), a22(x1, x2)),
                             geometry=geometry)


def constant_anisotropic_field(a11=1.0, a12=0.0, a22=1.0, geometry=None):
    return PermeabilityField(lambda x1, x2: (a11, a12, a22), geometry=geometry)


def grid_sampled_field(grid, a11_nodes, a12_nodes, a22_nodes):
    """Field given by (ny+1, nx+1) nodal samples, interpolated bilinearly between nodes."""
    samples = (a11_nodes, a12_nodes, a22_nodes)
    for name, nodes in zip(("a11", "a12", "a22"), samples):
        grid.check_nodal(f"{name} samples", nodes)
    a11_nodes, a12_nodes, a22_nodes = (np.asarray(nodes, dtype=float) for nodes in samples)

    def interp(nodes, x1, x2):
        s = np.clip(np.asarray(x1, dtype=float) / grid.h1, 0.0, grid.nx)
        t = np.clip(np.asarray(x2, dtype=float) / grid.h2, 0.0, grid.ny)
        i0 = np.minimum(s.astype(int), grid.nx - 1)
        j0 = np.minimum(t.astype(int), grid.ny - 1)
        fs, ft = s - i0, t - j0
        return ((1 - fs) * (1 - ft) * nodes[j0, i0] + fs * (1 - ft) * nodes[j0, i0 + 1]
                + fs * ft * nodes[j0 + 1, i0 + 1] + (1 - fs) * ft * nodes[j0 + 1, i0])

    def tensor(x1, x2):
        return (interp(a11_nodes, x1, x2), interp(a12_nodes, x1, x2), interp(a22_nodes, x1, x2))

    return PermeabilityField(tensor, geometry=grid.geometry)


def load_field_csv(path, grid):
    """Load a grid-sampled field from CSV rows ``x1,x2,a11,a12,a22``.

    Raises MalformedCSV (an InvalidArgument) when the rows are not exactly
    one per grid node.
    """
    return grid_sampled_field(grid, *read_field_csv(path, grid))


def validate_assumptions(field, grid):
    """Sample ellipticity, boundedness and Lipschitz estimates on the grid.

    Raises InvalidArgument if the field is defined on another rectangle than
    the grid, and AssumptionViolation if any nodal tensor is not positive
    definite (NaN entries included); otherwise returns the report, with the
    sign condition on div(a(x)e) flagged (not raised) when violated beyond
    TOL_DIV.  N and div(a e) come from one finite-difference pass over the
    nodal samples.
    """
    field.check_grid(grid)
    X1, X2 = grid.coords()
    a11, a12, a22 = field(X1, X2)

    det = a11 * a22 - a12 ** 2
    bad = ~((a11 > 0) & (det > 0))
    if np.any(bad):
        j, i = np.argwhere(bad)[0]
        raise AssumptionViolation(
            f"tensor not positive definite at ({X1[j, i]}, {X2[j, i]}): "
            f"a11={a11[j, i]}, det={det[j, i]}",
            point=(X1[j, i], X2[j, i]))

    # eigenvalues of a symmetric 2x2: (tr/2) -/+ sqrt((a11-a22)^2/4 + a12^2)
    half_tr = (a11 + a22) / 2.0
    disc = np.sqrt((a11 - a22) ** 2 / 4.0 + a12 ** 2)
    lambda_est = float(np.min(half_tr - disc))
    Lambda_est = float(np.max(half_tr + disc))

    # d/dx2 and d/dx1 of a11, a12, a22 in that order: central differences
    # inside, one-sided on the edges
    grads = [d for entry in (a11, a12, a22) for d in np.gradient(entry, grid.h2, grid.h1)]
    n_est = max(float(np.max(np.abs(d))) for d in grads)
    div_min = float(np.min(grads[3] + grads[4]))  # d(a12)/dx1 + d(a22)/dx2

    return AssumptionReport(lambda_est=lambda_est, Lambda_est=Lambda_est, N_est=n_est,
                            div_ae_min=div_min, div_sign_ok=bool(div_min >= -TOL_DIV))
