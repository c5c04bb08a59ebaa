"""Bilinear quadrilateral finite-element assembly on the structured grid.

One assembler instance caches the cell connectivity, quadrature data and the
permeability tensor sampled at quadrature points; it serves both the forward
(penalized) solves and the dual solves of the certificate.
"""

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidArgument

# reference square [-1,1]^2, node order (-1,-1),(1,-1),(1,1),(-1,1)
_REF_NODES = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


def _gauss_1d(n):
    if n < 1:
        raise InvalidArgument(f"unsupported Gauss order {n}")
    return np.polynomial.legendre.leggauss(n)


class Q1Assembler:
    """Assembly of stiffness, mass and gravity terms for one grid/field pair."""

    def __init__(self, grid, field, n_gauss=2):
        self.grid = grid
        self.field = field
        h1, h2 = grid.h1, grid.h2

        # connectivity: cell c -> its 4 node flat indices, counterclockwise
        ci, cj = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny))
        ci, cj = ci.ravel(), cj.ravel()
        n00 = cj * (grid.nx + 1) + ci
        self.conn = np.stack([n00, n00 + 1, n00 + grid.nx + 2, n00 + grid.nx + 1], axis=1)

        pts, wts = _gauss_1d(n_gauss)
        xi, eta = np.meshgrid(pts, pts)
        xi, eta = xi.ravel(), eta.ravel()
        self.wq = (np.outer(wts, wts).ravel()) * (h1 * h2 / 4.0)
        self.nq = xi.size

        # shape values and physical gradients; constant across cells
        xr, yr = _REF_NODES[:, 0], _REF_NODES[:, 1]
        self.N = 0.25 * (1 + np.outer(xi, xr)) * (1 + np.outer(eta, yr))      # (nq, 4)
        self.gx = 0.25 * np.outer(np.ones_like(xi), xr) * (1 + np.outer(eta, yr)) * (2.0 / h1)
        self.gy = 0.25 * (1 + np.outer(xi, xr)) * np.outer(np.ones_like(eta), yr) * (2.0 / h2)

        # quadrature point physical coordinates and tensor samples, (ncells, nq)
        x0 = ci * h1
        y0 = cj * h2
        self.xq = x0[:, None] + (xi[None, :] + 1.0) * h1 / 2.0
        self.yq = y0[:, None] + (eta[None, :] + 1.0) * h2 / 2.0
        a11, a12, a22 = field(self.xq, self.yq)
        self.a11 = np.broadcast_to(a11, self.xq.shape)
        self.a12 = np.broadcast_to(a12, self.xq.shape)
        self.a22 = np.broadcast_to(a22, self.xq.shape)
        # fields aligned with the axes skip the a12 terms of the gravity Jacobian
        self.has_a12 = bool(np.any(self.a12 != 0.0))

        # the nine-point CSR pattern every Q1 matrix shares, and the slot
        # slot[c, m, n] of entry (conn[c, m], conn[c, n]) in its data array
        n = grid.n_nodes
        keys = (self.conn[:, :, None] * n + self.conn[:, None, :]).ravel()
        pattern, slot = np.unique(keys, return_inverse=True)
        rows, cols = np.divmod(pattern, n)
        self.indices = cols.astype(np.int32)
        self.indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
        self.slot = slot.reshape(self.conn.shape + (4,))
        self.diag_slot = np.flatnonzero(rows == cols)

        self._stiffness = None
        self._mass = None

    def pattern_matrix(self, data):
        """CSR matrix on the Q1 pattern with the given data array."""
        n = self.grid.n_nodes
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def _scatter_matrix(self, local, cells=None):
        """Assemble (ncells, 4, 4) element blocks, or the blocks of the listed
        cells only, onto the Q1 pattern."""
        slot = self.slot if cells is None else self.slot[cells]
        # an empty cell list makes bincount return integers
        data = np.bincount(slot.ravel(), weights=local.ravel(), minlength=self.indices.size)
        return self.pattern_matrix(data.astype(float, copy=False))

    def stiffness(self):
        """Global matrix of ``integral a(x) grad(phi_n) . grad(phi_m)``."""
        if self._stiffness is None:
            w = self.wq[None, :]
            local = (np.einsum("cq,qm,qn->cmn", w * self.a11, self.gx, self.gx)
                     + np.einsum("cq,qm,qn->cmn", w * self.a12, self.gx, self.gy)
                     + np.einsum("cq,qm,qn->cmn", w * self.a12, self.gy, self.gx)
                     + np.einsum("cq,qm,qn->cmn", w * self.a22, self.gy, self.gy))
            self._stiffness = self._scatter_matrix(local)
        return self._stiffness

    def mass(self):
        """Consistent mass matrix."""
        if self._mass is None:
            local = np.einsum("q,qm,qn->mn", self.wq, self.N, self.N)
            self._mass = self._scatter_matrix(np.broadcast_to(local, (self.grid.n_cells, 4, 4)))
        return self._mass

    def lumped_mass(self):
        """Row-sum lumped mass as a flat vector."""
        return np.asarray(self.mass().sum(axis=1)).ravel()

    def interp_at_quad(self, v_flat):
        """Values of a nodal field at the quadrature points, (ncells, nq)."""
        return v_flat[self.conn] @ self.N.T

    def gravity_vector(self, chi_q):
        """Load vector ``integral chi (a e) . grad(phi_m)`` for quad-point chi."""
        contrib = np.einsum("cq,qm->cm", self.wq[None, :] * chi_q * self.a12, self.gx)
        contrib += np.einsum("cq,qm->cm", self.wq[None, :] * chi_q * self.a22, self.gy)
        out = np.zeros(self.grid.n_nodes)
        np.add.at(out, self.conn.ravel(), contrib.ravel())
        return out

    def gravity_jacobian(self, dchi_q):
        """Matrix ``integral dchi phi_n (a e) . grad(phi_m)``; asymmetric.

        Only cells with a quadrature point where dchi is nonzero (the ramp
        band, kinks included) contribute; the matrix carries the full Q1
        pattern.
        """
        cells = np.flatnonzero(np.any(dchi_q != 0.0, axis=1))
        w = self.wq[None, :] * dchi_q[cells]
        local = np.einsum("cq,qm,qn->cmn", w * self.a22[cells], self.gy, self.N)
        if self.has_a12:
            local = np.einsum("cq,qm,qn->cmn", w * self.a12[cells], self.gx, self.N) + local
        return self._scatter_matrix(local, cells)

    def energy(self, v_flat):
        """Quadrature of a grad(v).grad(v); equals v . (A v) by construction."""
        return float(v_flat @ (self.stiffness() @ v_flat))

    def integrate(self, v_flat):
        """Quadrature of the bilinear interpolant of a nodal field."""
        return float(self.lumped_mass() @ v_flat)


def apply_dirichlet_matrix(A, dirichlet_flat):
    """Replace Dirichlet rows by identity rows, in a copy on A's CSR pattern.

    Each constrained row must store its diagonal entry, as every matrix on
    the Q1 pattern does.
    """
    mask = np.asarray(dirichlet_flat, dtype=bool)
    A = A.tocsr()
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    pinned = mask[rows]
    diag = pinned & (A.indices == rows)
    if np.count_nonzero(diag) != np.count_nonzero(mask):
        raise InvalidArgument("a Dirichlet row stores no diagonal entry")
    return sp.csr_matrix((np.where(pinned, diag, A.data), A.indices, A.indptr), shape=A.shape)


def apply_dirichlet_system(A, dirichlet_flat, values, rhs):
    """Symmetric Dirichlet elimination: returns (A', rhs').

    Rows AND columns of constrained nodes are replaced by identity, with the
    known values folded into the right-hand side, so a symmetric A stays
    symmetric and conjugate gradients applies.
    """
    mask = np.asarray(dirichlet_flat, dtype=bool)
    free = 1.0 - mask
    x = np.where(mask, values, 0.0)
    rhs = free * (rhs - A @ x) + x
    A = A.tocsr()
    cols_free = sp.csr_matrix((A.data * free[A.indices], A.indices, A.indptr), shape=A.shape)
    return apply_dirichlet_matrix(cols_free, mask), rhs


class LinearSolver:
    """Krylov solve with diagonal preconditioning and a sparse-LU rescue.

    Conjugate gradients for symmetric matrices, BiCGStab otherwise, to the
    tolerance ``max(rtol * |b|, atol)``.  A Krylov failure falls back to a
    direct factorization (counted in ``fallbacks``) unless ``rescue`` is
    off; then ``solve`` returns None.  Newton's iteration sets ``rtol``,
    ``atol`` and ``rescue`` per step through ``tolerance``.
    """

    def __init__(self, rtol=1e-10, maxiter=5000):
        self.rtol = rtol
        self.atol = 0.0
        self.rescue = True
        self.maxiter = maxiter
        self.fallbacks = 0

    @contextmanager
    def tolerance(self, rtol, atol=0.0, rescue=True):
        """Solve with these settings inside the block, then restore the old ones."""
        saved = self.rtol, self.atol, self.rescue
        self.rtol, self.atol, self.rescue = rtol, atol, rescue
        try:
            yield self
        finally:
            self.rtol, self.atol, self.rescue = saved

    def solve(self, A, b, symmetric):
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        d = A.diagonal()
        d = np.where(np.abs(d) > 0, d, 1.0)
        M = spla.LinearOperator(A.shape, matvec=lambda x: x / d)
        method = spla.cg if symmetric else spla.bicgstab
        x, info = method(A, b, rtol=self.rtol, atol=self.atol, maxiter=self.maxiter, M=M)
        if info != 0 or not np.all(np.isfinite(x)):
            if not self.rescue:
                return None
            self.fallbacks += 1
            x = spla.splu(A.tocsc()).solve(b)
        return x
