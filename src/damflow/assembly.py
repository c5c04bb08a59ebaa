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


# position of local node n relative to local node m, as the offset index
# 3 (dj + 1) + (di + 1) of _nine_point_pattern
_LOCAL_DI, _LOCAL_DJ = ((_REF_NODES.T + 1.0) / 2.0).astype(int)
_LOCAL_OFFSET = (3 * (_LOCAL_DJ[None, :] - _LOCAL_DJ[:, None] + 1)
                 + _LOCAL_DI[None, :] - _LOCAL_DI[:, None] + 1)

# Krylov solves of at least this many unknowns rebuild the two-grid coarse
# solve on every solve, smaller ones reuse one factor (LinearSolver); a
# coarse level of at least this many unknowns is not factored but solved by
# two-grid cycles one level down (Q1Assembler.prolongations)
REFACTOR_EVERY_SOLVE_MIN_N = 6000
TWO_GRID_OMEGA = 0.7
# Krylov relative tolerance outside LinearSolver.tolerance, and iteration cap
KRYLOV_RTOL = 1e-10
KRYLOV_MAXITER = 5000


def _gauss_1d(n):
    if n < 1:
        raise InvalidArgument(f"unsupported Gauss order {n}")
    return np.polynomial.legendre.leggauss(n)


def _nine_point_pattern(nx, ny):
    """CSR pattern of the Q1 matrices on an nx x ny cell grid.

    Node (i, j) couples with every grid node (i + di, j + dj), |di|, |dj| <= 1.
    Offsets ordered by (dj, di) are increasing flat offsets, so each row's
    columns come out sorted.  Returns (indices, indptr, pos), where
    pos[node, 3 (dj + 1) + di + 1] is the data position of that entry
    (meaningless where the neighbour lies outside the grid).
    """
    nxp, nyp = nx + 1, ny + 1
    d = np.array([-1, 0, 1])

    def inside(n):
        """(n + 1, 3): whether node k + d of a line of n cells exists."""
        k = np.arange(n + 1)[:, None] + d
        return (k >= 0) & (k <= n)

    valid = (inside(ny)[:, None, :, None] & inside(nx)[None, :, None, :]).reshape(nxp * nyp, 9)
    offsets = (d[:, None] * nxp + d[None, :]).ravel().astype(np.int32)
    nodes = np.arange(nxp * nyp, dtype=np.int32)
    indices = (nodes[:, None] + offsets)[valid]
    indptr = np.zeros(nodes.size + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(valid, axis=1), out=indptr[1:])
    # positions stay intp: np.bincount scatters int32 slots several times slower
    pos = (np.cumsum(valid.ravel()) - 1).reshape(valid.shape)
    return indices, indptr, pos


def _line_prolongation(n):
    """Linear interpolation onto the n + 1 nodes of a line of n cells from its
    nodes 0, 2, 4, ... and n, so odd n keeps its last node."""
    coarse = np.unique(np.append(np.arange(0, n + 1, 2), n))
    fine = np.arange(n + 1)
    k = np.minimum(np.searchsorted(coarse, fine, side="right") - 1, coarse.size - 2)
    t = (fine - coarse[k]) / (coarse[k + 1] - coarse[k])
    P = sp.csr_matrix((np.concatenate([1.0 - t, t]),
                       (np.concatenate([fine, fine]), np.concatenate([k, k + 1]))),
                      shape=(n + 1, coarse.size))
    P.eliminate_zeros()
    return P


def _grid_prolongation(nx, ny):
    """kron(P_y, P_x): _line_prolongation on both axes of an nx x ny cell grid,
    in the flat node order."""
    return sp.kron(_line_prolongation(ny), _line_prolongation(nx), format="csr")


class Q1Assembler:
    """Assembly of stiffness, mass and gravity terms for one grid/field pair;
    a field defined on another rectangle than the grid is an InvalidArgument."""

    def __init__(self, grid, field, n_gauss=2):
        field.check_grid(grid)
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
        self.a11, self.a12, self.a22 = field(self.xq, self.yq)
        # fields aligned with the axes skip the a12 terms of the gravity Jacobian
        self.has_a12 = bool(np.any(self.a12 != 0.0))

        # the nine-point CSR pattern every Q1 matrix shares, and the slot
        # slot[c, m, n] of entry (conn[c, m], conn[c, n]) in its data array
        self.indices, self.indptr, pos = _nine_point_pattern(grid.nx, grid.ny)
        self.slot = pos[self.conn[:, :, None], _LOCAL_OFFSET[None, :, :]]
        self.diag_slot = pos[:, 4].copy()

        self._stiffness = None

    def prolongation(self):
        """Bilinear interpolation from the 2h grid (every other node line, the
        last line kept) to this grid: kron(P_y, P_x) on the flat node order."""
        return _grid_prolongation(self.grid.nx, self.grid.ny)

    def prolongations(self):
        """The prolongations of LinearSolver's hierarchy, finest first: this
        grid's, then one for each coarse grid of REFACTOR_EVERY_SOLVE_MIN_N
        nodes or more, so the last coarse grid is the first below it.  A
        coarse grid has ceil(n / 2) cells on an axis of n cells, so a one-cell
        axis maps by the identity while the other shrinks; only the 4-node
        grid cannot shrink, and it lies below the crossover."""
        chain = [self.prolongation()]
        nx, ny = self.grid.nx, self.grid.ny
        while True:
            nx, ny = -(-nx // 2), -(-ny // 2)
            if (nx + 1) * (ny + 1) < REFACTOR_EVERY_SOLVE_MIN_N:
                return chain
            chain.append(_grid_prolongation(nx, ny))

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
            local = np.einsum("cq,qm,qn->cmn", w * self.a11, self.gx, self.gx)
            if self.has_a12:
                local += np.einsum("cq,qm,qn->cmn", w * self.a12, self.gx, self.gy)
                local += np.einsum("cq,qm,qn->cmn", w * self.a12, self.gy, self.gx)
            local += np.einsum("cq,qm,qn->cmn", w * self.a22, self.gy, self.gy)
            self._stiffness = self._scatter_matrix(local)
        return self._stiffness

    def mass(self):
        """Consistent mass matrix."""
        local = np.einsum("q,qm,qn->mn", self.wq, self.N, self.N)
        return self._scatter_matrix(np.broadcast_to(local, (self.grid.n_cells, 4, 4)))

    def lumped_mass(self):
        """Row-sum lumped mass as a flat vector."""
        return np.asarray(self.mass().sum(axis=1)).ravel()

    def interp_at_quad(self, v_flat):
        """Values of a nodal field at the quadrature points, (ncells, nq)."""
        return v_flat[self.conn] @ self.N.T

    def gravity_vector(self, chi_q):
        """Load vector ``integral chi (a e) . grad(phi_m)`` for quad-point chi."""
        contrib = np.einsum("cq,qm->cm", self.wq[None, :] * chi_q * self.a22, self.gy)
        if self.has_a12:
            contrib = np.einsum("cq,qm->cm", self.wq[None, :] * chi_q * self.a12, self.gx) + contrib
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


def apply_dirichlet_system(A, dirichlet_flat):
    """Symmetric Dirichlet elimination: rows AND columns of constrained
    nodes become identity, so a symmetric A stays symmetric and conjugate
    gradients applies.

    The result is the matrix of a correction whose right-hand side vanishes
    on the pinned rows, so no known value has to move to the free rows.
    """
    A = A.tocsr()
    free = 1.0 - np.asarray(dirichlet_flat, dtype=bool)
    cols_free = sp.csr_matrix((A.data * free[A.indices], A.indices, A.indptr), shape=A.shape)
    return apply_dirichlet_matrix(cols_free, dirichlet_flat)


def _diagonal(A):
    """A's diagonal with zeros replaced by ones, for Jacobi scaling."""
    d = A.diagonal()
    return np.where(np.abs(d) > 0, d, 1.0)


def two_grid_preconditioner(A, P, R, coarse_solve):
    """One symmetric two-grid V(1,1) cycle for A as a LinearOperator.

    Damped Jacobi built from A, the coarse correction P S R with the coarse
    solve ``coarse_solve`` = S (a factor's solve of R A P, or of an earlier
    A's, or the cycles of a level below), then damped Jacobi again.  With
    R = P^T the cycle is symmetric whenever A and S are, so it also serves CG.
    """
    w = TWO_GRID_OMEGA / _diagonal(A)

    def cycle(r):
        x = w * r
        x += P @ coarse_solve(R @ (r - A @ x))
        x += w * (r - A @ x)
        return x

    return spla.LinearOperator(A.shape, matvec=cycle, dtype=float)


def _w_cycle(A, cycle):
    """Two applications of a cycle C for A, x = C r; x += C (r - A x): the
    coarse solve of a level above the factored one.  It stays symmetric
    when A and C are."""
    def solve(r):
        x = cycle.matvec(r)
        x += cycle.matvec(r - A @ x)
        return x

    return solve


class LinearSolver:
    """Two-grid preconditioned Krylov solve.

    Conjugate gradients for symmetric matrices, BiCGStab otherwise, to the
    tolerance ``max(rtol * |b|, atol)``.  Every solve is preconditioned by
    the two-grid cycle on ``prolongation``; its Jacobi smoother comes from
    the current matrix.  Each of the ``coarser`` prolongations adds a level
    below: the Galerkin operator R A P of a level that has one is not
    factored but solved by two of its own two-grid cycles (a W-cycle), and
    the last level's is factored.  The coarse solve is kept across solves; a
    solve that fails, needs more than 2 n0 + 5 iterations (n0: those of the
    first solve on it) or has ``REFACTOR_EVERY_SOLVE_MIN_N`` unknowns or
    more retires it, and the next solve builds it anew.  The Krylov method sees
    b / |b|, since scipy's breakdown thresholds are absolute.  A Krylov
    failure (its flag, or a non-finite result) makes ``solve`` return None;
    ``fallbacks`` counts these failed solves, ``krylov_iters`` and
    ``coarse_factors`` the Krylov iterations and coarse factorizations.
    Newton's iteration sets ``rtol`` and ``atol`` per step through
    ``tolerance``.
    """

    def __init__(self, prolongation, *coarser):
        self.rtol = KRYLOV_RTOL
        self.atol = 0.0
        self.fallbacks = 0
        self.krylov_iters = 0
        self.coarse_factors = 0
        self.prolongations = (prolongation,) + coarser
        self.restrictions = tuple(P.T.tocsr() for P in self.prolongations)
        # the coarse solve, the symmetry of the solves it serves (None once
        # a solve has retired it) and the iterations of the first solve that
        # used it
        self._coarse = None
        self._coarse_symmetric = None
        self._first_iters = None

    @contextmanager
    def tolerance(self, rtol, atol=0.0):
        """Solve to these tolerances inside the block, then restore the old ones."""
        saved = self.rtol, self.atol
        self.rtol, self.atol = rtol, atol
        try:
            yield self
        finally:
            self.rtol, self.atol = saved

    def _preconditioner(self, A, symmetric):
        # build when there is no coarse solve or it does not serve this
        # symmetry (CG needs the factor of a symmetric matrix); the
        # prolongations fix the matrix sizes
        if self._coarse is None or self._coarse_symmetric != symmetric:
            self._coarse = None  # release the old factor before building the new one
            self._coarse = self._coarse_solve(A)
            self._coarse_symmetric = symmetric
            self._first_iters = None
            self.coarse_factors += 1
        return two_grid_preconditioner(A, self.prolongations[0], self.restrictions[0],
                                       self._coarse)

    def _coarse_solve(self, A):
        """The coarse solve of A's cycle: the splu factor of the last level's
        Galerkin operator, under a W-cycle on each level above it."""
        levels = [A]
        for P, R in zip(self.prolongations, self.restrictions):
            levels.append(R @ (levels[-1] @ P))
        solve = spla.splu(levels.pop().tocsc(), permc_spec="MMD_AT_PLUS_A").solve
        for A_l, P, R in reversed(list(zip(levels[1:], self.prolongations[1:],
                                           self.restrictions[1:]))):
            solve = _w_cycle(A_l, two_grid_preconditioner(A_l, P, R, solve))
        return solve

    def solve(self, A, b, symmetric):
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        method = spla.cg if symmetric else spla.bicgstab
        iters = 0

        def tick(xk):
            nonlocal iters
            iters += 1

        x, info = method(A, b / bnorm, rtol=self.rtol, atol=self.atol / bnorm,
                         maxiter=KRYLOV_MAXITER, M=self._preconditioner(A, symmetric),
                         callback=tick)
        x = x * bnorm
        failed = info != 0 or not np.all(np.isfinite(x))
        self.krylov_iters += iters
        if self._first_iters is None:
            self._first_iters = iters
        # the solve that used the coarse solve decides its lifetime.  From
        # the crossover on it goes now, with every level's Galerkin operator:
        # refactoring costs less than the iterations reuse adds, and a factor
        # kept through the next assembly raises peak memory.  Below it, a
        # failed solve or one past 2 n0 + 5 retires it and the next build
        # releases it (released here, the assembly in between takes its pages
        # and drainage_unsteady's peak RSS rose 2 MB)
        if A.shape[0] >= REFACTOR_EVERY_SOLVE_MIN_N:
            self._coarse = None
        elif failed or iters > 2 * self._first_iters + 5:
            self._coarse_symmetric = None
        if failed:
            self.fallbacks += 1
            return None
        return x
