"""Assembly of the global sparse operators M, Q and the boundary form Bq.

All elements are affine (straight edges), so the mass matrix is a scaled
reference mass matrix and the stiffness reduces to reference tensors
contracted with the inverse element Jacobian, for constant and variable
coefficients alike; the split form is taken on the element blocks before
they are scattered.  The discrete integration by parts identity

    Q + Q^T = Bq        (Bq the boundary quadratic form)

holds to machine precision whenever the volume rule integrates the stiffness
integrand exactly and the edge rule used for Bq matches the one used in any
split-form assembly.  ``check_sbp`` measures the defect.  Every assembler
takes only the DoF map, so M, Q and Bq share its mesh and its basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import BasisSpec, QuadratureRule, quad_rule, tabulate, tabulate_grad
from .mesh import DofMap, Mesh

# relative roundoff allowed in Q + Q^T = Bq and in the stability certificate
STABILITY_RTOL = 1e-12


def default_quad_degree(p: int) -> int:
    """Volume/edge exactness used unless overridden: max(2p, p+2), floor 6."""
    return max(2 * p, p + 2, 6)


def as_coefficient(coeff, dim: int):
    """Normalize a velocity coefficient to ``f(points) -> (n, dim)``.

    Accepts a constant scalar (1D), a constant vector, or a callable taking
    an (n, dim) array of positions.  Returns (func, constant_or_None).
    A value of the wrong shape or a non-finite value raises ``ValueError``.
    """
    if callable(coeff):
        def checked(points):
            val = np.asarray(coeff(points), dtype=float)
            if val.shape != (points.shape[0], dim):
                raise ValueError(f"velocity callable must return shape (n, {dim}) "
                                 f"for n = {points.shape[0]} points, got {val.shape}")
            if not np.isfinite(val).all():
                raise ValueError("velocity callable returned a non-finite value")
            return val

        return checked, None
    const = np.atleast_1d(np.asarray(coeff, dtype=float))
    if const.shape != (dim,):
        raise ValueError(f"constant coefficient must have shape ({dim},), "
                         f"got {const.shape}")
    if not np.isfinite(const).all():
        raise ValueError(f"constant coefficient {const} is not finite")

    def f(points):
        return np.broadcast_to(const, (points.shape[0], dim))

    return f, const


def _jacobians(mesh: Mesh):
    """Element maps x = x0 + J xi: returns (J, detJ, invJ), J shape (ne, dim, dim)."""
    v = mesh.vertices[mesh.elements]
    J = np.swapaxes(v[:, 1:] - v[:, :1], 1, 2)       # columns: edges from x0
    if mesh.dimension == 1:
        return J, J[:, 0, 0], 1.0 / J
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    adj = np.array([[J[:, 1, 1], -J[:, 0, 1]], [-J[:, 1, 0], J[:, 0, 0]]])
    return J, det, np.moveaxis(adj, 2, 0) / det[:, None, None]


def physical_points(mesh: Mesh, rule: QuadratureRule):
    """Volume rule points mapped to every element: (pts (ne, nq, dim), detJ)."""
    J, det, _ = _jacobians(mesh)
    x0 = mesh.vertices[mesh.elements[:, 0]]
    return x0[:, None, :] + np.matmul(rule.points, np.swapaxes(J, 1, 2)), det


def scatter_blocks(idx: np.ndarray, blocks: np.ndarray, n: int) -> sp.csr_matrix:
    """Sum blocks (nb, k, k) into an n x n CSR at idx[b] x idx[b], in block order.

    The indices are int32, scipy's own index type, unless n needs int64, so
    scipy neither scans nor copies them down.
    """
    nb, k = idx.shape
    idx = idx.astype(np.int32 if n < 2 ** 31 else np.int64, copy=False)
    rows = np.broadcast_to(idx[:, :, None], (nb, k, k)).ravel()
    cols = np.broadcast_to(idx[:, None, :], (nb, k, k)).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _scatter(dofmap: DofMap, local: np.ndarray) -> sp.csr_matrix:
    """Scatter per-element dense blocks (ne, nloc, nloc) into a global CSR."""
    return scatter_blocks(dofmap.element_dofs, local, dofmap.n_dofs)


@dataclass(frozen=True)
class FaceQuadrature:
    """The edge rule on every boundary face at once, in ``face_dofs`` order.

    A 1D face is one point with weight 1, length 1 and face basis [1], so
    the same contractions serve both dimensions.
    """

    dofs: np.ndarray       # (nf, p+1) global DoFs in face-lattice order
    points: np.ndarray     # (nf, nq, dim) physical quadrature points
    normals: np.ndarray    # (nf, dim) outward unit normals
    lengths: np.ndarray    # (nf,)
    weights: np.ndarray    # (nq,) rule weights on [0, 1]
    basis: np.ndarray      # (nq, p+1) face basis at the rule points

    def normal_speed(self, coeff) -> np.ndarray:
        """a . n at every face point, shape (nf, nq)."""
        nf, nq, dim = self.points.shape
        coeff_fun, _ = as_coefficient(coeff, dim)
        aval = coeff_fun(self.points.reshape(-1, dim)).reshape(nf, nq, dim)
        # batched matmul rounds as a per-face ``aval @ normal``; einsum does not
        return np.matmul(aval, self.normals[:, :, None])[..., 0]


def face_quadrature(dofmap: DofMap, edge_degree: int) -> FaceQuadrature:
    """Face DoFs, points, normals, lengths, weights and basis of all faces."""
    mesh = dofmap.mesh
    dim = mesh.dimension
    if dim == 1:
        xi, weights, basis = np.zeros((1, 1)), np.ones(1), np.ones((1, 1))
    else:
        rule = quad_rule("edge", edge_degree)
        xi, weights = rule.points, rule.weights
        basis = tabulate(BasisSpec(dofmap.kind, dofmap.order, "interval"), xi)
    bf = mesh.boundary_faces
    p0 = mesh.vertices[mesh.elements[bf.element, bf.local_face]]
    p1 = mesh.vertices[mesh.elements[bf.element, (bf.local_face + 1) % (dim + 1)]]
    return FaceQuadrature(
        dofmap.face_dofs, p0[:, None, :] + xi[None, :, :] * (p1 - p0)[:, None, :],
        bf.normals, bf.lengths, weights, basis)


def assemble_mass(dofmap: DofMap, quad_degree: int) -> sp.csr_matrix:
    """Gram matrix of the basis, M_ij = integral phi_i phi_j."""
    basis = dofmap.basis_spec()
    rule = quad_rule(basis.domain, quad_degree)
    phi = tabulate(basis, rule.points)
    mref = np.einsum("q,qi,qj->ij", rule.weights, phi, phi)
    _, det, _ = _jacobians(dofmap.mesh)
    local = det[:, None, None] * mref[None, :, :]
    return _scatter(dofmap, local)


def _advective_local(mesh, basis, coeff_fun, const, quad_degree):
    """Per-element blocks of integral phi_i (a . grad phi_j).

    Both branches contract a reference tensor with per-element coefficients
    c = J^-1 a: one vector per element when a is constant, its values at
    the rule points when it varies.  In the variable branch the tensor
    K[q, d, i, j] = w_q phi_i(x_q) d_d phi_j(x_q) is a (nq dim) x nloc^2
    matrix, so every element's block comes out of one matrix product.
    """
    rule = quad_rule(basis.domain, quad_degree)
    phi = tabulate(basis, rule.points)           # (nq, nloc)
    dphi = tabulate_grad(basis, rule.points)     # (nq, nloc, dim)
    _, det, inv = _jacobians(mesh)
    if const is not None:
        # c_e = J^-1 a, one vector per element; contract reference tensors
        T = np.einsum("q,qi,qjd->dij", rule.weights, phi, dphi)
        c = np.einsum("edk,k->ed", inv, const)
        return det[:, None, None] * np.einsum("ed,dij->eij", c, T)
    pts, _ = physical_points(mesh, rule)
    ne, nq, dim = pts.shape
    nloc = phi.shape[1]
    aval = coeff_fun(pts.reshape(-1, dim)).reshape(ne, nq, dim)
    c = np.matmul(aval, np.swapaxes(inv, 1, 2))             # c[e, q] = J_e^-1 a
    K = np.einsum("q,qi,qjd->qdij", rule.weights, phi, dphi)
    local = (c.reshape(ne, nq * dim) @ K.reshape(nq * dim, nloc * nloc)).reshape(
        ne, nloc, nloc)
    local *= det[:, None, None]
    return local


def assemble_stiffness(dofmap: DofMap, coeff, quad_degree: int,
                       split_alpha: float | None = None,
                       edge_quad_degree: int | None = None) -> sp.csr_matrix:
    """Stiffness Q_ij = integral phi_i (a . grad phi_j), optionally split.

    The split form Q = (1 - alpha) A + alpha (Bq - A^T), A the advective
    stiffness, is taken per element: the blocks (1 - alpha) A_e - alpha A_e^T
    are scattered once and alpha Bq, which lives on the boundary faces, is
    added after.

    Parameters
    ----------
    coeff : constant vector or callable
        Velocity field a(x).  Constant coefficients are assembled in
        advective form; variable coefficients default to the split form.
    split_alpha : float or None
        Weight of the conservative form.  None selects advective form for
        constant coefficients and alpha = 0.5 for variable ones.
    edge_quad_degree : int or None
        Edge rule used by the conservative part of the split form; must
        match the rule used for Bq so the two cancel exactly.
    """
    edge_deg = edge_quad_degree if edge_quad_degree is not None else quad_degree
    return _stiffness(dofmap, coeff, quad_degree, split_alpha, edge_deg)[0]


def _stiffness(dofmap, coeff, quad_degree, split_alpha, edge_deg):
    """``assemble_stiffness`` and the Bq it assembled, None in advective form."""
    coeff_fun, const = as_coefficient(coeff, dofmap.mesh.dimension)
    if split_alpha is None:
        split_alpha = 0.0 if const is not None else 0.5
    elif not np.isfinite(split_alpha):
        raise ValueError(f"split weight alpha = {split_alpha} is not finite")
    adv_local = _advective_local(dofmap.mesh, dofmap.basis_spec(), coeff_fun,
                                 const, quad_degree)
    if split_alpha == 0.0:
        return _scatter(dofmap, adv_local), None
    bq = assemble_boundary_quadratic(dofmap, coeff, edge_deg)
    local = (1.0 - split_alpha) * adv_local
    local -= split_alpha * np.swapaxes(adv_local, 1, 2)
    return _scatter(dofmap, local) + split_alpha * bq, bq


def assemble_boundary_quadratic(dofmap: DofMap, coeff,
                                edge_quad_degree: int) -> sp.csr_matrix:
    """Boundary form Bq_ij = contour integral phi_i phi_j (a . n).

    Supported only on DoFs whose basis functions are nonzero on the physical
    boundary.  In 1D this degenerates to point values at the endpoints.
    """
    fq = face_quadrature(dofmap, edge_quad_degree)
    an = fq.normal_speed(coeff)
    blocks = fq.lengths[:, None, None] * np.einsum(
        "q,fq,qi,qj->fij", fq.weights, an, fq.basis, fq.basis)
    return scatter_blocks(fq.dofs, blocks, dofmap.n_dofs)


@dataclass(frozen=True)
class GlobalOperators:
    """Assembled mass, stiffness and boundary quadratic form (scalar level)."""

    M: sp.csr_matrix
    Q: sp.csr_matrix
    Bq: sp.csr_matrix
    dofmap: DofMap
    volume_degree: int
    edge_degree: int

    @property
    def norm_q(self) -> float:
        data = self.Q.data
        return float(np.max(np.abs(data))) if data.size else 0.0


def build_operators(dofmap: DofMap, coeff, volume_degree: int | None = None,
                    edge_degree: int | None = None,
                    split_alpha: float | None = None) -> GlobalOperators:
    """Assemble M, Q and Bq with matched (or explicitly overridden) rules."""
    vol = volume_degree if volume_degree is not None else default_quad_degree(dofmap.order)
    edge = edge_degree if edge_degree is not None else vol
    M = assemble_mass(dofmap, vol)
    Q, Bq = _stiffness(dofmap, coeff, vol, split_alpha, edge)
    if Bq is None:
        Bq = assemble_boundary_quadratic(dofmap, coeff, edge)
    return GlobalOperators(M, Q, Bq, dofmap, vol, edge)


@dataclass(frozen=True)
class SbpReport:
    max_interior_residual: float
    max_boundary_residual: float
    tolerance: float
    passed: bool

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"SBP check: interior {self.max_interior_residual:.3e}, "
                f"boundary {self.max_boundary_residual:.3e}, "
                f"tol {self.tolerance:.3e} -> {status}")


def check_sbp(ops: GlobalOperators) -> SbpReport:
    """Measure the defect of Q + Q^T = Bq, split into interior/boundary parts.

    The defect passes up to STABILITY_RTOL times the largest stiffness
    entry; entries in rows or columns of strictly interior DoFs count as
    interior residual.
    """
    resid = (ops.Q + ops.Q.T - ops.Bq).tocoo()
    on_boundary = np.zeros(ops.dofmap.n_dofs, dtype=bool)
    on_boundary[ops.dofmap.boundary_dofs] = True
    if resid.nnz:
        both = on_boundary[resid.row] & on_boundary[resid.col]
        a = np.abs(resid.data)
        max_bnd = float(a[both].max()) if both.any() else 0.0
        max_int = float(a[~both].max()) if (~both).any() else 0.0
    else:
        max_bnd = max_int = 0.0
    tol = STABILITY_RTOL * max(ops.norm_q, 1e-300)
    return SbpReport(max_int, max_bnd, tol,
                     max_int <= tol and max_bnd <= tol)
