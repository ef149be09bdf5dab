"""Weak boundary operators: penalty matrices that stabilize the scheme.

The semidiscrete scheme reads  M du/dt = -Q u + Pi u + G(t), where Pi acts
only on boundary-trace DoFs.  Constructors are provided for

* 1D scalar upwind penalties with an explicit penalty parameter,
* 2D scalar inflow penalties  a_n^- (u - g),
* characteristic penalties for symmetrizable systems, built from the
  eigenstructure of the normal coefficient matrix, and
* the heat-conduction moment system with Maxwell accommodation boundary
  rows (two boundary conditions for six fields).

All penalties are assembled from the same face kernel as the boundary
quadratic form (``assembly.face_quadrature``), so penalty and Bq share one
edge rule and the discrete energy estimate closes exactly; in 1D the kernel
is one endpoint value per face.  The boundary data G(t) is computed face by
face and the face vectors are added into the DoF vector in face order
(``np.bincount`` over precomputed DoF indices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import face_quadrature, scatter_blocks
from .basis import BasisSpec
from .mesh import DofMap, Mesh


class StabilityViolationError(ValueError):
    """A requested boundary operator violates its dissipativity condition."""


@dataclass
class BoundaryOperator:
    """Sparse penalty matrix plus the boundary-data functional G(t).

    ``matrix`` has shape (n_dofs * ncomp,) squared and support only on
    boundary-trace DoFs.  ``data`` maps time to the assembled right-hand-side
    vector (None means homogeneous).
    """

    matrix: sp.csr_matrix
    data: object = None            # callable t -> (N,) or None
    ncomp: int = 1

    def rhs_data(self, t: float) -> np.ndarray:
        if self.data is None:
            return np.zeros(self.matrix.shape[0])
        return np.asarray(self.data(t), dtype=float)


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if tau >= -0.5:
        raise StabilityViolationError(
            f"penalty tau = {tau} violates tau < -1/2")
    return tau


def scalar_sat_1d(dofmap: DofMap, a: float, tau=-1.0,
                  data=(None, None)) -> BoundaryOperator:
    """Endpoint penalties for 1D scalar advection with speed ``a``.

    tau may be one value or a (left, right) pair; each must satisfy
    tau < -1/2.  The left endpoint is penalized with weight tau*a+ (active
    for a > 0) and the right with -tau*a- (active for a < 0); both weights
    are negative, pulling the trace toward the boundary values b(t) in
    ``data``.  The boundary flux contributes -a u0^2 / +a uN^2 to the
    energy rate, so each active weight w must satisfy 2w + |a| <= 0,
    which is tau < -1/2.
    """
    if dofmap.mesh.dimension != 1:
        raise ValueError("scalar_sat_1d needs a 1D dofmap")
    tau0, tau1 = (tau if isinstance(tau, (tuple, list)) else (tau, tau))
    tau0, tau1 = _check_tau(tau0), _check_tau(tau1)
    a = float(a)
    w_left = tau0 * max(a, 0.0)
    w_right = -tau1 * min(a, 0.0)
    n = dofmap.n_dofs
    facing_right = dofmap.mesh.boundary_faces.normals[:, 0] > 0
    left = int(dofmap.face_dofs[~facing_right, 0][-1])
    right = int(dofmap.face_dofs[facing_right, 0][-1])
    mat = sp.coo_matrix(([w_left, w_right], ([left, right], [left, right])),
                        shape=(n, n)).tocsr()
    b0, b1 = data
    if b0 is None and b1 is None:
        fun = None
    else:
        def fun(t):
            g = np.zeros(n)
            if b0 is not None:
                g[left] = -w_left * float(b0(t))
            if b1 is not None:
                g[right] = -w_right * float(b1(t))
            return g
    return BoundaryOperator(mat, fun)


def scalar_sat_2d(mesh: Mesh, dofmap: DofMap, basis: BasisSpec, coeff,
                  g=None, edge_quad_degree: int = 6,
                  scale: float = 1.0) -> BoundaryOperator:
    """Inflow penalty  a_n^-(u - g)  assembled with the edge rule.

    Outflow portions (a . n > 0) contribute nothing.  ``g`` is either None
    (homogeneous) or a callable g(points, t) -> values, evaluated once per
    call at the quadrature points of all inflow faces; the face vectors of
    G(t) are added in face order.
    """
    if scale < 1.0:
        raise StabilityViolationError("SAT scale factor must be >= 1")
    n = dofmap.n_dofs
    fq = face_quadrature(dofmap, edge_quad_degree)
    an_m = np.minimum(fq.normal_speed(coeff), 0.0) * scale
    inflow = np.any(an_m < 0.0, axis=1)
    w = fq.weights * an_m[inflow] * fq.lengths[inflow, None]      # (nf, nq)
    dofs = fq.dofs[inflow]
    blocks = np.einsum("fq,qi,qj->fij", w, fq.basis, fq.basis)
    mat = scatter_blocks(dofs, blocks, n)
    if g is None or not inflow.any():
        return BoundaryOperator(mat)
    pts = fq.points[inflow].reshape(-1, mesh.dimension)
    rows = dofs.ravel()

    def fun(t):
        # contract each face, (w g) @ b, then add the faces in order
        wg = w * np.asarray(g(pts, t), dtype=float).reshape(w.shape)
        return np.bincount(rows, np.matmul(-wg[:, None, :], fq.basis).ravel(),
                           minlength=n)

    return BoundaryOperator(mat, fun)


# ---------------------------------------------------------------------------
# characteristic decompositions for symmetrizable systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacteristicDecomposition:
    """Eigenstructure of the normal coefficient matrix at a boundary point.

    For a symmetrizable system with symmetrizer P, the decomposition
    diagonalizes S = P^(-1/2) (A_n P) P^(-1/2):  S = X Lambda X^T with
    orthonormal X.  The eigenvalues equal those of A_n; for P = I the
    factorization reconstructs C_n = A_n P directly.  Characteristic
    variables are W = X^T P^(-1/2) U, split by eigenvalue sign (zero modes,
    classified with threshold 1e-10 * ||C_n||, carry no penalty).
    """

    normal: np.ndarray
    a_n: np.ndarray
    c_n: np.ndarray
    symmetrizer: np.ndarray
    eigenvalues: np.ndarray      # descending
    X: np.ndarray                # orthonormal columns
    pos: np.ndarray              # indices of positive eigenvalues
    neg: np.ndarray
    zero: np.ndarray
    p_sqrt: np.ndarray
    p_inv_sqrt: np.ndarray

    @property
    def lam_pos(self):
        return self.eigenvalues[self.pos]

    @property
    def lam_neg(self):
        return self.eigenvalues[self.neg]


def characteristic_decompose(A, B, P, n) -> CharacteristicDecomposition:
    """Decompose A_n = n_x A + n_y B for a symmetrizable system.

    ``B`` may be None for 1D systems (n is then a length-1 vector, +-1).
    Raises if A_n P is not symmetric to 1e-12 or P is not SPD.  Eigenvalues
    are sorted descending and eigenvector signs are fixed (first
    significant component positive) for reproducibility.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    P = np.asarray(P, dtype=float)
    n = np.atleast_1d(np.asarray(n, dtype=float))
    if B is None:
        a_n = n[0] * A
    else:
        B = np.asarray(B, dtype=float)
        a_n = n[0] * A + n[1] * B
    c_n = a_n @ P
    scale = max(np.abs(c_n).max(), 1e-300)
    if np.abs(c_n - c_n.T).max() > 1e-12 * scale:
        raise StabilityViolationError(
            "A_n P is not symmetric: system not symmetrized by P")
    pw, pv = np.linalg.eigh(0.5 * (P + P.T))
    if pw.min() <= 0:
        raise StabilityViolationError("symmetrizer P is not positive definite")
    p_sqrt = (pv * np.sqrt(pw)) @ pv.T
    p_inv_sqrt = (pv / np.sqrt(pw)) @ pv.T
    s = p_inv_sqrt @ c_n @ p_inv_sqrt
    s = 0.5 * (s + s.T)
    w, v = np.linalg.eigh(s)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    for j in range(m):
        col = v[:, j]
        big = np.nonzero(np.abs(col) > 1e-8 * max(np.abs(col).max(), 1e-300))[0]
        if big.size and col[big[0]] < 0:
            v[:, j] = -col
    thr = 1e-10 * scale
    pos = np.nonzero(w > thr)[0]
    neg = np.nonzero(w < -thr)[0]
    zero = np.nonzero(np.abs(w) <= thr)[0]
    w = w.copy()
    w[zero] = 0.0
    return CharacteristicDecomposition(n, a_n, c_n, P, w, v, pos, neg, zero,
                                       p_sqrt, p_inv_sqrt)


@dataclass(frozen=True)
class PointOperator:
    """Pointwise boundary penalty: SAT(x, t) = pi_mat @ u + data_vec(t)."""

    pi_mat: np.ndarray           # (m, m)
    data_mat: np.ndarray         # (m, q): maps boundary data to the penalty

    def data_vec(self, g) -> np.ndarray:
        return -self.data_mat @ np.asarray(g, dtype=float)


def build_pi_system(decomp: CharacteristicDecomposition, R=None,
                    scale: float = 1.0) -> PointOperator:
    """Characteristic penalty with weight Lambda^- on (W^- - R W^+ - g).

    R maps outgoing (positive-eigenvalue) characteristics to the imposed
    incoming combination; R = None means pure upwind (R = 0).  The
    construction is admissible only when the reflected energy budget
    Lambda^+ + R^T Lambda^- R  is positive semidefinite and the combined
    boundary quadratic form is strictly dissipative; otherwise a
    StabilityViolationError is raised.
    """
    if scale < 1.0:
        raise StabilityViolationError("SAT scale factor must be >= 1")
    n_neg, n_pos = decomp.neg.size, decomp.pos.size
    if R is None:
        R = np.zeros((n_neg, n_pos))
    else:
        R = np.atleast_2d(np.asarray(R, dtype=float))
        if R.shape != (n_neg, n_pos):
            raise ValueError(f"R must have shape ({n_neg}, {n_pos})")
    lam_p = decomp.lam_pos
    lam_m = decomp.lam_neg
    cond = np.diag(lam_p) + R.T @ np.diag(lam_m) @ R
    if cond.size:
        if np.linalg.eigvalsh(0.5 * (cond + cond.T)).min() < -1e-12 * max(
                np.abs(lam_p).max(initial=0.0), 1.0):
            raise StabilityViolationError(
                "reflection matrix violates Lambda+ + R' Lambda- R >= 0")
    # full boundary quadratic form in characteristic variables must be
    # strictly dissipative (marginal |R| = 1 cases are rejected)
    wb = np.block([[-np.diag(lam_p), -(np.diag(lam_m) @ R).T],
                   [-np.diag(lam_m) @ R, np.diag(lam_m)]])
    if wb.size:
        wmax = np.linalg.eigvalsh(0.5 * (wb + wb.T)).max()
        if wmax >= -1e-12 * max(np.abs(wb).max(), 1e-300):
            raise StabilityViolationError(
                "boundary quadratic form is not strictly dissipative")
    xm = decomp.X[:, decomp.neg]
    xp = decomp.X[:, decomp.pos]
    core = xm @ np.diag(lam_m)
    pi_mat = scale * decomp.p_sqrt @ core @ (xm.T - R @ xp.T) @ decomp.p_inv_sqrt
    data_mat = scale * decomp.p_sqrt @ core
    return PointOperator(pi_mat, data_mat)


# ---------------------------------------------------------------------------
# heat-conduction moment system (6 fields, 2 boundary conditions)
# ---------------------------------------------------------------------------

def r13_matrices():
    """Flux matrices A, B and symmetrizer P of the 6-field moment system.

    Unknowns: (theta, s_x, s_y, R_xx, R_xy, R_yy).
    """
    A = np.zeros((6, 6))
    B = np.zeros((6, 6))
    # d/dt theta + div s = 0
    A[0, 1] = 1.0
    B[0, 2] = 1.0
    # d/dt s + grad theta + div R = relaxation
    A[1, 0] = 1.0
    A[1, 3] = 1.0
    B[1, 4] = 1.0
    A[2, 4] = 1.0
    B[2, 0] = 1.0
    B[2, 5] = 1.0
    # d/dt R + sym grad s = relaxation
    A[3, 1] = 1.0
    A[4, 2] = 0.5
    B[4, 1] = 0.5
    B[5, 2] = 1.0
    P = np.diag([1.0, 1.0, 1.0, 1.0, 0.5, 1.0])
    return A, B, P


def r13_normal_matrix(gamma: float) -> np.ndarray:
    """cos(gamma) A + sin(gamma) B."""
    A, B, _ = r13_matrices()
    return np.cos(gamma) * A + np.sin(gamma) * B


def r13_boundary_rows(gamma: float, alpha: float, beta: float) -> np.ndarray:
    """Accommodation boundary rows L_n (2 x 6) at normal angle gamma."""
    c, s = np.cos(gamma), np.sin(gamma)
    return np.array([
        [-alpha, c, s, -alpha * c * c, -2.0 * alpha * c * s, -alpha * s * s],
        [0.0, -beta * s, beta * c, -c * s, np.cos(2.0 * gamma), s * c],
    ])


@dataclass(frozen=True)
class R13PointOperator:
    """Composite penalty Pi (6 x 2) applied as Pi (L_n U - G_n)."""

    pi: np.ndarray               # (6, 2)
    l_n: np.ndarray              # (2, 6)
    pi_mat: np.ndarray           # (6, 6) = pi @ l_n

    def data_vec(self, g_n) -> np.ndarray:
        return -self.pi @ np.asarray(g_n, dtype=float)


def build_pi_r13(alpha: float, beta: float, gamma: float,
                 variant: str = "delta", shift: float = -2.0) -> R13PointOperator:
    """Boundary operator for the moment system at one boundary point.

    variant 'delta': Pi = (shift P^(-1/2) + A_n/2) L_n' (L_n L_n')^(-1),
    requiring shift < 0.  variant 'eigen-shift':
    Pi = (A_n/2 - shift I) P L_n' (L_n P L_n')^(-1), requiring the shift to
    sit at or below half the most negative wave speed.
    """
    A, B, P = r13_matrices()
    a_n = r13_normal_matrix(gamma)
    l_n = r13_boundary_rows(gamma, alpha, beta)
    if variant == "delta":
        if shift >= 0:
            raise StabilityViolationError("delta shift must be negative")
        gram = l_n @ l_n.T
        p_inv_sqrt = np.diag(1.0 / np.sqrt(np.diag(P)))
        pi = (shift * p_inv_sqrt + 0.5 * a_n) @ l_n.T @ np.linalg.inv(gram)
    elif variant == "eigen-shift":
        lam_min = -np.sqrt(2.0)       # most negative wave speed of the system
        if shift > 0.5 * lam_min + 1e-14:
            raise StabilityViolationError(
                f"eigen shift must be <= {0.5 * lam_min:.6f}")
        gram = l_n @ P @ l_n.T
        expect = np.diag([1.0 + 2.0 * alpha ** 2, 0.5 + beta ** 2])
        if np.abs(gram - expect).max() > 1e-10 * max(1.0, np.abs(expect).max()):
            raise StabilityViolationError("L_n P L_n' lost its closed form")
        pi = (0.5 * a_n - shift * np.eye(6)) @ P @ l_n.T @ np.linalg.inv(gram)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if abs(np.linalg.det(l_n @ l_n.T)) < 1e-12:
        raise StabilityViolationError("L_n L_n' is singular")
    return R13PointOperator(pi, l_n, pi @ l_n)


# ---------------------------------------------------------------------------
# assembly of system penalties over boundary faces
# ---------------------------------------------------------------------------

def assemble_face_sat(dofmap: DofMap, entries, ncomp: int,
                      edge_quad_degree: int = 6) -> BoundaryOperator:
    """Assemble a system penalty from per-face pointwise operators.

    ``entries`` is a list of (face_index, pi_mat (m,m), data_point) where
    data_point is None, a static (m,) vector, or a callable t -> (m,).
    The pointwise operator is constant along each (straight) face; the
    edge rule supplies the phi_i phi_j weights.  State layout is DoF-major:
    component c of DoF i sits at index i * ncomp + c.  G(t) adds the face
    vectors in entry order; when no data point is callable, it is computed
    once.
    """
    fq = face_quadrature(dofmap, edge_quad_degree)
    n = dofmap.n_dofs * ncomp
    fidx = np.array([e[0] for e in entries], dtype=np.int64)
    pis = np.array([e[1] for e in entries], dtype=float).reshape(-1, ncomp, ncomp)
    dofs = fq.dofs[fidx]                                          # (nf, p+1)
    k = dofs.shape[1] * ncomp
    eloc = fq.lengths[fidx, None, None] * np.einsum(
        "q,qi,qj->ij", fq.weights, fq.basis, fq.basis)
    blocks = eloc[:, :, None, :, None] * pis[:, None, :, None, :]
    gidx = (dofs[:, :, None] * ncomp + np.arange(ncomp)).reshape(-1, k)
    mat = scatter_blocks(gidx, blocks.reshape(-1, k, k), n)
    values = [e[2] for e in entries if e[2] is not None]
    if not values:
        return BoundaryOperator(mat, None, ncomp)
    with_data = np.array([e[2] is not None for e in entries])
    phi_int = fq.lengths[fidx[with_data], None] * (fq.weights @ fq.basis)
    rows = gidx[with_data].ravel()

    def fun(t):
        vals = np.array([v(t) if callable(v) else v for v in values], dtype=float)
        return np.bincount(rows, (phi_int[:, :, None] * vals[:, None, :]).ravel(),
                           minlength=n)

    if any(callable(v) for v in values):
        return BoundaryOperator(mat, fun, ncomp)
    const = fun(0.0)
    return BoundaryOperator(mat, lambda t: const, ncomp)
