"""Weak boundary operators: penalty matrices that stabilize the scheme.

The semidiscrete scheme reads  M du/dt = -Q u + Pi u + G(t), where Pi acts
only on boundary-trace DoFs.  Constructors are provided for

* 1D scalar upwind penalties with an explicit penalty parameter,
* 2D scalar inflow penalties  a_n^- (u - g),
* characteristic penalties for symmetrizable systems, built from the
  eigenstructure of the normal coefficient matrix and admissible when the
  boundary quadratic form they leave is strictly dissipative, and
* the heat-conduction moment system with Maxwell accommodation boundary
  rows (two boundary conditions for six fields), by its one operator
  Pi = (s P^(-1/2) + A_n/2) L_n' (L_n L_n')^(-1).

Both system penalties are one pointwise type, Pi (L u - g) as the
matrices Pi L and Pi (``PointOperator``).

Every constructor is a thin caller of one kernel, ``assemble_face_sat``:
weights per rule point, one m x m operator per face and the boundary data
give both the matrix and G(t).  Its rule and face basis are those of the
boundary quadratic form (``assembly.face_quadrature``), so penalty and Bq
share one edge rule and the discrete energy estimate closes exactly; in 1D
a face is one point of weight 1.  Mesh and basis come from the DoF map
alone, and every penalty scale must be finite and at least 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import FaceQuadrature, face_quadrature, scatter_blocks
from .mesh import DofMap


class StabilityViolationError(ValueError):
    """A requested boundary operator violates its dissipativity condition."""


@dataclass
class BoundaryOperator:
    """Sparse penalty matrix plus the boundary-data functional G(t).

    ``matrix`` is square over the DoF-major state and has support only on
    boundary-trace DoFs.  ``data`` maps time to the assembled right-hand-side
    vector (None means homogeneous); data linear in a stacked vector g(t),
    such as characteristic data, come as a precomputed :class:`DataMap`.
    """

    matrix: sp.csr_matrix
    data: object = None            # callable t -> (N,) or None

    def rhs_data(self, t: float) -> np.ndarray:
        if self.data is None:
            return np.zeros(self.matrix.shape[0])
        return np.asarray(self.data(t), dtype=float)


@dataclass(frozen=True)
class DataMap:
    """G(t) = D g(t) for boundary data linear in a stacked vector g(t).

    D (N x W) is kept as its nonzero ``rows`` and their dense block
    ``D[rows]``, so a call is one small product written into zeros.
    """

    rows: np.ndarray
    block: np.ndarray              # (len(rows), W)
    n: int
    g: object                      # callable t -> (W,)

    def __call__(self, t: float) -> np.ndarray:
        G = np.zeros(self.n)
        G[self.rows] = self.block @ self.g(t)
        return G


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if tau >= -0.5:
        raise StabilityViolationError(
            f"penalty tau = {tau} violates tau < -1/2")
    return tau


def _check_scale(scale: float) -> float:
    scale = float(scale)
    if not (np.isfinite(scale) and scale >= 1.0):
        raise StabilityViolationError(
            f"SAT scale factor {scale} must be finite and >= 1")
    return scale


def scalar_sat_1d(dofmap: DofMap, a: float, tau=-1.0,
                  data=(None, None)) -> BoundaryOperator:
    """Endpoint penalties for 1D scalar advection with speed ``a``.

    tau may be one value or a (left, right) pair; each must satisfy
    tau < -1/2.  The left endpoint is penalized with weight tau*a+ (active
    for a > 0) and the right with -tau*a- (active for a < 0); both weights
    are negative, pulling the trace toward the boundary values b(t) in
    ``data``.  The boundary flux contributes -a u0^2 / +a uN^2 to the
    energy rate, so each active weight w must satisfy 2w + |a| <= 0,
    which is tau < -1/2.  Each weight is a_n^- (-tau), the 2D inflow
    penalty of ``scalar_sat_2d`` with scale -tau.
    """
    if dofmap.mesh.dimension != 1:
        raise ValueError("scalar_sat_1d needs a 1D dofmap")
    tau0, tau1 = (tau if isinstance(tau, (tuple, list)) else (tau, tau))
    tau0, tau1 = _check_tau(tau0), _check_tau(tau1)
    fq = face_quadrature(dofmap, 1)            # a 1D face is one point
    right = fq.normals[:, 0] > 0
    w = np.minimum(float(a) * fq.normals[:, 0], 0.0) * -np.where(right, tau1, tau0)
    faces = np.nonzero(w < 0.0)[0]
    ends = [data[1] if r else data[0] for r in right[faces]]
    fun = None if all(b is None for b in ends) else lambda t: np.array(
        [0.0 if b is None else float(b(t)) for b in ends]).reshape(-1, 1, 1)
    return assemble_face_sat(dofmap, fq, faces, w[faces, None], data=fun)


def scalar_sat_2d(dofmap: DofMap, coeff, g=None, edge_quad_degree: int = 6,
                  scale: float = 1.0) -> BoundaryOperator:
    """Inflow penalty  a_n^-(u - g)  assembled with the edge rule.

    Outflow portions (a . n > 0) contribute nothing.  ``g`` is either None
    (homogeneous) or a callable g(points, t) -> values, evaluated once per
    call at the quadrature points of all inflow faces.
    """
    scale = _check_scale(scale)
    fq = face_quadrature(dofmap, edge_quad_degree)
    an_m = np.minimum(fq.normal_speed(coeff), 0.0) * scale
    inflow = np.nonzero(np.any(an_m < 0.0, axis=1))[0]
    w = fq.weights * an_m[inflow] * fq.lengths[inflow, None]      # (nf, nq)
    pts = fq.points[inflow].reshape(-1, dofmap.mesh.dimension)
    fun = None if g is None else lambda t: np.asarray(
        g(pts, t), dtype=float).reshape(*w.shape, 1)
    return assemble_face_sat(dofmap, fq, inflow, w, data=fun)


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
    variables are W = X^T P^(-1/2) U, split by eigenvalue sign; zero modes,
    classified with threshold 1e-10 * ||C_n||, are set to exactly 0.0 and
    carry no penalty.
    """

    eigenvalues: np.ndarray      # descending
    X: np.ndarray                # orthonormal columns
    pos: np.ndarray              # indices of positive eigenvalues
    neg: np.ndarray
    p_sqrt: np.ndarray
    p_inv_sqrt: np.ndarray


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
    w = np.where(np.abs(w) <= thr, 0.0, w)
    return CharacteristicDecomposition(w, v, np.nonzero(w > 0.0)[0],
                                       np.nonzero(w < 0.0)[0], p_sqrt,
                                       p_inv_sqrt)


@dataclass(frozen=True)
class PointOperator:
    """Pointwise penalty Pi (L u - g) = pi_mat @ u - data_mat @ g(t)."""

    pi_mat: np.ndarray           # (..., m, m) = Pi L
    data_mat: np.ndarray         # (..., m, q) = Pi: boundary data to penalty


def build_pi_system(decomp: CharacteristicDecomposition, R=None,
                    scale: float = 1.0) -> PointOperator:
    """Characteristic penalty with weight Lambda^- on (W^- - R W^+ - g).

    R maps outgoing (positive-eigenvalue) characteristics to the imposed
    incoming combination; R = None means pure upwind (R = 0).  The
    construction is admissible only when the boundary quadratic form it
    leaves is strictly dissipative; otherwise a StabilityViolationError is
    raised.  With Lambda^- < 0 its Schur complement makes this the same as
    Lambda^+ + R^T Lambda^- R > 0, so no separate budget test is needed.
    """
    scale = _check_scale(scale)
    n_neg, n_pos = decomp.neg.size, decomp.pos.size
    if R is None:
        R = np.zeros((n_neg, n_pos))
    else:
        R = np.atleast_2d(np.asarray(R, dtype=float))
        if R.shape != (n_neg, n_pos):
            raise ValueError(f"R must have shape ({n_neg}, {n_pos})")
    lam_p = decomp.eigenvalues[decomp.pos]
    lam_m = decomp.eigenvalues[decomp.neg]
    # the boundary quadratic form in characteristic variables must be
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


def r13_normal_matrix(gamma) -> np.ndarray:
    """cos(gamma) A + sin(gamma) B; an array of angles gives (..., 6, 6)."""
    A, B, _ = r13_matrices()
    gamma = np.asarray(gamma, dtype=float)[..., None, None]
    return np.cos(gamma) * A + np.sin(gamma) * B


def r13_boundary_rows(gamma, alpha: float, beta: float) -> np.ndarray:
    """Accommodation boundary rows L_n (2 x 6, or (..., 2, 6)) at angle gamma."""
    c, s = np.cos(gamma), np.sin(gamma)
    z = np.zeros_like(c)
    rows = np.array([
        [z - alpha, c, s, -alpha * c * c, -2.0 * alpha * c * s, -alpha * s * s],
        [z, -beta * s, beta * c, -c * s, np.cos(2.0 * gamma), s * c],
    ])
    return np.moveaxis(rows, (0, 1), (-2, -1))


R13_SHIFT = -2.0     # s of the accommodation operator, which needs s < 0


def build_pi_r13(alpha: float, beta: float, gamma) -> PointOperator:
    """Boundary operator for the moment system at one or an array of angles.

    Pi = (s P^(-1/2) + A_n/2) L_n' (L_n L_n')^(-1) with s = ``R13_SHIFT``.
    """
    _, _, P = r13_matrices()
    a_n = r13_normal_matrix(gamma)
    l_n = r13_boundary_rows(gamma, alpha, beta)
    l_t = np.swapaxes(l_n, -1, -2)
    gram = l_n @ l_t
    if np.any(np.abs(np.linalg.det(gram)) < 1e-12):
        raise StabilityViolationError("L_n L_n' is singular")
    p_inv_sqrt = np.diag(1.0 / np.sqrt(np.diag(P)))
    pi = (R13_SHIFT * p_inv_sqrt + 0.5 * a_n) @ l_t @ np.linalg.inv(gram)
    return PointOperator(pi @ l_n, pi)


# ---------------------------------------------------------------------------
# the penalty kernel
# ---------------------------------------------------------------------------

def assemble_face_sat(dofmap: DofMap, fq: FaceQuadrature, faces, w, ops=None,
                      data=None, g=None) -> BoundaryOperator:
    """The penalty on ``faces`` (indices into ``fq``) and its data G(t).

    ``w[f, q]`` is the rule weight of ``fq`` times the face length times
    any pointwise scalar such as a_n^-; ``ops[f]`` (m, m) is the pointwise
    operator, constant along a straight face (omitted for m = 1).  The
    matrix sum_q w phi_i phi_j (x) ops[f] is scattered DoF-major: component
    c of DoF i sits at index i * m + c.  ``data`` is None (homogeneous), a
    callable t -> (nf, nq or 1, m) of boundary values d, pointwise or
    constant along each face, or a table (nf, 1, m, W) of face values
    linear in the stacked data vector ``g(t)`` (W,); G(t) = -sum_q w phi_i
    d, faces added in order.  A table gives G(t) = D g(t) as a
    :class:`DataMap`; without ``g`` its one column is constant data, and
    G is evaluated once.
    """
    m = 1 if ops is None else ops.shape[-1]
    n = dofmap.n_dofs * m
    dofs = fq.dofs[faces]                                         # (nf, p+1)
    k = dofs.shape[1] * m
    blocks = np.einsum("fq,qi,qj->fij", w, fq.basis, fq.basis)
    if ops is not None:
        blocks = (blocks[:, :, None, :, None]
                  * ops[:, None, :, None, :]).reshape(-1, k, k)
    gidx = (dofs[:, :, None] * m + np.arange(m)).reshape(-1, k)
    mat = scatter_blocks(gidx, blocks, n)
    if data is None or not len(faces):
        return BoundaryOperator(mat)
    rows, basis_t, neg_w = gidx.ravel(), fq.basis.T, -w[:, :, None]
    if not callable(data):                         # a table
        width = data.shape[-1]
        D = np.matmul(basis_t, neg_w * data.reshape(len(faces), 1, -1))
        D = D.reshape(-1, width)                   # one row per entry of rows
        if g is None:
            G = np.bincount(rows, D[:, 0], minlength=n)
            return BoundaryOperator(mat, lambda t: G)
        support, at = np.unique(rows, return_inverse=True)
        block = np.zeros((support.size, width))
        np.add.at(block, at, D)
        keep = block.any(axis=1)
        return BoundaryOperator(mat, DataMap(support[keep], block[keep], n, g))

    def fun(s):
        return np.bincount(rows, np.matmul(basis_t, neg_w * data(s)).ravel(),
                           minlength=n)

    return BoundaryOperator(mat, fun)
