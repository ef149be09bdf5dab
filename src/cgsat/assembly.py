"""Assembly of the global sparse operators M, Q and the boundary form Bq.

All elements are affine (straight edges), so the mass matrix is a scaled
reference mass matrix and the stiffness reduces to reference tensors
contracted with the inverse element Jacobian, for constant and variable
coefficients alike; the split form is taken on the element blocks before
they are scattered.  The discrete integration by parts identity

    Q + Q^T = Bq        (Bq the boundary quadratic form)

holds to machine precision whenever the volume rule integrates the stiffness
integrand exactly; the split form adds the Bq it returns.  ``check_sbp``
measures the defect, reading Q + Q^T from Q's own arrays through each
stored entry's transpose partner, so neither Q^T nor the sum is formed.
Volume assemblers take the DoF map and Bq its face table
(``face_quadrature``), so M, Q and Bq share one mesh and basis.

Two builders write CSR arrays directly: ``scatter_blocks`` sums element
or face blocks, and ``kron_sum`` forms the system operators
sum_g Q_g (x) A_g, the system mass M (x) I and the source M (x) S, each
bit for bit what scipy's conversions and sparse sums give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import BasisSpec, QuadratureRule, quad_rule, tabulate, tabulate_grad
from .mesh import DofMap, Mesh

# relative roundoff allowed in Q + Q^T = Bq and in the stability certificate
STABILITY_RTOL = 1e-12

# elements per step of the in-place split form, whose temporary is one chunk
SPLIT_CHUNK = 256

# stored part entries per step of kron_sum, whose temporaries are a few
# arrays of one chunk and of one chunk times the mats' nonzeros per row
KRON_CHUNK = 8192

# stored entries of Q per step of check_sbp's walk, whose buffers are one chunk
SBP_CHUNK = 65536


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

    Bit for bit this is the COO -> CSR conversion of the blocks' entries in
    (block, row, column) order, without the per-entry row and column arrays.
    Each row of the unsorted CSR lists the block rows that land on it in
    block order, as scipy's counting sort does; ``sum_duplicates`` then sorts
    each row by a permutation that depends only on its column sequence, so it
    sums the duplicates as scipy's conversion does.  The indices are int32,
    scipy's own index type, unless n or the entry count needs int64.
    """
    nb, k = idx.shape
    itype = np.int32 if max(n, nb * k * k) < 2 ** 31 else np.int64
    idx = idx.astype(itype, copy=False)
    occ = np.argsort(idx.ravel(), kind="stable")     # (block, row) by global row
    indptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(k * np.bincount(idx.ravel(), minlength=n), out=indptr[1:])
    indices = idx[occ // k].ravel()
    data = blocks.reshape(nb * k, k)[occ].ravel()
    mat = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    mat.sum_duplicates()
    return mat


def _on_one_pattern(parts):
    """The parts' common (indptr, indices) and their values on it.

    Parts of different patterns are placed on the union of their patterns,
    found from row-major keys, with their absent entries set to 0.0.
    """
    first = parts[0]
    if all(np.array_equal(p.indptr, first.indptr)
           and np.array_equal(p.indices, first.indices) for p in parts[1:]):
        return first.indptr, first.indices, [p.data for p in parts]
    n, ncols = first.shape
    keys = [np.repeat(np.arange(n, dtype=np.int64) * ncols, np.diff(p.indptr))
            + p.indices for p in parts]
    union = np.unique(np.concatenate(keys))
    values = []
    for p, k in zip(parts, keys):
        v = np.zeros(union.size, dtype=p.dtype)
        v[np.searchsorted(union, k)] = p.data
        values.append(v)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(union // ncols, minlength=n), out=indptr[1:])
    return indptr, union % ncols, values


def kron_sum(parts, mats) -> sp.csr_matrix:
    """sum_g parts[g] (x) mats[g], written straight into the arrays of one CSR.

    Bit for bit this is scipy's ``sum(sp.kron(q, a, format="csr") ...)``,
    without a Kronecker matrix per part, COO temporaries or a sparse sum.
    The parts are canonical CSR matrices of one shape and the mats finite
    arrays of one shape.  One part whose mat is [[1]] is returned as it is.
    Row (i, a) lists, for each stored (i, j) of the parts in order, the
    columns j m + b for b in the union of the mats' nonzero patterns in row
    a, where -0.0 counts as zero.  One part keeps its explicit zeros, as
    ``sp.kron`` does.  Several parts give each entry as the left fold
    (q0 a0 + q1 a1) + q2 a2 ... over the mats whose entry is nonzero, and
    exact zeros are dropped after, as scipy's sparse sum drops them.

    The output is written KRON_CHUNK stored part entries at a time, and
    kept entries are moved down in place, so the peak is the unpruned
    result and chunk-sized temporaries.
    """
    mats = [np.asarray(a) for a in mats]
    if len(parts) == len(mats) == 1 and np.array_equal(mats[0], [[1.0]]):
        return parts[0]
    if not parts or len(parts) != len(mats) or len({p.shape for p in parts}) != 1 \
            or len({a.shape for a in mats}) != 1 or mats[0].ndim != 2:
        raise ValueError("kron_sum takes as many parts as mats, the parts of "
                         "one shape and the mats 2-D arrays of one shape")
    if not all(p.has_canonical_format for p in parts):
        raise ValueError("kron_sum takes canonical CSR parts (sorted, no duplicates)")
    (n, ncols), (mr, mc) = parts[0].shape, mats[0].shape
    nonzero = np.array([a != 0 for a in mats])
    cols = [np.flatnonzero(row) for row in nonzero.any(axis=0)]
    offsets = np.concatenate(([0], np.cumsum([c.size for c in cols])))
    width = int(offsets[-1])                  # result entries per part entry
    indptr, indices, values = _on_one_pattern(parts)
    indptr = indptr.astype(np.intp, copy=False)
    total = indices.size * width
    itype = np.int32 if max(n * mr, ncols * mc, total) < 2 ** 31 else np.int64
    dtype = np.result_type(*(p.dtype for p in parts), *mats)
    data = np.empty(total, dtype=dtype)
    out_indices = np.empty(total, dtype=itype)
    out_indptr = np.zeros(n * mr + 1, dtype=itype)
    prune = len(parts) > 1
    # per (a, b): the parts' values and mat entries that enter the fold
    terms = [[(v, a[r, b]) for v, a in zip(values, mats) if a[r, b] != 0]
             for r in range(mr) for b in cols[r]]

    def write(r0, r1, kept):
        """Rows r0..r1 of the parts; their result goes to ``kept`` onwards."""
        s0, s1 = indptr[r0], indptr[r1]
        lens = np.diff(indptr[r0:r1 + 1])
        starts = indptr[r0:r1] - s0
        first = np.repeat(starts * width, lens)      # local start of row (i, 0)
        along = np.arange(s1 - s0) - np.repeat(starts, lens)
        row_len = np.repeat(lens, lens)
        col = indices[s0:s1].astype(itype) * itype(mc)
        block = slice(s0 * width, s1 * width)
        dv, iv = data[block], out_indices[block]
        pos = np.empty(s1 - s0, dtype=np.intp)
        val = np.empty(s1 - s0, dtype=dtype)
        zeros = []                          # local positions of exact zeros
        fold = iter(terms)
        for r, c in enumerate(cols):
            base = first + row_len * offsets[r] + along * c.size
            for t, b in enumerate(c):
                (v, x), *rest = next(fold)
                np.multiply(v[s0:s1], x, out=val)
                for v, x in rest:
                    val += v[s0:s1] * x
                np.add(base, t, out=pos)
                dv[pos] = val
                iv[pos] = col + b
                if prune:
                    zeros.append(pos[val == 0])
        ends = (starts[:, None] * width + lens[:, None] * offsets[1:]).ravel()
        z = np.sort(np.concatenate(zeros)) if zeros else np.empty(0, dtype=np.intp)
        out_indptr[r0 * mr + 1:r1 * mr + 1] = kept + ends - np.searchsorted(z, ends)
        if len(z) or kept < block.start:
            keep = np.ones(dv.size, dtype=bool)
            keep[z] = False
            dv, iv = dv[keep], iv[keep]
            data[kept:kept + dv.size] = dv
            out_indices[kept:kept + dv.size] = iv
        return kept + dv.size

    kept = 0
    for r0, r1 in row_chunks(indptr, KRON_CHUNK):
        kept = write(r0, r1, kept)
    if kept < total:                   # shrink in place: no view is left
        data.resize(kept, refcheck=False)
        out_indices.resize(kept, refcheck=False)
    return sp.csr_matrix((data, out_indices, out_indptr), shape=(n * mr, ncols * mc))


def row_chunks(indptr: np.ndarray, size: int):
    """Row ranges (r0, r1) of a CSR's indptr, each of about ``size`` stored
    entries: as many whole rows as fit, and at least one row."""
    r0, n = 0, len(indptr) - 1
    while r0 < n:
        r1 = max(int(np.searchsorted(indptr, indptr[r0] + size, "right")) - 1,
                 r0 + 1)
        yield r0, r1
        r0 = r1


def max_abs(a: np.ndarray) -> float:
    """max |a|, 0.0 if a is empty and NaN if a holds one, without forming |a|."""
    # + 0.0 turns a -0.0 into the 0.0 that |a| gives
    return float(np.maximum(a.max(initial=0.0), -a.min(initial=0.0))) + 0.0


def stability_tolerance(norm_q: float) -> float:
    """Roundoff allowed in Q + Q^T = Bq and in the stability certificate."""
    return STABILITY_RTOL * max(norm_q, 1e-300)


def row_entries(S: sp.csr_matrix, rows) -> np.ndarray:
    """Positions in S.data of the stored entries of ``rows``, row by row."""
    first, count = S.indptr[rows], np.diff(S.indptr)[rows]
    return (np.repeat(first - np.cumsum(count) + count, count)
            + np.arange(count.sum()))


def _scatter(dofmap: DofMap, local: np.ndarray) -> sp.csr_matrix:
    """Scatter per-element dense blocks (ne, nloc, nloc) into a global CSR."""
    return scatter_blocks(dofmap.element_dofs, local, dofmap.n_dofs)


@dataclass(frozen=True)
class FaceQuadrature:
    """The edge rule on every boundary face at once, in ``face_dofs`` order.

    The one face table of a discretization: Bq and every penalty read it.
    A 1D face is one point with weight 1, length 1 and face basis [1], so
    the same contractions serve both dimensions.
    """

    dofs: np.ndarray       # (nf, p+1) global DoFs in face-lattice order
    points: np.ndarray     # (nf, nq, dim) physical quadrature points
    normals: np.ndarray    # (nf, dim) outward unit normals
    lengths: np.ndarray    # (nf,)
    weights: np.ndarray    # (nq,) rule weights on [0, 1]
    basis: np.ndarray      # (nq, p+1) face basis at the rule points
    tags: np.ndarray       # (nf,) boundary tags
    n_dofs: int            # DoFs of the whole DoF map

    def normal_speed(self, coeff) -> np.ndarray:
        """a . n at every face point, shape (nf, nq)."""
        nf, nq, dim = self.points.shape
        coeff_fun, _ = as_coefficient(coeff, dim)
        aval = coeff_fun(self.points.reshape(-1, dim)).reshape(nf, nq, dim)
        # batched matmul rounds as a per-face ``aval @ normal``; einsum does not
        return np.matmul(aval, self.normals[:, :, None])[..., 0]


def face_quadrature(dofmap: DofMap, edge_degree: int) -> FaceQuadrature:
    """Face DoFs, points, normals, lengths, weights, basis and tags of all faces."""
    mesh = dofmap.mesh
    dim = mesh.dimension
    rule = quad_rule("edge", edge_degree)   # rejects a bad degree in 1D too
    if dim == 1:
        xi, weights, basis = np.zeros((1, 1)), np.ones(1), np.ones((1, 1))
    else:
        xi, weights = rule.points, rule.weights
        basis = tabulate(BasisSpec(dofmap.kind, dofmap.order, "interval"), xi)
    bf = mesh.boundary_faces
    p0 = mesh.vertices[mesh.elements[bf.element, bf.local_face]]
    p1 = mesh.vertices[mesh.elements[bf.element, (bf.local_face + 1) % (dim + 1)]]
    return FaceQuadrature(
        dofmap.face_dofs, p0[:, None, :] + xi[None, :, :] * (p1 - p0)[:, None, :],
        bf.normals, bf.lengths, weights, basis, bf.tags, dofmap.n_dofs)


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
    """The Q of ``build_operators``; the edge rule defaults to the volume rule."""
    fq = face_quadrature(dofmap, quad_degree if edge_quad_degree is None
                         else edge_quad_degree)
    return build_operators(dofmap, coeff, quad_degree, fq, split_alpha).Q


def assemble_boundary_quadratic(fq: FaceQuadrature, coeff) -> sp.csr_matrix:
    """Boundary form Bq_ij = contour integral phi_i phi_j (a . n) on ``fq``.

    Supported only on DoFs whose basis functions are nonzero on the physical
    boundary.  In 1D this degenerates to point values at the endpoints.
    """
    an = fq.normal_speed(coeff)
    blocks = fq.lengths[:, None, None] * np.einsum(
        "q,fq,qi,qj->fij", fq.weights, an, fq.basis, fq.basis)
    return scatter_blocks(fq.dofs, blocks, fq.n_dofs)


def _split_in_place(local: np.ndarray, alpha: float) -> None:
    """Overwrite blocks A_e with (1 - alpha) A_e - alpha A_e^T, SPLIT_CHUNK
    elements at a time, so no second full-size block array is made."""
    for s in range(0, local.shape[0], SPLIT_CHUNK):
        chunk = local[s:s + SPLIT_CHUNK]
        transposed = alpha * np.swapaxes(chunk, 1, 2)
        chunk *= 1.0 - alpha
        chunk -= transposed


@dataclass(frozen=True)
class GlobalOperators:
    """Stiffness and boundary quadratic form of one coefficient field."""

    Q: sp.csr_matrix
    Bq: sp.csr_matrix
    dofmap: DofMap
    volume_degree: int
    faces: FaceQuadrature          # the face table Bq was built on

    @property
    def norm_q(self) -> float:
        return max_abs(self.Q.data)


def build_operators(dofmap: DofMap, coeff, volume_degree: int, fq: FaceQuadrature,
                    split_alpha: float | None) -> GlobalOperators:
    """Stiffness Q_ij = integral phi_i (a . grad phi_j), optionally split, and Bq.

    ``coeff`` is a constant vector or a callable a(x); Bq is read from the
    face table ``fq``, which must be built on ``dofmap``.  The split form
    Q = (1 - alpha) A + alpha (Bq - A^T), A the advective stiffness, is taken
    per element, and the returned Bq is added after.  ``split_alpha`` None
    selects alpha = 0 (advective) for a constant field and 1/2 otherwise.
    """
    if fq.dofs is not dofmap.face_dofs:
        raise ValueError("the face table fq was built on another DoF map")
    coeff_fun, const = as_coefficient(coeff, dofmap.mesh.dimension)
    if split_alpha is None:
        split_alpha = 0.0 if const is not None else 0.5
    elif not np.isfinite(split_alpha):
        raise ValueError(f"split_alpha = {split_alpha} is not finite")
    local = _advective_local(dofmap.mesh, dofmap.basis_spec(), coeff_fun,
                             const, volume_degree)
    Bq = assemble_boundary_quadratic(fq, coeff)
    if split_alpha == 0.0:
        return GlobalOperators(_scatter(dofmap, local), Bq, dofmap, volume_degree, fq)
    _split_in_place(local, split_alpha)
    Q = _scatter(dofmap, local)
    del local                          # the blocks go before Q + alpha Bq is made
    return GlobalOperators(Q + split_alpha * Bq, Bq, dofmap, volume_degree, fq)


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


def transpose_partner(Q: sp.csr_matrix):
    """For each stored (i, j) of a canonical square CSR Q, the position of
    (j, i) in Q.data, or -1 where (j, i) is not stored; and those positions.

    scipy's CSC conversion of the positions 0, 1, ... lists, for column i,
    the positions of the stored (k, i) by k: where Q's pattern is symmetric
    this is row i entry by entry.  Otherwise row i and column i are merged
    on sorted keys, SBP_CHUNK stored entries at a time.  The positions are
    int32 below 2^31 stored entries.
    """
    n, nnz = Q.shape[0], Q.nnz
    itype = np.int32 if nnz < 2 ** 31 else np.int64
    t = sp.csr_matrix((np.arange(nnz, dtype=itype), Q.indices, Q.indptr),
                      shape=Q.shape).tocsc()
    if np.array_equal(t.indptr, Q.indptr) and np.array_equal(t.indices, Q.indices):
        return t.data, np.empty(0, dtype=itype)
    partner = np.empty(nnz, dtype=itype)

    def keys(a, r0, r1):
        lens = np.diff(a.indptr[r0:r1 + 1])
        return (np.repeat(np.arange(r1 - r0, dtype=np.int64) * n, lens)
                + a.indices[a.indptr[r0]:a.indptr[r1]])

    for r0, r1 in row_chunks(Q.indptr, SBP_CHUNK):
        kt = np.append(keys(t, r0, r1), (r1 - r0) * n)   # a key past every row
        kq = keys(Q, r0, r1)
        at = np.searchsorted(kt, kq)
        found = t.data[np.minimum(t.indptr[r0] + at, nnz - 1)]
        partner[Q.indptr[r0]:Q.indptr[r1]] = np.where(kt[at] == kq, found, -1)
    return partner, np.flatnonzero(partner < 0).astype(itype)


def check_sbp(ops: GlobalOperators) -> SbpReport:
    """Measure the defect of Q + Q^T = Bq, split into interior/boundary parts.

    S = Q + Q^T is read from Q's own arrays and never formed: through
    ``transpose_partner`` a stored (i, j) gives S_ij = Q_ij + Q_ji, or
    S_ij = S_ji = Q_ij where (j, i) is not stored (scipy's sum adds 0).  Bq
    stores nothing in a row or column of an interior DoF and S is symmetric
    entry by entry, so the interior residual is the largest |S_ij| over
    entries in an interior row or column, read SBP_CHUNK stored entries at a
    time into one buffer; the boundary residual is the largest
    |S_ij - Bq_ij| over boundary i and j.  Both pass up to
    ``stability_tolerance(max|Q|)``, and every field has the bits of the
    formed S.  A Q that is not canonical is summed on a copy first.
    """
    Q, Bq, b = ops.Q, ops.Bq, ops.dofmap.boundary_dofs
    if not Q.has_canonical_format:
        Q = Q.copy()
        Q.sum_duplicates()
    data, indices, indptr = Q.data, Q.indices, Q.indptr
    partner, unmatched = transpose_partner(Q)
    inner = np.ones(Q.shape[0], dtype=bool)
    inner[b] = False
    # The walk reads 0 in the boundary rows, whose entries in an interior
    # column count as S_ji in row j, and reads Q_ij at an unmatched (i, j)
    # if row i or row j is interior.
    in_b = row_entries(Q, b)             # in Q[b]'s order, and sorted
    rows_u = np.searchsorted(indptr, unmatched, "right") - 1
    vals_u = np.where(inner[rows_u] | inner[indices[unmatched]],
                      data[unmatched], 0.0)
    buf = np.empty(min(Q.nnz, max(SBP_CHUNK, np.diff(indptr).max(initial=0))))
    max_int = 0.0
    for r0, r1 in row_chunks(indptr, SBP_CHUNK):
        s0, s1 = indptr[r0], indptr[r1]
        s = np.take(data, partner[s0:s1], out=buf[:s1 - s0], mode="wrap")
        s += data[s0:s1]          # Q_ji + Q_ij has the bits of Q_ij + Q_ji
        b0, b1 = np.searchsorted(in_b, (s0, s1))
        s[in_b[b0:b1] - s0] = 0.0
        u0, u1 = np.searchsorted(unmatched, (s0, s1))
        s[unmatched[u0:u1] - s0] = vals_u[u0:u1]
        max_int = np.maximum(max_int, np.abs(s, out=s).max(initial=0.0))

    # S's boundary rows: Q's, read as S_ij, and S_ji = 0 + Q_ij for each
    # unmatched (i, j) whose column j is a boundary DoF
    pt = partner[in_b]
    Sb = Q[b]
    Sb.data = data[in_b] + np.where(pt >= 0, data[pt], 0.0)
    back = ~inner[indices[unmatched]]
    Sb = Sb + sp.csr_matrix(
        (data[unmatched[back]],
         (np.searchsorted(b, indices[unmatched[back]]), rows_u[back])),
        shape=Sb.shape)
    max_int, max_bnd = float(max_int), max_abs((Sb - Bq[b])[:, b].data)
    tol = stability_tolerance(ops.norm_q)
    return SbpReport(max_int, max_bnd, tol,
                     max_int <= tol and max_bnd <= tol)
