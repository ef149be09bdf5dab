"""Reference implementations that the tests compare the library against.

None depends on the code it checks: the Jacobi sweep uses no LAPACK, the
order-condition check and the reference step read only the Shu-Osher
tables, the recording formulas apply the scalar M and ``value_op`` to
each component column of the state, the reference march records them
after every step, the Lagrange basis is evaluated
through monomials and the inverse Vandermonde matrix on the lattice, with
no Bernstein code, and the variable-coefficient stiffness is the
four-operand einsum per element, at rule points mapped by einsum, and the
split form the global sparse expression, with no reference tensor.  The
DoF owners are read from ``np.unique``, and a block scatter is a dense
``np.add.at`` or, bit for bit, scipy's COO -> CSR conversion, and a sum of
Kronecker products one ``sp.kron`` per part and scipy's sparse sum.  A
characteristic penalty is admissible by the two-test rule: the reflected
energy budget and the boundary quadratic form.  A jittered square folds by
the signed-area rule on its triangles as the generator lists them.  The
SBP defect is read from Q + Q^T formed by scipy, with the library's row
reader and tolerance formula.
"""

import math

import numpy as np
import scipy.sparse as sp

from cgsat.assembly import SbpReport, _jacobians, row_entries, stability_tolerance
from cgsat.basis import quad_rule, tabulate, tabulate_grad
from cgsat.timeint import (SCHEMES, STEADY_CHECK_EVERY, Trajectory,
                           factor_mass, step)


def jacobi_eigenvalues(S, sweeps: int = 50, tol: float = 1e-14) -> np.ndarray:
    """Cyclic Jacobi rotations; independent of LAPACK. Ascending values."""
    A = S.toarray() if sp.issparse(S) else np.array(S, dtype=float)
    A = 0.5 * (A + A.T)
    n = A.shape[0]
    scale = max(np.abs(A).max(), 1e-300)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-20 * scale:
                    continue
                theta = 0.5 * (A[q, q] - A[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
    return np.sort(np.diag(A))


def scheme_consistency_defect(name: str) -> float:
    """Max defect of the order conditions on u' = u, up to the scheme order.

    Propagates the stage values as polynomials in dt and compares the final
    polynomial against the truncated exponential series.
    """
    scheme = SCHEMES[name]
    order = scheme["order"]
    polys = [np.zeros(order + 1)]
    polys[0][0] = 1.0
    for alpha, beta in zip(scheme["alpha"], scheme["beta"]):
        new = np.zeros(order + 1)
        for j, a in enumerate(alpha):
            new += a * polys[j]
        for j, b in enumerate(beta):
            shifted = np.zeros(order + 1)
            shifted[1:] = polys[j][:-1]
            new += b * shifted
        polys.append(new)
    target = np.array([1.0 / math.factorial(k) for k in range(order + 1)])
    return float(np.abs(polys[-1] - target).max())


def _stage_times(scheme: dict) -> list[float]:
    """Abscissae of each stage value, from the Shu-Osher recurrences."""
    cs = [0.0]
    for alpha, beta in zip(scheme["alpha"], scheme["beta"]):
        c = sum(a * cs[j] for j, a in enumerate(alpha)) + sum(beta)
        cs.append(c)
    return cs


def reference_step(state: np.ndarray, t: float, dt: float, rhs,
                   scheme: str) -> np.ndarray:
    """One SSP step, stage by stage from the Shu-Osher tables."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    tab = SCHEMES[scheme]
    cs = _stage_times(tab)
    stages = [state]
    evals: list[np.ndarray | None] = [None] * (len(tab["alpha"]) + 1)
    for i, (alpha, beta) in enumerate(zip(tab["alpha"], tab["beta"])):
        acc = np.zeros_like(state)
        for j, a in enumerate(alpha):
            if a:
                acc += a * stages[j]
        for j, b in enumerate(beta):
            if b:
                if evals[j] is None:
                    evals[j] = rhs(t + cs[j] * dt, stages[j])
                acc += (dt * b) * evals[j]
        stages.append(acc)
    return stages[-1]


def reference_energy(M, v: np.ndarray, ncomp: int) -> float:
    """Squared M-norm of a DoF-major state, M applied to each component."""
    vv = v.reshape(M.shape[0], ncomp)
    return float(np.sum(vv * (M @ vv)))


def reference_extrema(value_op, v: np.ndarray, ncomp: int) -> tuple[float, float]:
    """Largest and smallest nodal value of a DoF-major state."""
    vals = value_op @ v.reshape(value_op.shape[1], ncomp)
    return float(vals.max()), float(vals.min())


def reference_march(M, rhs_matrix, data_fun, u0, dt: float, ncomp: int = 1,
                    value_op=None, *, scheme: str = "SSPRK54",
                    t_end: float = 1.0, steps: int | None = None,
                    amplitude_limit: float | None = None,
                    steady_tol: float | None = None) -> Trajectory:
    """``timeint.run`` with the energy, the extrema and every check taken
    after each step, with the same step and right-hand side."""
    lu = factor_mass(M)
    shape = (M.shape[0], ncomp)

    def rhs(t, v):
        r = rhs_matrix @ v
        if data_fun is not None:
            r += data_fun(t)
        return lu.solve(r.reshape(shape)).ravel()

    def record(t, v):
        vals = v if value_op is None else value_op @ v.reshape(shape)
        return t, reference_energy(M, v, ncomp), float(vals.max()), float(vals.min())

    n_steps = steps if steps is not None else \
        max(1, int(np.ceil(t_end / dt - 1e-12)))
    u, t = np.array(u0, dtype=float), 0.0
    hist = [record(t, u)]
    status, blowup_step, steady_res = "completed", None, None
    for k in range(1, n_steps + 1):
        dt_k = dt
        if steps is None and t + dt > t_end:
            dt_k = t_end - t
            if dt_k <= 1e-15 * max(1.0, t_end):
                break
        u = step(u, t, dt_k, rhs, scheme)
        t = t + dt_k
        hist.append(record(t, u))
        _, e, mx, mn = hist[-1]
        if not all(map(math.isfinite, (e, mx, mn))) or (
                amplitude_limit is not None
                and max(abs(mx), abs(mn)) > amplitude_limit):
            status, blowup_step = "aborted", k
            break
        if steady_tol is not None and k % STEADY_CHECK_EVERY == 0:
            steady_res = math.sqrt(reference_energy(M, rhs(t, u), ncomp))
            if steady_res < steady_tol:
                status = "steady"
                break
    times, energies, umax, umin = (np.array(c) for c in zip(*hist))
    return Trajectory(u, t, len(hist) - 1, times, energies, umax, umin,
                      status, blowup_step, steady_res)


def _monomial_powers(spec) -> list[tuple[int, ...]]:
    p = spec.order
    if spec.dim == 1:
        return [(a,) for a in range(p + 1)]
    return [(a, b) for a in range(p + 1) for b in range(p + 1 - a)]


def _monomials(spec, pts: np.ndarray, grad: bool) -> np.ndarray:
    """Monomial values (npts, nmono), or gradients (npts, nmono, dim)."""
    powers = _monomial_powers(spec)
    npts, dim = pts.shape
    if not grad:
        vals = np.ones((npts, len(powers)))
        for c, pw in enumerate(powers):
            for d, e in enumerate(pw):
                vals[:, c] *= pts[:, d] ** e
        return vals
    out = np.zeros((npts, len(powers), dim))
    for c, pw in enumerate(powers):
        for gdim in range(dim):
            if pw[gdim] == 0:
                continue
            term = np.full(npts, float(pw[gdim]))
            for d, e in enumerate(pw):
                ee = e - 1 if d == gdim else e
                term = term * pts[:, d] ** ee
            out[:, c, gdim] = term
    return out


def _lagrange_coeffs(spec) -> np.ndarray:
    """Monomial coefficients of the Lagrange basis, one column per function."""
    return np.linalg.inv(_monomials(spec, spec.lattice(), grad=False))


def reference_lagrange(spec, pts: np.ndarray) -> np.ndarray:
    """Lagrange values at ``pts`` (npts, dim); shape (npts, n_dofs)."""
    return _monomials(spec, pts, grad=False) @ _lagrange_coeffs(spec)


def reference_lagrange_grad(spec, pts: np.ndarray) -> np.ndarray:
    """Lagrange reference gradients; shape (npts, n_dofs, dim)."""
    return np.einsum("pmd,mj->pjd", _monomials(spec, pts, grad=True),
                     _lagrange_coeffs(spec))


def reference_physical_points(mesh, J, xi) -> np.ndarray:
    """Reference points ``xi`` (nq, dim) mapped to every element, (ne, nq, dim)."""
    x0 = mesh.vertices[mesh.elements[:, 0]]
    return x0[:, None, :] + np.einsum("ekd,qd->eqk", J, xi)


def reference_advective_local(mesh, basis, coeff_fun, quad_degree) -> np.ndarray:
    """Blocks of integral phi_i (a . grad phi_j) for a variable a, (ne, nloc, nloc)."""
    rule = quad_rule(basis.domain, quad_degree)
    phi = tabulate(basis, rule.points)
    dphi = tabulate_grad(basis, rule.points)
    J, det, inv = _jacobians(mesh)
    pts = reference_physical_points(mesh, J, rule.points)
    ne, nq = pts.shape[0], pts.shape[1]
    aval = coeff_fun(pts.reshape(-1, mesh.dimension)).reshape(ne, nq, -1)
    c = np.einsum("edk,eqk->eqd", inv, aval)
    local = np.einsum("q,qi,eqd,qjd->eij", rule.weights, phi, c, dphi)
    return det[:, None, None] * local


def reference_split_stiffness(adv, bq, split_alpha: float):
    """Split form alpha (Bq - A^T) + (1 - alpha) A on the global matrices."""
    q = split_alpha * (bq - adv.T) + (1.0 - split_alpha) * adv
    return q.tocsr()


def first_owner(ids: np.ndarray) -> np.ndarray:
    """Flat index of the first entry naming each distinct id, in id order."""
    return np.unique(ids.ravel(), return_index=True)[1]


def last_owner(ids: np.ndarray) -> np.ndarray:
    """Flat index of the last entry naming each distinct id, in id order."""
    flat = ids.ravel()
    return flat.size - 1 - first_owner(flat[::-1])


def reference_scatter(idx: np.ndarray, blocks: np.ndarray, n: int) -> np.ndarray:
    """Dense sum of blocks (nb, k, k) at idx[b] x idx[b], one np.add.at."""
    out = np.zeros((n, n))
    np.add.at(out, (idx[:, :, None], idx[:, None, :]), blocks)
    return out


def reference_coo_scatter(idx: np.ndarray, blocks: np.ndarray,
                          n: int) -> sp.csr_matrix:
    """Blocks (nb, k, k) at idx[b] x idx[b] as one COO of every entry, in
    (block, row, column) order, converted to CSR by scipy."""
    nb, k = idx.shape
    idx = idx.astype(np.int32 if n < 2 ** 31 else np.int64, copy=False)
    rows = np.broadcast_to(idx[:, :, None], (nb, k, k)).ravel()
    cols = np.broadcast_to(idx[:, None, :], (nb, k, k)).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def reference_kron_sum(parts, mats) -> sp.csr_matrix:
    """sum_g parts[g] (x) mats[g] as one ``sp.kron`` per part and scipy's
    sparse sum; a part whose mat is [[1]] is taken as it is."""
    terms = [q if np.array_equal(a, [[1.0]]) else sp.kron(q, a, format="csr")
             for q, a in zip(parts, mats)]
    return sum(terms[1:], terms[0]).tocsr()


def reference_admissible(decomp, R) -> bool:
    """Whether the characteristic penalty with reflection R (n_neg x n_pos)
    is admissible: Lambda+ + R' Lambda- R is positive semidefinite and the
    boundary quadratic form in characteristic variables is strictly
    dissipative, each to the tolerance ``sat.build_pi_system`` uses."""
    lam_p = decomp.eigenvalues[decomp.pos]
    lam_m = decomp.eigenvalues[decomp.neg]
    cond = np.diag(lam_p) + R.T @ np.diag(lam_m) @ R
    if cond.size and np.linalg.eigvalsh(0.5 * (cond + cond.T)).min() < -1e-12 * max(
            np.abs(lam_p).max(initial=0.0), 1.0):
        return False
    wb = np.block([[-np.diag(lam_p), -(np.diag(lam_m) @ R).T],
                   [-np.diag(lam_m) @ R, np.diag(lam_m)]])
    return not wb.size or np.linalg.eigvalsh(0.5 * (wb + wb.T)).max() < \
        -1e-12 * max(np.abs(wb).max(), 1e-300)


def reference_jittered_square(n: int, seed: int):
    """Vertices and counter-clockwise triangles of ``perturbed_square(n,seed)``
    as its generator lists them, before any mesh check."""
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.stack([X.ravel(), Y.ravel()], axis=1)
    rng = np.random.default_rng(seed)
    interior = ((vertices[:, 0] > 1e-12) & (vertices[:, 0] < 1 - 1e-12) &
                (vertices[:, 1] > 1e-12) & (vertices[:, 1] < 1 - 1e-12))
    jitter = rng.uniform(-0.3 / n, 0.3 / n, size=(vertices.shape[0], 2))
    vertices = vertices + jitter * interior[:, None]
    elements = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            elements += [(v00, v00 + 1, v00 + n + 2), (v00, v00 + n + 2, v00 + n + 1)]
    return vertices, np.array(elements)


def reference_square_folds(n: int, seed: int) -> bool:
    """The jitter folds the square: some listed triangle has signed area <= 0."""
    vertices, elements = reference_jittered_square(n, seed)
    v = vertices[elements]
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    return bool((d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] <= 0).any())


def reference_check_sbp(ops) -> SbpReport:
    """The SBP report read from S = Q + Q^T formed by scipy: the largest
    |entry| in the interior rows of S, and in S - Bq on the boundary rows
    and columns; max |Q| is read from |Q.data|."""
    S = ops.Q + ops.Q.T
    b = ops.dofmap.boundary_dofs
    interior = S.data[row_entries(S, ops.dofmap.interior_dofs())]
    max_int = float(np.abs(interior).max(initial=0.0))
    max_bnd = float(np.abs((S[b] - ops.Bq[b])[:, b].data).max(initial=0.0))
    tol = stability_tolerance(float(np.abs(ops.Q.data).max(initial=0.0)))
    return SbpReport(max_int, max_bnd, tol,
                     max_int <= tol and max_bnd <= tol)
