"""Reference implementations that the tests compare the library against.

Neither depends on the code it checks: the Jacobi sweep uses no LAPACK,
and the order-condition check reads only the Shu-Osher tables.
"""

import math

import numpy as np
import scipy.sparse as sp

from cgsat.timeint import SCHEMES


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
