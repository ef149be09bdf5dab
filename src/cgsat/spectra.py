"""Stability test matrix, boundary-block eigensolve and spectrum reports.

A discretization is certified stable when the symmetric test matrix built
from the stiffness matrix Q and the penalty matrix Pi has no positive
eigenvalue beyond roundoff.  Without a penalty the test matrix is Q + Q^T,
whose nonzero spectrum pairs as +-lambda on boundary modes and vanishes on
interior modes; with a penalty the assembled operator is Q1 = Q - Pi and
the certificate matrix is

    S = (Pi - Q1) + (Pi - Q1)^T = 2 (Pi + Pi^T) - (Q + Q^T).

The verdict is ``stable`` iff max eig(S) <= STABILITY_RTOL * max|Q|.

When Q is summation-by-parts, Q + Q^T = Bq and Pi act on boundary-trace
unknowns only, so S vanishes outside a block of boundary rows.  Reports
eigensolve that block (``boundary_block``, read off S itself) with LAPACK
and pad the spectrum with exact zeros.  Past ``stability_matrix`` a report
makes no sparse matrix: the row masses that pick the block, the dense
block itself (gathered once, and reused for the eigenpair residuals) and
the interior residual of Q + Q^T are all read off the stored entries of
the two CSR test matrices.

``stability_matrix(Q, pi)`` takes matrices; ``build_spectrum_report(Q, pi,
k, interior_dofs, ncomp, norm_q)`` takes the stiffness matrix and the
``BoundaryOperator``; ``spectrum_report(disc, k)`` reads all of it off a
``Discretization`` and first refuses one whose mass matrix is no norm.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import STABILITY_RTOL
from .timeint import factor_mass

DENSE_EIG_CAP = 5000


class EigenSolverError(RuntimeError):
    """Raised when LAPACK fails or an eigenpair residual check fails."""


# ---------------------------------------------------------------------------
# dense symmetric eigensolver
# ---------------------------------------------------------------------------

def _check_order(n: int) -> None:
    """Refuse a dense eigenproblem above DENSE_EIG_CAP, before it is built."""
    if n > DENSE_EIG_CAP:
        raise ValueError(f"dense eigensolver capped at {DENSE_EIG_CAP} "
                         f"unknowns; the eigenproblem has {n}")


def symmetric_eig(S):
    """All eigenvalues (ascending) of a symmetric matrix, with eigenvectors.

    Dense LAPACK path: orders above DENSE_EIG_CAP are refused before a
    sparse S is made dense.
    """
    n = S.shape[0]
    _check_order(n)
    if n == 0:
        return np.array([]), np.zeros((0, 0))
    A = S.toarray() if sp.issparse(S) else np.asarray(S, dtype=float)
    asym = np.abs(A - A.T).max()
    if asym > 1e-13 * max(np.abs(A).max(), 1e-300):
        raise ValueError("matrix is not symmetric")
    A = 0.5 * (A + A.T)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"LAPACK eigensolver failed: {exc}") from exc
    return w, V


# ---------------------------------------------------------------------------
# stability test matrix and reports
# ---------------------------------------------------------------------------

def stability_matrix(Q, pi=None):
    """Symmetric stability test matrix of a stiffness and a penalty matrix.

    Without a penalty: Q + Q^T.  With one, the penalty is folded into the
    operator (Q1 = Q - Pi) and tested against itself:
    S = (Pi - Q1) + (Pi - Q1)^T = 2 (Pi + Pi^T) - (Q + Q^T).
    Both are symmetric entry by entry, since floating-point addition
    commutes.
    """
    S = Q + Q.T
    if pi is not None:
        S = _with_penalty(S, pi)
    return S.tocsr() if sp.issparse(S) else S


def _with_penalty(s0, pi):
    """2 (Pi + Pi^T) - s0: the test matrix with a penalty, from s0 = Q + Q^T."""
    if pi.shape != s0.shape:
        raise ValueError(
            f"dimension mismatch: Q is {s0.shape}, Pi is {pi.shape}")
    P = pi + pi.T
    P *= 2.0
    return P - s0


def _csr(S):
    """S as canonical CSR (sorted, no duplicates); one such is not copied."""
    if not (sp.issparse(S) and S.format == "csr"):
        S = sp.csr_matrix(S)
    if not S.has_canonical_format:
        S = S.copy()
        S.sum_duplicates()
    return S


def _row_entries(S, rows):
    """Positions in S.data of the stored entries of ``rows``, row by row."""
    first, count = S.indptr[rows], np.diff(S.indptr)[rows]
    return (np.repeat(first - np.cumsum(count) + count, count)
            + np.arange(count.sum()))


def boundary_block(S, budget: float):
    """Rows of a symmetric S to eigensolve, and a bound on what the rest moves.

    Rows are dropped lightest first while sqrt(2) * ||S[dropped, :]||_F
    stays within ``budget``.  The dropped entries form a symmetric E with
    ||E||_2 <= ||E||_F <= that value, so by Weyl's theorem each sorted
    eigenvalue of S lies within it of the matching one of
    S[rows][:, rows] padded with zeros.  With a zero budget only rows that
    are identically zero are dropped.  Returns (rows, dropped).
    """
    S = _csr(S)
    # squared row norms, reduced exactly as scipy's S.multiply(S).sum(axis=1),
    # which stores no product that underflows to zero
    sq = S.data * S.data
    stored = sq != 0.0
    indptr = np.concatenate(([0], np.cumsum(stored)))[S.indptr]
    filled = np.flatnonzero(np.diff(indptr))
    mass = np.zeros(S.shape[0])
    mass[filled] = np.add.reduceat(sq[stored], indptr[filled])
    order = np.argsort(mass, kind="stable")
    bound = np.sqrt(2.0 * np.cumsum(mass[order]))
    n_drop = int(np.searchsorted(bound, budget, side="right"))
    dropped = float(bound[n_drop - 1]) if n_drop else 0.0
    return np.sort(order[n_drop:]), dropped


def extreme_eigs(S, k: int, rows):
    """k most negative and k most positive eigenvalues of a symmetric matrix.

    Only the block S[rows][:, rows] is eigensolved (``boundary_block``
    picks the rows), gathered dense from the stored entries of those rows;
    the other eigenvalues are taken as zeros.  ``k`` must be an integer
    >= 1: an empty column would read as no positive eigenvalue.
    Returns (neg, pos): ``neg`` ascending from the most negative, ``pos``
    descending from the most positive.  Residuals ||S v - w v|| of the
    block's extreme pairs are verified against 1e-10 * ||S||; the rows
    outside the block move them by at most ``boundary_block``'s bound.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    S = _csr(S)
    n, m = S.shape[0], rows.size
    k = min(k, n)
    _check_order(m)
    at = np.full(n, -1)
    at[rows] = np.arange(m)
    ent = _row_entries(S, rows)
    r = np.repeat(np.arange(m), np.diff(S.indptr)[rows])
    c = at[S.indices[ent]]
    inside = c >= 0
    block = np.zeros((m, m))
    block[r[inside], c[inside]] = S.data[ent[inside]]
    w, V = symmetric_eig(block)
    norm = max(np.abs(w).max(initial=0.0), 1e-300)
    idx = np.unique(np.r_[0:min(k, m), max(m - k, 0):m])
    res = np.linalg.norm(block @ V[:, idx] - V[:, idx] * w[idx],
                         axis=0).max(initial=0.0)
    if res > 1e-10 * norm:
        raise EigenSolverError(
            f"eigenpair residual {res:.2e} exceeds tolerance")
    spectrum = np.sort(np.concatenate([w, np.zeros(n - m)]))
    return spectrum[:k], spectrum[n - k:][::-1]


@dataclass(frozen=True)
class SpectrumReport:
    """Extreme eigenvalues with and without the boundary penalty.

    ``support`` is the order of the larger of the two eigensolved blocks;
    ``dropped`` bounds how far the rows outside them move any reported
    eigenvalue, and is at most a tenth of ``tolerance()``.
    """

    n_dofs: int
    neg_no_sat: np.ndarray
    pos_no_sat: np.ndarray
    neg_sat: np.ndarray
    pos_sat: np.ndarray
    max_interior_residual: float
    norm_q: float
    verdict: str
    support: int
    dropped: float

    @property
    def stable(self) -> bool:
        return self.verdict == "stable"

    def tolerance(self) -> float:
        return STABILITY_RTOL * max(self.norm_q, 1e-300)


def build_spectrum_report(Q, pi, k: int, interior_dofs, ncomp: int,
                          norm_q: float) -> SpectrumReport:
    """Four-column eigenvalue report for a stiffness matrix and a penalty.

    ``pi`` is the ``BoundaryOperator``; ``interior_dofs`` are scalar DoF
    indices, each standing for ``ncomp`` unknowns; ``norm_q`` is max|Q|.
    """
    tol = STABILITY_RTOL * max(norm_q, 1e-300)
    s0 = _csr(stability_matrix(Q))
    s1 = _csr(_with_penalty(s0, pi.matrix))       # Q + Q^T is formed once
    columns, support, dropped = [], 0, 0.0
    for S in (s0, s1):
        # dropped rows may move the verdict's eigenvalue by a tenth of tol
        rows, bound = boundary_block(S, 0.1 * tol)
        columns += extreme_eigs(S, k, rows)
        support, dropped = max(support, rows.size), max(dropped, bound)
    neg0, pos0, neg1, pos1 = columns
    verdict = "stable" if (pos1.size == 0 or pos1[0] <= tol) else "unstable"
    interior = (np.asarray(interior_dofs, dtype=np.intp)[:, None] * ncomp
                + np.arange(ncomp)[None, :]).ravel()
    max_int = float(np.abs(s0.data[_row_entries(s0, interior)])
                    .max(initial=0.0))
    return SpectrumReport(s0.shape[0], neg0, pos0, neg1, pos1,
                          max_int, norm_q, verdict, support, dropped)


def spectrum_report(disc, k: int = 10) -> SpectrumReport:
    """Operator spectrum report of a ``Discretization``.

    Raises ``MassNotPositiveDefiniteError`` if the mass matrix is no norm.
    """
    factor_mass(disc.M)          # a mass that is no norm certifies nothing
    return build_spectrum_report(disc.ops_sys, disc.pi, k,
                                 interior_dofs=disc.dofmap.interior_dofs(),
                                 ncomp=disc.ncomp, norm_q=disc.norm_q)


def write_spectrum_csv(report: SpectrumReport, path) -> None:
    """CSV table: one row per reported eigenvalue, four columns."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# dofs = {report.n_dofs}\n")
        fh.write(f"# verdict = {report.verdict}\n")
        writer = csv.writer(fh)
        writer.writerow(["neg_noSAT", "pos_noSAT", "neg_SAT", "pos_SAT"])
        for row in zip(report.neg_no_sat, report.pos_no_sat,
                       report.neg_sat, report.pos_sat):
            writer.writerow([repr(float(x)) for x in row])
