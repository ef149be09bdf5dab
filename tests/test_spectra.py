from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cgsat.spectra as spectra
from cgsat.assembly import build_operators
from cgsat.mesh import build_dofmap, interval_mesh, unit_square_mesh
from cgsat.problems import advection_2d, discretize, r13_heat, rotation_2d
from cgsat.sat import BoundaryOperator, scalar_sat_1d, scalar_sat_2d
from cgsat.spectra import (STABILITY_RTOL, EigenSolverError,
                           boundary_block, build_spectrum_report,
                           extreme_eigs, spectrum_report, stability_matrix,
                           symmetric_eig, write_spectrum_csv)
from oracles import jacobi_eigenvalues


def test_eigensolver_against_jacobi_oracle():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((50, 50))
    A = A + A.T
    w, V = symmetric_eig(A)
    wj = jacobi_eigenvalues(A)
    assert np.abs(w - wj).max() < 1e-10
    # eigenpair residuals
    assert np.abs(A @ V - V * w).max() < 1e-10 * np.abs(w).max()


def test_eigensolver_small_and_degenerate():
    w, _ = symmetric_eig(np.diag([-3.0, 0.0, -1.0]))
    assert np.allclose(w, [-3.0, -1.0, 0.0])
    w, _ = symmetric_eig(np.zeros((5, 5)))
    assert np.abs(w).max() == 0.0
    # repeated eigenvalues
    A = np.diag([2.0, 2.0, 2.0, -1.0])
    w, V = symmetric_eig(A)
    assert np.allclose(np.sort(w), [-1.0, 2.0, 2.0, 2.0])
    assert np.abs(V.T @ V - np.eye(4)).max() < 1e-12
    # empty matrix
    w, V = symmetric_eig(np.zeros((0, 0)))
    assert w.size == 0 and V.shape == (0, 0)


def test_eigensolver_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensolver_wraps_lapack_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenSolverError, match="did not converge"):
        symmetric_eig(np.eye(3))


def test_eigensolver_cap_names_the_order(monkeypatch):
    monkeypatch.setattr(spectra, "DENSE_EIG_CAP", 3)
    with pytest.raises(ValueError, match="capped at 3 unknowns"):
        symmetric_eig(np.eye(4))
    # the report has no separate size check: the block hits the same cap
    with pytest.raises(ValueError, match="capped at 3 unknowns"):
        spectrum_report(discretize(advection_2d(n=3, order=1,
                                                basis="lagrange")))


def test_extreme_eigs_diagonal():
    S = np.diag([-3.0, 0.0, -1.0])
    neg, pos = extreme_eigs(S, 2, boundary_block(S, 0.0)[0])
    assert np.allclose(neg, [-3.0, -1.0])
    assert abs(pos[0]) < 1e-15          # most positive eigenvalue is zero
    # an all-zero matrix has an empty block and an all-zero spectrum
    Z = np.zeros((4, 4))
    neg, pos = extreme_eigs(Z, 3, boundary_block(Z, 0.0)[0])
    assert neg.tolist() == [0.0] * 3 and pos.tolist() == [0.0] * 3


def test_stability_matrix_1d_no_sat():
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    ops = build_operators(dm, [1.0])
    S = stability_matrix(ops.Q).toarray()
    assert np.abs(S - np.diag([-1.0, 0.0, 1.0])).max() < 1e-14


def test_stability_matrix_1d_with_sat():
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    ops = build_operators(dm, [1.0])
    pi = scalar_sat_1d(dm, a=1.0, tau=-1.0)
    S = stability_matrix(ops.Q, pi.matrix).toarray()
    assert np.abs(S - np.diag([-3.0, 0.0, -1.0])).max() < 1e-14


def test_stability_matrix_zero():
    import scipy.sparse as sp
    Z = sp.csr_matrix((4, 4))
    S = stability_matrix(Z, Z)
    assert np.abs(S.toarray()).max() == 0.0


def test_stability_matrix_dimension_mismatch():
    import scipy.sparse as sp
    with pytest.raises(ValueError):
        stability_matrix(sp.identity(4).tocsr(), sp.identity(3).tocsr())


def test_spectrum_symmetric_explicitly():
    mesh = unit_square_mesh(3)
    dm = build_dofmap(mesh, 2, "lagrange")
    ops = build_operators(dm, [1.0, 0.0])
    S = stability_matrix(ops.Q).toarray()
    assert np.abs(S - S.T).max() < 1e-14


@pytest.mark.parametrize("problem, kwargs", [
    (rotation_2d(n=5), {}),                     # split form, with Pi
    (r13_heat(n=2), {}),                        # six-field system
    (replace(advection_2d(order=3, basis="bernstein"),
             mesh_recipe="perturbed_square(8,11)"),
     {"volume_degree": 6, "edge_degree": 5})])   # degraded edge rule
def test_stability_matrix_exactly_symmetric(problem, kwargs):
    # no symmetrization is needed: floating-point addition commutes
    disc = discretize(problem, **kwargs)
    for S in (stability_matrix(disc.ops_sys),
              stability_matrix(disc.ops_sys, disc.pi.matrix)):
        T = S.T.tocsr()
        S.sort_indices()
        T.sort_indices()
        assert S.nnz > 0
        assert np.array_equal(S.indptr, T.indptr)
        assert np.array_equal(S.indices, T.indices)
        assert np.array_equal(S.data, T.data)


def test_report_unit_square_pairing_and_verdict():
    mesh = unit_square_mesh(4)
    dm = build_dofmap(mesh, 1, "lagrange")
    ops = build_operators(dm, [1.0, 0.0])
    pi = scalar_sat_2d(dm, [1.0, 0.0],
                       edge_quad_degree=ops.edge_degree)
    rep = build_spectrum_report(ops.Q, pi, k=8,
                                interior_dofs=dm.interior_dofs(), ncomp=1,
                                norm_q=ops.norm_q)
    assert rep.verdict == "stable"
    assert rep.pos_sat[0] <= rep.tolerance()
    # paired +-lambda structure without the penalty
    assert np.abs(rep.neg_no_sat + rep.pos_no_sat).max() < 1e-10
    # interior rows of Q + Q^T vanish
    assert rep.max_interior_residual <= 1e-12
    # the penalty deepens the negative end and adds negative modes
    s0 = stability_matrix(ops.Q).toarray()
    s1 = stability_matrix(ops.Q, pi.matrix).toarray()
    w0, _ = symmetric_eig(s0)
    w1, _ = symmetric_eig(s1)
    tol = 1e-12 * ops.norm_q
    assert (w1 < -tol).sum() >= (w0 < -tol).sum()
    assert w1.min() <= w0.min()
    # the boundary block reproduces the full spectrum's extreme columns
    assert rep.support < rep.n_dofs
    assert rep.dropped <= 0.1 * rep.tolerance()
    _assert_columns_match(rep, w0, w1, 8, 1e-12 * np.abs(w1).max())


def test_report_degraded_edge_quadrature_unstable():
    prob = advection_2d(n=4, order=3, basis="bernstein")
    disc = discretize(prob, volume_degree=6, edge_degree=5)
    rep = build_spectrum_report(disc.ops_sys, disc.pi, k=5,
                                interior_dofs=disc.dofmap.interior_dofs(),
                                ncomp=disc.ncomp, norm_q=disc.norm_q)
    assert rep.verdict == "unstable"
    assert rep.pos_sat[0] > 0.0


def test_spectrum_report_from_problem():
    rep = spectrum_report(
        discretize(advection_2d(n=3, order=1, basis="lagrange")), k=5)
    assert rep.verdict == "stable"
    assert rep.n_dofs == 16


def test_spectrum_csv(tmp_path):
    rep = spectrum_report(
        discretize(advection_2d(n=3, order=1, basis="lagrange")), k=4)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# dofs = 16")
    assert lines[1] == "# verdict = stable"
    assert lines[2] == "neg_noSAT,pos_noSAT,neg_SAT,pos_SAT"
    assert len(lines) == 3 + 4


def test_interior_supported_vectors_annihilated():
    mesh = unit_square_mesh(4)
    dm = build_dofmap(mesh, 2, "bernstein")
    ops = build_operators(dm, [1.0, 0.0])
    S = stability_matrix(ops.Q)
    interior = dm.interior_dofs()
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = np.zeros(dm.n_dofs)
        v[interior] = rng.standard_normal(interior.size)
        assert np.abs(S @ v).max() <= 1e-12 * np.abs(v).max()


# ---------------------------------------------------------------------------
# boundary-block reduction against the full LAPACK spectrum
# ---------------------------------------------------------------------------

def _assert_columns_match(rep, w0, w1, k, atol):
    """Report columns equal the extremes of the full ascending spectra."""
    k = min(k, w0.size)
    for col, ref in ((rep.neg_no_sat, w0[:k]), (rep.pos_no_sat, w0[::-1][:k]),
                     (rep.neg_sat, w1[:k]), (rep.pos_sat, w1[::-1][:k])):
        assert np.abs(col - ref).max() <= atol


def _boundary_supported_pair(seed, n, m, noise_frac, stable):
    """Q and Pi whose test matrices live on m random rows plus noise.

    Q + Q^T is a random symmetric block on the rows ``B`` (largest entry
    1) plus symmetric noise in the other rows, scaled so that sqrt(2) times
    its row Frobenius norm is ``noise_frac`` times the report's drop
    budget, 0.1 * STABILITY_RTOL * max|Q|.  Pi lives on ``B`` and sets the
    block of the certificate matrix to one whose largest eigenvalue is
    -0.1 (stable) or +0.1 (unstable).  Returns (Q, Pi, B, noisy rows).
    """
    rng = np.random.default_rng(seed)
    B = np.sort(rng.choice(n, m, replace=False))
    rest = np.setdiff1d(np.arange(n), B)
    blk = rng.standard_normal((m, m))
    blk = blk + blk.T
    blk /= np.abs(blk).max()
    s0 = np.zeros((n, n))
    s0[np.ix_(B, B)] = blk
    K = rng.uniform(-0.5, 0.5, (n, n))
    Q = 0.5 * s0 + (K - K.T)
    noise = rng.standard_normal((n, n))
    noise = noise + noise.T
    noise[np.ix_(B, B)] = 0.0
    budget = 0.1 * STABILITY_RTOL * np.abs(Q).max()
    if rest.size:
        noise *= noise_frac * budget / (
            np.sqrt(2.0) * np.linalg.norm(noise[rest]))
    Q += 0.5 * noise
    T = rng.standard_normal((m, m))
    T = T + T.T
    T -= (np.linalg.eigvalsh(T).max() + (0.1 if stable else -0.1)) * np.eye(m)
    pi = np.zeros((n, n))
    pi[np.ix_(B, B)] = 0.25 * (T + blk)
    return Q, pi, B, rest


pair_cases = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
                  data=st.data(), stable=st.booleans(),
                  k=st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(noise_frac=st.floats(0.0, 0.5), **pair_cases)
def test_reduced_report_equals_full_eigh(seed, n, data, stable, k,
                                         noise_frac):
    m = data.draw(st.integers(1, n))
    Q, pi, B, rest = _boundary_supported_pair(seed, n, m, noise_frac, stable)
    rep = build_spectrum_report(Q, BoundaryOperator(pi), k=k,
                                interior_dofs=rest, ncomp=1,
                                norm_q=np.abs(Q).max())
    w0 = np.linalg.eigvalsh(stability_matrix(Q))
    w1 = np.linalg.eigvalsh(stability_matrix(Q, pi))
    scale = max(np.abs(w0).max(), np.abs(w1).max())
    _assert_columns_match(rep, w0, w1, k, 1e-12 * scale)
    assert rep.verdict == ("stable" if w1.max() <= rep.tolerance()
                           else "unstable")
    assert rep.verdict == ("stable" if stable else "unstable")
    assert rep.support <= m
    assert rep.dropped <= 0.1 * rep.tolerance()
    assert rep.max_interior_residual <= 1e-12


@settings(max_examples=60, deadline=None)
@given(noise_frac=st.floats(2.0, 1e3), **pair_cases)
def test_noise_above_budget_joins_the_block(seed, n, data, stable, k,
                                            noise_frac):
    m = data.draw(st.integers(1, n - 1))
    Q, pi, B, rest = _boundary_supported_pair(seed, n, m, noise_frac, stable)
    s0 = stability_matrix(Q)
    budget = 0.1 * STABILITY_RTOL * np.abs(Q).max()
    rows, dropped = boundary_block(s0, budget)
    assert dropped <= budget
    assert np.isin(B, rows).all()
    assert np.intersect1d(rows, rest).size >= 1
    heavy = rest[np.sqrt(2.0) * np.linalg.norm(s0[rest], axis=1) > budget]
    assert np.isin(heavy, rows).all()
    rep = build_spectrum_report(Q, BoundaryOperator(pi), k=k,
                                interior_dofs=rest, ncomp=1,
                                norm_q=np.abs(Q).max())
    assert rep.support >= rows.size > m
    assert rep.dropped <= 0.1 * rep.tolerance()
    w0 = np.linalg.eigvalsh(s0)
    w1 = np.linalg.eigvalsh(stability_matrix(Q, pi))
    scale = max(np.abs(w0).max(), np.abs(w1).max())
    _assert_columns_match(rep, w0, w1, k, 1e-12 * scale)
