from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgsat.assembly import build_operators, face_quadrature
from cgsat.basis import BasisSpec, quad_rule, tabulate
from cgsat.mesh import (build_dofmap, generate_mesh, interval_mesh,
                        unit_disk_mesh, unit_square_mesh)
from cgsat.problems import (advection_2d, discretize, r13_heat, rotation_2d,
                            sine_advection_2d)
from cgsat.sat import (StabilityViolationError, assemble_face_sat,
                       build_pi_r13, build_pi_system, characteristic_decompose,
                       r13_boundary_rows, r13_matrices, r13_normal_matrix,
                       scalar_sat_2d)
from cgsat.spectra import stability_matrix, symmetric_eig
from oracles import reference_admissible

WAVE_A = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_scalar_sat_interval_entries():
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    pi = scalar_sat_2d(face_quadrature(dm, 6), [1.0],
                       g=lambda pts, t: np.zeros(len(pts)))
    mat = pi.matrix.toarray()
    assert mat[0, 0] == -1.0                       # tau * a+ at the left
    assert np.abs(mat[1:, :]).max() == 0.0         # a- = 0: right inactive
    # SAT value with u0 = 2, b0 = 0 is -2 at the left endpoint
    u = np.array([2.0, 0.5, -1.0])
    sat = pi.matrix @ u + pi.rhs_data(0.0)
    assert sat[0] == -2.0
    assert sat[1] == sat[2] == 0.0


def test_scalar_sat_interval_negative_speed():
    mesh = interval_mesh(3)
    dm = build_dofmap(mesh, 2, "lagrange")
    pi = scalar_sat_2d(face_quadrature(dm, 6), [-1.0])
    mat = pi.matrix.toarray()
    normal = mesh.boundary_faces.normals[:, 0]
    left = dm.face_dofs[0, 0] if normal[0] < 0 else dm.face_dofs[1, 0]
    right = dm.face_dofs[normal > 0, 0][0]
    assert mat[left, left] == 0.0                  # a+ = 0
    assert mat[right, right] == -1.0               # tau * a-


def test_scalar_sat_interval_scale_validation():
    # tau = -s: the endpoint penalty is admissible for s > 1/2 only
    mesh = interval_mesh(2)
    fq = face_quadrature(build_dofmap(mesh, 1, "lagrange"), 6)
    for bad in (0.49, 0.5, 0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(StabilityViolationError,
                           match=f"factor {float(bad)} must be finite and > 1/2"):
            scalar_sat_2d(fq, [1.0], scale=bad)
    pi = scalar_sat_2d(fq, [1.0], scale=0.51)      # accepted
    assert pi.matrix[0, 0] == -0.51


def test_scalar_sat_interval_certificate():
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    ops = build_operators(dm, [1.0], 6, face_quadrature(dm, 6), None)
    pi = scalar_sat_2d(ops.faces, [1.0])
    S = stability_matrix(ops.Q, pi.matrix).toarray()
    w, _ = symmetric_eig(S)
    assert w.max() <= 1e-15


def test_scalar_sat_interval_certificate_negative_speed():
    # mirrored configuration: inflow at the right endpoint
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    ops = build_operators(dm, [-1.0], 6, face_quadrature(dm, 6), None)
    pi = scalar_sat_2d(ops.faces, [-1.0])
    S = stability_matrix(ops.Q, pi.matrix).toarray()
    assert np.abs(S - np.diag([-1.0, 0.0, -3.0])).max() < 1e-14


def test_scalar_sat_2d_inflow_only():
    mesh = unit_square_mesh(3)
    dm = build_dofmap(mesh, 2, "lagrange")
    pi = scalar_sat_2d(face_quadrature(dm, 6), [1.0, 0.0])
    mat = pi.matrix.toarray()
    x = dm.dof_coords[:, 0]
    on_left = np.abs(x) < 1e-12
    # support only on the inflow (left) wall
    assert np.abs(mat[~on_left][:, ~on_left]).max() == 0.0
    assert np.abs(mat[on_left][:, on_left]).max() > 0.0
    # the inflow block is a negative edge mass matrix
    sub = mat[np.ix_(on_left, on_left)]
    w, _ = symmetric_eig(sub)
    assert w.max() < 0.0


def test_scalar_sat_2d_certificate_unit_square():
    mesh = unit_square_mesh(4)
    dm = build_dofmap(mesh, 1, "lagrange")
    ops = build_operators(dm, [1.0, 0.0], 6, face_quadrature(dm, 6), None)
    pi = scalar_sat_2d(ops.faces, [1.0, 0.0])
    S = stability_matrix(ops.Q, pi.matrix)
    w, _ = symmetric_eig(S)
    assert w.max() <= 1e-13


def test_rotation_field_penalty_near_zero():
    mesh = unit_disk_mesh(4)
    dm = build_dofmap(mesh, 1, "lagrange")

    def rot(pts):
        return np.stack([2 * np.pi * pts[:, 1], -2 * np.pi * pts[:, 0]], axis=1)

    # tangential field: |a . n| = O(h) on the polygonal boundary, so the
    # inflow penalty weight a_n^- is too
    an = face_quadrature(dm, 6).normal_speed(rot)
    assert an.shape == (len(dm.face_dofs), 4)
    v = mesh.vertices[mesh.elements]
    h_max = np.linalg.norm(np.roll(v, -1, axis=1) - v, axis=2).max()
    assert np.abs(an).max() <= 2 * np.pi * h_max


@pytest.mark.parametrize("a", [1.0, -1.0])
def test_scalar_sat_2d_on_interval_entries_and_data(a):
    # a 1D face is a one-point rule of weight 1, so the edge-rule SAT is
    # the endpoint penalty with tau = -1: a_n^- on the inflow end's DoF,
    # and G(t) = -a_n^- b(t) there
    dm = build_dofmap(interval_mesh(8), 2, "lagrange")
    b0, b1 = (lambda t: np.sin(t) + 2.0), (lambda t: np.cos(3.0 * t) - 0.5)

    def g(pts, t):
        return np.where(pts[:, 0] < 0.5, b0(t), b1(t))

    pi = scalar_sat_2d(face_quadrature(dm, 6), [a], g=g)
    x = dm.dof_coords[:, 0]
    end = int(np.argmin(x)) if a > 0 else int(np.argmax(x))
    b = b0 if a > 0 else b1
    mat = np.zeros((dm.n_dofs, dm.n_dofs))
    mat[end, end] = -abs(a)
    assert np.array_equal(pi.matrix.toarray(), mat)
    for t in (0.0, 0.4, 2.5):
        G = np.zeros(dm.n_dofs)
        G[end] = abs(a) * b(t)
        assert np.array_equal(pi.rhs_data(t), G)


SCALAR_PROBLEMS = {"advection": advection_2d, "sine": sine_advection_2d,
                   "rotation": rotation_2d}


@lru_cache(maxsize=None)
def _scalar_setup(name, n, order, kind):
    """(face table, coefficient, Q) of a scalar discretization."""
    if name in ("interval+", "interval-"):           # inflow at either end
        a = [1.0 if name == "interval+" else -1.0]
        dm = build_dofmap(interval_mesh(3 * n), order, kind)
        ops = build_operators(dm, a, 6, face_quadrature(dm, 6), None)
        return ops.faces, a, ops.Q
    disc = discretize(SCALAR_PROBLEMS[name](n=n, order=order, basis=kind))
    return disc.group_ops[0].faces, disc.problem.fluxes[0][0], disc.ops_sys


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["interval+", "interval-", *SCALAR_PROBLEMS]),
       n=st.integers(2, 4), order=st.integers(1, 3),
       kind=st.sampled_from(["lagrange", "bernstein"]),
       scale=st.one_of(st.floats(0.5, 4.0, exclude_min=True),
                       st.floats(0.0, 0.5),
                       st.sampled_from([np.nan, np.inf, -np.inf])))
@example(name="interval+", n=2, order=1, kind="lagrange", scale=0.5)
def test_scalar_scale_rule_is_the_marched_energy_rate(name, n, order, kind,
                                                      scale):
    """Every scale s > 1/2 leaves sym(Pi - Q), the energy rate of the
    march, negative semidefinite to roundoff; every other s is refused,
    the sharp s = 1/2 always among them.  The interval takes 3n cells."""
    fq, coeff, Q = _scalar_setup(name, n, order, kind)
    if not scale > 0.5 or not np.isfinite(scale):
        with pytest.raises(StabilityViolationError,
                           match=f"factor {scale} must be finite and > 1/2"):
            scalar_sat_2d(fq, coeff, scale=scale)
        return
    pi = scalar_sat_2d(fq, coeff, scale=scale)
    rate = (pi.matrix - Q).toarray()
    lam = np.linalg.eigvalsh(0.5 * (rate + rate.T)).max()
    assert lam <= 1e-12 * np.abs(Q).max()


def edge_rule(dm, degree):
    """Reference face data: edge rule, face basis, and the points of a face."""
    rule = quad_rule("edge", degree)
    b = tabulate(BasisSpec(dm.kind, dm.order, "interval"), rule.points)

    def points(f):
        bf = dm.mesh.boundary_faces
        el = dm.mesh.elements[bf.element[f]]
        x0 = dm.mesh.vertices[el[bf.local_face[f]]]
        x1 = dm.mesh.vertices[el[(bf.local_face[f] + 1) % 3]]
        return x0[None, :] + rule.points * (x1 - x0)[None, :]

    return rule.weights, b, points


def test_scalar_sat_2d_matches_face_loop():
    dm = build_dofmap(unit_disk_mesh(3), 3, "bernstein")

    def a(pts):
        return np.stack([1.0 + pts[:, 1], 0.5 - pts[:, 0] ** 2], axis=1)

    def g(pts, t):
        return np.sin(2.0 * pts[:, 0] - t) * np.cos(pts[:, 1])

    pi = scalar_sat_2d(face_quadrature(dm, 6), a, g=g, scale=1.5)
    weights, b, points = edge_rule(dm, 6)
    mat = np.zeros((dm.n_dofs, dm.n_dofs))
    faces = []
    bf = dm.mesh.boundary_faces
    for f, dofs in enumerate(dm.face_dofs):
        pts = points(f)
        an_m = np.minimum(a(pts) @ bf.normals[f], 0.0) * 1.5
        if np.any(an_m < 0.0):
            w = weights * an_m * bf.lengths[f]
            mat[np.ix_(dofs, dofs)] += np.einsum("q,qi,qj->ij", w, b, b)
            faces.append((pts, w, dofs))
    assert 0 < len(faces) < len(dm.face_dofs)
    assert np.array_equal(pi.matrix.toarray(), mat)
    for t in (0.0, 0.8):
        out = np.zeros(dm.n_dofs)
        for pts, w, gi in faces:
            np.add.at(out, gi, -(w * g(pts, t)) @ b)
        assert np.array_equal(pi.rhs_data(t), out)


@pytest.mark.parametrize("recipe", ["annulus(0.5,1.0,2)", "interval(6,random,2)"])
def test_assemble_face_sat_matches_face_loop(recipe):
    # random pointwise scalars, varying along each face, and random
    # operators on all faces but one in five; pointwise data are zero on a
    # third of them, static on a third and time dependent on the rest, and a
    # one-column table with g = [1] holds static data
    dm = build_dofmap(generate_mesh(recipe), 2, "lagrange")
    m = 3
    rng = np.random.default_rng(8)
    faces = np.array([f for f in range(len(dm.face_dofs)) if f % 5 != 4])
    fq = face_quadrature(dm, 6)
    point = rng.uniform(-2.0, -0.5, (faces.size, fq.weights.size))
    ops = rng.standard_normal((faces.size, m, m))
    vecs = rng.standard_normal((faces.size, m)) * (faces % 3 != 0)[:, None]
    static = (faces % 3 == 1)[:, None]

    def data(t):
        return np.where(static, vecs, np.sin(t) * vecs)[:, None, :]

    pointwise = assemble_face_sat(fq, faces, point, ops, data)
    table = assemble_face_sat(fq, faces, point, ops, vecs[:, None, :, None],
                              lambda t: np.ones(1))
    n = dm.n_dofs * m
    mat = np.zeros((n, n))
    weights, b, _ = edge_rule(dm, 6)
    if dm.mesh.dimension == 1:
        weights, b = np.ones(1), np.ones((1, 1))
    lengths = dm.mesh.boundary_faces.lengths
    w = [weights * pt * lengths[f] for f, pt in zip(faces, point)]
    gidx = [(dm.face_dofs[f][:, None] * m + np.arange(m)).ravel() for f in faces]
    for gi, wf, pi_mat in zip(gidx, w, ops):
        eloc = np.einsum("q,qi,qj->ij", wf, b, b)
        mat[np.ix_(gi, gi)] += np.kron(eloc, pi_mat)
    assert np.array_equal(pointwise.matrix.toarray(), mat)
    assert np.array_equal(table.matrix.toarray(), mat)

    def face_loop(d):
        out = np.zeros(n)
        for gi, wf, df in zip(gidx, w, d):
            np.add.at(out, gi, (b.T @ (-wf[:, None] * df)).ravel())
        return out

    for t in (0.0, 1.3):
        assert np.array_equal(pointwise.rhs_data(t), face_loop(data(t)))
        assert np.array_equal(table.rhs_data(t), face_loop(vecs[:, None, :]))


def test_assemble_face_sat_refuses_a_non_finite_table():
    dm = build_dofmap(generate_mesh("interval(4)"), 2, "lagrange")
    fq = face_quadrature(dm, 2)
    faces, ones = np.arange(2), np.ones((2, 1, 1))
    table = np.ones((2, 1, 1, 1))
    for point, ops, data in ((np.inf, ones, None), (1.0, -np.inf * ones, None),
                             (1.0, ones, np.nan * table)):
        with pytest.raises(StabilityViolationError, match="sat_scale"):
            assemble_face_sat(fq, faces, point, ops, data, lambda t: [1.0])


def test_sat_scale_validation():
    mesh = unit_square_mesh(2)
    fq = face_quadrature(build_dofmap(mesh, 1, "lagrange"), 6)
    with pytest.raises(StabilityViolationError):
        scalar_sat_2d(fq, [1.0, 0.0], scale=0.5)
    # NaN fails every comparison, so it must not pass for "not below 1"
    decomp = characteristic_decompose(WAVE_A, None, np.eye(2), [1.0])
    for scale in (np.nan, np.inf):
        with pytest.raises(StabilityViolationError, match=f"factor {scale}"):
            scalar_sat_2d(fq, [1.0, 0.0], scale=scale)
        with pytest.raises(StabilityViolationError, match=f"factor {scale}"):
            build_pi_system(decomp, scale=scale)
    for scale in (0.0, -1.0, np.nan):
        with pytest.raises(StabilityViolationError, match=f"factor {scale}"):
            discretize(r13_heat(2), sat_scale=scale)


# characteristic decompositions ----------------------------------------------

def test_wave_decomposition_right_end():
    d = characteristic_decompose(WAVE_A, None, np.eye(2), [1.0])
    assert np.allclose(d.eigenvalues, [1.0, -1.0], atol=1e-14)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert np.abs(d.X - expected).max() < 1e-14
    assert np.abs(d.X.T @ d.X - np.eye(2)).max() < 1e-14
    c_n = WAVE_A @ np.eye(2)       # C_n = A_n P with n = 1, P = I
    assert np.abs(d.X @ np.diag(d.eigenvalues) @ d.X.T - c_n).max() < 1e-14


def test_r13_eigenvalues_any_angle():
    A, B, P = r13_matrices()
    expected = np.sort([np.sqrt(2), -np.sqrt(2), np.sqrt(2) / 2,
                        -np.sqrt(2) / 2, 0.0, 0.0])[::-1]
    rng = np.random.default_rng(5)
    for gamma in rng.uniform(0, 2 * np.pi, 8):
        n = np.array([np.cos(gamma), np.sin(gamma)])
        d = characteristic_decompose(A, B, P, n)
        assert np.abs(d.eigenvalues - expected).max() < 1e-12
        assert np.count_nonzero(d.eigenvalues == 0.0) == 2


def test_zero_operator_decomposition():
    d = characteristic_decompose(np.zeros((3, 3)), None, np.eye(3), [1.0])
    assert np.abs(d.eigenvalues).max() == 0.0
    assert np.abs(d.X - np.eye(3)).max() < 1e-14
    assert np.count_nonzero(d.eigenvalues == 0.0) == 3


def test_non_symmetrizable_rejected():
    A = np.array([[0.0, 2.0], [1.0, 0.0]])
    with pytest.raises(StabilityViolationError):
        characteristic_decompose(A, None, np.eye(2), [1.0])


def test_characteristic_roundtrip_random_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        A = A + A.T
        d = characteristic_decompose(A, None, np.eye(4), [1.0])
        c_n = A @ np.eye(4)        # C_n = A_n P with n = 1, P = I
        assert np.abs(d.X @ np.diag(d.eigenvalues) @ d.X.T - c_n).max() < 1e-12


def test_pi_system_pure_upwind():
    d = characteristic_decompose(WAVE_A, None, np.eye(2), [1.0])
    po = build_pi_system(d)        # R = 0
    xm = d.X[:, d.neg]
    lam = d.eigenvalues[d.neg]
    expected = xm @ np.diag(lam) @ xm.T
    assert np.abs(po.pi_mat - expected).max() < 1e-14


def _admissibility_agrees_with_oracle(decomp, R):
    if reference_admissible(decomp, R):
        build_pi_system(decomp, R)
        return True
    with pytest.raises(StabilityViolationError, match="not strictly dissipative"):
        build_pi_system(decomp, R)
    return False


def test_pi_system_reflection_bounds():
    # the marginal |r| = 1 is rejected at either end, as by the oracle
    for n in (-1.0, 1.0):
        d = characteristic_decompose(WAVE_A, None, np.eye(2), [n])
        for r in (0.0, -0.9, 0.999, 1.0 - 1e-9, 1.0, -1.0, 2.0):
            accepted = _admissibility_agrees_with_oracle(d, np.array([[r]]))
            assert accepted == (abs(r) < 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4),
       log_scale=st.floats(-1.0, 1.0), marginal=st.booleans(),
       nudge=st.sampled_from([-1e-6, -1e-13, 0.0, 1e-13, 1e-6]))
def test_admissibility_matches_the_two_test_oracle(seed, m, log_scale,
                                                   marginal, nudge):
    """A_n = C P^(-1) with C symmetric and P SPD is symmetrized by P (one
    field has no R to draw).  R is drawn at scales 0.1-10, or put on the
    dissipativity boundary, where Lambda+ + R' Lambda- R is singular, and
    nudged off it."""
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((m, m))
    F = rng.standard_normal((m, m))
    P = F @ F.T + m * np.eye(m)
    d = characteristic_decompose((C + C.T) @ np.linalg.inv(P), None, P, [1.0])
    R = 10.0 ** log_scale * rng.standard_normal((d.neg.size, d.pos.size))
    if marginal and R.size:
        s = 1.0 / np.sqrt(d.eigenvalues[d.pos])
        budget = s[:, None] * (R.T @ np.diag(-d.eigenvalues[d.neg]) @ R) * s
        R = R * (1.0 + nudge) / np.sqrt(np.linalg.eigvalsh(budget).max())
    _admissibility_agrees_with_oracle(d, R)


def test_pi_system_scalar_matches_scalar_sat():
    # m = 1 specialization agrees with a_n^-(u - g) pointwise
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal(2)
        th = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(th), np.sin(th)])
        an = float(a @ n)
        d = characteristic_decompose(np.array([[a[0]]]), np.array([[a[1]]]),
                                     np.eye(1), n)
        po = build_pi_system(d)
        assert abs(po.pi_mat[0, 0] - min(an, 0.0)) < 1e-14


def test_pi_system_energy_form_negative():
    # full boundary quadratic form (flux minus twice the penalty) <= 0
    rng = np.random.default_rng(4)
    A, B, P = r13_matrices()
    for gamma in rng.uniform(0, 2 * np.pi, 5):
        n = np.array([np.cos(gamma), np.sin(gamma)])
        d = characteristic_decompose(A, B, P, n)
        po = build_pi_system(d)
        pinv = np.linalg.inv(P)
        a_n = n[0] * A + n[1] * B
        form = pinv @ po.pi_mat - 0.5 * pinv @ a_n
        w = np.linalg.eigvalsh(form + form.T)
        assert w.max() <= 1e-12


# moment-system boundary operator ---------------------------------------------

def test_r13_gram_closed_form():
    _, _, P = r13_matrices()
    rng = np.random.default_rng(3)
    for gamma in rng.uniform(0, 2 * np.pi, 6):
        L = r13_boundary_rows(gamma, 3.0, -0.5)
        gram = L @ P @ L.T
        assert np.abs(gram - np.diag([19.0, 0.75])).max() < 1e-12
    L = r13_boundary_rows(0.7, -2.0, 1.5)
    gram = L @ P @ L.T
    assert np.abs(gram - np.diag([1 + 2 * 4.0, 0.5 + 2.25])).max() < 1e-12


def test_r13_boundary_rows_at_zero_angle():
    L = r13_boundary_rows(0.0, 3.0, -0.5)
    assert np.allclose(L[0], [-3.0, 1.0, 0.0, -3.0, 0.0, 0.0])
    assert np.allclose(L[1], [0.0, 0.0, -0.5, 0.0, 1.0, 0.0])


def test_r13_normal_matrix_symmetrizable():
    A, B, P = r13_matrices()
    rng = np.random.default_rng(9)
    for gamma in rng.uniform(0, 2 * np.pi, 20):
        An = r13_normal_matrix(gamma)
        assert np.abs(An @ P - (An @ P).T).max() < 1e-14


def test_r13_delta_variant():
    op = build_pi_r13(3.0, -0.5, 0.4)
    assert op.data_mat.shape == (6, 2)
    assert op.pi_mat.shape == (6, 6)


def test_r13_batched_angles_match_per_angle():
    gamma = np.random.default_rng(6).uniform(-np.pi, np.pi, 40)
    op = build_pi_r13(3.0, -0.5, gamma)
    l_n = r13_boundary_rows(gamma, 3.0, -0.5)
    assert op.data_mat.shape == (40, 6, 2) and op.pi_mat.shape == (40, 6, 6)
    for k, g in enumerate(gamma):
        one = build_pi_r13(3.0, -0.5, float(g))
        assert one.data_mat.shape == (6, 2) and one.pi_mat.shape == (6, 6)
        pairs = [(getattr(op, name)[k], getattr(one, name))
                 for name in ("data_mat", "pi_mat")]
        pairs.append((l_n[k], r13_boundary_rows(float(g), 3.0, -0.5)))
        for got, ref in pairs:
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def test_r13_data_vector():
    """The assembled r13 G(t) is the face loop of -Pi g: per face, the edge
    rule of w_q * length * phi_i times the data vector at the face angle."""
    prob = r13_heat(2, ux=0.7, uy=-0.4)
    disc = discretize(prob)
    bc, bf, m = prob.bc, disc.mesh.boundary_faces, prob.ncomp
    rule = quad_rule("edge", disc.group_ops[0].volume_degree)   # the default
    phi = tabulate(BasisSpec(disc.basis.kind, disc.basis.order, "interval"),
                   rule.points)
    out = np.zeros(disc.dofmap.n_dofs * m)
    for f, (normal, tag) in enumerate(zip(bf.normals, bf.tags)):
        gamma = float(np.arctan2(normal[1], normal[0]))
        op = build_pi_r13(bc.alpha, bc.beta, gamma)
        vec = -op.data_mat @ bc.data[tag](gamma)
        face = bf.lengths[f] * (phi.T @ rule.weights)
        gidx = (disc.dofmap.face_dofs[f][:, None] * m + np.arange(m)).ravel()
        np.add.at(out, gidx, np.outer(face, vec).ravel())
    got = disc.pi.rhs_data(0.0)
    assert np.abs(out).max() > 0.0
    assert np.abs(got - out).max() <= 1e-15 * np.abs(out).max()
