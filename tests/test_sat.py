import numpy as np
import pytest

from cgsat.assembly import build_operators, face_quadrature
from cgsat.basis import BasisSpec, quad_rule, tabulate
from cgsat.mesh import (build_dofmap, generate_mesh, interval_mesh,
                        unit_disk_mesh, unit_square_mesh)
from cgsat.problems import discretize, r13_heat
from cgsat.sat import (StabilityViolationError, assemble_face_sat,
                       build_pi_r13, build_pi_system, characteristic_decompose,
                       r13_boundary_rows, r13_matrices, r13_normal_matrix,
                       scalar_sat_1d, scalar_sat_2d)
from cgsat.spectra import stability_matrix, symmetric_eig

WAVE_A = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_scalar_sat_1d_entries():
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    pi = scalar_sat_1d(dm, a=1.0, tau=-1.0, data=(lambda t: 0.0, None))
    mat = pi.matrix.toarray()
    assert mat[0, 0] == -1.0                       # tau * a+ at the left
    assert np.abs(mat[1:, :]).max() == 0.0         # a- = 0: right inactive
    # SAT value with u0 = 2, b0 = 0 is -2 at the left endpoint
    u = np.array([2.0, 0.5, -1.0])
    sat = pi.matrix @ u + pi.rhs_data(0.0)
    assert sat[0] == -2.0
    assert sat[1] == sat[2] == 0.0


def test_scalar_sat_1d_negative_speed():
    mesh = interval_mesh(3)
    dm = build_dofmap(mesh, 2, "lagrange")
    pi = scalar_sat_1d(dm, a=-1.0, tau=-1.0)
    mat = pi.matrix.toarray()
    normal = mesh.boundary_faces.normals[:, 0]
    left = dm.face_dofs[0, 0] if normal[0] < 0 else dm.face_dofs[1, 0]
    right = dm.face_dofs[normal > 0, 0][0]
    assert mat[left, left] == 0.0                  # a+ = 0
    assert mat[right, right] == -1.0               # tau * a-


def test_scalar_sat_1d_tau_validation():
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    for bad in (-0.49, -0.5, 0.0, 1.0):
        with pytest.raises(StabilityViolationError):
            scalar_sat_1d(dm, a=1.0, tau=bad)
    scalar_sat_1d(dm, a=1.0, tau=-0.51)            # accepted
    scalar_sat_1d(dm, a=1.0, tau=(-0.51, -2.0))    # independent per boundary


def test_scalar_sat_1d_certificate():
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    ops = build_operators(dm, [1.0])
    pi = scalar_sat_1d(dm, a=1.0, tau=-1.0)
    S = stability_matrix(ops.Q, pi.matrix).toarray()
    w, _ = symmetric_eig(S)
    assert w.max() <= 1e-15


def test_scalar_sat_1d_certificate_negative_speed():
    # mirrored configuration: inflow at the right endpoint
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    ops = build_operators(dm, [-1.0])
    pi = scalar_sat_1d(dm, a=-1.0, tau=-1.0)
    S = stability_matrix(ops.Q, pi.matrix).toarray()
    assert np.abs(S - np.diag([-1.0, 0.0, -3.0])).max() < 1e-14


def test_scalar_sat_2d_inflow_only():
    mesh = unit_square_mesh(3)
    dm = build_dofmap(mesh, 2, "lagrange")
    pi = scalar_sat_2d(dm, [1.0, 0.0],
                       edge_quad_degree=6)
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
    ops = build_operators(dm, [1.0, 0.0])
    pi = scalar_sat_2d(dm, [1.0, 0.0],
                       edge_quad_degree=ops.edge_degree)
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
    assert np.abs(an).max() <= 2 * np.pi * mesh.h_max()


@pytest.mark.parametrize("a", [1.0, -1.0])
def test_scalar_sat_2d_on_interval_matches_1d(a):
    # a 1D face is a one-point rule of weight 1, so the edge-rule SAT
    # reduces to the endpoint penalty with tau = -1
    dm = build_dofmap(interval_mesh(8), 2, "lagrange")
    b0, b1 = (lambda t: np.sin(t) + 2.0), (lambda t: np.cos(3.0 * t) - 0.5)

    def g(pts, t):
        return np.where(pts[:, 0] < 0.5, b0(t), b1(t))

    ref = scalar_sat_1d(dm, a=a, tau=-1.0, data=(b0, b1))
    pi = scalar_sat_2d(dm, [a], g=g)
    assert np.array_equal(pi.matrix.toarray(), ref.matrix.toarray())
    for t in (0.0, 0.4, 2.5):
        assert np.array_equal(pi.rhs_data(t), ref.rhs_data(t))


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

    pi = scalar_sat_2d(dm, a, g=g, scale=1.5)
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
    # random pointwise operators on all faces but one in five; the data are
    # zero on a third of them, static on a third, time dependent on the rest
    dm = build_dofmap(generate_mesh(recipe), 2, "lagrange")
    m = 3
    rng = np.random.default_rng(8)
    faces = np.array([f for f in range(len(dm.face_dofs)) if f % 5 != 4])
    ops = rng.standard_normal((faces.size, m, m))
    vecs = rng.standard_normal((faces.size, m)) * (faces % 3 != 0)[:, None]
    static = (faces % 3 == 1)[:, None]

    def data(t):
        return np.where(static, vecs, np.sin(t) * vecs)[:, None, :]

    fq = face_quadrature(dm, 6)
    pi = assemble_face_sat(dm, fq, faces, fq.weights * fq.lengths[faces, None],
                           ops, data)
    n = dm.n_dofs * m
    mat = np.zeros((n, n))
    weights, b, _ = edge_rule(dm, 6)
    if dm.mesh.dimension == 1:
        weights, b = np.ones(1), np.ones((1, 1))
    lengths = dm.mesh.boundary_faces.lengths
    gidx = [(dm.face_dofs[f][:, None] * m + np.arange(m)).ravel() for f in faces]
    for gi, f, pi_mat in zip(gidx, faces, ops):
        eloc = np.einsum("q,qi,qj->ij", weights * lengths[f], b, b)
        mat[np.ix_(gi, gi)] += np.kron(eloc, pi_mat)
    assert np.array_equal(pi.matrix.toarray(), mat)
    for t in (0.0, 1.3):
        out = np.zeros(n)
        for gi, f, d in zip(gidx, faces, data(t)):
            np.add.at(out, gi, (b.T @ (-(weights * lengths[f])[:, None] * d)).ravel())
        assert np.array_equal(pi.rhs_data(t), out)


def test_sat_scale_validation():
    mesh = unit_square_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    with pytest.raises(StabilityViolationError):
        scalar_sat_2d(dm, [1.0, 0.0], scale=0.5)
    # NaN fails every comparison, so it must not pass for "not below 1"
    decomp = characteristic_decompose(WAVE_A, None, np.eye(2), [1.0])
    for scale in (np.nan, np.inf):
        with pytest.raises(StabilityViolationError, match=f"factor {scale}"):
            scalar_sat_2d(dm, [1.0, 0.0], scale=scale)
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
    assert np.abs(d.X @ np.diag(d.eigenvalues) @ d.X.T - d.c_n).max() < 1e-14


def test_r13_eigenvalues_any_angle():
    A, B, P = r13_matrices()
    expected = np.sort([np.sqrt(2), -np.sqrt(2), np.sqrt(2) / 2,
                        -np.sqrt(2) / 2, 0.0, 0.0])[::-1]
    rng = np.random.default_rng(5)
    for gamma in rng.uniform(0, 2 * np.pi, 8):
        n = np.array([np.cos(gamma), np.sin(gamma)])
        d = characteristic_decompose(A, B, P, n)
        assert np.abs(d.eigenvalues - expected).max() < 1e-12
        assert d.zero.size == 2


def test_zero_operator_decomposition():
    d = characteristic_decompose(np.zeros((3, 3)), None, np.eye(3), [1.0])
    assert np.abs(d.eigenvalues).max() == 0.0
    assert np.abs(d.X - np.eye(3)).max() < 1e-14
    assert d.zero.size == 3


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
        assert np.abs(d.X @ np.diag(d.eigenvalues) @ d.X.T - d.c_n).max() < 1e-12


def test_pi_system_pure_upwind():
    d = characteristic_decompose(WAVE_A, None, np.eye(2), [1.0])
    po = build_pi_system(d)        # R = 0
    xm = d.X[:, d.neg]
    lam = d.eigenvalues[d.neg]
    expected = xm @ np.diag(lam) @ xm.T
    assert np.abs(po.pi_mat - expected).max() < 1e-14


def test_pi_system_reflection_bounds():
    d = characteristic_decompose(WAVE_A, None, np.eye(2), [-1.0])
    for r in (0.0, -0.9, 0.999):
        build_pi_system(d, R=[[r]])
    for r in (1.0, -1.0, 2.0):
        with pytest.raises(StabilityViolationError):
            build_pi_system(d, R=[[r]])


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
        form = pinv @ po.pi_mat - 0.5 * pinv @ d.a_n
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
    op = build_pi_r13(3.0, -0.5, 0.4, "delta", -2.0)
    assert op.pi.shape == (6, 2)
    assert op.pi_mat.shape == (6, 6)
    with pytest.raises(StabilityViolationError):
        build_pi_r13(3.0, -0.5, 0.4, "delta", 0.5)
    with pytest.raises(StabilityViolationError):
        build_pi_r13(3.0, -0.5, 0.4, "delta", 0.0)


@pytest.mark.parametrize("variant, shift", [("delta", -2.0),
                                            ("eigen-shift", -1.0)])
def test_r13_batched_angles_match_per_angle(variant, shift):
    gamma = np.random.default_rng(6).uniform(-np.pi, np.pi, 40)
    op = build_pi_r13(3.0, -0.5, gamma, variant, shift)
    assert op.pi.shape == (40, 6, 2) and op.pi_mat.shape == (40, 6, 6)
    for k, g in enumerate(gamma):
        one = build_pi_r13(3.0, -0.5, float(g), variant, shift)
        assert one.pi.shape == (6, 2) and one.pi_mat.shape == (6, 6)
        for name in ("pi", "l_n", "pi_mat"):
            ref = getattr(one, name)
            dev = np.abs(getattr(op, name)[k] - ref).max()
            assert dev <= 1e-15 * np.abs(ref).max()


def test_r13_eigen_shift_variant():
    build_pi_r13(3.0, -0.5, 1.2, "eigen-shift", -np.sqrt(2) / 2)
    build_pi_r13(3.0, -0.5, 1.2, "eigen-shift", -3.0)
    with pytest.raises(StabilityViolationError):
        build_pi_r13(3.0, -0.5, 1.2, "eigen-shift", -0.1)


def test_r13_data_vector():
    """The assembled r13 G(t) is the face loop of -Pi g: per face, the edge
    rule of w_q * length * phi_i times the data vector at the face angle."""
    prob = r13_heat(2, ux=0.7, uy=-0.4)
    disc = discretize(prob)
    bc, bf, m = prob.bc, disc.mesh.boundary_faces, prob.ncomp
    edge = disc.scalar_ops[0].edge_degree
    rule = quad_rule("edge", edge)
    phi = tabulate(BasisSpec(disc.basis.kind, disc.basis.order, "interval"),
                   rule.points)
    out = np.zeros(disc.dofmap.n_dofs * m)
    for f, (normal, tag) in enumerate(zip(bf.normals, bf.tags)):
        gamma = float(np.arctan2(normal[1], normal[0]))
        op = build_pi_r13(bc.alpha, bc.beta, gamma, bc.variant, bc.shift)
        vec = -op.pi @ bc.data[tag](gamma)
        face = bf.lengths[f] * (phi.T @ rule.weights)
        gidx = (disc.dofmap.face_dofs[f][:, None] * m + np.arange(m)).ravel()
        np.add.at(out, gidx, np.outer(face, vec).ravel())
    got = disc.pi.rhs_data(0.0)
    assert np.abs(out).max() > 0.0
    assert np.abs(got - out).max() <= 1e-15 * np.abs(out).max()
