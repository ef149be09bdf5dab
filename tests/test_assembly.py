import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgsat.assembly import (as_coefficient, assemble_boundary_quadratic,
                            assemble_mass, assemble_stiffness, build_operators,
                            check_sbp, default_quad_degree)
from cgsat.basis import BasisSpec, quad_rule, tabulate
from cgsat.mesh import (build_dofmap, generate_mesh, interval_mesh,
                        unit_disk_mesh, unit_square_mesh, _build_mesh)
from cgsat.spectra import symmetric_eig
from cgsat.timeint import factor_mass


def setup(mesh, p, kind):
    dm = build_dofmap(mesh, p, kind)
    return dm, dm.basis_spec()


def test_mass_interval_p1():
    mesh = interval_mesh(2)
    dm, bs = setup(mesh, 1, "lagrange")
    M = assemble_mass(mesh, dm, bs, 6).toarray()
    expected = np.array([[2, 1, 0], [1, 4, 1], [0, 1, 2]]) / 12.0
    assert np.abs(M - expected).max() < 1e-15


def test_mass_reference_triangle_p1():
    mesh = _build_mesh(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)],
                       [(0, 0, "a"), (0, 1, "b"), (0, 2, "c")])
    dm, bs = setup(mesh, 1, "lagrange")
    M = assemble_mass(mesh, dm, bs, 6).toarray()
    area = 0.5
    expected = area / 12.0 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.abs(M - expected).max() < 1e-15


@pytest.mark.parametrize("kind", ["lagrange", "bernstein"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_mass_properties(kind, p):
    mesh = unit_square_mesh(3, perturb_seed=1)
    dm, bs = setup(mesh, p, kind)
    M = assemble_mass(mesh, dm, bs, default_quad_degree(p))
    Md = M.toarray()
    assert np.abs(Md - Md.T).max() < 1e-14
    one = np.ones(dm.n_dofs)
    assert abs(one @ M @ one - 1.0) < 1e-12      # |Omega| = 1
    w, _ = symmetric_eig(Md)
    assert w.min() > 0


def test_stiffness_interval_p1():
    mesh = interval_mesh(2)
    dm, bs = setup(mesh, 1, "lagrange")
    Q = assemble_stiffness(mesh, dm, bs, [1.0], 6).toarray()
    expected = 0.5 * np.array([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    assert np.abs(Q - expected).max() < 1e-15
    assert np.abs((Q + Q.T) - np.diag([-1.0, 0.0, 1.0])).max() < 1e-15


def test_constants_in_kernel():
    mesh = unit_disk_mesh(3)
    dm, bs = setup(mesh, 2, "bernstein")
    Q = assemble_stiffness(mesh, dm, bs, [1.0, 0.0], 6)
    assert np.abs(Q @ np.ones(dm.n_dofs)).max() < 1e-13


def test_boundary_quadratic_1d():
    mesh = interval_mesh(4)
    for p in (1, 2, 3):
        dm, bs = setup(mesh, p, "lagrange")
        a = 1.7
        Bq = assemble_boundary_quadratic(mesh, dm, bs, [a], 6).toarray()
        expected = np.zeros_like(Bq)
        normal = mesh.boundary_faces.normals[:, 0]
        left = dm.face_dofs[0, 0] if normal[0] < 0 else dm.face_dofs[1, 0]
        right = dm.face_dofs[1, 0] if normal[1] > 0 else dm.face_dofs[0, 0]
        expected[left, left] = -a
        expected[right, right] = a
        assert np.abs(Bq - expected).max() < 1e-14


def face_loop_bq(dm, coeff, edge_degree):
    """Reference Bq: one face at a time, endpoint values in 1D."""
    mesh = dm.mesh
    fun, _ = as_coefficient(coeff, mesh.dimension)
    bq = np.zeros((dm.n_dofs, dm.n_dofs))
    rule = quad_rule("edge", edge_degree)
    b = tabulate(BasisSpec(dm.kind, dm.order, "interval"), rule.points)
    bf = mesh.boundary_faces
    for dofs, e, k, normal, length in zip(dm.face_dofs, bf.element,
                                          bf.local_face, bf.normals, bf.lengths):
        el = mesh.elements[e]
        x0 = mesh.vertices[el[k]]
        if mesh.dimension == 1:
            bq[dofs[0], dofs[0]] += fun(x0.reshape(1, 1))[0, 0] * normal[0]
            continue
        x1 = mesh.vertices[el[(k + 1) % 3]]
        an = fun(x0[None, :] + rule.points * (x1 - x0)[None, :]) @ normal
        bq[np.ix_(dofs, dofs)] += length * np.einsum(
            "q,q,qi,qj->ij", rule.weights, an, b, b)
    return bq


@pytest.mark.parametrize("recipe, p, kind", [
    ("unit_disk(3)", 3, "bernstein"), ("perturbed_square(3,5)", 2, "lagrange"),
    ("interval(5,random,1)", 2, "lagrange")])
def test_boundary_quadratic_matches_face_loop(recipe, p, kind):
    mesh = generate_mesh(recipe)
    dm, bs = setup(mesh, p, kind)
    dim = mesh.dimension
    for coeff in ([0.7, -1.3][:dim], lambda x: np.cos(x + 0.3 * x[:, ::-1])):
        got = assemble_boundary_quadratic(mesh, dm, bs, coeff, 6).toarray()
        assert np.array_equal(got, face_loop_bq(dm, coeff, 6))


def test_boundary_quadratic_flux_identities():
    mesh = unit_square_mesh(4)
    dm, bs = setup(mesh, 2, "lagrange")
    Bq = assemble_boundary_quadratic(mesh, dm, bs, [1.0, 0.0], 6)
    one = np.ones(dm.n_dofs)
    assert abs(one @ Bq @ one) < 1e-13           # closed-surface flux of 1
    x = dm.dof_coords[:, 0]
    assert abs(x @ Bq @ x - 1.0) < 1e-13         # contour integral of x^2 n_x
    # support only on boundary DoFs
    interior = dm.interior_dofs()
    assert np.abs(Bq.toarray()[interior, :]).max() == 0.0


@pytest.mark.parametrize("kind", ["lagrange", "bernstein"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("recipe", ["unit_square(3)", "perturbed_square(3,4)",
                                    "unit_disk(2)", "interval(6,random,2)"])
def test_sbp_identity_matched(kind, p, recipe):
    mesh = generate_mesh(recipe)
    dm, bs = setup(mesh, p, kind)
    coeff = [1.0] if mesh.dimension == 1 else [1.0, 0.0]
    ops = build_operators(mesh, dm, bs, coeff)
    rep = check_sbp(ops)
    assert rep.passed, str(rep)


def test_sbp_rotation_split_form():
    mesh = unit_disk_mesh(4)
    dm, bs = setup(mesh, 2, "bernstein")

    def rot(pts):
        return np.stack([2 * np.pi * pts[:, 1], -2 * np.pi * pts[:, 0]], axis=1)

    ops = build_operators(mesh, dm, bs, rot, split_alpha=0.5)
    rep = check_sbp(ops)
    assert rep.passed, str(rep)
    assert rep.max_interior_residual <= rep.tolerance


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 4),
       p=st.integers(1, 3), kind=st.sampled_from(["lagrange", "bernstein"]),
       c=st.tuples(*[st.floats(-2.0, 2.0).map(lambda x: round(x, 3))] * 3))
def test_sbp_property_perturbed_squares(seed, n, p, kind, c):
    """Matched edge rule: Q + Q^T = Bq on any mesh; a constant a has no net flux.

    The split form meets the identity whatever its volume term, so an affine
    divergence-free a, which both rules integrate exactly, is also checked in
    advective form: there the volume and face kernels must agree.
    """
    mesh = generate_mesh(f"perturbed_square({n},{seed})")
    dm, bs = setup(mesh, p, kind)

    def smooth(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([c[0] + c[2] * np.sin(3.0 * y),
                         c[1] + c[2] * np.cos(2.0 * x * y)], axis=1)

    def affine(pts):
        return np.stack([c[0] + c[2] * pts[:, 1], c[1] + c[2] * pts[:, 0]], axis=1)

    for coeff, alpha in ((smooth, 0.5), (affine, 0.0)):
        rep = check_sbp(build_operators(mesh, dm, bs, coeff, split_alpha=alpha))
        assert rep.passed, str(rep)
    bq = build_operators(mesh, dm, bs, list(c[:2])).Bq
    one = np.ones(dm.n_dofs)
    assert abs(one @ bq @ one) <= 1e-13 * (1.0 + abs(c[0]) + abs(c[1]))


def test_sbp_degraded_edge_quadrature_fails():
    mesh = unit_square_mesh(4)
    dm, bs = setup(mesh, 3, "lagrange")
    ops = build_operators(mesh, dm, bs, [1.0, 0.0],
                          volume_degree=6, edge_degree=5)
    rep = check_sbp(ops)
    assert not rep.passed
    assert rep.max_boundary_residual > 1e-8
    assert rep.max_interior_residual <= rep.tolerance


def test_sbp_zero_velocity():
    mesh = unit_square_mesh(2)
    dm, bs = setup(mesh, 1, "lagrange")
    ops = build_operators(mesh, dm, bs, [0.0, 0.0])
    rep = check_sbp(ops)
    assert rep.passed
    assert rep.max_interior_residual == 0.0
    assert rep.max_boundary_residual == 0.0


@pytest.mark.parametrize("kind", ["lagrange", "bernstein"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_galerkin_derivative_exact_on_polynomials(kind, p):
    # M^-1 Q applied to x^j reproduces j x^(j-1) in coefficient space
    mesh = interval_mesh(5, "random", seed=1)
    dm, bs = setup(mesh, p, kind)
    ops = build_operators(mesh, dm, bs, [1.0])
    lu = factor_mass(ops.M)
    from cgsat.problems import interpolate
    for j in range(p + 1):
        cj = interpolate(lambda pts: pts[:, 0] ** j, dm, bs)
        cd = interpolate(lambda pts: j * pts[:, 0] ** (j - 1) if j else
                         np.zeros(pts.shape[0]), dm, bs)
        deriv = lu.solve(ops.Q @ cj)
        assert np.abs(deriv - cd).max() < 1e-10


def test_system_mass_is_kron_identity():
    import scipy.sparse as sp
    mesh = interval_mesh(4)
    dm, bs = setup(mesh, 2, "lagrange")
    M = assemble_mass(mesh, dm, bs, 6)
    Msys = sp.kron(M, np.eye(3)).tocsr()
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = rng.integers(0, 3 * dm.n_dofs, 2)
        expected = M[i // 3, j // 3] if i % 3 == j % 3 else 0.0
        assert abs(Msys[i, j] - expected) < 1e-15
