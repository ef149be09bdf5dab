import hashlib
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (reference_advective_local, reference_check_sbp,
                     reference_coo_scatter, reference_kron_sum,
                     reference_scatter, reference_split_stiffness,
                     reference_square_folds)

from cgsat import assembly, problems
from cgsat.assembly import (STABILITY_RTOL, GlobalOperators, _advective_local,
                            _scatter, as_coefficient, assemble_boundary_quadratic,
                            assemble_mass, assemble_stiffness, build_operators,
                            check_sbp, default_quad_degree, face_quadrature,
                            kron_sum, scatter_blocks, transpose_partner)
from cgsat.basis import BasisSpec, quad_rule, tabulate
from cgsat.mesh import (NonconformingMeshError, build_dofmap, generate_mesh,
                        interval_mesh, unit_disk_mesh, unit_square_mesh,
                        _build_mesh)
from cgsat.problems import discretize, r13_heat
from cgsat.spectra import symmetric_eig
from cgsat.timeint import factor_mass


def setup(mesh, p, kind):
    dm = build_dofmap(mesh, p, kind)
    return dm, dm.basis_spec()


def test_mass_interval_p1():
    mesh = interval_mesh(2)
    dm, bs = setup(mesh, 1, "lagrange")
    M = assemble_mass(dm, 6).toarray()
    expected = np.array([[2, 1, 0], [1, 4, 1], [0, 1, 2]]) / 12.0
    assert np.abs(M - expected).max() < 1e-15


def test_mass_reference_triangle_p1():
    mesh = _build_mesh(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)],
                       [(0, 0, "a"), (0, 1, "b"), (0, 2, "c")])
    dm, bs = setup(mesh, 1, "lagrange")
    M = assemble_mass(dm, 6).toarray()
    area = 0.5
    expected = area / 12.0 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.abs(M - expected).max() < 1e-15


@pytest.mark.parametrize("kind", ["lagrange", "bernstein"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_mass_properties(kind, p):
    mesh = unit_square_mesh(3, perturb_seed=1)
    dm, bs = setup(mesh, p, kind)
    M = assemble_mass(dm, default_quad_degree(p))
    Md = M.toarray()
    assert np.abs(Md - Md.T).max() < 1e-14
    one = np.ones(dm.n_dofs)
    assert abs(one @ M @ one - 1.0) < 1e-12      # |Omega| = 1
    w, _ = symmetric_eig(Md)
    assert w.min() > 0


def test_stiffness_interval_p1():
    mesh = interval_mesh(2)
    dm, bs = setup(mesh, 1, "lagrange")
    Q = assemble_stiffness(dm, [1.0], 6).toarray()
    expected = 0.5 * np.array([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    assert np.abs(Q - expected).max() < 1e-15
    assert np.abs((Q + Q.T) - np.diag([-1.0, 0.0, 1.0])).max() < 1e-15


def test_constants_in_kernel():
    mesh = unit_disk_mesh(3)
    dm, bs = setup(mesh, 2, "bernstein")
    Q = assemble_stiffness(dm, [1.0, 0.0], 6)
    assert np.abs(Q @ np.ones(dm.n_dofs)).max() < 1e-13


def test_boundary_quadratic_1d():
    mesh = interval_mesh(4)
    for p in (1, 2, 3):
        dm, bs = setup(mesh, p, "lagrange")
        a = 1.7
        Bq = assemble_boundary_quadratic(face_quadrature(dm, 6), [a]).toarray()
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
        got = assemble_boundary_quadratic(face_quadrature(dm, 6), coeff).toarray()
        assert np.array_equal(got, face_loop_bq(dm, coeff, 6))


def test_boundary_quadratic_flux_identities():
    mesh = unit_square_mesh(4)
    dm, bs = setup(mesh, 2, "lagrange")
    Bq = assemble_boundary_quadratic(face_quadrature(dm, 6), [1.0, 0.0])
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
    deg = default_quad_degree(p)
    ops = build_operators(dm, coeff, deg, face_quadrature(dm, deg), None)
    rep = check_sbp(ops)
    assert rep.passed, str(rep)


def test_sbp_rotation_split_form():
    mesh = unit_disk_mesh(4)
    dm, bs = setup(mesh, 2, "bernstein")

    def rot(pts):
        return np.stack([2 * np.pi * pts[:, 1], -2 * np.pi * pts[:, 0]], axis=1)

    ops = build_operators(dm, rot, 6, face_quadrature(dm, 6), 0.5)
    rep = check_sbp(ops)
    assert rep.passed, str(rep)
    assert rep.max_interior_residual <= rep.tolerance


def same_csr(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("data", "indices", "indptr"))


@pytest.mark.parametrize("split_alpha", [None, 0.25, 0.0])
def test_build_operators_assembles_bq_once(monkeypatch, split_alpha):
    """The split form reuses the Bq it added to Q; both keep every bit of
    the operators assembled one at a time."""
    mesh = unit_disk_mesh(3)
    dm, bs = setup(mesh, 2, "bernstein")
    (velocity, _), = problems.rotation_2d().fluxes
    q = assemble_stiffness(dm, velocity, 6, split_alpha=split_alpha,
                           edge_quad_degree=5)
    bq = assemble_boundary_quadratic(face_quadrature(dm, 5), velocity)
    calls = []
    real = assembly.assemble_boundary_quadratic
    monkeypatch.setattr(assembly, "assemble_boundary_quadratic",
                        lambda *args: calls.append(args) or real(*args))
    ops = build_operators(dm, velocity, 6, face_quadrature(dm, 5), split_alpha)
    assert len(calls) == 1
    assert same_csr(ops.Q, q) and same_csr(ops.Bq, bq)


def test_build_operators_refuses_the_face_table_of_another_dofmap():
    """Lagrange and Bernstein maps of one mesh have the same DoF count but
    different face bases, so Bq must come from the map's own table."""
    mesh = unit_disk_mesh(2)
    lagrange, bernstein = (build_dofmap(mesh, 2, k) for k in ("lagrange", "bernstein"))
    with pytest.raises(ValueError, match="built on another DoF map"):
        build_operators(lagrange, [1.0, 0.0], 6, face_quadrature(bernstein, 6), None)


@pytest.mark.parametrize("kind", ["lagrange", "bernstein"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_variable_stiffness_matches_einsum_and_global_split_oracles(kind, p):
    """The reference-tensor product and the per-element split form agree with
    the four-operand einsum and the split form on global matrices to roundoff.

    At alpha = 1/2, the form the rotation uses, each scattered block is
    exactly antisymmetric, so the interior SBP defect is zero and the
    boundary defect is no larger than the oracle's.  Other weights scale
    the advective form's own defect by 1 - 2 alpha, roundoff either way.
    """
    prob = problems.rotation_2d(5)
    mesh = generate_mesh(prob.mesh_recipe)
    dm, bs = setup(mesh, p, kind)
    vol = default_quad_degree(p)
    (velocity, _), = prob.fluxes
    fun, _ = as_coefficient(velocity, 2)
    ref_local = reference_advective_local(mesh, bs, velocity, vol)
    local = _advective_local(mesh, bs, fun, None, vol)
    assert np.abs(local - ref_local).max() <= 1e-15 * np.abs(ref_local).max()
    fq = face_quadrature(dm, vol)
    bq = assemble_boundary_quadratic(fq, velocity)
    for alpha in (0.25, 0.5, 1.0):
        q = assemble_stiffness(dm, velocity, vol,
                               split_alpha=alpha, edge_quad_degree=vol)
        q_ref = reference_split_stiffness(_scatter(dm, ref_local), bq, alpha)
        scale = np.abs(q_ref.data).max()
        assert abs(q - q_ref).max() <= 1e-15 * scale
        rep = check_sbp(GlobalOperators(q, bq, dm, vol, fq))
        assert rep.passed, str(rep)
        if alpha == 0.5:
            assert rep.max_interior_residual == 0.0
            rep_ref = check_sbp(GlobalOperators(q_ref, bq, dm, vol, fq))
            assert rep.max_boundary_residual <= rep_ref.max_boundary_residual


def _digest(m):
    h = hashlib.sha256()
    for a in (m.data, m.indices, m.indptr):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# First 16 hex digits of the sha256 of data, indices and indptr of each
# operator, recorded before the variable-coefficient stiffness became one
# reference-tensor product with the split form taken per element.  Constant
# coefficients do not take that path, so their operators keep every bit.
# advection2d's value_op (Bernstein, so it reads the DoF owners) is pinned
# as the value operator read them from np.unique and scattered int64 indices.
# r13's rhs_matrix is pinned after its penalty went through the one face
# kernel with weights w_q * length and batched closed-form operators: it
# moved by at most 4.9e-16 of its largest entry (2.9e-16 for the penalty).
CONSTANT_COEFFICIENT_DIGESTS = {
    "wave1d": (lambda: problems.wave_1d(20, order=2, spacing="random", seed=7),
               {"M": "ee1a4b588d96fd1f", "ops_sys": "8ac1120c2c78423a",
                "bq_sys": "e6c7fd50183283c6", "rhs_matrix": "62aaa3e47ed74121"}),
    "advection2d": (lambda: problems.advection_2d(6),
                    {"M": "1fcc7fd6350da814", "ops_sys": "06944b38cc9eab2e",
                     "bq_sys": "f9e6a7f67b65206f",
                     "rhs_matrix": "899c2edd32327a38",
                     "value_op": "821a9db9f94a1ef3"}),
    "r13": (lambda: problems.r13_heat(2),
            {"M": "5867ee24c4a322d3", "ops_sys": "02bd9cb1f523c3ee",
             "bq_sys": "ebe915dc45ad99ca", "rhs_matrix": "62c52bf00c01fa6f"}),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_COEFFICIENT_DIGESTS))
def test_constant_coefficient_operators_keep_every_bit(name):
    make, digests = CONSTANT_COEFFICIENT_DIGESTS[name]
    d = problems.discretize(make())
    assert {k: _digest(getattr(d, k)) for k in digests} == digests


# The variable-coefficient split form, recorded before the split was taken
# in place and the blocks scattered straight into CSR.
SPLIT_FORM_DIGESTS = {
    None: {"ops_sys": "6d11e26d26c4867a", "rhs_matrix": "de2d448c07463113"},
    0.3: {"ops_sys": "2fc08048d752d97c", "rhs_matrix": "f8f33e9cd3104661"},
}


@pytest.mark.parametrize("alpha", sorted(SPLIT_FORM_DIGESTS, key=str))
def test_split_form_operators_keep_every_bit(alpha):
    d = problems.discretize(problems.rotation_2d(5), split_alpha=alpha)
    digests = SPLIT_FORM_DIGESTS[alpha]
    assert {k: _digest(getattr(d, k)) for k in digests} == digests


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), k=st.integers(1, 4),
       nb=st.integers(0, 12), dtype=st.sampled_from([np.int32, np.int64]))
def test_scatter_blocks_matches_dense_add_at(seed, n, k, nb, dtype):
    """Blocks at random DoFs, repeated across and within blocks, sum like a
    dense np.add.at.  The entries are small integers, so every summation
    order gives the same exact sums."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(nb, k)).astype(dtype)
    blocks = rng.integers(-8, 9, size=(nb, k, k)).astype(float)
    got = scatter_blocks(idx, blocks, n)
    assert got.shape == (n, n) and got.indices.dtype == np.int32
    assert np.array_equal(got.toarray(), reference_scatter(idx, blocks, n))


def assert_same_csr(got, ref):
    assert got.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), k=st.integers(1, 8),
       nb=st.integers(0, 40), dtype=st.sampled_from([np.int32, np.int64]))
@example(seed=0, n=5, k=3, nb=0, dtype=np.int32)
@example(seed=0, n=5, k=3, nb=0, dtype=np.int64)
def test_scatter_blocks_is_the_coo_conversion_bit_for_bit(seed, n, k, nb, dtype):
    """Random float blocks sum exactly as scipy's COO -> CSR conversion sums
    them, and no blocks give its empty matrix.  Up to 40 blocks of 8 over at
    most 9 DoFs give rows of more than 16 entries, where scipy's per-row sort
    is no longer stable, so the summation order of equal columns matters to
    the last bit."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(nb, k)).astype(dtype)
    blocks = rng.standard_normal((nb, k, k))
    assert_same_csr(scatter_blocks(idx, blocks, n),
                    reference_coo_scatter(idx, blocks, n))


@pytest.mark.parametrize("name", sorted(problems.PROBLEMS))
def test_scatter_blocks_is_the_coo_conversion_on_every_problem_map(name):
    """The element map, the face map and the DoF-major system face map that
    the penalty kernel scatters through, of every shipped problem."""
    spec = problems.PROBLEMS[name](n=3)
    dm = build_dofmap(generate_mesh(spec.mesh_recipe), spec.order, spec.basis)
    m = spec.ncomp
    faces = dm.face_dofs
    system = (faces[:, :, None] * m + np.arange(m)).reshape(len(faces), -1)
    rng = np.random.default_rng(11)
    for idx, n in ((dm.element_dofs, dm.n_dofs), (faces, dm.n_dofs),
                   (system, dm.n_dofs * m)):
        blocks = rng.standard_normal(idx.shape + idx.shape[1:])
        assert_same_csr(scatter_blocks(idx, blocks, n),
                        reference_coo_scatter(idx, blocks, n))


def _rotation_dofmap(n):
    spec = problems.rotation_2d(n)
    dm = build_dofmap(generate_mesh(spec.mesh_recipe), spec.order, spec.basis)
    (velocity, _), = spec.fluxes
    return dm, velocity


def test_scatter_blocks_allocates_no_per_entry_row_array():
    """Its peak is the unsorted CSR's data and indices, one of each per block
    entry, and per-(block, row) arrays.  A per-entry row or column array
    would add 4 bytes an entry; the bound leaves less than that.  The result
    has at least half as many entries as the blocks, so scipy trims the
    arrays in place and makes no pruned copy beside them."""
    dm, _ = _rotation_dofmap(13)
    idx = dm.element_dofs
    blocks = np.random.default_rng(0).standard_normal(idx.shape + idx.shape[1:])
    entries = blocks.size
    int32 = np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        mat = scatter_blocks(idx, blocks, dm.n_dofs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.indices.dtype == np.int32 and 2 * mat.nnz >= entries
    assert peak < entries * (blocks.itemsize + int32 + int32)


def _random_part(rng, shape, mask, dtype, small):
    """A canonical CSR on ``mask`` with explicit +-0.0 among its entries."""
    rows, cols = np.nonzero(mask)
    data = (rng.integers(-2, 3, rows.size).astype(float) if small
            else rng.standard_normal(rows.size))
    data[rng.random(rows.size) < 0.15] = 0.0
    data[rng.random(rows.size) < 0.1] = -0.0
    indptr = np.zeros(shape[0] + 1, dtype=dtype)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((data, cols.astype(dtype), indptr), shape=shape)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), ncols=st.integers(1, 7),
       nparts=st.integers(1, 3), shared=st.booleans(), m=st.integers(1, 6),
       small=st.booleans(), dtype=st.sampled_from([np.int32, np.int64]))
def test_kron_sum_is_the_sum_of_kron_bit_for_bit(seed, n, ncols, nparts, shared,
                                                 m, small, dtype):
    """Parts on one pattern or on different ones, with explicit zeros and
    empty rows, and mats with zeros, -0.0 and entries of both signs give
    the dtype, shape and bytes of scipy's sum of ``sp.kron``.  Small integer
    values make exact cancellations, which the sum drops."""
    rng = np.random.default_rng(seed)
    density = rng.uniform(0.1, 0.9)
    masks = [rng.random((n, ncols)) < density for _ in range(nparts)]
    if shared:
        masks = [masks[0]] * nparts
    for mask in masks:
        mask[rng.random(n) < 0.2] = False                 # empty rows
    parts = [_random_part(rng, (n, ncols), mask, dtype, small) for mask in masks]
    levels = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0])
    mats = [rng.choice(levels, (m, m)) for _ in range(nparts)]
    assert_same_csr(kron_sum(parts, mats), reference_kron_sum(parts, mats))


def test_kron_sum_of_one_part_with_the_unit_mat_is_the_part():
    part = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, -3.0]]))
    assert kron_sum([part], [np.eye(1)]) is part
    assert kron_sum([part], [[[1]]]) is part


@pytest.mark.parametrize("parts, mats, message", [
    ([], [], "as many parts as mats"),
    ([sp.eye(2, format="csr")], [np.eye(2), np.eye(2)], "as many parts as mats"),
    ([sp.eye(2, format="csr"), sp.eye(3, format="csr")], [np.eye(2)] * 2,
     "the parts of one shape"),
    ([sp.eye(2, format="csr")] * 2, [np.eye(2), np.eye(3)], "mats 2-D arrays"),
    ([sp.csr_matrix(([1.0, 2.0], [1, 0], [0, 2]), shape=(1, 2))], [np.eye(2)],
     "canonical CSR")],
    ids=["none", "counts", "part-shapes", "mat-shapes", "unsorted"])
def test_kron_sum_rejects_parts_and_mats_that_do_not_fit(parts, mats, message):
    with pytest.raises(ValueError, match=message):
        kron_sum(parts, mats)


def test_kron_sum_peak_is_little_more_than_its_result():
    """r13's Q = Q_x (x) A + Q_y (x) B at n = 12: the builder holds the
    unpruned result and chunk-sized temporaries, while one ``sp.kron`` per
    part and their sparse sum peaked at about twice the result."""
    disc = discretize(r13_heat(12))
    parts = [o.Q for o in disc.group_ops]
    mats = [a for _, a in disc.problem.fluxes]
    tracemalloc.start()
    try:
        q = kron_sum(parts, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * (q.data.nbytes + q.indices.nbytes + q.indptr.nbytes)


def test_split_form_holds_one_block_array(monkeypatch):
    """From the element blocks' making to their scatter, the split branch of
    build_operators allocates less than one more array of their size, and the
    blocks are gone before Q + alpha Bq is handed back."""
    dm, velocity = _rotation_dofmap(13)
    seen = {}
    advective_local, scatter = assembly._advective_local, assembly._scatter

    def traced_local(*args):
        local = advective_local(*args)
        seen.update(blocks=weakref.ref(local), nbytes=local.nbytes,
                    held=tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return local

    def traced_scatter(dofmap, local):
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        return scatter(dofmap, local)

    def operators(*args):
        seen["dropped"] = seen["blocks"]() is None
        return GlobalOperators(*args)

    monkeypatch.setattr(assembly, "_advective_local", traced_local)
    monkeypatch.setattr(assembly, "_scatter", traced_scatter)
    monkeypatch.setattr(assembly, "GlobalOperators", operators)
    tracemalloc.start()
    try:
        build_operators(dm, velocity, 6, face_quadrature(dm, 6), 0.5)
    finally:
        tracemalloc.stop()
    assert seen["peak"] - seen["held"] < seen["nbytes"]
    assert seen["dropped"]


@pytest.mark.parametrize("velocity, message", [
    (lambda x: x[:, 0], r"shape \(n, 2\) for n = 648 points, got \(648,\)"),
    (lambda x: np.stack([x[:, 1], -x[:, 0], x[:, 0]], axis=1),
     r"shape \(n, 2\) for n = 648 points, got \(648, 3\)"),
    (lambda x: np.full_like(x, np.nan), "non-finite"),
    ([1.0, 0.0, 0.0], r"must have shape \(2,\), got \(3,\)"),
    ([1.0, np.inf], "not finite"),
], ids=["one-column", "three-columns", "nan", "constant-3", "constant-inf"])
def test_bad_velocity_rejected(velocity, message):
    mesh = unit_disk_mesh(3)
    dm, bs = setup(mesh, 2, "bernstein")
    with pytest.raises(ValueError, match=message):
        build_operators(dm, velocity, 6, face_quadrature(dm, 6), None)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 4),
       p=st.integers(1, 3), kind=st.sampled_from(["lagrange", "bernstein"]),
       c=st.tuples(*[st.floats(-2.0, 2.0).map(lambda x: round(x, 3))] * 3))
def test_sbp_property_perturbed_squares(seed, n, p, kind, c):
    """Matched edge rule: Q + Q^T = Bq on any mesh; a constant a has no net flux.

    The split form meets the identity whatever its volume term, so an affine
    divergence-free a, which both rules integrate exactly, is also checked in
    advective form: there the volume and face kernels must agree.  A jitter
    that would fold the mesh is refused by name; a built mesh covers the
    square once.
    """
    try:
        mesh = generate_mesh(f"perturbed_square({n},{seed})")
    except NonconformingMeshError as exc:
        assert re.fullmatch(r"face \(\d+, \d+\) has elements \d+ and \d+ on the "
                            r"same side: the mesh folds there", str(exc))
        assert reference_square_folds(n, seed)
        return
    v = mesh.vertices[mesh.elements]
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert area.min() > 0 and abs(area.sum() - 1.0) < 1e-13
    dm, bs = setup(mesh, p, kind)

    def smooth(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([c[0] + c[2] * np.sin(3.0 * y),
                         c[1] + c[2] * np.cos(2.0 * x * y)], axis=1)

    def affine(pts):
        return np.stack([c[0] + c[2] * pts[:, 1], c[1] + c[2] * pts[:, 0]], axis=1)

    for coeff, alpha in ((smooth, 0.5), (affine, 0.0)):
        rep = check_sbp(build_operators(dm, coeff, 6, face_quadrature(dm, 6), alpha))
        assert rep.passed, str(rep)
    bq = build_operators(dm, list(c[:2]), 6, face_quadrature(dm, 6), None).Bq
    one = np.ones(dm.n_dofs)
    assert abs(one @ bq @ one) <= 1e-13 * (1.0 + abs(c[0]) + abs(c[1]))


def test_a_folding_jitter_is_refused_before_assembly():
    # element 21 is cell (12, 13, 18, 17)'s second triangle, inverted by the
    # jitter: re-oriented and assembled, the areas summed to 1.000515 and
    # Q + Q^T missed Bq by 3.6e-3 on interior DoFs 12, 17 and 18 (P1,
    # a = (y, x)); element 18, across face (12, 17), keeps its orientation
    with pytest.raises(NonconformingMeshError,
                       match=r"^face \(12, 17\) has elements 18 and 21 on the "
                             r"same side: the mesh folds there$"):
        generate_mesh("perturbed_square(4,315704843)")


def test_sbp_degraded_edge_quadrature_fails():
    mesh = unit_square_mesh(4)
    dm, bs = setup(mesh, 3, "lagrange")
    ops = build_operators(dm, [1.0, 0.0], 6, face_quadrature(dm, 5), None)
    rep = check_sbp(ops)
    assert not rep.passed
    assert rep.max_boundary_residual > 1e-8
    assert rep.max_interior_residual <= rep.tolerance


def test_sbp_zero_velocity():
    mesh = unit_square_mesh(2)
    dm, bs = setup(mesh, 1, "lagrange")
    ops = build_operators(dm, [0.0, 0.0], 6, face_quadrature(dm, 6), None)
    rep = check_sbp(ops)
    assert rep.passed
    assert rep.max_interior_residual == 0.0
    assert rep.max_boundary_residual == 0.0


# DoF maps with 1 to 25 interior DoFs, and one with none
SBP_DOFMAPS = ([build_dofmap(unit_square_mesh(2), p, "lagrange") for p in (1, 2, 3)]
               + [build_dofmap(interval_mesh(3), 2, "bernstein"),
                  build_dofmap(unit_square_mesh(1), 1, "lagrange")])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, len(SBP_DOFMAPS) - 1),
       skew=st.booleans(), bq_scale=st.sampled_from([1.0, 1e-14, 0.0]))
def test_check_sbp_reads_the_dense_defect_bit_for_bit(seed, which, skew, bq_scale):
    """A random Q with explicit zeros, -0.0 and empty rows, and a Bq stored
    on boundary x boundary entries only: every report field is the dense
    oracle's max |Q + Q^T - Bq| over entries in an interior row or column
    and over the rest.  A skew Q has Q + Q^T = 0 exactly, so with a small
    Bq some reports pass."""
    dm = SBP_DOFMAPS[which]
    n, b = dm.n_dofs, dm.boundary_dofs
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < rng.uniform(0.05, 0.6)
    mask[rng.random(n) < 0.2] = False                 # empty rows
    q = _random_part(rng, (n, n), mask, np.int32, small=False)
    if skew:
        q = (q - q.T).tocsr()
    on_boundary = np.zeros(n, dtype=bool)
    on_boundary[b] = True
    both = on_boundary[:, None] & on_boundary[None, :]
    bq = _random_part(rng, (n, n), both & (rng.random((n, n)) < 0.5), np.int32,
                      small=False) * bq_scale
    rep = check_sbp(GlobalOperators(q, bq, dm, 6, face_quadrature(dm, 6)))
    Q = q.toarray()
    defect = np.abs(Q + Q.T - bq.toarray())
    max_int = defect[~both].max(initial=0.0)
    max_bnd = defect[both].max(initial=0.0)
    tol = STABILITY_RTOL * max(np.abs(Q).max(initial=0.0), 1e-300)
    fields = (rep.max_interior_residual, rep.max_boundary_residual, rep.tolerance)
    assert [float(x).hex() for x in fields] == [float(x).hex()
                                                for x in (max_int, max_bnd, tol)]
    assert rep.passed is bool(max_int <= tol and max_bnd <= tol)


def _report_hex(rep):
    return [float(x).hex() for x in (rep.max_interior_residual,
                                     rep.max_boundary_residual, rep.tolerance)]


# stored entries of Q whose transpose is not stored, per flux group, in three
# of the battery's cases: a split weight drops exact zeros of Q unevenly
# (twice as many entries lie in the symmetric difference of the patterns of
# Q and Q^T).  The default weights give symmetric patterns on the battery.
UNMATCHED = {("advection2d", 3, 0.5): [12], ("r13", 2, 0.3): [1, 1],
             ("rotation2d", 1, 0.7): [6]}

# every shipped problem, rotation on the 8-ring disk
BATTERY = {"advection2d": problems.advection_2d,
           "sine_advection2d": problems.sine_advection_2d,
           "rotation2d": lambda order: problems.rotation_2d(8, order=order),
           "wave1d": problems.wave_1d, "r13": r13_heat}


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(BATTERY))
def test_check_sbp_keeps_the_bits_of_the_formed_sum(name, order):
    """Every report field of every flux group is, in hex, the one read from
    Q + Q^T formed by scipy, for each split weight; the named cases have
    stored entries whose transpose is not stored."""
    for alpha in (None, 0.3, 0.5, 0.7):
        disc = discretize(BATTERY[name](order=order), split_alpha=alpha)
        for ops in disc.group_ops:
            rep, ref = check_sbp(ops), reference_check_sbp(ops)
            assert _report_hex(rep) == _report_hex(ref)
            assert rep.passed is ref.passed
        if (name, order, alpha) in UNMATCHED:
            assert [transpose_partner(ops.Q)[1].size for ops in disc.group_ops] \
                == UNMATCHED[name, order, alpha]


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_check_sbp_keeps_its_bits_in_any_chunk(monkeypatch, chunk):
    """Chunks of a row or a few rows, on a pattern with unmatched entries,
    give the bits of the formed sum."""
    disc = discretize(problems.rotation_2d(8, order=2), split_alpha=0.7)
    ops, = disc.group_ops
    monkeypatch.setattr(assembly, "SBP_CHUNK", chunk)
    assert transpose_partner(ops.Q)[1].size == 14
    assert _report_hex(check_sbp(ops)) == _report_hex(reference_check_sbp(ops))


def test_transpose_partner_pairs_each_entry_with_its_transpose():
    """Each stored (i, j) points at the stored (j, i), and the positions
    reported unmatched are exactly those whose transpose is not stored."""
    rng = np.random.default_rng(3)
    for density in (0.05, 0.3, 1.0):
        mask = rng.random((40, 40)) < density
        for m in (_random_part(rng, (40, 40), mask | mask.T, np.int32, small=False),
                  _random_part(rng, (40, 40), mask, np.int32, small=False)):
            partner, unmatched = transpose_partner(m)
            rows = np.repeat(np.arange(40), np.diff(m.indptr))
            stored = set(zip(rows.tolist(), m.indices.tolist()))
            alone = [(i, j) not in stored for i, j in zip(m.indices, rows)]
            assert np.array_equal(unmatched, np.flatnonzero(alone))
            hit = partner >= 0
            assert np.array_equal(hit, ~np.array(alone, dtype=bool))
            assert np.array_equal(rows[partner[hit]], m.indices[hit])
            assert np.array_equal(m.indices[partner[hit]], rows[hit])


def test_check_sbp_forms_no_copy_of_q():
    """check_sbp's traced peak stays below 1.75 times Q's data array:
    ``transpose_partner``'s three int32 arrays of Q's size and the chunk
    buffers, with no transposed copy of Q and no float array of its size.
    On ``rotation_2d(20)`` (173 805 stored entries) the peak was 2.13 MB,
    1.53 times Q.data; forming S = Q + Q^T peaked at 6.37 MB (4.58 times)."""
    disc = discretize(problems.rotation_2d(20))
    ops, = disc.group_ops
    check_sbp(ops)
    tracemalloc.start()
    try:
        rep = check_sbp(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 1.75 * ops.Q.data.nbytes


@pytest.mark.parametrize("kind", ["lagrange", "bernstein"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_galerkin_derivative_exact_on_polynomials(kind, p):
    # M^-1 Q applied to x^j reproduces j x^(j-1) in coefficient space
    mesh = interval_mesh(5, "random", seed=1)
    dm, bs = setup(mesh, p, kind)
    deg = default_quad_degree(p)
    ops = build_operators(dm, [1.0], deg, face_quadrature(dm, deg), None)
    lu = factor_mass(assemble_mass(dm, deg))
    from cgsat.problems import interpolate
    for j in range(p + 1):
        cj = interpolate(lambda pts: pts[:, 0] ** j, dm)
        cd = interpolate(lambda pts: j * pts[:, 0] ** (j - 1) if j else
                         np.zeros(pts.shape[0]), dm)
        deriv = lu.solve(ops.Q @ cj)
        assert np.abs(deriv - cd).max() < 1e-10


def test_system_mass_is_kron_identity():
    mesh = interval_mesh(4)
    dm, bs = setup(mesh, 2, "lagrange")
    M = assemble_mass(dm, 6)
    Msys = kron_sum([M], [np.eye(3)])
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = rng.integers(0, 3 * dm.n_dofs, 2)
        expected = M[i // 3, j // 3] if i % 3 == j % 3 else 0.0
        assert abs(Msys[i, j] - expected) < 1e-15
