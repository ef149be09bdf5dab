import hashlib
import inspect
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp

from cgsat import assembly, problems, sat, timeint
from cgsat.basis import tabulate
from cgsat.mesh import build_dofmap, generate_mesh
from cgsat.problems import (Discretization, advection_2d, check_error_norms,
                            discretize, error_norms, interpolate, l2_project_initial,
                            nodal_value_operator, r13_heat, rotation_2d,
                            sine_advection_2d, solve_problem, wave_1d)
from cgsat.sat import (StabilityViolationError, build_pi_system,
                       characteristic_decompose)
from cgsat.spectra import spectrum_report
from cgsat.timeint import factor_mass, run


def test_advection_bump_values():
    prob = advection_2d()
    center = np.array([[0.5, 0.5]])
    assert prob.initial(center)[0] == 1.0
    r03 = np.array([[0.5 + 0.3, 0.5]])
    assert prob.initial(r03)[0] == 0.0
    r01 = np.array([[0.5 + 0.1, 0.5]])
    assert abs(prob.initial(r01)[0] - np.exp(-0.4)) < 1e-15


def test_advection_exact_translates():
    prob = advection_2d()
    pts = np.array([[0.6, 0.5], [0.3, 0.4]])
    assert np.allclose(prob.exact(pts, 0.1),
                       prob.initial(pts - [0.1, 0.0]))


def test_rotation_period_and_direction():
    prob = rotation_2d()
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.6, 0.6, (40, 2))
    assert np.abs(prob.exact(pts, 1.0) - prob.initial(pts)).max() < 1e-12
    # clockwise: bump reaches (0, -0.5) at half period
    assert prob.exact(np.array([[0.0, -0.5]]), 0.5)[0] == pytest.approx(1.0)
    # velocity field is divergence free (analytically)
    (velocity, _), = prob.fluxes
    h = 1e-6
    for x, y in rng.uniform(-0.5, 0.5, (10, 2)):
        vx = (velocity(np.array([[x + h, y]]))[0, 0]
              - velocity(np.array([[x - h, y]]))[0, 0]) / (2 * h)
        vy = (velocity(np.array([[x, y + h]]))[0, 1]
              - velocity(np.array([[x, y - h]]))[0, 1]) / (2 * h)
        assert abs(vx + vy) < 1e-8


@pytest.mark.parametrize("make,args", [(advection_2d, {}),
                                       (sine_advection_2d, {}),
                                       (rotation_2d, {"n": 5})])
def test_exact_solutions_satisfy_pde(make, args):
    # finite-difference residual of u_t + a . grad u at random samples
    prob = make(**args)
    (velocity, flux), = prob.fluxes
    assert np.array_equal(flux, [[1.0]])
    rng = np.random.default_rng(7)
    n_ok = 0
    for _ in range(100):
        t = rng.uniform(0.05, 0.5)
        if prob.name == "rotation2d":
            x = rng.uniform(-0.5, 0.5, 2)
        else:
            x = rng.uniform(0.2, 0.8, 2)
        h = 1e-5
        pt = x[None, :]
        ut = (prob.exact(pt, t + h)[0] - prob.exact(pt, t - h)[0]) / (2 * h)
        ux = (prob.exact(pt + [h, 0], t)[0] - prob.exact(pt - [h, 0], t)[0]) / (2 * h)
        uy = (prob.exact(pt + [0, h], t)[0] - prob.exact(pt - [0, h], t)[0]) / (2 * h)
        a = velocity(pt)[0] if callable(velocity) else velocity
        resid = abs(ut + a[0] * ux + a[1] * uy)
        if resid < 1e-4 * max(1.0, abs(ut)):
            n_ok += 1
    assert n_ok >= 95          # tolerate FD noise at the bump cutoff


def test_wave_problem_facts():
    prob = wave_1d()
    assert prob.ncomp == 2
    (c, A), = prob.fluxes
    assert np.array_equal(c, [1.0]) and np.allclose(A, [[0, 1], [1, 0]])
    d = characteristic_decompose(A, None, prob.symmetrizer, [1.0])
    assert np.allclose(d.eigenvalues, [1.0, -1.0], atol=1e-14)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert np.abs(d.X - expected).max() < 1e-14
    # t = 0 boundary data vanishes at both ends
    assert prob.bc.data["left"](0.0)[0] == 0.0
    assert prob.bc.data["right"](0.0)[0] == 0.0
    with pytest.raises(StabilityViolationError):
        wave_1d(r0=1.0)
    with pytest.raises(StabilityViolationError):
        wave_1d(r1=-1.5)


def test_wave_boundary_data_matches_face_loop():
    # G(t) of the characteristic penalty, one pointwise operator per face
    prob = wave_1d(n=12, spacing="random", seed=3, r0=0.4, r1=-0.3)
    disc = discretize(prob)
    assert disc.mesh.dimension == 1 and disc.ncomp == 2
    bf, m = disc.mesh.boundary_faces, disc.ncomp
    (_, A), = prob.fluxes
    for t in (0.0, 0.3, 1.7, 42.0):
        out = np.zeros(disc.dofmap.n_dofs * m)
        for f, (normal, tag) in enumerate(zip(bf.normals, bf.tags)):
            decomp = characteristic_decompose(A, None, prob.symmetrizer, normal)
            po = build_pi_system(decomp, prob.bc.reflections[tag])
            gidx = (disc.dofmap.face_dofs[f][:, None] * m + np.arange(m)).ravel()
            np.add.at(out, gidx, -po.data_mat @ prob.bc.data[tag](t))
        assert np.array_equal(disc.pi.rhs_data(t), out)


def _data_map_and_kernel(prob, monkeypatch):
    """The discretization of ``prob``, the stacked data of its
    characteristic data map and the face kernel of the map's table taken
    pointwise, s -> data_mat @ s."""
    seen = {}

    def spy(dofmap, fq, faces, w, ops, data_mat, g):
        seen.update(g=g, kernel=real(dofmap, fq, faces, w, ops,
                                     lambda s: data_mat @ s).data)
        return real(dofmap, fq, faces, w, ops, data_mat, g)

    real = sat.assemble_face_sat
    monkeypatch.setattr(sat, "assemble_face_sat", spy)
    disc = discretize(prob)
    return disc, seen["kernel"], seen["g"]


@pytest.mark.parametrize("spacing, seed", [("regular", None), ("random", 7)])
def test_wave_data_map_is_the_face_kernel_bitwise(spacing, seed, monkeypatch):
    prob = wave_1d(n=100, spacing=spacing, seed=seed, r0=0.4, r1=-0.3)
    disc, kernel, g = _data_map_and_kernel(prob, monkeypatch)
    # D keeps the 2 fields at the 2 end DoFs, one column per end
    assert disc.pi.data.rows.size == 4 and disc.pi.data.block.shape == (4, 2)
    for t in (0.0, 0.3, 1.7, 42.0, 1e5):
        assert disc.pi.rhs_data(t).tobytes() == kernel(g(t)).tobytes()


def _char2d():
    """One field carried by (1, 1/2) across the unit square: left and bottom
    are inflow and take data, right and top are outflow."""
    return problems.ProblemSpec(
        name="char2d", dimension=2,
        bc=problems.CharacteristicBC(data={
            "left": lambda t: np.array([np.sin(t)]),
            "bottom": lambda t: np.array([1.0 + np.cos(3.0 * t)])}),
        initial=lambda pts: np.zeros(len(pts)), mesh_recipe="unit_square(3)",
        order=3, basis="bernstein", cfl=0.3, t_end=0.1, max_speed=1.2,
        fluxes=((np.array([1.0, 0.5]), np.eye(1)),))


def test_2d_data_map_matches_the_face_kernel(monkeypatch):
    disc, kernel, g = _data_map_and_kernel(_char2d(), monkeypatch)
    # 10 P3 DoFs on each inflow side, the corner (0, 0) on both
    assert disc.pi.data.block.shape == (19, 2)
    for t in (0.0, 0.3, 1.7, 42.0):
        ref = kernel(g(t))
        got = disc.pi.rhs_data(t)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def _wave_pinned():
    return wave_1d(20, spacing="random", seed=7, r0=0.4, r1=-0.3)


# First 16 hex digits of the sha256 of the penalty matrix (data, indices,
# indptr) and of G(t) at t = 0, 0.3 and 1.7, recorded while the
# characteristic and accommodation conditions still had a point type and a
# kernel call each.  The accommodation G does not depend on t.
SYSTEM_PENALTY_PINS = {
    "r13": (lambda: r13_heat(2), None,
            ("437b36f6c89fb268", "1b905eaa77a04f4b", "1b905eaa77a04f4b",
             "1b905eaa77a04f4b")),
    "r13-scaled": (lambda: r13_heat(2), 1.5,
                   ("8a18b49d317fa6ca", "b9fb754219b73f7e",
                    "b9fb754219b73f7e", "b9fb754219b73f7e")),
    "wave1d": (_wave_pinned, None,
               ("0d45c7bff8f49234", "e06e79cdfedfc6d6", "2e4ea18fb3fc9dd9",
                "d0628ae2dbeb2227")),
    "wave1d-scaled": (_wave_pinned, 1.5,
                      ("d38519cb7fa014f3", "e06e79cdfedfc6d6",
                       "cee9fe1ac5f20693", "4953db06cba9cf0f")),
    "char2d": (_char2d, None,
               ("5bee27a81f5e06ad", "0d92cac5de8910d0", "b6871ce248256d89",
                "29dc5086723a80f1")),
}


def _sha16(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(SYSTEM_PENALTY_PINS))
def test_system_penalties_keep_every_bit(name):
    make, scale, pins = SYSTEM_PENALTY_PINS[name]
    pi = discretize(make(), sat_scale=scale).pi
    m = pi.matrix
    got = (_sha16(m.data, m.indices, m.indptr),
           *(_sha16(pi.rhs_data(t)) for t in (0.0, 0.3, 1.7)))
    assert got == pins


def test_r13_problem_facts():
    prob = r13_heat()
    assert prob.ncomp == 6
    assert np.allclose(np.diag(prob.symmetrizer), [1, 1, 1, 1, 0.5, 1])
    (ex, A), (ey, B) = prob.fluxes
    assert np.array_equal(ex, [1.0, 0.0]) and np.array_equal(ey, [0.0, 1.0])
    rng = np.random.default_rng(1)
    for gamma in rng.uniform(0, 2 * np.pi, 100):
        An = np.cos(gamma) * A + np.sin(gamma) * B
        C = An @ prob.symmetrizer
        assert np.abs(C - C.T).max() < 1e-14
    # relaxation acts on heat flux and stress only, rate 1/0.15
    S = prob.source_matrix
    assert S[0, 0] == 0.0
    assert np.allclose(np.diag(S)[1:], -1.0 / 0.15)
    # boundary data: inner carries the slip velocity, outer the temperature
    g_in = prob.bc.data["inner"](np.pi / 2)
    assert np.allclose(g_in, [0.0, -1.0])        # -u_x sin(gamma)
    g_out = prob.bc.data["outer"](0.3)
    assert np.allclose(g_out, [-3.0 * 1.0, 0.0])  # -alpha * theta1


def test_r13_boundary_data_run_once_per_face_at_build():
    # the accommodation data do not depend on t: G is built once, and a
    # march calls no data callable
    calls = {"inner": 0, "outer": 0}
    prob = r13_heat(2)

    def counted(tag, fn):
        def g(gamma):
            calls[tag] += 1
            return fn(gamma)
        return g

    bc = replace(prob.bc, data={tag: counted(tag, fn)
                                for tag, fn in prob.bc.data.items()})
    disc = discretize(replace(prob, bc=bc))
    tags = list(disc.mesh.boundary_faces.tags)
    per_face = {tag: tags.count(tag) for tag in calls}
    assert calls == per_face and min(per_face.values()) > 0
    g0 = disc.pi.rhs_data(0.0)
    _, traj = solve_problem(disc.problem, disc=disc, steps=3)
    assert traj.steps == 3 and calls == per_face
    assert np.array_equal(disc.pi.rhs_data(5.0), g0)


def test_r13_flux_matrix_entries():
    prob = r13_heat()
    (_, A), (_, B) = prob.fluxes
    # x-flux couples theta<->s_x, s_x<->R_xx, s_y<->R_xy(half), R via sym grad
    assert A[0, 1] == 1.0 and A[1, 0] == 1.0
    assert A[1, 3] == 1.0 and A[3, 1] == 1.0
    assert A[2, 4] == 1.0 and A[4, 2] == 0.5
    assert B[0, 2] == 1.0 and B[2, 0] == 1.0
    assert B[2, 5] == 1.0 and B[5, 2] == 1.0
    assert B[1, 4] == 1.0 and B[4, 1] == 0.5
    # cos*A + sin*B reproduces the normal flux pattern at a generic angle
    g = 0.77
    An = np.cos(g) * A + np.sin(g) * B
    assert An[0, 1] == pytest.approx(np.cos(g))
    assert An[0, 2] == pytest.approx(np.sin(g))
    assert An[4, 1] == pytest.approx(np.sin(g) / 2)
    assert An[4, 2] == pytest.approx(np.cos(g) / 2)
    assert An[5, 2] == pytest.approx(np.sin(g))


def test_interpolation_reproduces_polynomials():
    prob = advection_2d(n=3, order=2, basis="bernstein")
    disc = discretize(prob)
    f = lambda pts: 1.0 + 2 * pts[:, 0] - pts[:, 1] + pts[:, 0] * pts[:, 1]
    c = interpolate(f, disc.dofmap)
    vals = disc.value_op @ c
    assert np.abs(vals - f(disc.dofmap.dof_coords)).max() < 1e-12


@pytest.mark.parametrize("prob, initial, message", [
    (advection_2d(n=2, order=1), lambda pts: 1.0,
     r"shape \(9, 1\) for 9 DoFs, got \(\)"),
    (wave_1d(4), lambda pts: np.zeros((pts.shape[0], 3)),
     r"shape \(9, 2\) for 9 DoFs, got \(9, 3\)"),
    (wave_1d(4), lambda pts: np.full((pts.shape[0], 2), np.nan), "non-finite")],
    ids=["constant", "three-columns", "nan"])
def test_discretize_rejects_malformed_initial_data(prob, initial, message):
    with pytest.raises(ValueError, match=message):
        discretize(replace(prob, initial=initial))


def test_error_norms_reject_malformed_exact_values():
    disc = discretize(advection_2d(n=2, order=1))
    bad = replace(disc, problem=replace(disc.problem,
                                        exact=lambda pts, t: np.ones((3, 2))))
    with pytest.raises(ValueError, match=r"got \(3, 2\)"):
        error_norms(disc.u0, bad, 0.0)


def test_dofmap_is_the_one_source_of_mesh_and_basis():
    """No public function that takes a DoF map also takes a mesh or a basis,
    so operators cannot be assembled in two bases or on two meshes."""
    for module in (assembly, sat, problems):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            params = set(inspect.signature(fn).parameters)
            if "dofmap" in params:
                assert not params & {"mesh", "basis"}, f"{module.__name__}.{name}"
    assert not {"mesh", "basis"} & {f.name for f in fields(Discretization)}
    disc = discretize(advection_2d(n=2, order=1, basis="bernstein"))
    assert disc.mesh is disc.dofmap.mesh
    assert disc.basis == disc.dofmap.basis_spec()


# ncomp, max|Q| and h_min as Discretization stored them before it computed them
STORED_AT_BUILD = [
    (lambda: wave_1d(), 2, "0x1.5555555555559p-1", "0x1.47ae147ae1440p-7"),
    (lambda: wave_1d(n=20, spacing="random", seed=7), 2,
     "0x1.5555555555559p-1", "0x1.f4513f0855460p-7"),
    (lambda: advection_2d(n=4), 1, "0x1.2492492492494p-5", "0x1.2bec333018867p-3"),
    (lambda: rotation_2d(n=5), 1, "0x1.690f02c5e5382p-4", "0x1.d8f7208e6b82cp-4"),
    (lambda: r13_heat(n=2), 6, "0x1.5aae2e711e70fp-4", "0x1.b6a23dc79d70cp-4"),
    (lambda: sine_advection_2d(n=3), 1,
     "0x1.6c16c16c16c18p-4", "0x1.8fe5999576089p-3"),
]


def test_each_setting_has_one_home():
    """The spec holds no setting that ``discretize`` takes or the order
    implies, the march config has no CFL, and the discretization computes
    what it used to store, bit for bit."""
    spec = {f.name for f in fields(problems.ProblemSpec)}
    assert len(spec) == 15
    assert not spec & {"scheme", "volume_degree", "edge_degree",
                       "split_alpha", "sat_scale", "ncomp", "velocity", "A", "B"}
    assert "cfl" not in inspect.signature(run).parameters
    assert len(fields(Discretization)) == 10
    assert not hasattr(Discretization, "dt")
    params = inspect.signature(assembly.build_operators).parameters.values()
    assert all(p.default is inspect.Parameter.empty for p in params)
    prob = wave_1d(n=10)
    assert discretize(prob, order=3).problem.scheme == "SSPRK54"
    assert (prob.order, prob.scheme) == (2, "SSPRK33")
    for factory, ncomp, norm_q, h_min in STORED_AT_BUILD:
        disc = discretize(factory())
        assert disc.ncomp == ncomp
        assert disc.norm_q == float.fromhex(norm_q)
        assert disc.mesh.h_min() == float.fromhex(h_min)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("factory", [
    lambda: wave_1d(n=10, spacing="random", seed=3), lambda: r13_heat(2)],
    ids=["wave1d", "r13"])
def test_split_weight_reaches_each_flux_group(factory, alpha):
    """A system's stiffness is sum_g Q_g (x) A_g with each Q_g in split
    form; each group passes its own SBP check and Bq does not move."""
    prob = factory()
    plain, split = discretize(prob), discretize(prob, split_alpha=alpha)
    reports = split.sbp_reports()
    assert len(reports) == len(prob.fluxes)
    assert all(rep.passed for rep in reports), [str(r) for r in reports]
    q = sum(sp.kron(o.Q, a, format="csr")
            for o, (_, a) in zip(split.group_ops, prob.fluxes))
    assert abs(split.ops_sys - q).max() == 0.0
    assert abs(split.ops_sys - plain.ops_sys).max() > 0.0
    assert abs(split.bq_sys - plain.bq_sys).max() == 0.0


def test_one_field_system_takes_the_scalar_penalty():
    """A scalar problem is a one-field system: upwind characteristic data
    on ((e_x, [[1]]),), with no symmetrizer (the identity), give the
    inflow penalty a_n^- of the scalar path."""
    one = replace(wave_1d(n=6), fluxes=((np.array([1.0]), np.eye(1)),),
                  symmetrizer=None, initial=lambda pts: np.sin(pts[:, 0]))
    system = discretize(replace(one, bc=problems.CharacteristicBC()))
    scalar = discretize(replace(one, bc=problems.ScalarBC(None)))
    assert system.ncomp == scalar.ncomp == 1
    assert np.array_equal(system.pi.matrix.toarray(), scalar.pi.matrix.toarray())
    assert abs(system.ops_sys - scalar.ops_sys).max() == 0.0


# a two-field system on the square whose c . n varies along the bottom wall
SHEARED = replace(advection_2d(n=2, order=1), symmetrizer=np.eye(2),
                  fluxes=((lambda pts: pts[:, ::-1] + 1.0,
                           np.array([[0.0, 1.0], [1.0, 0.0]])),),
                  bc=problems.CharacteristicBC(),
                  initial=lambda pts: np.zeros((pts.shape[0], 2)))


@pytest.mark.parametrize("prob, message", [
    (replace(wave_1d(n=4), fluxes=()),
     "flux matrices must be square and of one size"),
    (replace(wave_1d(n=4), fluxes=((np.array([1.0]), np.eye(2)),
                                   (np.array([1.0]), np.eye(3)))),
     r"got shapes \[\(2, 2\), \(3, 3\)\]"),
    (replace(wave_1d(n=4), fluxes=((np.array([1.0]), np.ones((2, 3))),)),
     "flux matrices must be square"),
    (replace(wave_1d(n=4), bc=problems.ScalarBC(None)),
     "an inflow condition takes one flux group"),
    (SHEARED, "needs each c_g . n constant along a face"),
    (replace(r13_heat(2), fluxes=tuple((c, 2.0 * a)
                                       for c, a in r13_heat(2).fluxes)),
     "an accommodation condition takes the moment system's flux groups"),
    (replace(r13_heat(2), symmetrizer=np.eye(6)),
     "an accommodation condition takes the moment system's flux groups")],
    ids=["empty", "two-sizes", "not-square", "inflow-on-system", "variable",
         "accommodation-doubled-fluxes", "accommodation-symmetrizer"])
def test_discretize_rejects_flux_groups_that_do_not_fit(prob, message):
    with pytest.raises(ValueError, match=message):
        discretize(prob)


def test_characteristic_penalty_of_a_constant_2d_group_is_certified():
    # A_n = (c . n) A on each wall of the square; upwind data dissipate
    prob = replace(SHEARED, fluxes=((np.array([1.0, 0.5]), SHEARED.fluxes[0][1]),))
    assert spectrum_report(discretize(prob)).stable


def test_solve_problem_marches_only_the_problem_it_is_given():
    prob = advection_2d(n=2, order=1)
    disc = discretize(prob, volume_degree=6, edge_degree=6, sat_scale=1.5)
    assert disc.problem is prob
    with pytest.raises(ValueError, match="pass disc.problem"):
        solve_problem(wave_1d(n=4), disc=disc, steps=1)
    other = discretize(prob, order=2)
    assert other.problem is not prob and (other.problem.order, prob.order) == (2, 1)
    with pytest.raises(ValueError, match="pass disc.problem"):
        solve_problem(prob, disc=other, steps=1)
    _, traj = solve_problem(other.problem, disc=other, steps=1)
    assert traj.steps == 1


@pytest.mark.parametrize("recipe", ["unit_disk(3)", "interval(7,random,3)"])
@pytest.mark.parametrize("ncomp", [1, 3])
def test_bernstein_owner_maps_match_element_loops(recipe, ncomp):
    """Vectorized owners equal the element loops they replaced, bit for bit:
    interpolation keeps the last element listing a DoF, the value operator
    the first."""
    dm = build_dofmap(generate_mesh(recipe), 3, "bernstein")
    bs = dm.basis_spec()
    lattice_eval = tabulate(bs, bs.lattice())

    def fn(pts):
        v = np.exp(np.sin(3.0 * pts.sum(axis=1)))
        return v if ncomp == 1 else np.stack([v * (c + 1) for c in range(ncomp)], 1)

    vals = fn(dm.dof_coords).reshape(dm.n_dofs, ncomp)
    inv = np.linalg.inv(lattice_eval)
    coef = np.zeros_like(vals)
    value_op = np.zeros((dm.n_dofs, dm.n_dofs))
    owned = np.zeros(dm.n_dofs, dtype=bool)
    for gd in dm.element_dofs:
        coef[gd] = inv @ vals[gd]
        for iloc, g in enumerate(gd):
            if not owned[g]:
                owned[g] = True
                value_op[g, gd] = lattice_eval[iloc]
    got = interpolate(fn, dm, ncomp)
    assert np.array_equal(got, coef.ravel() if ncomp == 1 else coef)
    assert np.array_equal(nodal_value_operator(dm).toarray(), value_op)


def test_l2_projection_of_smooth_data_matches_interpolation():
    prob = sine_advection_2d(n=6, order=3)
    disc = discretize(prob)
    proj = l2_project_initial(disc)
    assert np.abs(proj - disc.u0).max() < 5e-3   # both ~approximation error


def test_error_norms_basics():
    prob = sine_advection_2d(n=6, order=2)
    disc = discretize(prob)
    # state equal to the exact interpolant: only interpolation error remains
    e = error_norms(disc.u0, disc, 0.0)
    assert e["L2_M"] < 5e-3
    assert e["Linf"] < 5e-3
    # pure constant offset c against the interpolant: L2_M = c on |Omega| = 1
    c = 0.37
    ecoeff = interpolate(lambda pts: prob.exact(pts, 0.0), disc.dofmap)
    e = error_norms(ecoeff + c, disc, 0.0)
    assert abs(e["L2_M"] - c) < 1e-12
    assert abs(e["Linf"] - c) < 1e-12


def test_error_norms_exact_in_space():
    # linear profile is in V^h for every order: zero error to roundoff
    prob = sine_advection_2d(n=4, order=1)
    prob.exact = lambda pts, t: 2.0 * pts[:, 0] - 0.5
    prob.initial = lambda pts: prob.exact(pts, 0.0)
    disc = discretize(prob)
    e = error_norms(disc.u0, disc, 0.0)
    assert e["L1"] < 1e-13 and e["L2_M"] < 1e-13 and e["Linf"] < 1e-13


def test_error_norms_accept_a_column_shaped_exact_solution():
    # an exact field of shape (n, 1), which interpolate accepts for a
    # scalar, gives the same norms as the (n,) form: the interpolant's own
    # nodal error is zero
    prob = sine_advection_2d(n=4)
    disc = discretize(prob)
    state = interpolate(lambda pts: prob.exact(pts, 0.1), disc.dofmap)
    flat = error_norms(state, disc, 0.1)
    column = replace(prob, exact=lambda pts, t: prob.exact(pts, t)[:, None])
    e = error_norms(state, replace(disc, problem=column), 0.1)
    assert e == flat
    assert e["Linf"] == 0.0


@pytest.mark.parametrize("prob, message", [
    (wave_1d(n=4), "problem wave1d has no exact solution"),
    (r13_heat(2), "problem r13 has no exact solution"),
    (replace(wave_1d(n=4), exact=lambda pts, t: np.zeros((pts.shape[0], 2))),
     "error norms implemented for scalar problems")],
    ids=["wave1d", "r13", "two-fields"])
def test_error_norms_preconditions_checked_from_the_spec(prob, message):
    with pytest.raises(ValueError, match=message):
        check_error_norms(prob)
    disc = discretize(prob)
    with pytest.raises(ValueError, match=message):
        error_norms(disc.u0, disc, 0.0)


def test_error_norms_zero():
    prob = sine_advection_2d(n=4, order=1)
    prob.exact = lambda pts, t: np.zeros(pts.shape[0])
    disc = discretize(prob)
    e = error_norms(np.zeros(disc.dofmap.n_dofs), disc, 0.0)
    assert e == {"L1": 0.0, "L2_M": 0.0, "Linf": 0.0}


def test_wave_spacing_and_seed_checked():
    assert wave_1d(n=10).mesh_recipe == "interval(10)"
    assert wave_1d(n=10, spacing="random", seed=5).mesh_recipe == \
        "interval(10,random,5)"
    with pytest.raises(ValueError, match="regular spacing takes no seed"):
        wave_1d(n=10, seed=5)
    with pytest.raises(ValueError, match="random spacing needs a seed"):
        wave_1d(n=10, spacing="random")
    with pytest.raises(ValueError, match="unknown spacing 'randm'"):
        wave_1d(n=10, spacing="randm", seed=5)


@pytest.mark.parametrize("initial", ["interpp", "projct", "", None])
def test_solve_problem_rejects_unknown_initial(initial, monkeypatch):
    def no_discretize(*args, **kwargs):
        raise AssertionError("discretized before the check")
    monkeypatch.setattr("cgsat.problems.discretize", no_discretize)
    with pytest.raises(ValueError, match="initial must be 'interp' or 'project'"):
        solve_problem(advection_2d(n=2, order=1), initial=initial)


@pytest.mark.parametrize("t_end", [1.0, -1.0])
def test_solve_problem_refuses_steps_with_t_end(t_end, monkeypatch):
    # a step count fixes the end time, so a t_end beside it, valid or not,
    # would be dropped unread
    def no_discretize(*args, **kwargs):
        raise AssertionError("discretized before the check")
    monkeypatch.setattr("cgsat.problems.discretize", no_discretize)
    with pytest.raises(ValueError, match=f"steps 2 and t_end {t_end} both "
                                         f"given"):
        solve_problem(advection_2d(n=2, order=1), steps=2, t_end=t_end)


def test_solve_problem_refuses_a_march_setting_before_projecting(monkeypatch):
    factored = []

    def spy(M):
        factored.append(M.shape)
        return factor_mass(M)
    monkeypatch.setattr(problems, "factor_mass", spy)   # the projection's
    monkeypatch.setattr(timeint, "factor_mass", spy)    # the march's
    disc = discretize(advection_2d(n=2, order=1))
    with pytest.raises(ValueError, match="steps must be at least 1, got 0"):
        solve_problem(disc.problem, disc, initial="project", steps=0)
    assert factored == []


def test_l2_projection_of_system_matches_each_component():
    # the projection solves all components with one factor of M
    disc = discretize(wave_1d(n=8, order=2, spacing="random", seed=3))
    fields = (lambda x: np.sin(3.0 * x), np.exp)
    both = replace(disc.problem, initial=lambda pts: np.stack(
        [f(pts[:, 0]) for f in fields], axis=1))
    proj = l2_project_initial(replace(disc, problem=both)).reshape(-1, 2)
    for c, f in enumerate(fields):
        one = replace(disc.problem, fluxes=((np.array([1.0]), np.eye(1)),),
                      initial=lambda pts: f(pts[:, 0]))
        ref = l2_project_initial(replace(disc, problem=one))
        assert np.abs(proj[:, c] - ref).max() < 1e-13


def test_solve_problem_guard_on_degraded_quadrature():
    prob = advection_2d(n=3, order=3)
    degraded = discretize(prob, volume_degree=6, edge_degree=5)
    with pytest.raises(RuntimeError):
        solve_problem(prob, disc=degraded)
    # explicit opt-out marches anyway
    disc, traj = solve_problem(prob, disc=degraded, steps=3,
                               skip_sbp_guard=True)
    assert traj.steps == 3


def test_wave_temporal_order_refinement():
    # fixed mesh, shrinking dt: errors against a small-dt reference recover
    # the scheme order (smooth boundary-driven data)
    prob = wave_1d(n=8, order=2)
    disc = discretize(prob)
    g = disc.pi.rhs_data

    def march(dt):
        return run(disc.M, disc.rhs_matrix, g, disc.u0, dt, ncomp=2,
                   value_op=disc.value_op, scheme="SSPRK33", t_end=1.0).state

    ref = march(1.0 / 4096)
    errs = [np.linalg.norm(march(1.0 / n) - ref) for n in (64, 128, 256)]
    slopes = [np.log(errs[i] / errs[i + 1]) / np.log(2.0) for i in range(2)]
    assert abs(slopes[-1] - 3.0) < 0.3


def test_linear_profile_transport_is_exact():
    # u = x - t solves the PDE with g = -t at the inflow; it lies in V^h,
    # the data is linear in t, so every scheme reproduces it to roundoff
    prob = sine_advection_2d(n=3, order=2)
    prob.exact = lambda pts, t: pts[:, 0] - t
    prob.initial = lambda pts: pts[:, 0]
    from cgsat.problems import ScalarBC
    prob.bc = ScalarBC(lambda pts, t: pts[:, 0] - t)
    disc, traj = solve_problem(prob, t_end=0.3)
    e = error_norms(traj.state, disc, traj.t)
    assert e["L2_M"] < 1e-12


@pytest.mark.parametrize("factory, recipe, message", [
    (wave_1d, "unit_square(2)", "wave1d is 1D but the mesh is 2D"),
    (r13_heat, "interval(4)", "r13 is 2D but the mesh is 1D"),
    (r13_heat, "unit_square(2)",
     "names boundary tags ['inner', 'outer'] that the mesh lacks "
     "(mesh tags: ['bottom', 'left', 'right', 'top'])")])
def test_discretize_rejects_mesh_that_does_not_fit(factory, recipe, message):
    with pytest.raises(ValueError) as err:
        discretize(factory(), mesh=generate_mesh(recipe))
    assert message in str(err.value)
