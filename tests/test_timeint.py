from collections import Counter
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cgsat import problems, timeint
from cgsat.assembly import assemble_mass, build_operators, face_quadrature
from cgsat.mesh import build_dofmap, interval_mesh
from cgsat.problems import (discretize, r13_heat, rotation_2d, solve_problem,
                            wave_1d)
from cgsat.sat import BoundaryOperator, scalar_sat_2d
from cgsat.timeint import (RECORD_BLOCK_BYTES, SCHEMES,
                           MassNotPositiveDefiniteError, Trajectory,
                           factor_mass, run, stable_dt, step)
from oracles import (reference_energy, reference_extrema, reference_march,
                     reference_step, scheme_consistency_defect)


def test_scheme_order_conditions():
    for name in SCHEMES:
        assert scheme_consistency_defect(name) < 1e-14


def test_ssprk22_decay_value():
    out = step(np.array([1.0]), 0.0, 0.1, lambda t, u: -u, "SSPRK22")
    assert abs(out[0] - 0.905) < 1e-15


def test_zero_rhs_leaves_state():
    u = np.array([1.0, -2.0, 3.0])
    for name in SCHEMES:
        out = step(u, 0.0, 0.25, lambda t, v: np.zeros_like(v), name)
        # convex-combination weights reassemble u up to roundoff
        assert np.abs(out - u).max() <= 4 * np.finfo(float).eps * np.abs(u).max()


@pytest.mark.parametrize("name,order", [("SSPRK22", 2), ("SSPRK33", 3),
                                        ("SSPRK54", 4)])
def test_observed_temporal_order(name, order):
    errs = []
    for nsteps in (20, 40, 80):
        u, t = np.array([1.0]), 0.0
        dt = 1.0 / nsteps
        for _ in range(nsteps):
            u = step(u, t, dt, lambda t, v: -v, name)
            t += dt
        errs.append(abs(u[0] - np.exp(-1.0)))
    slopes = [np.log(errs[i] / errs[i + 1]) / np.log(2.0) for i in range(2)]
    assert abs(slopes[-1] - order) < 0.1


def test_nonautonomous_stage_times():
    # u' = cos(t) u has solution exp(sin t); wrong stage times break order 3+
    for name, order in (("SSPRK33", 3), ("SSPRK54", 4)):
        errs = []
        for nsteps in (20, 40):
            u, t = np.array([1.0]), 0.0
            dt = 1.0 / nsteps
            for _ in range(nsteps):
                u = step(u, t, dt, lambda t, v: np.cos(t) * v, name)
                t += dt
            errs.append(abs(u[0] - np.exp(np.sin(1.0))))
        slope = np.log(errs[0] / errs[1]) / np.log(2.0)
        assert slope > order - 0.3


def test_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        step(np.array([1.0]), 0.0, 0.0, lambda t, v: v, "SSPRK22")
    with pytest.raises(ValueError, match="dt must be positive"):
        step(np.array([1.0]), 0.0, float("nan"), lambda t, v: v, "SSPRK22")


@pytest.mark.parametrize("steps", [None, 3])
@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0])
def test_run_rejects_dt_not_positive_and_finite(dt, steps, monkeypatch):
    def no_factor(M):
        raise AssertionError("factored M before the check")
    monkeypatch.setattr(timeint, "factor_mass", no_factor)
    I = sp.identity(2, format="csr")
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        run(I, -I, None, np.ones(2), dt, scheme="SSPRK22", t_end=1.0,
            steps=steps)


def test_factor_mass_fem_mass():
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    M = assemble_mass(dm, 6)
    lu = factor_mass(M)
    x = np.array([1.0, 2.0, 3.0])
    assert np.abs(lu.solve(M @ x) - x).max() < 1e-11
    # one solve serves every component of a system state
    X = np.stack([x, -x, 2.0 * x + 1.0], axis=1)
    sol = lu.solve(M @ X)
    assert sol.shape == (3, 3)
    assert np.abs(sol - X).max() < 1e-11
    # the residual of a direct solve is at roundoff, not at a CG tolerance
    mesh = interval_mesh(40)
    dm = build_dofmap(mesh, 3, "bernstein")
    M = assemble_mass(dm, 6)
    r = np.random.default_rng(1).standard_normal((dm.n_dofs, 2))
    resid = M @ factor_mass(M).solve(r) - r
    assert np.linalg.norm(resid) <= 1e-14 * np.linalg.norm(r)


@pytest.mark.parametrize("volume_degree", [4, 5])
def test_factor_mass_rejects_a_mass_that_is_no_norm(volume_degree):
    # P3 Bernstein under-integrated: degree 4 leaves negative pivots at
    # roundoff, degree 5 positive ones 1e-14 of the largest
    M = discretize(rotation_2d(8), volume_degree=volume_degree).M
    with pytest.raises(MassNotPositiveDefiniteError,
                       match=r"smallest / largest pivot of its LDL\^T factor "
                             r"is -?\d\.\d{3}e-1\d \(needs > 1e-10\)"):
        factor_mass(M)
    assert issubclass(MassNotPositiveDefiniteError, ValueError)
    factor_mass(discretize(rotation_2d(8)).M)      # the default rule is fine


def test_factor_mass_pivot_ratio_threshold():
    for d in ([1.0, -1.0], [1.0, 0.0], [1.0, 1e-10], [2.0, np.nan]):
        with pytest.raises(MassNotPositiveDefiniteError):
            factor_mass(sp.diags(d, format="csr"))
    factor_mass(sp.diags([1.0, 2e-10], format="csr"))


def test_factor_mass_is_symmetric_with_less_fill():
    # P3 Bernstein mass of the rotation problem
    M = discretize(rotation_2d(5)).M
    lu = factor_mass(M)
    assert np.array_equal(lu.perm_r, lu.perm_c)        # diagonal pivots only
    default = spla.splu(M.tocsc())
    assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz
    rng = np.random.default_rng(3)
    for r in (rng.standard_normal(M.shape[0]),
              rng.standard_normal((M.shape[0], 3))):
        resid = M @ lu.solve(r) - r
        assert np.linalg.norm(resid) <= 1e-14 * np.linalg.norm(r)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_step_matches_reference_bitwise(name):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((7, 7))
    g = rng.standard_normal(7)

    def rhs(t, v):
        return A @ v + np.sin(t) * g

    for _ in range(5):
        u = rng.standard_normal(7)
        t, dt = rng.uniform(-2.0, 2.0), rng.uniform(1e-3, 0.5)
        assert np.array_equal(step(u, t, dt, rhs, name),
                              reference_step(u, t, dt, rhs, name))


def test_stable_dt_rule():
    assert stable_dt(0.3, 0.1, 2.0, 1) == pytest.approx(0.3 * 0.1 / (2.0 * 3))
    for speed in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"max_speed must be positive "
                                             f"and finite, got {speed}"):
            stable_dt(0.3, 0.1, speed, 1)
    for cfl in (0.0, float("inf")):
        with pytest.raises(ValueError,
                           match=f"cfl must be positive and finite, got {cfl}"):
            stable_dt(cfl, 0.1, 2.0, 1)


def test_config_validation():
    # solve_problem hands its settings to run, which checks them
    with pytest.raises(ValueError, match="unknown scheme 'RK4'"):
        solve_problem(wave_1d(n=4), scheme="RK4")


@pytest.mark.parametrize("setting,message", [
    ({"steps": -2}, "steps must be at least 1"),
    ({"steps": 0}, "steps must be at least 1"),
    ({"scheme": "RK4"}, "unknown scheme 'RK4'"),
    ({"amplitude_limit": -1.0}, "amplitude_limit must be positive"),
    ({"amplitude_limit": float("nan")}, "amplitude_limit must be positive"),
    ({"cfl": float("nan")}, "cfl must be positive"),
    ({"steady_tol": -1.0}, "steady_tol must be positive"),
    ({"steady_tol": 0.0}, "steady_tol must be positive"),
    ({"steady_tol": float("nan")}, "steady_tol must be positive")])
def test_config_rejects_meaningless_settings(setting, message, monkeypatch):
    # The CFL number belongs to the step rule, not to the integrator.
    def no_factor(M):
        raise AssertionError("factored M before the check")
    monkeypatch.setattr(timeint, "factor_mass", no_factor)
    I = sp.identity(2, format="csr")
    with pytest.raises(ValueError, match=message):
        if "cfl" in setting:
            stable_dt(setting["cfl"], 0.1, 2.0, 1)
        else:
            run(I, -I, None, np.ones(2), 0.1, **setting)


@pytest.mark.parametrize("t_end", [-1.0, 0.0, float("nan"), float("inf")])
def test_run_rejects_t_end_not_after_t0(t_end):
    M, A = _decay_setup()
    message = "t_end inf is not finite" if t_end == float("inf") \
        else "is not positive"
    with pytest.raises(ValueError, match=message):
        run(M, A, None, np.ones(4), 0.1, scheme="SSPRK22", t_end=t_end)


def _decay_setup():
    M = sp.identity(4, format="csr")
    A = sp.diags([-1.0] * 4).tocsr()
    return M, A


def test_run_decay_and_histories():
    M, A = _decay_setup()
    traj = run(M, A, None, np.ones(4), 0.01, scheme="SSPRK33", t_end=1.0)
    assert traj.status == "completed"
    assert traj.steps == 100
    assert abs(traj.t - 1.0) < 1e-12
    assert abs(traj.state[0] - np.exp(-1.0)) < 1e-7
    assert traj.energies.size == traj.steps + 1
    assert np.all(np.diff(traj.energies) < 0)


def test_run_exact_step_count():
    M, A = _decay_setup()
    traj = run(M, A, None, np.ones(4), 0.1, scheme="SSPRK22", t_end=99.0,
               steps=17)
    assert traj.steps == 17


def test_run_blowup_detection():
    M, _ = _decay_setup()
    A = sp.diags([50.0] * 4).tocsr()
    traj = run(M, A, None, np.ones(4), 0.05, scheme="SSPRK22", t_end=10.0,
               amplitude_limit=100.0)
    assert traj.status == "aborted"
    assert traj.blowup_step is not None
    assert traj.umax.max() > 100.0


def test_run_steady_detection():
    M, A = _decay_setup()
    g = np.array([1.0, 0.0, 0.0, 0.0])
    traj = run(M, A, lambda t: g, np.zeros(4), 0.05, scheme="SSPRK33",
               t_end=200.0, steady_tol=1e-10)
    assert traj.status == "steady"
    assert abs(traj.state[0] - 1.0) < 1e-9      # fixed point of u' = -u + g


def test_run_energy_decay_with_sat():
    # homogeneous advection with the endpoint penalty: M-norm nonincreasing
    mesh = interval_mesh(16)
    dm = build_dofmap(mesh, 2, "lagrange")
    ops = build_operators(dm, [1.0], 6, face_quadrature(dm, 6), None)
    pi = scalar_sat_2d(ops.faces, [1.0])
    rhs = (pi.matrix - ops.Q).tocsr()
    x = dm.dof_coords[:, 0]
    u0 = np.exp(-50 * (x - 0.5) ** 2)
    dt = stable_dt(0.2, mesh.h_min(), 1.0, 2)
    traj = run(assemble_mass(dm, 6), rhs, None, u0, dt, scheme="SSPRK33",
               t_end=1.5)
    assert traj.status == "completed"
    growth = np.diff(traj.energies)
    assert growth.max() <= 1e-12 * traj.energies[0]


def test_run_linearity():
    mesh = interval_mesh(8)
    dm = build_dofmap(mesh, 1, "lagrange")
    ops = build_operators(dm, [1.0], 6, face_quadrature(dm, 6), None)
    pi = scalar_sat_2d(ops.faces, [1.0])
    rhs = (pi.matrix - ops.Q).tocsr()
    rng = np.random.default_rng(8)
    u0, v0 = rng.standard_normal((2, dm.n_dofs))
    a, b = 1.3, -0.7
    cfg = {"scheme": "SSPRK33", "t_end": 0.5}
    dt, M = 0.01, assemble_mass(dm, 6)
    su = run(M, rhs, None, u0, dt, **cfg).state
    sv = run(M, rhs, None, v0, dt, **cfg).state
    sw = run(M, rhs, None, a * u0 + b * v0, dt, **cfg).state
    assert np.abs(sw - (a * su + b * sv)).max() < 1e-10


def test_march_keeps_the_traced_call_contract(monkeypatch):
    """One matvec, one G(t) call and one mass solve per right-hand side.

    ``bench/tracer.py`` times a march through stand-ins: the rhs matrix is
    used only through ``@``, the mass factor only through ``solve``, and
    G(t) only through the ``BoundaryOperator.rhs_data`` that
    ``solve_problem`` looks up; its traced runs check each count against
    stages x steps.  The stand-ins here offer nothing else.
    """
    steps = 7
    _, plain = solve_problem(wave_1d(n=8), steps=steps)
    calls = Counter()

    class OnlyMatmul:
        __slots__ = ("_A",)

        def __init__(self, A):
            self._A = A

        def __matmul__(self, v):
            calls["matvec"] += 1
            return self._A @ v

    real_splu, real_run = timeint.spla.splu, problems.run
    real_data = BoundaryOperator.rhs_data

    def splu(*args, **kwargs):
        lu = real_splu(*args, **kwargs)

        def solve(r):
            calls["solve"] += 1
            return lu.solve(r)
        return SimpleNamespace(solve=solve)

    def counted_run(M, rhs_matrix, *args, **kwargs):
        return real_run(M, OnlyMatmul(rhs_matrix), *args, **kwargs)

    def rhs_data(self, t):
        calls["data"] += 1
        return real_data(self, t)

    monkeypatch.setattr(timeint, "spla", SimpleNamespace(splu=splu))
    monkeypatch.setattr(problems, "run", counted_run)
    monkeypatch.setattr(BoundaryOperator, "rhs_data", rhs_data)
    disc, traj = solve_problem(wave_1d(n=8), steps=steps)
    assert traj.status == "completed" and traj.steps == steps
    evals = len(SCHEMES[disc.problem.scheme]["alpha"]) * steps
    assert calls == {"matvec": evals, "solve": evals, "data": evals}
    assert np.array_equal(traj.state, plain.state)


@pytest.mark.parametrize("prob", [
    wave_1d(n=20, spacing="random", seed=5),     # 2 components, Lagrange
    rotation_2d(5)],                             # 1 component, Bernstein
    ids=["wave1d-random", "rotation"])
def test_recording_matches_reference_bitwise(prob):
    disc = discretize(prob)
    for k in (1, 4, 9):
        _, traj = solve_problem(prob, disc=disc, steps=k)
        assert traj.energies[-1] == reference_energy(disc.M, traj.state,
                                                     disc.ncomp)
        assert (traj.umax[-1], traj.umin[-1]) == \
            reference_extrema(disc.value_op, traj.state, disc.ncomp)
    assert traj.energies[0] == reference_energy(disc.M, disc.u0, disc.ncomp)


def _assert_same_bytes(traj, ref):
    for f in fields(Trajectory):
        a, b = getattr(traj, f.name), getattr(ref, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == \
                (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert (type(a), repr(a)) == (type(b), repr(b)), f.name


def _marches(prob):
    """Block length and a function marching ``prob`` both ways, with the
    arguments solve_problem gives run."""
    disc = discretize(prob)
    dt = stable_dt(prob.cfl, disc.mesh.h_min(), prob.max_speed, prob.order)
    g = disc.pi.rhs_data if disc.pi.data is not None else None
    value_op = None if disc.basis.kind == "lagrange" else disc.value_op

    def both(**settings):
        settings = {"scheme": prob.scheme, "t_end": prob.t_end,
                    "steady_tol": prob.steady_tol, **settings}
        args = (disc.M, disc.rhs_matrix, g, disc.u0, dt, disc.ncomp, value_op)
        return run(*args, **settings), reference_march(*args, **settings)
    return RECORD_BLOCK_BYTES // (8 * disc.u0.size), both


@pytest.mark.parametrize("prob", [wave_1d(n=100), rotation_2d(2)],
                         ids=["wave1d", "rotation"])   # value_op None / used
def test_block_recording_matches_per_step_reference(prob):
    block, both = _marches(prob)
    assert 2 < block < 300
    for steps in (1, block - 1, block, block + 1, 2 * block + 3):
        traj, ref = both(steps=steps)
        assert traj.status == "completed" and traj.steps == steps
        _assert_same_bytes(traj, ref)


def test_block_recording_matches_reference_on_abort_and_steady():
    # aborts inside a block, with value_op None and with value_op used
    for prob, limit in ((wave_1d(n=100), 0.02), (rotation_2d(2), 0.9)):
        block, both = _marches(prob)
        traj, ref = both(steps=3 * block, amplitude_limit=limit)
        assert traj.status == "aborted"
        assert 1 < traj.blowup_step % block < block - 1
        _assert_same_bytes(traj, ref)
    # u0 passes the limit, but step 0 is not judged: the march ends at step 1
    traj, ref = both(steps=3 * block, amplitude_limit=0.5)
    assert traj.umax[0] > 0.5 and traj.blowup_step == traj.steps == 1
    _assert_same_bytes(traj, ref)
    _, both = _marches(r13_heat(1))
    traj, ref = both()
    assert traj.status == "steady"
    _assert_same_bytes(traj, ref)


def test_an_aborted_march_steps_at_most_to_the_end_of_its_block(monkeypatch):
    # states are judged when their block is flushed, so the steps after the
    # failing one are marched, up to the end of its block, and discarded
    calls = Counter()
    real_step = timeint.step

    def counted_step(*args):
        calls["step"] += 1
        return real_step(*args)

    monkeypatch.setattr(timeint, "step", counted_step)
    for prob, limit in ((wave_1d(n=100), 0.02), (rotation_2d(2), 0.9),
                        (rotation_2d(2), 0.5)):
        block, both = _marches(prob)
        calls.clear()
        traj = both(steps=3 * block, amplitude_limit=limit)[0]
        # step k's block ends at step (k // block + 1) * block - 1; only run
        # is counted, as the reference march holds its own import of step
        k = traj.blowup_step
        assert traj.status == "aborted"
        assert k <= calls["step"] <= (k // block + 1) * block - 1
    n = RECORD_BLOCK_BYTES // 32                  # 4 states to a block
    M, A = sp.identity(n, format="csr"), sp.diags([50.0] * n).tocsr()
    calls.clear()
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run(M, A, None, np.full(n, 1e150), 0.05, scheme="SSPRK22",
                   steps=200)
    k, block = traj.blowup_step, 4
    assert traj.status == "aborted"
    assert k <= calls["step"] <= (k // block + 1) * block - 1


@pytest.mark.parametrize("n, start", [
    (4, 1e150), (RECORD_BLOCK_BYTES // 32, 1e150),
    (RECORD_BLOCK_BYTES // 8 + 1, 1e150), (4, 1e160)])
def test_march_stops_at_the_first_non_finite_energy(n, start):
    # u'u overflows within five steps while every value stays finite for
    # many more: the march ends where a per-step check would have, with
    # the state of that step, whether the block was flushed as it filled
    # (4 states of 8192 values, or each state of 32 769 values alone) or
    # when the march ended (4 values).  The initial energy is not checked:
    # from 1e160 the march stops at step 1.
    M, A = sp.identity(n, format="csr"), sp.diags([50.0] * n).tocsr()
    cfg = {"scheme": "SSPRK22", "steps": 200}
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run(M, A, None, np.full(n, start), 0.05, **cfg)
        ref = reference_march(M, A, None, np.full(n, start), 0.05, **cfg)
    assert traj.status == "aborted" and traj.blowup_step == traj.steps >= 1
    assert np.isinf(traj.energies[-1]) and np.isfinite(traj.state).all()
    _assert_same_bytes(traj, ref)
