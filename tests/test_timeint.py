import numpy as np
import pytest
import scipy.sparse as sp

from cgsat.assembly import assemble_mass, build_operators
from cgsat.mesh import build_dofmap, interval_mesh
from cgsat.sat import scalar_sat_1d
from cgsat.timeint import (SCHEMES, IntegratorConfig, factor_mass, run,
                           stable_dt, step)
from oracles import scheme_consistency_defect


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


def test_factor_mass_fem_mass():
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    M = assemble_mass(mesh, dm, dm.basis_spec(), 6)
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
    M = assemble_mass(mesh, dm, dm.basis_spec(), 6)
    r = np.random.default_rng(1).standard_normal((dm.n_dofs, 2))
    resid = M @ factor_mass(M).solve(r) - r
    assert np.linalg.norm(resid) <= 1e-14 * np.linalg.norm(r)


def test_stable_dt_rule():
    assert stable_dt(0.3, 0.1, 2.0, 1) == pytest.approx(0.3 * 0.1 / (2.0 * 3))
    with pytest.raises(ValueError):
        stable_dt(0.3, 0.1, 0.0, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(cfl=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(scheme="RK4")


@pytest.mark.parametrize("setting,message", [
    ({"steps": -2}, "steps must be at least 1"),
    ({"steps": 0}, "steps must be at least 1"),
    ({"steady_check_every": 0}, "steady_check_every must be at least 1"),
    ({"amplitude_limit": -1.0}, "amplitude_limit must be positive"),
    ({"amplitude_limit": float("nan")}, "amplitude_limit must be positive"),
    ({"cfl": float("nan")}, "cfl must be positive")])
def test_config_rejects_meaningless_settings(setting, message):
    with pytest.raises(ValueError, match=message):
        IntegratorConfig(**setting)


@pytest.mark.parametrize("t_end", [-1.0, 0.5, float("nan")])
def test_run_rejects_t_end_not_after_t0(t_end):
    M, A = _decay_setup()
    cfg = IntegratorConfig(scheme="SSPRK22", t_end=t_end)
    with pytest.raises(ValueError, match="is not after t0"):
        run(M, A, None, np.ones(4), 0.1, cfg, t0=0.5)


def _decay_setup():
    M = sp.identity(4, format="csr")
    A = sp.diags([-1.0] * 4).tocsr()
    return M, A


def test_run_decay_and_histories():
    M, A = _decay_setup()
    cfg = IntegratorConfig(scheme="SSPRK33", cfl=1.0, t_end=1.0)
    traj = run(M, A, None, np.ones(4), 0.01, cfg)
    assert traj.status == "completed"
    assert traj.steps == 100
    assert abs(traj.t - 1.0) < 1e-12
    assert abs(traj.state[0] - np.exp(-1.0)) < 1e-7
    assert traj.energies.size == traj.steps + 1
    assert np.all(np.diff(traj.energies) < 0)


def test_run_exact_step_count():
    M, A = _decay_setup()
    cfg = IntegratorConfig(scheme="SSPRK22", cfl=1.0, t_end=99.0, steps=17)
    traj = run(M, A, None, np.ones(4), 0.1, cfg)
    assert traj.steps == 17


def test_run_blowup_detection():
    M, _ = _decay_setup()
    A = sp.diags([50.0] * 4).tocsr()
    cfg = IntegratorConfig(scheme="SSPRK22", cfl=1.0, t_end=10.0,
                           amplitude_limit=100.0)
    traj = run(M, A, None, np.ones(4), 0.05, cfg)
    assert traj.status == "aborted"
    assert traj.blowup_step is not None
    assert traj.umax.max() > 100.0


def test_run_steady_detection():
    M, A = _decay_setup()
    g = np.array([1.0, 0.0, 0.0, 0.0])
    cfg = IntegratorConfig(scheme="SSPRK33", cfl=1.0, t_end=200.0,
                           steady_tol=1e-10, steady_check_every=10)
    traj = run(M, A, lambda t: g, np.zeros(4), 0.05, cfg)
    assert traj.status == "steady"
    assert abs(traj.state[0] - 1.0) < 1e-9      # fixed point of u' = -u + g


def test_run_energy_decay_with_sat():
    # homogeneous advection with the endpoint penalty: M-norm nonincreasing
    mesh = interval_mesh(16)
    dm = build_dofmap(mesh, 2, "lagrange")
    ops = build_operators(mesh, dm, dm.basis_spec(), [1.0])
    pi = scalar_sat_1d(dm, a=1.0, tau=-1.0)
    rhs = (pi.matrix - ops.Q).tocsr()
    x = dm.dof_coords[:, 0]
    u0 = np.exp(-50 * (x - 0.5) ** 2)
    dt = stable_dt(0.2, mesh.h_min(), 1.0, 2)
    cfg = IntegratorConfig(scheme="SSPRK33", cfl=0.2, t_end=1.5)
    traj = run(ops.M, rhs, None, u0, dt, cfg)
    assert traj.status == "completed"
    growth = np.diff(traj.energies)
    assert growth.max() <= 1e-12 * traj.energies[0]


def test_run_linearity():
    mesh = interval_mesh(8)
    dm = build_dofmap(mesh, 1, "lagrange")
    ops = build_operators(mesh, dm, dm.basis_spec(), [1.0])
    pi = scalar_sat_1d(dm, a=1.0, tau=-1.0)
    rhs = (pi.matrix - ops.Q).tocsr()
    rng = np.random.default_rng(8)
    u0, v0 = rng.standard_normal((2, dm.n_dofs))
    a, b = 1.3, -0.7
    cfg = IntegratorConfig(scheme="SSPRK33", cfl=0.2, t_end=0.5)
    dt = 0.01
    su = run(ops.M, rhs, None, u0, dt, cfg).state
    sv = run(ops.M, rhs, None, v0, dt, cfg).state
    sw = run(ops.M, rhs, None, a * u0 + b * v0, dt, cfg).state
    assert np.abs(sw - (a * su + b * sv)).max() < 1e-10
