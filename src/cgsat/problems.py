"""Ready-made problem setups and the glue that discretizes them.

Each constructor returns a :class:`ProblemSpec` holding coefficients,
initial/boundary/exact data and discretization defaults.  ``discretize``
assembles the global operators, the boundary penalty and the initial state;
``solve_problem`` adds the time march.  All of it is built on one DoF map,
the one source of the mesh and the basis.

Problems
--------
* ``advection_2d``      unit square, constant velocity (1, 0), bump data
* ``sine_advection_2d`` same transport with a smooth exact solution
* ``rotation_2d``       unit disk, divergence-free rotation field, split form
* ``wave_1d``           two-field acoustic system with characteristic BCs
* ``r13_heat``          six-field heat-conduction moment system on an annulus
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import sat as sat_mod
from .assembly import (GlobalOperators, assemble_boundary_quadratic,
                       assemble_mass, assemble_stiffness, build_operators,
                       check_sbp, default_quad_degree, face_quadrature,
                       physical_points)
from .basis import BasisSpec, lattice_inverse, quad_rule, tabulate
from .mesh import DofMap, Mesh, build_dofmap, check_spacing, generate_mesh
from .timeint import (IntegratorConfig, factor_mass, run, scheme_for_order,
                      stable_dt)


# ---------------------------------------------------------------------------
# boundary-condition descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarBC:
    """Inflow penalty a_n^-(u - g); g(points, t) or None for homogeneous."""
    g: object = None


@dataclass(frozen=True)
class CharacteristicBC:
    """Per-tag reflection matrices and characteristic boundary data.

    ``reflections[tag]`` maps outgoing to imposed incoming characteristics;
    ``data[tag]`` is a callable t -> vector over the incoming characteristics
    (in descending-eigenvalue order).
    """
    reflections: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class R13BC:
    """Maxwell accommodation boundary rows with per-tag data vectors.

    ``data[tag]`` maps the normal angle gamma to the (2,) boundary vector.
    """
    alpha: float
    beta: float
    variant: str = "delta"
    shift: float = -2.0
    data: dict = field(default_factory=dict)


@dataclass
class ProblemSpec:
    """Equation coefficients, data and discretization defaults."""

    name: str
    dimension: int
    ncomp: int
    bc: object
    initial: object
    mesh_recipe: str
    order: int
    basis: str
    cfl: float
    t_end: float
    scheme: str
    max_speed: float
    velocity: object = None              # scalar problems
    A: np.ndarray | None = None          # systems
    B: np.ndarray | None = None
    symmetrizer: np.ndarray | None = None
    exact: object = None                 # (points, t) -> values
    volume_degree: int | None = None
    edge_degree: int | None = None
    split_alpha: float | None = None
    source_matrix: np.ndarray | None = None
    sat_scale: float = 1.0
    steady_tol: float | None = None


def gaussian_bump(center, radius: float = 0.25, sharpness: float = 40.0):
    """exp(-sharpness r^2) inside radius, hard zero outside."""
    cx, cy = center

    def fn(points):
        r2 = (points[:, 0] - cx) ** 2 + (points[:, 1] - cy) ** 2
        return np.where(r2 < radius ** 2, np.exp(-sharpness * r2), 0.0)

    return fn


# ---------------------------------------------------------------------------
# the experiment setups
# ---------------------------------------------------------------------------

def advection_2d(n: int = 23, order: int = 3, basis: str = "bernstein") -> ProblemSpec:
    """Constant advection (1, 0) of a bump across the unit square.

    Inflow (left wall) carries homogeneous data; the horizontal walls have
    a . n = 0 for this velocity, so no penalty arises there and the outflow
    is penalty free.
    """
    bump = gaussian_bump((0.5, 0.5))

    def exact(points, t):
        shifted = points.copy()
        shifted[:, 0] -= t
        return bump(shifted)

    return ProblemSpec(
        name="advection2d", dimension=2, ncomp=1,
        bc=ScalarBC(None), initial=bump, exact=exact,
        mesh_recipe=f"unit_square({n})", order=order, basis=basis,
        cfl=0.3, t_end=0.2, scheme=scheme_for_order(order),
        max_speed=1.0, velocity=np.array([1.0, 0.0]))


def sine_advection_2d(n: int = 8, order: int = 2, basis: str = "lagrange") -> ProblemSpec:
    """Smooth transport with analytic solution sin(2 pi (x - t))."""

    def exact(points, t):
        return np.sin(2.0 * np.pi * (points[:, 0] - t))

    def g(points, t):
        return np.sin(2.0 * np.pi * (points[:, 0] - t))

    return ProblemSpec(
        name="sine_advection2d", dimension=2, ncomp=1,
        bc=ScalarBC(g), initial=lambda pts: exact(pts, 0.0), exact=exact,
        mesh_recipe=f"unit_square({n})", order=order, basis=basis,
        cfl=0.3, t_end=0.25, scheme=scheme_for_order(order),
        max_speed=1.0, velocity=np.array([1.0, 0.0]))


def rotation_2d(n: int = 13, order: int = 3, basis: str = "bernstein") -> ProblemSpec:
    """Rigid rotation of a bump around the origin on the unit disk.

    The velocity (2 pi y, -2 pi x) is divergence free and tangent to the
    exact circle, so the polygonal-boundary penalty is O(h); the stiffness
    uses the split form with alpha = 1/2.  Period one revolution per unit
    time (clockwise).
    """
    bump = gaussian_bump((0.0, 0.5))

    def velocity(points):
        return np.stack([2.0 * np.pi * points[:, 1],
                         -2.0 * np.pi * points[:, 0]], axis=1)

    def exact(points, t):
        c, s = np.cos(2.0 * np.pi * t), np.sin(2.0 * np.pi * t)
        back = np.stack([c * points[:, 0] - s * points[:, 1],
                         s * points[:, 0] + c * points[:, 1]], axis=1)
        return bump(back)

    return ProblemSpec(
        name="rotation2d", dimension=2, ncomp=1,
        bc=ScalarBC(None), initial=bump, exact=exact,
        mesh_recipe=f"unit_disk({n})", order=order, basis=basis,
        cfl=0.2, t_end=2.0, scheme=scheme_for_order(order),
        max_speed=2.0 * np.pi, velocity=velocity,
        split_alpha=0.5)


def wave_1d(n: int = 100, order: int = 2, spacing: str = "regular",
            seed=None, r0: float = 0.0, r1: float = 0.0,
            basis: str = "lagrange") -> ProblemSpec:
    """1D acoustic system driven by sinusoidal characteristic data.

    Fields (du/dx-like, -du/dt-like) couple through A = [[0,1],[1,0]]; the
    incoming characteristic at each end is set to sin(t) against reflection
    parameters r0, r1 with |r| < 1 (rejected otherwise at operator build).
    """
    for r in (r0, r1):
        if abs(r) >= 1.0:
            raise sat_mod.StabilityViolationError(
                f"wave reflection {r} violates |R| < 1")
    check_spacing(spacing, seed)
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    recipe = f"interval({n})" if seed is None else f"interval({n},random,{seed})"
    bc = CharacteristicBC(
        reflections={"left": np.array([[r0]]), "right": np.array([[r1]])},
        data={"left": lambda t: np.array([np.sin(t)]),
              "right": lambda t: np.array([np.sin(t)])})
    return ProblemSpec(
        name="wave1d", dimension=1, ncomp=2,
        bc=bc, initial=lambda pts: np.zeros((pts.shape[0], 2)),
        mesh_recipe=recipe, order=order, basis=basis,
        cfl=0.1, t_end=50.0, scheme=scheme_for_order(order),
        max_speed=1.0, A=A, symmetrizer=np.eye(2))


def r13_heat(n: int = 5, order: int = 2, basis: str = "lagrange",
             alpha: float = 3.0, beta: float = -0.5,
             theta0: float = 0.0, theta1: float = 1.0,
             ux: float = 1.0, uy: float = 0.0,
             relaxation_time: float = 0.15,
             variant: str = "delta", shift: float = -2.0) -> ProblemSpec:
    """Heat-conduction moment system on the annulus 1/2 <= r <= 1.

    Six fields (theta, s, R) with accommodation boundary rows; the heat flux
    and stress relax with the given relaxation time, entering as a linear
    mass-weighted source.  Marched to steady state.
    """
    A, B, P = sat_mod.r13_matrices()
    relax = np.diag([0.0, 1.0, 1.0, 1.0, 1.0, 1.0]) * (-1.0 / relaxation_time)
    bc = R13BC(alpha=alpha, beta=beta, variant=variant, shift=shift,
               data={"inner": lambda gamma: np.array(
                         [-alpha * theta0,
                          -ux * np.sin(gamma) + uy * np.cos(gamma)]),
                     "outer": lambda gamma: np.array(
                         [-alpha * theta1, 0.0])})
    return ProblemSpec(
        name="r13", dimension=2, ncomp=6,
        bc=bc, initial=lambda pts: np.zeros((pts.shape[0], 6)),
        mesh_recipe=f"annulus(0.5,1.0,{n})", order=order, basis=basis,
        cfl=0.1, t_end=80.0, scheme=scheme_for_order(order),
        max_speed=float(np.sqrt(2.0)), A=A, B=B, symmetrizer=P,
        source_matrix=relax, steady_tol=1e-8)


PROBLEMS = {
    "advection2d": advection_2d,
    "sine_advection2d": sine_advection_2d,
    "rotation2d": rotation_2d,
    "wave1d": wave_1d,
    "r13": r13_heat,
}


# ---------------------------------------------------------------------------
# discretization glue
# ---------------------------------------------------------------------------

def _lattice_values(fn, dofmap: DofMap, ncomp: int) -> np.ndarray:
    """Values of ``fn`` at the DoF lattice as an (n, ncomp) array.

    ``fn`` must give finite values of shape (n, ncomp), or (n,) if scalar.
    """
    n = dofmap.n_dofs
    vals = np.asarray(fn(dofmap.dof_coords), dtype=float)
    if not (vals.shape == (n, ncomp) or ncomp == 1 and vals.shape == (n,)):
        raise ValueError(f"data callable must return shape ({n}, {ncomp}) "
                         f"for {n} DoFs, got {vals.shape}")
    if not np.isfinite(vals).all():
        raise ValueError("data callable returned a non-finite value")
    return vals.reshape(n, ncomp)


def interpolate(fn, dofmap: DofMap, ncomp: int = 1) -> np.ndarray:
    """Coefficients of the interpolant of ``fn`` at the DoF lattice.

    ``fn`` must give finite values of shape (n, ncomp), or (n,) if scalar.
    Lagrange coefficients are plain nodal values; Bernstein coefficients are
    recovered per element from the lattice values (consistent across shared
    faces because the edge restriction only involves edge lattice values).
    """
    vals = _lattice_values(fn, dofmap, ncomp)
    basis = dofmap.basis_spec()
    if basis.kind == "lagrange":
        out = vals
    else:
        inv = lattice_inverse(basis.domain, basis.order)
        ed = dofmap.element_dofs
        # a shared DoF takes the value of the last element listing it
        out = np.matmul(inv, vals[ed]).reshape(-1, vals.shape[1])[dofmap.last_owner]
    return out.ravel() if ncomp == 1 else out


def nodal_value_operator(dofmap: DofMap) -> sp.csr_matrix:
    """Sparse map from coefficients to solution values at the DoF lattice."""
    basis, n = dofmap.basis_spec(), dofmap.n_dofs
    if basis.kind == "lagrange":
        return sp.identity(n, format="csr")
    ed = dofmap.element_dofs
    e, iloc = np.divmod(dofmap.first_owner, ed.shape[1])
    cols = ed[e].astype(np.int32)     # row i: the first element listing DoF i
    op = sp.csr_matrix((tabulate(basis, basis.lattice())[iloc].ravel(), cols.ravel(),
                        np.arange(0, cols.size + 1, ed.shape[1], dtype=np.int32)),
                       shape=(n, n))
    op.sort_indices()
    return op


@dataclass
class Discretization:
    """Assembled operators, penalty and initial state for one problem."""

    problem: ProblemSpec
    dofmap: DofMap                 # the one source of mesh and basis
    M: sp.csr_matrix               # scalar mass
    ops_sys: sp.csr_matrix         # system-level stiffness
    bq_sys: sp.csr_matrix
    scalar_ops: list               # GlobalOperators per direction (SBP checks)
    pi: sat_mod.BoundaryOperator
    source: sp.csr_matrix | None
    u0: np.ndarray
    value_op: sp.csr_matrix
    ncomp: int
    h_min: float
    norm_q: float

    @property
    def mesh(self) -> Mesh:
        return self.dofmap.mesh

    @property
    def basis(self) -> BasisSpec:
        return self.dofmap.basis_spec()

    @property
    def rhs_matrix(self) -> sp.csr_matrix:
        m = self.pi.matrix - self.ops_sys
        if self.source is not None:
            m = m + self.source
        return m.tocsr()

    def dt(self, cfl: float | None = None) -> float:
        c = cfl if cfl is not None else self.problem.cfl
        return stable_dt(c, self.h_min, self.problem.max_speed,
                         self.dofmap.order)

    def sbp_reports(self):
        return [check_sbp(ops) for ops in self.scalar_ops]


def _system_sat(problem, dofmap, edge_deg) -> sat_mod.BoundaryOperator:
    # one pointwise operator per boundary face, stacked for the one kernel
    bc, faces, m = problem.bc, dofmap.mesh.boundary_faces, problem.ncomp
    fq = face_quadrature(dofmap, edge_deg)
    nf, tags = len(faces), list(faces.tags)
    on_faces = (dofmap, fq, np.arange(nf), fq.weights * fq.lengths[:, None])
    if isinstance(bc, CharacteristicBC):
        pos = [sat_mod.build_pi_system(
            sat_mod.characteristic_decompose(problem.A, problem.B,
                                             problem.symmetrizer, normal),
            bc.reflections.get(tag), scale=problem.sat_scale)
            for normal, tag in zip(faces.normals, tags)]
        # the data are evaluated once per tag and stacked; a face's data
        # matrix fills the columns of its own tag
        widths = [pos[tags.index(t)].data_mat.shape[1] for t in bc.data]
        data_mat = np.zeros((nf, 1, m, sum(widths)))
        for t, c, wt in zip(bc.data, np.cumsum([0] + widths), widths):
            for f in np.nonzero(faces.tags == t)[0]:
                data_mat[f, 0, :, c:c + wt] = pos[f].data_mat
        funs = list(bc.data.values())
        return sat_mod.assemble_face_sat(
            *on_faces, np.array([po.pi_mat for po in pos]),
            (lambda t: data_mat @ np.concatenate([g(t) for g in funs]))
            if funs else None)
    if isinstance(bc, R13BC):
        gamma = np.arctan2(faces.normals[:, 1], faces.normals[:, 0])
        op = sat_mod.build_pi_r13(bc.alpha, bc.beta, gamma, bc.variant,
                                  bc.shift)
        s = sat_mod._check_scale(problem.sat_scale)
        d = np.array([s * (op.pi[f] @ bc.data[t](gamma[f])) if t in bc.data
                      else np.zeros(m) for f, t in enumerate(tags)])
        pi = sat_mod.assemble_face_sat(*on_faces, s * op.pi_mat,
                                       lambda t: d[:, None])
        g = pi.data(0.0)         # the accommodation data do not depend on t
        return replace(pi, data=lambda t: g)
    raise TypeError(f"unsupported boundary condition {type(bc)}")


def discretize(problem: ProblemSpec, mesh: Mesh | None = None,
               order: int | None = None, basis_kind: str | None = None,
               volume_degree: int | None = None, edge_degree: int | None = None,
               split_alpha: float | None = None,
               sat_scale: float | None = None) -> Discretization:
    """Assemble everything needed to march or analyze ``problem``."""
    p = replace(problem)
    if order is not None:
        p.order = order
        p.scheme = scheme_for_order(order)
    if basis_kind is not None:
        p.basis = basis_kind
    if volume_degree is not None:
        p.volume_degree = volume_degree
    if edge_degree is not None:
        p.edge_degree = edge_degree
    if split_alpha is not None:
        p.split_alpha = split_alpha
    if sat_scale is not None:
        p.sat_scale = sat_scale
    if mesh is None:
        mesh = generate_mesh(p.mesh_recipe)
    if mesh.dimension != p.dimension:
        raise ValueError(f"problem {p.name} is {p.dimension}D but the mesh "
                         f"is {mesh.dimension}D")
    tags = np.unique(mesh.boundary_faces.tags).tolist()
    named = set(getattr(p.bc, "data", ())) | set(getattr(p.bc, "reflections", ()))
    if not named <= set(tags):
        raise ValueError(f"problem {p.name} names boundary tags "
                         f"{sorted(named - set(tags))} that the mesh lacks "
                         f"(mesh tags: {tags})")
    dofmap = build_dofmap(mesh, p.order, p.basis)
    vol = p.volume_degree if p.volume_degree is not None \
        else default_quad_degree(p.order)
    edge = p.edge_degree if p.edge_degree is not None else vol

    if p.ncomp == 1:
        ops = build_operators(dofmap, p.velocity, vol, edge, p.split_alpha)
        M, q_sys, bq_sys = ops.M, ops.Q, ops.Bq
        scalar_ops = [ops]
        pi = sat_mod.scalar_sat_2d(dofmap, p.velocity, g=p.bc.g,
                                   edge_quad_degree=edge, scale=p.sat_scale)
    else:
        M = assemble_mass(dofmap, vol)
        dirs = [np.array([1.0])] if mesh.dimension == 1 else \
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        mats = [p.A] if mesh.dimension == 1 else [p.A, p.B]
        scalar_ops = [GlobalOperators(
            M, assemble_stiffness(dofmap, d, vol),
            assemble_boundary_quadratic(dofmap, d, edge),
            dofmap, vol, edge) for d in dirs]
        q_sys = sum(sp.kron(o.Q, a, format="csr") for o, a in zip(scalar_ops, mats))
        bq_sys = sum(sp.kron(o.Bq, a, format="csr") for o, a in zip(scalar_ops, mats))
        pi = _system_sat(p, dofmap, edge)

    source = None
    if p.source_matrix is not None:
        source = sp.kron(M, p.source_matrix, format="csr")

    u0 = interpolate(p.initial, dofmap, p.ncomp)
    u0 = u0.reshape(-1)
    value_op = nodal_value_operator(dofmap)
    norm_q = float(np.abs(q_sys.data).max()) if q_sys.nnz else 0.0
    return Discretization(p, dofmap, M, q_sys.tocsr(),
                          bq_sys.tocsr(), scalar_ops, pi, source, u0,
                          value_op, p.ncomp, mesh.h_min(), norm_q)


PROJECTION_RULE_DEGREE = 8     # exactness of the projection's load rule


def l2_project_initial(disc: Discretization) -> np.ndarray:
    """Galerkin (mass-weighted) projection of the initial data.

    Unlike interpolation this has global support, so discontinuous data
    excites every mode a little; used by the quadrature-mismatch experiment
    to seed boundary modes the way a projection-based solver would.
    """
    prob, mesh, dofmap, basis = disc.problem, disc.mesh, disc.dofmap, disc.basis
    rule = quad_rule(basis.domain, PROJECTION_RULE_DEGREE)
    phi = tabulate(basis, rule.points)
    pts, det = physical_points(mesh, rule)
    fvals = np.asarray(prob.initial(pts.reshape(-1, mesh.dimension)))
    fvals = fvals.reshape(det.size, rule.weights.size, disc.ncomp)
    loc = np.einsum("e,q,eqc,qi->eic", det, rule.weights, fvals, phi)
    rhs = np.zeros((dofmap.n_dofs, disc.ncomp))
    np.add.at(rhs, dofmap.element_dofs.ravel(),
              loc.reshape(-1, disc.ncomp))
    return factor_mass(disc.M).solve(rhs).ravel()


def solve_problem(problem: ProblemSpec, disc: Discretization | None = None,
                  cfl: float | None = None, t_end: float | None = None,
                  steps: int | None = None, scheme: str | None = None,
                  amplitude_limit: float | None = None,
                  initial: str = "interp",
                  dt_order_scaling: bool = True,
                  skip_sbp_guard: bool = False):
    """Discretize (unless given) and march the problem. Returns (disc, traj).

    Unless ``skip_sbp_guard`` is set, a failed integration-by-parts check
    aborts before time stepping; the quadrature-mismatch experiment disables
    the guard deliberately.  ``initial`` selects interpolated ('interp') or
    mass-projected ('project') initial data; ``dt_order_scaling`` toggles
    the (2p+1) factor in the time-step rule.
    """
    if initial not in ("interp", "project"):
        raise ValueError(f"initial must be 'interp' or 'project', "
                         f"got {initial!r}")
    if disc is None:
        disc = discretize(problem)
    if not skip_sbp_guard:
        for rep in disc.sbp_reports():
            if not rep.passed:
                raise RuntimeError(
                    f"operators violate the integration-by-parts identity "
                    f"({rep}); pass skip_sbp_guard=True to march anyway")
    prob = disc.problem
    config = IntegratorConfig(
        scheme=scheme or prob.scheme,
        cfl=cfl if cfl is not None else prob.cfl,
        t_end=t_end if t_end is not None else prob.t_end,
        steps=steps,
        amplitude_limit=amplitude_limit,
        steady_tol=prob.steady_tol)
    dt = disc.dt(config.cfl)
    if not dt_order_scaling:
        dt = dt * (2 * disc.dofmap.order + 1)
    u0 = disc.u0 if initial == "interp" else l2_project_initial(disc)
    g = disc.pi.rhs_data if disc.pi.data is not None else None
    # Lagrange coefficients are the nodal values already
    value_op = None if disc.basis.kind == "lagrange" else disc.value_op
    traj = run(disc.M, disc.rhs_matrix, g, u0, dt, config,
               ncomp=disc.ncomp, value_op=value_op)
    return disc, traj


# ---------------------------------------------------------------------------
# error measures
# ---------------------------------------------------------------------------

def error_norms(state: np.ndarray, disc: Discretization, t: float) -> dict:
    """L1 (quadrature), M-weighted L2 and nodal Linf error vs the exact field."""
    prob = disc.problem
    if prob.exact is None:
        raise ValueError(f"problem {prob.name} has no exact solution")
    if disc.ncomp != 1:
        raise ValueError("error norms implemented for scalar problems")
    exact = prob.exact
    dofmap, basis, mesh = disc.dofmap, disc.basis, disc.mesh

    # the exact field at the DoF lattice, evaluated once for L2_M and Linf
    nodal_exact = _lattice_values(lambda pts: exact(pts, t), dofmap, 1)
    diff = state - interpolate(lambda pts: nodal_exact, dofmap)
    l2m = float(np.sqrt(diff @ (disc.M @ diff)))

    rule = quad_rule(basis.domain, disc.scalar_ops[0].volume_degree)
    phi = tabulate(basis, rule.points)
    pts, det = physical_points(mesh, rule)
    uh = state[dofmap.element_dofs] @ phi.T          # (ne, nq)
    ex = np.asarray(exact(pts.reshape(-1, mesh.dimension), t)).reshape(uh.shape)
    l1 = float(np.einsum("e,q,eq->", np.abs(det), rule.weights, np.abs(uh - ex)))

    nodal = disc.value_op @ state
    linf = float(np.abs(nodal - nodal_exact.ravel()).max())
    return {"L1": l1, "L2_M": l2m, "Linf": linf}
