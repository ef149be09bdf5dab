"""Ready-made problem setups and the glue that discretizes them.

Each constructor returns a :class:`ProblemSpec`: flux groups, data, mesh
recipe, order, basis and march defaults; a scalar problem is the one-field
system ((velocity, [[1]]),).  ``discretize`` takes every problem down one
path: M once, Q = sum_g Q_g (x) A_g and Bq likewise, and the penalty of
the boundary condition's type, with its own quadrature, split and
penalty-scale arguments; ``solve_problem`` adds the time march.  All of it
is built on one DoF map, the one source of the mesh and the basis.

Problems
--------
* ``advection_2d``      unit square, constant velocity (1, 0), bump data
* ``sine_advection_2d`` same transport with a smooth exact solution
* ``rotation_2d``       unit disk, divergence-free rotation field, split form
* ``wave_1d``           two-field acoustic system with characteristic BCs
* ``r13_heat``          six-field heat-conduction moment system on an annulus
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import sat as sat_mod
# bench/tracer.py times the assemblers under their names in this module
from .assembly import (assemble_boundary_quadratic, assemble_mass,  # noqa: F401
                       assemble_stiffness, build_operators, check_sbp,
                       default_quad_degree, face_quadrature, kron_sum, max_abs,
                       physical_points)
from .basis import BasisSpec, lattice_inverse, quad_rule, tabulate
from .mesh import DofMap, Mesh, build_dofmap, check_spacing, generate_mesh
from .timeint import (_check_march, factor_mass, run, scheme_for_order,
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
    data: dict = field(default_factory=dict)


@dataclass
class ProblemSpec:
    """Flux groups, data, mesh recipe, order, basis and march defaults
    (CFL, end time, steady tolerance); the scheme follows from the order.
    The flux sum_g (c_g . grad) A_g u has one group (c_g, A_g) per distinct
    constant m x m matrix A_g, c_g in a form ``as_coefficient`` takes."""

    name: str
    dimension: int
    bc: object
    initial: object
    mesh_recipe: str
    order: int
    basis: str
    cfl: float
    t_end: float
    max_speed: float
    fluxes: tuple
    symmetrizer: np.ndarray | None = None   # None: the identity
    exact: object = None                 # (points, t) -> values
    source_matrix: np.ndarray | None = None
    steady_tol: float | None = None

    @property
    def scheme(self) -> str:
        return scheme_for_order(self.order)

    @property
    def ncomp(self) -> int:
        return len(self.fluxes[0][1])


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
        name="advection2d", dimension=2,
        bc=ScalarBC(None), initial=bump, exact=exact,
        mesh_recipe=f"unit_square({n})", order=order, basis=basis,
        cfl=0.3, t_end=0.2, max_speed=1.0, fluxes=((np.array([1.0, 0.0]), np.eye(1)),))


def sine_advection_2d(n: int = 8, order: int = 2, basis: str = "lagrange") -> ProblemSpec:
    """Smooth transport with analytic solution sin(2 pi (x - t))."""

    def exact(points, t):
        return np.sin(2.0 * np.pi * (points[:, 0] - t))

    def g(points, t):
        return np.sin(2.0 * np.pi * (points[:, 0] - t))

    return ProblemSpec(
        name="sine_advection2d", dimension=2,
        bc=ScalarBC(g), initial=lambda pts: exact(pts, 0.0), exact=exact,
        mesh_recipe=f"unit_square({n})", order=order, basis=basis,
        cfl=0.3, t_end=0.25, max_speed=1.0, fluxes=((np.array([1.0, 0.0]), np.eye(1)),))


def rotation_2d(n: int = 13, order: int = 3, basis: str = "bernstein") -> ProblemSpec:
    """Rigid rotation of a bump around the origin on the unit disk.

    The velocity (2 pi y, -2 pi x) is divergence free and tangent to the
    exact circle, so the polygonal-boundary penalty is O(h); the stiffness
    uses the split form, alpha = 1/2 unless ``discretize`` is given another
    weight.  Period one revolution per unit time (clockwise).
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
        name="rotation2d", dimension=2,
        bc=ScalarBC(None), initial=bump, exact=exact,
        mesh_recipe=f"unit_disk({n})", order=order, basis=basis,
        cfl=0.2, t_end=2.0, max_speed=2.0 * np.pi, fluxes=((velocity, np.eye(1)),))


def wave_1d(n: int = 100, order: int = 2, spacing: str = "regular",
            seed=None, r0: float = 0.0, r1: float = 0.0,
            basis: str = "lagrange") -> ProblemSpec:
    """1D acoustic system driven by sinusoidal characteristic data.

    Fields (du/dx-like, -du/dt-like) couple through A = [[0,1],[1,0]]; the
    incoming characteristic at each end is set to sin(t) against reflection
    parameters r0, r1 with |r| < 1 (NaN and the rest are refused here).
    """
    for name, r in (("r0", r0), ("r1", r1)):
        if not abs(r) < 1.0:                     # NaN fails every comparison
            raise sat_mod.StabilityViolationError(
                f"wave reflection {name} = {r} violates |R| < 1")
    check_spacing(spacing, seed)
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    recipe = f"interval({n})" if seed is None else f"interval({n},random,{seed})"
    bc = CharacteristicBC(
        reflections={"left": np.array([[r0]]), "right": np.array([[r1]])},
        data={"left": lambda t: np.array([np.sin(t)]),
              "right": lambda t: np.array([np.sin(t)])})
    return ProblemSpec(
        name="wave1d", dimension=1,
        bc=bc, initial=lambda pts: np.zeros((pts.shape[0], 2)),
        mesh_recipe=recipe, order=order, basis=basis,
        cfl=0.1, t_end=50.0, max_speed=1.0, fluxes=((np.array([1.0]), A),),
        symmetrizer=np.eye(2))


def r13_heat(n: int = 5, order: int = 2, basis: str = "lagrange",
             alpha: float = 3.0, beta: float = -0.5,
             theta0: float = 0.0, theta1: float = 1.0,
             ux: float = 1.0, uy: float = 0.0,
             relaxation_time: float = 0.15) -> ProblemSpec:
    """Heat-conduction moment system on the annulus 1/2 <= r <= 1.

    Six fields (theta, s, R) with accommodation boundary rows; the heat flux
    and stress relax with the given relaxation time, entering as a linear
    mass-weighted source.  Marched to steady state.  The relaxation time
    and its rate 1/relaxation_time must be positive and finite, and every
    other parameter finite.
    """
    if not (0.0 < relaxation_time < np.inf and 1.0 / relaxation_time < np.inf):
        raise ValueError(f"r13 relaxation_time and its inverse must be positive "
                         f"and finite, got {relaxation_time}")
    named = dict(alpha=alpha, beta=beta, theta0=theta0, theta1=theta1, ux=ux, uy=uy)
    for name, value in named.items():
        if not abs(value) < np.inf:
            raise ValueError(f"r13 parameter {name} must be finite, got {value}")
    A, B, P = sat_mod.r13_matrices()
    relax = np.diag([0.0, 1.0, 1.0, 1.0, 1.0, 1.0]) * (-1.0 / relaxation_time)
    bc = R13BC(alpha=alpha, beta=beta,
               data={"inner": lambda gamma: np.array(
                         [-alpha * theta0,
                          -ux * np.sin(gamma) + uy * np.cos(gamma)]),
                     "outer": lambda gamma: np.array(
                         [-alpha * theta1, 0.0])})
    return ProblemSpec(
        name="r13", dimension=2,
        bc=bc, initial=lambda pts: np.zeros((pts.shape[0], 6)),
        mesh_recipe=f"annulus(0.5,1.0,{n})", order=order, basis=basis,
        cfl=0.1, t_end=80.0, max_speed=float(np.sqrt(2.0)),
        fluxes=((np.array([1.0, 0.0]), A), (np.array([0.0, 1.0]), B)),
        symmetrizer=P, source_matrix=relax, steady_tol=1e-8)


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
    group_ops: list                # GlobalOperators per flux group (SBP checks)
    pi: sat_mod.BoundaryOperator
    u0: np.ndarray
    value_op: sp.csr_matrix

    @property
    def ncomp(self) -> int:
        return self.problem.ncomp

    @property
    def norm_q(self) -> float:
        return max_abs(self.ops_sys.data)

    @property
    def mesh(self) -> Mesh:
        return self.dofmap.mesh

    @property
    def basis(self) -> BasisSpec:
        return self.dofmap.basis_spec()

    @property
    def bq_sys(self) -> sp.csr_matrix:
        """Sum_g Bq_g (x) A_g, formed when read."""
        return kron_sum([o.Bq for o in self.group_ops],
                        [a for _, a in self.problem.fluxes])

    @property
    def rhs_matrix(self) -> sp.csr_matrix:
        m = self.pi.matrix - self.ops_sys
        if self.problem.source_matrix is not None:
            m = m + kron_sum([self.M], [self.problem.source_matrix])
        return m.tocsr()

    def sbp_reports(self):
        return [check_sbp(ops) for ops in self.group_ops]


def _penalty(problem, fq, scale) -> sat_mod.BoundaryOperator:
    """The boundary penalty of ``problem`` on the face table ``fq``, by the
    type of its condition.

    Every condition gives the one face kernel the same penalty table.  The
    inflow penalty is the scalar s a_n^- with operator [[1]] and pointwise
    data g(points, t).  Both system conditions give scalar 1, a pointwise
    operator Pi L per boundary face (nf, m, m) and a data table (nf, 1, m,
    W) linear in a stacked data vector, so G(t) = D g(t) is one map: the
    characteristic data stack the tag vectors g(t), and the accommodation
    data, which do not depend on t, are one column with g = [1].  Each
    condition's data are checked once at build, at t = 0.
    """
    bc, fluxes = problem.bc, problem.fluxes
    if isinstance(bc, ScalarBC):
        if len(fluxes) != 1 or not np.array_equal(fluxes[0][1], [[1.0]]):
            raise ValueError(f"problem {problem.name}: an inflow condition "
                             f"takes one flux group (velocity, [[1]])")
        return sat_mod.scalar_sat_2d(fq, fluxes[0][0], g=bc.g, scale=scale)
    m, nf, tags = problem.ncomp, len(fq.tags), fq.tags.tolist()
    if isinstance(bc, CharacteristicBC):
        # A_n = sum_g (c_g . n) A_g, one per face
        speeds = [fq.normal_speed(c) for c, _ in fluxes]
        if any((s != s[:, :1]).any() for s in speeds):
            raise ValueError(f"problem {problem.name}: a characteristic "
                             f"condition needs each c_g . n constant along a face")
        a_n = sum(s[:, 0, None, None] * a for s, (_, a) in zip(speeds, fluxes))
        P = np.eye(m) if problem.symmetrizer is None else problem.symmetrizer
        pos = [sat_mod.build_pi_system(
            sat_mod.characteristic_decompose(an, None, P, [1.0]),
            bc.reflections.get(tag), scale=scale)
            for an, tag in zip(a_n, tags)]
        ops = np.array([po.pi_mat for po in pos])
        # the data are evaluated once per tag and stacked; a face's data
        # matrix fills the columns of its own tag
        widths = [pos[tags.index(t)].data_mat.shape[1] for t in bc.data]
        data_mat = np.zeros((nf, 1, m, sum(widths))) if widths else None
        for t, c, wt in zip(bc.data, np.cumsum([0] + widths), widths):
            sat_mod._checked(bc.data[t](0.0), (wt,), f"boundary data of tag {t!r}")
            for f in np.nonzero(fq.tags == t)[0]:
                data_mat[f, 0, :, c:c + wt] = pos[f].data_mat

        def g(t):
            return np.concatenate([fn(t) for fn in bc.data.values()])
    elif isinstance(bc, R13BC):
        # the accommodation operator builds A_n and P of the moment system
        A, B, P = sat_mod.r13_matrices()
        if not (len(fluxes) == 2 and all(
                np.array_equal(c, e) and np.array_equal(a, ae)
                for (c, a), e, ae in zip(fluxes, np.eye(2), (A, B)))
                and np.array_equal(problem.symmetrizer, P)):
            raise ValueError(f"problem {problem.name}: an accommodation "
                             f"condition takes the moment system's flux "
                             f"groups ((e_x, A), (e_y, B)) and symmetrizer P")
        gamma = np.arctan2(fq.normals[:, 1], fq.normals[:, 0])
        op = sat_mod.build_pi_r13(bc.alpha, bc.beta, gamma)
        s = sat_mod._check_scale(scale)
        with np.errstate(over="ignore"):        # the kernel refuses an overflow
            ops, g = s * op.pi_mat, lambda t: np.ones(1)
            data_mat = np.array([s * (op.data_mat[f] @ sat_mod._checked(
                bc.data[t](gamma[f]), (2,), f"accommodation data of tag {t!r}"))
                if t in bc.data else np.zeros(m)
                for f, t in enumerate(tags)])[:, None, :, None]
    else:
        raise TypeError(f"unsupported boundary condition {type(bc)}")
    return sat_mod.assemble_face_sat(fq, np.arange(nf), 1.0, ops, data_mat, g)


def discretize(problem: ProblemSpec, mesh: Mesh | None = None,
               volume_degree: int | None = None, edge_degree: int | None = None,
               split_alpha: float | None = None,
               sat_scale: float | None = None) -> Discretization:
    """Assemble everything needed to march or analyze ``problem``.

    The spec fixes the order and basis; the result's ``problem`` is the spec
    itself.  The edge rule defaults to the volume rule; its one face table
    gives every flux group's Bq and the penalty.  ``split_alpha`` weights
    every flux group's Q as in ``build_operators``.
    """
    p = problem
    scale = 1.0 if sat_scale is None else sat_scale
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
    shapes = {np.shape(a) for _, a in p.fluxes}
    if not shapes or shapes != {(p.ncomp, p.ncomp)}:
        raise ValueError(f"problem {p.name}: flux matrices must be square "
                         f"and of one size, got shapes {sorted(shapes)}")
    optional = [("source matrix", p.source_matrix), ("symmetrizer", p.symmetrizer)]
    for what, mat in optional:
        if mat is not None and np.shape(mat) != (p.ncomp,) * 2:
            raise ValueError(f"problem {p.name}: the {what} must have shape "
                             f"({p.ncomp}, {p.ncomp}), got {np.shape(mat)}")
    named_mats = [(f"flux matrix {g}", a) for g, (_, a) in enumerate(p.fluxes)]
    for what, mat in named_mats + optional:
        if mat is not None and not np.isfinite(mat).all():
            raise ValueError(f"problem {p.name}: the {what} is not finite")
    dofmap = build_dofmap(mesh, p.order, p.basis)
    vol = default_quad_degree(p.order) if volume_degree is None else volume_degree

    M = assemble_mass(dofmap, vol)
    fq = face_quadrature(dofmap, vol if edge_degree is None else edge_degree)
    groups = [build_operators(dofmap, c, vol, fq, split_alpha) for c, _ in p.fluxes]
    q_sys = kron_sum([o.Q for o in groups], [a for _, a in p.fluxes])
    pi = _penalty(p, fq, scale)
    u0 = interpolate(p.initial, dofmap, p.ncomp).reshape(-1)
    return Discretization(p, dofmap, M, q_sys, groups, pi, u0,
                          nodal_value_operator(dofmap))


PROJECTION_RULE_DEGREE = 8     # exactness of the projection's load rule
INITIAL_MODES = ("interp", "project")   # interpolated or mass-projected u0


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

    A given ``disc`` must be built from ``problem`` (``disc.problem``).
    Unless ``skip_sbp_guard`` is set, a failed integration-by-parts check
    aborts before time stepping; the quadrature-mismatch experiment disables
    the guard deliberately.  ``initial`` (the ``init`` setting) selects
    interpolated ('interp') or mass-projected ('project') initial data;
    ``dt_order_scaling`` toggles the (2p+1) factor in the time-step rule.  ``steps`` (an exact step
    count) and ``t_end`` exclude each other.
    """
    if steps is not None and t_end is not None:
        raise ValueError(f"steps {steps} and t_end {t_end} both given; the "
                         f"step count fixes the end time")
    if initial not in INITIAL_MODES:
        raise ValueError(f"initial must be "
                         f"{' or '.join(map(repr, INITIAL_MODES))}, "
                         f"got {initial!r} (the init setting)")
    if disc is None:
        disc = discretize(problem)
    elif disc.problem is not problem:
        raise ValueError(f"disc was built from another spec than this "
                         f"{problem.name!r} one; pass disc.problem")
    if not skip_sbp_guard:
        for rep in disc.sbp_reports():
            if not rep.passed:
                raise RuntimeError(
                    f"operators violate the integration-by-parts identity "
                    f"({rep}); pass skip_sbp_guard=True to march anyway")
    dt = stable_dt(cfl if cfl is not None else problem.cfl,
                   disc.mesh.h_min(), problem.max_speed, disc.dofmap.order)
    if not dt_order_scaling:
        dt = dt * (2 * disc.dofmap.order + 1)
    march = dict(scheme=scheme or problem.scheme,
                 t_end=problem.t_end if t_end is None else t_end, steps=steps,
                 amplitude_limit=amplitude_limit, steady_tol=problem.steady_tol)
    _check_march(dt, **march)           # before the projection factors M
    u0 = disc.u0 if initial == "interp" else l2_project_initial(disc)
    g = disc.pi.rhs_data if disc.pi.data is not None else None
    # Lagrange coefficients are the nodal values already
    value_op = None if disc.basis.kind == "lagrange" else disc.value_op
    traj = run(disc.M, disc.rhs_matrix, g, u0, dt, disc.ncomp, value_op,
               **march)
    return disc, traj


# ---------------------------------------------------------------------------
# error measures
# ---------------------------------------------------------------------------

def check_error_norms(problem: ProblemSpec) -> None:
    """Raise unless ``error_norms`` can measure ``problem``: it needs an
    exact solution and one field."""
    if problem.exact is None:
        raise ValueError(f"problem {problem.name} has no exact solution")
    if problem.ncomp != 1:
        raise ValueError("error norms implemented for scalar problems")


def error_norms(state: np.ndarray, disc: Discretization, t: float) -> dict:
    """L1 (quadrature), M-weighted L2 and nodal Linf error vs the exact field."""
    check_error_norms(disc.problem)
    exact = disc.problem.exact
    dofmap, basis, mesh = disc.dofmap, disc.basis, disc.mesh

    # the exact field at the DoF lattice, evaluated once for L2_M and Linf
    nodal_exact = _lattice_values(lambda pts: exact(pts, t), dofmap, 1)
    diff = state - interpolate(lambda pts: nodal_exact, dofmap)
    l2m = float(np.sqrt(diff @ (disc.M @ diff)))

    rule = quad_rule(basis.domain, disc.group_ops[0].volume_degree)
    phi = tabulate(basis, rule.points)
    pts, det = physical_points(mesh, rule)
    uh = state[dofmap.element_dofs] @ phi.T          # (ne, nq)
    ex = np.asarray(exact(pts.reshape(-1, mesh.dimension), t)).reshape(uh.shape)
    l1 = float(np.einsum("e,q,eq->", np.abs(det), rule.weights, np.abs(uh - ex)))

    nodal = disc.value_op @ state
    linf = float(np.abs(nodal - nodal_exact.ravel()).max())
    return {"L1": l1, "L2_M": l2m, "Linf": linf}
