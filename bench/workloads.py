"""The four benchmark workloads: inputs from a seed, one job, its checker.

A job goes from ``ProblemSpec`` to a checked result through the same public
functions the CLI uses (``problems.discretize``, ``problems.solve_problem``,
``spectra.build_spectrum_report`` and the writers in ``output``), writing
the files the matching ``cgsat`` command writes.  A ``Clock`` passed in by
the runner accumulates the time spent in set-up (``discretize``) and in the
workload's main phase.

A job is a generator: it runs in parts, yields between them and returns
its result.  Between parts the runner times a reference computation to
follow the host's speed (``hostspeed.py``).  A part is one mesh's set-up
and march (wave1d-march), the set-up or the march (rotation-march), one
spectrum report with its set-up (certify), or one large set-up or the
``check_sbp`` after it (assemble-large).

Seed 0 reproduces the acceptance inputs: wave random-mesh seed 7,
perturbed-square seed 11 and the rotation bump starting at angle 0.
Seed s shifts the two mesh seeds by s and turns the bump's start point on
r = 0.5 by s golden angles.  assemble-large has deterministic meshes and
ignores the seed.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from cgsat import output, problems, spectra, timeint
from cgsat.sat import characteristic_decompose

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

WAVE_STEPS = 2000              # per mesh
WAVE_MNORM_BOUND = 1.40        # criterion 8's frozen bound
WAVE_NODAL_TOL = 1e-2          # exact characteristic solution, nodal max error
ROTATION_T_END = 0.5           # a quarter turn
ROTATION_MAX_BAND = (0.9, 1.01)
ROTATION_MIN_FLOOR = -0.06
ENERGY_RISE_RTOL = 1e-12       # u'Mu nonincreasing up to roundoff
PAIRING_TOL = 1e-10
INTERIOR_RESIDUAL_TOL = 1e-12


def discretize_all(inputs, clock):
    """Set-up alone: every discretization a job of these inputs makes."""
    for _, prob, kwargs, _ in inputs:
        clock.timed("setup", problems.discretize, prob, **kwargs)


class Clock:
    """Sums wall time per phase over one job."""

    def __init__(self):
        self.phases = {"setup": 0.0, "work": 0.0}

    def timed(self, phase, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.phases[phase] += perf_counter() - t0


def _sizes(discs):
    return {
        "elements": sum(d.mesh.n_elements for d in discs),
        "dofs": sum(d.dofmap.n_dofs for d in discs),
        "boundary_faces": sum(len(d.mesh.boundary_faces) for d in discs),
        "nnz_M": sum(int(d.M.nnz) for d in discs),
        "nnz_Q": sum(int(d.ops_sys.nnz) for d in discs),
    }


def write_solve_outputs(disc, traj, outdir):
    """The files ``cgsat solve`` writes: energy, final solution, summary."""
    os.makedirs(outdir, exist_ok=True)
    output.write_energy_csv(os.path.join(outdir, "energy.csv"), traj)
    if disc.mesh.dimension == 1:
        output.write_solution_csv_1d(
            os.path.join(outdir, "solution_final.csv"), disc.dofmap,
            disc.value_op @ traj.state.reshape(disc.dofmap.n_dofs, disc.ncomp))
    else:
        vdata = output.vertex_values(disc, traj.state)
        names = ["u"] if disc.ncomp == 1 else \
            [f"u{c + 1}" for c in range(disc.ncomp)]
        output.write_vtk(os.path.join(outdir, "solution_final.vtk"), disc.mesh,
                         {nm: vdata[:, c] for c, nm in enumerate(names)},
                         title=disc.problem.name)
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(f"problem = {disc.problem.name}\n"
                 f"dofs = {disc.dofmap.n_dofs} x {disc.ncomp}\n"
                 f"steps = {traj.steps}\nt_final = {traj.t!r}\n"
                 f"max = {traj.max_value!r}\nmin = {traj.min_value!r}\n"
                 f"status = {traj.status}\n")


def _rhs_evals(disc, traj):
    """Right-hand-side evaluations a march must make: stages x steps."""
    stages = len(timeint.SCHEMES[disc.problem.scheme]["alpha"])
    return stages * traj.steps


@dataclass
class Workload:
    name: str
    make_inputs: object     # seed -> inputs
    job: object             # (inputs, outdir, clock) -> result dict
    check: object           # result -> list of failure messages
    corruptions: object     # result -> list of (label, corrupted result)
    reference: tuple            # HostSpeed kernels shaped like the job
    data_driven: bool = False   # G(t) evaluated once per rhs evaluation
    eig_calls: int = 0          # symmetric_eig calls per job


# ---------------------------------------------------------------------------
# wave1d-march: criterion 8's problem, fixed step count on two meshes
# ---------------------------------------------------------------------------

def wave_inputs(seed):
    probs = [problems.wave_1d(n=100, order=2),
             problems.wave_1d(n=100, order=2, spacing="random", seed=7 + seed)]
    return [(p.mesh_recipe, p, {}, None) for p in probs]


def _wave_exact(x, t):
    """Characteristic fields of the exact solution for sin(t) inflow data."""
    w1 = np.where(x < t, np.sin(t - x), 0.0)
    w2 = np.where(1.0 - x < t, np.sin(t - 1.0 + x), 0.0)
    return np.stack([w1, w2], axis=1)


def wave_job(inputs, outdir, clock):
    marches, discs, expected = [], [], 0
    for i, (label, prob, _, _) in enumerate(inputs):
        if i:
            yield
        disc = clock.timed("setup", problems.discretize, prob)
        disc, traj = clock.timed("work", problems.solve_problem, prob,
                                 disc=disc, cfl=0.1, steps=WAVE_STEPS)
        write_solve_outputs(disc, traj, os.path.join(outdir, f"mesh{i}"))
        nodal = disc.value_op @ traj.state.reshape(disc.dofmap.n_dofs, 2)
        marches.append({
            "label": label, "status": traj.status, "t": traj.t,
            "steps": traj.steps,
            "mnorm_max": float(np.sqrt(traj.energies.max())),
            "x": disc.dofmap.dof_coords[:, 0].copy(), "nodal": nodal})
        discs.append(disc)
        expected += _rhs_evals(disc, traj)
    return {"marches": marches, "counts": _sizes(discs),
            "rhs_evals": expected, "steps": sum(m["steps"] for m in marches)}


def wave_check(res):
    # characteristic variables of A = [[0,1],[1,0]] at the boundary normal
    X = characteristic_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]), None,
                                 np.eye(2), [1.0]).X
    bad = []
    for m in res["marches"]:
        if m["status"] != "completed":
            bad.append(f"{m['label']}: status {m['status']}")
        if m["steps"] != WAVE_STEPS:
            bad.append(f"{m['label']}: {m['steps']} steps")
        if not m["mnorm_max"] <= WAVE_MNORM_BOUND:
            bad.append(f"{m['label']}: M-norm {m['mnorm_max']:.4f}")
        err = np.abs(m["nodal"] @ X - _wave_exact(m["x"], m["t"])).max()
        if not err <= WAVE_NODAL_TOL:
            bad.append(f"{m['label']}: nodal error {err:.2e}")
    return bad


def wave_corruptions(res):
    shifted = copy.deepcopy(res)
    shifted["marches"][0]["nodal"] += 0.1
    grown = copy.deepcopy(res)
    grown["marches"][1]["mnorm_max"] = 1.5
    return [("state shifted by 0.1", shifted), ("M-norm above bound", grown)]


# ---------------------------------------------------------------------------
# rotation-march: criterion 6a's set-up for a quarter turn, bump start angle
# from the seed
# ---------------------------------------------------------------------------

def rotation_inputs(seed):
    theta = (seed * GOLDEN_ANGLE) % (2.0 * math.pi)
    center = (0.5 * math.sin(theta), 0.5 * math.cos(theta))
    bump = problems.gaussian_bump(center)

    def exact(points, t):
        c, s = np.cos(2.0 * np.pi * t), np.sin(2.0 * np.pi * t)
        back = np.stack([c * points[:, 0] - s * points[:, 1],
                         s * points[:, 0] + c * points[:, 1]], axis=1)
        return bump(back)

    prob = replace(problems.rotation_2d(n=13), initial=bump, exact=exact)
    return [(prob.mesh_recipe, prob, {}, None)]


def rotation_job(inputs, outdir, clock):
    (_, prob, _, _), = inputs
    disc = clock.timed("setup", problems.discretize, prob)
    yield
    disc, traj = clock.timed("work", problems.solve_problem, prob, disc=disc,
                             cfl=0.2, t_end=ROTATION_T_END,
                             dt_order_scaling=False)
    write_solve_outputs(disc, traj, outdir)
    vals = disc.value_op @ traj.state
    return {"status": traj.status, "steps": traj.steps,
            "max": float(vals.max()), "min": float(vals.min()),
            "energies": traj.energies.copy(), "counts": _sizes([disc]),
            "rhs_evals": _rhs_evals(disc, traj)}


def rotation_check(res):
    bad = []
    if res["status"] != "completed":
        bad.append(f"status {res['status']}")
    lo, hi = ROTATION_MAX_BAND
    if not lo <= res["max"] <= hi:
        bad.append(f"max {res['max']:.4f} outside [{lo}, {hi}]")
    if not res["min"] >= ROTATION_MIN_FLOOR:
        bad.append(f"min {res['min']:.4f} below {ROTATION_MIN_FLOOR}")
    e = res["energies"]
    rise = float((np.diff(e) / e[:-1]).max())
    if not rise <= ENERGY_RISE_RTOL:
        bad.append(f"u'Mu rose by {rise:.2e} in one step")
    return bad


def rotation_corruptions(res):
    shifted = copy.deepcopy(res)
    shifted["max"] += 0.1
    shifted["min"] += 0.1
    rising = copy.deepcopy(res)
    rising["energies"][-1] = rising["energies"][-2] * (1.0 + 1e-9)
    return [("state shifted by 0.1", shifted), ("energy rises", rising)]


# ---------------------------------------------------------------------------
# certify: four spectrum reports, as `cgsat spectrum` makes them
# ---------------------------------------------------------------------------

def certify_inputs(seed):
    square = replace(problems.advection_2d(order=3, basis="bernstein"),
                     mesh_recipe=f"perturbed_square(8,{11 + seed})")
    return [
        ("advection-matched", square, {}, "stable"),
        ("advection-edge5", square, {"volume_degree": 6, "edge_degree": 5},
         "unstable"),
        ("rotation", problems.rotation_2d(n=5), {}, "stable"),
        ("wave-random", problems.wave_1d(n=100, order=2, spacing="random",
                                         seed=7 + seed), {}, "stable"),
    ]


def certify_job(inputs, outdir, clock):
    os.makedirs(outdir, exist_ok=True)
    reports, discs = [], []
    for i, (label, prob, kwargs, expected) in enumerate(inputs):
        if i:
            yield
        disc = clock.timed("setup", problems.discretize, prob, **kwargs)
        rep = clock.timed(
            "work", spectra.build_spectrum_report, disc.ops_sys, disc.pi,
            k=10, interior_dofs=disc.dofmap.interior_dofs(), ncomp=disc.ncomp,
            norm_q=disc.norm_q)
        spectra.write_spectrum_csv(rep, os.path.join(outdir,
                                                     f"{label}.csv"))
        reports.append({
            "label": label, "expected": expected, "verdict": rep.verdict,
            "pos_sat": float(rep.pos_sat[0]),
            "pairing": float(np.abs(rep.neg_no_sat + rep.pos_no_sat).max()),
            "interior": rep.max_interior_residual})
        discs.append(disc)
    return {"reports": reports, "counts": _sizes(discs)}


def certify_check(res):
    bad = []
    for r in res["reports"]:
        if r["verdict"] != r["expected"]:
            bad.append(f"{r['label']}: verdict {r['verdict']} "
                       f"(lambda_max {r['pos_sat']:.3e})")
        if not r["pairing"] <= PAIRING_TOL:
            bad.append(f"{r['label']}: pairing defect {r['pairing']:.2e}")
        if not r["interior"] <= INTERIOR_RESIDUAL_TOL:
            bad.append(f"{r['label']}: interior residual {r['interior']:.2e}")
    return bad


def certify_corruptions(res):
    flipped = copy.deepcopy(res)
    flipped["reports"][1]["verdict"] = "stable"
    unpaired = copy.deepcopy(res)
    unpaired["reports"][0]["pairing"] = 1e-6
    return [("flipped verdict", flipped), ("broken +-lambda pairing", unpaired)]


# ---------------------------------------------------------------------------
# assemble-large: set-up of two large discretizations plus check_sbp
# ---------------------------------------------------------------------------

ASSEMBLE_SIZES = {"rotation2d": (91351, 20184), "r13": (22148, 10848)}


def assemble_inputs(seed):
    probs = [problems.rotation_2d(n=58), problems.r13_heat(n=24)]
    return [(p.name, p, {}, ASSEMBLE_SIZES[p.name]) for p in probs]


def assemble_job(inputs, outdir, clock):
    checks, counts = [], None
    for i, (name, prob, _, expected) in enumerate(inputs):
        if i:
            yield
        disc = clock.timed("setup", problems.discretize, prob)
        yield
        sbp = clock.timed("work", disc.sbp_reports)
        checks.append({"name": name, "expected": expected,
                       "dofs": disc.dofmap.n_dofs,
                       "elements": disc.mesh.n_elements,
                       "sbp": [(rep.passed, str(rep)) for rep in sbp]})
        sizes = _sizes([disc])
        counts = sizes if counts is None else \
            {k: counts[k] + sizes[k] for k in counts}
        del disc
    return {"checks": checks, "counts": counts}


def assemble_check(res):
    bad = []
    for c in res["checks"]:
        if (c["dofs"], c["elements"]) != c["expected"]:
            bad.append(f"{c['name']}: {c['dofs']} DoFs, "
                       f"{c['elements']} elements")
        bad += [f"{c['name']}: SBP {text}" for ok, text in c["sbp"] if not ok]
    return bad


def assemble_corruptions(res):
    broken = copy.deepcopy(res)
    broken["checks"][0]["sbp"][0] = (False, "broken report")
    resized = copy.deepcopy(res)
    resized["checks"][1]["dofs"] -= 1
    return [("broken SBP report", broken), ("wrong DoF count", resized)]


WORKLOADS = {w.name: w for w in (
    Workload("wave1d-march", wave_inputs, wave_job, wave_check,
             wave_corruptions, ("loop",), data_driven=True),
    Workload("rotation-march", rotation_inputs, rotation_job, rotation_check,
             rotation_corruptions, ("sparse", "loop")),
    Workload("certify", certify_inputs, certify_job, certify_check,
             certify_corruptions, ("dense", "loop"), eig_calls=8),
    Workload("assemble-large", assemble_inputs, assemble_job, assemble_check,
             assemble_corruptions, ("sparse", "stream")),
)}
