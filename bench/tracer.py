"""Spans around calls into cgsat's public functions, recorded from outside.

The tracer replaces module attributes with timing wrappers for the length
of one job and puts the originals back afterwards.  Each call leaves a span
``[layer, start, end, parent]`` in memory; the per-layer numbers are
derived from the spans when the job is over.  Nothing under ``src/`` is
edited: the wrappers sit on the names the calling module looks up.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np

from cgsat import output, problems, sat, spectra, timeint


class Tracer:
    """Records spans for the duration of a ``with`` block."""

    def __init__(self):
        self.spans = []               # [layer, start, end, parent index]
        self.notes = defaultdict(float)
        self.factors = []             # SuperLU objects, for the fill count
        self._stack = []
        self._patches = []

    # -- recording ------------------------------------------------------
    def wrap(self, layer, fn, note=None):
        """Return ``fn`` wrapped so that each call records a span."""
        spans, stack, notes = self.spans, self._stack, self.notes

        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if note is not None:
                    notes[note[0]] += note[1](*args, **kwargs)
        return traced

    def patch(self, owner, attr, layer, note=None):
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(layer, orig, note))

    def _replace(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation ---------------------------------------------------
    def __enter__(self):
        # set-up layers, patched where problems.discretize looks them up
        self.patch(problems, "generate_mesh", "mesh.generate")
        self.patch(problems, "build_dofmap", "mesh.dofmap")
        for name in ("build_operators", "assemble_mass", "assemble_stiffness",
                     "assemble_boundary_quadratic"):
            self.patch(problems, name, "assembly.operators")
        self.patch(problems, "check_sbp", "assembly.check_sbp")
        for name in ("scalar_sat_2d", "assemble_face_sat", "build_pi_system",
                     "build_pi_r13", "characteristic_decompose"):
            self.patch(sat, name, "sat.build")
        self.patch(problems, "interpolate", "problems.interpolate")
        self.patch(problems, "nodal_value_operator", "problems.value_op")
        # G(t): every bound-method lookup of rhs_data goes through the class
        self.patch(sat.BoundaryOperator, "rhs_data", "sat.data")

        # time marching: run (via problems), step (timeint global), splu
        self._real_run, self._real_splu = problems.run, timeint.spla.splu
        self._replace(problems, "run", self.wrap("timeint.run", self._run))
        self.patch(timeint, "step", "timeint.step")
        self._replace(timeint, "spla", _SplaProxy(
            timeint.spla, self.wrap("timeint.factor", self._splu)))

        # certification
        self.patch(spectra, "stability_matrix", "spectra.stability_matrix")
        self.patch(spectra, "extreme_eigs", "spectra.extreme_eigs")
        self.patch(spectra, "symmetric_eig", "spectra.eig",
                   note=("spectra.eig_n", lambda S, *a, **k: S.shape[0]))

        # output writers
        for name in ("write_vtk", "write_energy_csv", "write_solution_csv_1d"):
            self.patch(output, name, "output.write")
        self.patch(spectra, "write_spectrum_csv", "output.write")
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False

    # -- wrapped internals of the march ---------------------------------
    def _run(self, M, rhs_matrix, *args, **kwargs):
        mat = _TimedMatrix(self.wrap("timeint.matvec", rhs_matrix.__matmul__))
        return self._real_run(M, mat, *args, **kwargs)

    def _splu(self, A, *args, **kwargs):
        lu = self._real_splu(A, *args, **kwargs)
        self.factors.append(lu)
        return _TimedLU(self.wrap("timeint.mass_solve", lu.solve))

    # -- aggregation ----------------------------------------------------
    def layer_totals(self):
        """(inclusive seconds, self seconds, calls) per layer.

        Inclusive time counts a span only when no enclosing span belongs to
        the same layer, so per-face calls nested in a layer are not counted
        twice; self time is a span's duration minus its direct children.
        """
        incl = defaultdict(float)
        self_t = defaultdict(float)
        calls = defaultdict(int)
        durations = [rec[2] - rec[1] for rec in self.spans]
        for i, (layer, _, _, parent) in enumerate(self.spans):
            calls[layer] += 1
            self_t[layer] += durations[i]
            if parent >= 0:
                self_t[self.spans[parent][0]] -= durations[i]
            p = parent
            while p >= 0 and self.spans[p][0] != layer:
                p = self.spans[p][3]
            if p < 0:
                incl[layer] += durations[i]
        return incl, self_t, calls

    def step_durations(self):
        return np.array([rec[2] - rec[1] for rec in self.spans
                         if rec[0] == "timeint.step"])


class _TimedMatrix:
    """Stands in for the rhs matrix inside ``timeint.run``: ``A @ v`` only."""

    def __init__(self, matmul):
        self._matmul = matmul

    def __matmul__(self, v):
        return self._matmul(v)


class _TimedLU:
    """Stands in for the SuperLU factor inside ``timeint.run``."""

    def __init__(self, solve):
        self.solve = solve


class _SplaProxy:
    """``scipy.sparse.linalg`` with ``splu`` replaced, for timeint only."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


def per_step_tail(durations_s):
    """p50 and the highest percentile with at least ten samples beyond it."""
    n = durations_s.size
    if n == 0:
        return 0.0, 0.0
    us = durations_s * 1e6
    tail_pct = max(0.0, 100.0 * (1.0 - 10.0 / n))
    return float(np.percentile(us, 50)), float(np.percentile(us, tail_pct))


def layer_metrics(tracer, job_counts):
    """Per-layer metric values of one traced job.

    ``job_counts`` carries what the job itself counted: mesh sizes, nnz,
    output bytes, marched steps.  Layers that did not run report 0.
    """
    incl, self_t, calls = tracer.layer_totals()
    steps = calls["timeint.step"]
    rhs_evals = calls["timeint.matvec"]
    solves = calls["timeint.mass_solve"]
    data_calls = calls["sat.data"]
    p50, tail = per_step_tail(tracer.step_durations())

    def per(total, count, scale=1e6):
        return total / count * scale if count else 0.0

    m = {
        "mesh.generate_s": incl["mesh.generate"],
        "mesh.dofmap_s": incl["mesh.dofmap"],
        "mesh.elements": job_counts["elements"],
        "mesh.dofs": job_counts["dofs"],
        "mesh.boundary_faces": job_counts["boundary_faces"],
        "assembly.operators_s": incl["assembly.operators"],
        "assembly.check_sbp_s": incl["assembly.check_sbp"],
        "assembly.nnz_M": job_counts["nnz_M"],
        "assembly.nnz_Q": job_counts["nnz_Q"],
        "sat.build_s": incl["sat.build"],
        "sat.data_calls": data_calls,
        "sat.data_us_per_call": per(incl["sat.data"], data_calls),
        "problems.interpolate_s": incl["problems.interpolate"],
        "problems.value_op_s": incl["problems.value_op"],
        "timeint.factor_s": incl["timeint.factor"],
        "timeint.lu_fill": sum(int(lu.L.nnz + lu.U.nnz)
                               for lu in tracer.factors),
        "timeint.mass_solve_calls": solves,
        "timeint.mass_solve_us": per(incl["timeint.mass_solve"], solves),
        "timeint.rhs_evals": rhs_evals,
        "timeint.matvec_us": per(incl["timeint.matvec"], rhs_evals),
        "timeint.steps": steps,
        "timeint.step_us_p50": p50,
        "timeint.step_us_tail": tail,
        "timeint.bookkeeping_us_per_step": per(self_t["timeint.step"], steps),
        "timeint.record_us_per_step": per(self_t["timeint.run"], steps),
        "spectra.stability_matrix_s": incl["spectra.stability_matrix"],
        "spectra.eig_s": incl["spectra.eig"],
        "spectra.eig_calls": calls["spectra.eig"],
        "spectra.eig_n": int(tracer.notes["spectra.eig_n"]),
        "spectra.residual_check_s": self_t["spectra.extreme_eigs"],
        "output.write_s": incl["output.write"],
        "output.bytes": job_counts["output_bytes"],
    }
    return m


#: metrics that are exact counts; they must repeat from job to job
COUNT_METRICS = (
    "mesh.elements", "mesh.dofs", "mesh.boundary_faces", "assembly.nnz_M",
    "assembly.nnz_Q", "sat.data_calls", "timeint.lu_fill",
    "timeint.mass_solve_calls", "timeint.rhs_evals", "timeint.steps",
    "spectra.eig_calls", "spectra.eig_n", "output.bytes",
)
