"""Command-line front end: solve, spectrum, convergence, mesh-gen, dump-operators.

Configuration is plain ``key = value`` text (see RunConfig); command-line
flags override file values.  Outputs are CSV, VTK legacy ASCII and Matrix
Market files in the chosen output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import output
from .basis import KINDS, MAX_ORDER
from .mesh import generate_mesh, load_mesh, save_mesh
from .problems import (INITIAL_MODES, PROBLEMS, check_error_norms, discretize,
                       error_norms, solve_problem)
from .spectra import spectrum_report, write_spectrum_csv
from .timeint import SCHEMES


_BOOLEANS = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}


def _read_number(key: str, text: str, kind, what: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"config key {key!r}: expected {what}, "
                         f"got {text!r}") from None


@dataclass
class RunConfig:
    """Everything a run needs; round-trips losslessly through text."""

    problem: str = "advection2d"
    mesh_file: str | None = None
    mesh_n: int | None = None
    order: int | None = None
    basis: str | None = None
    volume_quad: int | None = None
    edge_quad: int | None = None
    split_alpha: float | None = None
    sat_scale: float | None = None
    scheme: str | None = None
    cfl: float | None = None
    t_end: float | None = None
    steps: int | None = None
    amplitude_limit: float | None = None
    init: str = "interp"               # 'interp' | 'project'
    dt_order_scaling: bool = True
    skip_sbp_guard: bool = False
    outdir: str = "out"
    seed: int | None = None

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                sv = "none"
            elif isinstance(v, bool):
                sv = "true" if v else "false"
            elif isinstance(v, float):
                sv = repr(v)
            else:
                sv = str(v)
            lines.append(f"{f.name} = {sv}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        raw = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"config line {lineno}: expected 'key = value'")
            key, val = (s.strip() for s in body.split("=", 1))
            raw[key] = val
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            sv = raw.pop(f.name)
            if f.type in ("bool", bool):
                flag = sv.lower()
                if flag not in _BOOLEANS:
                    raise ValueError(f"config key {f.name!r}: expected one of "
                                     f"true/false/1/0/yes/no, got {sv!r}")
                kwargs[f.name] = _BOOLEANS[flag]
            elif sv == "none":
                kwargs[f.name] = None
            elif f.type in ("int | None", "int", int):
                kwargs[f.name] = _read_number(f.name, sv, int, "an integer")
            elif f.type in ("float | None", "float", float):
                kwargs[f.name] = _read_number(f.name, sv, float, "a number")
            else:
                kwargs[f.name] = sv
        if raw:
            raise ValueError(f"unknown config keys: {sorted(raw)}")
        return cls(**kwargs)


def _build_problem(cfg: RunConfig):
    if cfg.problem not in PROBLEMS:
        raise ValueError(f"unknown problem {cfg.problem!r}; "
                         f"choose from {sorted(PROBLEMS)}")
    ctor = PROBLEMS[cfg.problem]
    kwargs = {}
    if cfg.mesh_n is not None:
        kwargs["n"] = cfg.mesh_n
    if cfg.seed is not None:
        if cfg.problem != "wave1d":
            raise ValueError(f"seed {cfg.seed} given, but only wave1d takes one "
                             f"(random cell spacing); {cfg.problem!r} does not")
        kwargs["spacing"] = "random"
        kwargs["seed"] = cfg.seed
    return ctor(**kwargs)


def _discretize_from_config(cfg: RunConfig):
    clash = [k for k in ("mesh_n", "seed") if getattr(cfg, k) is not None]
    if cfg.mesh_file and clash:
        raise ValueError(f"mesh_file and {' and '.join(clash)} both given; "
                         f"the mesh file fixes the mesh")
    prob = _build_problem(cfg)
    mesh = load_mesh(cfg.mesh_file) if cfg.mesh_file else None
    return discretize(
        prob, mesh=mesh, order=cfg.order, basis_kind=cfg.basis,
        volume_degree=cfg.volume_quad, edge_degree=cfg.edge_quad,
        split_alpha=cfg.split_alpha, sat_scale=cfg.sat_scale)


def _march(cfg: RunConfig):
    """Discretize ``cfg`` and march it with every march setting."""
    disc = _discretize_from_config(cfg)
    return solve_problem(
        disc.problem, disc=disc, cfl=cfg.cfl, t_end=cfg.t_end, steps=cfg.steps,
        scheme=cfg.scheme, amplitude_limit=cfg.amplitude_limit,
        initial=cfg.init, dt_order_scaling=cfg.dt_order_scaling,
        skip_sbp_guard=cfg.skip_sbp_guard)


def cmd_solve(cfg: RunConfig) -> int:
    os.makedirs(cfg.outdir, exist_ok=True)
    disc, traj = _march(cfg)
    output.write_energy_csv(os.path.join(cfg.outdir, "energy.csv"), traj)
    if disc.mesh.dimension == 1:
        output.write_solution_csv_1d(
            os.path.join(cfg.outdir, "solution_final.csv"),
            disc.dofmap, disc.value_op @ traj.state.reshape(
                disc.dofmap.n_dofs, disc.ncomp))
    else:
        vdata = output.vertex_values(disc, traj.state)
        names = {1: ["u"]}.get(disc.ncomp,
                               [f"u{c+1}" for c in range(disc.ncomp)])
        output.write_vtk(os.path.join(cfg.outdir, "solution_final.vtk"),
                         disc.mesh,
                         {nm: vdata[:, c] for c, nm in enumerate(names)},
                         title=disc.problem.name)
    summary = [
        f"problem = {disc.problem.name}",
        f"dofs = {disc.dofmap.n_dofs} x {disc.ncomp}",
        f"steps = {traj.steps}",
        f"t_final = {traj.t!r}",
        f"max = {traj.max_value!r}",
        f"min = {traj.min_value!r}",
        f"status = {traj.status}",
    ]
    if traj.blowup_step is not None:
        summary.append(f"blowup_step = {traj.blowup_step}")
    if traj.steady_residual is not None:
        summary.append(f"steady_residual = {traj.steady_residual!r}")
    text = "\n".join(summary) + "\n"
    with open(os.path.join(cfg.outdir, "summary.txt"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0 if traj.status in ("completed", "steady") else 1


def cmd_spectrum(cfg: RunConfig) -> int:
    os.makedirs(cfg.outdir, exist_ok=True)
    rep = spectrum_report(_discretize_from_config(cfg))
    write_spectrum_csv(rep, os.path.join(cfg.outdir, "spectrum.csv"))
    sys.stdout.write(
        f"dofs = {rep.n_dofs}\n"
        f"most negative (no SAT / SAT): {float(rep.neg_no_sat[0])!r} / "
        f"{float(rep.neg_sat[0])!r}\n"
        f"most positive (no SAT / SAT): {float(rep.pos_no_sat[0])!r} / "
        f"{float(rep.pos_sat[0])!r}\n"
        f"support = {rep.support} of {rep.n_dofs} unknowns, "
        f"dropped <= {rep.dropped:.1e} (tolerance {rep.tolerance():.1e})\n"
        f"verdict = {rep.verdict}\n")
    return 0 if rep.stable else 2


def cmd_convergence(cfg: RunConfig, levels: int = 4) -> int:
    if levels < 3:
        raise ValueError(f"convergence fits orders over at least 3 "
                         f"refinement levels, got --levels {levels}")
    if cfg.mesh_file:
        raise ValueError("convergence refines the generated mesh, so it "
                         "takes --mesh-n, not a mesh file (--mesh)")
    if cfg.steps is not None:
        raise ValueError("convergence marches every level to t_end, so it "
                         "takes --t-end, not a step count (--steps)")
    check_error_norms(_build_problem(cfg))     # before the first march
    os.makedirs(cfg.outdir, exist_ok=True)
    base = cfg.mesh_n or 4
    rows = []
    for lvl in range(levels):
        n = base * 2 ** lvl
        disc, traj = _march(replace(cfg, mesh_n=n))
        if traj.status != "completed":
            raise ValueError(f"level n={n}: the march ended {traj.status} at "
                             f"step {traj.steps}, t = {traj.t!r}")
        norms = error_norms(traj.state, disc, traj.t)
        rows.append((1.0 / n, norms["L1"], norms["L2_M"]))
        sys.stdout.write(f"n={n:4d} h={1.0/n:.5f} "
                         f"L1={norms['L1']:.3e} L2_M={norms['L2_M']:.3e}\n")
    hs = np.array([r[0] for r in rows])
    slopes = {}
    for j, name in ((1, "L1"), (2, "L2_M")):
        errs = np.array([r[j] for r in rows])
        slopes[name] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    with open(os.path.join(cfg.outdir, "convergence.csv"), "w") as fh:
        fh.write("h,L1,L2_M\n")
        for h, l1, l2 in rows:
            fh.write(f"{h!r},{l1!r},{l2!r}\n")
        fh.write(f"# slopes: L1 {slopes['L1']!r}, L2_M {slopes['L2_M']!r}\n")
    sys.stdout.write(f"fitted orders: L1 {slopes['L1']:.3f}, "
                     f"L2_M {slopes['L2_M']:.3f}\n")
    return 0


def cmd_mesh_gen(recipe: str, out: str) -> int:
    mesh = generate_mesh(recipe)
    save_mesh(mesh, out)
    sys.stdout.write(f"wrote {out}: dim={mesh.dimension} "
                     f"vertices={mesh.n_vertices} elements={mesh.n_elements} "
                     f"boundary_faces={len(mesh.boundary_faces)}\n")
    return 0


def cmd_dump_operators(cfg: RunConfig) -> int:
    from scipy.io import mmwrite
    os.makedirs(cfg.outdir, exist_ok=True)
    disc = _discretize_from_config(cfg)
    mmwrite(os.path.join(cfg.outdir, "M.mtx"), disc.M)
    mmwrite(os.path.join(cfg.outdir, "Q.mtx"), disc.ops_sys)
    mmwrite(os.path.join(cfg.outdir, "Bq.mtx"), disc.bq_sys)
    mmwrite(os.path.join(cfg.outdir, "Pi.mtx"), disc.pi.matrix)
    sys.stdout.write(f"wrote M.mtx Q.mtx Bq.mtx Pi.mtx to {cfg.outdir}\n")
    for rep in disc.sbp_reports():
        sys.stdout.write(f"{rep}\n")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="load a key = value config file")
    p.add_argument("--problem", help="problem name")
    p.add_argument("--mesh", dest="mesh_file", help="mesh file (ASCII format)")
    p.add_argument("--mesh-n", type=int, help="generator resolution parameter")
    p.add_argument("--cells", type=int, dest="mesh_n",
                   help="alias for --mesh-n (1D cell count)")
    p.add_argument("--order", type=int, choices=range(1, MAX_ORDER + 1))
    p.add_argument("--basis", choices=KINDS)
    p.add_argument("--volume-quad", type=int, dest="volume_quad")
    p.add_argument("--edge-quad", type=int, dest="edge_quad")
    p.add_argument("--split-alpha", type=float, dest="split_alpha")
    p.add_argument("--sat-scale", type=float, dest="sat_scale")
    p.add_argument("--scheme", choices=tuple(SCHEMES))
    p.add_argument("--cfl", type=float)
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--steps", type=int)
    p.add_argument("--amplitude-limit", type=float, dest="amplitude_limit")
    p.add_argument("--init", choices=INITIAL_MODES)
    p.add_argument("--no-dt-order-scaling", dest="dt_order_scaling",
                   action="store_false", default=None)
    p.add_argument("--skip-sbp-guard", dest="skip_sbp_guard",
                   action="store_true", default=None)
    p.add_argument("--outdir")
    p.add_argument("--seed", type=int)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = RunConfig.from_text(fh.read())
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            setattr(cfg, f.name, v)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cgsat",
        description="Continuous-Galerkin hyperbolic solver stabilized by "
                    "weak boundary operators, with a spectrum analyzer.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "spectrum", "dump-operators"):
        sp = subs.add_parser(name)
        _add_config_flags(sp)
    sp = subs.add_parser("convergence")
    _add_config_flags(sp)
    sp.add_argument("--levels", type=int, default=4)
    sp = subs.add_parser("mesh-gen")
    sp.add_argument("--recipe", required=True,
                    help="e.g. 'unit_square(16)' or 'interval(100,random,7)'")
    sp.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        if args.command == "mesh-gen":
            return cmd_mesh_gen(args.recipe, args.out)
        cfg = _config_from_args(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "convergence":
            return cmd_convergence(cfg, args.levels)
        if args.command == "dump-operators":
            return cmd_dump_operators(cfg)
    except Exception as exc:          # surfaced as exit status for scripting
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
