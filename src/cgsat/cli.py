"""Command-line front end: solve, spectrum, convergence, mesh-gen, dump-operators.

Configuration is plain ``key = value`` text (see RunConfig); a flag's text
is read as its key's line is, and flags win.  Argparse only parses: the
library refuses bad settings (exit 1), so exit 2 means only "unstable".
Outputs (CSV, VTK legacy ASCII, Matrix Market) go to --outdir on success.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import output
from .mesh import generate_mesh, load_mesh, save_mesh
from .problems import (PROBLEMS, check_error_norms, discretize, error_norms,
                       solve_problem)
from .spectra import spectrum_report, write_spectrum_csv


_BOOLEANS = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}
_MARCH_KEYS = ("scheme", "cfl", "t_end", "steps", "amplitude_limit", "init",
               "dt_order_scaling", "skip_sbp_guard")


def _read_number(key: str, text: str, kind, what: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"config key {key!r}: expected {what}, "
                         f"got {text!r}") from None


@dataclass
class RunConfig:
    """Everything a run needs, read from ``key = value`` text."""

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

    @classmethod
    def from_pairs(cls, texts: dict) -> "RunConfig":
        """Read each key's text: a flag's and a file line's alike."""
        raw = dict(texts)
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            sv = raw.pop(f.name)
            if f.type == "bool":
                flag = sv.lower()
                if flag not in _BOOLEANS:
                    raise ValueError(f"config key {f.name!r}: expected one of "
                                     f"true/false/1/0/yes/no, got {sv!r}")
                kwargs[f.name] = _BOOLEANS[flag]
            elif sv == "none" and f.default is None:
                kwargs[f.name] = None
            elif f.type == "int | None":
                kwargs[f.name] = _read_number(f.name, sv, int, "an integer")
            elif f.type == "float | None":
                kwargs[f.name] = _read_number(f.name, sv, float, "a number")
            else:
                kwargs[f.name] = sv
        if raw:
            raise ValueError(f"unknown config keys: {sorted(raw)}")
        return cls(**kwargs)


def _read_pairs(text: str) -> dict:
    """``key = value`` lines to a dict of texts; ``#`` starts a comment."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, val = (s.strip() for s in body.split("=", 1))
        raw[key] = val
    return raw


def _build_problem(cfg: RunConfig):
    if cfg.problem not in PROBLEMS:
        raise ValueError(f"unknown problem {cfg.problem!r}; "
                         f"choose from {sorted(PROBLEMS)}")
    ctor = PROBLEMS[cfg.problem]
    kwargs = {"n": cfg.mesh_n, "order": cfg.order, "basis": cfg.basis}
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    if cfg.seed is not None:
        if cfg.problem != "wave1d":
            raise ValueError(f"seed {cfg.seed} given, but only wave1d takes one "
                             f"(random cell spacing); {cfg.problem!r} does not")
        kwargs["spacing"] = "random"
        kwargs["seed"] = cfg.seed
    return ctor(**kwargs)


def _discretize_from_config(cfg: RunConfig, marches: bool = True):
    clash = [k for k in ("mesh_n", "seed") if getattr(cfg, k) is not None]
    if cfg.mesh_file and clash:
        raise ValueError(f"mesh_file and {' and '.join(clash)} both given; "
                         f"the mesh file fixes the mesh")
    if not marches:
        unused = [k for k in _MARCH_KEYS
                  if getattr(cfg, k) != getattr(RunConfig, k)]
        if unused:
            raise ValueError(f"{' and '.join(unused)} given, but this "
                             f"command does not march")
    prob = _build_problem(cfg)
    mesh = load_mesh(cfg.mesh_file) if cfg.mesh_file else None
    return discretize(
        prob, mesh=mesh, volume_degree=cfg.volume_quad,
        edge_degree=cfg.edge_quad, split_alpha=cfg.split_alpha,
        sat_scale=cfg.sat_scale)


def _march(cfg: RunConfig):
    """Discretize ``cfg`` and march it with every march setting."""
    disc = _discretize_from_config(cfg)
    return solve_problem(
        disc.problem, disc=disc, cfl=cfg.cfl, t_end=cfg.t_end, steps=cfg.steps,
        scheme=cfg.scheme, amplitude_limit=cfg.amplitude_limit,
        initial=cfg.init, dt_order_scaling=cfg.dt_order_scaling,
        skip_sbp_guard=cfg.skip_sbp_guard)


def cmd_solve(cfg: RunConfig) -> int:
    disc, traj = _march(cfg)
    os.makedirs(cfg.outdir, exist_ok=True)
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
    rep = spectrum_report(_discretize_from_config(cfg, marches=False))
    os.makedirs(cfg.outdir, exist_ok=True)
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
    base = 4 if cfg.mesh_n is None else cfg.mesh_n
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
    os.makedirs(cfg.outdir, exist_ok=True)
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
    disc = _discretize_from_config(cfg, marches=False)
    os.makedirs(cfg.outdir, exist_ok=True)
    mmwrite(os.path.join(cfg.outdir, "M.mtx"), disc.M)
    mmwrite(os.path.join(cfg.outdir, "Q.mtx"), disc.ops_sys)
    mmwrite(os.path.join(cfg.outdir, "Bq.mtx"), disc.bq_sys)
    mmwrite(os.path.join(cfg.outdir, "Pi.mtx"), disc.pi.matrix)
    sys.stdout.write(f"wrote M.mtx Q.mtx Bq.mtx Pi.mtx to {cfg.outdir}\n")
    for rep in disc.sbp_reports():
        sys.stdout.write(f"{rep}\n")
    return 0


_FLAG_NAMES = {"mesh_file": ["--mesh"], "mesh_n": ["--mesh-n", "--cells"]}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per RunConfig key; it stores text, read as a file line is."""
    p.add_argument("--config", help="load a key = value config file")
    for f in fields(RunConfig):
        name = f.name.replace("_", "-")
        if f.type == "bool":        # a switch away from the default
            flag = f"--no-{name}" if f.default else f"--{name}"
            p.add_argument(flag, dest=f.name, action="store_const",
                           const=str(not f.default).lower())
        else:
            p.add_argument(*_FLAG_NAMES.get(f.name, [f"--{name}"]),
                           dest=f.name)


def _config_from_args(args) -> RunConfig:
    texts = {}
    if args.config:
        with open(args.config) as fh:
            texts = _read_pairs(fh.read())
    texts.update({f.name: getattr(args, f.name) for f in fields(RunConfig)
                  if getattr(args, f.name) is not None})      # flags win
    return RunConfig.from_pairs(texts)


class _Parser(argparse.ArgumentParser):
    """Parses only; a malformed command line is refused like a bad setting."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None) -> int:
    parser = _Parser(
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
    try:
        args = parser.parse_args(argv)
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
