import hashlib

import pytest

import cgsat.cli as cli
import cgsat.spectra as spectra
import cgsat.timeint as timeint
from cgsat.cli import RunConfig, main
from cgsat.mesh import load_mesh


def test_config_roundtrip():
    # every field type reads back from literal key = value text
    text = ("problem = rotation2d\nmesh_file = none\nmesh_n = 13\norder = 3\n"
            "basis = bernstein\nvolume_quad = 6\nedge_quad = 5\n"
            "split_alpha = 0.5\nsat_scale = 1.25\nscheme = SSPRK54\n"
            "cfl = 0.2\nt_end = 2.0\nsteps = none\namplitude_limit = 100.0\n"
            "init = project\ndt_order_scaling = false\nskip_sbp_guard = true\n"
            "outdir = results\nseed = 42\n")
    assert RunConfig.from_text(text) == RunConfig(
        problem="rotation2d", mesh_n=13, order=3, basis="bernstein",
        volume_quad=6, edge_quad=5, split_alpha=0.5, sat_scale=1.25,
        scheme="SSPRK54", cfl=0.2, t_end=2.0, steps=None,
        amplitude_limit=100.0, init="project", dt_order_scaling=False,
        skip_sbp_guard=True, outdir="results", seed=42)
    assert RunConfig.from_text("") == RunConfig()
    # no seed and seed 0 are different configurations
    assert RunConfig.from_text("seed = none\n").seed is None
    assert RunConfig.from_text("seed = 0\n").seed == 0


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_text("problem = advection2d\nwibble = 3\n")


@pytest.mark.parametrize("key", ["skip_sbp_guard", "dt_order_scaling"])
@pytest.mark.parametrize("value", ["ture", "flase", "2", "none", ""])
def test_config_rejects_unreadable_boolean(key, value):
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        RunConfig.from_text(f"problem = wave1d\n{key} = {value}\n")


def test_config_reads_every_boolean_spelling():
    for text, flag in (("true", True), ("TRUE", True), ("1", True),
                       ("Yes", True), ("false", False), ("False", False),
                       ("0", False), ("NO", False)):
        cfg = RunConfig.from_text(f"skip_sbp_guard = {text}\n"
                                  f"dt_order_scaling = {text}\n")
        assert cfg.skip_sbp_guard is flag and cfg.dt_order_scaling is flag


@pytest.mark.parametrize("key, value, what", [
    ("mesh_n", "x", "an integer"), ("order", "2.5", "an integer"),
    ("steps", "", "an integer"), ("cfl", "fast", "a number"),
    ("t_end", "1,5", "a number")])
def test_config_rejects_unreadable_number(key, value, what):
    with pytest.raises(ValueError, match=f"config key '{key}': expected {what}, "
                                         f"got '{value}'"):
        RunConfig.from_text(f"problem = advection2d\n{key} = {value}\n")


def test_solve_rejects_unreadable_number_in_config(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("problem = advection2d\nmesh_n = x\norder = 1\n"
                      "steps = 2\n")
    rc = main(["solve", "--config", str(config),
               "--outdir", str(tmp_path / "s")])
    assert rc == 1
    assert "config key 'mesh_n': expected an integer, got 'x'" in \
        capsys.readouterr().err
    assert not (tmp_path / "s" / "summary.txt").exists()


def test_solve_rejects_misspelt_boolean_in_config(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("problem = advection2d\nmesh_n = 2\norder = 1\n"
                      "steps = 2\nskip_sbp_guard = ture\n")
    rc = main(["solve", "--config", str(config),
               "--outdir", str(tmp_path / "s")])
    assert rc == 1
    assert ("config key 'skip_sbp_guard': expected one of true/false/1/0/yes/no, "
            "got 'ture'") in capsys.readouterr().err
    assert not (tmp_path / "s" / "summary.txt").exists()


def test_solve_rejects_non_finite_mesh_vertex(tmp_path, capsys):
    mesh = tmp_path / "square.mesh"
    assert main(["mesh-gen", "--recipe", "unit_square(2)", "--out", str(mesh)]) == 0
    lines = mesh.read_text().splitlines()
    lines[2] = "nan 0.0"
    mesh.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["solve", "--problem", "advection2d", "--mesh", str(mesh),
               "--steps", "2", "--outdir", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: line 3: bad vertex: coordinate 'nan' is not finite\n"
    assert not (tmp_path / "run" / "summary.txt").exists()


def test_solve_rejects_impossible_mesh_header(tmp_path, capsys):
    mesh = tmp_path / "empty.mesh"
    mesh.write_text("2 0 0 0\n")
    rc = main(["solve", "--problem", "advection2d", "--mesh", str(mesh),
               "--steps", "2", "--outdir", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: line 1: vertex count nv must be at least 1, got 0\n"
    assert not (tmp_path / "run" / "summary.txt").exists()


def test_solve_rejects_singular_mass_before_any_step(tmp_path, capsys,
                                                    monkeypatch):
    steps = []
    real_step = timeint.step
    monkeypatch.setattr(timeint, "step",
                        lambda *a, **k: steps.append(1) or real_step(*a, **k))
    rc = main(["solve", "--problem", "rotation2d", "--mesh-n", "8",
               "--volume-quad", "4", "--steps", "5",
               "--outdir", str(tmp_path / "run")])
    assert rc == 1 and steps == []
    err = capsys.readouterr().err
    assert err.startswith("error: mass matrix is not positive definite: "
                          "smallest / largest pivot of its LDL^T factor is -")
    assert not (tmp_path / "run" / "energy.csv").exists()
    assert not (tmp_path / "run" / "summary.txt").exists()


def test_spectrum_rejects_singular_mass(tmp_path, capsys):
    # an under-integrated mass is no norm, so no verdict is printed
    rc = main(["spectrum", "--problem", "rotation2d", "--mesh-n", "8",
               "--volume-quad", "4", "--outdir", str(tmp_path / "spec")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: mass matrix is not positive definite: ")
    assert not (tmp_path / "spec" / "spectrum.csv").exists()


# sha256 prefixes of the files of runs without a split weight, recorded
# before the weight reached systems, and the files the weight 0.3 changes.
# For constant coefficients and matched rules the split form equals the
# advective form up to roundoff, so r13's energies keep every printed digit.
UNSPLIT_OUTPUTS = {
    "wave1d": (["--cells", "10", "--steps", "5"],
               {"energy.csv": "740a0bb7dd09c0e1",
                "solution_final.csv": "fac767aee28399f2",
                "summary.txt": "46c87807355eeb16"},
               {"energy.csv", "solution_final.csv", "summary.txt"}),
    "r13": (["--mesh-n", "1", "--steps", "3"],
            {"energy.csv": "17c39d53217a4fde",
             "solution_final.vtk": "8ad7af2d4dd77758",
             "summary.txt": "231992ddd4bdde11"},
            {"solution_final.vtk"}),
}


@pytest.mark.parametrize("problem", sorted(UNSPLIT_OUTPUTS))
def test_split_weight_reaches_systems(tmp_path, problem):
    flags, digests, changed = UNSPLIT_OUTPUTS[problem]

    def outputs(name, extra):
        out = tmp_path / name
        assert main(["solve", "--problem", problem, *flags, *extra,
                     "--outdir", str(out)]) == 0
        return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()[:16]
                for f in digests}

    plain = outputs("plain", [])
    assert plain == digests
    split = outputs("split", ["--split-alpha", "0.3"])
    assert {f for f in digests if split[f] != plain[f]} == changed


def test_mesh_gen_roundtrip(tmp_path):
    out = tmp_path / "mesh.txt"
    assert main(["mesh-gen", "--recipe", "unit_square(3)",
                 "--out", str(out)]) == 0
    mesh = load_mesh(out)
    assert mesh.n_elements == 18


def test_mesh_gen_rejects_wrong_argument_count(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    assert main(["mesh-gen", "--recipe", "perturbed_square(3)",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: mesh recipe 'perturbed_square(3)' does not match "
        "perturbed_square(n,seed)\n")
    assert not out.exists()


def test_solve_rejects_mesh_without_problem_tags(tmp_path, capsys):
    mesh = tmp_path / "square.mesh"
    assert main(["mesh-gen", "--recipe", "unit_square(2)", "--out", str(mesh)]) == 0
    capsys.readouterr()
    rc = main(["solve", "--problem", "r13", "--mesh", str(mesh), "--steps", "2",
               "--outdir", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "names boundary tags ['inner', 'outer'] that the mesh lacks" in err


def test_solve_writes_artifacts(tmp_path):
    outdir = tmp_path / "run"
    rc = main(["solve", "--problem", "advection2d", "--mesh-n", "5",
               "--order", "2", "--steps", "10", "--outdir", str(outdir)])
    assert rc == 0
    assert (outdir / "solution_final.vtk").exists()
    assert (outdir / "energy.csv").exists()
    summary = (outdir / "summary.txt").read_text()
    assert "status = completed" in summary
    vtk = (outdir / "solution_final.vtk").read_text().splitlines()
    assert vtk[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in vtk
    energy = (outdir / "energy.csv").read_text().splitlines()
    assert energy[0] == "step,t,energy,umax,umin"
    assert len(energy) == 12      # header + initial + 10 steps


def test_solve_1d_csv(tmp_path):
    outdir = tmp_path / "wv"
    rc = main(["solve", "--problem", "wave1d", "--cells", "20",
               "--order", "2", "--t-end", "0.5", "--outdir", str(outdir)])
    assert rc == 0
    lines = (outdir / "solution_final.csv").read_text().splitlines()
    assert lines[0] == "x,u1,u2"
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    assert xs == sorted(xs)


def test_solve_determinism(tmp_path):
    args = ["solve", "--problem", "advection2d", "--mesh-n", "4",
            "--order", "1", "--steps", "5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--outdir", str(out1)]) == 0
    assert main(args + ["--outdir", str(out2)]) == 0
    for name in ("energy.csv", "solution_final.vtk", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_spectrum_command(tmp_path):
    outdir = tmp_path / "spec"
    rc = main(["spectrum", "--problem", "advection2d", "--mesh-n", "4",
               "--order", "1", "--outdir", str(outdir)])
    assert rc == 0
    lines = (outdir / "spectrum.csv").read_text().splitlines()
    assert lines[1] == "# verdict = stable"
    # paired +-lambda columns without the penalty
    rows = [l.split(",") for l in lines[3:]]
    for r in rows:
        assert abs(float(r[0]) + float(r[1])) < 1e-10


def test_spectrum_mismatch_unstable(tmp_path):
    outdir = tmp_path / "spec2"
    rc = main(["spectrum", "--problem", "advection2d", "--mesh-n", "4",
               "--order", "3", "--edge-quad", "5", "--outdir", str(outdir)])
    assert rc == 2
    assert "# verdict = unstable" in (outdir / "spectrum.csv").read_text()


def test_spectrum_fine_rotation_certified(tmp_path, capsys):
    """22 969 DoFs, over the dense cap: only the boundary block is solved."""
    outdir = tmp_path / "rot"
    rc = main(["spectrum", "--problem", "rotation2d", "--mesh-n", "29",
               "--outdir", str(outdir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict = stable" in out
    support = next(l for l in out.splitlines() if l.startswith("support"))
    assert support.startswith("support = 522 of 22969 unknowns, dropped <= ")
    assert "# verdict = stable" in (outdir / "spectrum.csv").read_text()


def test_spectrum_block_over_cap_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(spectra, "DENSE_EIG_CAP", 5)
    rc = main(["spectrum", "--problem", "advection2d", "--mesh-n", "4",
               "--order", "1", "--outdir", str(tmp_path / "cap")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("error: dense eigensolver capped at 5 unknowns; "
                   "the eigenproblem has 10\n")


def test_config_file_plus_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem = advection2d\nmesh_n = 4\norder = 1\n"
                       "steps = 3\n")
    outdir = tmp_path / "out"
    rc = main(["solve", "--config", str(cfgfile), "--steps", "4",
               "--outdir", str(outdir)])
    assert rc == 0
    assert "steps = 4" in (outdir / "summary.txt").read_text()


def test_convergence_command(tmp_path):
    outdir = tmp_path / "conv"
    rc = main(["convergence", "--problem", "sine_advection2d", "--order", "1",
               "--mesh-n", "4", "--levels", "3", "--t-end", "0.1",
               "--outdir", str(outdir)])
    assert rc == 0
    text = (outdir / "convergence.csv").read_text()
    assert text.startswith("h,L1,L2_M")
    assert "# slopes:" in text


@pytest.mark.parametrize("args, message", [
    (["--problem", "wave1d", "--cells", "100"],
     "problem wave1d has no exact solution"),
    (["--problem", "r13", "--mesh-n", "2"], "problem r13 has no exact solution")],
    ids=["wave1d", "r13"])
def test_convergence_rejects_problem_without_exact_solution_before_marching(
        tmp_path, capsys, monkeypatch, args, message):
    def no_march(*a, **k):
        raise AssertionError("marched a problem whose error cannot be measured")
    monkeypatch.setattr(cli, "solve_problem", no_march)
    rc = main(["convergence", *args, "--outdir", str(tmp_path / "conv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "conv").exists()


def test_convergence_rejects_a_mesh_file_before_discretizing(
        tmp_path, capsys, monkeypatch):
    # each level refines the generated mesh; a mesh file would be loaded
    # unchanged at every level
    mesh = tmp_path / "sq.mesh"
    assert main(["mesh-gen", "--recipe", "unit_square(4)",
                 "--out", str(mesh)]) == 0
    capsys.readouterr()

    def no_discretize(*a, **k):
        raise AssertionError("discretized a level of a fixed mesh")
    monkeypatch.setattr(cli, "discretize", no_discretize)
    rc = main(["convergence", "--problem", "sine_advection2d", "--mesh",
               str(mesh), "--levels", "3", "--outdir", str(tmp_path / "conv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--mesh" in err
    assert not (tmp_path / "conv").exists()


@pytest.mark.parametrize("levels", ["2", "-1"])
def test_convergence_refuses_too_few_levels(tmp_path, capsys, levels):
    rc = main(["convergence", "--problem", "sine_advection2d", "--levels",
               levels, "--outdir", str(tmp_path / "conv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: convergence fits orders over at least 3 refinement levels, "
        f"got --levels {levels}\n")
    assert not (tmp_path / "conv").exists()


CONVERGENCE = ["convergence", "--problem", "sine_advection2d", "--mesh-n", "2",
               "--levels", "3"]


def _convergence_csv(tmp_path, name, flags):
    out = tmp_path / name
    assert main(CONVERGENCE + flags + ["--outdir", str(out)]) == 0
    return (out / "convergence.csv").read_bytes()


# the mismatch study's settings: projected data, an unscaled step and an
# edge rule that breaks the integration-by-parts identity
@pytest.mark.parametrize("flags", [
    ["--init", "project"], ["--no-dt-order-scaling"],
    ["--edge-quad", "3", "--skip-sbp-guard"]],
    ids=["init", "dt-order-scaling", "mismatched-edge-rule"])
def test_convergence_honours_march_settings(tmp_path, flags):
    assert _convergence_csv(tmp_path, "set", flags) != \
        _convergence_csv(tmp_path, "plain", [])


def test_convergence_refuses_a_step_count(tmp_path, capsys, monkeypatch):
    def no_march(*a, **k):
        raise AssertionError("marched with a fixed step count")
    monkeypatch.setattr(cli, "solve_problem", no_march)
    rc = main(CONVERGENCE + ["--steps", "1", "--outdir", str(tmp_path / "c")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--steps" in err
    assert not (tmp_path / "c").exists()


def test_convergence_names_a_level_whose_march_stops(tmp_path, capsys):
    # the coarsest level's nodal maximum is 1.566; the exact one is 1
    rc = main(CONVERGENCE + ["--amplitude-limit", "1.2",
                             "--outdir", str(tmp_path / "c")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: level n=2: the march ended aborted at step ")
    assert not (tmp_path / "c" / "convergence.csv").exists()


def test_solve_and_convergence_march_with_the_same_settings(tmp_path,
                                                            monkeypatch):
    seen = []

    class Stop(Exception):
        pass

    def spy(problem, disc, **settings):
        seen.append((disc.dofmap.n_dofs, settings))
        raise Stop
    monkeypatch.setattr(cli, "solve_problem", spy)
    cfg = RunConfig(problem="sine_advection2d", mesh_n=2, edge_quad=3,
                    scheme="SSPRK33", cfl=0.2, t_end=0.1, amplitude_limit=9.0,
                    init="project", dt_order_scaling=False,
                    skip_sbp_guard=True, outdir=str(tmp_path / "out"))
    for cmd in (cli.cmd_solve, cli.cmd_convergence):
        with pytest.raises(Stop):
            cmd(cfg)
    assert seen[0] == seen[1]
    assert seen[0][1] == {
        "cfl": 0.2, "t_end": 0.1, "steps": None, "scheme": "SSPRK33",
        "amplitude_limit": 9.0, "initial": "project",
        "dt_order_scaling": False, "skip_sbp_guard": True}


@pytest.mark.parametrize("command", ["solve", "spectrum", "dump-operators"])
@pytest.mark.parametrize("flags, keys", [
    (["--mesh-n", "50"], "mesh_n"), (["--seed", "3"], "seed"),
    (["--cells", "50", "--seed", "3"], "mesh_n and seed")],
    ids=["mesh-n", "seed", "both"])
def test_mesh_file_refuses_a_generator_setting(tmp_path, capsys, monkeypatch,
                                                command, flags, keys):
    mesh = tmp_path / "line.mesh"
    assert main(["mesh-gen", "--recipe", "interval(10)",
                 "--out", str(mesh)]) == 0
    capsys.readouterr()

    def no_discretize(*a, **k):
        raise AssertionError("discretized despite the clash")
    monkeypatch.setattr(cli, "discretize", no_discretize)
    rc = main([command, "--problem", "wave1d", "--mesh", str(mesh), *flags,
               "--steps", "3", "--outdir", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: mesh_file and {keys} both given; the mesh file fixes the "
        f"mesh\n")
    assert not (tmp_path / "run" / "summary.txt").exists()


def _dump_sbp_lines(tmp_path, capsys, problem):
    outdir = tmp_path / "ops"
    rc = main(["dump-operators", "--problem", problem, "--mesh-n", "2",
               "--order", "1", "--outdir", str(outdir)])
    assert rc == 0
    for name in ("M.mtx", "Q.mtx", "Bq.mtx", "Pi.mtx"):
        head = (outdir / name).read_text().splitlines()[0]
        assert head.startswith("%%MatrixMarket matrix coordinate")
    checks = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("SBP check")]
    assert all(l.endswith("-> PASS") for l in checks)
    return checks


def test_dump_operators(tmp_path, capsys):
    assert len(_dump_sbp_lines(tmp_path, capsys, "advection2d")) == 1


def test_dump_operators_system_checks_each_direction(tmp_path, capsys):
    # r13 has one flux group, so one scalar SBP check, per coordinate direction
    assert len(_dump_sbp_lines(tmp_path, capsys, "r13")) == 2


def test_seed_rejected_for_deterministic_problem(tmp_path, capsys):
    rc = main(["solve", "--problem", "advection2d", "--mesh-n", "4",
               "--order", "1", "--steps", "2", "--seed", "5",
               "--outdir", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed 5 given, but only wave1d takes one")
    assert not (tmp_path / "s" / "summary.txt").exists()


@pytest.mark.parametrize("flags,recipe", [
    (["--seed", "0"], "interval(100,random,0)"),
    ([], "interval(100)")])
def test_solve_seed_selects_wave_spacing(tmp_path, capsys, monkeypatch,
                                         flags, recipe):
    seen = []

    def stop(prob, **kwargs):
        seen.append(prob.mesh_recipe)
        raise RuntimeError("stop before discretizing")

    monkeypatch.setattr(cli, "discretize", stop)
    assert main(["solve", "--problem", "wave1d", "--steps", "1",
                 "--outdir", str(tmp_path / "s")] + flags) == 1
    assert "stop before discretizing" in capsys.readouterr().err
    assert seen == [recipe]


def test_mesh_gen_rejects_unseeded_random_spacing(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    assert main(["mesh-gen", "--recipe", "interval(4,random)",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: random spacing needs a seed\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--t-end", "-1"], "t_end -1.0 is not positive"),
    (["--steps", "-2"], "steps must be at least 1"),
    (["--amplitude-limit", "-1"], "amplitude_limit must be positive"),
    (["--sat-scale", "nan"], "SAT scale factor nan must be finite and > 1/2"),
    (["--sat-scale", "inf"], "SAT scale factor inf must be finite and > 1/2"),
    (["--split-alpha", "nan"], "split weight alpha = nan is not finite"),
    (["--problem", "r13", "--steps", "3", "--sat-scale", "0"],
     "SAT scale factor 0.0 must be finite and >= 1"),
    (["--t-end", "inf"], "t_end inf is not finite"),
    # a 1D face is one point, but the edge rule is checked all the same
    (["--problem", "wave1d", "--cells", "10", "--steps", "5", "--edge-quad", "99"],
     "quadrature degree 99 outside the supported range 1..8"),
    (["--problem", "wave1d", "--cells", "10", "--steps", "5", "--edge-quad", "-3"],
     "quadrature degree -3 outside the supported range 1..8"),
    (["--cfl", "inf"], "cfl must be positive and finite, got inf"),
    (["--problem", "wave1d", "--cells", "10", "--steps", "5", "--split-alpha", "nan"],
     "split weight alpha = nan is not finite"),
    # a step count fixes the end time, so t_end would be dropped unread
    (["--steps", "2", "--t-end", "-1"],
     "steps 2 and t_end -1.0 both given; the step count fixes the end time")])
def test_solve_rejects_meaningless_march(tmp_path, capsys, flags, message):
    rc = main(["solve", "--problem", "advection2d", "--mesh-n", "2",
               "--order", "1", "--outdir", str(tmp_path / "s")] + flags)
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s" / "summary.txt").exists()


def test_scalar_penalty_takes_a_scale_above_one_half(tmp_path, capsys):
    # s = 0.75 is admissible for the inflow penalty; the system penalties
    # keep s >= 1 until the bound with reflections is derived
    out = tmp_path / "adv"
    assert main(["solve", "--problem", "advection2d", "--mesh-n", "2",
                 "--order", "1", "--steps", "3", "--sat-scale", "0.75",
                 "--outdir", str(out)]) == 0
    assert (out / "summary.txt").exists()
    for flags in (["--problem", "wave1d", "--cells", "10"],
                  ["--problem", "r13", "--mesh-n", "1"]):
        rc = main(["solve", *flags, "--steps", "3", "--sat-scale", "0.75",
                   "--outdir", str(tmp_path / "sys")])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: SAT scale factor 0.75 must be finite and >= 1\n"
    assert not (tmp_path / "sys" / "summary.txt").exists()


def test_solve_rejects_misspelt_init_in_config(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("problem = advection2d\nmesh_n = 2\norder = 1\n"
                      "steps = 2\ninit = projct\n")
    rc = main(["solve", "--config", str(config),
               "--outdir", str(tmp_path / "s")])
    assert rc == 1
    assert "initial must be 'interp' or 'project', got 'projct'" in \
        capsys.readouterr().err


def test_unknown_problem_fails_cleanly(tmp_path):
    rc = main(["solve", "--problem", "nonexistent",
               "--outdir", str(tmp_path / "x")])
    assert rc == 1


# the cheapest run of each command that would succeed
COMMANDS = {
    "solve": ["--problem", "advection2d", "--mesh-n", "2", "--order", "1",
              "--steps", "2"],
    "spectrum": ["--problem", "advection2d", "--mesh-n", "2", "--order", "1"],
    "dump-operators": ["--problem", "advection2d", "--mesh-n", "2",
                       "--order", "1"],
    "convergence": ["--problem", "sine_advection2d", "--mesh-n", "2",
                    "--levels", "3", "--t-end", "0.1"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("flags", [
    ["--order", "9"], ["--basis", "foo"], ["--scheme", "RK4"],
    ["--init", "foo"], ["--mesh-n", "abc"], ["--wibble"]],
    ids=["order", "basis", "scheme", "init", "mesh-n", "unknown-flag"])
def test_every_refusal_exits_1_and_writes_nothing(tmp_path, capsys, command,
                                                  flags):
    # argparse parses only and the library refuses, so exit 2 stays
    # reserved for an unstable `spectrum` verdict
    out = tmp_path / "out"
    rc = main([command, *COMMANDS[command], *flags, "--outdir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    flag, value = flags[0], flags[-1]
    assert err.startswith("error: ")
    assert value in err or flag.lstrip("-") in err      # the value or the key
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    ([], "error: the following arguments are required: command\n"),
    (["mesh-gen", "--recipe", "interval(2)"],
     "error: the following arguments are required: --out\n"),
    (["mesh-gen", "--recipe", "interval(2)", "--out", "x.mesh", "--wibble"],
     "error: unrecognized arguments: --wibble\n"),
    (["solve", "--cfl", "fast"],
     "error: argument --cfl: invalid float value: 'fast'\n")],
    ids=["no-command", "missing-flag", "unknown-flag", "bad-float"])
def test_parse_errors_exit_1(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["spectrum", "dump-operators"])
@pytest.mark.parametrize("flags, keys", [
    (["--scheme", "SSPRK33"], "scheme"), (["--cfl", "0.3"], "cfl"),
    (["--t-end", "1"], "t_end"), (["--steps", "3"], "steps"),
    (["--amplitude-limit", "2"], "amplitude_limit"),
    (["--init", "project"], "init"),
    (["--no-dt-order-scaling"], "dt_order_scaling"),
    (["--skip-sbp-guard"], "skip_sbp_guard"),
    (["--cfl", "-3", "--steps", "0"], "cfl and steps")],
    ids=["scheme", "cfl", "t-end", "steps", "amplitude-limit", "init",
         "dt-order-scaling", "skip-sbp-guard", "cfl-and-steps"])
def test_non_marching_commands_refuse_march_settings(
        tmp_path, capsys, monkeypatch, command, flags, keys):
    def no_discretize(*a, **k):
        raise AssertionError("discretized a run whose settings are refused")
    monkeypatch.setattr(cli, "discretize", no_discretize)
    out = tmp_path / "out"
    rc = main([command, *COMMANDS[command], *flags, "--outdir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: {keys} given, but this command does not march\n"
    assert not out.exists()


def test_non_marching_commands_refuse_march_keys_in_config(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("problem = advection2d\nmesh_n = 2\norder = 1\n"
                      "init = interp\nt_end = 0.5\n")      # interp: the default
    rc = main(["spectrum", "--config", str(config),
               "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: t_end given, but this command does not march\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "wave1d", "--sat-scale", "0.75"],
    ["spectrum", "--problem", "advection2d", "--mesh-n", "2", "--order", "3",
     "--volume-quad", "4"],
    ["dump-operators", "--problem", "r13", "--mesh-n", "1", "--sat-scale",
     "0.5"],
    CONVERGENCE + ["--amplitude-limit", "1.2"]],
    ids=["solve", "spectrum", "dump-operators", "convergence"])
def test_a_refused_run_makes_no_output_directory(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--outdir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_convergence_refuses_mesh_n_0(tmp_path, capsys, monkeypatch):
    # at n = 0 every level has n = 0: no default resolution stands in
    def no_march(*a, **k):
        raise AssertionError("marched a level of an empty mesh")
    monkeypatch.setattr(cli, "solve_problem", no_march)
    rc = main(["convergence", "--problem", "sine_advection2d", "--mesh-n", "0",
               "--levels", "3", "--outdir", str(tmp_path / "c")])
    assert rc == 1
    assert capsys.readouterr().err == "error: need n >= 1\n"
    assert not (tmp_path / "c").exists()


def test_aborted_solve_still_writes_its_files(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["solve", "--problem", "sine_advection2d", "--mesh-n", "2",
               "--t-end", "0.5", "--amplitude-limit", "1.2",
               "--outdir", str(out)])
    assert rc == 1
    assert "status = aborted" in (out / "summary.txt").read_text()
    assert (out / "energy.csv").exists()

