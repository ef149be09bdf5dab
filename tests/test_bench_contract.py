"""What the benchmark in bench/ relies on: the names its tracer wraps, and a
few runs, traced and untraced, that check their own results."""

import json
import os
import subprocess
import sys

import pytest

from cgsat import output, problems, sat, spectra, timeint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def test_tracer_wraps_names_that_exist_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracer
    modules = (output, problems, sat, spectra, timeint, sat.BoundaryOperator)
    before = [dict(vars(m)) for m in modules]
    with tracer.Tracer() as tr:
        for prob in (problems.wave_1d(n=4), problems.r13_heat(1),
                     problems.advection_2d(n=2, order=1)):
            problems.discretize(prob)
    _, _, calls = tr.layer_totals()
    assert {"mesh.generate", "mesh.dofmap", "assembly.operators", "sat.build",
            "problems.interpolate", "problems.value_op"} <= set(calls)
    for m, names in zip(modules, before):
        assert all(vars(m).get(k) is v for k, v in names.items()), m


def _bench_result(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "bench.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr


def test_traced_certify_run_is_correct():
    _bench_result("--workload", "certify", "--seconds", "0.1", "--trace", "1")


@pytest.mark.slow      # 1.8-2.8 s
def test_traced_march_keeps_the_per_stage_counts():
    # the runner's cross-check: one matvec, one G(t) call and one mass
    # solve per stage, stages x steps of each
    _bench_result("--workload", "wave1d-march", "--seconds", "0.1",
                  "--trace", "1")


# wave1d-march's checker reads characteristic_decompose(...).X,
# rotation-march's checker reads the march that solve_problem hands run,
# assemble-large builds r13_heat(24) through the accommodation penalty, and
# certify's measured run is the untraced one
@pytest.mark.parametrize("workload", ["wave1d-march", "rotation-march",
                                      "assemble-large", "certify"])
def test_untraced_run_is_correct(workload):
    _bench_result("--workload", workload, "--seconds", "0.1")
