"""cgsat benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/bench.py --workload wave1d-march --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` as
it stands, nothing is installed.  ``--trace 0`` prints the end-to-end
metrics (medians over the jobs of the run, scaled to a nominal host speed);
``--trace 1`` alternates untraced and traced jobs and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the machine, the inputs and each job.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys

# One process with one BLAS thread, and no transparent huge pages for
# numpy's large arrays: their allocation time depends on how fragmented the
# host's memory is, which made set-up times vary by a fifth from run to run.
# Both are read when numpy is first imported, so they are set here.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# tracer.py and workloads.py import cgsat, so they are imported inside the
# functions below, after import_program() has put src/ on the path.

# Set-up-only reps: a warm-up block before the first job, then a block
# after each job until the reps have taken a tenth of the elapsed time.
# The host's speed flips between fast and slow phases a few seconds long,
# so reps spread over the run give a steadier median than one block at the
# start.
SETUP_WARMUP_S = 0.5
SETUP_SHARE = 0.1
SETUP_MAX_REPS = 1000


def import_program():
    """Put the checkout's ``src/`` first on the path and import cgsat."""
    if not os.path.isfile(os.path.join(SRC, "cgsat", "__init__.py")):
        raise SystemExit(f"bench: no cgsat sources under {SRC}")
    sys.path.insert(0, SRC)
    import cgsat
    if not os.path.abspath(cgsat.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: cgsat imported from {cgsat.__file__}")


def machine_info():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS),
            "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"]}


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Runner:
    """Runs jobs of one workload and keeps their timings and checks."""

    def __init__(self, workload, inputs, scratch, speed):
        self.workload = workload
        self.inputs = inputs
        self.scratch = scratch
        self.speed = speed       # HostSpeed, sampled between job parts
        self.jobs = []           # one dict per job
        self.problems = []       # (job number, message)
        self.selftest = None     # (flagged, total)

    def run_parts(self, clock, outdir, parts):
        """Run one job and check its result, part by part.

        Each part's start, end and phase times go into ``parts``; the host
        speed is sampled after each part, outside the part's time.
        """
        job = self.workload.job(self.inputs, outdir, clock)
        while True:
            phases = dict(clock.phases)
            t0 = perf_counter()
            try:
                next(job)
                res = None
            except StopIteration as stop:
                res = stop.value
                bad = self.workload.check(res)
            t1 = perf_counter()
            parts.append({"start": t0, "end": t1, "wall": t1 - t0,
                          **{k: clock.phases[k] - phases[k] for k in phases}})
            self.speed.sample()
            if res is not None:
                return res, bad

    def run_job(self, tracer=None):
        from tracer import COUNT_METRICS, layer_metrics
        from workloads import Clock
        number = len(self.jobs) + 1
        outdir = os.path.join(self.scratch, f"job{number}")
        clock = Clock()
        res, bad, parts = None, [], []
        gc.collect()
        t0 = perf_counter()
        try:
            with tracer if tracer is not None else nullcontext():
                res, bad = self.run_parts(clock, outdir, parts)
        except Exception:          # a job that raises is a failed job
            bad = ["raised:\n" + traceback.format_exc()]
        job = {"elapsed": perf_counter() - t0, "traced": tracer is not None,
               "parts": parts}
        for key in ("wall", "setup", "work"):
            job[key] = sum(p[key] for p in parts)
        wall = job["wall"]
        if res is not None and tracer is not None:
            counts = dict(res["counts"], output_bytes=_dir_bytes(outdir))
            job["layers"] = layer_metrics(tracer, counts)
            bad += self.cross_check(job["layers"], res)
            first = next((j for j in self.jobs if "layers" in j), None)
            if first is not None:
                bad += [f"count {k} = {job['layers'][k]}, first traced job "
                        f"had {first['layers'][k]}" for k in COUNT_METRICS
                        if job["layers"][k] != first["layers"][k]]
        if res is not None and self.selftest is None and not bad:
            self.run_selftest(res)
        job["ok"] = not bad
        job["steps"] = res.get("steps", 0) if res is not None else 0
        self.problems += [(number, msg) for msg in bad]
        self.jobs.append(job)
        kind = "traced" if tracer is not None else "job"
        print(f"{kind} {number}: {len(parts)} parts, wall {wall:.4f} s, "
              f"setup {job['setup']:.4f} s, work {job['work']:.4f} s, "
              f"{'ok' if job['ok'] else 'FAILED'}", flush=True)
        for msg in bad:
            print(f"  check failed: {msg}", file=sys.stderr)

    def cross_check(self, m, res):
        """Exact counts the traced run must reproduce."""
        w = self.workload
        expected = {
            "timeint.rhs_evals": res.get("rhs_evals", 0),
            "timeint.mass_solve_calls": m["timeint.rhs_evals"],
            "sat.data_calls": m["timeint.rhs_evals"] if w.data_driven else 0,
            "spectra.eig_calls": w.eig_calls,
            "timeint.steps": res.get("steps", 0),
        }
        return [f"count {k} = {m[k]}, expected {v}"
                for k, v in expected.items() if m[k] != v]

    def run_selftest(self, res):
        """Each corrupted copy of a good result must fail its check."""
        cases = self.workload.corruptions(res)
        missed = [label for label, bad in cases if not self.workload.check(bad)]
        self.selftest = (len(cases) - len(missed), len(cases))
        for label in missed:
            self.problems.append((0, f"self-test: {label} not flagged"))


def median(values):
    return statistics.median(values) if values else 0.0


def measure(runner, seconds, trace):
    from tracer import Tracer
    from workloads import Clock, discretize_all
    speed = runner.speed
    t0 = perf_counter()
    speed.sample()
    setup = []                  # (seconds, start, end) per set-up rep

    def setup_reps(target_s):
        """One block of reps; the host speed is sampled after it."""
        count = len(setup)
        while len(setup) < SETUP_MAX_REPS and \
                (not setup or sum(s for s, _, _ in setup) < target_s):
            clock = Clock()
            start = perf_counter()
            discretize_all(runner.inputs, clock)
            setup.append((clock.phases["setup"], start, perf_counter()))
        if len(setup) > count:
            speed.sample()

    setup_reps(SETUP_WARMUP_S)
    # Start another job while it should end within the run's time, judged
    # by the last job; a traced run needs one untraced and one traced job.
    while True:
        traced = trace and len(runner.jobs) % 2 == 1
        runner.run_job(Tracer() if traced else None)
        setup_reps(SETUP_SHARE * (perf_counter() - t0))
        expected_end = perf_counter() - t0 + runner.jobs[-1]["elapsed"]
        if expected_end > seconds and (not trace or len(runner.jobs) >= 2):
            break
    index = [i for _, i in speed.samples]
    print(f"host index: {len(index)} samples, median {median(index):.4f}, "
          f"range {min(index):.4f}-{max(index):.4f}", flush=True)
    plain = [j for j in runner.jobs if not j["traced"]]
    raw_setup = [s for s, _, _ in setup] + [j["setup"] for j in plain]
    print(f"unscaled medians: set-up {median(raw_setup):.4f} s over "
          f"{len(setup)} reps and {len(plain)} jobs, " + ", ".join(
              f"{key} {median([j[key] for j in plain]):.4f} s"
              for key in ("wall", "work")), flush=True)

    def scaled(job, key):
        return sum(speed.scaled(p[key], p["start"], p["end"])
                   for p in job["parts"])

    setup_scaled = [speed.scaled(*rep) for rep in setup] + \
        [scaled(j, "setup") for j in plain]
    e2e = {
        "wall_s": median([scaled(j, "wall") for j in plain]),
        "setup_s": median(setup_scaled),
        "work_s": median([scaled(j, "work") for j in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    layers = {}
    traced = [j["layers"] for j in runner.jobs if "layers" in j]
    if traced:
        from tracer import COUNT_METRICS
        for key in traced[0]:
            layers[key] = traced[0][key] if key in COUNT_METRICS else \
                median([m[key] for m in traced])
        layers["trace.overhead_s"] = \
            median([j["wall"] for j in runner.jobs if j["traced"]]) - \
            median([j["wall"] for j in runner.jobs if not j["traced"]])
    return e2e, layers


def report(runner, e2e, layers, trace, units):
    jobs = runner.jobs
    failed = sum(not j["ok"] for j in jobs)
    steps = max((j["steps"] for j in jobs), default=0)
    lines = [f"jobs: {len(jobs)} attempted, {failed} failed "
             f"(failed_frac {failed / len(jobs):.4f})"]
    if runner.selftest is not None:
        lines.append("self-test: {} of {} corrupted results flagged"
                     .format(*runner.selftest))
    for key, value in e2e.items():
        lines.append(f"{key} = {value:.6g} {units[key]}")
    if steps:
        lines.append(f"march_us_per_step = {e2e['work_s'] / steps * 1e6:.6g}"
                     f" us ({steps} steps per job)")
    if trace:
        lines += [f"{key} = {value:.6g} {units[key]}"
                  for key, value in layers.items()]
    print("\n".join(lines))
    metrics = layers if trace else e2e
    selftest_ok = runner.selftest is not None and \
        runner.selftest[0] == runner.selftest[1]
    return {"correct": failed == 0 and selftest_ok and not runner.problems,
            "attempted": len(jobs), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def seed_arg(text):
    """Seeds feed numpy generators, which reject negative values."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=seed_arg, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    workload = WORKLOADS[args.workload]
    print("machine: " + json.dumps(machine_info()))
    print(f"workload: {workload.name} seed {args.seed}: " + "; ".join(
        label for label, *_ in workload.make_inputs(args.seed)))
    run_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run_dir) as scratch:
        from hostspeed import HostSpeed
        runner = Runner(workload, workload.make_inputs(args.seed), scratch,
                        HostSpeed(workload.reference))
        e2e, layers = measure(runner, args.seconds, bool(args.trace))
    result = report(runner, e2e, layers, bool(args.trace), units)
    for number, msg in runner.problems:
        print(f"problem (job {number}): {msg.splitlines()[0]}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
