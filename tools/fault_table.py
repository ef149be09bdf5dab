"""Fault table: which tests catch each of a fixed set of hand mutations.

A digest pin keeps bits; it does not say that the bits are right.  This
script shows which property tests stand behind the pins.  Each mutation is
one (file, old text, new text) replacement.  The script copies ``src``,
``tests``, ``bench``, ``pyproject.toml`` and ``BENCHMARK.json`` to a
temporary directory and runs the quick loop (``pytest -m "not slow"``)
there once as it is and once per mutation.  It prints a Markdown table:
per mutation the number of tests it fails, how many of them are digest
pins, and the failing tests that are not.  A mutation whose old text does
not occur exactly once is an error, so a refactor cannot silently turn a
mutation into a no-op.

    python tools/fault_table.py [--repo DIR] [m1 m3 ...]

Each run of the quick loop takes about 20 s on a 2-vCPU host.  The file
has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

MUTATIONS = {
    "m1": ("test matrix penalty factor 2 -> 1", "src/cgsat/spectra.py",
           "P *= 2.0", "P *= 1.0"),
    "m2": ("scalar scale rule s > 1/2 -> s > 0.3", "src/cgsat/sat.py",
           "scale > 0.5", "scale > 0.3"),
    "m3": ("R13_SHIFT -2 -> -0.25 (inadmissible)", "src/cgsat/sat.py",
           "R13_SHIFT = -2.0", "R13_SHIFT = -0.25"),
    "m4": ("R -> -R in build_pi_system", "src/cgsat/sat.py",
           "(xm.T - R @ xp.T)", "(xm.T + R @ xp.T)"),
    "m5": ("SSPRK54's first beta -> 0.3917", "src/cgsat/timeint.py",
           "[0.391752226571890]", "[0.3917]"),
    "m6": ("symmetrizer dropped from build_pi_system", "src/cgsat/sat.py",
           "decomp.p_sqrt @ core @ (xm.T - R @ xp.T) @ decomp.p_inv_sqrt",
           "core @ (xm.T - R @ xp.T)"),
    "m7": ("sign of G(t) flipped", "src/cgsat/sat.py",
           "fq.basis.T, -w[:, :, None]", "fq.basis.T, w[:, :, None]"),
    "m8": ("SBP boundary residual without the boundary-column filter",
           "src/cgsat/assembly.py", "(Sb - Bq[b])[:, b].data",
           "(Sb - Bq[b]).data"),
    "m9": ("the march judges step 0", "src/cgsat/timeint.py",
           "fails[0] &= first > 0", "fails[0] &= True"),
    "m10": ("the march ends at the last failing state of a block, not the "
            "first", "src/cgsat/timeint.py",
            "blowup_step = first + int(np.argmax(fails))",
            "blowup_step = first + len(fails) - 1 "
            "- int(np.argmax(fails[::-1]))"),
    "m11": ("fold rule off: overlapping elements are not refused",
            "src/cgsat/mesh.py", "(counts > 2) | (counts == 2) & (",
            "(counts > 2) | False & ("),
    "m12": ("the DoF map numbers edges in sorted-key order, not by first "
            "appearance", "src/cgsat/mesh.py",
            "rank[inverse].reshape(-1, dim + 1)",
            "inverse.reshape(-1, dim + 1)"),
    "m13": ("an unmatched entry of Q counts in its own row only, not in its "
            "column's", "src/cgsat/assembly.py",
            "inner[rows_u] | inner[indices[unmatched]]", "inner[rows_u]"),
}

# tests that compare with digests or hex floats recorded from earlier code
PINS = (
    "tests/test_report_pins.py::",
    "tests/test_problems.py::test_system_penalties_keep_every_bit",
    "tests/test_problems.py::test_each_setting_has_one_home",
    "tests/test_assembly.py::test_constant_coefficient_operators_keep_every_bit",
    "tests/test_assembly.py::test_split_form_operators_keep_every_bit",
    "tests/test_mesh.py::test_generated_meshes_keep_every_bit",
    "tests/test_cli.py::test_split_weight_reaches_systems",
)

COPIED = ("src", "tests", "bench", "pyproject.toml", "BENCHMARK.json")


def check_mutations(repo: str, names) -> None:
    """Raise unless each named mutation's old text occurs exactly once."""
    for name in names:
        if name not in MUTATIONS:
            raise SystemExit(f"unknown mutation {name!r}")
        _, path, old, _ = MUTATIONS[name]
        with open(os.path.join(repo, path)) as fh:
            count = fh.read().count(old)
        if count != 1:
            raise SystemExit(f"{name}: {old!r} occurs {count} times in "
                             f"{path}, not once")


def failing_tests(tree: str) -> set:
    """Ids of the quick-loop tests that fail or error in ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "not slow", "-q", "-rfE",
         "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {m.group(1) for m in
            re.finditer(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout,
                        re.M)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"mutations to apply (default: all of "
                             f"{', '.join(MUTATIONS)})")
    args = parser.parse_args(argv)
    args.names = args.names or list(MUTATIONS)
    check_mutations(args.repo, args.names)
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "repo")
        os.mkdir(tree)
        for item in COPIED:
            src = os.path.join(args.repo, item)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(tree, item),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, tree)
        clean = failing_tests(tree)
        print(f"unmutated: {len(clean)} failing"
              + "".join(f"\n  {t}" for t in sorted(clean)))
        print("\n| mutation | fault | failures | pins | non-pin tests that fail |")
        print("|---|---|---|---|---|")
        for name in args.names:
            what, path, old, new = MUTATIONS[name]
            target = os.path.join(tree, path)
            with open(target) as fh:
                text = fh.read()
            with open(target, "w") as fh:
                fh.write(text.replace(old, new))
            try:
                failed = failing_tests(tree) - clean
            finally:
                with open(target, "w") as fh:
                    fh.write(text)
            pins = {t for t in failed if t.startswith(PINS)}
            rest = ", ".join(f"`{t.split('::', 1)[1]}`"
                             for t in sorted(failed - pins)) or "none"
            print(f"| {name} | {what} | {len(failed)} | {len(pins)} | {rest} |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
