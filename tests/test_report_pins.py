"""Bit-level pins of the spectrum reports.

Every ``SpectrumReport`` field that reaches the certify CSVs and the
``cgsat spectrum`` verdict is pinned for the benchmark's four certify
discretizations at seeds 0 and 7919, and for criterion 3's ``interval(2)``
P1 case at tau = -1.  Each eigenvalue column is pinned by the first 16 hex
digits of the sha256 of its float64 bytes; ``support``, ``dropped``,
``max_interior_residual`` and ``verdict`` are pinned exactly.  A change of
the test-matrix formula must re-pin them knowingly.
"""

import hashlib
import os

import numpy as np
import pytest

from cgsat.assembly import build_operators, face_quadrature
from cgsat.mesh import build_dofmap, generate_mesh
from cgsat.problems import discretize
from cgsat.sat import scalar_sat_2d
from cgsat.spectra import build_spectrum_report

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
COLUMNS = ("neg_no_sat", "pos_no_sat", "neg_sat", "pos_sat")
ZEROS = "5b6fb58e61fa4759"      # ten exact zeros

CERTIFY_PINS = {
    (0, "advection-matched"): (
        ("311abbde4c711250", "bb547012265d5be5", "312eaa5b37aed58f", ZEROS),
        50, 1.9205388591225919e-16, 1.9081958235744878e-17, "stable"),
    (0, "advection-edge5"): (
        ("311abbde4c711250", "bb547012265d5be5", "9e612244d7b67276",
         "cd2c6933b624c795"),
        50, 1.9205388591225919e-16, 1.9081958235744878e-17, "unstable"),
    (0, "rotation"): (
        ("32144e018881cd73", "b59fda768ec226ae", "58b2f2006ed1dff0", ZEROS),
        90, 0.0, 0.0, "stable"),
    (0, "wave-random"): (
        ("fa357fe6a8e77768", "9ef2c98fd3af5cad", "9c08f19fdcce2bdd", ZEROS),
        4, 2.6286332546623025e-14, 7.771561172376096e-16, "stable"),
    (7919, "advection-matched"): (
        ("9d270f07dc4ed0b2", "4260c53b69f4f9c8", "d71e71c6a499c119", ZEROS),
        50, 1.9394303553941778e-16, 1.9081958235744878e-17, "stable"),
    (7919, "advection-edge5"): (
        ("9d270f07dc4ed0b2", "4260c53b69f4f9c8", "00692293bd5b2882",
         "e6b61c6ba06f917f"),
        50, 1.9394303553941778e-16, 1.9081958235744878e-17, "unstable"),
    (7919, "rotation"): (
        ("32144e018881cd73", "b59fda768ec226ae", "58b2f2006ed1dff0", ZEROS),
        90, 0.0, 0.0, "stable"),
    (7919, "wave-random"): (
        ("98dfb2bafa0d9564", "413f66d9bef70021", "8927376d94923d5a", ZEROS),
        4, 2.5629024203527962e-14, 7.771561172376096e-16, "stable"),
}

INTERVAL_PIN = (
    ("9fce9a9e7ffa413f", "fd13e2e51d15714a", "d448453e68e1ae62",
     "b74af29777cc84a2"),
    2, 1.9229626863835638e-16, 1.1102230246251565e-16, "stable")


def _digest(a):
    data = np.ascontiguousarray(a, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _pin(rep):
    return (tuple(_digest(getattr(rep, c)) for c in COLUMNS), rep.support,
            rep.dropped, rep.max_interior_residual, rep.verdict)


@pytest.mark.parametrize("seed,label", sorted(CERTIFY_PINS))
def test_certify_reports_keep_their_bits(seed, label, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import workloads
    inputs = {lab: (prob, kwargs)
              for lab, prob, kwargs, _ in workloads.certify_inputs(seed)}
    prob, kwargs = inputs[label]
    disc = discretize(prob, **kwargs)
    rep = build_spectrum_report(disc.ops_sys, disc.pi, k=10,
                                interior_dofs=disc.dofmap.interior_dofs(),
                                ncomp=disc.ncomp, norm_q=disc.norm_q)
    assert _pin(rep) == CERTIFY_PINS[seed, label]


def test_criterion_3_report_keeps_its_bits():
    dm = build_dofmap(generate_mesh("interval(2)"), 1, "lagrange")
    ops = build_operators(dm, [1.0], 6, face_quadrature(dm, 6), None)
    rep = build_spectrum_report(ops.Q, scalar_sat_2d(ops.faces, [1.0]),
                                k=10, interior_dofs=dm.interior_dofs(),
                                ncomp=1, norm_q=ops.norm_q)
    assert _pin(rep) == INTERVAL_PIN
