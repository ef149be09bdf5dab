"""How fast the host runs right now, from fixed computations timed often.

The benchmark's host is a few cores of a shared machine.  Its speed moves
by a quarter over seconds to minutes, through phases in which all code runs
slower, and every time measured in a run moves with it.  ``HostSpeed``
times a fixed reference computation between the parts of each job.  The
host index at a moment is the reference time over its nominal time; a
part's time divided by the median index of the samples taken within
``MARGIN_S`` of it is the time the part would take on a host where the
reference takes its nominal time.  The reference uses numpy and scipy only,
never cgsat, so a change to the program does not move it.

Code slows by different amounts in a slow phase depending on what it
touches, so the reference is built from kernels shaped like the work each
workload does, and a workload names the kernels that make up its reference:

- ``loop``: a Python loop of small sparse solves and vector updates, like
  the per-stage bookkeeping of a small march;
- ``sparse``: triangular solves with a sparse LU factor of about a million
  entries, like the mass solves of a mid-size 2D march;
- ``dense``: two-sided rank-one updates of a 600 x 600 matrix and column
  rotations, like the Householder and QL sweeps of the eigensolver;
- ``stream``: batched small products, sorting and sweeps over arrays larger
  than the caches, like assembly on a large mesh.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: median time of each kernel on the baseline host (2-vCPU Intel Xeon KVM
#: guest, one BLAS thread); any fixed values work, these keep scaled times
#: close to that host's seconds
NOMINAL_S = {"loop": 0.022, "sparse": 0.020, "dense": 0.028, "stream": 0.022}

#: samples this close to a part count for its index; the host's slow and
#: fast phases last a few seconds, single samples vary by about a tenth
MARGIN_S = 1.0


def _loop(rng):
    n = 400
    tri = sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0),
                    np.full(n - 1, -1.0)], [-1, 0, 1], format="csc")
    lu, vec = spla.splu(tri), rng.standard_normal(n)

    def run():
        u, acc = vec, 0.0
        for i in range(820):
            x = lu.solve(u)
            y = tri @ x
            u = 0.5 * u + 0.25 * y
            acc += float(x[i % n]) + float(y.sum())
        return acc
    return run


def _sparse(rng):
    m = 16                          # 3D Laplacian, 4096 unknowns
    one = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)],
                   [-1, 0, 1])
    eye = sp.eye(m)
    lap = (sp.kron(sp.kron(one, eye), eye) + sp.kron(sp.kron(eye, one), eye)
           + sp.kron(sp.kron(eye, eye), one)).tocsc()
    lu, rhs = spla.splu(lap), rng.standard_normal(lap.shape[0])

    def run():
        return sum(float(lu.solve(rhs)[0]) for _ in range(15))
    return run


def _dense(rng):
    square = rng.standard_normal((600, 600))

    def run():
        a = square.copy()
        v = a[0] / np.linalg.norm(a[0])
        for k in range(0, 60, 8):
            a[k:, k:] -= 2.0 * np.outer(v[k:], v[k:] @ a[k:, k:])
            a[:, k:] -= 2.0 * np.outer(a[:, k:] @ v[k:], v[k:])
            a /= np.abs(a).max()
        for i in range(120, 0, -1):
            c, s = 0.6, 0.8
            col = a[:, i].copy()
            a[:, i] = c * col - s * a[:, i - 1]
            a[:, i - 1] = s * col + c * a[:, i - 1]
        return float(a[0, 0])
    return run


def _stream(rng):
    blocks = rng.standard_normal((2000, 10, 10))
    keys = rng.integers(0, 1 << 30, size=1 << 17)
    big = rng.standard_normal(1 << 20)
    out = np.empty_like(big)

    def run():
        prod = np.einsum("eij,ejk->eik", blocks, blocks)
        order = np.argsort(keys, kind="stable")
        np.multiply(big, 1.0000001, out=out)
        return float(prod[0, 0, 0]) + float(order[0]) + float(out.sum())
    return run


#: kernel name -> builder of the kernel from a random generator
KERNELS = {"loop": _loop, "sparse": _sparse, "dense": _dense,
           "stream": _stream}


class HostSpeed:
    """Times the named reference kernels; keeps every sample of one run."""

    def __init__(self, kernels):
        rng = np.random.default_rng(20191217)
        self.kernels = [KERNELS[k](rng) for k in kernels]
        self.nominal = sum(NOMINAL_S[k] for k in kernels)
        self.samples = []           # (perf_counter at mid-sample, index)
        self.reference()            # first call pays for lazy imports

    def reference(self):
        """The fixed computation; returns a number so nothing is skipped."""
        return sum(run() for run in self.kernels)

    def sample(self):
        """Time the reference once and keep the host index (1 = nominal)."""
        t0 = perf_counter()
        self.reference()
        t1 = perf_counter()
        self.samples.append((0.5 * (t0 + t1), (t1 - t0) / self.nominal))

    def index(self, start, end):
        """Median host index of the samples near the interval [start, end]."""
        near = [i for t, i in self.samples
                if start - MARGIN_S <= t <= end + MARGIN_S]
        return statistics.median(near)

    def scaled(self, seconds, start, end):
        """Time measured over [start, end], scaled to the nominal host."""
        return seconds / self.index(start, end)
