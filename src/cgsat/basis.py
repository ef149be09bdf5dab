"""Reference-element polynomial bases and quadrature rules.

Two basis families are supported on the unit interval [0, 1] and on the
unit triangle {(x, y) : x >= 0, y >= 0, x + y <= 1}:

* ``lagrange``  -- nodal basis on the equispaced lattice, phi_i(x_j) = delta_ij
* ``bernstein`` -- nonnegative Bezier basis with control points on the same
  lattice

Both span the same polynomial space, so one kernel evaluates both: Bernstein
values and gradients are products of barycentric powers read from one cached
table of exponents and multinomial coefficients, and the Lagrange basis is
the Bernstein basis times the cached ``lattice_inverse``, the inverse of the
Bernstein values at the lattice.

Both families share one local numbering (vertices, then edge lattice points
in edge order, then interior points), so the continuous-Galerkin DoF
identification in :mod:`cgsat.mesh` is basis independent.

Quadrature rules are exposed for the interval, boundary edges (same thing)
and the triangle.  Triangle rules are symmetric rules tabulated to 20
significant digits; interval rules are Gauss-Legendre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LAGRANGE = "lagrange"
BERNSTEIN = "bernstein"
KINDS = (LAGRANGE, BERNSTEIN)

MAX_ORDER = 3


class UnsupportedOrderError(ValueError):
    """Raised for polynomial orders outside the supported range 1..3."""


class UnsupportedDegreeError(ValueError):
    """Raised for quadrature exactness degrees outside the tabulated range."""


class PointOutsideDomainError(ValueError):
    """Raised when a basis is evaluated outside its reference domain."""


# ---------------------------------------------------------------------------
# reference lattices and local numbering
# ---------------------------------------------------------------------------

def interval_lattice(p: int) -> np.ndarray:
    """Equispaced lattice 0, 1/p, ..., 1 (left-to-right local numbering)."""
    return np.linspace(0.0, 1.0, p + 1)


def triangle_multi_indices(p: int) -> list[tuple[int, int, int]]:
    """Barycentric exponent triples (i0, i1, i2), i0+i1+i2 = p, in local order.

    Order: vertices (p,0,0), (0,p,0), (0,0,p); then lattice points interior
    to edge 0 (v0->v1), edge 1 (v1->v2), edge 2 (v2->v0); then cell-interior
    points.
    """
    vertices = [(p, 0, 0), (0, p, 0), (0, 0, p)]
    edges = []
    for t in range(1, p):
        edges.append((p - t, t, 0))        # edge 0: v0 -> v1
    for t in range(1, p):
        edges.append((0, p - t, t))        # edge 1: v1 -> v2
    for t in range(1, p):
        edges.append((t, 0, p - t))        # edge 2: v2 -> v0
    interior = [(i, j, p - i - j)
                for i in range(1, p) for j in range(1, p - i)
                if p - i - j >= 1]
    return vertices + edges + interior


def triangle_lattice(p: int) -> np.ndarray:
    """Reference coordinates (x, y) = (i1, i2)/p of the local lattice."""
    idx = triangle_multi_indices(p)
    return np.array([(j / p, k / p) for (_, j, k) in idx], dtype=float)


def n_local_dofs(domain: str, p: int) -> int:
    if domain == "interval":
        return p + 1
    if domain == "triangle":
        return (p + 1) * (p + 2) // 2
    raise ValueError(f"unknown reference domain {domain!r}")


@dataclass(frozen=True)
class BasisSpec:
    """A reference basis: family, polynomial order and reference domain."""

    kind: str
    order: int
    domain: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if not 1 <= self.order <= MAX_ORDER:
            raise UnsupportedOrderError(
                f"order {self.order} not supported (must be 1..{MAX_ORDER})")
        if self.domain not in ("interval", "triangle"):
            raise ValueError(f"unknown reference domain {self.domain!r}")

    @property
    def n_dofs(self) -> int:
        return n_local_dofs(self.domain, self.order)

    @property
    def dim(self) -> int:
        return 1 if self.domain == "interval" else 2

    def lattice(self) -> np.ndarray:
        """Nodal points (Lagrange) / control points (Bernstein)."""
        if self.domain == "interval":
            return interval_lattice(self.order)[:, None]
        return triangle_lattice(self.order)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

_DOMAIN_TOL = 1e-12

# gradients of the barycentric coordinates w.r.t. reference coordinates
_BARY_GRAD = {
    "interval": np.array([[-1.0], [1.0]]),
    "triangle": np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
}


def _bary(spec: BasisSpec, point) -> np.ndarray:
    """Barycentric coordinates, shape (nbary, npts), of one point ``(dim,)``
    or of points ``(n, dim)`` inside the reference domain."""
    pts = np.asarray(point, dtype=float)
    if pts.shape == (spec.dim,):
        pts = pts[None, :]
    elif pts.ndim != 2 or pts.shape[1] != spec.dim:
        raise ValueError(f"points on the reference {spec.domain} must have shape "
                         f"({spec.dim},) or (n, {spec.dim}), got {pts.shape}")
    x = pts[:, 0]
    if spec.domain == "interval":
        lam = np.array([1.0 - x, x])
    else:
        y = pts[:, 1]
        lam = np.array([1.0 - x - y, x, y])
    if not (lam >= -_DOMAIN_TOL).all():      # NaN compares false: never inside
        raise PointOutsideDomainError(
            f"evaluation point outside the reference {spec.domain}")
    return lam


def _multinomials(p: int, exps: np.ndarray) -> np.ndarray:
    return np.array([math.factorial(p) // math.prod(map(math.factorial, row))
                     for row in exps.tolist()], dtype=float)


@lru_cache(maxsize=None)
def _bernstein_table(domain: str, p: int):
    """Coefficients and power-table columns of B^p and of its derivatives.

    Returns ``(coef, cols, dcoef, dcols, take)``.  Local function j has
    barycentric exponents alpha_j and coefficient p!/alpha_j!.  Its
    derivative along lambda_d is p B^(p-1)_(alpha_j - e_d), or zero where
    alpha_jd = 0; ``take[j, d]`` is its row in the table ``(dcoef, dcols)``
    of distinct derivatives.  ``cols`` index the powers built by _products.
    """
    exps = np.array([(p - i, i) for i in range(p + 1)] if domain == "interval"
                    else triangle_multi_indices(p))
    nbary = exps.shape[1]
    lower = (exps[:, None, :] - np.eye(nbary, dtype=int)).reshape(-1, nbary)
    lower[(lower < 0).any(axis=1)] = -1        # every vanishing derivative
    lower, take = np.unique(lower, axis=0, return_inverse=True)
    vanish = lower[:, 0] < 0
    lower[vanish] = 0
    dcoef = p * _multinomials(p - 1, lower)
    dcoef[vanish] = 0.0
    stride = (p + 1) * np.arange(nbary)
    table = (_multinomials(p, exps), exps + stride, dcoef, lower + stride,
             take.reshape(exps.shape))
    for a in table:
        a.setflags(write=False)
    return table


def _products(lam: np.ndarray, p: int, coef: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
    """coef_j * prod_d lam_d ** alpha_jd, multiplied in the order of d."""
    ones, powers = np.ones(lam.shape[1]), []
    for ld in lam:
        powers += [ones, ld] + [ld ** e for e in range(2, p + 1)]
    powers = np.array(powers).T
    out = coef * powers.take(cols[:, 0], axis=1)
    for d in range(1, cols.shape[1]):
        out *= powers.take(cols[:, d], axis=1)
    return out


@lru_cache(maxsize=None)
def lattice_inverse(domain: str, p: int) -> np.ndarray:
    """Inverse of the Bernstein values at the lattice (read-only).

    It maps nodal values at the lattice to Bernstein coefficients; column k
    holds the Bernstein coefficients of the Lagrange function k.
    """
    spec = BasisSpec(BERNSTEIN, p, domain)
    inv = np.linalg.inv(tabulate(spec, spec.lattice()))
    inv.setflags(write=False)
    return inv


def tabulate(spec: BasisSpec, points) -> np.ndarray:
    """Basis values at many points; shape (npts, n_dofs)."""
    p = spec.order
    coef, cols, _, _, _ = _bernstein_table(spec.domain, p)
    vals = _products(_bary(spec, points), p, coef, cols)
    if spec.kind == LAGRANGE:
        return vals @ lattice_inverse(spec.domain, p)
    return vals


def tabulate_grad(spec: BasisSpec, points) -> np.ndarray:
    """Basis reference gradients at many points; shape (npts, n_dofs, dim)."""
    p = spec.order
    _, _, dcoef, dcols, take = _bernstein_table(spec.domain, p)
    dvals = _products(_bary(spec, points), p, dcoef, dcols)
    grads = dvals.take(take, axis=1) @ _BARY_GRAD[spec.domain]
    if spec.kind == LAGRANGE:
        return np.einsum("pjd,jk->pkd", grads, lattice_inverse(spec.domain, p))
    return grads


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on a reference domain (see ``quad_rule``)."""

    domain: str
    points: np.ndarray     # (nq, dim)
    weights: np.ndarray    # sums to the reference measure


def _gauss_legendre_01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _orbit_c():
    t = 1.0 / 3.0
    return [(t, t)]


def _orbit_s(a: float):
    b = 1.0 - 2.0 * a
    return [(a, a), (b, a), (a, b)]


def _orbit_r(a: float, b: float):
    c = 1.0 - a - b
    return [(b, c), (c, b), (a, c), (c, a), (a, b), (b, a)]


# Symmetric triangle rules.  Orbit parameters/weights carry 20 significant
# digits; weights are normalized to sum to 1 and later scaled by the
# reference measure 1/2.  ("C" centroid, "S" 3-point orbit, "R" 6-point orbit)
_TRI_TABLES = {
    1: [("C", (), 1.0)],
    2: [("S", (1.0 / 6.0,), 1.0 / 3.0)],
    4: [
        ("S", (0.4459484909159648863,), 0.22338158967801146570),
        ("S", (0.091576213509770743460,), 0.10995174365532186764),
    ],
    5: [
        ("C", (), 0.225),
        ("S", (0.47014206410511508977,), 0.13239415278850618074),
        ("S", (0.10128650732345633880,), 0.12593918054482715260),
    ],
    6: [
        ("S", (0.24928674517091042129,), 0.11678627572637936603),
        ("S", (0.063089014491502228340,), 0.050844906370206816921),
        ("R", (0.31035245103378440542, 0.053145049844816947353),
         0.082851075618373575194),
    ],
    8: [
        ("C", (), 0.14431560767778716825),
        ("S", (0.45929258829272315603,), 0.095091634267284624794),
        ("S", (0.17056930775176020662,), 0.10321737053471825028),
        ("S", (0.050547228317030975458,), 0.032458497623198080310),
        ("R", (0.26311282963463811342, 0.72849239295540428124),
         0.027230314174434994265),
    ],
}
_TRI_DEGREE_MAP = {1: 1, 2: 2, 3: 4, 4: 4, 5: 5, 6: 6, 7: 8, 8: 8}


@lru_cache(maxsize=None)
def quad_rule(domain: str, degree: int) -> QuadratureRule:
    """Quadrature rule on 'interval', 'edge' or 'triangle', exact to ``degree``.

    Interval/edge rules are Gauss-Legendre on [0, 1].  Triangle rules are the
    standard symmetric rules (1, 3, 6, 7, 12 and 16 points); a request for a
    degree without a dedicated rule is served by the next stronger one.
    """
    if not 1 <= degree <= 8:
        raise UnsupportedDegreeError(
            f"quadrature degree {degree} outside the supported range 1..8")
    if domain in ("interval", "edge"):
        n = degree // 2 + 1
        x, w = _gauss_legendre_01(n)
        return QuadratureRule(domain, x.reshape(-1, 1), w)
    if domain != "triangle":
        raise ValueError(f"unknown quadrature domain {domain!r}")
    pts, wts = [], []
    for kind, params, w in _TRI_TABLES[_TRI_DEGREE_MAP[degree]]:
        orbit = {"C": _orbit_c, "S": _orbit_s, "R": _orbit_r}[kind](*params)
        pts.extend(orbit)
        wts.extend([w] * len(orbit))
    points = np.array(pts)
    weights = 0.5 * np.array(wts)   # reference triangle measure
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule("triangle", points, weights)
