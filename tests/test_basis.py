import numpy as np
import pytest

from cgsat.basis import (BasisSpec, PointOutsideDomainError,
                         UnsupportedDegreeError, quad_rule, tabulate,
                         tabulate_grad)
from oracles import reference_lagrange, reference_lagrange_grad

ALL_SPECS = [BasisSpec(kind, p, dom)
             for kind in ("lagrange", "bernstein")
             for p in (1, 2, 3)
             for dom in ("interval", "triangle")]
LAGRANGE_SPECS = [s for s in ALL_SPECS if s.kind == "lagrange"]


def spec_id(spec):
    return f"{spec.kind}-P{spec.order}-{spec.domain}"


def random_points(spec, n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, spec.dim))
    if spec.domain == "triangle":
        pts[:, 1] *= 1.0 - pts[:, 0]
    return pts


def test_lagrange_p1_interval_nodal():
    spec = BasisSpec("lagrange", 1, "interval")
    assert np.allclose(tabulate(spec, [0.0])[0], [1.0, 0.0])
    assert np.allclose(tabulate(spec, [1.0])[0], [0.0, 1.0])


def test_bernstein_p2_midpoint():
    spec = BasisSpec("bernstein", 2, "interval")
    assert np.allclose(tabulate(spec, [0.5])[0], [0.25, 0.5, 0.25], atol=1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_partition_of_unity(spec):
    vals = tabulate(spec, random_points(spec, 40))
    assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-13


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_gradients_sum_to_zero(spec):
    grads = tabulate_grad(spec, random_points(spec, 25))
    assert np.abs(grads.sum(axis=1)).max() < 1e-12


def test_lagrange_nodal_property():
    for spec in ALL_SPECS:
        if spec.kind != "lagrange":
            continue
        vals = tabulate(spec, spec.lattice())
        assert np.abs(vals - np.eye(spec.n_dofs)).max() < 1e-12


def test_bernstein_nonnegative():
    for spec in ALL_SPECS:
        if spec.kind != "bernstein":
            continue
        vals = tabulate(spec, random_points(spec, 60))
        assert vals.min() > -1e-14


def test_hat_gradients():
    spec = BasisSpec("lagrange", 1, "interval")
    g = tabulate_grad(spec, [0.37])[0]
    assert np.allclose(g[:, 0], [-1.0, 1.0])


def test_p1_triangle_gradients():
    spec = BasisSpec("lagrange", 1, "triangle")
    g = tabulate_grad(spec, [0.21, 0.33])[0]
    assert np.allclose(g, [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_bernstein_gradient_vs_finite_differences(spec):
    rng = np.random.default_rng(3)
    pts = rng.random((5, spec.dim)) * 0.4 + 0.1
    h = 1e-6
    for pt in pts:
        g = tabulate_grad(spec, pt)[0]
        for d in range(spec.dim):
            e = np.zeros(spec.dim)
            e[d] = h
            fd = (tabulate(spec, pt + e)[0] - tabulate(spec, pt - e)[0]) / (2 * h)
            assert np.abs(g[:, d] - fd).max() < 1e-6


@pytest.mark.parametrize("spec", LAGRANGE_SPECS, ids=spec_id)
def test_lagrange_matches_monomial_oracle(spec):
    """Bernstein times the lattice inverse is the monomial-Vandermonde basis."""
    for pts in (random_points(spec, 200, seed=5), spec.lattice()):
        assert np.abs(tabulate(spec, pts) - reference_lagrange(spec, pts)).max() < 1e-13
        assert np.abs(tabulate_grad(spec, pts)
                      - reference_lagrange_grad(spec, pts)).max() < 1e-13


@pytest.mark.parametrize("kind", ["lagrange", "bernstein"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_families_span_the_same_space(kind, p):
    # interpolate a random degree-p polynomial and re-evaluate it
    spec = BasisSpec(kind, p, "triangle")
    rng = np.random.default_rng(p)
    coeffs = rng.standard_normal((p + 1, p + 1))

    def poly(pts):
        out = np.zeros(pts.shape[0])
        for a in range(p + 1):
            for b in range(p + 1 - a):
                out += coeffs[a, b] * pts[:, 0] ** a * pts[:, 1] ** b
        return out

    lattice = spec.lattice()
    vals = poly(lattice)
    interp = np.linalg.solve(tabulate(spec, lattice), vals)
    check = random_points(spec, 30, seed=9)
    assert np.abs(tabulate(spec, check) @ interp - poly(check)).max() < 1e-12


def test_point_outside_domain_rejected():
    with pytest.raises(PointOutsideDomainError):
        tabulate(BasisSpec("lagrange", 2, "triangle"), [0.8, 0.8])
    with pytest.raises(PointOutsideDomainError):
        tabulate(BasisSpec("bernstein", 1, "interval"), [1.5])
    for fn in (tabulate, tabulate_grad):      # NaN compares false everywhere
        with pytest.raises(PointOutsideDomainError):
            fn(BasisSpec("lagrange", 2, "triangle"), [[0.2, 0.1], [np.nan, 0.3]])
        with pytest.raises(PointOutsideDomainError):
            fn(BasisSpec("bernstein", 3, "interval"), [np.nan])


@pytest.mark.parametrize("fn", [tabulate, tabulate_grad])
@pytest.mark.parametrize("spec, shape", [
    (BasisSpec("bernstein", 2, "triangle"), (4, 3)),    # reshapes to 6 points
    (BasisSpec("lagrange", 1, "interval"), (2, 2)),     # reshapes to 4 points
    (BasisSpec("lagrange", 3, "triangle"), (3,)),
    (BasisSpec("bernstein", 1, "interval"), (3,)),
    (BasisSpec("lagrange", 2, "interval"), ()),
    (BasisSpec("lagrange", 2, "triangle"), (2, 1, 2)),
], ids=["triangle-4x3", "interval-2x2", "triangle-3", "interval-3",
        "interval-scalar", "triangle-2x1x2"])
def test_points_of_the_wrong_shape_rejected(fn, spec, shape):
    with pytest.raises(ValueError, match="must have shape"):
        fn(spec, np.full(shape, 0.1))


# quadrature ----------------------------------------------------------------

def tri_monomial(m, n):
    import math
    return math.factorial(m) * math.factorial(n) / math.factorial(m + n + 2)


def test_centroid_rule():
    r = quad_rule("triangle", 1)
    assert r.weights.size == 1
    assert abs(r.weights[0] - 0.5) < 1e-15
    assert np.allclose(r.points[0], [1 / 3, 1 / 3])


@pytest.mark.parametrize("degree", range(1, 9))
def test_triangle_exactness(degree):
    r = quad_rule("triangle", degree)
    assert abs(r.weights.sum() - 0.5) < 1e-14
    for m in range(degree + 1):
        for n in range(degree + 1 - m):
            val = np.sum(r.weights * r.points[:, 0] ** m * r.points[:, 1] ** n)
            assert abs(val - tri_monomial(m, n)) < 1e-13


def test_degree6_x4y2():
    r = quad_rule("triangle", 6)
    val = np.sum(r.weights * r.points[:, 0] ** 4 * r.points[:, 1] ** 2)
    assert abs(val - tri_monomial(4, 2)) < 1e-15


def test_edge_rule_degree5():
    r = quad_rule("edge", 5)
    assert r.weights.size == 3
    assert abs(r.weights.sum() - 1.0) < 1e-14
    for m in range(6):
        assert abs(np.sum(r.weights * r.points[:, 0] ** m) - 1 / (m + 1)) < 1e-14


def test_triangle_rule_symmetry():
    # rules are invariant under the vertex permutations of the triangle
    for degree in (2, 4, 5, 6, 8):
        r = quad_rule("triangle", degree)
        x, y = r.points[:, 0], r.points[:, 1]
        for xs, ys in ((y, x), (1 - x - y, y), (x, 1 - x - y)):
            mapped = np.stack([xs, ys, r.weights], axis=1)
            orig = np.stack([x, y, r.weights], axis=1)
            for row in mapped:
                assert np.min(np.abs(orig - row).sum(axis=1)) < 1e-12


def test_quadrature_error_decreases_with_degree():
    exact = 1.0  # integral of exp(x + y) over the unit triangle
    errs = []
    for d in (1, 2, 4, 6, 8):
        r = quad_rule("triangle", d)
        errs.append(abs(np.sum(r.weights * np.exp(r.points.sum(axis=1))) - exact))
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegreeError):
        quad_rule("triangle", 9)
    with pytest.raises(UnsupportedDegreeError):
        quad_rule("edge", 0)
