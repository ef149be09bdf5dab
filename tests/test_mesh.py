import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import first_owner, last_owner

from cgsat.basis import (UnsupportedOrderError, interval_lattice, n_local_dofs,
                         triangle_multi_indices)
from cgsat.mesh import (DegenerateElementError, MeshFormatError,
                        NonconformingMeshError, annulus_mesh, build_dofmap,
                        generate_mesh, interval_mesh, load_mesh, owners,
                        save_mesh, unit_disk_mesh, unit_square_mesh,
                        _build_mesh)


def reference_triangle():
    return _build_mesh(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)],
                       [(0, 0, "bottom"), (0, 1, "hyp"), (0, 2, "left")])


def boundary_vertices(mesh):
    """Both end vertices of every boundary edge of a triangulation."""
    bf = mesh.boundary_faces
    el = mesh.elements[bf.element]
    ends = np.stack([bf.local_face, (bf.local_face + 1) % 3], axis=1)
    return np.take_along_axis(el, ends, axis=1).ravel()


def test_reference_triangle_normals():
    mesh = reference_triangle()
    bf = mesh.boundary_faces
    normals = dict(zip(bf.tags, bf.normals))
    s = 1 / np.sqrt(2)
    assert np.allclose(normals["bottom"], [0, -1])
    assert np.allclose(normals["hyp"], [s, s])
    assert np.allclose(normals["left"], [-1, 0])
    assert len(mesh.boundary_faces) == 3
    for normal in bf.normals:
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-14


def test_interval_mesh_endpoints():
    mesh = interval_mesh(2)
    assert np.allclose(mesh.vertices.ravel(), [0.0, 0.5, 1.0])
    assert mesh.n_elements == 2
    normals = sorted(mesh.boundary_faces.normals[:, 0].tolist())
    assert normals == [-1.0, 1.0]


def test_random_interval_monotone():
    for seed in range(5):
        mesh = interval_mesh(20, "random", seed=seed)
        x = mesh.vertices.ravel()
        assert x[0] == 0.0 and x[-1] == 1.0
        assert np.all(np.diff(x) > 0)
        # perturbation bounded by 0.4 h
        assert np.abs(x - np.linspace(0, 1, 21)).max() <= 0.4 / 20 + 1e-15


def test_unit_square_counts():
    mesh = unit_square_mesh(16)
    assert mesh.n_elements == 512
    assert mesh.n_vertices == 289
    assert np.all(mesh.signed_areas() > 0)
    assert abs(sum(mesh.boundary_faces.lengths) - 4.0) < 1e-12


def test_disk_boundary_on_circle():
    mesh = unit_disk_mesh(4)
    assert mesh.n_elements == 96
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    boundary_v = set(boundary_vertices(mesh).tolist())
    assert all(abs(r[v] - 1.0) < 1e-12 for v in boundary_v)
    # polygonal boundary length approaches 2 pi from below
    lengths = [sum(unit_disk_mesh(n).boundary_faces.lengths)
               for n in (2, 4, 8)]
    assert lengths[0] < lengths[1] < lengths[2] < 2 * np.pi
    assert 2 * np.pi - lengths[2] < 0.02


def test_annulus_vertices_on_circles():
    mesh = annulus_mesh(0.5, 1.0, 3)
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert np.all((r > 0.5 - 1e-12) & (r < 1.0 + 1e-12))
    for v in boundary_vertices(mesh):
        assert min(abs(r[v] - 0.5), abs(r[v] - 1.0)) < 1e-12
    assert set(mesh.boundary_faces.tags) == {"inner", "outer"}


def test_generate_mesh_recipes():
    assert generate_mesh("interval(2)").n_elements == 2
    assert generate_mesh("unit_square(3)").n_elements == 18
    assert generate_mesh("perturbed_square(3,5)").n_elements == 18
    assert generate_mesh("unit_disk(2)").n_elements == 24
    assert generate_mesh("annulus(0.5,1.0,2)").n_elements > 0
    with pytest.raises(ValueError):
        generate_mesh("moebius(3)")


def test_mesh_roundtrip(tmp_path):
    for recipe in ("unit_square(4)", "interval(5,random,3)", "unit_disk(2)"):
        mesh = generate_mesh(recipe)
        path = tmp_path / "m.mesh"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert back.dimension == mesh.dimension
        assert np.array_equal(back.elements, mesh.elements)
        assert np.allclose(back.vertices, mesh.vertices, atol=0, rtol=0)
        assert len(back.boundary_faces) == len(mesh.boundary_faces)
        tags_a = sorted(zip(mesh.boundary_faces.element.tolist(),
                            mesh.boundary_faces.local_face.tolist(),
                            mesh.boundary_faces.tags.tolist()))
        tags_b = sorted(zip(back.boundary_faces.element.tolist(),
                            back.boundary_faces.local_face.tolist(),
                            back.boundary_faces.tags.tolist()))
        assert tags_a == tags_b


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "ok.mesh"
    path.write_text(
        "# reference triangle\n"
        "2 3 1 3   # header\n\n"
        "0 0\n1 0\n0 1\n"
        "0 1 2\n"
        "0 0 bottom\n0 1 hyp\n0 2 left\n")
    mesh = load_mesh(path)
    assert mesh.n_elements == 1
    assert set(mesh.boundary_faces.tags) == {"bottom", "hyp", "left"}


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("2 3 1 3\n0 0\n1 0\n0 oops\n0 1 2\n0 0 a\n0 1 b\n0 2 c\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert "line 4" in str(err.value)


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_vertex_rejected(tmp_path, coord):
    path = tmp_path / "bad.mesh"
    path.write_text(f"2 3 1 3\n0 0\n1 {coord}\n0 1\n0 1 2\n0 0 a\n0 1 b\n0 2 c\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert "line 3" in str(err.value)
    assert f"coordinate '{coord}' is not finite" in str(err.value)


def test_degenerate_element_rejected(tmp_path):
    path = tmp_path / "deg.mesh"
    path.write_text("2 3 1 3\n0 0\n1 0\n2 0\n0 1 2\n0 0 a\n0 1 b\n0 2 c\n")
    with pytest.raises(DegenerateElementError):
        load_mesh(path)


def test_interior_face_tagged_as_boundary_rejected(tmp_path):
    path = tmp_path / "bad2.mesh"
    # two triangles sharing edge (0,2), local face 2 of element 0; tag it
    path.write_text("2 4 2 1\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n0 2 x\n")
    with pytest.raises(NonconformingMeshError, match="tagged as boundary"):
        load_mesh(path)


def test_untagged_boundary_rejected(tmp_path):
    path = tmp_path / "bad3.mesh"
    path.write_text("2 3 1 1\n0 0\n1 0\n0 1\n0 1 2\n0 0 only\n")
    with pytest.raises(NonconformingMeshError):
        load_mesh(path)


# DoF map --------------------------------------------------------------------

def test_dofmap_1d_counts():
    mesh = interval_mesh(2)
    dm = build_dofmap(mesh, 1, "lagrange")
    assert dm.n_dofs == 3
    dm3 = build_dofmap(mesh, 3, "bernstein")
    assert dm3.n_dofs == 3 + 2 * 2


@pytest.mark.parametrize("recipe", ["interval(2)", "unit_square(1)"])
def test_dofmap_refuses_what_the_basis_refuses(recipe):
    mesh = generate_mesh(recipe)
    with pytest.raises(ValueError, match="unknown basis kind 'foo'"):
        build_dofmap(mesh, 2, "foo")
    for p in (0, 4):
        with pytest.raises(UnsupportedOrderError,
                           match=f"order {p} not supported"):
            build_dofmap(mesh, p, "lagrange")


def test_dofmap_p1_square_is_vertices():
    mesh = unit_square_mesh(5)
    dm = build_dofmap(mesh, 1, "lagrange")
    assert dm.n_dofs == mesh.n_vertices


def test_shared_edge_p3_counts():
    mesh = _build_mesh(2, [(0, 0), (1, 0), (0, 1), (1, 1)],
                       [(0, 1, 2), (1, 3, 2)],
                       [(0, 0, "b"), (0, 2, "l"), (1, 0, "r"), (1, 1, "t")])
    dm = build_dofmap(mesh, 3, "lagrange")
    assert dm.n_dofs == 16          # 10 + 10 - 4 shared
    shared = set(dm.element_dofs[0]) & set(dm.element_dofs[1])
    assert len(shared) == 4         # 2 vertices + 2 edge nodes


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("kind", ["lagrange", "bernstein"])
def test_shared_dofs_are_geometrically_coincident(p, kind):
    mesh = unit_square_mesh(3, perturb_seed=2)
    dm = build_dofmap(mesh, p, kind)
    from cgsat.basis import triangle_multi_indices
    bary = np.array(triangle_multi_indices(p), dtype=float) / p
    # recompute each element's lattice coordinates and compare at shared ids
    coords = {}
    for e in range(mesh.n_elements):
        pts = bary @ mesh.vertices[mesh.elements[e]]
        for g, xy in zip(dm.element_dofs[e], pts):
            if g in coords:
                assert np.allclose(coords[g], xy, atol=1e-12)
            coords[g] = xy
    assert len(coords) == dm.n_dofs


def test_total_dof_formula():
    mesh = unit_square_mesh(4)
    n_edges = 3 * mesh.n_elements // 2 + len(mesh.boundary_faces) // 2
    for p, n_int in ((2, 0), (3, 1)):
        dm = build_dofmap(mesh, p, "lagrange")
        expected = mesh.n_vertices + n_edges * (p - 1) + mesh.n_elements * n_int
        assert dm.n_dofs == expected


def test_boundary_dofs_identified():
    mesh = unit_square_mesh(3)
    dm = build_dofmap(mesh, 2, "lagrange")
    on_box = np.zeros(dm.n_dofs, dtype=bool)
    x, y = dm.dof_coords[:, 0], dm.dof_coords[:, 1]
    geom = (np.abs(x) < 1e-12) | (np.abs(x - 1) < 1e-12) | \
           (np.abs(y) < 1e-12) | (np.abs(y - 1) < 1e-12)
    on_box[dm.boundary_dofs] = True
    assert np.array_equal(on_box, geom)


def test_unsupported_order():
    with pytest.raises(ValueError):
        build_dofmap(interval_mesh(2), 4, "lagrange")


# the dict-based face table and DoF map that the array face table replaced,
# kept as exact references ----------------------------------------------------

def ref_faces(mesh):
    """Sorted face-vertex tuple -> list of (element, local_face)."""
    faces = {}
    for e in range(mesh.n_elements):
        for k in range(mesh.dimension + 1):
            if mesh.dimension == 1:
                verts = (int(mesh.elements[e, k]),)
            else:
                verts = (int(mesh.elements[e, k]), int(mesh.elements[e, (k + 1) % 3]))
            faces.setdefault(tuple(sorted(verts)), []).append((e, k))
    return faces


def square_tag(mid):
    if abs(mid[0]) < 1e-12:
        return "left"
    if abs(mid[0] - 1.0) < 1e-12:
        return "right"
    return "bottom" if abs(mid[1]) < 1e-12 else "top"


REF_TAGS = {
    "interval": lambda mid: "left" if mid[0] < 0.5 else "right",
    "unit_square": square_tag,
    "perturbed_square": square_tag,
    "unit_disk": lambda mid: "circle",
    "annulus": lambda mid: "inner" if np.hypot(*mid) < 0.75 else "outer",
}


def ref_boundary(mesh, tag_of):
    """(element, local_face, tag, normal, length) per face, in sorted-key order."""
    rows = []
    for _, owners in sorted(ref_faces(mesh).items()):
        if len(owners) != 1:
            continue
        e, k = owners[0]
        if mesh.dimension == 1:
            x = mesh.vertices[mesh.elements[e], 0]
            normal = np.array([-1.0]) if k == 0 else np.array([1.0])
            rows.append((e, k, tag_of(np.array([x[k]])), normal, 1.0))
            continue
        a = mesh.vertices[mesh.elements[e, k]]
        b = mesh.vertices[mesh.elements[e, (k + 1) % 3]]
        d = b - a
        length = float(np.hypot(d[0], d[1]))
        rows.append((e, k, tag_of(0.5 * (a + b)), np.array([d[1], -d[0]]) / length,
                     length))
    return rows


def ref_dofmap(mesh, p, rows):
    """(element_dofs, n_dofs, dof_coords, boundary_dofs, face_dofs)."""
    dim, nv, ne = mesh.dimension, mesh.n_vertices, mesh.n_elements
    nloc = n_local_dofs("interval" if dim == 1 else "triangle", p)
    element_dofs = np.zeros((ne, nloc), dtype=np.int64)
    if dim == 1:
        for e in range(ne):
            element_dofs[e, 0], element_dofs[e, -1] = mesh.elements[e]
            for t in range(1, p):
                element_dofs[e, t] = nv + e * (p - 1) + (t - 1)
        n_dofs = nv + ne * (p - 1)
        coords = np.zeros((n_dofs, 1))
        for e in range(ne):
            x = mesh.vertices[mesh.elements[e], 0]
            coords[element_dofs[e], 0] = x[0] + (x[1] - x[0]) * interval_lattice(p)
        face_local = [[0], [nloc - 1]]
    else:
        edge_ids = {}
        for e in range(ne):
            for k in range(3):
                key = tuple(sorted((int(mesh.elements[e, k]),
                                    int(mesh.elements[e, (k + 1) % 3]))))
                edge_ids.setdefault(key, len(edge_ids))
        n_int, n_cell = p - 1, (p - 1) * (p - 2) // 2
        n_dofs = nv + len(edge_ids) * n_int + ne * n_cell
        for e in range(ne):
            verts = [int(v) for v in mesh.elements[e]]
            dofs = list(verts)
            for k in range(3):
                a, b = verts[k], verts[(k + 1) % 3]
                base = nv + edge_ids[tuple(sorted((a, b)))] * n_int
                local = list(range(base, base + n_int))
                dofs.extend(local[::-1] if a > b else local)
            base = nv + len(edge_ids) * n_int + e * n_cell
            dofs.extend(range(base, base + n_cell))
            element_dofs[e] = dofs
        coords = np.zeros((n_dofs, 2))
        bary = np.array(triangle_multi_indices(p), dtype=float) / p
        for e in range(ne):
            coords[element_dofs[e]] = bary @ mesh.vertices[mesh.elements[e]]
        face_local = [[k] + [3 + k * n_int + t for t in range(n_int)] + [(k + 1) % 3]
                      for k in range(3)]
    face_dofs = np.array([element_dofs[e, face_local[k]] for e, k, *_ in rows],
                         dtype=np.int64)
    boundary = np.array(sorted(set(face_dofs.ravel().tolist())), dtype=np.int64)
    return element_dofs, n_dofs, coords, boundary, face_dofs


def assert_matches_reference(recipe):
    mesh = generate_mesh(recipe)
    rows = ref_boundary(mesh, REF_TAGS[recipe.split("(")[0]])
    bf = mesh.boundary_faces
    assert len(bf) == len(rows)
    assert bf.element.tolist() == [r[0] for r in rows]
    assert bf.local_face.tolist() == [r[1] for r in rows]
    assert bf.tags.tolist() == [r[2] for r in rows]
    assert np.array_equal(bf.normals, np.array([r[3] for r in rows]))
    assert np.array_equal(bf.lengths, np.array([r[4] for r in rows]))
    for p in (1, 2, 3):
        element_dofs, n_dofs, coords, boundary, face_dofs = ref_dofmap(mesh, p, rows)
        for kind in ("lagrange", "bernstein"):
            dm = build_dofmap(mesh, p, kind)
            assert dm.n_dofs == n_dofs
            for got, want in ((dm.element_dofs, element_dofs), (dm.dof_coords, coords),
                              (dm.boundary_dofs, boundary), (dm.face_dofs, face_dofs)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


@pytest.mark.parametrize("recipe", [
    "interval(5)", "interval(7,random,3)", "unit_square(4)",
    "perturbed_square(4,3)", "unit_disk(3)", "annulus(0.5,1.0,2)"])
def test_face_table_and_dofmap_match_reference(recipe):
    assert_matches_reference(recipe)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5))
def test_perturbed_square_matches_reference(seed, n):
    try:
        unit_square_mesh(n, perturb_seed=seed)
    except DegenerateElementError as exc:     # a jitter that would fold it
        assert str(exc).startswith(f"perturb_seed {seed} inverts element ")
        return
    assert_matches_reference(f"perturbed_square({n},{seed})")


def mesh_digest(mesh):
    """First 16 hex digits of the sha256 of the mesh arrays and the face table."""
    h = hashlib.sha256()
    bf = mesh.boundary_faces
    for a in (mesh.vertices, mesh.elements, bf.element, bf.local_face,
              bf.normals, bf.lengths):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update("\n".join(bf.tags).encode())
    return h.hexdigest()[:16]


# Recorded while the disk generator built its vertices and elements, and the
# annulus generator its vertices, one at a time in Python loops.
MESH_DIGESTS = {
    "unit_disk(1)": (lambda: unit_disk_mesh(1), "bf25cf28582ab47e"),
    "unit_disk(2)": (lambda: unit_disk_mesh(2), "52a7692e693c610a"),
    "unit_disk(5)": (lambda: unit_disk_mesh(5), "aac0aad59b834fb5"),
    "unit_disk(13)": (lambda: unit_disk_mesh(13), "4d1ef09efecf0a19"),
    "annulus(0.5,1.0,2)": (lambda: annulus_mesh(0.5, 1.0, 2), "8567603f7dc6e5ab"),
    "annulus(0.5,1.0,24)": (lambda: annulus_mesh(0.5, 1.0, 24), "b0d0e6f6f0cdbac0"),
}


@pytest.mark.parametrize("name", sorted(MESH_DIGESTS))
def test_generated_meshes_keep_every_bit(name):
    make, digest = MESH_DIGESTS[name]
    assert mesh_digest(make()) == digest


@pytest.mark.parametrize("recipe", ["interval(7,random,3)", "unit_square(3)",
                                    "unit_disk(3)", "annulus(0.5,1.0,2)"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_dofmap_owners_match_unique_oracle(recipe, p):
    dm = build_dofmap(generate_mesh(recipe), p, "bernstein")
    assert np.array_equal(dm.first_owner, first_owner(dm.element_dofs))
    assert np.array_equal(dm.last_owner, last_owner(dm.element_dofs))


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(st.integers(0, 20), min_size=1, max_size=40))
def test_owners_of_ids_with_gaps_match_unique_oracle(ids):
    ids = np.array(ids)
    first, last = owners(ids)
    assert np.array_equal(first, first_owner(ids))
    assert np.array_equal(last, last_owner(ids))


def test_face_tagged_twice_keeps_its_last_tag():
    mesh = _build_mesh(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)],
                       [(0, 0, "a"), (0, 1, "b"), (0, 0, "c"), (0, 2, "d")])
    bf = mesh.boundary_faces
    assert dict(zip(bf.local_face.tolist(), bf.tags)) == {0: "c", 1: "b", 2: "d"}


@pytest.mark.parametrize("recipe", ["interval(3,random,1)", "unit_disk(2)"])
def test_mesh_and_dofmap_arrays_read_only(recipe):
    mesh = generate_mesh(recipe)
    dm = build_dofmap(mesh, 3, "bernstein")
    bf = mesh.boundary_faces
    arrays = [mesh.vertices, mesh.elements, bf.element, bf.local_face, bf.tags,
              bf.normals, bf.lengths, dm.element_dofs, dm.dof_coords,
              dm.boundary_dofs, dm.face_dofs, dm.first_owner, dm.last_owner]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[1]


# input checks ---------------------------------------------------------------

@pytest.mark.parametrize("header, message", [
    ("2 -1 0 0", "vertex count nv must be at least 1, got -1"),
    ("2 0 0 0", "vertex count nv must be at least 1, got 0"),
    ("2 3 -1 0", "element count ne must be at least 1, got -1"),
    ("2 3 1 -1", "boundary face count nb must be at least 0, got -1")])
def test_impossible_header_counts_rejected(tmp_path, header, message):
    path = tmp_path / "bad.mesh"
    path.write_text(f"{header}\n0 0\n1 0\n0 1\n0 1 2\n0 0 a\n0 1 b\n0 2 c\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert str(err.value) == f"line 1: {message}"


@pytest.mark.parametrize("line, message", [
    ("5 0 a", "element index 5"), ("-1 0 a", "element index -1"),
    ("0 7 a", "local face 7"), ("0 -1 a", "local face -1")])
def test_boundary_line_indices_checked(tmp_path, line, message):
    path = tmp_path / "bad.mesh"
    path.write_text(f"1 2 1 2\n0\n1\n0 1\n0 0 l\n{line}\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert "line 6" in str(err.value) and message in str(err.value)


@pytest.mark.parametrize("recipe, signature", [
    ("perturbed_square(3)", "perturbed_square(n,seed)"),
    ("unit_square()", "unit_square(n)"),
    ("unit_square(3,7)", "unit_square(n)"),
    ("annulus(0.5,1)", "annulus(r0,r1,n)"),
    ("interval(4,random,3,1)", "interval(n[,regular|random[,seed]])")])
def test_recipe_argument_count_checked(recipe, signature):
    with pytest.raises(ValueError) as err:
        generate_mesh(recipe)
    assert recipe in str(err.value) and signature in str(err.value)


BAD_ANNULI = [
    ("annulus(0.5,inf,2)", "finite radii 0 < r0 < r1, got 0.5 and inf"),
    ("annulus(nan,1.0,2)", "finite radii 0 < r0 < r1, got nan and 1.0"),
    ("annulus(0.5,nan,2)", "finite radii"),
    ("annulus(1.0,0.5,2)", "finite radii"),
    ("annulus(0.5,1e308,2)",
     "angular cell count .* overflows for r0 = 0.5, r1 = 1e[+]308, n = 2"),
    ("annulus(1e-300,1e308,1)", "angular cell count .* overflows")]


@pytest.mark.parametrize("recipe, message", BAD_ANNULI,
                         ids=[recipe for recipe, _ in BAD_ANNULI])
def test_annulus_radii_and_angular_count_checked(recipe, message):
    with pytest.raises(ValueError, match=message):
        generate_mesh(recipe)


def test_seed_with_regular_spacing_rejected():
    with pytest.raises(ValueError, match="regular spacing takes no seed"):
        generate_mesh("interval(4,regular,3)")


def test_random_spacing_needs_seed():
    # an unseeded random mesh would differ from run to run
    with pytest.raises(ValueError, match="random spacing needs a seed"):
        interval_mesh(4, "random")
    with pytest.raises(ValueError, match="random spacing needs a seed"):
        generate_mesh("interval(4,random)")
    assert np.array_equal(interval_mesh(4, "random", seed=2).vertices,
                          generate_mesh("interval(4,random,2)").vertices)


def test_vertex_outside_every_element_rejected():
    with pytest.raises(NonconformingMeshError, match="vertex 3"):
        _build_mesh(2, [(0, 0), (1, 0), (0, 1), (5, 5)], [(0, 1, 2)],
                    [(0, 0, "a"), (0, 1, "b"), (0, 2, "c")])


def test_nonconforming_messages_name_the_face(tmp_path):
    with pytest.raises(NonconformingMeshError, match=r"face \(0, 1\) shared by 3"):
        _build_mesh(2, [(0, 0), (1, 0), (0, 1), (1, 1), (0.5, -1)],
                    [(0, 1, 2), (1, 3, 0), (0, 4, 1)], [])
    with pytest.raises(NonconformingMeshError,
                       match=r"face \(0, 2\) tagged as boundary"):
        load_mesh_text(tmp_path, "2 4 2 1\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n0 2 x\n")
    with pytest.raises(NonconformingMeshError,
                       match=r"boundary face \(0, 2\) carries no tag"):
        load_mesh_text(tmp_path, "2 3 1 1\n0 0\n1 0\n0 1\n0 1 2\n0 0 only\n")


def load_mesh_text(tmp_path, text):
    path = tmp_path / "m.mesh"
    path.write_text(text)
    return load_mesh(path)
