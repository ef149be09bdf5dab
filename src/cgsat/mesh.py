"""Grids, triangulations and the continuous-Galerkin DoF map.

Meshes are 1D interval grids or conforming 2D triangulations with tagged
boundary faces and outward unit normals.  Triangles are stored with positive
orientation.  A small ASCII format is used on disk::

    # comment lines allowed anywhere
    dim nv ne nb
    <nv coordinate lines>
    <ne element lines, 0-based vertex indices>
    <nb boundary lines:  elem local_face tag>

Local faces: in 1D, face 0/1 are the left/right endpoint of an element; on a
triangle, face k is the edge from local vertex k to local vertex (k+1) % 3.

Meshes and DoF maps are immutable after construction (arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, interval_lattice, triangle_multi_indices


class MeshFormatError(ValueError):
    """Mesh file cannot be parsed; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class NonconformingMeshError(ValueError):
    """A face is shared by more than two elements, tags are inconsistent, or
    a vertex belongs to no element."""


class DegenerateElementError(ValueError):
    """An element has (near-)zero measure."""


def _readonly(*arrays):
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class BoundaryFaces:
    """The boundary face table: parallel arrays, one row per face.

    Rows are in sorted face-key order (see ``_face_keys``).
    """

    element: np.ndarray     # (nf,) owning element
    local_face: np.ndarray  # (nf,) local face index in that element
    tags: np.ndarray        # (nf,) str
    normals: np.ndarray     # (nf, dim) outward unit normals
    lengths: np.ndarray     # (nf,) edge lengths (2D); 1.0 for 1D endpoints

    def __post_init__(self):
        _readonly(self.element, self.local_face, self.tags, self.normals,
                  self.lengths)

    def __len__(self) -> int:
        return self.element.size


@dataclass(frozen=True)
class Mesh:
    dimension: int
    vertices: np.ndarray          # (nv, dim)
    elements: np.ndarray          # (ne, dim+1) vertex indices
    boundary_faces: BoundaryFaces

    def __post_init__(self):
        _readonly(self.vertices, self.elements)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def signed_areas(self) -> np.ndarray:
        """Signed areas (2D) or widths (1D) of all elements."""
        return _signed_measures(self.dimension, self.vertices, self.elements)

    def h_min(self) -> float:
        """Smallest cell width (1D) or incircle diameter (2D)."""
        if self.dimension == 1:
            return float(np.min(self.signed_areas()))
        v = self.vertices[self.elements]
        sides = np.linalg.norm(np.roll(v, -1, axis=1) - v, axis=2)
        return float(np.min(4.0 * self.signed_areas() / sides.sum(axis=1)))


# ---------------------------------------------------------------------------
# topology helpers
# ---------------------------------------------------------------------------

def _signed_measures(dim, vertices, elements) -> np.ndarray:
    if dim == 1:
        x = vertices[elements, 0]
        return x[:, 1] - x[:, 0]
    v = vertices[elements]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _face_keys(dim: int, elements: np.ndarray) -> np.ndarray:
    """One int64 key per (element, local face), shape (ne, dim+1).

    A 1D key is the vertex id; a 2D key packs the sorted vertex pair as
    ``min << 32 | max``, so keys sort like the sorted vertex tuples.
    """
    if dim == 1:
        return elements.copy()
    nxt = np.roll(elements, -1, axis=1)
    return np.minimum(elements, nxt) << 32 | np.maximum(elements, nxt)


def _key_tuple(dim: int, key) -> tuple:
    return (int(key),) if dim == 1 else (int(key >> 32), int(key & 0xFFFFFFFF))


def owners(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the first and the last entry naming each distinct id,
    in id order, from one stable sort."""
    flat = ids.ravel()
    order = np.argsort(flat, kind="stable")
    s = flat[order]
    start = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    return order[start], order[np.r_[start[1:], s.size] - 1]


def _build_mesh(dim, vertices, elements, tags) -> Mesh:
    """Assemble a Mesh and enforce its invariants.

    tags: either an iterable of (element, local_face, tag), with local faces
    referring to the element ordering as passed in (tags are matched by
    vertex set, so a later orientation fix cannot misplace them), or a
    callable mapping the (nf, 2) midpoints of the boundary edges, in face
    table order, to nf tags.
    """
    vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
    if vertices.ndim == 1:
        vertices = vertices.reshape(-1, 1)
    elements = np.ascontiguousarray(np.asarray(elements, dtype=np.int64))
    if not callable(tags):
        tagged = np.array(list(tags), dtype=object).reshape(-1, 3)
        tag_keys = _face_keys(dim, elements)[tagged[:, 0].astype(np.int64),
                                             tagged[:, 1].astype(np.int64)]
    unused = np.flatnonzero(np.bincount(elements.ravel(),
                                        minlength=len(vertices)) == 0)
    if unused.size:
        raise NonconformingMeshError(
            f"vertex {unused[0]} belongs to no element")
    # positive orientation; the area floor scales with the first side squared
    size = _signed_measures(dim, vertices, elements)
    scale = 1.0 if dim == 1 else np.max(np.linalg.norm(
        vertices[elements[:, 1]] - vertices[elements[:, 0]], axis=1)) ** 2
    flip = size < 0
    if np.any(flip):
        elements = elements.copy()
        elements[flip] = elements[flip][:, [1, 0] if dim == 1 else [0, 2, 1]]
    size = np.abs(size)
    if np.any(size <= 1e-14 * scale):
        bad = int(np.argmin(size))
        raise DegenerateElementError(
            f"element {bad} has {'width' if dim == 1 else 'area'} {size[bad]:.3e}")

    keys, first, counts = np.unique(_face_keys(dim, elements),
                                    return_index=True, return_counts=True)
    shared = np.flatnonzero(counts > 2)
    if shared.size:
        i = shared[np.argmin(first[shared])]
        raise NonconformingMeshError(
            f"face {_key_tuple(dim, keys[i])} shared by {counts[i]} elements")

    boundary = np.flatnonzero(counts == 1)
    if not callable(tags):
        pos = np.minimum(np.searchsorted(keys, tag_keys), keys.size - 1)
        bad = (keys[pos] != tag_keys) | (counts[pos] != 1)
        if bad.any():
            raise NonconformingMeshError(
                f"face {_key_tuple(dim, tag_keys[np.argmax(bad)])} tagged as "
                f"boundary but not a boundary face")
        tag_of = np.full(keys.size, -1)
        last = owners(pos)[1]           # a face tagged twice keeps its last tag
        tag_of[pos[last]] = last
        untagged = boundary[tag_of[boundary] < 0]
        if untagged.size:
            raise NonconformingMeshError(
                f"boundary face {_key_tuple(dim, keys[untagged[0]])} carries no tag")

    element, local_face = np.divmod(first[boundary], dim + 1)
    if dim == 1:
        normals = np.where(local_face == 0, -1.0, 1.0)[:, None]
        lengths = np.ones(boundary.size)
    else:
        a = vertices[elements[element, local_face]]
        b = vertices[elements[element, (local_face + 1) % 3]]
        d = b - a
        lengths = np.hypot(d[:, 0], d[:, 1])
        normals = np.stack([d[:, 1], -d[:, 0]], axis=1) / lengths[:, None]
    names = tags(0.5 * (a + b)) if callable(tags) else tagged[tag_of[boundary], 2]
    faces = BoundaryFaces(element, local_face, np.asarray(names).astype(str),
                          normals, lengths)
    return Mesh(dim, vertices, elements, faces)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def _finite_float(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"coordinate {token!r} is not finite")
    return x


def load_mesh(path) -> Mesh:
    """Read a mesh from the ASCII format described in the module docstring."""
    with open(path) as fh:
        raw = fh.readlines()
    lines = []
    for lineno, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body))
    if not lines:
        raise MeshFormatError(0, "empty mesh file")

    def parse(idx, n_tokens, conv, what):
        lineno, body = lines[idx]
        toks = body.split()
        if len(toks) < n_tokens:
            raise MeshFormatError(lineno, f"expected {n_tokens} fields for {what}")
        try:
            return [conv(t) for t in toks[:n_tokens]]
        except ValueError as exc:
            raise MeshFormatError(lineno, f"bad {what}: {exc}") from None

    dim, nv, ne, nb = parse(0, 4, int, "header 'dim nv ne nb'")
    if dim not in (1, 2):
        raise MeshFormatError(lines[0][0], f"dimension must be 1 or 2, got {dim}")
    for what, count, least in (("vertex count nv", nv, 1),
                               ("element count ne", ne, 1),
                               ("boundary face count nb", nb, 0)):
        if count < least:
            raise MeshFormatError(lines[0][0],
                                  f"{what} must be at least {least}, got {count}")
    needed = 1 + nv + ne + nb
    if len(lines) < needed:
        raise MeshFormatError(lines[-1][0],
                              f"file truncated: expected {needed} data lines")
    vertices = [parse(1 + i, dim, _finite_float, "vertex") for i in range(nv)]
    elements = [parse(1 + nv + i, dim + 1, int, "element") for i in range(ne)]
    tagged = []
    for i in range(nb):
        lineno, body = lines[1 + nv + ne + i]
        toks = body.split()
        if len(toks) < 3:
            raise MeshFormatError(lineno, "expected 'elem face tag'")
        try:
            e, k = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise MeshFormatError(lineno, f"bad boundary line: {exc}") from None
        if not 0 <= e < ne:
            raise MeshFormatError(lineno, f"element index {e} out of range")
        if not 0 <= k <= dim:
            raise MeshFormatError(lineno, f"local face {k} out of range")
        tagged.append((e, k, toks[2]))
    for i, el in enumerate(elements):
        for v in el:
            if not 0 <= v < nv:
                raise MeshFormatError(lines[1 + nv + i][0],
                                      f"vertex index {v} out of range")
    return _build_mesh(dim, vertices, elements, tagged)


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the ASCII format (round-trips through load_mesh)."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.dimension} {mesh.n_vertices} {mesh.n_elements} "
                 f"{len(mesh.boundary_faces)}\n")
        for v in mesh.vertices:
            fh.write(" ".join(repr(float(x)) for x in v) + "\n")
        for el in mesh.elements:
            fh.write(" ".join(str(int(i)) for i in el) + "\n")
        bf = mesh.boundary_faces
        for e, k, tag in zip(bf.element, bf.local_face, bf.tags):
            fh.write(f"{e} {k} {tag}\n")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def check_spacing(spacing: str, seed) -> None:
    """Reject an interval spacing whose nodes a recipe could not reproduce."""
    if spacing not in ("regular", "random"):
        raise ValueError(f"unknown spacing {spacing!r}")
    if spacing == "regular" and seed is not None:
        raise ValueError("regular spacing takes no seed")
    if spacing == "random" and seed is None:
        raise ValueError("random spacing needs a seed")
    if seed is not None and seed < 0:
        raise ValueError(f"seed {seed} must be >= 0")


def interval_mesh(n: int, spacing: str = "regular", seed=None) -> Mesh:
    """n cells on [0, 1]; 'random' perturbs interior nodes by up to 0.4 h."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_spacing(spacing, seed)
    nodes = np.linspace(0.0, 1.0, n + 1)
    if spacing == "random":
        rng = np.random.default_rng(seed)
        h = 1.0 / n
        nodes[1:-1] += rng.uniform(-0.4 * h, 0.4 * h, size=n - 1)
    elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    tagged = [(0, 0, "left"), (n - 1, 1, "right")]
    return _build_mesh(1, nodes, elements, tagged)


def unit_square_mesh(n: int, perturb_seed=None) -> Mesh:
    """Structured 2 n^2-triangle mesh of [0,1]^2 (diagonal split).

    With ``perturb_seed`` set, interior vertices are jittered by up to 0.3/n
    in each coordinate, producing an unstructured mesh with the same uniform
    boundary discretization.  A jitter that inverts a triangle would fold
    the mesh, so it is refused with DegenerateElementError.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if perturb_seed is not None and perturb_seed < 0:
        raise ValueError(f"seed {perturb_seed} must be >= 0")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.stack([X.ravel(), Y.ravel()], axis=1)
    if perturb_seed is not None:
        rng = np.random.default_rng(perturb_seed)
        interior = ((vertices[:, 0] > 1e-12) & (vertices[:, 0] < 1 - 1e-12) &
                    (vertices[:, 1] > 1e-12) & (vertices[:, 1] < 1 - 1e-12))
        jitter = rng.uniform(-0.3 / n, 0.3 / n, size=(vertices.shape[0], 2))
        vertices = vertices + jitter * interior[:, None]
    j, i = np.divmod(np.arange(n * n), n)
    v00 = j * (n + 1) + i
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    elements = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    # every triangle is listed counter-clockwise; _build_mesh would re-orient
    # an inverted one and leave the mesh folded
    area = _signed_measures(2, vertices, elements)
    if not area.min() > 0:
        bad = int(np.argmin(area))
        raise DegenerateElementError(
            f"perturb_seed {perturb_seed} inverts element {bad} of the "
            f"{n} x {n} square (signed area {area[bad]:.3e})")

    def side(mid):
        x, y = mid.T
        return np.select([np.abs(x) < 1e-12, np.abs(x - 1.0) < 1e-12,
                          np.abs(y) < 1e-12], ["left", "right", "bottom"], "top")

    return _build_mesh(2, vertices, elements, side)


def unit_disk_mesh(n: int) -> Mesh:
    """Hexagonal-ring triangulation of the unit disk: 6 n^2 triangles.

    Ring k carries 6k vertices at radius k/n; boundary vertices lie on the
    unit circle exactly.  The polygonal boundary length approaches 2*pi from
    below as n grows.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # ring k starts at vertex 1 + 3 k (k - 1); its vertex j sits at angle
    # 2 pi j / 6k
    k = np.repeat(np.arange(1, n + 1), 6 * np.arange(1, n + 1))
    j = np.arange(k.size) - 3 * k * (k - 1)
    th = 2.0 * np.pi * j / (6 * k)
    r = k / n
    vertices = np.vstack([[0.0, 0.0], np.stack([r * np.cos(th), r * np.sin(th)], 1)])
    # the innermost fan, then band k (between rings k - 1 and k): 6 sectors
    # of 2k - 1 triangles; in sector s, slot 2t is (o0, o1, i0) on outer
    # edge t and slot 2t + 1 is (o1, i1, i0) on inner edge t
    j = np.arange(6)
    fan = np.stack([np.zeros(6, dtype=int), 1 + j, 1 + (j + 1) % 6], 1)
    k = np.repeat(np.arange(2, n + 1), 6 * (2 * np.arange(2, n + 1) - 1))
    s, slot = np.divmod(np.arange(k.size) - 6 * ((k - 1) ** 2 - 1), 2 * k - 1)
    t, inner = np.divmod(slot, 2)
    so, si = 1 + 3 * k * (k - 1), 1 + 3 * (k - 1) * (k - 2)
    o0 = so + (s * k + t) % (6 * k)
    o1 = so + (s * k + t + 1) % (6 * k)
    i0 = si + (s * (k - 1) + t) % (6 * (k - 1))
    i1 = si + (s * (k - 1) + t + 1) % (6 * (k - 1))
    band = np.where(inner[:, None] == 1, np.stack([o1, i1, i0], 1),
                    np.stack([o0, o1, i0], 1))
    elements = np.vstack([fan, band])
    return _build_mesh(2, vertices, elements,
                       lambda mid: np.full(len(mid), "circle"))


def annulus_mesh(r0: float, r1: float, n: int) -> Mesh:
    """Ring mesh between radii r0 < r1 with n radial layers.

    The angular resolution follows the radial spacing, so cells stay close
    to isotropic.  Tags: 'inner' and 'outer'.
    """
    if not (0 < r0 < r1 and np.isfinite(r1)):
        raise ValueError(f"need finite radii 0 < r0 < r1, got {r0} and {r1}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    with np.errstate(over="ignore"):
        count = np.pi * (r0 + r1) * n / (r1 - r0)
    if not np.isfinite(count):
        raise ValueError(f"annulus angular cell count pi (r0 + r1) n / (r1 - r0) "
                         f"overflows for r0 = {r0}, r1 = {r1}, n = {n}")
    m = max(8, int(round(count)))
    m += m % 2          # even count keeps the angular layout mirror-symmetric
    radii = np.linspace(r0, r1, n + 1)
    th = 2.0 * np.pi * np.arange(m) / m
    vertices = np.stack([np.outer(radii, np.cos(th)).ravel(),
                         np.outer(radii, np.sin(th)).ravel()], axis=1)
    k, j = np.divmod(np.arange(n * m), m)
    a, b = k * m + j, k * m + (j + 1) % m
    c, d = a + m, b + m
    elements = np.stack([a, b, d, a, d, c], axis=1).reshape(-1, 3)
    rmid = 0.5 * (r0 + r1)
    return _build_mesh(2, vertices, elements, lambda mid: np.where(
        np.hypot(mid[:, 0], mid[:, 1]) < rmid, "inner", "outer"))


# recipe name -> (argument signature, builder from the argument strings)
_RECIPES = {
    "interval": ("n[,regular|random[,seed]]",
                 lambda n, spacing="regular", seed=None: interval_mesh(
                     int(n), spacing, None if seed is None else int(seed))),
    "unit_square": ("n", lambda n: unit_square_mesh(int(n))),
    "perturbed_square": ("n,seed", lambda n, seed: unit_square_mesh(
        int(n), perturb_seed=int(seed))),
    "unit_disk": ("n", lambda n: unit_disk_mesh(int(n))),
    "annulus": ("r0,r1,n", lambda r0, r1, n: annulus_mesh(
        float(r0), float(r1), int(n))),
}


def generate_mesh(spec: str) -> Mesh:
    """Build a mesh from a recipe string, one of the ``_RECIPES`` signatures::

        interval(n[,regular|random[,seed]])
        unit_square(n)
        perturbed_square(n,seed)
        unit_disk(n)
        annulus(r0,r1,n)
    """
    spec = spec.strip()
    if "(" not in spec or not spec.endswith(")"):
        raise ValueError(f"bad mesh recipe {spec!r}")
    name, argstr = spec[:-1].split("(", 1)
    args = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    name = name.strip()
    if name not in _RECIPES:
        raise ValueError(f"unknown mesh recipe {name!r}")
    signature, build = _RECIPES[name]
    try:
        inspect.signature(build).bind(*args)
    except TypeError:
        raise ValueError(f"mesh recipe {spec!r} does not match "
                         f"{name}({signature})") from None
    return build(*args)


# ---------------------------------------------------------------------------
# DoF map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DofMap:
    order: int
    kind: str
    mesh: Mesh = field(repr=False)
    element_dofs: np.ndarray    # (ne, DoFs per element)
    n_dofs: int
    dof_coords: np.ndarray      # (n_dofs, dim) lattice positions
    boundary_dofs: np.ndarray   # sorted global ids on the physical boundary
    face_dofs: np.ndarray       # (nf, p+1) per boundary face, face-lattice order
    first_owner: np.ndarray     # (n_dofs,) flat index into element_dofs of the
    last_owner: np.ndarray      # first / last entry naming each DoF

    def __post_init__(self):
        _readonly(self.element_dofs, self.dof_coords, self.boundary_dofs,
                  self.face_dofs, self.first_owner, self.last_owner)

    def interior_dofs(self) -> np.ndarray:
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.boundary_dofs] = False
        return np.nonzero(mask)[0]

    def basis_spec(self) -> BasisSpec:
        domain = "interval" if self.mesh.dimension == 1 else "triangle"
        return BasisSpec(self.kind, self.order, domain)


def build_dofmap(mesh: Mesh, p: int, kind: str) -> DofMap:
    """Continuous-Galerkin DoF numbering: vertices, then edges, then cells.

    Lattice points shared between neighboring elements receive a single
    global id; edge-interior DoFs follow the global edge orientation
    (low vertex id to high), so both neighbors agree on the ordering.
    Edges are numbered in order of first appearance, and a shared DoF takes
    its coordinates from the last element listing it.  The kind and order
    are checked by ``BasisSpec`` before anything is built.
    """
    dim = mesh.dimension
    BasisSpec(kind, p, "interval" if dim == 1 else "triangle")   # validates
    nv, ne = mesh.n_vertices, mesh.n_elements
    el = mesh.elements
    lf = np.arange(dim + 1)            # local faces

    if dim == 1:
        n_dofs = nv + ne * (p - 1)
        cells = nv + np.arange(ne * (p - 1)).reshape(ne, p - 1)
        element_dofs = np.column_stack([el[:, 0], cells, el[:, 1]])
        x = mesh.vertices[el, 0]
        local = x[:, :1] + (x[:, 1:] - x[:, :1]) * interval_lattice(p)
        face_local = (lf * p)[:, None]
    else:
        n_int = p - 1
        n_cell = (p - 1) * (p - 2) // 2
        _, first, inverse = np.unique(_face_keys(2, el), return_index=True,
                                      return_inverse=True)
        rank = np.empty_like(first)         # edge ids in order of first appearance
        rank[np.argsort(first)] = np.arange(first.size)
        edge = rank[inverse].reshape(ne, 3)
        cell0 = nv + first.size * n_int
        n_dofs = cell0 + ne * n_cell
        step = np.arange(n_int)
        # a local edge running from the higher vertex id walks its DoFs backwards
        t = np.where((el > np.roll(el, -1, axis=1))[..., None],
                     n_int - 1 - step, step)
        edges = nv + edge[..., None] * n_int + t
        cells = cell0 + np.arange(ne * n_cell).reshape(ne, n_cell)
        element_dofs = np.hstack([el, edges.reshape(ne, -1), cells])
        bary = np.array(triangle_multi_indices(p), dtype=float) / p
        local = np.matmul(bary, mesh.vertices[el])
        face_local = np.column_stack([lf, 3 + lf[:, None] * n_int + step,
                                      (lf + 1) % 3])

    first, last = owners(element_dofs)
    coords = local.reshape(-1, dim)[last]
    bf = mesh.boundary_faces
    face_dofs = element_dofs[bf.element[:, None], face_local[bf.local_face]]
    return DofMap(p, kind, mesh, element_dofs, n_dofs, coords,
                  np.unique(face_dofs), face_dofs, first, last)
