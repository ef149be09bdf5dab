"""CSV and legacy-VTK writers for solver output.

2D fields are written as VTK legacy ASCII unstructured grids with one
POINT_DATA scalar per component sampled at mesh vertices; 1D fields as CSV
``x, u1..um``.  Float formatting uses ``repr`` so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh


def _floats(a) -> list:
    """Entries of an array as Python floats, for ``repr`` formatting."""
    return np.asarray(a, dtype=float).tolist()


def write_energy_csv(path, traj) -> None:
    """Per-step history: step, t, energy, umax, umin."""
    rows = zip(_floats(traj.times), _floats(traj.energies),
               _floats(traj.umax), _floats(traj.umin))
    with open(path, "w") as fh:
        fh.write("step,t,energy,umax,umin\n")
        fh.writelines(f"{k},{t!r},{e!r},{hi!r},{lo!r}\n"
                      for k, (t, e, hi, lo) in enumerate(rows))


def write_solution_csv_1d(path, dofmap, values: np.ndarray) -> None:
    """1D solution sampled at DoF nodes, sorted by x."""
    x = dofmap.dof_coords[:, 0]
    order = np.argsort(x, kind="stable")
    vals = values.reshape(dofmap.n_dofs, -1)
    with open(path, "w") as fh:
        fh.write("x," + ",".join(f"u{c+1}" for c in range(vals.shape[1])) + "\n")
        fh.writelines(",".join(map(repr, [xi, *row])) + "\n"
                      for xi, row in zip(_floats(x[order]),
                                         _floats(vals[order])))


def write_vtk(path, mesh: Mesh, point_data: dict, title: str = "cgsat output") -> None:
    """Legacy-ASCII VTK unstructured grid with vertex scalars.

    ``point_data`` maps field names to arrays over mesh vertices.
    """
    if mesh.dimension != 2:
        raise ValueError("VTK writer expects a 2D mesh")
    nv = mesh.n_vertices
    ne = mesh.n_elements
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title + "\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {nv} double\n")
        fh.writelines(f"{x!r} {y!r} 0.0\n" for x, y in _floats(mesh.vertices))
        fh.write(f"\nCELLS {ne} {4 * ne}\n")
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in mesh.elements.tolist())
        fh.write(f"\nCELL_TYPES {ne}\n")
        fh.write("5\n" * ne)
        fh.write(f"\nPOINT_DATA {nv}\n")
        for name, arr in point_data.items():
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            fh.writelines(f"{x!r}\n" for x in _floats(np.ravel(arr)))


def vertex_values(disc, state: np.ndarray) -> np.ndarray:
    """Solution values at mesh vertices, shape (nv, ncomp).

    Vertex DoFs come first in the global numbering, and both basis families
    interpolate values at vertices (corner coefficients are corner values).
    """
    nodal = disc.value_op @ state.reshape(disc.dofmap.n_dofs, disc.ncomp)
    return nodal[:disc.mesh.n_vertices]
