"""Brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the solver code paths they are used to check:
the incremental step is minimized by exhaustive evaluation on a grid in
the 2-plane spanned by the driving stress deviator and the anchor, which
contains the minimizer by rotational symmetry of all radial terms.  The
dual energy norms of load functionals come from a sparse LU of the whole
constrained (u, z) energy matrix.
"""

import itertools
import math

import numpy as np
import scipy.sparse.linalg as spla

from smaevol.material import radial_core_value
from smaevol.tensors import dev_split


def plane_basis(b, anchor):
    """Orthonormal basis of span{b, anchor} padded to two directions."""
    vecs = []
    for v in (np.asarray(b, float), np.asarray(anchor, float)):
        w = v.copy()
        for u in vecs:
            w = w - (w @ u) * u
        n = np.linalg.norm(w)
        if n > 1e-12:
            vecs.append(w / n)
    k = 0
    while len(vecs) < 2:
        w = np.zeros(5)
        w[k] = 1.0
        for u in vecs:
            w = w - (w @ u) * u
        n = np.linalg.norm(w)
        if n > 1e-12:
            vecs.append(w / n)
        k += 1
    return vecs[0], vecs[1]


def path_dissipation(R, samples):
    """Total dissipation R sum |z_k - z_{k-1}| along ordered deviators.

    For the piecewise-constant interpolants produced by the solvers this
    equals the total dissipation on the whole interval.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or len(samples) == 0:
        raise ValueError("need a non-empty ordered list of deviators")
    steps = np.diff(samples, axis=0)
    return R * float(np.linalg.norm(steps, axis=1).sum())


def planar_step_oracle(p, sigma, z_prev, n=400, extent=None):
    """Grid minimizer of the reduced incremental objective in the 2-plane.

    Returns (z_star_5d, grid_step).  The reduced objective is
    F(z) - sigma_dev : z + R |z - z_prev| with the strain eliminated.
    The n x n grid is polar in the plane so the transformation-ball
    boundary (where sharp-model minimizers often sit) is itself a grid
    line; the reported step is the larger of the radial spacing and the
    arc spacing at the minimizer.
    """
    b = dev_split(sigma)[0]
    anchor = np.asarray(z_prev, float)
    u1, u2 = plane_basis(b, anchor)
    if extent is None:
        extent = p.c3 + 2.0 * p.delta + 0.05
    rs = np.linspace(0.0, extent, n)
    if p.rho == 0:
        rs[np.argmin(np.abs(rs - p.c3))] = p.c3
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    R, TH = np.meshgrid(rs, thetas, indexing="ij")
    X = R * np.cos(TH)
    Y = R * np.sin(TH)
    if p.rho > 0:
        F = radial_core_value(p, R) + p.c2 * R * R
    else:
        F = np.where(R <= p.c3, p.c1 * R + p.c2 * R * R, np.inf)
    lin = (b @ u1) * X + (b @ u2) * Y
    ax, ay = anchor @ u1, anchor @ u2
    diss = p.R * np.sqrt((X - ax) ** 2 + (Y - ay) ** 2)
    obj = F - lin + diss
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    z_star = X[i, j] * u1 + Y[i, j] * u2
    step = max(rs[1] - rs[0], rs[i] * (thetas[1] - thetas[0]))
    return z_star, step


def box_mesh_loops(n):
    """Tets and boundary triangles of the box mesh, built one tet at a time.

    Cells run with i fastest, each cut into six tets by the axis
    permutations; a face is on the boundary when exactly one tet has it,
    and boundary faces are listed in first-appearance order with sorted
    node triples.  Planes are recognized on the integer lattice, so the
    result does not depend on the box extents.
    """
    nx, ny, nz = n
    nid = lambda i, j, k: i + (nx + 1) * (j + (ny + 1) * k)
    tets = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                for perm in itertools.permutations((0, 1, 2)):
                    cur = [i, j, k]
                    idx = [nid(*cur)]
                    for axis in perm:
                        cur[axis] += 1
                        idx.append(nid(*cur))
                    tets.append(idx)
    tets = np.array(tets, dtype=int)

    faces = {}
    for tet in tets:
        for f in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
            key = tuple(sorted(int(v) for v in tet[list(f)]))
            faces[key] = faces.get(key, 0) + 1
    boundary = {pl: [] for pl in ("x0", "x1", "y0", "y1", "z0", "z1")}
    for key, count in faces.items():
        if count != 1:
            continue
        ijk = [(v % (nx + 1), v // (nx + 1) % (ny + 1), v // ((nx + 1) * (ny + 1)))
               for v in key]
        for a, pl0, pl1 in ((0, "x0", "x1"), (1, "y0", "y1"), (2, "z0", "z1")):
            if all(p[a] == 0 for p in ijk):
                boundary[pl0].append(list(key))
                break
            if all(p[a] == n[a] for p in ijk):
                boundary[pl1].append(list(key))
                break
        else:
            raise RuntimeError("boundary face not on any box plane")
    return tets, {pl: np.array(tris, dtype=int).reshape(-1, 3)
                  for pl, tris in boundary.items()}


def joint_lu_dual_norms(solver, L_list):
    """Dual norms of stacked (u, z) load functionals in the constrained
    energy norm, by a sparse LU of the joint energy matrix."""
    H = solver.forms.matrix().tocsc()
    free = np.concatenate([solver.space.u_free,
                           np.ones(solver.space.n_z, dtype=bool)])
    lu = spla.splu(H[free][:, free])
    out = []
    for L in L_list:
        Lc = L[free]
        out.append(math.sqrt(max(float(Lc @ lu.solve(Lc)), 0.0)))
    return np.array(out)
