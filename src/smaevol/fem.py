"""Structured-mesh P1 finite elements on a box domain.

The box is subdivided into cells, each cut into six tetrahedra along the
main diagonal (Kuhn/Freudenthal pattern), which is conforming and nested
under dyadic refinement.  Displacements carry three dofs per node
(node-major, dof = 3*node + comp); the transformation-strain field carries
five dofs per node in the orthonormal deviatoric basis of tensors.py
(dof = 5*node + comp), so all nodal norms are plain euclidean.  A dof
vector is the ravel of an (n_nodes, k) array, on which a scalar nodal
matrix A acts as A (x) I_k does on the vector; so the space keeps only the
scalar matrices (mass M, gradient stiffness Gs, surface masses surf), and
a form written z . M z sums over the k columns.

Assembly: a space has one CSR pattern, the sorted node pairs of its tets,
with the data slot of every element entry (a boundary plane has its own,
from its triangles).  Every form, with p dofs per row node and q per
column node, is summed from its element blocks straight into the data
array of that pattern, each entry's terms in element order.  The element
blocks are formed a chunk of elements at a time from the element volumes
and basis gradients the space keeps; no block array over all elements is
formed.

Quadrature policy: the quadratic energy terms are integrated exactly
(P1 integrands are polynomials), while the nonsmooth transformation and
dissipation densities are imposed nodally with lumped weights.  Loads are
sampled at nodes and integrated as elementwise-linear data, which is exact
against P1 test functions.

Mesh/field dump format (plain columnar text): a header line
"# smaevol-fields nodes=<n> tets=<m> fields=<name:width,...>", one line per
node with "x y z <field values...>", a line "# tets", then one line per
tetrahedron with its four node indices.
"""

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .material import MaterialParams
from .tensors import DEV_BASIS

PLANES = ("x0", "x1", "y0", "y1", "z0", "z1")
_PERMS = list(itertools.permutations((0, 1, 2)))
_LOCAL_FACES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


class SingularFormError(Exception):
    """The energy form is not definite on the requested subspace."""


@dataclass
class BoxMesh:
    extents: np.ndarray          # (3,)
    n: np.ndarray                # subdivisions per axis
    nodes: np.ndarray            # (nn, 3)
    tets: np.ndarray             # (nt, 4), tet 6*cell + perm
    h: float                     # max edge length
    boundary: dict               # plane -> (ntri, 3) node triples

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def box_mesh(extents=(1.0, 1.0, 1.0), n=(2, 2, 2)) -> BoxMesh:
    extents = np.asarray(extents, dtype=float)
    n = np.asarray(n, dtype=int)
    if extents.shape != (3,) or n.shape != (3,) or np.any(n < 1) \
            or np.any(extents <= 0):
        raise ValueError("need 3 positive extents and n >= 1 cells per axis")
    nx, ny, nz = (int(k) for k in n)
    xs = [np.linspace(0, extents[a], n[a] + 1) for a in range(3)]
    I, J, K = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), np.arange(nz + 1),
                          indexing="ij")
    nodes = np.stack([xs[0][I], xs[1][J], xs[2][K]], axis=-1)
    nodes = nodes.transpose(2, 1, 0, 3).reshape(-1, 3)  # node id order

    # cells with i fastest so tet id = 6 * (i + nx*(j + ny*k)) + perm,
    # matching the cell indexing used by locate(); a tet walks from the
    # cell's low corner to its high corner one axis at a time, in perm order
    Kc, Jc, Ic = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                             indexing="ij")
    base = (Ic + (nx + 1) * (Jc + (ny + 1) * Kc)).ravel()
    stride = np.array([1, nx + 1, (nx + 1) * (ny + 1)])
    offsets = np.cumsum(np.pad(stride[np.array(_PERMS)], ((0, 0), (1, 0))), axis=1)
    tets = (base[:, None, None] + offsets[None]).reshape(-1, 4)

    coords = nodes[tets]
    all_edges = []
    for a in range(4):
        for b in range(a + 1, 4):
            all_edges.append(np.linalg.norm(coords[:, a] - coords[:, b], axis=1))
    h = float(np.max(all_edges))

    # a face with all three nodes on a box plane lies in that plane, so it
    # belongs to exactly one tet; these are the boundary faces, listed in
    # (tet, local face) order with sorted node triples
    faces = np.sort(tets[:, _LOCAL_FACES], axis=2).reshape(-1, 3)
    tol = 1e-9 * max(extents)
    boundary = {}
    for a in range(3):
        x = nodes[faces, a]
        for pl, level in ((PLANES[2 * a], 0.0), (PLANES[2 * a + 1], extents[a])):
            boundary[pl] = faces[np.all(np.abs(x - level) < tol, axis=1)]
    return BoxMesh(extents, n, nodes, tets, h, boundary)


def nested_dissection(mesh: BoxMesh, nodes=None) -> np.ndarray:
    """Nested-dissection order of the masked nodes (all by default): a set
    is split at the middle grid plane of its longest extent, the two sides
    ordered recursively, the plane last (every tet edge joins adjacent grid
    planes); a set spanning under 3 planes on each axis keeps id order."""
    ids = np.arange(mesh.n_nodes) if nodes is None else np.flatnonzero(nodes)
    ijk = np.stack(np.unravel_index(ids, tuple(mesh.n[::-1] + 1))[::-1], axis=1)

    def order(sel):
        lo, hi = ijk[sel].min(axis=0), ijk[sel].max(axis=0)
        a = int(np.argmax(hi - lo))
        if hi[a] - lo[a] < 2:
            return sel
        g, mid = ijk[sel, a], (lo[a] + hi[a]) // 2
        return np.concatenate([order(sel[g < mid]), order(sel[g > mid]),
                               sel[g == mid]])

    return ids[order(np.arange(len(ids)))] if len(ids) else ids


class Pattern(NamedTuple):
    """CSR pattern of a scalar nodal form over elements of k nodes: the
    sorted node pairs of the elements, and the data slot of each element
    entry (a, b)."""

    indptr: np.ndarray           # (nn + 1,)
    indices: np.ndarray          # (nnz,)
    slots: np.ndarray            # (ne, k, k)


@dataclass
class FeSpace:
    mesh: BoxMesh
    dirichlet_planes: tuple = ("x0",)
    # geometric element data and matrices, filled by build_space; the
    # element blocks of every form are formed from vols and grads a chunk
    # of elements at a time
    vols: np.ndarray = None        # (nt,) element volumes
    grads: np.ndarray = None       # (nt, 4, 3) P1 basis gradients
    M: sp.csr_matrix = None        # scalar consistent mass
    Gs: sp.csr_matrix = None       # scalar gradient stiffness
    lumped: np.ndarray = None      # nodal quadrature weights
    surf: dict = None              # plane -> scalar surface mass
    pattern: Pattern = None        # CSR pattern of the tets' node pairs
    dirichlet_nodes: np.ndarray = None   # bool (nn,)

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @property
    def n_u(self) -> int:
        return 3 * self.mesh.n_nodes

    @property
    def n_z(self) -> int:
        return 5 * self.mesh.n_nodes

    @property
    def u_free(self) -> np.ndarray:
        return ~np.repeat(self.dirichlet_nodes, 3)


def _element_geometry(mesh: BoxMesh):
    coords = mesh.nodes[mesh.tets]                       # (nt, 4, 3)
    E = coords[:, 1:, :] - coords[:, :1, :]              # rows are edges
    A = np.transpose(E, (0, 2, 1))                       # columns are edges
    vols = np.abs(np.linalg.det(A)) / 6.0
    Ainv = np.linalg.inv(A)
    grads = np.zeros((len(vols), 4, 3))
    grads[:, 1:, :] = Ainv
    grads[:, 0, :] = -Ainv.sum(axis=1)
    return vols, grads


def _strain_displacement(grads):
    """The (nt, 6, 12) strain-displacement matrices (Mandel) of the
    elements' basis gradients (nt, 4, 3)."""
    nt = len(grads)
    D = np.zeros((nt, 6, 12))
    s = 1.0 / np.sqrt(2.0)
    for a in range(4):
        g = grads[:, a, :]
        col = 3 * a
        D[:, 0, col + 0] = g[:, 0]
        D[:, 1, col + 1] = g[:, 1]
        D[:, 2, col + 2] = g[:, 2]
        D[:, 3, col + 1] = s * g[:, 2]
        D[:, 3, col + 2] = s * g[:, 1]
        D[:, 4, col + 0] = s * g[:, 2]
        D[:, 4, col + 2] = s * g[:, 0]
        D[:, 5, col + 0] = s * g[:, 1]
        D[:, 5, col + 1] = s * g[:, 0]
    return D


def _pattern(nn, elems) -> Pattern:
    """The pattern of the elements (ne, k) over nn nodes."""
    k = elems.shape[1]
    keys = (elems[:, :, None] * nn + elems[:, None, :]).ravel()
    pairs, slots = np.unique(keys, return_inverse=True)
    rows = pairs // nn
    indptr = np.zeros(nn + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nn), out=indptr[1:])
    return Pattern(indptr, pairs - rows * nn, slots.reshape(-1, k, k))


_CHUNK = 256    # elements per block and np.add.at call


def _assemble(pat: Pattern, p, q, block) -> sp.csr_matrix:
    """The (p nn, q nn) CSR matrix with p dofs per row node and q per column
    node (dof = p*node + comp) summed from the element blocks: block(sl)
    gives those of the elements in the slice sl, (len, k p, k q); a block
    (len, k p, q) stands for the same block at every column node.  Each
    entry sums its element terms in element order, starting at +0; the
    blocks and their index arrays are formed a chunk of elements at a
    time."""
    ne, k = pat.slots.shape[:2]
    nn, nnz = len(pat.indptr) - 1, len(pat.indices)
    start, deg = pat.indptr[:-1], np.diff(pat.indptr)
    c, d = np.arange(p), np.arange(q)
    # row (i, c) of the matrix starts at q (p start_i + c deg_i) and holds
    # q deg_i entries, q per scalar slot in slot order; so scalar slot s in
    # row i has the data index base_s + c span_s + d at row component c and
    # column component d, base_s = q ((p - 1) start_i + s), span_s = q deg_i
    row = np.repeat(np.arange(nn), deg)
    base = q * ((p - 1) * start[row] + np.arange(nnz))
    span = q * deg[row]
    indices = np.empty(p * q * nnz, dtype=pat.indices.dtype)
    indices[base[:, None, None] + span[:, None, None] * c[:, None] + d] = \
        q * pat.indices[:, None, None] + d
    indptr = np.append(q * (p * start[:, None] + deg[:, None] * c).ravel(),
                       p * q * nnz)
    data = np.zeros(p * q * nnz)
    for e in range(0, ne, _CHUNK):
        sl = slice(e, e + _CHUNK)
        blk = block(sl)
        blk = blk.reshape(len(blk), k, p, blk.shape[2] // q, q)
        # flat index and values (len, k, p, k, q) of element entry (a, b),
        # row and column components (c, d): numpy's fast path of ufunc.at
        slot = pat.slots[sl][:, :, None, :, None]
        idx = base[slot] + c[:, None, None] * span[slot] + d
        np.add.at(data, idx.ravel(), np.broadcast_to(blk, idx.shape).ravel())
    return sp.csr_matrix((data, indices, indptr), shape=(p * nn, q * nn))


def build_space(mesh: BoxMesh, dirichlet_planes=("x0",)) -> FeSpace:
    for pl in dirichlet_planes:
        if pl not in PLANES:
            raise ValueError(f"unknown boundary plane {pl!r}")
    space = FeSpace(mesh, tuple(dirichlet_planes))
    nn = mesh.n_nodes
    vols, grads = _element_geometry(mesh)
    space.vols, space.grads = vols, grads
    space.pattern = _pattern(nn, mesh.tets)

    # scalar mass: vol/20 * (1 + delta_ab); scalar stiffness: vol grad.grad
    mass4 = (np.ones((4, 4)) + np.eye(4))[None, :, :]
    space.M = _assemble(space.pattern, 1, 1,
                        lambda sl: (vols[sl, None, None] / 20.0) * mass4)
    space.Gs = _assemble(space.pattern, 1, 1, lambda sl: np.einsum(
        "t,tad,tbd->tab", vols[sl], grads[sl], grads[sl]))
    space.lumped = np.asarray(space.M.sum(axis=1)).ravel()

    space.surf = {}
    for pl, tris in mesh.boundary.items():
        pts = mesh.nodes[tris]
        areas = 0.5 * np.linalg.norm(
            np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]), axis=1)
        mass3 = (np.ones((3, 3)) + np.eye(3))[None, :, :]
        space.surf[pl] = _assemble(
            _pattern(nn, tris), 1, 1,
            lambda sl: (areas[sl, None, None] / 12.0) * mass3)

    mask = np.zeros(nn, dtype=bool)
    for pl in dirichlet_planes:
        mask[np.unique(mesh.boundary[pl])] = True
    space.dirichlet_nodes = mask
    return space


@dataclass
class StepForms:
    """Assembled quadratic forms for one (space, material) pair.

    energy_value is the quadratic part of the stored energy (elastic term
    plus hardening mass plus gradient term).
    """

    space: FeSpace
    params: MaterialParams
    K: sp.csr_matrix
    Cup: sp.csr_matrix

    def energy_value(self, y) -> float:
        u, z = y
        G, c2, nu = self.params.elastic.G, self.params.c2, self.params.nu
        Z = z.reshape(-1, 5)
        cross = 0.5 * (u @ (self.Cup @ z))
        val = 0.5 * (u @ (self.K @ u)) - cross - cross \
            + (G + c2) * (z @ (self.space.M @ Z).ravel())
        if nu:
            val += 0.5 * nu * (z @ (self.space.Gs @ Z).ravel())
        return float(val)

    def z_block(self) -> sp.csr_matrix:
        """The scalar nodal matrix S = (G + c2) M + nu/2 Gs; the z-z block of
        the energy matrix is S (x) I5, S applied to the (n_nodes, 5) field."""
        G, c2, nu = self.params.elastic.G, self.params.c2, self.params.nu
        Z = (G + c2) * self.space.M
        if nu:
            Z = Z + 0.5 * nu * self.space.Gs
        return Z

    def matrix(self) -> sp.csr_matrix:
        """Sparse H with y . H y = energy_value(y) on stacked (u, z) dofs."""
        return sp.bmat([[0.5 * self.K, -0.5 * self.Cup],
                        [-0.5 * self.Cup.T,
                         sp.kron(self.z_block(), sp.eye(5))]], format="csr")


def _triple(w, L, C, R):
    """Bit for bit the einsum "t,tia,ij,tjb->tab" (R's leading axis may be 1):
    same products, same (i, j) order of the sums; a term with C[i, j] = 0
    would add a signed zero to a sum started at +0, so it is skipped."""
    out = np.zeros((len(L), L.shape[2], R.shape[2]))
    for i, j in zip(*np.nonzero(C)):
        out += ((w[:, None] * L[:, i, :]) * C[i, j])[:, :, None] * R[:, j, None, :]
    return out


def assemble_forms(space: FeSpace, params: MaterialParams) -> StepForms:
    C6 = params.elastic.matrix6()
    vols, grads = space.vols, space.grads

    def stiffness(sl):
        D = _strain_displacement(grads[sl])
        return _triple(vols[sl], D, C6, D)

    def coupling(sl):
        # int C eps(u) : zeta with the nodal deviatoric field; one block
        # (len, 12, 5) for all four z-nodes, as int of each P1 hat is vol/4
        return _triple(vols[sl] / 4.0, _strain_displacement(grads[sl]), C6,
                       DEV_BASIS[None])

    K = _assemble(space.pattern, 3, 3, stiffness)
    Cup = _assemble(space.pattern, 3, 5, coupling)
    return StepForms(space, params, K, Cup)


# ---------------------------------------------------------------------------
# loads and boundary data


@dataclass
class LoadProgram:
    """Piecewise-linear-in-time loads and boundary displacement.

    Spatial shapes are fixed per channel (constant vectors or callables of
    position); the time dependence is a common piecewise-linear amplitude
    per channel.  Tractions act on whole box planes of the traction part
    of the boundary.
    """

    times: np.ndarray = dc_field(default_factory=lambda: np.array([0.0, 1.0]))
    traction: dict = dc_field(default_factory=dict)      # plane -> vec or fn
    traction_amps: Optional[np.ndarray] = None
    body: object = None                                   # vec or fn
    body_amps: Optional[np.ndarray] = None
    dirichlet: Optional[Callable] = None                  # fn x -> (3,)
    dirichlet_amps: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        self.times = t
        if len(t) < 2 or np.any(np.diff(t) <= 0):
            raise ValueError("time breakpoints must be strictly increasing")
        for pl in self.traction:
            if pl not in PLANES:
                raise ValueError(f"unknown traction plane {pl!r}")
        if any(np.shape(v) != (3,) for v in (*self.traction.values(), self.body)
               if v is not None and not callable(v)):
            raise ValueError("constant traction and body vectors need 3 entries")
        for name in ("traction_amps", "body_amps", "dirichlet_amps"):
            amps = getattr(self, name)
            if amps is not None:
                amps = np.asarray(amps, dtype=float)
                if amps.shape != t.shape:
                    raise ValueError(f"{name} must match the time breakpoints")
                setattr(self, name, amps)

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def check_dirichlet_planes(self, planes):
        """ValueError naming every traction plane among the Dirichlet planes."""
        bad = [f"traction prescribed on the Dirichlet plane {pl!r}"
               for pl in self.traction if pl in planes]
        if bad:
            raise ValueError("; ".join(bad))

    def _nodal(self, shape, nodes):
        if callable(shape):
            return np.array([shape(x) for x in nodes], dtype=float)
        return np.tile(np.asarray(shape, dtype=float), (len(nodes), 1))

    def channels(self, space: FeSpace, times):
        """The active channels (body, traction, Dirichlet) as arrays: their
        amplitudes at the times (k, len(times)), unit liftings (k, n_u) and
        unit loads (k, n_u); the lifting and the load at times[i] are
        amplitudes[:, i] @ liftings and amplitudes[:, i] @ loads.  A channel
        whose amplitudes all vanish at the times is left out.  ValueError for
        a time outside the program interval or a traction on a Dirichlet
        plane of the space."""
        times = np.asarray(times, dtype=float)
        if times.min() < self.times[0] - 1e-12 or times.max() > self.T + 1e-12:
            raise ValueError("time outside the program interval")
        self.check_dirichlet_planes(space.dirichlet_planes)
        nodes, zero = space.mesh.nodes, np.zeros(space.n_u)
        found = []
        if self.body is not None:
            found.append((self.body_amps, zero,
                          (space.M @ self._nodal(self.body, nodes)).ravel()))
        if self.traction:
            load = sum((space.surf[pl] @ self._nodal(shape, nodes)).ravel()
                       for pl, shape in self.traction.items())
            found.append((self.traction_amps, zero, load))
        if self.dirichlet is not None:
            found.append((self.dirichlet_amps,
                          self._nodal(self.dirichlet, nodes).ravel(), zero))
        active = []
        for amps, lifting, load in found:
            a = 0.0 * times if amps is None else np.interp(times, self.times, amps)
            if a.any():
                active.append((a, lifting, load))
        return (np.reshape([a for a, _, _ in active], (-1, len(times))),
                np.reshape([lift for _, lift, _ in active], (-1, space.n_u)),
                np.reshape([load for _, _, load in active], (-1, space.n_u)))

    def at(self, space: FeSpace, t: float):
        """The boundary-displacement lifting u_dir(t) and the load functional
        l(t) over the displacement dofs: the channels summed at time t."""
        amps, liftings, loads = self.channels(space, [t])
        return amps[:, 0] @ liftings, amps[:, 0] @ loads


# ---------------------------------------------------------------------------
# point location, injection, projection, interpolation


def locate(mesh: BoxMesh, pts):
    """Cells, element ids and P1 weights for points in the box."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = mesh.n.astype(int)
    cell_sizes = mesh.extents / n
    s = pts / cell_sizes[None, :]
    cells = np.clip(np.floor(s).astype(int), 0, n - 1)
    xi = s - cells
    order = np.argsort(-xi, axis=1, kind="stable")  # descending local coords
    nx, ny = int(n[0]), int(n[1])
    cell_id = cells[:, 0] + nx * (cells[:, 1] + ny * cells[:, 2])
    weights = np.empty((len(pts), 4))
    node_ids = np.empty((len(pts), 4), dtype=int)
    nid_stride = np.array([1, n[0] + 1, (n[0] + 1) * (n[1] + 1)])
    base = (cells * nid_stride[None, :]).sum(axis=1)
    code_to_perm = np.full(27, -1, dtype=int)
    for k, perm in enumerate(_PERMS):
        code_to_perm[perm[0] * 9 + perm[1] * 3 + perm[2]] = k
    perm_ids = code_to_perm[order[:, 0] * 9 + order[:, 1] * 3 + order[:, 2]]
    xs = np.take_along_axis(xi, order, axis=1)
    weights[:, 0] = 1.0 - xs[:, 0]
    weights[:, 1] = xs[:, 0] - xs[:, 1]
    weights[:, 2] = xs[:, 1] - xs[:, 2]
    weights[:, 3] = xs[:, 2]
    node_ids[:, 0] = base
    acc = base.copy()
    for step in range(3):
        acc = acc + nid_stride[order[:, step]]
        node_ids[:, step + 1] = acc
    return cell_id, perm_ids, weights, node_ids


def inject(coarse: FeSpace, fine: FeSpace) -> sp.csr_matrix:
    """Scalar interpolation matrix from the coarse to the fine node set."""
    _, _, w, nid = locate(coarse.mesh, fine.mesh.nodes)
    rows = np.repeat(np.arange(fine.n_nodes), 4)
    return sp.coo_matrix((w.ravel(), (rows, nid.ravel())),
                         shape=(fine.n_nodes, coarse.n_nodes)).tocsr()


def galerkin_project(coarse: FeSpace, forms_f: StepForms, u_f, z_f):
    """Best approximation in the energy inner product of the fine forms on
    the coarse space.

    Operates on the homogeneous-Dirichlet subspace; the input must vanish
    on the fine Dirichlet dofs.
    """
    if not coarse.dirichlet_nodes.any():
        raise SingularFormError("projector needs a nonempty Dirichlet part")
    H = forms_f.matrix()
    P = inject(coarse, forms_f.space)
    Pu = sp.kron(P, sp.eye(3), format="csr")
    Pz = sp.kron(P, sp.eye(5), format="csr")
    Pfull = sp.block_diag([Pu, Pz], format="csr")
    y = np.concatenate([np.asarray(u_f, dtype=float), np.asarray(z_f, dtype=float)])
    free = np.concatenate([coarse.u_free, np.ones(coarse.n_z, dtype=bool)])
    A = (Pfull.T @ H @ Pfull).tocsr()[free][:, free]
    rhs = (Pfull.T @ (H @ y))[free]
    sol = np.zeros(coarse.n_u + coarse.n_z)
    sol[free] = spla.spsolve(A.tocsc(), rhs)
    return sol[:coarse.n_u], sol[coarse.n_u:]


def interp_constrained(coarse: FeSpace, fine: FeSpace, z_f) -> np.ndarray:
    """Patch-averaging interpolant that preserves nodal norm bounds.

    Each coarse nodal value is the volume-weighted mean of the fine field
    over the coarse elements containing the node: a convex combination of
    fine nodal values, so |z| <= c implies the same bound at every coarse
    node (Jensen).
    """
    Z = np.asarray(z_f, dtype=float).reshape(fine.n_nodes, 5)
    fine_means = Z[fine.mesh.tets].mean(axis=1)            # (nt_f, 5)
    fine_vols = fine.vols
    bary = fine.mesh.nodes[fine.mesh.tets].mean(axis=1)
    cell_id, perm_id, _, _ = locate(coarse.mesh, bary)
    coarse_elem = 6 * cell_id + perm_id
    nt_c = len(coarse.mesh.tets)
    acc = np.zeros((nt_c, 5))
    accv = np.zeros(nt_c)
    np.add.at(acc, coarse_elem, fine_means * fine_vols[:, None])
    np.add.at(accv, coarse_elem, fine_vols)
    node_acc = np.zeros((coarse.n_nodes, 5))
    node_vol = np.zeros(coarse.n_nodes)
    for a in range(4):
        np.add.at(node_acc, coarse.mesh.tets[:, a], acc)
        np.add.at(node_vol, coarse.mesh.tets[:, a], accv)
    return (node_acc / node_vol[:, None]).ravel()


def dump_fields(path, space: FeSpace, fields: dict):
    """Write node coordinates, per-node fields and connectivity as text:
    the line "# smaevol-fields nodes=N tets=T fields=name:width,...", one
    line per node (coordinates, then each field's values, 17 significant
    digits), "# tets" and one line of node indices per tetrahedron."""
    arrays = [np.asarray(arr, dtype=float).reshape(space.n_nodes, -1)
              for arr in fields.values()]
    desc = ",".join(f"{name}:{arr.shape[1]}"
                    for name, arr in zip(fields, arrays))
    with open(path, "w") as fh:
        np.savetxt(fh, np.hstack([space.mesh.nodes, *arrays]), fmt="%.17g",
                   header=f"smaevol-fields nodes={space.n_nodes} "
                          f"tets={len(space.mesh.tets)} fields={desc}")
        np.savetxt(fh, space.mesh.tets, fmt="%d", header="tets")
