import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from smaevol.fem import (_CHUNK, LoadProgram, SingularFormError,
                         _strain_displacement, _triple, assemble_forms,
                         box_mesh, build_space, dump_fields, galerkin_project,
                         inject, interp_constrained, locate, nested_dissection)
from smaevol.material import MaterialParams
from smaevol.tensors import DEV_BASIS, Elasticity, sym_from_matrix

from oracles import (assemble_forms_einsum, box_mesh_loops, dev_from_sym,
                     dump_fields_loop, element_scatter)

RNG = np.random.default_rng(41)

P = MaterialParams(rho=0.1, nu=0.01)


def small_space(n=2, dirichlet=("x0",)):
    return build_space(box_mesh((1.0, 1.0, 1.0), (n, n, n)), dirichlet)


def test_mesh_counts_and_volume():
    m = box_mesh((1.0, 2.0, 3.0), (2, 3, 4))
    assert m.n_nodes == 3 * 4 * 5
    assert len(m.tets) == 6 * 2 * 3 * 4
    space = build_space(m)
    assert space.vols.sum() == pytest.approx(6.0, rel=1e-12)
    assert space.lumped.sum() == pytest.approx(6.0, rel=1e-12)
    # every boundary face tagged exactly once
    ntri = sum(len(t) for t in m.boundary.values())
    assert ntri == 2 * 2 * (2 * 3 + 3 * 4 + 2 * 4)


@pytest.mark.parametrize("extents, n", [((1.0, 1.0, 1.0), (1, 1, 1)),
                                        ((1.0, 2.0, 3.0), (2, 3, 4)),
                                        ((1.0, 1.0, 1.0), (4, 4, 4))])
def test_mesh_matches_loop_oracle(extents, n):
    m = box_mesh(extents, n)
    tets, boundary = box_mesh_loops(n)
    assert m.tets.dtype == tets.dtype
    assert np.array_equal(m.tets, tets)
    assert list(m.boundary) == list(boundary)
    for pl, tris in boundary.items():
        assert m.boundary[pl].dtype == tris.dtype
        assert np.array_equal(m.boundary[pl], tris), pl


def test_mesh_h_is_max_edge():
    m = box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    assert m.h == pytest.approx(np.sqrt(3) / 2)


def test_locate_reproduces_nodal_interpolation():
    space = small_space(3)
    vals = RNG.standard_normal(space.n_nodes)
    pts = RNG.uniform(0, 1, (50, 3))
    _, _, w, nid = locate(space.mesh, pts)
    interp = (w * vals[nid]).sum(axis=1)
    # against barycentric evaluation through a containing tet
    for q, x in enumerate(pts):
        found = False
        for tet in space.mesh.tets:
            X = space.mesh.nodes[tet]
            A = np.vstack([np.ones(4), X.T])
            try:
                lam = np.linalg.solve(A, np.array([1.0, *x]))
            except np.linalg.LinAlgError:
                continue
            if np.all(lam > -1e-10):
                assert abs(float(lam @ vals[tet]) - interp[q]) < 1e-10
                found = True
                break
        assert found


# kappa = 2G/3 makes C6 diagonal: the kernel then adds 6 terms, not 12
ELASTICITIES = [Elasticity(), Elasticity(G=0.37, kappa=2.9),
                Elasticity(G=1.3, kappa=0.4), Elasticity(G=1.5, kappa=1.0)]
KERNEL_CASES = ([((1.0, 1.0, 1.0), (10, 10, 10), Elasticity())]
                + [(ext, n, el) for ext, n in (((1.0, 1.0, 1.0), (2, 2, 2)),
                                               ((1.0, 1.0, 1.0), (4, 4, 4)),
                                               ((2.0, 0.7, 1.3), (5, 3, 4)),
                                               ((3.0, 1.0, 1.0), (7, 2, 3)))
                   for el in ELASTICITIES])


@pytest.mark.parametrize("extents, n, elastic", KERNEL_CASES,
                         ids=[f"{n}-G{el.G}-kappa{el.kappa}"
                              for _, n, el in KERNEL_CASES])
def test_element_kernel_matches_the_einsum_bit_for_bit(extents, n, elastic):
    space = build_space(box_mesh(extents, n))
    params = MaterialParams(elastic=elastic)
    C6 = elastic.matrix6()
    assert np.count_nonzero(C6) == (6 if 3 * elastic.kappa == 2 * elastic.G
                                    else 12)
    Ke, blk, K, Cup = assemble_forms_einsum(space, params)
    D = _strain_displacement(space.grads)
    assert np.array_equal(_triple(space.vols, D, C6, D), Ke)
    assert np.array_equal(_triple(space.vols / 4.0, D, C6, DEV_BASIS[None]),
                          blk)
    forms = assemble_forms(space, params)
    for new, old in ((forms.K, K), (forms.Cup, Cup)):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(new, attr), getattr(old, attr)), attr


def _dofs(elems, k):
    return (k * elems[:, :, None] + np.arange(k)).reshape(len(elems), -1)


@pytest.mark.parametrize("extents, n", [((1.0, 1.0, 1.0), (1, 1, 1)),
                                        ((1.0, 1.0, 1.0), (2, 2, 2)),
                                        ((2.0, 0.7, 1.3), (5, 3, 4))])
def test_every_form_has_the_coo_pattern(extents, n):
    mesh = box_mesh(extents, n)
    space = build_space(mesh)
    forms = assemble_forms(space, P)
    tets, nn = mesh.tets, space.n_nodes
    cases = [(space.M, tets, 1, 1), (space.Gs, tets, 1, 1),
             (forms.K, tets, 3, 3), (forms.Cup, tets, 3, 5)]
    cases += [(space.surf[pl], tris, 1, 1) for pl, tris in mesh.boundary.items()]
    for A, elems, p, q in cases:
        r, c = _dofs(elems, p), _dofs(elems, q)
        rows = np.repeat(r, c.shape[1], axis=1)
        cols = np.tile(c, (1, r.shape[1]))
        coo = sp.coo_matrix((np.ones(rows.size), (rows.ravel(), cols.ravel())),
                            shape=(p * nn, q * nn)).tocsr()
        assert A.shape == coo.shape and A.has_canonical_format
        assert np.array_equal(A.indptr, coo.indptr)
        assert np.array_equal(A.indices, coo.indices)
    # the scalar forms sum in element order too
    vols, grads = space.vols, space.grads
    Me = (vols[:, None, None] / 20.0) * (np.ones((4, 4)) + np.eye(4))
    Ge = np.einsum("t,tad,tbd->tab", vols, grads, grads)
    for A, Ae in ((space.M, Me), (space.Gs, Ge)):
        ref = element_scatter(nn, nn, np.repeat(tets, 4, axis=1),
                              np.tile(tets, (1, 4)), Ae)
        assert np.array_equal(A.data, ref.data)


def test_a_plane_without_triangles_has_an_empty_surface_mass():
    mesh = box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    mesh.boundary["z1"] = mesh.boundary["z1"][:0]
    S = build_space(mesh).surf["z1"]
    assert S.shape == (mesh.n_nodes, mesh.n_nodes) and S.nnz == 0
    assert np.array_equal(S.indptr, np.zeros(mesh.n_nodes + 1))


def test_assembly_peak_memory_stays_near_the_element_blocks():
    # n = 6 (1296 tets): traced peak 2.9 MB (4.1 MB with the blocks formed
    # for all elements at once); a COO scatter of the same blocks, with its
    # nt x 240 index arrays and the tiled coupling block, peaks at 15.8 MB
    space = small_space(6)
    assemble_forms(space, P)
    tracemalloc.start()
    try:
        assemble_forms(space, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_set_up_peak_memory_is_the_forms_plus_a_few_chunks():
    # n = 8 (3072 tets, 12 chunks): build_space and assemble_forms peak at
    # 5.9 MB, within twice the returned CSR arrays (2.9 MB: a form's data
    # and index arrays are summed beside those already returned) plus four
    # chunks of element stiffness blocks, 7.0 MB; forming the element
    # arrays for all elements at once peaked at 10.4 MB
    mesh = box_mesh((1.0, 1.0, 1.0), (8, 8, 8))
    tracemalloc.start()
    try:
        space = build_space(mesh)
        forms = assemble_forms(space, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = sum(a.nbytes for A in (space.M, space.Gs, *space.surf.values(),
                                 forms.K, forms.Cup)
              for a in (A.data, A.indices, A.indptr))
    assert peak < 2 * csr + 4 * _CHUNK * 12 * 12 * 8


@pytest.mark.parametrize("rho", [0.0, 0.1])
@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_chunked_forms_match_the_whole_array_einsum(rho, nu):
    # n = 4: 384 tets, one full chunk and a partial one
    space = small_space(4)
    assert _CHUNK < len(space.mesh.tets) < 2 * _CHUNK
    params = MaterialParams(rho=rho, nu=nu)
    _, _, K, Cup = assemble_forms_einsum(space, params)
    forms = assemble_forms(space, params)
    for new, old in ((forms.K, K), (forms.Cup, Cup)):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(new, attr), getattr(old, attr)), attr


def _check_dissection(seg, ijk, K, S):
    """seg is the order of one node set: its two sides first, then the
    middle plane of the set's longest extent; no K or S entry couples the
    sides.  A set spanning fewer than 3 planes on every axis is in id order."""
    g = ijk[seg]
    span = g.max(axis=0) - g.min(axis=0)
    a = int(np.argmax(span))
    if span[a] < 2:
        assert np.array_equal(seg, np.sort(seg))
        return 1
    mid = (g[:, a].min() + g[:, a].max()) // 2
    lo, hi = np.sort(seg[g[:, a] < mid]), np.sort(seg[g[:, a] > mid])
    left, right, sep = np.split(seg, [len(lo), len(lo) + len(hi)])
    assert np.array_equal(np.sort(left), lo)
    assert np.array_equal(np.sort(right), hi)
    assert np.all(ijk[sep, a] == mid) and len(sep) > 0
    u_lo, u_hi = ((3 * x[:, None] + np.arange(3)).ravel() for x in (lo, hi))
    assert K[u_lo][:, u_hi].nnz == 0 and S[lo][:, hi].nnz == 0
    return 1 + _check_dissection(left, ijk, K, S) + _check_dissection(
        right, ijk, K, S)


@pytest.mark.parametrize("extents, n", [((1.0, 1.0, 1.0), (3, 3, 3)),
                                        ((1.0, 1.0, 1.0), (4, 4, 4)),
                                        ((2.0, 0.7, 1.3), (5, 3, 4))])
@pytest.mark.parametrize("dirichlet", [(), ("x0",), ("x0", "z1")])
def test_nested_dissection_separators_decouple_their_sides(extents, n,
                                                           dirichlet):
    mesh = box_mesh(extents, n)
    space = build_space(mesh, dirichlet)
    forms = assemble_forms(space, P)
    ijk = np.rint(mesh.nodes / mesh.extents * mesh.n).astype(int)
    # the free nodes, or all nodes as for the z-block S
    mask = ~space.dirichlet_nodes if dirichlet else None
    order = nested_dissection(mesh, mask)
    assert order.dtype.kind == "i"
    want = np.arange(mesh.n_nodes) if mask is None else np.flatnonzero(mask)
    assert np.array_equal(np.sort(order), want)
    sets = _check_dissection(order, ijk, forms.K.tocsr(),
                             forms.z_block().tocsr())
    assert sets > 3
    assert np.array_equal(nested_dissection(mesh, np.zeros(mesh.n_nodes, bool)),
                          np.arange(0))


def test_rigid_translation_has_zero_energy():
    space = small_space(2)
    forms = assemble_forms(space, P)
    u = np.tile([0.3, -0.2, 0.1], space.n_nodes)
    z = np.zeros(space.n_z)
    assert abs(forms.energy_value((u, z))) < 1e-14


def test_single_bump_is_positive():
    space = small_space(2)
    forms = assemble_forms(space, P)
    z = np.zeros(space.n_z)
    z[5 * 13 + 2] = 1.0
    assert forms.energy_value((np.zeros(space.n_u), z)) > 0


def test_bilinear_symmetry():
    space = small_space(2)
    forms = assemble_forms(space, P)
    for _ in range(10):
        y1 = (RNG.standard_normal(space.n_u), RNG.standard_normal(space.n_z))
        y2 = (RNG.standard_normal(space.n_u), RNG.standard_normal(space.n_z))
        # matrix() realizes energy_value's quadratic form
        H = forms.matrix()
        for yk in (y1, y2):
            y = np.concatenate(yk)
            assert float(y @ (H @ y)) == pytest.approx(forms.energy_value(yk),
                                                       rel=1e-12)


def test_energy_exact_on_affine_fields():
    # affine displacement and constant z: closed-form integrand
    space = small_space(3)
    forms = assemble_forms(space, P)
    A = np.array([[0.1, 0.05, 0.0], [0.05, -0.2, 0.02], [0.0, 0.02, 0.3]])
    u = (space.mesh.nodes @ A.T).ravel()
    eps6 = sym_from_matrix(0.5 * (A + A.T))
    zc = dev_from_sym(sym_from_matrix(np.diag([0.05, -0.02, -0.03])))
    z = np.tile(zc, space.n_nodes)
    e = dev_from_sym(eps6)
    tr = eps6[:3].sum()
    exact = (P.elastic.G * float(np.sum((e - zc) ** 2))
             + 0.5 * P.elastic.kappa * tr ** 2 + P.c2 * float(zc @ zc))
    assert forms.energy_value((u, z)) == pytest.approx(exact, rel=1e-12)


def test_korn_coercivity_smallest_meshes():
    # smallest eigenvalue of the constrained energy form is positive
    for n in (1, 2):
        space = small_space(n)
        forms = assemble_forms(space, MaterialParams(nu=0.01))
        H = forms.matrix().toarray()
        free = np.concatenate([space.u_free, np.ones(space.n_z, dtype=bool)])
        Hc = H[np.ix_(free, free)]
        w = np.linalg.eigvalsh(0.5 * (Hc + Hc.T))
        assert w.min() > 1e-8


def test_zero_load():
    space = small_space(2)
    prog = LoadProgram(times=[0.0, 1.0])
    u_dir, ell = prog.at(space, 0.5)
    assert np.all(u_dir == 0.0) and np.all(ell == 0.0)


def test_constant_body_force_total():
    space = small_space(2)
    prog = LoadProgram(times=[0.0, 1.0], body=[0.0, 0.0, 1.0],
                       body_amps=[1.0, 1.0])
    ell = prog.at(space, 0.3)[1]
    u = np.tile([0.0, 0.0, 1.0], space.n_nodes)
    assert float(ell @ u) == pytest.approx(1.0, rel=1e-12)


def test_traction_total_on_face():
    space = small_space(2)
    prog = LoadProgram(times=[0.0, 1.0], traction={"x1": [1.0, 0.0, 0.0]},
                       traction_amps=[0.0, 2.0])
    ell = prog.at(space, 1.0)[1]
    u = np.tile([1.0, 0.0, 0.0], space.n_nodes)
    # area of the x1 face is 1, amplitude 2
    assert float(ell @ u) == pytest.approx(2.0, rel=1e-12)


def test_load_linear_in_time_between_breakpoints():
    space = small_space(2)
    prog = LoadProgram(times=[0.0, 0.5, 1.0], body=[1.0, 0.0, 0.0],
                       body_amps=[0.0, 1.0, -1.0])
    l1 = prog.at(space, 0.6)[1]
    l2 = prog.at(space, 0.8)[1]
    mid = prog.at(space, 0.7)[1]
    assert np.allclose(mid, 0.5 * (l1 + l2), atol=1e-14)


def test_traction_on_dirichlet_plane_rejected():
    space = small_space(2)
    prog = LoadProgram(times=[0.0, 1.0], traction={"x0": [1.0, 0.0, 0.0]},
                       traction_amps=[1.0, 1.0])
    with pytest.raises(ValueError, match="Dirichlet plane"):
        prog.at(space, 0.5)


@pytest.mark.parametrize("t", [-0.1, 1.0 + 1e-9])
def test_time_outside_the_program_is_rejected(t):
    space = small_space(2)
    prog = LoadProgram(times=[0.0, 1.0], body=[0.0, 0.0, 1.0],
                       body_amps=[1.0, 1.0])
    with pytest.raises(ValueError, match="outside the program interval"):
        prog.at(space, t)
    with pytest.raises(ValueError, match="outside the program interval"):
        prog.channels(space, [0.0, t])


def _zeroed_dirichlet(space, u):
    u = u.copy()
    u[~space.u_free] = 0.0
    return u


def test_galerkin_idempotent_on_coarse_members():
    coarse = small_space(2)
    fine = small_space(4)
    Pmat = inject(coarse, fine)
    uc = _zeroed_dirichlet(coarse, RNG.standard_normal(coarse.n_u))
    zc = RNG.standard_normal(coarse.n_z)
    u_f = sp.kron(Pmat, sp.eye(3)) @ uc
    z_f = sp.kron(Pmat, sp.eye(5)) @ zc
    uc2, zc2 = galerkin_project(coarse, assemble_forms(fine, P), u_f, z_f)
    assert np.allclose(uc2, uc, atol=1e-9)
    assert np.allclose(zc2, zc, atol=1e-9)


def test_galerkin_orthogonality_and_energy_inequality():
    coarse = small_space(2)
    fine = small_space(4)
    forms_f = assemble_forms(fine, P)
    H = forms_f.matrix()
    Pmat = inject(coarse, fine)
    Pfull = sp.block_diag([sp.kron(Pmat, sp.eye(3)), sp.kron(Pmat, sp.eye(5))],
                          format="csr")
    for _ in range(5):
        u_f = _zeroed_dirichlet(fine, RNG.standard_normal(fine.n_u))
        z_f = RNG.standard_normal(fine.n_z)
        uc, zc = galerkin_project(coarse, forms_f, u_f, z_f)
        y = np.concatenate([u_f, z_f])
        yc = np.concatenate([uc, zc])
        resid = Pfull.T @ (H @ (y - Pfull @ yc))
        free = np.concatenate([coarse.u_free, np.ones(coarse.n_z, dtype=bool)])
        scale = np.linalg.norm(Pfull.T @ (H @ y)) + 1e-30
        assert np.linalg.norm(resid[free]) / scale < 1e-10
        y_proj = Pfull @ yc
        e_coarse = forms_f.energy_value((y_proj[:fine.n_u], y_proj[fine.n_u:]))
        e_fine = forms_f.energy_value((u_f, z_f))
        assert e_coarse <= e_fine + 1e-12
        assert e_coarse < e_fine  # strict for fields outside the coarse space


def test_galerkin_singular_preconditions():
    # without a Dirichlet part rigid motions make the form indefinite
    nodir_c = small_space(2, dirichlet=())
    nodir_f = small_space(4, dirichlet=())
    with pytest.raises(SingularFormError):
        galerkin_project(nodir_c, assemble_forms(nodir_f, P),
                         np.zeros(nodir_f.n_u), np.zeros(nodir_f.n_z))


def test_interp_constant_preserved():
    coarse = small_space(2)
    fine = small_space(4)
    zc = RNG.standard_normal(5)
    zc *= P.c3 / np.linalg.norm(zc)  # |z| = c3 exactly
    z_f = np.tile(zc, fine.n_nodes)
    out = interp_constrained(coarse, fine, z_f).reshape(coarse.n_nodes, 5)
    assert np.allclose(out, zc[None, :], atol=1e-13)
    assert np.linalg.norm(out, axis=1).max() <= P.c3 + 1e-13


def test_interp_zero_is_zero():
    coarse = small_space(2)
    fine = small_space(4)
    out = interp_constrained(coarse, fine, np.zeros(fine.n_z))
    assert np.all(out == 0.0)


def test_interp_preserves_ball_on_random_fields():
    coarse = small_space(2)
    fine = small_space(4)
    for trial in range(50):
        rng = np.random.default_rng(300 + trial)
        Z = rng.standard_normal((fine.n_nodes, 5))
        norms = np.linalg.norm(Z, axis=1, keepdims=True)
        radii = rng.uniform(0, P.c3, (fine.n_nodes, 1))
        Z = Z / norms * radii  # |z| <= c3 at every fine node
        out = interp_constrained(coarse, fine, Z.ravel()).reshape(-1, 5)
        assert np.linalg.norm(out, axis=1).max() <= P.c3 + 1e-12


def test_nestedness_injection_commutes_with_evaluation():
    coarse = small_space(2)
    fine = small_space(4)
    Pmat = inject(coarse, fine)
    vals = RNG.standard_normal(coarse.n_nodes)
    fine_vals = Pmat @ vals
    # at shared nodes the values agree exactly
    _, _, w, nid = locate(fine.mesh, coarse.mesh.nodes)
    shared = (w * fine_vals[nid]).sum(axis=1)
    assert np.allclose(shared, vals, atol=1e-12)


def test_dump_fields_round_trip(tmp_path):
    space = small_space(1)
    path = tmp_path / "fields.txt"
    z = RNG.standard_normal(space.n_z)
    dump_fields(path, space, {"z": z})
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# smaevol-fields nodes=8 tets=6")
    node_lines = lines[1:1 + space.n_nodes]
    parsed = np.array([[float(v) for v in ln.split()] for ln in node_lines])
    assert np.allclose(parsed[:, :3], space.mesh.nodes)
    assert np.allclose(parsed[:, 3:].ravel(), z)


def test_dump_fields_writes_the_per_line_formatter_bytes(tmp_path):
    space = small_space(2)
    u = RNG.standard_normal(space.n_u)
    z = RNG.standard_normal(space.n_z)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -2.0, 1e16,
               0.1, math.inf, -math.inf, math.nan]
    u[:len(special)] = special
    z[-len(special):] = special[::-1]
    for fields in ({"u": u, "z": z}, {"z": z}):
        dump_fields(tmp_path / "new.txt", space, fields)
        dump_fields_loop(tmp_path / "old.txt", space, fields)
        assert ((tmp_path / "new.txt").read_bytes()
                == (tmp_path / "old.txt").read_bytes())
