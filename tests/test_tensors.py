import numpy as np
import pytest

from oracles import sym_from_diag, sym_to_matrix
from smaevol.tensors import (DEV_BASIS, IDENTITY6, Elasticity, dev_split,
                             dev_to_sym, sym_from_matrix, trace)

RNG = np.random.default_rng(20240901)


def random_sym():
    m = RNG.standard_normal((3, 3))
    return sym_from_matrix((m + m.T) / 2)


def test_inner_product_matches_full_expansion():
    # a : b = tr(ab) on the full 3x3 matrices must equal the plain dot
    for _ in range(50):
        a, b = random_sym(), random_sym()
        full = np.trace(sym_to_matrix(a) @ sym_to_matrix(b))
        assert abs(float(a @ b) - full) <= 1e-13 * (1 + abs(full))


def test_dev_split_gives_each_row_of_a_stack_the_bits_of_its_own_call():
    # the point driver forms every step's load at once; the step sequence
    # stays the per-step one only if each load keeps its single-tensor bits
    a = RNG.standard_normal((2000, 6)) * np.exp(RNG.uniform(-20, 20,
                                                            (2000, 1)))
    a[:3] = [np.zeros(6), [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0], IDENTITY6]
    want = np.array([dev_split(row)[0] for row in a])
    assert dev_split(a)[0].tobytes() == want.tobytes()
    assert dev_split(a[:0])[0].shape == (0, 5)


def test_matrix_round_trip():
    for _ in range(20):
        a = random_sym()
        assert np.allclose(sym_from_matrix(sym_to_matrix(a)), a, atol=1e-14)


def test_dev_basis_is_orthonormal_and_traceless():
    assert np.allclose(DEV_BASIS.T @ DEV_BASIS, np.eye(5), atol=1e-15)
    for k in range(5):
        assert abs(trace(DEV_BASIS[:, k])) <= 1e-15


def test_dev_split_identity():
    d, tr = dev_split(IDENTITY6)
    assert np.allclose(d, 0.0, atol=1e-15)
    assert tr == pytest.approx(3.0)


def test_dev_split_already_deviatoric():
    a = sym_from_diag(1.0, -1.0, 0.0)
    d, tr = dev_split(a)
    assert tr == pytest.approx(0.0)
    assert np.allclose(dev_to_sym(d), a, atol=1e-14)


def test_dev_split_forced_by_formula():
    a = sym_from_diag(2.0, 0.0, 1.0)
    d, tr = dev_split(a)
    assert tr == pytest.approx(3.0)
    assert np.allclose(dev_to_sym(d), sym_from_diag(1.0, -1.0, 0.0), atol=1e-14)


def test_dev_split_reconstructs_and_is_orthogonal():
    for _ in range(50):
        a = random_sym()
        d, tr = dev_split(a)
        recon = dev_to_sym(d) + (tr / 3.0) * IDENTITY6
        assert np.allclose(recon, a, atol=1e-13)
        # orthogonality of the two parts under ":"
        assert abs(float(dev_to_sym(d) @ IDENTITY6)) <= 1e-14 * (1 + np.linalg.norm(a))
        # norm splits exactly
        assert float(a @ a) == pytest.approx(float(d @ d) + tr * tr / 3.0, abs=1e-12)


def test_apply_identity_tensor():
    E = Elasticity(G=1.0, kappa=1.0)
    assert np.allclose(E.apply(IDENTITY6), 3.0 * IDENTITY6, atol=1e-14)


def test_apply_pure_deviator():
    E = Elasticity(G=2.0, kappa=1.0)
    a = sym_from_diag(1.0, -1.0, 0.0)
    assert np.allclose(E.apply(a), sym_from_diag(4.0, -4.0, 0.0), atol=1e-14)


def test_inverse_examples():
    E = Elasticity(G=1.0, kappa=1.0)
    assert np.allclose(E.apply_inverse(3.0 * IDENTITY6), IDENTITY6, atol=1e-14)
    E2 = Elasticity(G=2.0, kappa=1.0)
    assert np.allclose(E2.apply_inverse(sym_from_diag(4.0, -4.0, 0.0)),
                       sym_from_diag(1.0, -1.0, 0.0), atol=1e-14)


def test_round_trip_and_positivity():
    E = Elasticity(G=1.3, kappa=2.1)
    for _ in range(50):
        a = random_sym()
        assert np.allclose(E.apply(E.apply_inverse(a)), a, atol=1e-12)
        assert np.allclose(E.apply_inverse(E.apply(a)), a, atol=1e-12)
        if np.linalg.norm(a) > 1e-8:
            quad = float(a @ E.apply(a))
            assert quad > 0
            assert quad >= (min(2 * E.G, 3 * E.kappa) - 1e-12) * float(a @ a)


def test_apply_preserves_decomposition():
    E = Elasticity(G=1.7, kappa=0.9)
    for _ in range(20):
        a = random_sym()
        d, tr = dev_split(a)
        cd, ctr = dev_split(E.apply(a))
        assert np.allclose(cd, 2 * E.G * d, atol=1e-12)
        assert ctr == pytest.approx(3 * E.kappa * tr, abs=1e-12)


def test_matrix6_matches_apply():
    E = Elasticity(G=0.8, kappa=1.9)
    for _ in range(10):
        a = random_sym()
        assert np.allclose(E.matrix6() @ a, E.apply(a), atol=1e-13)


def test_invalid_moduli_rejected():
    with pytest.raises(ValueError):
        Elasticity(G=0.0, kappa=1.0)
