import numpy as np
import pytest

from smaevol.dissipation import Dissipation

RNG = np.random.default_rng(11)
D = Dissipation(R=0.5)


def test_value_examples():
    assert D.value(np.zeros(5)) == 0.0
    e = np.zeros(5)
    e[0] = 2.0
    assert D.value(e) == pytest.approx(1.0)


def test_homogeneity_and_nondegeneracy():
    for _ in range(200):
        a = RNG.standard_normal(5)
        lam = RNG.uniform(0, 5)
        assert D.value(lam * a) == pytest.approx(lam * D.value(a), rel=1e-12)
        assert D.value(a) >= D.R * np.linalg.norm(a) - 1e-15
    assert D.value(np.zeros(5)) == 0.0


def test_triangle_inequality():
    for _ in range(500):
        b = RNG.standard_normal(5)
        c = RNG.standard_normal(5)
        assert D.value(b + c) <= D.value(b) + D.value(c) + 1e-14


def test_path_examples():
    a = RNG.standard_normal(5)
    const = np.tile(a, (4, 1))
    assert D.path_total(const) == 0.0
    # straight monotone path in k equal increments costs D(a) for any k
    for k in (1, 3, 7):
        pts = np.outer(np.linspace(0, 1, k + 1), a)
        assert D.path_total(pts) == pytest.approx(D.value(a), rel=1e-12)
    # back and forth doubles the cost
    cycle = np.vstack([np.zeros(5), a, np.zeros(5)])
    assert D.path_total(cycle) == pytest.approx(2 * D.value(a), rel=1e-12)


def test_path_reparametrization_invariance():
    pts = RNG.standard_normal((6, 5))
    dup = np.repeat(pts, 3, axis=0)  # duplicated samples add zero increments
    assert D.path_total(dup) == pytest.approx(D.path_total(pts), rel=1e-12)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        Dissipation(R=0.0)
    with pytest.raises(ValueError):
        D.path_total(np.zeros((0, 5)))
