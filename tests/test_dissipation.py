"""The dissipation distance R |z - z_prev|, with R a MaterialParams constant."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import path_dissipation
from smaevol.constitutive import StressPath, TimeGrid, run_constitutive
from smaevol.fem import box_mesh, build_space
from smaevol.material import MaterialParams
from smaevol.quasistatic import QuasistaticSolver
from smaevol.tensors import dev_to_sym

RNG = np.random.default_rng(11)
R = 0.5


def test_path_examples():
    a = RNG.standard_normal(5)
    const = np.tile(a, (4, 1))
    assert path_dissipation(R, const) == 0.0
    # straight monotone path in k equal increments costs R |a| for any k
    for k in (1, 3, 7):
        pts = np.outer(np.linspace(0, 1, k + 1), a)
        assert path_dissipation(R, pts) == pytest.approx(R * np.linalg.norm(a),
                                                         rel=1e-12)
    # back and forth doubles the cost
    cycle = np.vstack([np.zeros(5), a, np.zeros(5)])
    assert path_dissipation(R, cycle) == pytest.approx(
        2 * R * np.linalg.norm(a), rel=1e-12)


def test_path_reparametrization_invariance():
    pts = RNG.standard_normal((6, 5))
    dup = np.repeat(pts, 3, axis=0)  # duplicated samples add zero increments
    assert path_dissipation(R, dup) == pytest.approx(path_dissipation(R, pts),
                                                     rel=1e-12)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        path_dissipation(R, np.zeros((0, 5)))


def test_dissipation_radius_comes_from_the_params():
    unit = np.zeros(5)
    unit[0] = 1.0
    path = StressPath.proportional(dev_to_sym(unit), [0.0, 3.0, 0.0],
                                   [0.0, 0.5, 1.0])
    grid = TimeGrid.uniform(1.0, 24)
    p0 = MaterialParams()
    trajs = [run_constitutive(p, path, grid) for p in (p0, replace(p0, R=0.3))]
    for p, traj in zip((p0, replace(p0, R=0.3)), trajs):
        assert traj.cum_diss[-1] > 0.0
        assert traj.cum_diss[-1] == pytest.approx(path_dissipation(p.R, traj.z),
                                                  rel=1e-12, abs=1e-12)
    assert not np.allclose(trajs[0].z, trajs[1].z)

    space = build_space(box_mesh((1.0, 1.0, 1.0), (1, 1, 1)), ("x0",))
    p = MaterialParams(rho=0.1, nu=0.01)
    z1, z0 = RNG.standard_normal((2, space.n_z))
    base = QuasistaticSolver(space, p).dissipation_increment(z1, z0)
    scaled = QuasistaticSolver(space, replace(p, R=0.3)).dissipation_increment(z1, z0)
    assert base > 0.0
    assert scaled == pytest.approx(0.3 / p.R * base, rel=1e-12)
