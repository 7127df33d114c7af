"""Symmetric / deviatoric 3x3 tensor algebra in orthonormal component form.

Symmetric tensors are length-6 arrays in the order

    [a11, a22, a33, sqrt(2)*a23, sqrt(2)*a13, sqrt(2)*a12]

and deviatoric tensors are length-5 coefficient arrays in the orthonormal
deviatoric basis

    E1 = (e1 x e1 - e2 x e2) / sqrt(2)
    E2 = (e1 x e1 + e2 x e2 - 2 e3 x e3) / sqrt(6)
    E3 = (e2 x e3 + e3 x e2) / sqrt(2)
    E4 = (e1 x e3 + e3 x e1) / sqrt(2)
    E5 = (e1 x e2 + e2 x e1) / sqrt(2)

With both conventions the tensor inner product a : b = tr(ab) equals the
plain euclidean dot of the stored components, so norms need no correction
factors and there are no Voigt factor-of-2 pitfalls.
"""

import math
from dataclasses import dataclass

import numpy as np

SQ2 = np.sqrt(2.0)
SQ6 = np.sqrt(6.0)

# identity 2-tensor in 6-component form
IDENTITY6 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

# columns are the deviatoric basis tensors expressed in 6-component form
DEV_BASIS = np.array([
    [1.0 / SQ2, 1.0 / SQ6, 0.0, 0.0, 0.0],
    [-1.0 / SQ2, 1.0 / SQ6, 0.0, 0.0, 0.0],
    [0.0, -2.0 / SQ6, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0],
])


def sym_from_matrix(m) -> np.ndarray:
    """6-component form of a symmetric 3x3 matrix."""
    m = np.asarray(m, dtype=float)
    return np.array([m[0, 0], m[1, 1], m[2, 2],
                     SQ2 * m[1, 2], SQ2 * m[0, 2], SQ2 * m[0, 1]])


def norm(a) -> float:
    """Euclidean norm of a 1-d float array: np.linalg.norm's own
    sqrt(a.dot(a)), without its dispatch."""
    return math.sqrt(a.dot(a))


def inner(a, b):
    """a : b of two tensors, or of each pair of rows of two (N, k) stacks
    (an (N,) array); a row gives the same bits alone as in a stack."""
    return np.einsum("...j,...j->...", a, b)


def trace(a):
    """Trace of a tensor, or of each row of an (N, 6) stack."""
    c = np.asarray(a).T
    return c[0] + c[1] + c[2]


def dev_to_sym(d) -> np.ndarray:
    """Embed a 5-component deviator, or each row of an (N, 5) stack, into
    6-component symmetric form; each row has the bits of DEV_BASIS @ row."""
    return np.einsum("kj,...j->...k", DEV_BASIS, np.asarray(d, dtype=float))


def dev_split(a):
    """Split a, or each row of an (N, 6) stack, into (deviatoric part,
    trace); a = dev + (tr/3)*identity.  The deviator is one batched
    vector-matrix product, so a stack's row has the bits of its
    single-tensor call, which are those of DEV_BASIS.T @ a."""
    a = np.asarray(a, dtype=float)
    return np.matmul(a[..., None, :], DEV_BASIS)[..., 0, :], trace(a)


@dataclass(frozen=True)
class Elasticity:
    """Isotropic elasticity map: C a = 2G a_dev + kappa tr(a) I."""

    G: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        bad = [f"{name} must be > 0" for name in ("G", "kappa")
               if getattr(self, name) <= 0]
        if bad:
            raise ValueError("; ".join(bad))

    def apply(self, a) -> np.ndarray:
        """C a of a tensor, or of each row of an (N, 6) stack."""
        a = np.asarray(a, dtype=float)
        tr = trace(a)[..., None]
        return 2.0 * self.G * a + (self.kappa - 2.0 * self.G / 3.0) * tr * IDENTITY6

    def apply_inverse(self, s) -> np.ndarray:
        """C^-1 s of a tensor, or of each row of an (N, 6) stack."""
        s = np.asarray(s, dtype=float)
        tr = trace(s)[..., None]
        return s / (2.0 * self.G) + (1.0 / (9.0 * self.kappa) - 1.0 / (6.0 * self.G)) * tr * IDENTITY6

    def matrix6(self) -> np.ndarray:
        """Dense 6x6 representation; used by the finite-element assembly."""
        return 2.0 * self.G * np.eye(6) + (self.kappa - 2.0 * self.G / 3.0) * np.outer(IDENTITY6, IDENTITY6)
