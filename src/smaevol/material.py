"""Material parameters and the stored-energy densities.

The inelastic (transformation) energy comes in two flavours:

* the sharp density ``c1 |z| + c2 |z|^2`` restricted to the ball
  ``|z| <= c3`` (value ``math.inf`` outside), and
* its smooth regularization
  ``c1 (sqrt(rho^2 + |z|^2) - rho) + c2 |z|^2 + phi(|z|) / rho``
  for a regularization parameter ``rho > 0``,

where ``phi`` is a C^{2,1} penalty that vanishes exactly on ``[0, c3]``.
Infinity is represented by the ordinary float ``inf``; comparisons against
it are total, so no sentinel magic numbers appear anywhere.

The radial core ``c1 (sqrt(rho^2 + r^2) - rho) + phi(r)/rho`` has one
evaluator for an array of radii (``radial_core``: the field step and the
densities) and one for a float radius (``radial_core_at``: the point step),
with the same bits.  The densities take one deviator or an (N, 5) stack of
them (the stored energy an (N, 6) stack of strains beside it), so a run's
energy ledger is one call.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .tensors import Elasticity, dev_split, inner, norm


# relative slack of the sharp ball |z| <= c3: a radius above c3 (1 - slack)
# is on the sphere, one up to c3 (1 + slack) inside the ball
BALL_SLACK = 1e-12

# the least positive rho, the cube root of the smallest normal float: the
# core's c1 rho^2 / q^3 at r = 0 must not divide by a q^3 underflowed to 0
RHO_FLOOR = float(np.finfo(float).tiny) ** (1.0 / 3.0)


@dataclass(frozen=True)
class MaterialParams:
    """Constitutive constants.

    c1 is the activation stress, c2 the hardening modulus, c3 the maximum
    transformation-strain modulus, rho the energy regularization parameter,
    nu the gradient-energy weight, R the dissipation radius and delta the
    smoothing width of the constraint penalty.
    """

    elastic: Elasticity = field(default_factory=Elasticity)
    c1: float = 1.0
    c2: float = 0.5
    c3: float = 1.0
    rho: float = 0.0
    nu: float = 0.0
    R: float = 0.5
    delta: float = 0.1

    def __post_init__(self):
        bad = []
        for name in ("c1", "c2", "c3", "R", "delta"):
            if getattr(self, name) <= 0:
                bad.append(f"{name} must be > 0")
        for name in ("rho", "nu"):
            if getattr(self, name) < 0:
                bad.append(f"{name} must be >= 0")
        if 0 < self.rho < RHO_FLOOR:
            bad.append(f"rho must be 0 or >= {RHO_FLOOR:.2g} (got {self.rho:g})")
        if bad:
            raise ValueError("; ".join(bad))

    @property
    def alpha(self) -> float:
        """Uniform convexity constant of the joint stored density.

        This is half the smallest eigenvalue of the quadratic lower bound
        of (eps, z) -> 0.5 C(eps - z):(eps - z) + c2 |z|^2.  Per deviatoric
        direction the Hessian block is [[2G, -2G], [-2G, 2G + 2 c2]], the
        spherical direction contributes 3 kappa.  This is the constant for
        which the single-step continuous-dependence estimate is sharp; the
        blockwise value min(2G, 3 kappa, 2 c2) would overstate it.
        """
        G, kappa = self.elastic.G, self.elastic.kappa
        tr = 4.0 * G + 2.0 * self.c2
        det = 4.0 * G * self.c2
        lam_dev = 0.5 * (tr - math.sqrt(tr * tr - 4.0 * det))
        return 0.5 * min(3.0 * kappa, lam_dev)

    @property
    def core_curvature(self) -> float:
        """Upper bound for the Hessian of the non-quadratic radial core."""
        if self.rho <= 0:
            raise ValueError("curvature bound requires rho > 0")
        return (self.c1 + 6.0 / self.delta) / self.rho


# the penalty phi of s = |z| - c3 > 0 (it vanishes on the ball): phi'' is
# the hat rising from 0 at s = 0 to 6/d at s = d and back to 0 at 2d, and
# phi' = 6 beyond; _PIECES[k][j] is the k-th derivative on piece j, s in
# (0, d], (d, 2d] or beyond
_PIECES = (
    (lambda s, d: s ** 3 / d ** 2,
     lambda s, d: 6.0 * s ** 2 / d - s ** 3 / d ** 2 - 6.0 * s + 2.0 * d,
     lambda s, d: 6.0 * s - 6.0 * d),
    (lambda s, d: 3.0 * s ** 2 / d ** 2,
     lambda s, d: 12.0 * s / d - 3.0 * s ** 2 / d ** 2 - 6.0,
     lambda s, d: 6.0),
    (lambda s, d: 6.0 * s / d ** 2,
     lambda s, d: (12.0 * d - 6.0 * s) / d ** 2,
     lambda s, d: 0.0),
)


def _penalty(s, d):
    """phi and phi' on an array s, each piece on its own entries only (a
    NaN goes to the last piece)."""
    value, d1 = np.empty_like(s), np.empty_like(s)
    first, last = s <= d, ~(s <= 2 * d)
    for j, on in enumerate((first, ~(first | last), last)):
        if on.any():
            part = s[on]
            value[on] = _PIECES[0][j](part, d)
            d1[on] = _PIECES[1][j](part, d)
    return value, d1


def _radius(z):
    """|z| of a deviator, or of each row of an (N, 5) stack."""
    z = np.asarray(z, dtype=float)
    return np.sqrt(inner(z, z))


def transformation_energy_sharp(p: MaterialParams, z):
    """Sharp inelastic density of a deviator (a float) or of each row of an
    (N, 5) stack; inf outside the transformation ball (with the slack
    BALL_SLACK, so an exact radial projection's last ulp is in)."""
    r = _radius(z)
    return np.where(r > p.c3 * (1.0 + BALL_SLACK), math.inf,
                    p.c1 * r + p.c2 * r * r)[()]


def radial_core(p: MaterialParams, r):
    """Value and derivative of the non-quadratic radial core of the smooth
    density (all but c2 r^2) on an array of radii r >= 0 (0-d included), in
    one pass: one sqrt(rho^2 + r^2), one ball test, the penalty only outside
    the ball (where a NaN radius counts), each piece on its own radii."""
    if p.rho <= 0:
        raise ValueError("smooth transformation energy requires rho > 0")
    r = np.asarray(r, dtype=float)
    q = np.sqrt(p.rho ** 2 + r ** 2)
    value, d1 = np.asarray(p.c1 * (q - p.rho)), np.asarray(p.c1 * r / q)
    outside = ~(r - p.c3 <= 0)
    if outside.any():
        phi, dphi = _penalty(r[outside] - p.c3, p.delta)
        value[outside] += phi / p.rho
        d1[outside] += dphi / p.rho
    return value, d1


def radial_core_at(p: MaterialParams, r: float):
    """Value, first and second derivative of the radial core at one float
    radius r >= 0; value and d1 are the bits radial_core gives r.  The
    penalty pieces are evaluated only outside the ball (a NaN radius
    counts), the piece of r - c3 only, on a 0-d array: numpy's array power
    need not round like the C pow of a scalar."""
    if p.rho <= 0:
        raise ValueError("smooth transformation energy requires rho > 0")
    q = math.sqrt(p.rho ** 2 + r * r)
    value, d1, d2 = p.c1 * (q - p.rho), p.c1 * r / q, p.c1 * p.rho ** 2 / q ** 3
    if not r - p.c3 <= 0:
        s, d = r - p.c3, p.delta
        j = 0 if s <= d else 1 if s <= 2 * d else 2    # a NaN: the last
        s = np.asarray(s)
        value += float(_PIECES[0][j](s, d)) / p.rho
        d1 += float(_PIECES[1][j](s, d)) / p.rho
        d2 += float(_PIECES[2][j](s, d)) / p.rho
    return value, d1, d2


def transformation_energy_smooth(p: MaterialParams, z):
    """Smooth inelastic density of a deviator (a float) or of each row of
    an (N, 5) stack."""
    r = _radius(z)
    return (radial_core(p, r)[0] + p.c2 * r * r)[()]


def transformation_energy_grad(p: MaterialParams, z) -> np.ndarray:
    """Gradient of the smooth density at a deviator; exactly zero at z = 0."""
    z = np.asarray(z, dtype=float)
    r = norm(z)
    d1 = radial_core_at(p, r)[1]
    return ((d1 / r if r > 0 else 0.0) + 2.0 * p.c2) * z


def transformation_energy(p: MaterialParams, z):
    """Inelastic density at the parameter set's own rho (sharp when 0), of
    a deviator or of each row of an (N, 5) stack."""
    if p.rho > 0:
        return transformation_energy_smooth(p, z)
    return transformation_energy_sharp(p, z)


def stored_energy_density(p: MaterialParams, eps, z):
    """Pointwise stored energy 0.5 C(eps - z):(eps - z) + F(z).

    z is a 5-component deviator and eps a 6-component symmetric tensor (a
    float), or they are (N, 5) and (N, 6) stacks of them (an (N,) array);
    the elastic part reduces to G |eps_dev - z|^2 + (kappa/2) tr(eps)^2.
    """
    e_dev, tr = dev_split(eps)
    d = e_dev - np.asarray(z, dtype=float)
    elastic = p.elastic.G * inner(d, d) + 0.5 * p.elastic.kappa * tr * tr
    return elastic + transformation_energy(p, z)
