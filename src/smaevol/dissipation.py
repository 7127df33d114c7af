"""Dissipation distance on the deviatoric space.

The density is the isotropic von-Mises-type choice R |a|.  The step
solvers take it through R alone (the w_shift weight of a step problem),
so this class only evaluates it: the cost of one increment (energy
ledger, stability probes) and the total along a path.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dissipation:
    R: float = 0.5

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("dissipation radius R must be > 0")

    def value(self, a) -> float:
        return self.R * float(np.linalg.norm(a))

    def path_total(self, samples) -> float:
        """Sum of increment costs along an ordered list of deviators.

        For the piecewise-constant interpolants produced by the solvers
        this equals the total dissipation on the whole interval.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or len(samples) == 0:
            raise ValueError("need a non-empty ordered list of deviators")
        steps = np.diff(samples, axis=0)
        return self.R * float(np.linalg.norm(steps, axis=1).sum())
