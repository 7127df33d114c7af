"""Rate-independent quasi-static evolution of shape-memory materials."""

__version__ = "0.1.0"

from .asymptotics import temporal_error_study
from .constitutive import (PointState, PointTrajectory, StressPath, TimeGrid,
                           UnstableInitialState, continuous_dependence_check,
                           incremental_step, run_constitutive,
                           verify_stability)
from .material import (MaterialParams, stored_energy_density,
                       transformation_energy, transformation_energy_grad,
                       transformation_energy_sharp, transformation_energy_smooth)
from .proxsolve import NonConvergence, PointProblem, StepProblem, solve_point
from .tensors import Elasticity, dev_split, dev_to_sym, sym_from_matrix

__all__ = [
    "Elasticity", "MaterialParams", "NonConvergence", "PointProblem",
    "PointState", "PointTrajectory", "StepProblem", "StressPath", "TimeGrid",
    "UnstableInitialState", "continuous_dependence_check", "dev_split",
    "dev_to_sym", "incremental_step", "run_constitutive", "solve_point",
    "stored_energy_density", "sym_from_matrix",
    "temporal_error_study",
    "transformation_energy", "transformation_energy_grad",
    "transformation_energy_sharp", "transformation_energy_smooth",
    "verify_stability",
]
