"""Barrier Newton-CG solver for nonconvex conic programs with certificates."""

from .cones import Cone, ConeBlock, orthant, product, second_order
from .linops import AffineData
from .problems import ConicProblem, builtin, load_problem, perturb, save_problem
from .solver import SolveResult, SolverParams, SolveStatus, solve

__version__ = "0.1.0"

__all__ = [
    "AffineData",
    "Cone",
    "ConeBlock",
    "ConicProblem",
    "SolveResult",
    "SolveStatus",
    "SolverParams",
    "builtin",
    "load_problem",
    "orthant",
    "perturb",
    "product",
    "save_problem",
    "second_order",
    "solve",
]
