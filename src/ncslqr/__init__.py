"""Optimal decentralized control of two switched linear plants linked by a
lossy acknowledged channel: offline gain solver, closed-loop simulator, and
exact/Monte Carlo verification tools."""

# Set before the submodules load: solver records it in every bundle.
__version__ = "0.1.0"

from .model import ProblemSpec, load_problem
from .solver import SolutionBundle, solve_backward

__all__ = ["ProblemSpec", "SolutionBundle", "load_problem", "solve_backward"]
