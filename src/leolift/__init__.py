"""leolift: space-logistics campaign optimization on time-expanded networks.

Builds a multi-commodity network-flow MILP from a campaign scenario, closes
the vehicle sizing relation with a trained surrogate (ReLU network or linear
regression) embedded as exact linear constraints, solves with an in-repo
simplex + branch-and-bound, and validates against a nonlinear fixed-point
oracle.
"""

__version__ = "0.1.0"

from .formulation import LinearEpsilon, assemble
from .milp_ir import MilpModel, Solution
from .scenario import Scenario, load_scenario, expand_time_network
from .spacecraft import SizingParams, OracleResult, evaluate_sizing, solve_exact_oracle
from .solver import BnbConfig, solve_lp, solve_milp
from .surrogate import ReluNetwork, train_relu_network, train_relu_networks, \
    fit_linear_regression

__all__ = [
    "MilpModel", "Solution", "Scenario", "load_scenario", "expand_time_network",
    "SizingParams", "OracleResult", "evaluate_sizing", "solve_exact_oracle",
    "BnbConfig", "solve_lp", "solve_milp",
    "LinearEpsilon", "assemble",
    "ReluNetwork", "train_relu_network", "train_relu_networks",
    "fit_linear_regression",
    "__version__",
]
