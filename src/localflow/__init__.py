"""Sensitivity, locality and warm-start reoptimization for min-cost flow.

Separable convex edge costs, equality constraints from a directed graph's
incidence matrix. The optimal flow's derivative with respect to the
external flow is a weighted-Laplacian Green's function; its spatial decay
on expanders drives a localized projected-gradient reoptimizer and a
radius/iteration tuner.
"""

from .graph import (DirectedGraph, GraphError, SubgraphSpec, ball_subgraph,
                    generate, geodesic_distance, induced_vertex_set,
                    radius_max)
from .objective import CostError, EdgeCost, ObjectiveBundle
from .laplacian import (LaplacianError, WeightedWalk, laplacian_solve,
                        pseudoinverse)
from .sensitivity import (FlowProblem, PerturbationSpec, SensitivityError,
                          SensitivityOperator, directional_derivative,
                          integrate_sensitivity, sensitivity_operator,
                          solve_exact)
from .solver import (PGD_MAX_ITER, LocalizedSolver, SolverError, pgd_run,
                     pgd_step, warm_start_reoptimize)
from .locality import (BiasVarianceResult, DecayReport, DecayRow,
                       ErrorBudget, LocalityError, TuneResult, TunerFamily,
                       adjacency_slem, bias_variance, budget_for,
                       interlacing_bound, measure_decay, point_to_set,
                       set_to_point, tune)

__version__ = "0.1.0"

__all__ = [
    "DirectedGraph", "GraphError", "SubgraphSpec", "ball_subgraph",
    "generate", "geodesic_distance", "induced_vertex_set", "radius_max",
    "CostError", "EdgeCost", "ObjectiveBundle",
    "LaplacianError", "WeightedWalk", "laplacian_solve", "pseudoinverse",
    "FlowProblem", "PerturbationSpec", "SensitivityError",
    "SensitivityOperator", "directional_derivative",
    "integrate_sensitivity", "sensitivity_operator", "solve_exact",
    "PGD_MAX_ITER", "LocalizedSolver", "SolverError", "pgd_run", "pgd_step",
    "warm_start_reoptimize",
    "BiasVarianceResult", "DecayReport", "DecayRow", "ErrorBudget",
    "LocalityError", "TuneResult", "TunerFamily", "adjacency_slem",
    "bias_variance", "budget_for", "interlacing_bound",
    "measure_decay", "point_to_set", "set_to_point", "tune",
]
