"""Projected gradient descent and its localized, frozen-boundary variant.

The localized map updates only the flows inside a subgraph; the flows on
complement edges act as boundary conditions and must already satisfy the
conservation constraints outside the subgraph.
"""

from dataclasses import dataclass

import numpy as np

from .graph import build_incidence
from .objective import ObjectiveBundle
from .sensitivity import FEAS_TOL, FlowProblem, _scale, solve_exact


class SolverError(RuntimeError):
    """Infeasible input or inconsistent boundary data."""


@dataclass
class PgdConfig:
    eta: float = None          # defaults to 1/beta of the problem's bundle
    max_iter: int = 10_000
    tol: float = 1e-10
    trace: bool = False

    def __post_init__(self):
        if self.eta is not None and self.eta <= 0:
            raise SolverError("step size must be positive")
        if self.tol <= 0:
            raise SolverError("tolerance must be positive")


def pgd_step(problem, x, eta=None):
    """One projected-gradient iteration at a feasible point."""
    if eta is None:
        eta = 1.0 / problem.bundle.beta
    b = problem.b
    feas = float(np.abs(problem.graph.net_outflow(x) - b).max())
    if not feas <= FEAS_TOL * _scale(b):
        raise SolverError("infeasible iterate: |Ax-b| = %.3e" % feas)
    return problem.project(x - eta * problem.bundle.gradient(x), b)


def pgd_run(problem, x0, config=None):
    """Iterate the projected gradient map until the projected gradient is
    small or the iteration cap is hit. Returns (x, trace)."""
    config = config or PgdConfig()
    eta = config.eta or 1.0 / problem.bundle.beta
    x = np.asarray(x0, dtype=float).copy()
    trace = []
    for _ in range(config.max_iter):
        grad = problem.bundle.gradient(x)
        pg = problem.project_gradient(grad)
        if config.trace:
            trace.append(float(np.linalg.norm(pg)))
        if np.abs(pg).max() <= config.tol:
            break
        x = pgd_step(problem, x, eta)
    return x, trace


class LocalizedSolver:
    """Frozen-boundary projected gradient descent on a subgraph.

    Projection matrices for the restricted incidence matrix are computed
    once per (problem, subgraph) pair and reused across iterations.
    """

    def __init__(self, problem, sub):
        if sub.graph is not problem.graph:
            raise SolverError("subgraph does not belong to the problem graph")
        self.problem = problem
        self.sub = sub
        self.v_in = np.array(sub.sorted_vertices(), dtype=np.intp)
        self.e_in = np.array(sub.sorted_edges(), dtype=np.intp)
        self.e_out = np.array(sub.sorted_edge_complement(), dtype=np.intp)
        self.v_out = np.array(sorted(sub.vertex_complement), dtype=np.intp)
        if not len(self.e_in):
            raise SolverError("subgraph has no edges to update")
        A_sub = build_incidence(sub.induced)
        # the subgraph is connected and 1^T A_sub = 0, so A_sub^T times
        # (A_sub A_sub^T + 11^T/n)^{-1} is A_sub^T (A_sub A_sub^T)^+
        self.lift = np.linalg.solve(A_sub @ A_sub.T + 1.0 / len(self.v_in),
                                    A_sub).T
        self.Pi = np.eye(len(self.e_in)) - self.lift @ A_sub

    def _frozen_outflow(self, x):
        return self.problem.graph.net_outflow(x[self.e_out], self.e_out)

    def check_boundary(self, x, b_target):
        """Frozen components must satisfy the complement constraints."""
        res = self._frozen_outflow(x)[self.v_out] - b_target[self.v_out]
        worst = float(np.abs(res).max(initial=0.0))
        if not worst <= FEAS_TOL * _scale(b_target):
            raise SolverError(
                "boundary flows violate constraints: max residual %.3e"
                % worst)

    def restricted_b(self, x, b_target):
        return b_target[self.v_in] - self._frozen_outflow(x)[self.v_in]

    def step(self, x, b_target, eta=None):
        """One localized iteration; complement components pass through."""
        if eta is None:
            eta = 1.0 / self.problem.bundle.beta
        self.check_boundary(x, b_target)
        grads = self.problem.bundle.gradient(x)[self.e_in]
        xi = x[self.e_in]
        b_in = self.restricted_b(x, b_target)
        new_in = self.Pi @ (xi - eta * grads) + self.lift @ b_in
        out = x.copy()
        out[self.e_in] = new_in
        return out

    def run(self, x, b_target, t, eta=None, collect=None):
        for _ in range(int(t)):
            x = self.step(x, b_target, eta)
            if collect is not None:
                collect(x)
        return x

    def restricted_problem(self, x, b_target):
        """Exact restricted instance whose optimum is the localized
        fixed point: subgraph costs with the boundary inflow folded
        into b."""
        sub_bundle = ObjectiveBundle(
            [self.problem.bundle.costs[e] for e in self.e_in])
        return FlowProblem(self.sub.induced, sub_bundle,
                           self.restricted_b(x, b_target))

    def restricted_optimum(self, x, b_target):
        """Limit of the localized iteration, via an exact restricted
        solve; complement components stay frozen."""
        sub_prob = self.restricted_problem(x, b_target)
        x_sub = solve_exact(sub_prob)
        out = x.copy()
        out[self.e_in] = x_sub
        return out


def localized_pgd_step(problem, sub, x, b_target=None, eta=None):
    if b_target is None:
        b_target = problem.b
    return LocalizedSolver(problem, sub).step(np.asarray(x, dtype=float),
                                              b_target, eta)


def warm_start_reoptimize(problem, pert, sub, t, x_star=None, eta=None,
                          collect=None):
    """Run t localized iterations toward x*(b + p) from the warm start
    x*(b), freezing the complement flows as boundary conditions."""
    if not pert.support <= sub.vertex_set:
        raise SolverError("perturbation support not inside the subgraph")
    if x_star is None:
        x_star = solve_exact(problem)
    try:
        local = LocalizedSolver(problem, sub)
    except SolverError:
        if np.any(pert.p):
            raise
        return np.asarray(x_star, dtype=float).copy()
    b_target = problem.b + pert.p
    return local.run(np.asarray(x_star, dtype=float).copy(), b_target, t,
                     eta, collect)
