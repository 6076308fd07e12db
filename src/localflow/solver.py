"""Projected gradient descent and its localized, frozen-boundary variant.

The localized map updates only the flows inside a subgraph; the flows on
complement edges act as boundary conditions and must already satisfy the
conservation constraints outside the subgraph.
"""

from dataclasses import dataclass

import numpy as np

from .graph import build_incidence
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

    The subgraph's costs and its lift A_sub^T (A_sub A_sub^T)^+ are built
    once per (problem, subgraph) pair. A run iterates on the subgraph's
    flows alone, after one check of the frozen flows.
    """

    def __init__(self, problem, sub):
        if sub.graph is not problem.graph:
            raise SolverError("subgraph does not belong to the problem graph")
        self.problem = problem
        self.sub = sub
        self.e_in = sub.e_in
        if not len(self.e_in):
            raise SolverError("subgraph has no edges to update")
        self.bundle = problem.bundle[self.e_in]
        A_sub = build_incidence(sub.induced)
        # the subgraph is connected and 1^T A_sub = 0, so A_sub^T times
        # (A_sub A_sub^T + 11^T/n)^{-1} is A_sub^T (A_sub A_sub^T)^+
        self.lift = np.linalg.solve(A_sub @ A_sub.T + 1.0 / len(sub.v_in),
                                    A_sub).T

    def restricted_b(self, x, b_target):
        """b_target on the subgraph minus the frozen flows' outflow there,
        after checking that the frozen flows meet b_target outside it."""
        v_in, v_out, e_out = self.sub.v_in, self.sub.v_out, self.sub.e_out
        frozen = self.problem.graph.net_outflow(x[e_out], e_out)
        worst = float(np.abs(frozen[v_out] - b_target[v_out]).max(initial=0))
        if not worst <= FEAS_TOL * _scale(b_target):
            raise SolverError("boundary flows violate constraints: max "
                              "residual %.3e" % worst)
        return b_target[v_in] - frozen[v_in]

    def step(self, x, b_target, eta=None):
        """One localized iteration; complement components pass through."""
        return self.run(x, b_target, 1, eta)

    def run(self, x, b_target, t, eta=None, collect=None):
        """t localized iterations from x, returned as a new full vector;
        collect, if given, receives one after every iteration."""
        if eta is None:
            eta = 1.0 / self.problem.bundle.beta
        x = np.asarray(x, dtype=float)
        shift = self.lift @ self.restricted_b(x, b_target)
        self.problem.bundle.check_domain(x)
        outflow = self.sub.induced.net_outflow
        xi = x[self.e_in]
        for _ in range(int(t)):
            v = xi - eta * self.bundle.gradient(xi)
            xi = v - self.lift @ outflow(v) + shift
            if collect is not None:
                collect(self._scatter(x, xi))
        return self._scatter(x, xi)

    def _scatter(self, x, xi):
        out = x.copy()
        out[self.e_in] = xi
        return out

    def restricted_optimum(self, x, b_target):
        """Limit of the localized iteration: the exact optimum of the
        subgraph's costs with the boundary inflow folded into b, and the
        complement components frozen."""
        return self._scatter(x, solve_exact(FlowProblem(
            self.sub.induced, self.bundle, self.restricted_b(x, b_target))))


def localized_pgd_step(problem, sub, x, b_target=None, eta=None):
    return LocalizedSolver(problem, sub).step(
        x, problem.b if b_target is None else b_target, eta)


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
    return local.run(x_star, problem.b + pert.p, t, eta, collect)
