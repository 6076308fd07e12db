"""Optimal-point sensitivity for equality-constrained flow problems.

The derivative of the optimal flow with respect to a balanced constraint
perturbation p is sigma * A^T L^+ p, where sigma holds the inverse cost
curvatures at the optimum and L is the induced weighted Laplacian.
Products with L^+ are conjugate-gradient solves, all in _project; the
walk series and the dense incidence are test oracles (tests/oracles.py).
"""

from collections import namedtuple

import numpy as np

from .graph import _balanced, _feasible, _scale, _vertex_indices
from .laplacian import WeightedWalk, laplacian_solve
from .objective import CostError

# relative to max(1, |grad|_inf); feasibility and balance are graph.py's
STATIONARITY_TOL = 1e-8
SOLVE_TOL = 1e-10  # solve_exact's default Newton stopping tolerance
NEWTON_MAX_ITER = 200  # before solve_exact gives up


# a Newton point's residual rho, direction dx and its potential w, the
# scale max(1, |grad|_inf) and the gradient
_Point = namedtuple("_Point", "rho dx w scale grad")


class SensitivityError(RuntimeError):
    """Invalid problem data or failed solve."""


class FlowProblem:
    """Min-cost flow instance: graph + separable costs + balanced external
    flow b."""

    def __init__(self, graph, bundle, b):
        self.graph = graph
        self.bundle = bundle
        if bundle.n_edges != graph.n_edges:
            raise SensitivityError("cost bundle does not match edge count")
        self.b = _balanced(graph, b, SensitivityError, "external flow")

    def with_b(self, b):
        return FlowProblem(self.graph, self.bundle, b)

    def unweighted_laplacian_pinv(self):
        """(A A^T)^+ = (D - W)^+ at unit weights, the dense reference for
        project; the benchmark tracer patches it by name."""
        return WeightedWalk(self.graph, np.ones(self.graph.n_edges)).pinv()

    def project(self, v, b):
        """Orthogonal projection v - A^T (A A^T)^+ (Av - b) onto Au = b."""
        return _project(self.graph, 1.0, v, b)[0]

    def project_gradient(self, grad):
        """Component of grad in the constraint null space."""
        return self.project(grad, 0.0)

    def walk_at(self, x):
        sigma = 1.0 / self.bundle.hessian_diag(x)
        return WeightedWalk(self.graph, sigma)


class PerturbationSpec:
    """Balanced perturbation p supported exactly on a vertex set Z."""

    def __init__(self, graph, p):
        self.graph = graph
        self.p = _balanced(graph, p, SensitivityError, "perturbation")
        self.support = frozenset(int(v) for v in np.nonzero(self.p)[0])
        # balance forces at least two support vertices; p = 0 is allowed
        # as the degenerate no-op perturbation
        if len(self.support) == 1:
            raise SensitivityError("perturbation support needs >= 2 vertices")

    @classmethod
    def from_mapping(cls, graph, mapping):
        p = np.zeros(graph.n_vertices)
        p[_vertex_indices(graph, mapping)] = list(map(float, mapping.values()))
        return cls(graph, p)


def solve_exact(problem, tol=SOLVE_TOL, stats=None):
    """Exact optimal flow.

    Quadratic bundles are solved in closed form through the weighted
    Laplacian; general bundles by damped Newton steps in the constraint
    null space until Newton's residual rho (see _newton) is at most
    tol * max(1, |grad|_inf). Newton starts at the closed form of the
    costs' quadratic part sum a x^2/2 + c x, or at the least-norm point
    (a = 1, c = 0) where that leaves a cost's interval. Each trial point
    pays one Laplacian solve, its Newton direction, whose rho the line
    search must cut by a factor 1 - step/4 or bring to
    tol * max(1, |grad|_inf); a step that leaves a cost's interval is
    halved. Either answer then pays one unit-metric solve, from its
    potential, for the projected gradient, which must be at most
    max(tol, STATIONARITY_TOL) * max(1, |grad|_inf). Each Laplacian solve
    starts from the potential at hand and keeps the absolute CG_RTOL
    stopping rule.

    A given stats dict gets `method` ("closed-form" or "newton"),
    `newton_iterations`, `halvings` (line-search step halvings),
    `cg_iterations` and `cg_residual` (per Laplacian solve, in order:
    the closed form; for Newton the least-norm start if taken, the
    start's direction and one direction per trial point in every cost's
    interval; then the stationarity check; `cg_residual` is each solve's
    true relative residual, None where it took no iteration), Newton's
    `start` ("quadratic-part" or "least-norm") and the final residuals
    `feasibility_inf` and `stationarity_inf`.
    """
    g, bundle, log = problem.graph, problem.bundle, []
    sigma = 1.0 / bundle.a  # the closed form of the costs' quadratic part
    x, nu = _project(g, sigma, -sigma * bundle.c, problem.b, log=log)
    if bundle.all_quadratic:
        grad = bundle.gradient(x)
        record = {"method": "closed-form", "newton_iterations": 0,
                  "halvings": 0}
    else:
        x, nu, grad, record = _newton(problem, x, nu, tol, log)
    stat = float(np.abs(_project(g, 1.0, -grad, 0.0, nu, log)[0]).max())
    feas = _check_solution(problem, x, stat,
                           max(tol, STATIONARITY_TOL) * _scale(grad))
    if stats is not None:
        stats.update(record, cg_iterations=[k for k, _ in log],
                     cg_residual=[res for _, res in log],
                     feasibility_inf=feas, stationarity_inf=stat)
    return x


def _project(graph, sigma, v, d, nu0=None, log=None):
    """(x, nu): the projection x = v + sigma A^T nu of v onto A x = d in
    the metric diag(1/sigma), where L_sigma nu = d - A v is solved from nu0
    and its CG iteration count and residual (None after no iteration)
    appended to log (when not None). sigma and v may be scalars. Every
    flow solve here is one: the closed form, the least-norm start,
    Newton's direction, the stationarity residual, the projection onto
    Au = b and the sensitivity apply."""
    m = graph.n_edges
    sigma, v = (a if np.ndim(a) else np.full(m, float(a)) for a in (sigma, v))
    stats = {}
    nu = laplacian_solve(graph, sigma, d - graph.net_outflow(v), x0=nu0,
                         stats=stats)
    if log is not None:
        log.append((stats["cg_iterations"], stats.get("cg_residual")))
    return v + sigma * graph.potential_difference(nu), nu


def _newton(problem, x, mu, tol, log):
    """Damped Newton for solve_exact from x with potential mu: x, its
    direction's potential w, its gradient and the record.

    A point's one solve is its direction dx = sigma (A^T w - grad), sigma
    the inverse curvatures, and its potential w gives the residual
    rho = |grad - A^T w|_2 = |dx / sigma|_2. For any w, rho bounds the
    unit-metric projected gradient |P grad|_inf from above, so Newton
    stops once rho <= tol * max(1, |grad|_inf). An accepted trial point's
    direction is the next step's."""
    g, bundle, start = problem.graph, problem.bundle, "quadratic-part"
    if np.any((x < bundle.lo) | (x > bundle.hi)):
        start = "least-norm"
        x, mu = _project(g, 1.0, 0.0, problem.b, log=log)
    here, halvings = _direction(problem, x, mu, log), 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        step = 1.0
        while step > 2.0 ** -40:
            cand = x + step * here.dx
            try:
                new = _direction(problem, cand, here.w, log)
            except CostError:  # step left a cost's validity interval
                new = None
            if new and (new.rho < here.rho * (1.0 - 0.25 * step)
                        or new.rho <= tol * new.scale):
                x, here = cand, new
                break
            step *= 0.5
            halvings += 1
        else:
            raise SensitivityError(
                "Newton line search stalled at residual %.3e" % here.rho)
        if here.rho <= tol * here.scale:
            return x, here.w, here.grad, {"method": "newton",
                                          "newton_iterations": it,
                                          "halvings": halvings,
                                          "start": start}
    raise SensitivityError(
        "solver did not converge: KKT residual %.3e" % here.rho)


def _direction(problem, x, w0, log):
    """The _Point of Newton's infeasible-start direction at x, from w0:
    A dx = b - A x (Boyd & Vandenberghe, Convex Optimization, 2004, 10.3)."""
    g, grad = problem.graph, problem.bundle.gradient(x)
    sig = 1.0 / problem.bundle.hessian_diag(x)
    dx, w = _project(g, sig, -sig * grad, problem.b - g.net_outflow(x), w0,
                     log)
    return _Point(float(np.linalg.norm(dx / sig)), dx, w, _scale(grad), grad)


def _check_solution(problem, x, stat, stat_tol):
    """Raise unless x is feasible and its projected gradient's norm stat
    is at most stat_tol; return |Ax - b|_inf."""
    b = problem.b
    feas = _feasible(problem.graph.net_outflow(x) - b, b, SensitivityError,
                     "solution infeasible: |Ax-b| = %.3e")
    if not stat <= stat_tol:
        raise SensitivityError(
            "solution not stationary: residual %.3e" % stat)
    return feas


class SensitivityOperator:
    """sigma * A^T L^+ at a base point, exposed as products."""

    def __init__(self, problem, x_star):
        self.problem = problem
        self.walk = problem.walk_at(x_star)
        self.sigma = self.walk.weights

    def apply(self, p):
        """Directional derivative of the optimal flow for perturbation p."""
        return _project(self.problem.graph, self.sigma, 0.0, p)[0]


def sensitivity_operator(problem, x_star=None):
    if x_star is None:
        x_star = solve_exact(problem)
    return SensitivityOperator(problem, x_star)
