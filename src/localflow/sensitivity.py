"""Optimal-point sensitivity for equality-constrained flow problems.

The derivative of the optimal flow with respect to a balanced constraint
perturbation p is sigma * A^T L^+ p, where sigma holds the inverse cost
curvatures at the optimum and L is the induced weighted Laplacian.
Products with L^+ are conjugate-gradient solves, all in _project; the
walk series and the dense incidence are test oracles (tests/oracles.py).
"""

import numpy as np

from .graph import _balanced, _feasible, _scale, _vertex_indices
from .laplacian import WeightedWalk, laplacian_solve
from .objective import CostError

# relative to max(1, |grad|_inf); feasibility and balance are graph.py's
STATIONARITY_TOL = 1e-8
SOLVE_TOL = 1e-10  # solve_exact's default Newton stopping tolerance
NEWTON_MAX_ITER = 200  # before solve_exact gives up


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
    null space until the projected gradient is at most
    tol * max(1, |grad|_inf). Newton starts at the closed form of the
    costs' quadratic part sum a x^2/2 + c x, or at the least-norm point
    (a = 1, c = 0) where that leaves a cost's interval. Its first step is
    halved only to stay in every domain; a later one must cut the
    residual by a factor 1 - step/4. Each Laplacian solve starts from the
    potential at hand and keeps the absolute CG_RTOL stopping rule.

    A given stats dict gets `method` ("closed-form" or "newton"),
    `newton_iterations`, `halvings` (line-search step halvings),
    `cg_iterations` (per Laplacian solve, in order: the closed form and
    its check; or Newton's start, two after a fallback, then per
    iteration a direction and one per trial point that reached its
    residual), Newton's `start` ("quadratic-part" or "least-norm") and
    the final residuals `feasibility_inf` and `stationarity_inf`.
    """
    bundle, log = problem.bundle, []
    sigma = 1.0 / bundle.a  # the closed form of the costs' quadratic part
    x, nu = _project(problem.graph, sigma, -sigma * bundle.c, problem.b,
                     log=log)
    if bundle.all_quadratic:
        stat, scale = _kkt_residual(problem, x, nu, log)[:2]
        record = {"method": "closed-form", "newton_iterations": 0,
                  "halvings": 0}
    else:
        x, stat, scale, record = _newton(problem, x, nu, tol, log)
    feas = _check_solution(problem, x, stat, scale)
    if stats is not None:
        stats.update(record, cg_iterations=log, feasibility_inf=feas,
                     stationarity_inf=stat)
    return x


def _project(graph, sigma, v, d, nu0=None, log=None):
    """(x, nu): the projection x = v + sigma A^T nu of v onto A x = d in
    the metric diag(1/sigma), where L_sigma nu = d - A v is solved from nu0
    and its CG iteration count appended to log (when not None). sigma and
    v may be scalars. Every flow solve here is one: the closed form, the
    least-norm start, Newton's direction, the stationarity residual, the
    projection onto Au = b and the sensitivity apply."""
    m = graph.n_edges
    sigma, v = (a if np.ndim(a) else np.full(m, float(a)) for a in (sigma, v))
    stats = {}
    nu = laplacian_solve(graph, sigma, d - graph.net_outflow(v), x0=nu0,
                         stats=stats)
    if log is not None:
        log.append(stats["cg_iterations"])
    return v + sigma * graph.potential_difference(nu), nu


def _newton(problem, x, mu, tol, log):
    """Damped Newton for solve_exact from x with potential mu: x, its
    residual and scale, record."""
    g, bundle, start = problem.graph, problem.bundle, "quadratic-part"
    if np.any((x < bundle.lo) | (x > bundle.hi)):
        start = "least-norm"
        x, mu = _project(g, 1.0, 0.0, problem.b, log=log)
    grad = bundle.gradient(x)
    res, halvings = np.inf, 0  # so any first trial in the domain is taken
    for it in range(1, NEWTON_MAX_ITER + 1):
        sig = 1.0 / bundle.hessian_diag(x)
        dx, w = _project(g, sig, -sig * grad, 0.0, mu, log)
        step = 1.0
        while step > 2.0 ** -40:
            cand = x + step * dx
            try:  # residual, scale, potential and gradient at cand
                new = _kkt_residual(problem, cand, w, log)
            except CostError:  # step left a cost's validity interval
                new = None
            if new and (new[0] < res * (1.0 - 0.25 * step)
                        or new[0] <= tol * new[1]):
                x, (res, scale, mu, grad) = cand, new
                break
            step *= 0.5
            halvings += 1
        else:
            raise SensitivityError(
                "Newton line search stalled at residual %.3e" % res)
        if res <= tol * scale:
            break
    else:
        raise SensitivityError(
            "solver did not converge: KKT residual %.3e" % res)
    return x, res, scale, {"method": "newton", "newton_iterations": it,
                           "halvings": halvings, "start": start}


def _kkt_residual(problem, x, nu0, log):
    """|projected gradient|_inf, its scale max(1, |grad|_inf), the
    projection's potential and the gradient; the solve starts from nu0."""
    grad = problem.bundle.gradient(x)
    pg, nu = _project(problem.graph, 1.0, -grad, 0.0, nu0, log)
    return float(np.abs(pg).max()), _scale(grad), nu, grad


def _check_solution(problem, x, stat, scale):
    """Raise unless x is feasible and stationary; return |Ax - b|_inf."""
    b = problem.b
    feas = _feasible(problem.graph.net_outflow(x) - b, b, SensitivityError,
                     "solution infeasible: |Ax-b| = %.3e")
    if not stat <= STATIONARITY_TOL * scale:
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


def directional_derivative(problem, pert, eps=0.0):
    """d x*(b + eps p) / d eps, evaluated at the re-solved point."""
    prob = problem if eps == 0.0 else problem.with_b(problem.b + eps * pert.p)
    op = sensitivity_operator(prob)
    return op.apply(pert.p)


def _gauss_legendre_nodes(n_steps):
    nodes, weights = np.polynomial.legendre.leggauss(4)
    h = 1.0 / n_steps
    mids = (np.arange(n_steps) + 0.5) * h
    return ((mids[:, None] + 0.5 * h * nodes).ravel(),
            np.tile(0.5 * h * weights, n_steps))


def integrate_sensitivity(problem, b_from, b_to, n_steps=8):
    """Integral of the sensitivity operator along the segment from b_from
    to b_to, applied to the difference. Matches x*(b_to) - x*(b_from)."""
    b_from = np.asarray(b_from, dtype=float)
    b_to = np.asarray(b_to, dtype=float)
    if n_steps < 1:
        raise SensitivityError("n_steps must be >= 1")
    delta = b_to - b_from
    if not np.any(delta):
        return np.zeros(problem.graph.n_edges)
    nodes, weights = _gauss_legendre_nodes(n_steps)
    out = np.zeros(problem.graph.n_edges)
    for theta, wgt in zip(nodes, weights):
        op = sensitivity_operator(problem.with_b(b_from + theta * delta))
        out += wgt * op.apply(delta)
    return out
