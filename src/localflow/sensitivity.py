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
from .laplacian import CG_RTOL, WeightedWalk, laplacian_solve
from .objective import CostError

# relative to max(1, |grad|_inf); feasibility and balance are graph.py's
STATIONARITY_TOL = 1e-8
SOLVE_TOL = 1e-10  # solve_exact's default Newton stopping tolerance
# the largest forcing term: a loose Newton direction's CG may leave this
# fraction of the KKT residual in A dx = b - A x, as may the start's
FORCING_MAX = 0.1
NEWTON_MAX_ITER = 200  # before solve_exact gives up


# a Newton point: flow x, potential nu, gradient, primal residual
# r_p = A x - b, the KKT residual |(grad - A^T nu, r_p)|_2, the scale
# max(1, |grad|_inf) and whether the dual residual |grad - A^T nu|_2
# meets tol * scale
_Point = namedtuple("_Point", "x nu grad r_p merit scale done")


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
    Laplacian; general bundles by inexact infeasible-start Newton (see
    _newton) until the dual residual |grad - A^T nu|_2 is at most
    tol * max(1, |grad|_inf) at a point reached by a direction solved in
    full. Newton starts at the closed form of the costs' quadratic part
    sum a x^2/2 + c x, solved to the relative residual FORCING_MAX, or at
    the least-norm point (a = 1, c = 0) where that leaves a cost's
    interval. Each Newton step pays one Laplacian solve, its direction:
    loose while the dual residual is above tol, in full for the last
    step. Its line search prices each trial point by the KKT residual,
    with one gradient and no solve, and halves a step that leaves a
    cost's interval. Either answer then pays one unit-metric solve, from
    its potential, for the projected gradient, which must be at most
    max(tol, STATIONARITY_TOL) * max(1, |grad|_inf). Each Laplacian solve
    starts from the potential at hand; all but Newton's loose ones keep
    the absolute CG_RTOL stopping rule.

    A given stats dict gets `method` ("closed-form" or "newton"),
    `newton_iterations` (directions solved), `halvings` (line-search step
    halvings), `cg_iterations`, `cg_residual` and `cg_rtol` (per Laplacian
    solve, in order: the closed form or Newton's start; the least-norm
    start if taken; one direction per Newton step; then the stationarity
    check; `cg_residual` is each solve's true relative residual, None
    where it took no iteration, and `cg_rtol` the relative residual it
    was asked for), Newton's `start` ("quadratic-part" or "least-norm")
    and the final residuals `feasibility_inf` and `stationarity_inf`.
    """
    g, bundle, log = problem.graph, problem.bundle, []
    sigma = 1.0 / bundle.a  # the closed form of the costs' quadratic part
    x, nu = _project(g, sigma, -sigma * bundle.c, problem.b, log=log,
                     rtol=CG_RTOL if bundle.all_quadratic else FORCING_MAX)
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
        iterations, residuals, rtols = (list(col) for col in zip(*log))
        stats.update(record, cg_iterations=iterations, cg_residual=residuals,
                     cg_rtol=rtols, feasibility_inf=feas,
                     stationarity_inf=stat)
    return x


def _project(graph, sigma, v, d, nu0=None, log=None, rtol=CG_RTOL):
    """(x, nu): the projection x = v + sigma A^T nu of v onto A x = d in
    the metric diag(1/sigma), where L_sigma nu = d - A v is solved from nu0
    to the relative residual rtol, and its CG iteration count, residual
    (None after no iteration) and rtol appended to log (when not None).
    sigma and v may be scalars. Every flow solve here is one: the closed
    form, the least-norm start, Newton's direction, the stationarity
    residual, the projection onto Au = b and the sensitivity apply."""
    m = graph.n_edges
    sigma, v = (a if np.ndim(a) else np.full(m, float(a)) for a in (sigma, v))
    stats = {}
    nu = laplacian_solve(graph, sigma, d - graph.net_outflow(v), x0=nu0,
                         stats=stats, rtol=rtol)
    if log is not None:
        log.append((stats["cg_iterations"], stats.get("cg_residual"), rtol))
    return v + sigma * graph.potential_difference(nu), nu


def _newton(problem, x, nu, tol, log):
    """Inexact infeasible-start Newton for solve_exact from x with
    potential nu: x, its potential, its gradient and the record.

    At a point (x, nu) the direction dx = sigma (A^T w - grad), sigma the
    inverse curvatures, with A dx = b - A x solved for w (_direction).
    The line search prices the trial point (x + t dx, nu + t (w - nu)) by
    the KKT residual |(grad - A^T nu, A x - b)|_2, whose primal part is
    (1 - t)(A x - b) + t (A dx - (b - A x)), and accepts at (1 - t/100)
    of the current value (Boyd & Vandenberghe, Convex Optimization, 2004,
    Algorithm 10.2). A step whose trial point leaves a cost's interval is
    halved; when every halving did, the line search raises CostError
    naming the edge. While the dual residual |grad - A^T nu|_2 is above
    tol * max(1, |grad|_inf), the direction's CG stops at the forcing
    term's share of the KKT residual. Once it meets it, the step is
    taken on a full CG_RTOL solve, and Newton returns once a full step,
    this one or a forcing term's at the CG_RTOL floor, lands on a point
    whose dual residual meets it too. For any nu the dual residual
    bounds the unit-metric projected gradient from above."""
    g, bundle, start = problem.graph, problem.bundle, "quadratic-part"
    if np.any((x < bundle.lo) | (x > bundle.hi)):
        start = "least-norm"
        x, nu = _project(g, 1.0, 0.0, problem.b, log=log)
    here, halvings = _point(problem, x, nu, tol), 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        dx, w, rtol = _direction(problem, here, log)
        full, step, inside = rtol == CG_RTOL, 1.0, False
        while step > 2.0 ** -40:
            cand = here.x + step * dx
            try:
                new = _point(problem, cand, here.nu + step * (w - here.nu),
                             tol)
            except CostError:  # step left a cost's validity interval
                new = None
            if new and (new.merit <= (1.0 - 0.01 * step) * here.merit
                        or full and new.done):
                break
            inside = inside or new is not None
            step *= 0.5
            halvings += 1
        else:
            if not inside:
                e = int(np.flatnonzero((cand < bundle.lo)
                                       | (cand > bundle.hi))[0])
                raise CostError(
                    "Newton's direction leaves the validity interval %s of "
                    "edge %d at every step"
                    % ((float(bundle.lo[e]), float(bundle.hi[e])), e))
            raise SensitivityError(
                "Newton line search stalled at residual %.3e" % here.merit)
        here = new
        if full and here.done and step == 1.0:
            return here.x, here.nu, here.grad, {"method": "newton",
                                                "newton_iterations": it,
                                                "halvings": halvings,
                                                "start": start}
    raise SensitivityError(
        "solver did not converge: KKT residual %.3e" % here.merit)


def _point(problem, x, nu, tol):
    """The _Point at (x, nu): one gradient, which raises CostError outside
    a cost's interval, and O(m) products, no solve."""
    g, grad = problem.graph, problem.bundle.gradient(x)
    dual = float(np.linalg.norm(grad - g.potential_difference(nu)))
    r_p, scale = g.net_outflow(x) - problem.b, _scale(grad)
    return _Point(x, nu, grad, r_p, float(np.hypot(dual, np.linalg.norm(r_p))),
                  scale, dual <= tol * scale)


def _direction(problem, here, log):
    """Newton's infeasible-start direction at the _Point here, its
    potential w and the relative residual its solve was asked for:
    dx = sigma (A^T w - grad) with A dx = b - A x (Boyd & Vandenberghe,
    Convex Optimization, 2004, 10.3), solved from here.nu. Its dual block
    holds exactly, and CG's residual is its primal defect
    |A dx - (b - A x)|_2. Unless here.done, CG stops once that is at most
    eta min(|r|, |rhs|) for the KKT residual |r| = here.merit, the solve's
    right-hand side rhs and the forcing term
    eta = min(FORCING_MAX, |r| / max(1, |grad|_inf)) (Eisenstat & Walker,
    SIAM J. Sci. Comput. 17, 1996): loose directions cost few iterations
    far from the optimum and converge fast near it. |r| mixes gradient
    and flow units; where the gradients dwarf the flows (quartic costs
    at large |b|) eta |r| alone would let the defect outgrow the flows,
    and the line search stall on the primal residual it left."""
    g, sig = problem.graph, 1.0 / problem.bundle.hessian_diag(here.x)
    v, rtol = -sig * here.grad, CG_RTOL
    rhs = 0.0 if here.done else np.linalg.norm(g.net_outflow(v) + here.r_p)
    if rhs > 0.0:
        eta = min(FORCING_MAX, here.merit / here.scale)
        rtol = max(CG_RTOL, eta * min(here.merit / rhs, 1.0))
    return (*_project(g, sig, v, -here.r_p, here.nu, log, rtol), rtol)


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
