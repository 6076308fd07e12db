"""Optimal-point sensitivity for equality-constrained flow problems.

The derivative of the optimal flow with respect to a balanced constraint
perturbation p is sigma * A^T L^+ p, where sigma holds the inverse cost
curvatures at the optimum and L is the induced weighted Laplacian. The
same operator is exposed generically for full-row-rank constraint
matrices, where the pseudoinverse becomes a plain inverse. Products with
L^+ are conjugate-gradient solves; dense matrices are small-graph helpers.
"""

from functools import cached_property

import numpy as np

from .graph import build_incidence
from .laplacian import (WeightedWalk, green_series_apply, laplacian_solve,
                        pseudoinverse)
from .objective import CostError

BALANCE_TOL = 1e-9
# relative to max(1, |b|_inf) and max(1, |grad|_inf) respectively
FEAS_TOL = 1e-9
STATIONARITY_TOL = 1e-8

# materialize the dense edges-by-vertices operator only for small graphs
DENSE_OPERATOR_MAX_VERTICES = 512


class SensitivityError(RuntimeError):
    """Invalid problem data or failed solve."""


def _balanced(graph, v, what):
    v = np.asarray(v, dtype=float)
    if v.shape != (graph.n_vertices,):
        raise SensitivityError("%s has wrong dimension" % what)
    if not np.all(np.isfinite(v)):
        raise SensitivityError("%s is not finite" % what)
    if abs(v.sum()) > BALANCE_TOL * _scale(v):
        raise SensitivityError("%s not balanced" % what)
    return v


class FlowProblem:
    """Min-cost flow instance: graph + separable costs + balanced external
    flow b."""

    def __init__(self, graph, bundle, b):
        self.graph = graph
        self.bundle = bundle
        if bundle.n_edges != graph.n_edges:
            raise SensitivityError("cost bundle does not match edge count")
        self.b = _balanced(graph, b, "external flow")

    def with_b(self, b):
        return FlowProblem(self.graph, self.bundle, b)

    @cached_property
    def A(self):
        """Dense incidence matrix; a small-graph helper."""
        return build_incidence(self.graph)

    def unweighted_laplacian_pinv(self):
        """(A A^T)^+, the dense reference for project."""
        return pseudoinverse(self.A @ self.A.T)

    def project(self, v, b):
        """Orthogonal projection v - A^T (A A^T)^+ (Av - b) onto Au = b."""
        g = self.graph
        nu = laplacian_solve(g, np.ones(g.n_edges), g.net_outflow(v) - b)
        return v - g.potential_difference(nu)

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
        self.p = _balanced(graph, p, "perturbation")
        self.support = frozenset(int(v) for v in np.nonzero(self.p)[0])
        # balance forces at least two support vertices; p = 0 is allowed
        # as the degenerate no-op perturbation
        if len(self.support) == 1:
            raise SensitivityError("perturbation support needs >= 2 vertices")

    @classmethod
    def from_mapping(cls, graph, mapping):
        p = np.zeros(graph.n_vertices)
        for vid, val in mapping.items():
            p[graph.vertex_index[vid]] = float(val)
        return cls(graph, p)


def solve_exact(problem, tol=1e-10, max_iter=200):
    """Exact optimal flow.

    Quadratic bundles are solved in closed form through the weighted
    Laplacian; general bundles by damped Newton steps restricted to the
    constraint null space, starting from the least-norm feasible point,
    until the projected gradient is at most tol * max(1, |grad|_inf).
    """
    g, b, bundle = problem.graph, problem.b, problem.bundle
    if bundle.all_quadratic:
        lin = bundle.c
        sigma = 1.0 / bundle.a
        nu = laplacian_solve(g, sigma, b + g.net_outflow(sigma * lin))
        x = sigma * (g.potential_difference(nu) - lin)
        _check_solution(problem, x)
        return x

    x = problem.project(np.zeros(g.n_edges), b)
    res, scale = _kkt_residual(problem, x)
    for _ in range(max_iter):
        if res <= tol * scale:
            break
        grad = bundle.gradient(x)
        sig = 1.0 / bundle.hessian_diag(x)
        w = laplacian_solve(g, sig, g.net_outflow(sig * grad))
        dx = -sig * (grad - g.potential_difference(w))
        step = 1.0
        while step > 2.0 ** -40:
            cand = x + step * dx
            try:
                new_res, new_scale = _kkt_residual(problem, cand)
            except CostError:  # step left a cost's validity interval
                step *= 0.5
                continue
            if (new_res < res * (1.0 - 0.25 * step)
                    or new_res <= tol * new_scale):
                x, res, scale = cand, new_res, new_scale
                break
            step *= 0.5
        else:
            raise SensitivityError(
                "Newton line search stalled at residual %.3e" % res)
    else:
        raise SensitivityError(
            "solver did not converge: KKT residual %.3e" % res)
    _check_solution(problem, x)
    return x


def _scale(v):
    return max(1.0, float(np.abs(v).max()))


def _kkt_residual(problem, x):
    """|projected gradient|_inf and its scale max(1, |grad|_inf)."""
    grad = problem.bundle.gradient(x)
    return float(np.abs(problem.project_gradient(grad)).max()), _scale(grad)


def _check_solution(problem, x):
    b = problem.b
    feas = float(np.abs(problem.graph.net_outflow(x) - b).max())
    if not feas <= FEAS_TOL * _scale(b):
        raise SensitivityError("solution infeasible: |Ax-b| = %.3e" % feas)
    stat, scale = _kkt_residual(problem, x)
    if not stat <= STATIONARITY_TOL * scale:
        raise SensitivityError(
            "solution not stationary: residual %.3e" % stat)


class SensitivityOperator:
    """sigma * A^T L^+ at a base point, exposed as products; the dense
    matrix is materialized on demand for small graphs only."""

    def __init__(self, problem, x_star):
        self.problem = problem
        self.b = problem.b
        self.x_star = x_star
        self.walk = problem.walk_at(x_star)
        self.sigma = self.walk.weights

    def apply(self, p):
        """Directional derivative of the optimal flow for perturbation p."""
        g = self.problem.graph
        return self.sigma * g.potential_difference(
            laplacian_solve(g, self.sigma, p))

    def apply_series(self, p):
        """Same product through the truncated walk-series formula;
        aperiodic walks only."""
        return self.sigma * self.problem.graph.potential_difference(
            green_series_apply(self.walk, p))

    @cached_property
    def matrix(self):
        n = self.problem.graph.n_vertices
        if n > DENSE_OPERATOR_MAX_VERTICES:
            raise SensitivityError(
                "dense operator disabled for %d vertices; use apply()" % n)
        return self.sigma[:, None] * (self.problem.A.T @ self.walk.pinv())


def sensitivity_operator(problem, x_star=None):
    if x_star is None:
        x_star = solve_exact(problem)
    return SensitivityOperator(problem, x_star)


def generic_sensitivity_matrix(hessian_diag, A):
    """Sigma A^T (A Sigma A^T)^{+} for an arbitrary constraint matrix,
    using the inverse when A has full row rank."""
    A = np.asarray(A, dtype=float)
    sigma = 1.0 / np.asarray(hessian_diag, dtype=float)
    M = (A * sigma[None, :]) @ A.T
    if np.linalg.matrix_rank(A) == A.shape[0]:
        Minv = np.linalg.inv(M)
    else:
        Minv = pseudoinverse(M)
    return sigma[:, None] * (A.T @ Minv)


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


def gaussian_identity_check(Sigma, A):
    """Deviation between Sigma A^T (A Sigma A^T)^{-1} and the conditional
    mean derivative computed through the stacked-covariance block formula."""
    Sigma = np.asarray(Sigma, dtype=float)
    A = np.asarray(A, dtype=float)
    if np.linalg.matrix_rank(A) < A.shape[0]:
        raise SensitivityError("constraint matrix is not full row rank")
    direct = Sigma @ A.T @ np.linalg.inv(A @ Sigma @ A.T)
    # covariance of the stacked vector (X, AX)
    cross = Sigma @ A.T
    ff = A @ Sigma @ A.T
    block = cross @ np.linalg.pinv(ff)
    return float(np.abs(direct - block).max())


def boundary_sensitivity_check(H, I_set, B_set, fd_step=1e-6):
    """Deviation between Sigma_IB Sigma_BB^{-1} and -H_II^{-1} H_IB, plus a
    finite-difference check on the partially-minimized quadratic."""
    H = np.asarray(H, dtype=float)
    I_set = list(I_set)
    B_set = list(B_set)
    n = H.shape[0]
    if sorted(I_set + B_set) != list(range(n)):
        raise SensitivityError("index sets must partition the coordinates")
    Sigma = np.linalg.inv(H)
    lhs = Sigma[np.ix_(I_set, B_set)] @ np.linalg.inv(
        Sigma[np.ix_(B_set, B_set)])
    H_II = H[np.ix_(I_set, I_set)]
    H_IB = H[np.ix_(I_set, B_set)]
    rhs = -np.linalg.solve(H_II, H_IB)
    block_dev = float(np.abs(lhs - rhs).max())

    def argmin_I(x_B):
        return np.linalg.solve(H_II, -H_IB @ x_B)

    rng = np.random.default_rng(0)
    x_B = rng.standard_normal(len(B_set))
    fd = np.empty((len(I_set), len(B_set)))
    for j in range(len(B_set)):
        step = np.zeros(len(B_set))
        step[j] = fd_step
        fd[:, j] = (argmin_I(x_B + step) - argmin_I(x_B - step)) / (2 * fd_step)
    fd_dev = float(np.abs(fd - lhs).max())
    return block_dev, fd_dev
