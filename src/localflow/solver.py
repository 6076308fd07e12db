"""Projected gradient descent and its localized, frozen-boundary variant.

The localized map updates only the flows inside a subgraph; the flows on
complement edges act as boundary conditions and must already satisfy the
conservation constraints outside the subgraph.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

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

    The subgraph's feasible flows are one particular flow plus its cycle
    space. Once per (problem, subgraph) pair, a BFS spanning tree of the
    subgraph gives the routing of a balanced demand along tree paths, and
    the fundamental cycles of the non-tree edges, orthonormalised by a
    Householder QR, give the basis Q (|E| x c, c = |E| - |V| + 1). A run
    routes the restricted b along the tree once, to x0, and each step
    projects v to x0 + Q Q^T (v - x0). On a tree (c = 0) every step
    returns the one feasible flow, x0, without evaluating the gradient. A
    run iterates on the subgraph's flows alone, after one check of the
    frozen flows.
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
        paths = _tree_paths(sub.induced)
        # the tree routing as a sparse matrix: column v holds v's path
        codes = np.fromiter(chain.from_iterable(paths), np.intp)
        self._rows, self._signs = codes >> 1, 1.0 - 2.0 * (codes & 1)
        self._cols = np.repeat(np.arange(len(paths)), list(map(len, paths)))
        cycles = _fundamental_cycles(sub.induced, paths)
        # edges on no cycle (bridges) keep zero rows; the QR skips them,
        # and a tree, whose basis is empty, needs none
        on_cycle = np.flatnonzero(cycles.any(axis=1))
        self.cycle_basis = np.zeros_like(cycles)
        if len(on_cycle):
            self.cycle_basis[on_cycle] = np.linalg.qr(cycles[on_cycle])[0]

    def restricted_b(self, x, b_target):
        """b_target on the subgraph minus the frozen flows' outflow there,
        after checking that the frozen flows meet b_target outside it;
        only the cut edges carry frozen flow into the subgraph."""
        g, v_in, cut = self.problem.graph, self.sub.v_in, self.sub.cut
        residual = g.net_outflow(x) - b_target
        residual[v_in] = 0.0
        worst = float(np.abs(residual).max())
        if not worst <= FEAS_TOL * _scale(b_target):
            raise SolverError("boundary flows violate constraints: max "
                              "residual %.3e" % worst)
        return b_target[v_in] - g.net_outflow(x[cut], cut)[v_in]

    def step(self, x, b_target, eta=None):
        """One localized iteration; complement components pass through."""
        return self.run(x, b_target, 1, eta)

    def run(self, x, b_target, t, eta=None, collect=None):
        """t localized iterations from x, returned as a new full vector;
        collect, if given, receives one after every iteration."""
        if eta is None:
            eta = 1.0 / self.problem.bundle.beta
        x = np.asarray(x, dtype=float)
        d = self.restricted_b(x, b_target)
        x0 = np.bincount(self._rows, self._signs * d[self._cols],
                         len(self.e_in))  # d routed along the tree
        self.problem.bundle.check_domain(x)
        Q = self.cycle_basis
        xi = x[self.e_in]
        for _ in range(int(t)):
            if Q.shape[1]:
                v = xi - eta * self.bundle.gradient(xi)
                xi = x0 + Q @ (Q.T @ (v - x0))
            else:  # a tree's one feasible flow: no gradient to take
                xi = x0
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


def _tree_paths(g):
    """Each vertex's path to vertex 0 in a BFS spanning tree of the
    connected graph g, as a list of edge codes: 2k where edge k points
    toward vertex 0 and 2k + 1 where it points away. Routing each vertex's
    demand along its path, with those signs, meets A x = d for every
    demand d that sums to zero."""
    n, m = g.n_vertices, g.n_edges
    # the code of the edge from w to its parent u, keyed by w * n + u
    code = dict(zip((g.tails * n + g.heads).tolist(), range(0, 2 * m, 2)))
    code.update(zip((g.heads * n + g.tails).tolist(), range(1, 2 * m, 2)))
    paths = [None] * n
    paths[0] = []
    order = [0]
    for u in order:  # BFS: order grows while it is read
        for w in g.neighbors[u]:
            if paths[w] is None:
                paths[w] = [code[w * n + u]] + paths[u]
                order.append(w)
    return paths


def _fundamental_cycles(g, paths):
    """One circulation per non-tree edge e of the tree `paths`, as a
    column: a unit on e plus the tree routing of the demand -1 at its tail
    and +1 at its head. Entries above the ends' common ancestor cancel
    exactly. The columns are independent, since each alone uses its
    non-tree edge."""
    m, tails, heads = g.n_edges, g.tails.tolist(), g.heads.tolist()
    tree = {path[0] >> 1 for path in paths[1:]}
    chords = [k for k in range(m) if k not in tree]
    c = len(chords)
    flat, weight = [], []
    for j, k in enumerate(chords):
        flat.append(k * c + j)
        weight.append(1.0)
        for end, sign in ((tails[k], -1.0), (heads[k], 1.0)):
            for e in paths[end]:
                flat.append((e >> 1) * c + j)
                weight.append(-sign if e & 1 else sign)
    return np.bincount(np.array(flat, dtype=np.intp), weight,
                       m * c).reshape(m, c)


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
