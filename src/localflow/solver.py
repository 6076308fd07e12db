"""Projected gradient descent and its localized, frozen-boundary variant.

The localized map updates only the flows inside a subgraph; the flows on
complement edges act as boundary conditions and must already satisfy the
conservation constraints outside the subgraph.
"""

from functools import cached_property

import numpy as np

from .graph import _feasible, _nonnegative_int
from .sensitivity import FlowProblem, solve_exact

PGD_MAX_ITER = 10_000  # before pgd_run stops


class SolverError(RuntimeError):
    """Infeasible input or inconsistent boundary data."""


def pgd_step(problem, x):
    """One projected-gradient iteration at a feasible point, with the step
    1/beta that the error budget's contraction rate certifies."""
    b = problem.b
    _feasible(problem.graph.net_outflow(x) - b, b, SolverError,
              "infeasible iterate: |Ax-b| = %.3e")
    return problem.project(
        x - (1.0 / problem.bundle.beta) * problem.bundle.gradient(x), b)


def pgd_run(problem, x0, tol=1e-10, trace=False):
    """Iterate `pgd_step`, at most PGD_MAX_ITER times, until the projected
    gradient's largest entry is at most tol. Returns (x, norms), norms the
    projected gradient's norm before each step if trace is set."""
    if not tol > 0:
        raise SolverError("tolerance must be positive")
    x = np.asarray(x0, dtype=float).copy()
    norms = []
    for _ in range(PGD_MAX_ITER):
        pg = problem.project_gradient(problem.bundle.gradient(x))
        if trace:
            norms.append(float(np.linalg.norm(pg)))
        if np.abs(pg).max() <= tol:
            break
        x = pgd_step(problem, x)
    return x, norms


def _check_owner(problem, sub):
    """SolverError unless sub is a subgraph of the problem's own graph."""
    if sub.graph is not problem.graph:
        raise SolverError("subgraph does not belong to the problem graph")


class LocalizedSolver:
    """Frozen-boundary projected gradient descent on a subgraph.

    The subgraph's feasible flows are one particular flow plus its cycle
    space. Once per (problem, subgraph) pair, the subgraph's BFS spanning
    tree gives the routing of a balanced demand along tree paths, and the
    fundamental cycles of the c = |E| - |V| + 1 non-tree edges (chords)
    give a sparse basis C (|E| x c, entries +-1, held as triples). The
    chord rows of C are the identity, so the Gram matrix G = C^T C is I
    plus a positive semidefinite matrix, and one LU inverse gives G^-1.
    A run routes the restricted b along the tree once, to x0, and each
    step projects v to x0 + C G^-1 C^T (v - x0): two bincounts over the
    nonzeros of C and one c x c product. On a tree (c = 0) every step
    returns the one feasible flow, x0, without evaluating the gradient.
    A run iterates on the subgraph's flows alone, after one check of the
    frozen flows.
    """

    def __init__(self, problem, sub):
        _check_owner(problem, sub)
        self.problem = problem
        self.sub = sub
        self.e_in = sub.e_in
        if not len(self.e_in):
            raise SolverError("subgraph has no edges to update")
        tails, heads = sub.ends
        edge, depth = sub.tree_edge, sub.depth
        vertex = np.arange(len(edge))
        # each vertex's parent and the sign that routes its demand up its
        # tree edge: +1 where the edge leaves it (the root is its own
        # parent, with no edge)
        up = np.where(edge < 0, vertex, tails[edge] + heads[edge] - vertex)
        sign = np.where(tails[edge] == vertex, 1.0, -1.0)
        child = (edge >= 0).nonzero()[0]
        # the levels below the root, deepest first, each with its parents
        by_depth = depth.argsort(kind="stable")
        stops = depth[by_depth].searchsorted(np.arange(depth.max() + 2))
        self._tree = (child, edge[child], sign[child], [
            (by_depth[a:b], up[by_depth[a:b]])
            for a, b in zip(stops[-2:0:-1], stops[:0:-1])])
        c = sub.cycle_rank
        if not c:
            self.cycles = (np.zeros(0, np.intp), np.zeros(0, np.intp),
                           np.zeros(0))
            self.gram_inverse = np.zeros((0, 0))
        else:
            chords = np.setdiff1d(np.arange(len(self.e_in)), edge[child],
                                  assume_unique=True)
            # column j: a unit on chord j plus the tree routing of -1 at
            # its tail and +1 at its head, climbed to their common ancestor
            rows, cols, vals = _climb(edge, up, depth, sign, tails[chords],
                                      heads[chords])
            self.cycles = (np.concatenate((chords, rows)),
                           np.concatenate((np.arange(c), cols)),
                           np.concatenate((np.ones(c), vals)))
            self.gram_inverse = np.linalg.inv(_gram(*self.cycles, c))

    @cached_property
    def bundle(self):
        """The subgraph's costs, sliced on first use: a tree never reads
        them."""
        return self.problem.bundle[self.e_in]

    def restricted_b(self, x, b_target):
        """b_target on the subgraph minus the frozen flows' outflow there,
        after checking that the frozen flows meet b_target outside it;
        only the cut edges carry frozen flow into the subgraph."""
        g, v_in, cut = self.problem.graph, self.sub.v_in, self.sub.cut
        residual = g.net_outflow(x) - b_target
        residual[v_in] = 0.0
        _feasible(residual, b_target, SolverError,
                  "boundary flows violate constraints: max residual %.3e")
        return b_target[v_in] - g.net_outflow(x[cut], cut)[v_in]

    def step(self, x, b_target):
        """One localized iteration; complement components pass through."""
        return self.run(x, b_target, 1)

    def run(self, x, b_target, t, collect=None):
        """t localized iterations from x with the step 1/beta of the whole
        problem's bundle, returned as a new full vector; collect, if given,
        receives one after every iteration. t must be a nonnegative
        integer; t = 0 returns a copy of x."""
        t = _nonnegative_int(t, SolverError, "iteration count")
        beta = self.problem.bundle.beta
        x = np.asarray(x, dtype=float)
        x0 = self._route(self.restricted_b(x, b_target))
        self.problem.bundle.check_domain(x)
        rows, cols, vals = self.cycles
        inverse = self.gram_inverse
        c = len(inverse)
        xi = x[self.e_in]
        for _ in range(t):
            if c:
                v = xi - (1.0 / beta) * self.bundle.gradient(xi)
                y = np.bincount(cols, vals * (v - x0)[rows], c)
                xi = x0 + np.bincount(rows, vals * (inverse @ y)[cols],
                                      len(xi))
            else:  # a tree's one feasible flow: no gradient to take
                xi = x0
            if collect is not None:
                collect(self._scatter(x, xi))
        return self._scatter(x, xi)

    def _route(self, d):
        """The flow on the tree edges that meets the balanced demand d:
        each tree edge carries the demand of the subtree below it, summed
        one level at a time from the deepest."""
        child, rows, signs, levels = self._tree
        below = d.copy()
        for level, parents in levels:
            below += np.bincount(parents, below[level], len(below))
        flow = np.zeros(len(self.e_in))
        flow[rows] = signs * below[child]
        return flow

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


def _climb(edge, up, depth, sign, a, b):
    """Sparse triples (row, column, value) of the tree routing of the
    demand -1 at a[j] and +1 at b[j] into column j: both ends climb toward
    the root until they meet, the deeper end first and ends at equal depth
    together, so the loop runs once per tree level. `edge`, `up`, `depth`
    and `sign` give each vertex's tree edge, parent, depth and the sign
    that routes its demand up that edge."""
    rows, cols, vals = [], [], []
    col = np.arange(len(a))
    while len(col):
        da, db = depth[a], depth[b]
        for end, moves, value in ((a, da >= db, -1.0), (b, db >= da, 1.0)):
            rows.append(edge[end[moves]])
            cols.append(col[moves])
            vals.append(value * sign[end[moves]])
        a = np.where(da >= db, up[a], a)
        b = np.where(db >= da, up[b], b)
        apart = a != b
        a, b, col = a[apart], b[apart], col[apart]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _gram(rows, cols, vals, c):
    """C^T C for the sparse C of the triples: each pair of entries that
    share a row adds its product at (column, column)."""
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    counts = np.bincount(rows)
    size = counts[rows]  # the entries in each entry's row
    left = np.repeat(np.arange(len(rows)), size)
    offset = np.cumsum(size) - size
    right = np.arange(len(left)) + np.repeat(
        np.cumsum(counts)[rows] - counts[rows] - offset, size)
    return np.bincount(cols[left] * c + cols[right], vals[left] * vals[right],
                       c * c).reshape(c, c)


def warm_start_reoptimize(problem, pert, sub, t, x_star=None, collect=None):
    """Run t localized iterations toward x*(b + p) from the warm start
    x*(b), freezing the complement flows as boundary conditions. t must be
    a nonnegative integer (SolverError otherwise); t = 0 and a one-vertex
    subgraph (which has no edges, so p = 0) return the warm start."""
    t = _nonnegative_int(t, SolverError, "iteration count")
    _check_owner(problem, sub)
    if not pert.support <= sub.vertex_set:
        raise SolverError("perturbation support not inside the subgraph")
    if x_star is None:
        x_star = solve_exact(problem)
    if not len(sub.e_in):
        return np.asarray(x_star, dtype=float).copy()
    return LocalizedSolver(problem, sub).run(x_star, problem.b + pert.p, t,
                                             collect)
