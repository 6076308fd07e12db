"""Projected gradient descent and its localized, frozen-boundary variant.

The localized map updates only the flows inside a subgraph; the flows on
complement edges act as boundary conditions and must already satisfy the
conservation constraints outside the subgraph.
"""

from functools import cached_property

import numpy as np

from .graph import _feasible, _nonnegative_int, _positions
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
    give a sparse basis C (|E| x c, entries +-1, held as triples in
    `cycles`). The chord rows of C are the identity, so the Gram matrix
    G = C^T C is I plus a positive semidefinite matrix, and one LU inverse
    gives G^-1 (`gram_inverse`). The cycle support S (`support`, positions
    in e_in) holds the edges on some fundamental cycle; the others are the
    subgraph's bridges, whose flow every feasible flow shares.

    A run routes the restricted b along the tree once, to x0, and steps in
    the cycle coordinates s in R^c of the flows x0 + C s. The first step
    projects the start, x - (1/beta) grad f(x), onto them; every later one
    is s <- s - (1/beta) G^-1 C^T grad f_S(x0_S + C_S s), with the
    gradient of the support's costs (`bundle`) on the support alone: two
    bincounts over the nonzeros of C and one c x c product. The bridges
    carry x0 from the first step on. On a tree (c = 0) every step returns
    the one feasible flow, x0, without evaluating the gradient.

    What a run costs n is its wrapper: one check of the frozen flows
    (their net outflow over the whole graph, and their costs' domain) and
    the returned full vector, a copy of x with the subgraph's flows
    replaced.
    """

    def __init__(self, problem, sub):
        _check_owner(problem, sub)
        self.problem = problem
        self.sub = sub
        self.e_in = sub.e_in
        if not len(self.e_in):
            raise SolverError("subgraph has no edges to update")
        tails, heads = sub.ends
        edge = sub.tree_edge
        vertex = np.arange(len(edge))
        # each vertex's parent and the sign that routes its demand up its
        # tree edge: +1 where the edge leaves it (the root is its own
        # parent, with no edge)
        up = np.where(edge < 0, vertex, tails[edge] + heads[edge] - vertex)
        sign = np.where(tails[edge] == vertex, 1.0, -1.0)
        child = (edge >= 0).nonzero()[0]
        # the levels below the root, deepest first, each with its parents
        self._tree = (child, edge[child], sign[child],
                      [(level, up[level]) for level in sub.levels[:0:-1]])
        c = sub.cycle_rank
        if not c:
            self.cycles = (np.zeros(0, np.intp), np.zeros(0, np.intp),
                           np.zeros(0))
            self.gram_inverse = np.zeros((0, 0))
            self.support = np.zeros(0, np.intp)
        else:
            chord = np.ones(len(self.e_in), dtype=bool)
            chord[edge[child]] = False
            chords = chord.nonzero()[0]
            # column j: a unit on chord j plus the tree routing of -1 at
            # its tail and +1 at its head, climbed to their common ancestor
            rows, cols, vals = _climb(edge, up, sub.depth, sign,
                                      tails[chords], heads[chords])
            rows = np.concatenate((chords, rows))
            cols = np.concatenate((np.arange(c), cols))
            vals = np.concatenate((np.ones(c), vals))
            self.cycles = rows, cols, vals
            on = np.zeros(len(self.e_in), dtype=bool)
            on[rows] = True
            self.support = on.nonzero()[0]
            # C's triples with rows renumbered as positions in the support
            self._cycles_on_support = (on.cumsum() - 1)[rows], cols, vals
            self.gram_inverse = np.linalg.inv(
                _gram(*self._cycles_on_support, c))

    @cached_property
    def bundle(self):
        """The costs of the cycle support, sliced on first use. A tree has
        no support, never reads them, and has no such bundle (CostError,
        empty cost bundle)."""
        return self.problem.bundle[self.e_in[self.support]]

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
        integer; t = 0 returns a copy of x. After t >= 1 steps the
        returned flows lie in the costs' domain, or CostError names the
        first edge outside it (on a tree, before any iterate is
        collected)."""
        t = _nonnegative_int(t, SolverError, "iteration count")
        bundle = self.problem.bundle
        x = np.asarray(x, dtype=float)
        x0 = self._route(self.restricted_b(x, b_target))
        bundle.check_domain(x)
        out = x.copy()
        if not t:
            return out
        out[self.e_in] = x0
        support = self.e_in[self.support]
        if not len(support):  # a tree's one feasible flow: no gradient
            bundle.check_domain(out)
            if collect is not None:
                for _ in range(t):
                    collect(out.copy())
            return out
        rows, cols, vals = self._cycles_on_support
        c, gradient = len(self.gram_inverse), self.bundle.gradient
        step = (1.0 / bundle.beta) * self.gram_inverse
        x0_s, xs = x0[self.support], x[support]
        # the start's coordinates, G^-1 C^T (x - x0)
        s = self.gram_inverse @ np.bincount(cols, vals * (xs - x0_s)[rows], c)
        for _ in range(t):
            y = np.bincount(cols, vals * gradient(xs)[rows], c)
            s -= step @ y
            xs = x0_s + np.bincount(rows, vals * s[cols], len(xs))
            if collect is not None:
                out[support] = xs
                collect(out.copy())
        out[support] = xs
        bundle.check_domain(out)
        return out

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

    def restricted_optimum(self, x, b_target):
        """Limit of the localized iteration: the exact optimum of the
        subgraph's costs with the boundary inflow folded into b, and the
        complement components frozen."""
        out = np.array(x, dtype=float)
        out[self.e_in] = solve_exact(FlowProblem(
            self.sub.induced, self.problem.bundle[self.e_in],
            self.restricted_b(x, b_target)))
        return out


def _climb(edge, up, depth, sign, a, b):
    """Sparse triples (row, column, value) of the tree routing of the
    demand -1 at a[j] and +1 at b[j] into column j: the deeper end climbs
    toward the root until both ends are at one depth, then both climb
    together until they meet. In a BFS tree the ends of a non-tree edge
    are at most one level apart, so the first climb takes one step at
    most and the second runs once per tree level. `edge`, `up`, `depth`
    and `sign` give each vertex's tree edge, parent, depth and the sign
    that routes its demand up that edge."""
    a, b = a.copy(), b.copy()
    rows, cols, vals = [], [], []
    for end, other, value in ((a, b, -1.0), (b, a, 1.0)):
        col = (depth[end] > depth[other]).nonzero()[0]
        while len(col):
            at = end[col]
            rows.append(edge[at])
            cols.append(col)
            vals.append(value * sign[at])
            end[col] = up[at]
            col = col[depth[end[col]] > depth[other[col]]]
    col = (a != b).nonzero()[0]
    a, b = a[col], b[col]
    while len(col):
        rows += [edge[a], edge[b]]
        cols += [col, col]
        vals += [-sign[a], sign[b]]
        a, b = up[a], up[b]
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
    support = np.fromiter(pert.support, np.intp, len(pert.support))
    if not _positions(sub.v_in, support)[1].all():
        raise SolverError("perturbation support not inside the subgraph")
    if x_star is None:
        x_star = solve_exact(problem)
    if not len(sub.e_in):
        return np.asarray(x_star, dtype=float).copy()
    return LocalizedSolver(problem, sub).run(x_star, problem.b + pert.p, t,
                                             collect)
