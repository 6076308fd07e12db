"""Untimed reference checks for the benchmark's outputs.

Everything here is plain numpy on the benchmark's own copy of the graph:
incidence products by `bincount`, dense Laplacians inverted after
grounding (L + 11^T/n is invertible on a connected graph and agrees with
L^+ on balanced vectors), and breadth-first search over its own adjacency
lists. Library results are compared against these, never against
themselves.
"""

from collections import deque

import numpy as np

FEAS_RTOL = 1e-9       # |Ax - b|_inf against max(1, |b|_inf)
STAT_RTOL = 1e-8       # projected gradient against max(1, |grad|_inf)
MATCH_RTOL = 1e-8      # agreement of a library result with a reference


class OracleError(AssertionError):
    """A library output disagrees with its reference."""


def _scale(v):
    return max(1.0, float(np.abs(v).max())) if len(v) else 1.0


class Incidence:
    """The graph's incidence products and BFS, built from the id lists."""

    def __init__(self, vertices, edges):
        index = {v: i for i, v in enumerate(vertices)}
        self.n = len(vertices)
        self.m = len(edges)
        self.edge_ids = [e for e, _, _ in edges]
        self.tails = np.array([index[t] for _, t, _ in edges], dtype=np.intp)
        self.heads = np.array([index[h] for _, _, h in edges], dtype=np.intp)
        nbrs = [[] for _ in range(self.n)]
        for u, v in zip(self.tails.tolist(), self.heads.tolist()):
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.nbrs = nbrs

    @classmethod
    def of(cls, g):
        return cls(g.vertices, g.edges)

    def apply(self, x):
        """A x: net outflow per vertex."""
        return (np.bincount(self.tails, x, self.n)
                - np.bincount(self.heads, x, self.n))

    def transpose(self, nu):
        """A^T nu: potential difference per edge."""
        return nu[self.tails] - nu[self.heads]

    def grounded_inverse(self, w):
        """(A diag(w) A^T + 11^T/n)^{-1}."""
        L = np.full((self.n, self.n), 1.0 / self.n)
        t, h = self.tails, self.heads
        np.add.at(L, (t, t), w)
        np.add.at(L, (h, h), w)
        np.add.at(L, (t, h), -w)
        np.add.at(L, (h, t), -w)
        return np.linalg.inv(L)

    def bfs(self, sources):
        dist = np.full(self.n, -1, dtype=np.intp)
        queue = deque(sources)
        for s in sources:
            dist[s] = 0
        while queue:
            u = queue.popleft()
            for w in self.nbrs[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def edge_perturbation(self, k):
        p = np.zeros(self.n)
        p[self.tails[k]] = 1.0
        p[self.heads[k]] = -1.0
        return p


def check_feasible(inc, x, b, what):
    res = float(np.abs(inc.apply(x) - b).max())
    if res > FEAS_RTOL * _scale(b):
        raise OracleError("%s infeasible: |Ax-b|_inf = %.3e for |b|_inf = "
                          "%.3e" % (what, res, _scale(b)))


def check_in_row_space(inc, g, ground_inv, what):
    """g must equal A^T nu for some nu (stationarity of a flow problem)."""
    res = g - inc.transpose(ground_inv @ inc.apply(g))
    worst = float(np.abs(res).max())
    if worst > STAT_RTOL * _scale(g):
        raise OracleError("%s not stationary: residual %.3e" % (what, worst))


def check_match(got, want, what, rtol=MATCH_RTOL):
    err = float(np.abs(np.asarray(got) - want).max())
    if not err <= rtol * max(float(np.abs(want).max()), 1e-300):
        raise OracleError("%s differs from reference by %.3e (relative "
                          "%.3e)" % (what, err,
                                     err / max(np.abs(want).max(), 1e-300)))


def check_match_each(got, want, what, rtol=MATCH_RTOL):
    """Entry-wise relative agreement; entries below 1e-15 of the largest
    are compared against that floor instead."""
    want = np.asarray(want)
    err = np.abs(np.asarray(got) - want)
    scale = np.maximum(np.abs(want), 1e-15 * float(np.abs(want).max()))
    worst = int(np.argmax(err / scale))
    if not err[worst] <= rtol * scale[worst]:
        raise OracleError("%s entry %d is %.17g, reference %.17g"
                          % (what, worst, got[worst], want[worst]))


def quadratic_optimum(inc, a, c, b, ground_inv=None):
    """argmin sum a x^2/2 + c x s.t. Ax = b, in closed form."""
    sigma = 1.0 / a
    if ground_inv is None:
        ground_inv = inc.grounded_inverse(sigma)
    nu = ground_inv @ (b + inc.apply(sigma * c))
    return sigma * (inc.transpose(nu) - c)


def logcosh_curvature(a, s, x):
    return a + s * (1.0 - np.tanh(x) ** 2)


def logcosh_optimum(inc, a, s, b, max_iter=100):
    """argmin sum a x^2/2 + s log cosh x s.t. Ax = b by full Newton steps
    in the constraint null space (the cost is a-strongly convex and its
    curvature varies by at most s, so the steps need no damping when s is
    small against a)."""
    x = inc.transpose(inc.grounded_inverse(np.ones(inc.m)) @ b)
    for _ in range(max_iter):
        grad = a * x + s * np.tanh(x)
        sigma = 1.0 / logcosh_curvature(a, s, x)
        w = inc.grounded_inverse(sigma) @ inc.apply(sigma * grad)
        dx = -sigma * (grad - inc.transpose(w))
        x = x + dx
        if np.abs(dx).max() <= 1e-14 * _scale(x):
            return x
    raise OracleError("reference Newton solve did not converge")


def derivative(inc, sigma, p, ground_inv=None):
    """sigma * A^T L_sigma^+ p for a balanced p."""
    if ground_inv is None:
        ground_inv = inc.grounded_inverse(sigma)
    return sigma * inc.transpose(ground_inv @ p)


class ReoptOracle:
    """References for localized reoptimization on a quadratic instance:
    x*(b + p) = x*(b) + sigma A^T L^+ p exactly, the ball-restricted
    optimum in closed form, a replay of the t localized steps, and the
    error budget's bounds."""

    def __init__(self, inc, a, c, b, x_base, budget):
        self.inc, self.a, self.c, self.b = inc, a, c, b
        self.sigma = 1.0 / a
        self.ground_inv = inc.grounded_inverse(self.sigma)
        check_feasible(inc, x_base, b, "base solve")
        check_match(x_base, quadratic_optimum(inc, a, c, b, self.ground_inv),
                    "base solve")
        self.x_base = x_base
        self.budget = budget

    def ball(self, center, radius):
        """(vertex mask of the ball, indices of the edges inside it)."""
        inc = self.inc
        dist = inc.bfs([center])
        inside = (dist >= 0) & (dist <= radius)
        edges = np.nonzero(inside[inc.tails] & inside[inc.heads])[0]
        return inside, edges

    def restricted(self, inside, edges, b_target):
        """The ball's own incidence and its demand, with every flow outside
        the ball frozen at the base solve."""
        inc = self.inc
        verts = np.nonzero(inside)[0]
        local = -np.ones(inc.n, dtype=np.intp)
        local[verts] = np.arange(len(verts))
        frozen = self.x_base.copy()
        frozen[edges] = 0.0
        b_in = (b_target - inc.apply(frozen))[verts]
        sub = Incidence(list(range(len(verts))),
                        [(k, local[inc.tails[k]], local[inc.heads[k]])
                         for k in edges])
        return sub, b_in

    def restricted_optimum(self, sub, b_in, edges):
        """Closed-form optimum of the ball problem: the localized
        iteration's limit."""
        out = self.x_base.copy()
        out[edges] = quadratic_optimum(sub, self.a[edges], self.c[edges],
                                       b_in)
        return out

    def localized_iterate(self, sub, b_in, edges, t):
        """t projected-gradient steps on the ball from the base flow, with
        step 1/beta: each step projects x - grad/beta onto A_in y = b_in."""
        eta = 1.0 / self.a.max()
        a, c = self.a[edges], self.c[edges]
        ground_inv = sub.grounded_inverse(np.ones(sub.m))
        y = self.x_base[edges]
        for _ in range(t):
            v = y - eta * (a * y + c)
            y = v - sub.transpose(ground_inv @ (sub.apply(v) - b_in))
        out = self.x_base.copy()
        out[edges] = y
        return out

    def check(self, k, center, radius, t, x_t, x_lib_restricted):
        """Check one request's output; returns its measured errors."""
        inc = self.inc
        p = inc.edge_perturbation(k)
        b_target = self.b + p
        inside, edges = self.ball(center, radius)
        outside = np.ones(inc.m, dtype=bool)
        outside[edges] = False
        if np.any(x_t[outside] != self.x_base[outside]):
            raise OracleError("flow changed outside the ball")
        check_feasible(inc, x_t, b_target, "localized iterate")
        sub, b_in = self.restricted(inside, edges, b_target)
        check_match(x_t, self.localized_iterate(sub, b_in, edges, t),
                    "localized iterate")
        x_loc = self.restricted_optimum(sub, b_in, edges)
        if x_lib_restricted is not None:
            check_match(x_lib_restricted, x_loc, "restricted optimum")
        x_pert = self.x_base + derivative(inc, self.sigma, p,
                                          self.ground_inv)
        error = float(np.linalg.norm(x_t - x_pert))
        boundary = [v for v in np.nonzero(inside)[0]
                    if any(not inside[w] for w in inc.nbrs[v])]
        p_norm = float(np.linalg.norm(p))
        if boundary:
            dist = int(inc.bfs([inc.tails[k], inc.heads[k]])[boundary].min())
        else:
            dist = 0
        bound = (self.budget.bias_bound(p_norm, dist, not boundary)
                 + self.budget.variance_bound(p_norm, t))
        if not error <= bound:
            raise OracleError("localized error %.3e exceeds the budget's "
                              "bias + variance bound %.3e" % (error, bound))
        return {"rel_error": error / float(np.linalg.norm(x_pert
                                                           - self.x_base)),
                "bias": float(np.linalg.norm(x_pert - x_loc)),
                "variance": float(np.linalg.norm(x_loc - x_t))}


class GlobalOracle:
    """Feasibility and stationarity of a global solve and of its
    sensitivity product, with its own curvature formulas."""

    def __init__(self, inc):
        self.inc = inc
        self.ground_inv = inc.grounded_inverse(np.ones(inc.m))

    def check(self, kind, a, coef, b, x, p, u):
        inc = self.inc
        check_feasible(inc, x, b, "%s solve" % kind)
        if kind == "quadratic":
            grad, curv = a * x + coef, a
        else:
            grad, curv = a * x + coef * np.tanh(x), logcosh_curvature(a, coef,
                                                                       x)
        check_in_row_space(inc, grad, self.ground_inv, "%s solve" % kind)
        check_feasible(inc, u, p, "sensitivity apply")
        check_in_row_space(inc, curv * u, self.ground_inv,
                           "sensitivity apply")


class DecayOracle:
    """Expected decay.csv content for one instance: one row per edge in
    edge order, distances from its own BFS, measured values from a dense
    reference derivative, and measured <= bound."""

    def __init__(self, inc, kind, a, coef, b, p):
        self.inc = inc
        if kind == "quadratic":
            self.mode = "exact"
            sigma = 1.0 / a
        else:
            self.mode = "envelope"
            sigma = 1.0 / logcosh_curvature(a, coef,
                                            logcosh_optimum(inc, a, coef, b))
        self.reference = np.abs(derivative(inc, sigma, p))
        dist = inc.bfs(list(np.nonzero(p)[0]))
        self.distance = np.minimum(dist[inc.tails], dist[inc.heads])

    def check(self, rows):
        """rows: (distance, measured, bound, constants_mode, edge) tuples
        as read from decay.csv."""
        inc = self.inc
        if [r[4] for r in rows] != inc.edge_ids:
            raise OracleError("decay.csv does not hold one row per edge in "
                              "edge order (%d rows for %d edges)"
                              % (len(rows), inc.m))
        distance = np.array([r[0] for r in rows])
        measured = np.array([r[1] for r in rows])
        bound = np.array([r[2] for r in rows])
        if any(r[3] != self.mode for r in rows):
            raise OracleError("constants mode is not %s" % self.mode)
        if np.any(distance != self.distance):
            k = int(np.argmax(distance != self.distance))
            raise OracleError("distance of %s is %d, BFS gives %d"
                              % (rows[k][4], distance[k], self.distance[k]))
        if not np.all(measured <= bound):
            k = int(np.argmax(~(measured <= bound)))
            raise OracleError("measured %.6g exceeds bound %.6g on %s"
                              % (measured[k], bound[k], rows[k][4]))
        check_match_each(measured, self.reference, "decay measured value")
