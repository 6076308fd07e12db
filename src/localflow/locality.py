"""Decay-of-correlation measurements and bounds, spectral interlacing,
the bias/variance decomposition of localized reoptimization, and the
radius/time tuner.

Constants that involve a supremum over all admissible external flows are
exact for quadratic costs (the weights do not depend on b) and otherwise
replaced by sound envelopes built from the curvature bounds, with the
provenance labeled on every report.
"""

import math
import time
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .graph import _edge_sets, _slots, geodesic_distance
from .laplacian import norm_bound
from .sensitivity import sensitivity_operator, solve_exact
from .solver import LocalizedSolver, _check_owner


class LocalityError(RuntimeError):
    """Bound hypotheses violated (lambda >= 1 or rho >= 1)."""


def adjacency_slem(graph):
    """Certified upper bound (a NormBound) on the second largest
    eigenvalue in magnitude of the unweighted adjacency matrix A: the
    norm of A - (d / n) 1 1^T, d = 2m / n the mean degree. On 1's
    complement that matrix is A, and it is at most A everywhere, so by
    Courant-Fischer its norm is at least max(|lambda_2|, |lambda_n|); on
    a regular graph it is equal. The mean degree, rather than the
    largest, keeps the bound close on irregular graphs too."""
    n = graph.n_vertices
    return norm_bound(graph, np.ones(graph.n_edges), np.ones(n),
                      np.full(n, math.sqrt(2.0 * graph.n_edges) / n))


def _constants_mode(problem):
    return "exact" if problem.bundle.all_quadratic else "envelope"


def _decay_rate(problem, walk, mode):
    """(lam, spectral) of the decay bounds: lam is the certified bound on
    the walk's second eigenvalue in magnitude in exact mode and its
    interlacing envelope otherwise; spectral records the Lanczos run the
    bound rests on."""
    if mode == "exact":
        lam, spectral = walk.slem_bound, walk.slem_bound.spectral
    else:
        budget = budget_for(problem)
        lam, spectral = budget.rho, budget.spectral
    if lam >= 1.0:
        raise LocalityError(
            "decay rate bound is %.4f >= 1; use an instance with a larger "
            "spectral gap" % lam)
    return float(lam), spectral


def _set_constants(problem, walk, verts, counts, mode):
    """Arrays (c, sqrt(2 max inner degree), min degree) over vertex sets
    given end to end in verts, counts[j] sorted vertices for set j, each
    vertex with an edge.

    c is the set-to-point constant. The inner edges of a set, both ends in
    it, come from the graph's CSR in one pass over all sets: each edge at
    a vertex of a set is looked up by its other end in the sorted keys
    (set, vertex). Exact mode reads the walk's weighted degrees and the
    largest inner weight; envelope mode reads the graph degrees and the
    curvature ratio Q in their place.
    """
    g = problem.graph
    starts = np.cumsum(counts) - counts
    keys = np.repeat(np.arange(len(counts)), counts) * g.n_vertices + verts
    slots, degree = _slots(g, verts)
    pair = np.repeat(np.arange(len(verts)), degree)
    # (set, other end) of each edge, looked up among the set's keys
    probe = keys[pair] - verts[pair] + g.adj[slots]
    inner = keys[np.minimum(np.searchsorted(keys, probe),
                            len(keys) - 1)] == probe
    maxsq = np.sqrt(2.0 * np.maximum.reduceat(
        np.bincount(pair[inner], minlength=len(verts)), starts))
    if mode == "exact":
        min_d = np.minimum.reduceat(walk.d[verts], starts)
        max_w = np.maximum.reduceat(
            np.where(inner, walk.weights[g.adj_edge[slots]], 0.0),
            (np.cumsum(degree) - degree)[starts])
        return maxsq / min_d * max_w, maxsq, min_d
    min_d = np.minimum.reduceat(degree, starts)
    return maxsq * problem.bundle.Q / min_d, maxsq, min_d


DecayRow = namedtuple("DecayRow", "edge_ids distance measured bound c")


@dataclass
class DecayReport:
    """Rows of a decay sweep, the decay rate lam and, in `spectral`, the
    record of the Lanczos run that certifies it (None with no rows).
    `stats`: the solve's record `solve`, `lanczos_steps` and the phase
    wall times in s, `solve_s` (with the apply), `rate_s`, `rows_s`."""
    rows: list
    lam: float
    constants_mode: str
    p_norm_Z: float
    spectral: dict = None
    stats: dict = None


def measure_decay(problem, pert, F_sets):
    """Measured correlation norm and spectral bound for each edge set F.

    The measured value is the localized l2-norm of the optimal-flow
    derivative for the perturbation; the bound is c * lam^d / (1 - lam)
    times the perturbation norm on its support. One operator apply, one
    BFS from the support and one decay rate serve every F, and all sets
    are resolved and measured in one array pass.
    """
    g, start = problem.graph, time.perf_counter()
    idx, sizes, verts, counts = _edge_sets(g, F_sets)
    if not sizes.all():
        raise LocalityError("empty edge set in decay sweep")
    mode, solve, t0 = _constants_mode(problem), {}, time.perf_counter()
    op = sensitivity_operator(problem, solve_exact(problem, stats=solve))
    deriv = op.apply(pert.p)
    Z = sorted(pert.support)
    p_norm = float(np.linalg.norm(pert.p[Z])) if Z else 0.0
    t1 = time.perf_counter()
    stats = {"solve": solve, "lanczos_steps": None, "solve_s": t1 - t0,
             "rate_s": 0.0, "rows_s": t0 - start}
    if not len(sizes):
        return DecayReport([], None, mode, p_norm, None, stats)
    lam, spectral = _decay_rate(problem, op.walk, mode)
    t2 = time.perf_counter()
    dist_Z = g.bfs_distances(Z) if Z else np.zeros(g.n_vertices, dtype=int)
    dist = np.minimum.reduceat(dist_Z[verts], np.cumsum(counts) - counts)
    c = _set_constants(problem, op.walk, verts, counts, mode)[0]
    # lam ** d as Python's float power takes it, which np.power need not
    decay = np.array([lam ** d for d in range(dist.max() + 1)])
    bound = c * decay[dist] / (1.0 - lam) * p_norm
    measured, first = np.empty(len(sizes)), np.cumsum(sizes) - sizes
    for size in np.unique(sizes).tolist():
        sel = np.flatnonzero(sizes == size)
        M = deriv[idx[first[sel, None] + np.arange(size)]]
        # bit for bit np.linalg.norm's sqrt(dot) per row; a sum is not
        measured[sel] = np.sqrt(M[:, None, :] @ M[:, :, None])[:, 0, 0]
    names = map(g._edge_name, idx.tolist())
    rows = list(map(DecayRow, [tuple(islice(names, k))
                               for k in sizes.tolist()],
                    dist.tolist(), measured.tolist(), bound.tolist(),
                    c.tolist()))
    stats.update(lanczos_steps=spectral["steps"], rate_s=t2 - t1,
                 rows_s=stats["rows_s"] + time.perf_counter() - t2)
    return DecayReport(rows, lam, mode, p_norm, spectral, stats)


def interlacing_bound(graph, sub_walk, w_minus, w_plus):
    """(lambda', bound, spectral): the second eigenvalue in magnitude of a
    weighted subgraph walk, from its dense spectrum, its interlacing bound
    from the unweighted full-graph adjacency, and the record of the
    Lanczos run behind that bound's mu."""
    if w_minus <= 0 or w_plus < w_minus:
        raise LocalityError("need 0 < w_minus <= w_plus")
    wts = sub_walk.weights
    if np.any(wts < w_minus - 1e-12) or np.any(wts > w_plus + 1e-12):
        raise LocalityError("subgraph weight outside [w_minus, w_plus]")
    budget = _graph_budget(graph, w_plus / w_minus)
    lam_prime, bound = sub_walk.spectrum().lam, budget.rho
    # the negative-end estimate behind the bound needs the subgraph to
    # keep weighted degrees at least w_minus * k_minus; a subgraph that
    # thins a vertex down (say a near-bipartite tree-like ball) can push
    # an eigenvalue toward -1 and break the inequality
    if lam_prime > bound + 1e-10:
        min_wdeg = float(sub_walk.d.min())
        raise LocalityError(
            "interlacing bound %.6f violated by lambda' = %.6f; the bound "
            "requires min weighted subgraph degree >= w_minus*k_minus = "
            "%.6f but it is %.6f"
            % (bound, lam_prime, w_minus * budget.k_minus, min_wdeg))
    return lam_prime, bound, budget.spectral


@dataclass
class ErrorBudget:
    """The localized algorithm's error bounds and their constants rho, c
    and gamma, which `envelope` alone computes; `spectral` records the
    Lanczos run that certifies mu (None for a family given by numbers)."""
    k_plus: int
    k_minus: int
    mu: float
    Q: float
    rho: float
    c: float
    gamma: float
    spectral: dict

    @property
    def valid(self):
        return self.rho < 1.0

    def bias_bound(self, p_norm, dist, whole_graph):
        if whole_graph:
            return 0.0
        if not self.valid:
            return math.inf
        try:  # a negative dist (tune's n - z) can overflow at a tiny rho
            decay = self.rho ** dist
        except OverflowError:
            decay = math.inf
        return p_norm * self.gamma * decay / (1.0 - self.rho) ** 2

    def variance_bound(self, p_norm, t):
        if not self.valid:
            return math.inf
        return p_norm * self.c * math.exp(-t / (2.0 * self.Q)) \
            / (1.0 - self.rho)

    @classmethod
    def envelope(cls, Q, k_plus, k_minus, mu, spectral=None):
        """The budget of curvature ratio Q on a graph of degrees k_minus
        to k_plus whose adjacency has second eigenvalue in magnitude at
        most mu. rho bounds that eigenvalue of every walk whose weights
        lie within a factor Q of each other; c and gamma scale the
        variance and bias bounds."""
        rho = Q * k_plus / k_minus - 1.0 + Q * mu / k_minus
        c = math.sqrt(2.0 * k_plus) * Q / k_minus
        gamma = c * (1.0 + c * math.sqrt(max(k_plus - 1, 0)))
        return cls(k_plus, k_minus, float(mu), Q, rho, c, gamma, spectral)


def _graph_budget(graph, Q):
    """The budget of curvature ratio Q on graph's degrees and mu."""
    degs, mu = graph.degrees(), adjacency_slem(graph)
    return ErrorBudget.envelope(Q, int(degs.max()), int(degs.min()), mu,
                                mu.spectral)


def budget_for(problem):
    """The error budget of problem's graph and curvature ratio Q."""
    return _graph_budget(problem.graph, problem.bundle.Q)


BiasVarianceResult = namedtuple("BiasVarianceResult", (
    "bias variance error boundary_distance bias_bound variance_bound "
    "budget"))


def bias_variance(problem, pert, sub, t):
    """Exact bias/variance split of the localized warm-start error.

    Bias compares the full perturbed optimum with the localized fixed
    point (restricted exact solve); variance is the remaining iteration
    error after t localized steps.
    """
    _check_owner(problem, sub)
    if not pert.support <= sub.vertex_set:
        raise LocalityError("perturbation support not inside the subgraph")
    x_star_base = solve_exact(problem)
    x_pert = solve_exact(problem.with_b(problem.b + pert.p))
    budget = budget_for(problem)
    p_norm = float(np.linalg.norm(pert.p))

    if not np.any(pert.p):
        zeros = np.zeros(problem.graph.n_edges)
        return BiasVarianceResult(zeros, zeros.copy(), zeros.copy(), 0,
                                  0.0, budget.variance_bound(0.0, t), budget)

    b_target = problem.b + pert.p
    local = LocalizedSolver(problem, sub)
    limit = local.restricted_optimum(x_star_base, b_target)
    iterate = local.run(x_star_base.copy(), b_target, t)
    bias = x_pert - limit
    variance = limit - iterate
    error = bias + variance

    dist = geodesic_distance(problem.graph, sub.boundary, pert.support) \
        if sub.boundary and pert.support else 0
    return BiasVarianceResult(
        bias, variance, error, dist,
        budget.bias_bound(p_norm, dist, sub.is_whole_graph),
        budget.variance_bound(p_norm, t), budget)


@dataclass
class TunerFamily:
    """Regular-expander family parameters driving the radius/time tuner."""
    Q: float
    k: int
    mu: float
    z: int = 1
    p_norm: float = 1.0
    omega: float = 3.0


TuneResult = namedtuple("TuneResult", (
    "r t predicted_cost rho nu_bias xi_bias nu_var xi_var ball_size_bound"))


def _least(bound, eps):
    """The least integer n >= 1 with bound(n) <= eps/2, for a bound that
    falls as n grows, by doubling and bisection: a closed form's round-off
    can miss it by one, and by far more as rho nears 1."""
    lo, hi = 0, 1
    while bound(hi) > eps / 2.0:
        lo, hi = hi, 2 * hi
    if not bound(hi) <= eps / 2.0:
        raise LocalityError("tuner bound overflows at n = %d" % hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid) <= eps / 2.0 else (mid, hi)
    return hi


def tune(family, eps):
    """Minimal radius and iteration count meeting an eps/2 budget split.

    r and t are the least integers >= 1 at which the family ErrorBudget's
    bias_bound(p_norm, r - z) = nu_bias e^(-xi_bias r) and
    variance_bound(p_norm, t) = nu_var e^(-xi_var t) meet eps/2. The
    predicted cost uses the k^r bound on the ball size with a
    configurable exponent. A non-finite Q, eps or p_norm, an omega that
    is not finite and positive, or a negative z is bad input (ValueError); a
    family the bounds cannot price raises LocalityError.
    """
    Q, k, mu, z = family.Q, family.k, family.mu, family.z
    for name, value, need, ok in (
            ("Q", Q, "finite", math.isfinite(Q)),
            ("eps", eps, "finite", math.isfinite(eps)),
            ("omega", family.omega, "finite and positive",
             0.0 < family.omega < math.inf),
            ("p_norm", family.p_norm, "finite", math.isfinite(family.p_norm)),
            ("z", z, "nonnegative", z >= 0)):
        if not ok:
            raise ValueError("tuner %s must be %s, got %r" % (name, need,
                                                               value))
    if eps <= 0:
        raise LocalityError("accuracy target must be positive")
    for field, ok in (("k >= 1", k >= 1), ("mu >= 0", mu >= 0),
                      ("p_norm > 0", family.p_norm > 0)):
        if not ok:
            raise LocalityError("tuner family needs %s" % field)
    budget = ErrorBudget.envelope(Q, k, k, mu)
    if budget.rho <= 0.0:
        raise LocalityError("tuner family needs rho > 0: Q (1 + mu/k) > 1")
    if not budget.valid:
        raise LocalityError("budget invalid: rho = %.4f >= 1" % budget.rho)
    nu_bias = budget.bias_bound(family.p_norm, -z, False)
    xi_bias = -math.log(budget.rho)
    nu_var = budget.variance_bound(family.p_norm, 0)
    xi_var = 1.0 / (2.0 * Q)
    r = _least(lambda n: budget.bias_bound(family.p_norm, n - z, False), eps)
    t = _least(lambda n: budget.variance_bound(family.p_norm, n), eps)
    try:
        ball = float(k) ** r
        cost = ball ** family.omega * t
    except OverflowError:
        ball = cost = math.inf
    return TuneResult(r, t, cost, budget.rho, nu_bias, xi_bias, nu_var,
                      xi_var, ball)
