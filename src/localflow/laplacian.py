"""Weighted Laplacians, pseudoinverses and killed-walk Green's functions.

The weight of an edge is the reciprocal of the cost curvature at the
current flow, so the Laplacian here is exactly the constraint-side matrix
appearing in the sensitivity operator. Products with L^+ are matrix-free
conjugate-gradient solves (laplacian_solve). Spectral norms behind the
error bounds are certified upper bounds from a matrix-free Lanczos run
(norm_bound); dense matrices serve spectra, killed walks and the
small-graph oracles.
"""

from functools import cached_property

import numpy as np

from .graph import _balanced, _vertex_indices

# eigenvalues below this fraction of the largest are treated as kernel
KERNEL_RTOL = 1e-12
# laplacian_solve stops at CG's recurrence residual |r|_2 < CG_RTOL |rhs|_2
CG_RTOL = 1e-14
# stop Green's-function series when lambda^t / (1 - lambda) drops below this
SERIES_TAIL = 1e-12
# norm_bound fails with probability at most SPECTRAL_DELTA over its random
# start, after at most LANCZOS_STEPS steps
SPECTRAL_DELTA = 1e-6
LANCZOS_STEPS = 120


class LaplacianError(ValueError):
    """Invalid walk construction or unsupported spectral request."""


class WeightedWalk:
    """Symmetric edge weights with the derived degree vector, Laplacian,
    transition matrix and stationary distribution. The dense n x n
    matrices W, L and P are built on first access."""

    def __init__(self, graph, weights):
        self.graph = graph
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (graph.n_edges,):
            raise LaplacianError("need one weight per edge")
        if np.any(self.weights <= 0):
            raise LaplacianError("edge weights must be positive")
        self.d = _weighted_degrees(graph, self.weights)
        self.pi = self.d / self.d.sum()

    @cached_property
    def W(self):
        W, g = np.zeros((self.n, self.n)), self.graph
        W[g.tails, g.heads] = W[g.heads, g.tails] = self.weights
        return W

    L = cached_property(lambda self: np.diag(self.d) - self.W)
    P = cached_property(lambda self: self.W / self.d[:, None])

    @property
    def n(self):
        return self.graph.n_vertices

    def spectrum(self):
        return self._spectrum

    def pinv(self):
        return self._pinv

    _spectrum = cached_property(lambda self: Spectrum(self))
    _pinv = cached_property(lambda self: pseudoinverse(self.L))

    @cached_property
    def slem_bound(self):
        """Certified upper bound on the walk's second largest eigenvalue in
        magnitude: the norm of D^{-1/2} W D^{-1/2} - u u^T, with
        u = sqrt(d) / |sqrt(d)| the eigenvector of the eigenvalue 1."""
        s = np.sqrt(self.d)
        return norm_bound(self.graph, self.weights, 1.0 / s,
                          s / np.linalg.norm(s))

    def is_aperiodic(self):
        # connected: periodic iff bipartite iff no edge joins equal depths
        g, d = self.graph, self.graph.bfs_distances([0])
        return bool(np.any(d[g.tails] == d[g.heads]))

    def restricted(self, kill):
        return RestrictedLaplacian(self, kill)


class Spectrum:
    """Eigenvalues of the transition matrix, sorted descending, and the
    second largest eigenvalue in magnitude."""

    def __init__(self, walk):
        # P is similar to the symmetric D^{-1/2} W D^{-1/2}
        s = np.sqrt(walk.d)
        gamma = walk.W / np.outer(s, s)
        vals = np.linalg.eigvalsh(gamma)
        self.eigenvalues = vals[::-1]
        if abs(self.eigenvalues[0] - 1.0) > 1e-10:
            raise LaplacianError("leading walk eigenvalue is not 1")
        if len(vals) > 1:
            self.lam = float(max(abs(self.eigenvalues[1]),
                                 abs(self.eigenvalues[-1])))
        else:
            self.lam = 0.0


class NormBound(float):
    """An upper bound on a spectral norm, as a float, with the record of
    the Lanczos run behind it: `spectral` holds the method, the steps, the
    failure probability delta, the Ritz estimate (at most the norm) and
    the bound."""

    def __new__(cls, bound, ritz, steps, delta):
        self = super().__new__(cls, bound)
        self.spectral = {"method": "lanczos", "steps": steps, "delta": delta,
                         "ritz": ritz, "bound": float(bound)}
        return self


def norm_bound(graph, weights, scale, deflate):
    """Upper bound on ||B||_2 for B = S W S - v v^T, where W is the
    symmetric matrix of the edge weights, S = diag(scale) and v = deflate.
    B is applied by bincount products and never formed.

    Lanczos runs on the positive semidefinite B^2, with full
    reorthogonalisation (one Gram-Schmidt pass, and a second when the
    first removes much: the DGKS criterion), from a Gaussian start drawn
    with a fixed seed.
    After k steps its top Ritz value theta gives ||B||^2 <= theta / (1 - e),
    e = (ln(1.648 sqrt(n) / delta) / (2k - 1))^2, with probability at least
    1 - delta over the start (Kuczynski & Wozniakowski, SIAM J. Matrix
    Anal. Appl. 13(4), 1992); delta is SPECTRAL_DELTA. When the Krylov
    space is exhausted before LANCZOS_STEPS, theta is exact and delta is 0.
    The bound adds 16 k ulps of s = max_i (S W S 1)_i + |v|^2 >= ||B||,
    the scale of the round-off in the products and the Ritz eigensolve.
    Returns a NormBound.
    """
    n, ulp = graph.n_vertices, np.finfo(float).eps
    sws = _weight_operator(graph, weights, scale)
    s = sws(np.ones(n)).max(initial=0.0) + deflate @ deflate

    def apply(x):
        return sws(x) - deflate * (deflate @ x)

    basis = np.empty((min(LANCZOS_STEPS, n), n))
    start = np.random.default_rng(0).standard_normal(n)
    basis[0] = start / np.sqrt(start @ start)
    alpha, beta = [], []
    for k in range(1, len(basis) + 1):
        q = basis[k - 1]
        r = apply(apply(q))
        alpha.append(q @ r)
        # the three-term recurrence, then classical Gram-Schmidt against
        # the whole basis, run again only when it removed more than
        # 1 - 1/sqrt(2) of the norm (Daniel, Gragg, Kaufman and Stewart)
        r -= alpha[-1] * q + (beta[-1] * basis[k - 2] if beta else 0.0)
        for _ in range(2):
            norm = np.sqrt(r @ r)
            r -= (basis[:k] @ r) @ basis[:k]
            res = np.sqrt(r @ r)
            if res * np.sqrt(2.0) >= norm:
                break
        # a residual at round-off level: the Krylov space is invariant
        exhausted = k == n or res <= 16.0 * np.sqrt(n) * ulp * s * s
        if exhausted or k == len(basis):
            break
        beta.append(res)
        basis[k] = r / res
    theta = max(float(np.linalg.eigvalsh(
        np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))[-1]), 0.0)
    if exhausted:
        delta, square = 0.0, theta + res
    else:
        delta = SPECTRAL_DELTA
        e = (np.log(1.648 * np.sqrt(n) / delta) / (2 * k - 1)) ** 2
        square = theta / (1.0 - e)
    return NormBound(np.sqrt(square) + 16.0 * k * ulp * s,
                     float(np.sqrt(theta)), k, delta)


def _weight_operator(graph, weights, scale):
    """y -> S W S y, one bincount, for the symmetric matrix W of the edge
    weights and S = diag(scale)."""
    rows = np.concatenate((graph.tails, graph.heads))
    cols = np.concatenate((graph.heads, graph.tails))
    coef = scale[rows] * np.tile(np.asarray(weights, dtype=float), 2) \
        * scale[cols]
    return lambda y: np.bincount(rows, coef * y[cols], graph.n_vertices)


def pseudoinverse(L):
    """Moore-Penrose pseudoinverse via eigendecomposition with a
    scale-invariant kernel cutoff."""
    vals, vecs = np.linalg.eigh(L)
    cutoff = KERNEL_RTOL * max(vals.max(), 1.0)
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def _weighted_degrees(graph, w):
    return np.bincount(np.r_[graph.tails, graph.heads], np.r_[w, w],
                       graph.n_vertices)


def laplacian_solve(graph, weights, rhs, x0=None, stats=None):
    """L_w^+ rhs by Jacobi-preconditioned conjugate gradients on the
    mean-zero subspace (the mean of rhs is in the kernel and dropped).

    CG starts from x0 (zeros when None), less its mean; a start whose
    residual exceeds |rhs|_2 is worse than zeros and is replaced by them.
    The stopping rule is absolute whatever the start: CG's recurrence
    residual r (updated, not recomputed) reaches |r|_2 < CG_RTOL |rhs|_2
    for the mean-zero rhs, and |rhs - L x|_2 differs from it by round-off.
    A warm start saves iterations but never loosens the rule; rhs = 0
    returns zeros. A stats dict gets the iteration count `cg_iterations`.

    Raises LaplacianError on non-finite input (x0 included) or a
    nonpositive weight, and when CG breaks down (p^T L p not positive and
    finite) or does not reach CG_RTOL within 10 n + 100 iterations.
    """
    w, r = np.asarray(weights, dtype=float), np.asarray(rhs, dtype=float)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(w) & (w > 0))):
        raise LaplacianError("Laplacian solve needs a finite right-hand "
                             "side and finite positive weights")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != r.shape or not np.all(np.isfinite(x0)):
            raise LaplacianError("Laplacian solve needs a finite start "
                                 "with one entry per vertex")
    # an exact power-of-two scaling keeps r @ r from over- and underflow
    e = np.frexp(np.abs(r).max())[1]
    r = np.ldexp(r, -e)
    r = r - r.mean()
    x, scale = np.zeros_like(r), np.sqrt(r @ r)
    if x0 is not None and scale > 0.0:
        # a start far above the answer's scale overflows to a rejected NaN
        with np.errstate(over="ignore", invalid="ignore"):
            start = np.ldexp(x0, -e)
            start -= start.mean()
            r0 = r - graph.net_outflow(w * graph.potential_difference(start))
            if np.sqrt(r0 @ r0) <= scale:
                x, r = start, r0
    inv_d = 1.0 / _weighted_degrees(graph, w)
    z = p = inv_d * r
    rz = r @ z
    for k in range(10 * graph.n_vertices + 100):
        res = np.sqrt(r @ r)
        if res < CG_RTOL * scale or res == 0.0:
            if stats is not None:
                stats["cg_iterations"] = k
            return np.ldexp(x - x.mean(), e)
        if not np.isfinite(res):
            break
        Lp = graph.net_outflow(w * graph.potential_difference(p))
        pLp = p @ Lp
        if not 0.0 < pLp < np.inf:  # breakdown
            break
        alpha = rz / pLp
        x += alpha * p
        r -= alpha * Lp
        z = inv_d * r
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    raise LaplacianError("conjugate gradients broke down or stalled at "
                         "relative residual %.3e" % (res / scale))


class RestrictedLaplacian:
    """Laplacian with one vertex removed; the killed walk's machinery.

    The kill vertex acts as a cemetery: the restricted transition matrix
    is strictly sub-stochastic on every component, so the restricted
    Laplacian is invertible.
    """

    def __init__(self, walk, kill):
        self.walk = walk
        self.kill = int(_vertex_indices(walk.graph, [kill])[0])
        keep = [v for v in range(walk.n) if v != self.kill]
        self.kept = keep
        self.Lbar = walk.L[np.ix_(keep, keep)]
        self.Wbar = walk.W[np.ix_(keep, keep)]
        self.dbar = walk.d[keep]
        self.Pbar = self.Wbar / self.dbar[:, None]
        try:
            self.Lbar_inv = np.linalg.inv(self.Lbar)
        except np.linalg.LinAlgError as exc:
            raise LaplacianError("restricted Laplacian is singular") from exc


def killed_green(rl):
    """Green's function of the killed walk: sum_t Pbar^t = Lbar^{-1} Dbar."""
    return rl.Lbar_inv * rl.dbar[None, :]


def killed_green_series(rl, max_terms=1_000_000):
    """Truncated Neumann series for the killed Green's function, with the
    truncation point chosen from the killed walk's spectral radius."""
    s = np.sqrt(rl.dbar)
    sym = rl.Wbar / np.outer(s, s)
    rad = float(np.abs(np.linalg.eigvalsh(sym)).max())
    if rad >= 1.0:
        raise LaplacianError("killed walk spectral radius is not below 1")
    T = _truncation_point(rad, max_terms)
    G = np.eye(len(rl.dbar))
    term = np.eye(len(rl.dbar))
    for _ in range(T):
        term = term @ rl.Pbar
        G += term
    return G, T


def _truncation_point(lam, max_terms=1_000_000):
    if lam >= 1.0:
        raise LaplacianError("walk decay bound %.6f is not below 1; use the "
                             "L+ form" % lam)
    if lam <= 0.0:
        return 1
    T = max(1, int(np.ceil(np.log(SERIES_TAIL * (1.0 - lam))
                           / np.log(lam))) + 1)
    if T > max_terms:
        raise LaplacianError(
            "series needs %d terms to reach tail %.1e but max_terms is %d"
            % (T, SERIES_TAIL, max_terms))
    return T


def restricted_vs_full(rl, Lplus):
    """Max deviation between Lbar^{-1} and the pseudoinverse expression
    (e_v - e_kill)^T L^+ (e_w - e_kill)."""
    z = rl.kill
    keep = rl.kept
    M = (Lplus[np.ix_(keep, keep)] - Lplus[keep, z][:, None]
         - Lplus[z, keep][None, :] + Lplus[z, z])
    return float(np.abs(rl.Lbar_inv - M).max())


def green_difference(walk, u, v, w, z, form="pinv"):
    """(e_u - e_v)^T L^+ (e_w - e_z), exactly via the pseudoinverse or via
    the truncated walk series (aperiodic instances only).

    The series form returns (value, truncation point).
    """
    u, v, w, z = _vertex_indices(walk.graph, (u, v, w, z))
    if form == "pinv":
        Lp = walk.pinv()
        return float(Lp[u, w] - Lp[u, z] - Lp[v, w] + Lp[v, z])
    if form != "series":
        raise LaplacianError("unknown form: %s" % form)
    f = np.zeros(walk.n)
    f[w] += 1.0
    f[z] -= 1.0
    pot = green_series_apply(walk, f)
    return (float(pot[u] - pot[v]),
            _truncation_point(walk.slem_bound))


def green_series_apply(walk, f):
    """sum_t P^t (f / d) for a balanced vertex vector f (graph._balanced,
    else LaplacianError), truncated where the walk's certified decay bound
    puts the tail below SERIES_TAIL; each term is one bincount product.
    Used by the walk-series sensitivity formula."""
    if not walk.is_aperiodic():
        raise LaplacianError("series not absolutely summable; use L+ form")
    f = _balanced(walk.graph, f, LaplacianError, "series form vector")
    T = _truncation_point(walk.slem_bound)
    w = _weight_operator(walk.graph, walk.weights, np.ones(walk.n))
    vec = f / walk.d
    total = vec.copy()
    for _ in range(T):
        vec = w(vec) / walk.d
        total += vec
    return total
