"""Weighted Laplacians, pseudoinverses and killed-walk Green's functions.

The weight of an edge is the reciprocal of the cost curvature at the
current flow, so the Laplacian here is exactly the constraint-side matrix
appearing in the sensitivity operator. Products with L^+ are matrix-free
conjugate-gradient solves (laplacian_solve); dense matrices serve spectra,
killed walks, the walk series and the small-graph oracles.
"""

from functools import cached_property

import numpy as np

from .graph import _vertex_indices

# eigenvalues below this fraction of the largest are treated as kernel
KERNEL_RTOL = 1e-12
# laplacian_solve stops at |rhs - L x|_2 <= CG_RTOL |rhs|_2 (mean-zero rhs)
CG_RTOL = 1e-14
# stop Green's-function series when lambda^t / (1 - lambda) drops below this
SERIES_TAIL = 1e-12


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


def laplacian_solve(graph, weights, rhs):
    """L_w^+ rhs by Jacobi-preconditioned conjugate gradients on the
    mean-zero subspace (the mean of rhs is in the kernel and dropped).

    Raises LaplacianError on non-finite input or a nonpositive weight, and
    when the residual does not reach CG_RTOL within 10 n + 100 iterations.
    """
    w, r = np.asarray(weights, dtype=float), np.asarray(rhs, dtype=float)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(w) & (w > 0))):
        raise LaplacianError("Laplacian solve needs a finite right-hand "
                             "side and finite positive weights")
    # an exact power-of-two scaling keeps r @ r from over- and underflow
    e = np.frexp(np.abs(r).max())[1]
    r = np.ldexp(r, -e)
    r = r - r.mean()
    x, inv_d = np.zeros_like(r), 1.0 / _weighted_degrees(graph, w)
    z = p = inv_d * r
    rz, scale = r @ z, np.sqrt(r @ r)
    for _ in range(10 * graph.n_vertices + 100):
        res = np.sqrt(r @ r)
        if res < CG_RTOL * scale or res == 0.0:
            return np.ldexp(x - x.mean(), e)
        if not np.isfinite(res):
            break
        Lp = graph.net_outflow(w * graph.potential_difference(p))
        alpha = rz / (p @ Lp)
        x += alpha * p
        r -= alpha * Lp
        z = inv_d * r
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    raise LaplacianError("conjugate gradients stalled at relative residual "
                         "%.3e" % (res / scale))


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


def killed_green_series(rl, tail=SERIES_TAIL, max_terms=1_000_000):
    """Truncated Neumann series for the killed Green's function, with the
    truncation point chosen from the killed walk's spectral radius."""
    s = np.sqrt(rl.dbar)
    sym = rl.Wbar / np.outer(s, s)
    rad = float(np.abs(np.linalg.eigvalsh(sym)).max())
    if rad >= 1.0:
        raise LaplacianError("killed walk spectral radius is not below 1")
    T = _truncation_point(rad, tail, max_terms)
    G = np.eye(len(rl.dbar))
    term = np.eye(len(rl.dbar))
    for _ in range(T):
        term = term @ rl.Pbar
        G += term
    return G, T


def _truncation_point(lam, tail, max_terms):
    if lam <= 0.0:
        return 1
    T = max(1, int(np.ceil(np.log(tail * (1.0 - lam)) / np.log(lam))) + 1)
    if T > max_terms:
        raise LaplacianError(
            "series needs %d terms to reach tail %.1e but max_terms is %d"
            % (T, tail, max_terms))
    return T


def restricted_vs_full(rl, Lplus):
    """Max deviation between Lbar^{-1} and the pseudoinverse expression
    (e_v - e_kill)^T L^+ (e_w - e_kill)."""
    z = rl.kill
    keep = rl.kept
    M = (Lplus[np.ix_(keep, keep)] - Lplus[keep, z][:, None]
         - Lplus[z, keep][None, :] + Lplus[z, z])
    return float(np.abs(rl.Lbar_inv - M).max())


def green_difference(walk, u, v, w, z, form="pinv", tail=SERIES_TAIL):
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
    pot = green_series_apply(walk, f, tail)
    return (float(pot[u] - pot[v]),
            _truncation_point(walk.spectrum().lam, tail, 1_000_000))


def green_series_apply(walk, f, tail=SERIES_TAIL):
    """sum_t P^t (f / d) for a balanced vertex vector f, truncated by the
    spectral tail bound. Used by the walk-series sensitivity formula."""
    if not walk.is_aperiodic():
        raise LaplacianError("series not absolutely summable; use L+ form")
    f = np.asarray(f, dtype=float)
    if abs(f.sum()) > 1e-9 * max(1.0, np.abs(f).max()):
        raise LaplacianError("series form needs a balanced vector")
    lam = walk.spectrum().lam
    T = _truncation_point(lam, tail, 1_000_000)
    vec = f / walk.d
    total = vec.copy()
    for _ in range(T):
        vec = walk.P @ vec
        total += vec
    return total
