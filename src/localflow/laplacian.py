"""Weighted Laplacians, pseudoinverses and killed-walk Green's functions.

The weight of an edge is the reciprocal of the cost curvature at the
current flow, so the Laplacian here is exactly the constraint-side matrix
appearing in the sensitivity operator. Dense linear algebra throughout.
"""

import numpy as np

# eigenvalues below this fraction of the largest are treated as kernel
KERNEL_RTOL = 1e-12
# stop Green's-function series when lambda^t / (1 - lambda) drops below this
SERIES_TAIL = 1e-12


class LaplacianError(ValueError):
    """Invalid walk construction or unsupported spectral request."""


class WeightedWalk:
    """Symmetric edge weights with the derived degree vector, Laplacian,
    transition matrix and stationary distribution."""

    def __init__(self, graph, weights):
        self.graph = graph
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (graph.n_edges,):
            raise LaplacianError("need one weight per edge")
        if np.any(self.weights <= 0):
            raise LaplacianError("edge weights must be positive")
        n = graph.n_vertices
        W = np.zeros((n, n))
        W[graph.tails, graph.heads] = self.weights
        W[graph.heads, graph.tails] = self.weights
        self.W = W
        self.d = W.sum(axis=1)
        self.L = np.diag(self.d) - W
        self.P = W / self.d[:, None]
        self.pi = self.d / self.d.sum()
        self._spectrum = None
        self._pinv = None

    @property
    def n(self):
        return self.graph.n_vertices

    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = Spectrum(self)
        return self._spectrum

    def pinv(self):
        if self._pinv is None:
            self._pinv = pseudoinverse(self.L)
        return self._pinv

    def is_aperiodic(self, tol=1e-10):
        # connected walk is periodic iff bipartite iff -1 is an eigenvalue
        return self.spectrum().eigenvalues[-1] > -1.0 + tol

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

    @property
    def gap(self):
        return 1.0 - self.lam


def pseudoinverse(L):
    """Moore-Penrose pseudoinverse via eigendecomposition with a
    scale-invariant kernel cutoff."""
    vals, vecs = np.linalg.eigh(L)
    cutoff = KERNEL_RTOL * max(vals.max(), 1.0)
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


class RestrictedLaplacian:
    """Laplacian with one vertex removed; the killed walk's machinery.

    The kill vertex acts as a cemetery: the restricted transition matrix
    is strictly sub-stochastic on every component, so the restricted
    Laplacian is invertible.
    """

    def __init__(self, walk, kill):
        self.walk = walk
        if isinstance(kill, str):
            kill = walk.graph.vertex_index[kill]
        self.kill = int(kill)
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
    g = walk.graph
    u, v, w, z = (g.vertex_index[a] if isinstance(a, str) else int(a)
                  for a in (u, v, w, z))
    if form == "pinv":
        Lp = walk.pinv()
        return float(Lp[u, w] - Lp[u, z] - Lp[v, w] + Lp[v, z])
    if form != "series":
        raise LaplacianError("unknown form: %s" % form)
    if not walk.is_aperiodic():
        raise LaplacianError("series not absolutely summable; use L+ form")
    lam = walk.spectrum().lam
    T = _truncation_point(lam, tail, 1_000_000)
    rhs = np.zeros(walk.n)
    rhs[w] = 1.0 / walk.d[w]
    rhs[z] -= 1.0 / walk.d[z]
    total = rhs[u] - rhs[v]
    vec = rhs
    for _ in range(T):
        vec = walk.P @ vec
        total += vec[u] - vec[v]
    return float(total), T


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
