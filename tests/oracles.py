"""Dense identity oracles and the walk series, for small graphs.

Nothing in the library calls these: they are the definitions the tests
hold the matrix-free path to: the dense incidence matrix A behind
net_outflow and potential_difference; the walk series of the Green's
function, sum_t P^t (f / d), and through it the sensitivity product
sigma A^T L^+ p that SensitivityOperator.apply computes by one projection
(acceptance criterion 3); killed walks and their Green's functions
(criterion 2); the dense sensitivity matrix sigma A^T L^+; the generic
constrained form Sigma A^T (A Sigma A^T)^+; and the Gaussian
conditional-mean identities (criterion 10). Every matrix here is dense,
so keep n in the hundreds.
"""

import numpy as np

from localflow import LaplacianError, SensitivityError, pseudoinverse
from localflow.graph import _balanced, _vertex_indices
from localflow.laplacian import _weight_operator

FD_STEP = 1e-6  # boundary_sensitivity_check's central differences
# stop Green's-function series when lambda^t / (1 - lambda) drops below this,
# refusing a series that needs more than SERIES_MAX_TERMS terms to get there
SERIES_TAIL = 1e-12
SERIES_MAX_TERMS = 1_000_000


def incidence(g):
    """Dense vertex-by-edge incidence matrix: +1 at the tail, -1 at the head.
    A small-graph reference for net_outflow and potential_difference."""
    A = np.zeros((g.n_vertices, g.n_edges))
    cols = np.arange(g.n_edges)
    A[g.tails, cols] = 1.0
    A[g.heads, cols] = -1.0
    return A


def is_aperiodic(walk):
    # connected: periodic iff bipartite iff no edge joins equal depths
    g, d = walk.graph, walk.graph.bfs_distances([0])
    return bool(np.any(d[g.tails] == d[g.heads]))


def _truncation_point(lam):
    if lam >= 1.0:
        raise LaplacianError("walk decay bound %.6f is not below 1; use the "
                             "L+ form" % lam)
    if lam <= 0.0:
        return 1
    T = max(1, int(np.ceil(np.log(SERIES_TAIL * (1.0 - lam))
                           / np.log(lam))) + 1)
    if T > SERIES_MAX_TERMS:
        raise LaplacianError(
            "series needs %d terms to reach tail %.1e but max_terms is %d"
            % (T, SERIES_TAIL, SERIES_MAX_TERMS))
    return T


def green_series_apply(walk, f):
    """sum_t P^t (f / d) for a balanced vertex vector f (graph._balanced,
    else LaplacianError), truncated where the walk's certified decay bound
    puts the tail below SERIES_TAIL; each term is one bincount product.
    Used by the walk-series sensitivity formula."""
    if not is_aperiodic(walk):
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


def series_apply(op, p):
    """SensitivityOperator op's product with p through the truncated
    walk-series formula; aperiodic walks only."""
    return op.sigma * op.problem.graph.potential_difference(
        green_series_apply(op.walk, p))


class RestrictedLaplacian:
    """Laplacian of a WeightedWalk with one vertex removed; the killed
    walk's machinery.

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
    T = _truncation_point(rad)
    if T > max_terms:
        raise LaplacianError("series needs %d terms but max_terms is %d"
                             % (T, max_terms))
    G = np.eye(len(rl.dbar))
    term = np.eye(len(rl.dbar))
    for _ in range(T):
        term = term @ rl.Pbar
        G += term
    return G, T


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


def sensitivity_matrix(op):
    """The dense edges-by-vertices matrix sigma A^T L^+ of a
    SensitivityOperator, whose products op.apply computes."""
    return op.sigma[:, None] * (incidence(op.problem.graph).T
                                 @ op.walk.pinv())


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


def boundary_sensitivity_check(H, I_set, B_set):
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
        step[j] = FD_STEP
        fd[:, j] = (argmin_I(x_B + step)
                    - argmin_I(x_B - step)) / (2 * FD_STEP)
    fd_dev = float(np.abs(fd - lhs).max())
    return block_dev, fd_dev
