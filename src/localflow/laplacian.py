"""Weighted Laplacians: matrix-free solves and certified spectral norms.

The weight of an edge is the reciprocal of the cost curvature at the
current flow, so the Laplacian here is exactly the constraint-side matrix
appearing in the sensitivity operator. Products with L^+ are matrix-free
conjugate-gradient solves (laplacian_solve). Spectral norms behind the
error bounds are certified upper bounds from a Lanczos run on three
vectors, or a dense eigensolve up to LANCZOS_STEPS vertices (norm_bound);
dense matrices also serve small walk spectra and the pseudoinverse.
"""

import math
from functools import cached_property

import numpy as np

# eigenvalues below this fraction of the largest are treated as kernel
KERNEL_RTOL = 1e-12
# laplacian_solve stops at the true residual |rhs - L x|_2 < CG_RTOL |rhs|_2
CG_RTOL = 1e-14
# c of its polynomial preconditioner D^{-1} (c r - L D^{-1} r); c > 2
# keeps it positive definite, and CG's iteration count barely moves
# for c from 2.01 to 2.2
CG_SHIFT = 2.05
# norm_bound fails with probability at most SPECTRAL_DELTA over its random
# start, after at most LANCZOS_STEPS steps
SPECTRAL_DELTA = 1e-6
LANCZOS_STEPS = 120


class LaplacianError(ValueError):
    """Invalid walk construction or unsupported spectral request."""


class WeightedWalk:
    """Symmetric edge weights with the derived degree vector and
    Laplacian; the dense n x n W and L are built on first access. W, L
    and pinv() stay because the benchmark tracer reaches them by name."""

    def __init__(self, graph, weights):
        self.graph = graph
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (graph.n_edges,):
            raise LaplacianError("need one weight per edge")
        if not np.all(np.isfinite(self.weights) & (self.weights > 0)):
            raise LaplacianError("edge weights must be finite and positive")
        self.d = _weighted_degrees(graph, self.weights)

    @cached_property
    def W(self):
        W, g = np.zeros((self.n, self.n)), self.graph
        W[g.tails, g.heads] = W[g.heads, g.tails] = self.weights
        return W

    L = cached_property(lambda self: np.diag(self.d) - self.W)

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


class Spectrum:
    """Eigenvalues of the transition matrix, sorted descending, and the
    second largest eigenvalue in magnitude. The benchmark tracer patches
    it by name."""

    def __init__(self, walk):
        # P is similar to the symmetric D^{-1/2} W D^{-1/2}
        s = np.sqrt(walk.d)
        self.eigenvalues = np.linalg.eigvalsh(walk.W / np.outer(s, s))[::-1]
        if abs(self.eigenvalues[0] - 1.0) > 1e-10:
            raise LaplacianError("leading walk eigenvalue is not 1")
        # the descending tail's largest magnitude is at one of its ends
        self.lam = float(np.abs(self.eigenvalues[1:]).max(initial=0.0))


class NormBound(float):
    """An upper bound on a spectral norm, as a float, with the record of
    the run behind it: `spectral` holds the method ("dense" where no
    Lanczos step ran), the steps, the failure probability delta, the Ritz
    estimate (at most the norm, up to round-off) and the bound."""

    def __new__(cls, bound, ritz, steps, delta):
        self = super().__new__(cls, bound)
        self.spectral = {"method": "lanczos" if steps else "dense",
                         "steps": steps, "delta": delta, "ritz": ritz,
                         "bound": float(bound)}
        return self


def norm_bound(graph, weights, scale, deflate):
    """Upper bound on ||B||_2 for B = S W S - v v^T, where W is the
    symmetric matrix of the edge weights, S = diag(scale) and v = deflate,
    as a NormBound. It adds 16 k ulps of s = max_i (S W S 1)_i + |v|^2
    >= ||B||, the scale of the round-off in the products and eigensolves.

    Where n <= LANCZOS_STEPS it is the largest |eigenvalue| of the dense B
    (k = n; method "dense", 0 steps, delta 0). Else bincount products
    apply B, and Lanczos with no reorthogonalisation runs k steps on B^2,
    k <= LANCZOS_STEPS, on three vectors from a Gaussian start of fixed
    seed. Its top Ritz value theta gives ||B||^2 <= theta / (1 - e),
    e = (ln(1.648 sqrt(n) / delta) / (2k - 1))^2, with probability at
    least 1 - delta = 1 - SPECTRAL_DELTA over the start (Kuczynski &
    Wozniakowski, SIAM J. Matrix Anal. Appl. 13(4), 1992). Lost
    orthogonality only repeats converged Ritz values (Paige, Linear
    Algebra Appl. 34, 1980), and the computed tridiagonal is exact
    Lanczos's on a matrix whose eigenvalues lie in tiny intervals about
    those of B^2 (Greenbaum, Linear Algebra Appl. 113, 1989), so the tail
    bound prices theta as it prices exact Lanczos. A residual at round-off
    level marks an invariant Krylov space, where theta is exact, delta 0.
    """
    n, ulp = graph.n_vertices, np.finfo(float).eps
    sws = _weight_operator(graph, weights, scale)
    s = sws(np.ones(n)).max(initial=0.0) + deflate @ deflate
    if n <= LANCZOS_STEPS:
        B = scale[:, None] * WeightedWalk(graph, weights).W * scale
        norm = float(np.abs(np.linalg.eigvalsh(
            B - np.outer(deflate, deflate))).max(initial=0.0))
        return NormBound(norm + 16.0 * n * ulp * s, norm, 0, 0.0)

    def apply(x):
        return sws(x) - deflate * (deflate @ x)

    q = np.random.default_rng(0).standard_normal(n)
    q, q_prev, alpha, beta = q / np.sqrt(q @ q), None, [], []
    for k in range(1, LANCZOS_STEPS + 1):
        # the three-term recurrence, q_prev out before alpha (Paige's order)
        r = apply(apply(q))
        if beta:
            r -= beta[-1] * q_prev
        alpha.append(q @ r)
        r -= alpha[-1] * q
        res = np.sqrt(r @ r)
        # a residual at round-off level: the Krylov space is invariant
        exhausted = res <= 16.0 * np.sqrt(n) * ulp * s * s
        if exhausted or k == LANCZOS_STEPS:
            break
        beta.append(res)
        q_prev, q = q, r / res
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


def _weight_operator(graph, weights, scale, diagonal=None):
    """y -> S W S y (+ diagonal * y), one gather and one bincount, for the
    symmetric matrix W of the edge weights and S = diag(scale)."""
    n = graph.n_vertices
    rows = np.concatenate((graph.tails, graph.heads))
    cols = np.concatenate((graph.heads, graph.tails))
    coef = scale[rows] * np.tile(np.asarray(weights, dtype=float), 2) \
        * scale[cols]
    if diagonal is not None:
        rows, cols = (np.concatenate((a, np.arange(n))) for a in (rows, cols))
        coef = np.concatenate((coef, diagonal))

    def apply(y):
        prod = y.take(cols)
        prod *= coef
        return np.bincount(rows, prod, n)

    return apply


def pseudoinverse(L):
    """Moore-Penrose pseudoinverse via eigendecomposition with a
    scale-invariant kernel cutoff: the dense small-n reference, whose
    calls the benchmark tracer counts by this name."""
    vals, vecs = np.linalg.eigh(L)
    cutoff = KERNEL_RTOL * max(vals.max(), 1.0)
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def _weighted_degrees(graph, w):
    return np.bincount(np.concatenate((graph.tails, graph.heads)),
                       np.concatenate((w, w)), graph.n_vertices)


def _centred(v):
    """v less its mean, again while the computed mean exceeds the
    round-off of pairwise summation, (2 b + 1) ulps of |v|_inf for n of
    bit length b. A centred vector comes back as it is: a fixed point."""
    tol = (2 * len(v).bit_length() + 1) * np.finfo(float).eps
    for _ in range(3):
        m = v.mean()
        if abs(m) <= tol * np.abs(v).max():
            break
        v = v - m
    return v


def laplacian_solve(graph, weights, rhs, x0=None, stats=None):
    """L_w^+ rhs by preconditioned conjugate gradients on the mean-zero
    subspace (the mean of rhs is in the kernel and dropped).

    The preconditioner is the degree-one polynomial
    z = D^{-1} (c r - L D^{-1} r), with D the weighted degrees and
    c = CG_SHIFT (Johnson, Micchelli & Paul, SIAM J. Numer. Anal. 20,
    1983; Saad, Iterative Methods for Sparse Linear Systems, 2nd ed.,
    section 12.3). In the normalised Laplacian N = D^{-1/2} L D^{-1/2}
    it is c I - N. N's spectrum lies in [0, 2], so any c > 2 makes it
    positive definite on every graph and weight vector. It maps an
    eigenvalue t of N to t (c - t), folding the top of the spectrum
    onto the bottom: CG needs about half the iterations of Jacobi's
    D^{-1}, for one more Laplacian product each. Where it does not reach
    the rule (weights spread over many decades can stall it), CG runs
    again from the same start with D^{-1}.

    CG starts from x0 (zeros when None), centred; a start whose residual
    exceeds |rhs|_2 is worse than zeros and is replaced by them. The
    stopping rule is absolute whatever the start: the true residual
    |rhs - L x|_2 < CG_RTOL |rhs|_2 for the mean-zero rhs. CG's
    recurrence residual says when to look. When it meets the rule, the
    true residual replaces it (residual replacement: van der Vorst & Ye,
    SIAM J. Sci. Comput. 22, 2000), and CG goes on while that is above
    the rule and still falling. Once the recurrence has met the rule
    nothing raises: a true residual that stops falling, a breakdown or
    the iteration cap returns the point of least true residual. The
    answer is a fixed point of the centring a start gets, so a warm
    start from it computes the residual the solve computed for it, and
    takes no iteration when that met the rule. rhs = 0 returns zeros.

    A stats dict gets the iteration count `cg_iterations`. When CG
    iterated it also gets `cg_residual`, the answer's true relative
    residual |rhs - L x|_2 / |rhs|_2 (rhs less its mean); a solve that
    takes no iteration returns its start, or zeros, and reports the
    count alone.

    Raises LaplacianError on non-finite input (x0 included) or a
    nonpositive weight, and when CG breaks down (p^T L p not positive and
    finite) or does not reach the rule within 10 n + 100 iterations,
    before its recurrence residual has first met it, with either
    preconditioner.
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

    def lap(y):
        flow = graph.potential_difference(y)
        flow *= w
        return graph.net_outflow(flow)

    # an exact power-of-two scaling keeps r @ r from over- and underflow;
    # centring a nearly constant rhs takes two passes, where the first
    # cancels to a residual whose round-off mean no CG step reduces
    e = np.frexp(np.abs(r).max())[1]
    b = _centred(np.ldexp(r, -e))
    x, r, scale = np.zeros_like(b), b, np.sqrt(b @ b)
    if x0 is not None and scale > 0.0:
        # a start far above the answer's scale overflows to a rejected NaN
        with np.errstate(over="ignore", invalid="ignore"):
            start = _centred(np.ldexp(x0, -e))
            r0 = b - lap(start)
            if np.sqrt(r0 @ r0) <= scale:
                x, r = start, r0
    inv_d = 1.0 / _weighted_degrees(graph, w)
    # D^{-1} (c r - L D^{-1} r) = (D^{-1} W D^{-1} + (c - 1) D^{-1}) r
    polynomial = _weight_operator(graph, w, inv_d, (CG_SHIFT - 1.0) * inv_d)
    cap, k = 10 * graph.n_vertices + 100, 0
    for precondition in (polynomial, lambda r: inv_d * r):
        steps, best, res = _cg(lap, b, x, r, precondition,
                               CG_RTOL * scale, cap)
        k += steps
        if best is not None:
            break
    else:
        raise LaplacianError("conjugate gradients broke down or stalled at "
                             "relative residual %.3e" % (res / scale))
    if stats is not None:
        stats["cg_iterations"] = k
        if k:
            stats["cg_residual"] = float(best[0] / scale)
    return np.ldexp(best[1], e)


def _cg(lap, b, x, r, precondition, rule, cap):
    """laplacian_solve's preconditioned CG for lap(x) = b from x, whose
    residual is r: the steps taken, the (true residual, centred point) of
    least true residual once the recurrence has met the rule (else None),
    and the last recurrence residual."""
    best, k, x, r = None, 0, x.copy(), r.copy()
    z = p = precondition(r)
    rz = r @ z
    while k < cap:
        res = math.sqrt(r @ r)
        if res < rule or res == 0.0:
            x = _centred(x)
            r = b - lap(x)
            res = math.sqrt(r @ r)
            if best is not None and res >= best[0]:  # stopped falling
                break
            best = res, x.copy()
            if res < rule or res == 0.0:
                break
            z = p = precondition(r)
            rz = r @ z
            continue
        if not math.isfinite(res):
            break
        Lp = lap(p)
        pLp = p @ Lp
        if not 0.0 < pLp < np.inf:  # breakdown
            break
        alpha = rz / pLp
        x += alpha * p
        r -= alpha * Lp
        z = precondition(r)
        rz, rz_old = r @ z, rz
        p *= rz / rz_old
        p += z
        k += 1
    return k, best, res
