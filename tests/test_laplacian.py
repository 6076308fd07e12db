import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localflow import (LaplacianError, WeightedWalk, generate,
                       laplacian_solve, pseudoinverse, sensitivity_operator)
from conftest import path, quadratic_problem, random_connected_graph, triangle
from oracles import (SERIES_MAX_TERMS, RestrictedLaplacian, _truncation_point,
                     green_difference, green_series_apply, is_aperiodic,
                     killed_green, killed_green_series, restricted_vs_full,
                     series_apply)


def unit_walk(g):
    return WeightedWalk(g, np.ones(g.n_edges))


def transition(walk):
    return walk.W / walk.d[:, None]


def stationary(walk):
    return walk.d / walk.d.sum()


def test_unit_weights_give_adjacency():
    g = triangle()
    walk = unit_walk(g)
    assert np.array_equal(walk.W, np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(walk.d, np.full(3, 2.0))
    assert np.allclose(stationary(walk), np.full(3, 1.0 / 3))


def test_transition_matrix_invariant_under_weight_scaling():
    g = path(4)
    w1 = unit_walk(g)
    w2 = WeightedWalk(g, np.full(g.n_edges, 0.5))
    assert np.allclose(transition(w1), transition(w2))


def test_walk_basic_identities(rng):
    g = random_connected_graph(rng, 20, extra_edges=10)
    walk = WeightedWalk(g, rng.uniform(0.3, 2.0, g.n_edges))
    assert np.abs(walk.L @ np.ones(walk.n)).max() < 1e-12
    P, pi = transition(walk), stationary(walk)
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(pi @ P - pi).max() < 1e-12


def test_rejects_nonpositive_weight():
    g = path(3)
    with pytest.raises(LaplacianError, match="positive"):
        WeightedWalk(g, np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_weight(bad):
    # refused up front, before the stationary distribution or the Lanczos
    # bound meets it
    with pytest.raises(LaplacianError,
                       match="edge weights must be finite and positive"):
        WeightedWalk(path(3), np.array([1.0, bad]))


def test_pinv_two_path():
    Lp = unit_walk(path(2)).pinv()
    assert np.allclose(Lp, np.array([[0.25, -0.25], [-0.25, 0.25]]),
                       atol=1e-12)


def test_pinv_triangle():
    walk = unit_walk(triangle())
    Lp = walk.pinv()
    target = (3.0 * np.eye(3) - np.ones((3, 3))) / 9.0
    assert np.allclose(Lp, target, atol=1e-12)
    assert np.allclose(walk.L @ Lp @ walk.L, walk.L, atol=1e-10)


def test_pinv_moore_penrose_and_kernel(rng):
    for _ in range(10):
        g = random_connected_graph(rng, 15, extra_edges=6)
        walk = WeightedWalk(g, rng.uniform(0.2, 3.0, g.n_edges))
        L, Lp = walk.L, walk.pinv()
        assert np.abs(L @ Lp @ L - L).max() < 1e-9
        assert np.abs(Lp @ L @ Lp - Lp).max() < 1e-9
        assert np.abs((L @ Lp) - (L @ Lp).T).max() < 1e-9
        assert np.abs((Lp @ L) - (Lp @ L).T).max() < 1e-9
        assert np.linalg.norm(Lp @ np.ones(walk.n)) < 1e-10


def test_spectrum_descending_leading_one(rng):
    g = random_connected_graph(rng, 12, extra_edges=8)
    walk = WeightedWalk(g, rng.uniform(0.5, 1.5, g.n_edges))
    spec = walk.spectrum()
    assert abs(spec.eigenvalues[0] - 1.0) < 1e-10
    assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
    assert spec.eigenvalues[1] < 1.0
    assert 0.0 <= spec.lam < 1.0 or np.isclose(spec.lam, 1.0)


def test_bipartite_walk_is_periodic():
    assert not is_aperiodic(unit_walk(path(4)))
    assert is_aperiodic(unit_walk(triangle()))
    # an odd cycle is aperiodic however light one of its edges
    assert is_aperiodic(WeightedWalk(triangle(), [1.0, 1.0, 1e-11]))


def test_killed_inverse_path_three():
    rl = RestrictedLaplacian(unit_walk(path(3)), "3")
    assert np.allclose(rl.Lbar_inv, np.array([[2.0, 1.0], [1.0, 1.0]]),
                       atol=1e-12)


def test_killed_green_equals_inverse_times_degrees():
    rl = RestrictedLaplacian(unit_walk(path(3)), "3")
    G = killed_green(rl)
    assert np.allclose(G, rl.Lbar_inv * rl.dbar[None, :], atol=1e-14)


def test_killed_green_series_agreement(rng):
    for _ in range(5):
        g = random_connected_graph(rng, 10, extra_edges=5)
        walk = WeightedWalk(g, rng.uniform(0.3, 2.0, g.n_edges))
        rl = RestrictedLaplacian(walk, int(rng.integers(0, walk.n)))
        G = killed_green(rl)
        G_series, T = killed_green_series(rl)
        assert T >= 1
        assert np.abs(G - G_series).max() < 1e-8


def _simulate_walk_visits(P, start, target, kill, rng, n_walks):
    """Monte Carlo visits to `target` before hitting `kill`, and hit flags."""
    n = P.shape[0]
    cdf = np.cumsum(P, axis=1)
    visits = np.zeros(n_walks)
    hit = np.zeros(n_walks, dtype=bool)
    for i in range(n_walks):
        v = start
        for _ in range(10_000):
            if v == kill:
                break
            if v == target:
                visits[i] += 1
                hit[i] = True
            u = rng.random()
            v = int(np.searchsorted(cdf[v], u))
        else:
            raise RuntimeError("walk did not absorb")
    return visits, hit


def test_killed_inverse_monte_carlo_visits():
    # L^-1_ww = (1/d_w) E_w[number of visits to w before absorption]
    walk = unit_walk(path(3))
    rng = np.random.default_rng(99)
    visits, _ = _simulate_walk_visits(transition(walk), 0, 0, 2, rng, 100_000)
    mean = visits.mean()
    stderr = visits.std(ddof=1) / np.sqrt(len(visits))
    expected = walk.d[0] * 2.0  # d_1 * Lbar^{-1}_11 = 1 * 2
    assert abs(mean - expected) <= 3 * stderr + 1e-12


def test_killed_inverse_monte_carlo_hitting_probability():
    # Lbar^{-1}_12 = Lbar^{-1}_22 * P_1(T_2 < T_3); from vertex 1 the walk
    # cannot reach the cemetery without stepping through 2, so the
    # probability is exactly 1
    walk = unit_walk(path(3))
    rng = np.random.default_rng(7)
    _, hit = _simulate_walk_visits(transition(walk), 0, 1, 2, rng, 20_000)
    assert hit.all()
    rl = RestrictedLaplacian(walk, 2)
    assert rl.Lbar_inv[0, 1] == pytest.approx(rl.Lbar_inv[1, 1] * 1.0)


def test_killed_inverse_hitting_probability_identity(rng):
    # same identity on a random instance, with the probability computed by
    # absorbing-chain linear algebra instead of simulation
    g = random_connected_graph(rng, 8, extra_edges=4)
    walk = WeightedWalk(g, rng.uniform(0.4, 1.6, g.n_edges))
    kill = 0
    rl = RestrictedLaplacian(walk, kill)
    P = transition(walk)
    for w_pos, w in enumerate(rl.kept):
        # hit probability h with h[w]=1, h[kill]=0, harmonic elsewhere
        n = walk.n
        free = [v for v in range(n) if v not in (w, kill)]
        A = np.eye(len(free)) - P[np.ix_(free, free)]
        bvec = P[free, w]
        h_free = np.linalg.solve(A, bvec)
        h = np.zeros(n)
        h[w] = 1.0
        h[free] = h_free
        for v_pos, v in enumerate(rl.kept):
            assert rl.Lbar_inv[v_pos, w_pos] == pytest.approx(
                rl.Lbar_inv[w_pos, w_pos] * h[v], abs=1e-9)


def test_restricted_vs_full_small_cases(rng):
    for g in (path(3), triangle()):
        walk = unit_walk(g)
        Lp = walk.pinv()
        for kill in range(walk.n):
            rl = RestrictedLaplacian(walk, kill)
            assert restricted_vs_full(rl, Lp) < 1e-10


def test_restricted_vs_full_two_path():
    walk = unit_walk(path(2))
    rl = RestrictedLaplacian(walk, 1)
    assert np.allclose(rl.Lbar_inv, [[1.0]], atol=1e-12)
    Lp = walk.pinv()
    e = np.array([1.0, -1.0])
    assert e @ Lp @ e == pytest.approx(1.0)


def test_restricted_vs_full_random_sweep():
    # 50 seeded weighted graphs, every kill vertex
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(5, 31))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 10)))
        walk = WeightedWalk(g, rng.uniform(0.2, 2.5, g.n_edges))
        Lp = walk.pinv()
        for kill in range(walk.n):
            rl = RestrictedLaplacian(walk, kill)
            assert restricted_vs_full(rl, Lp) < 1e-9


def test_green_difference_triangle():
    walk = unit_walk(triangle())
    val = green_difference(walk, "1", "2", "1", "2")
    assert val == pytest.approx(2.0 / 3.0, abs=1e-12)
    series_val, T = green_difference(walk, "1", "2", "1", "2", form="series")
    assert series_val == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert T >= 1


def test_green_difference_zero_vector():
    walk = unit_walk(triangle())
    assert green_difference(walk, "1", "1", "2", "3") == 0.0


def test_green_difference_two_path_resistance():
    walk = unit_walk(path(2))
    assert green_difference(walk, "1", "2", "1", "2") == pytest.approx(1.0)


def test_green_series_rejects_periodic():
    walk = unit_walk(path(4))
    with pytest.raises(LaplacianError, match="series not absolutely summable"):
        green_difference(walk, "1", "2", "1", "2", form="series")


def test_green_difference_forms_agree_random(rng):
    count = 0
    while count < 8:
        g = random_connected_graph(rng, 12, extra_edges=8)
        walk = WeightedWalk(g, rng.uniform(0.4, 1.8, g.n_edges))
        if not is_aperiodic(walk):
            continue
        count += 1
        u, v, w, z = rng.choice(walk.n, size=4, replace=False)
        exact = green_difference(walk, u, v, w, z)
        series, _ = green_difference(walk, u, v, w, z, form="series")
        assert series == pytest.approx(exact, abs=1e-8)


def test_green_series_apply_matches_pinv(rng):
    # (e_u - e_v)^T L^+ f recovered by summing the walk series
    count = 0
    while count < 5:
        g = random_connected_graph(rng, 10, extra_edges=6)
        walk = WeightedWalk(g, rng.uniform(0.5, 1.5, g.n_edges))
        if not is_aperiodic(walk):
            continue
        count += 1
        f = rng.standard_normal(walk.n)
        f -= f.mean()
        via_series = green_series_apply(walk, f)
        via_pinv = walk.pinv() @ f
        diff = via_series - via_pinv
        # both representatives can differ by a constant vector only
        diff -= diff.mean()
        assert np.abs(diff).max() < 1e-8


def test_green_series_apply_rejects_unbalanced():
    walk = unit_walk(triangle())
    with pytest.raises(LaplacianError, match="balanced"):
        green_series_apply(walk, np.array([1.0, 0.0, 0.0]))


def test_killed_green_series_refuses_clamped_truncation(rng):
    g = random_connected_graph(rng, 10, extra_edges=5)
    rl = RestrictedLaplacian(unit_walk(g), 0)
    with pytest.raises(LaplacianError, match="max_terms"):
        killed_green_series(rl, max_terms=1)


def test_truncation_point_refuses_past_the_series_cap():
    with pytest.raises(LaplacianError,
                       match="max_terms is %d" % SERIES_MAX_TERMS):
        _truncation_point(1.0 - 1e-9)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["path", "tree", "expander"]),
       n=st.integers(2, 40), seed=st.integers(0, 10_000),
       log10_ratio=st.floats(0.0, 3.0),
       rhs_kind=st.sampled_from(["balanced", "unbalanced", "zero"]))
# a nearly constant rhs: its mean removal cancels to a residual whose
# round-off kernel component once stalled CG
@example(kind="path", n=2, seed=2497, log10_ratio=0.0, rhs_kind="unbalanced")
def test_laplacian_solve_matches_pinv(kind, n, seed, log10_ratio, rhs_kind):
    rng = np.random.default_rng(seed)
    if kind == "path":
        g = path(n)
    elif kind == "tree":
        g = random_connected_graph(rng, max(n, 3), extra_edges=n // 4)
    else:
        g = generate("random-k-regular", n=2 * max(n // 2, 4), k=3,
                     seed=seed)
    # weights spread over a factor of up to 10^log10_ratio
    w = 10.0 ** rng.uniform(0.0, log10_ratio, g.n_edges)
    rhs = rng.standard_normal(g.n_vertices)
    if rhs_kind == "balanced":
        rhs -= rhs.mean()
    elif rhs_kind == "zero":
        rhs[:] = 0.0
    want = pseudoinverse(WeightedWalk(g, w).L) @ rhs
    got = laplacian_solve(g, w, rhs)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def _exact_path_solve(w, rhs):
    """L_w^+ rhs on the path 1 - 2 - ... in rational arithmetic: the edge
    flows are the prefix sums of the projected rhs, each potential step is
    flow / weight, and the potential is shifted to mean zero."""
    r = [Fraction(v) for v in rhs]
    mean = sum(r) / len(r)
    flow, x = Fraction(0), [Fraction(0)]
    for rv, wv in zip(r, w):
        flow += rv - mean
        x.append(x[-1] - flow / Fraction(wv))
    shift = sum(x) / len(x)
    return np.array([float(v - shift) for v in x])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_laplacian_solve_matches_exact_path_solve(seed):
    """A 28-vertex path with one weight 1e-3 against the exact rational
    solution; the dense pseudoinverse is off by about 1e-11 here."""
    rng = np.random.default_rng(seed)
    g = path(28)
    w = np.ones(g.n_edges)
    w[rng.integers(g.n_edges)] = 1e-3
    rhs = rng.standard_normal(g.n_vertices)
    want = _exact_path_solve(w, rhs)
    got = laplacian_solve(g, w, rhs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_laplacian_solve_rejects_non_finite_rhs(bad):
    g = path(4)
    rhs = np.array([1.0, bad, 0.0, -1.0])
    with pytest.raises(LaplacianError, match="finite"):
        laplacian_solve(g, np.ones(g.n_edges), rhs)


def test_laplacian_solve_breakdown_is_a_laplacian_error():
    # weights of 1e308 overflow the weighted degrees to inf, so the Jacobi
    # preconditioner zeroes every direction and p^T L p = 0 at once: a
    # breakdown by construction, refused with no floating-point warning
    g = generate("cycle", n=5)
    rhs = np.zeros(5)
    rhs[0], rhs[1] = 1.0, -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LaplacianError, match="broke down"):
            laplacian_solve(g, np.full(g.n_edges, 1e308), rhs)


def _start(kind, want, rng):
    n = len(want)
    return {"zeros": np.zeros(n),
            "exact": want,
            "noisy": want + 1e-3 * np.abs(want).max()
            * rng.standard_normal(n),
            "random": rng.standard_normal(n),
            "mean": want + 7.0,
            "huge": 1e150 * rng.uniform(1.0, 2.0, n)}[kind]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 10_000),
       log10_ratio=st.floats(0.0, 2.0),
       start=st.sampled_from(["zeros", "exact", "noisy", "random", "mean",
                              "huge"]))
def test_laplacian_solve_from_any_start(n, seed, log10_ratio, start):
    """The answer and its true residual do not depend on the start: CG
    stops on the absolute residual, and a start worse than zeros is
    dropped."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, max(n, 3), extra_edges=n // 2)
    w = 10.0 ** rng.uniform(0.0, log10_ratio, g.n_edges)
    rhs = rng.standard_normal(g.n_vertices)
    rhs -= rhs.mean()
    L = WeightedWalk(g, w).L
    want = pseudoinverse(L) @ rhs
    got = laplacian_solve(g, w, rhs, x0=_start(start, want, rng))
    assert np.linalg.norm(rhs - L @ got) <= 1e-12 * np.linalg.norm(rhs)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("seed", range(5))
def test_laplacian_solve_zero_start_is_the_cold_start(seed):
    rng = np.random.default_rng(seed)
    g = generate("random-k-regular", n=60, k=3, seed=seed)
    w = rng.uniform(0.5, 2.0, g.n_edges)
    rhs = 10.0 ** rng.uniform(-5, 5) * rng.standard_normal(g.n_vertices)
    cold, warm = {}, {}
    want = laplacian_solve(g, w, rhs, stats=cold)
    got = laplacian_solve(g, w, rhs, x0=np.zeros(g.n_vertices), stats=warm)
    assert np.array_equal(got, want) and cold == warm
    assert cold["cg_iterations"] > 0


def test_laplacian_solve_from_its_answer_takes_no_iteration(rng):
    g = generate("random-k-regular", n=200, k=3, seed=2)
    w = rng.uniform(0.5, 2.0, g.n_edges)
    rhs = rng.standard_normal(g.n_vertices)
    stats = {}
    laplacian_solve(g, w, rhs, x0=laplacian_solve(g, w, rhs), stats=stats)
    assert stats == {"cg_iterations": 0}


def test_laplacian_solve_zero_rhs_ignores_the_start(rng):
    g = random_connected_graph(rng, 12, extra_edges=6)
    stats = {}
    got = laplacian_solve(g, np.ones(g.n_edges), np.zeros(g.n_vertices),
                          x0=rng.standard_normal(g.n_vertices), stats=stats)
    assert np.array_equal(got, np.zeros(g.n_vertices))
    assert stats == {"cg_iterations": 0}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_laplacian_solve_rejects_non_finite_start(bad):
    g = path(4)
    x0 = np.array([0.0, bad, 1.0, 2.0])
    with pytest.raises(LaplacianError, match="finite start"):
        laplacian_solve(g, np.ones(g.n_edges), np.array([1.0, 0, 0, -1]),
                        x0=x0)


@pytest.mark.parametrize("f, message", [
    (np.array([1.0, np.nan, -1.0]), "not finite"),
    (np.array([np.inf, 0.0, -np.inf]), "not finite"),
    (np.array([1.0, -1.0]), "wrong dimension")])
def test_series_forms_reject_non_finite_or_wrong_length_input(f, message):
    g = triangle()
    walk = unit_walk(g)
    op = sensitivity_operator(quadratic_problem(g, np.zeros(3)))
    for apply in (lambda v: green_series_apply(walk, v),
                  lambda v: series_apply(op, v)):
        with pytest.raises(LaplacianError, match=message):
            apply(f)
