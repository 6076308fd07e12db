import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localflow import (CostError, EdgeCost, FlowProblem, LocalizedSolver,
                       ObjectiveBundle, PerturbationSpec, SolverError,
                       SubgraphSpec, ball_subgraph, generate, pgd_run,
                       pgd_step, pseudoinverse, solve_exact,
                       warm_start_reoptimize)
from conftest import (logcosh_bundle, path, quadratic_problem,
                      random_balanced, random_connected_graph, traced_peak_mb,
                      triangle)
from oracles import incidence


def feasible_point(problem, rng=None):
    A = incidence(problem.graph)
    x = A.T @ (pseudoinverse(A @ A.T) @ problem.b)
    if rng is not None:
        null = np.eye(problem.graph.n_edges) \
            - A.T @ (pseudoinverse(A @ A.T) @ A)
        x = x + null @ rng.standard_normal(problem.graph.n_edges)
    return x


def quadratic_bundle(rng, n_edges):
    """Quadratic costs with curvatures a ~ U[0.5, 2] and linear terms
    c ~ N(0, 1)."""
    return ObjectiveBundle.from_arrays("quadratic",
                                       a=rng.uniform(0.5, 2.0, n_edges),
                                       c=rng.standard_normal(n_edges))


def bundle_of(kind, rng, n_edges):
    """Random costs of one kind with unequal curvatures; a quartic's
    interval [-20, 20] holds the flows of the tests' unit-scale demands."""
    if kind == "quadratic":
        return quadratic_bundle(rng, n_edges)
    if kind == "quartic":
        return ObjectiveBundle.from_arrays(
            "quartic", a=rng.uniform(0.5, 2.0, n_edges),
            q=rng.uniform(0.01, 0.3, n_edges), radius=20.0)
    return logcosh_bundle(rng, n_edges)


KINDS = ["quadratic", "quartic", "log-cosh"]


def test_pgd_isotropic_quadratic_one_step(rng):
    g = random_connected_graph(rng, 10, extra_edges=6)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices))
    x0 = feasible_point(problem, rng)
    x1 = pgd_step(problem, x0)
    assert np.allclose(x1, solve_exact(problem), atol=1e-9)


def test_pgd_fixed_point():
    problem = quadratic_problem(triangle(), np.array([1.0, -1.0, 0.0]))
    x_star = solve_exact(problem)
    assert np.allclose(pgd_step(problem, x_star), x_star, atol=1e-12)


def test_pgd_rejects_infeasible():
    problem = quadratic_problem(path(2), np.array([1.0, -1.0]))
    with pytest.raises(SolverError, match="infeasible"):
        pgd_step(problem, np.array([5.0]))


def test_pgd_rate_bound_logcosh():
    g = triangle()
    rng = np.random.default_rng(8)
    problem = FlowProblem(g, logcosh_bundle(rng, 3),
                          np.array([1.0, -0.3, -0.7]))
    x_star = solve_exact(problem)
    Q = problem.bundle.Q
    x = feasible_point(problem, rng)
    err0 = np.linalg.norm(x - x_star)
    for t in range(1, 201):
        x = pgd_step(problem, x)
        bound = np.exp(-t / (2.0 * Q)) * err0
        assert np.linalg.norm(x - x_star) <= bound + 1e-12


def test_pgd_run_converges(rng):
    g = random_connected_graph(rng, 12, extra_edges=6)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices))
    x, trace = pgd_run(problem, feasible_point(problem, rng), tol=1e-11,
                       trace=True)
    assert np.allclose(x, solve_exact(problem), atol=1e-8)
    assert trace[-1] <= trace[0]


def test_pgd_config_validation():
    problem = quadratic_problem(triangle(), np.array([1.0, -1.0, 0.0]))
    with pytest.raises(SolverError, match="tolerance"):
        pgd_run(problem, solve_exact(problem), tol=0.0)


def test_localized_whole_graph_matches_pgd(rng):
    g = random_connected_graph(rng, 10, extra_edges=5)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices))
    sub = SubgraphSpec(g, range(g.n_vertices))
    x = feasible_point(problem, rng)
    full = pgd_step(problem, x)
    local = LocalizedSolver(problem, sub).step(x, problem.b)
    assert np.allclose(full, local, atol=1e-9)


def test_localized_freezes_complement(rng):
    g = random_connected_graph(rng, 14, extra_edges=8)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices))
    sub = ball_subgraph(g, "v0", 2)
    if sub.is_whole_graph or not len(sub.e_in):
        pytest.skip("degenerate ball for this seed")
    x = solve_exact(problem)
    stepped = LocalizedSolver(problem, sub).step(x, problem.b)
    outside = np.setdiff1d(np.arange(g.n_edges), sub.e_in)
    assert np.array_equal(stepped[outside], x[outside])


def test_localized_boundary_violation_detected(rng):
    g = random_connected_graph(rng, 14, extra_edges=8)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices))
    sub = ball_subgraph(g, "v0", 1)
    if sub.is_whole_graph or not len(sub.e_in):
        pytest.skip("degenerate ball for this seed")
    x = solve_exact(problem)
    bad = x.copy()
    bad[np.setdiff1d(np.arange(g.n_edges), sub.e_in)[0]] += 1.0
    with pytest.raises(SolverError, match="boundary"):
        LocalizedSolver(problem, sub).step(bad, problem.b)


def test_localized_limit_is_restricted_solve(rng):
    g = random_connected_graph(rng, 16, extra_edges=10)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices))
    sub = ball_subgraph(g, "v0", 2)
    if sub.is_whole_graph or not len(sub.e_in):
        pytest.skip("degenerate ball for this seed")
    x_star = solve_exact(problem)
    p = np.zeros(g.n_vertices)
    inside = [v for v in sub.v_in if v != sub.v_in[0]]
    p[sub.v_in[0]] = 1.0
    p[inside[0]] = -1.0
    b_target = problem.b + p
    local = LocalizedSolver(problem, sub)
    limit = local.restricted_optimum(x_star, b_target)
    # iterate long enough per the contraction rate to reach 1e-8
    t = int(np.ceil(2 * problem.bundle.Q * np.log(1e10)))
    iterate = local.run(x_star.copy(), b_target, t)
    assert np.abs(iterate - limit).max() < 1e-8


def test_localized_error_contraction_monotone(rng):
    g = random_connected_graph(rng, 12, extra_edges=8)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices), a=2.0)
    sub = ball_subgraph(g, "v1", 2)
    if sub.is_whole_graph or not len(sub.e_in):
        pytest.skip("degenerate ball for this seed")
    x_star = solve_exact(problem)
    local = LocalizedSolver(problem, sub)
    limit = local.restricted_optimum(x_star, problem.b)
    errors = []
    x = x_star.copy()
    for _ in range(30):
        x = local.step(x, problem.b)
        errors.append(np.linalg.norm(x - limit))
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))


def test_warm_start_zero_perturbation():
    g = triangle()
    problem = quadratic_problem(g, np.array([1.0, -1.0, 0.0]))
    pert = PerturbationSpec(g, np.zeros(3))
    x_star = solve_exact(problem)
    for sub in (SubgraphSpec(g, range(3)), ball_subgraph(g, "1", 0)):
        out = warm_start_reoptimize(problem, pert, sub, t=17, x_star=x_star)
        assert np.allclose(out, x_star, atol=1e-10)


def test_warm_start_refuses_a_foreign_subgraph_whatever_p():
    g, other = generate("cycle", n=6), generate("cycle", n=6)
    problem = quadratic_problem(g, np.zeros(6))
    x_star = solve_exact(problem)
    p = np.zeros(6)
    p[0], p[1] = 1.0, -1.0
    for pert in (PerturbationSpec(g, np.zeros(6)), PerturbationSpec(g, p)):
        with pytest.raises(SolverError, match="does not belong"):
            warm_start_reoptimize(problem, pert, ball_subgraph(other, 0, 2),
                                  t=3, x_star=x_star)
    # the problem graph's own one-vertex ball is the edgeless no-op
    out = warm_start_reoptimize(problem, PerturbationSpec(g, np.zeros(6)),
                                ball_subgraph(g, 0, 0), t=3, x_star=x_star)
    assert np.array_equal(out, x_star) and out is not x_star


def test_warm_start_whole_graph_converges(rng):
    g = random_connected_graph(rng, 12, extra_edges=8)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices))
    pert = PerturbationSpec(g, random_balanced(rng, g.n_vertices, 0.5))
    sub = SubgraphSpec(g, range(g.n_vertices))
    t = int(np.ceil(2 * problem.bundle.Q * np.log(1e12)))
    out = warm_start_reoptimize(problem, pert, sub, t)
    target = solve_exact(problem.with_b(problem.b + pert.p))
    assert np.abs(out - target).max() < 1e-8


def test_warm_start_quadratic_one_step_exact(rng):
    # isotropic quadratic: Q = 1 and a single whole-graph step is exact
    g = random_connected_graph(rng, 10, extra_edges=5)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices))
    pert = PerturbationSpec(g, random_balanced(rng, g.n_vertices))
    sub = SubgraphSpec(g, range(g.n_vertices))
    out = warm_start_reoptimize(problem, pert, sub, t=1)
    target = solve_exact(problem.with_b(problem.b + pert.p))
    assert np.allclose(out, target, atol=1e-9)


@pytest.mark.parametrize("t", [2.7, -3, -1.0, float("nan"), float("inf"),
                               "3", None, True])
def test_iteration_count_must_be_a_nonnegative_integer(t):
    g = generate("cycle", n=8)
    problem = quadratic_problem(g, np.zeros(8))
    p = np.zeros(8)
    p[0], p[1] = 1.0, -1.0
    sub = ball_subgraph(g, 0, 2)
    x = solve_exact(problem)
    with pytest.raises(SolverError, match="iteration count"):
        LocalizedSolver(problem, sub).run(x, problem.b + p, t)
    with pytest.raises(SolverError, match="iteration count"):
        warm_start_reoptimize(problem, PerturbationSpec(g, p), sub, t,
                              x_star=x)


def test_zero_iterations_return_the_start():
    g = generate("grid-2d", rows=3, cols=3)
    problem = quadratic_problem(g, np.zeros(9))
    p = np.zeros(9)
    p[4], p[5] = 1.0, -1.0
    x = solve_exact(problem)
    sub = ball_subgraph(g, 4, 1)
    out = warm_start_reoptimize(problem, PerturbationSpec(g, p), sub, 0,
                                x_star=x)
    assert np.array_equal(out, x) and out is not x
    seen = []
    assert np.array_equal(LocalizedSolver(problem, sub).run(
        x, problem.b + p, 0.0, collect=seen.append), x)
    assert seen == []
    # an integral float counts its steps
    local = LocalizedSolver(problem, sub)
    assert np.array_equal(local.run(x, problem.b + p, 2.0),
                          local.run(x, problem.b + p, 2))


def test_warm_start_support_outside_subgraph_errors(rng):
    g = path(5)
    problem = quadratic_problem(g, np.zeros(5))
    pert = PerturbationSpec(g, np.array([1.0, 0, 0, 0, -1.0]))
    sub = ball_subgraph(g, "1", 1)
    with pytest.raises(SolverError, match="support"):
        warm_start_reoptimize(problem, pert, sub, t=3)


def test_warm_start_feasibility_every_iterate(rng):
    g = random_connected_graph(rng, 14, extra_edges=10)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices))
    sub = ball_subgraph(g, "v0", 2)
    if sub.is_whole_graph or not len(sub.e_in):
        pytest.skip("degenerate ball for this seed")
    verts = sub.v_in
    p = np.zeros(g.n_vertices)
    p[verts[0]], p[verts[1]] = 1.0, -1.0
    pert = PerturbationSpec(g, p)
    b_target = problem.b + p
    seen = []
    warm_start_reoptimize(problem, pert, sub, t=10, collect=seen.append)
    A_rows = incidence(problem.graph)[verts]
    for x in seen:
        assert np.abs(A_rows @ x - b_target[verts]).max() < 1e-9


def _reference_iterates(problem, sub, x, b_target, t):
    """t localized steps of size 1/beta on the full vector, with the dense
    projector of the subgraph's incidence matrix."""
    e_in, v_in = sub.e_in, sub.v_in
    e_out = np.setdiff1d(np.arange(problem.graph.n_edges), e_in)
    A_sub = incidence(sub.induced)
    lift = A_sub.T @ pseudoinverse(A_sub @ A_sub.T)
    Pi = np.eye(len(e_in)) - lift @ A_sub
    b_in = b_target[v_in] \
        - (incidence(problem.graph)[:, e_out] @ x[e_out])[v_in]
    iterates = []
    for _ in range(t):
        grads = problem.bundle.gradient(x)[e_in]
        x = x.copy()
        x[e_in] = Pi @ (x[e_in] - (1.0 / problem.bundle.beta) * grads) \
            + lift @ b_in
        iterates.append(x)
    return iterates


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(KINDS), st.integers(0, 3))
def test_localized_run_matches_full_vector_reference(seed, kind, radius):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(4, 30)),
                               extra_edges=int(rng.integers(0, 20)))
    # unequal curvatures: with equal ones the first step of size 1/beta
    # lands on the ball's optimum and leaves the later steps untested
    bundle = bundle_of(kind, rng, g.n_edges)
    problem = FlowProblem(g, bundle, random_balanced(rng, g.n_vertices))
    sub = ball_subgraph(g, int(rng.integers(g.n_vertices)), radius)
    if not len(sub.e_in):
        return
    x = solve_exact(problem)
    x0 = x.copy()
    verts = sub.v_in
    b_target = problem.b.copy()
    b_target[verts[0]] += 1.0
    b_target[verts[-1]] -= 1.0
    ref = _reference_iterates(problem, sub, x, b_target, 7)
    seen = []
    local = LocalizedSolver(problem, sub)
    # the cut edges give the frozen outflow of all complement edges bit
    # for bit (the dense A product above sums in another order)
    e_out = np.setdiff1d(np.arange(g.n_edges), sub.e_in)
    b_in = b_target[verts] - g.net_outflow(x[e_out], e_out)[verts]
    assert np.array_equal(local.restricted_b(x, b_target), b_in)
    collected = local.run(x, b_target, 7, collect=seen.append)
    plain = local.run(x, b_target, 7)
    scale = max(np.abs(r).max() for r in ref)
    assert len(seen) == 7
    for got, want in zip(seen, ref):
        assert np.abs(got - want).max() <= 1e-12 * scale
    assert np.array_equal(collected, plain)
    assert np.array_equal(plain, seen[-1])
    assert np.array_equal(x, x0)  # the run does not write into x


def _check_cycle_matrix(local):
    """The solver's sparse cycle matrix C, returned dense: one column per
    unit of cycle rank, circulations of the subgraph (A_sub C = 0,
    exactly), and the identity on the chords, the edges off the spanning
    tree."""
    sub = local.sub
    rows, cols, vals = local.cycles
    C = np.zeros((len(sub.e_in), sub.cycle_rank))
    np.add.at(C, (rows, cols), vals)
    assert np.array_equal(incidence(sub.induced) @ C,
                          np.zeros((len(sub.v_in), sub.cycle_rank)))
    tree = sub.tree_edge[sub.tree_edge >= 0]
    chords = np.setdiff1d(np.arange(len(sub.e_in)), tree)
    assert len(tree) == len(sub.v_in) - 1 == len(np.unique(tree))
    assert np.array_equal(C[chords], np.eye(sub.cycle_rank))
    assert local.gram_inverse.shape == (sub.cycle_rank,) * 2
    return C


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["random", "grid", "tree"]))
def test_cycle_matrix_on_random_balls(seed, shape):
    """On balls of random graphs, grids and trees, with random centers and
    radii, C is the fundamental-cycle matrix of the ball's tree, and
    G^-1 inverts its Gram matrix."""
    rng = np.random.default_rng(seed)
    if shape == "grid":
        g = generate("grid-2d", rows=int(rng.integers(1, 9)),
                     cols=int(rng.integers(2, 9)))
    else:
        g = random_connected_graph(
            rng, int(rng.integers(2, 40)),
            extra_edges=0 if shape == "tree" else int(rng.integers(0, 60)))
    sub = ball_subgraph(g, int(rng.integers(g.n_vertices)),
                        int(rng.integers(1, 7)))
    local = LocalizedSolver(quadratic_problem(g, np.zeros(g.n_vertices)),
                            sub)
    C = _check_cycle_matrix(local)
    # every column is a fundamental cycle: at most 2r + 1 edges
    assert (np.abs(C).sum(axis=0) <= 2 * sub.depth.max() + 1).all()
    assert np.allclose(local.gram_inverse @ (C.T @ C),
                       np.eye(sub.cycle_rank), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(KINDS),
       st.sampled_from(["tree", "grid", "grid-boundary", "whole"]))
def test_localized_run_matches_reference_on_trees_grids_and_whole_graphs(
        seed, kind, shape):
    """The cycle-coordinate steps against the dense projector on balls of
    a tree (cycle rank 0), balls of a grid (cycle rank near |V|), centred
    anywhere or on the grid's boundary, where the ball is cut off on one
    side and has bridges off its cycle support, and whole-graph
    subgraphs."""
    rng = np.random.default_rng(seed)
    if shape.startswith("grid"):
        rows, cols = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        g = generate("grid-2d", rows=rows, cols=cols)
    else:
        g = random_connected_graph(
            rng, int(rng.integers(3, 30)),
            extra_edges=0 if shape == "tree" else int(rng.integers(0, 40)))
    if shape == "whole":
        sub = SubgraphSpec(g, range(g.n_vertices))
    else:
        center = int(rng.integers(g.n_vertices))
        if shape == "grid-boundary":
            i, j = divmod(center, cols)
            center = [i * cols, i * cols + cols - 1, j,
                      (rows - 1) * cols + j][int(rng.integers(4))]
        sub = ball_subgraph(g, center, int(rng.integers(1, 5)))
    bundle = bundle_of(kind, rng, g.n_edges)
    problem = FlowProblem(g, bundle, random_balanced(rng, g.n_vertices))
    x = solve_exact(problem)
    b_target = problem.b.copy()
    b_target[sub.v_in[0]] += 1.0
    b_target[sub.v_in[-1]] -= 1.0
    local = LocalizedSolver(problem, sub)
    _check_cycle_matrix(local)
    ref = _reference_iterates(problem, sub, x, b_target, 7)
    seen = []
    local.run(x, b_target, 7, collect=seen.append)
    scale = max(np.abs(r).max() for r in ref)
    for got, want in zip(seen, ref):
        assert np.abs(got - want).max() <= 1e-12 * scale
    if shape == "tree":  # one feasible flow, whatever the costs
        assert sub.cycle_rank == 0
        assert all(np.array_equal(got, seen[0]) for got in seen)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["quadratic", "quartic",
                                               "log-cosh"]))
def test_localized_run_contracts_at_the_budget_rate(seed, kind):
    """From the warm start x*(b), every localized iterate toward b + p
    meets the variance bound's rate: |x_t - x_lim| <= exp(-t / (2 Q))
    |x_0 - x_lim| for t = 1..40, with x_lim the subgraph's restricted
    optimum and Q the whole problem's curvature ratio, whose 1/beta is the
    step."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 25))
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 25)))
    m = g.n_edges
    if kind == "quadratic":
        bundle = quadratic_bundle(rng, m)
    elif kind == "quartic":
        # the flows of this b stay well inside [-R, R]
        bundle = ObjectiveBundle.from_arrays(
            "quartic", a=rng.uniform(0.5, 2.0, m),
            q=rng.uniform(0.01, 0.3, m), radius=4.0)
    else:
        bundle = logcosh_bundle(rng, m)
    problem = FlowProblem(g, bundle, random_balanced(rng, n, 0.3))
    sub = ball_subgraph(g, int(rng.integers(n)), int(rng.integers(1, 4)))
    if not len(sub.e_in):
        return
    x = solve_exact(problem)
    b_target = problem.b.copy()
    b_target[sub.v_in[0]] += 0.5
    b_target[sub.v_in[-1]] -= 0.5
    local = LocalizedSolver(problem, sub)
    limit = local.restricted_optimum(x, b_target)
    seen = []
    local.run(x, b_target, 40, collect=seen.append)
    err0 = np.linalg.norm(x - limit)
    for t, x_t in enumerate(seen, 1):
        bound = np.exp(-t / (2.0 * bundle.Q)) * err0
        assert np.linalg.norm(x_t - limit) <= bound + 1e-9 * max(1.0, err0)


def test_localized_run_checks_frozen_flows_once(rng):
    """Per step the run touches only the ball: the full graph's outflow
    and the cut edges' outflow are computed once each, the full bundle is
    only domain-checked, and the gradient is taken once per step on the
    flows of the cycle support, a proper part of this ball's edges; a tree
    ball (r = 2 here) takes none, yet collect still receives every
    iterate."""
    g = generate("random-k-regular", n=400, k=3, seed=5)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices))
    x = solve_exact(problem)
    full_outflow = g.net_outflow
    for r, steps in ((6, 30), (2, 0)):
        local = LocalizedSolver(problem, ball_subgraph(g, 0, r))
        assert (local.sub.cycle_rank > 0) == (steps > 0)
        outflows, gradient_sizes, iterates = [], [], []

        def counted_outflow(*args):
            outflows.append(len(args[0]))
            return full_outflow(*args)

        g.net_outflow = counted_outflow
        if steps:  # a tree ball has no cycle support, and no costs on it
            support_gradient = local.bundle.gradient

            def counted_gradient(v):
                gradient_sizes.append(len(v))
                return support_gradient(v)

            local.bundle.gradient = counted_gradient
        problem.bundle.gradient = problem.bundle.hessian_diag = None
        local.run(x, problem.b, 30, collect=iterates.append)
        assert outflows == [g.n_edges, len(local.sub.cut)]
        assert gradient_sizes == [len(local.support)] * steps
        assert len(local.support) < len(local.e_in) or not steps
        assert len(iterates) == 30


@pytest.mark.parametrize("r", [2, 4])
def test_ball_and_solver_build_allocate_by_the_ball_not_n(r):
    """A ball and its solver hold no length-n array: on k = 3 graphs the
    traced peak of ball_subgraph followed by LocalizedSolver is the same
    within 2x at n = 2e3 and n = 2e5. One build runs first, so what the
    graph allocates once for its searches is not counted."""
    peaks = []
    for n in (2000, 200000):
        g = generate("random-k-regular", n=n, k=3, seed=1)
        problem = quadratic_problem(g, np.zeros(n))

        def build():
            LocalizedSolver(problem, ball_subgraph(g, 0, r))
        build()
        peaks.append(traced_peak_mb(build))
    assert max(peaks) <= 2.0 * min(peaks)


def test_tree_ball_refuses_a_routed_flow_outside_the_domain():
    """A tree ball's one feasible flow is its routing; where that leaves a
    quartic cost's interval, the run raises instead of returning it."""
    g = generate("cycle", n=12)
    bundle = ObjectiveBundle.from_arrays("quartic", a=np.ones(12),
                                         q=np.full(12, 0.1), radius=1.0)
    problem = FlowProblem(g, bundle, np.zeros(12))
    x = solve_exact(problem)
    sub = ball_subgraph(g, 0, 2)  # the path 10 - 11 - 0 - 1 - 2
    assert sub.cycle_rank == 0
    p = np.zeros(12)
    p[2], p[10] = 3.0, -3.0  # 3 units across every ball edge
    seen = []
    with pytest.raises(CostError, match="outside validity interval"):
        warm_start_reoptimize(problem, PerturbationSpec(g, p), sub, 5,
                              x_star=x, collect=seen.append)
    assert seen == []
    p[2], p[10] = 0.5, -0.5
    out = warm_start_reoptimize(problem, PerturbationSpec(g, p), sub, 5,
                                x_star=x)
    assert np.abs(out[sub.e_in]).max() == 0.5


def test_localized_run_rejects_out_of_domain_frozen_flow():
    g = generate("cycle", n=12)
    costs = [EdgeCost("quartic", a=1.0, q=0.1, radius=3.0)
             for _ in range(g.n_edges)]
    problem = FlowProblem(g, ObjectiveBundle(costs), np.zeros(12))
    sub = ball_subgraph(g, 0, 2)
    x = solve_exact(problem)
    # both ends outside the ball
    frozen = int(np.setdiff1d(np.arange(g.n_edges), sub.e_in)[3])
    x[frozen] = 5.0
    # a target that the frozen flows meet, so only the domain check objects
    b_target = g.net_outflow(x)
    local = LocalizedSolver(problem, sub)
    with pytest.raises(CostError, match="edge %d outside" % frozen):
        local.run(x, b_target, 3)
    with pytest.raises(SolverError, match="boundary"):
        local.run(x, problem.b, 3)
