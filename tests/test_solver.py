import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localflow import (CostError, EdgeCost, FlowProblem, LocalizedSolver,
                       ObjectiveBundle, PerturbationSpec, PgdConfig,
                       SolverError, SubgraphSpec, ball_subgraph,
                       build_incidence, generate, localized_pgd_step, pgd_run,
                       pgd_step, pseudoinverse, solve_exact,
                       warm_start_reoptimize)
from conftest import (logcosh_bundle, path, quadratic_problem,
                      random_balanced, random_connected_graph, triangle)


def feasible_point(problem, rng=None):
    A = problem.A
    x = A.T @ (pseudoinverse(A @ A.T) @ problem.b)
    if rng is not None:
        null = np.eye(problem.graph.n_edges) \
            - A.T @ (pseudoinverse(A @ A.T) @ A)
        x = x + null @ rng.standard_normal(problem.graph.n_edges)
    return x


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
    x, trace = pgd_run(problem, feasible_point(problem, rng),
                       PgdConfig(tol=1e-11, trace=True))
    assert np.allclose(x, solve_exact(problem), atol=1e-8)
    assert trace[-1] <= trace[0]


def test_pgd_config_validation():
    with pytest.raises(SolverError):
        PgdConfig(eta=-1.0)
    with pytest.raises(SolverError):
        PgdConfig(tol=0.0)


def test_localized_whole_graph_matches_pgd(rng):
    g = random_connected_graph(rng, 10, extra_edges=5)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices))
    sub = SubgraphSpec(g, range(g.n_vertices))
    x = feasible_point(problem, rng)
    full = pgd_step(problem, x)
    local = localized_pgd_step(problem, sub, x)
    assert np.allclose(full, local, atol=1e-9)


def test_localized_freezes_complement(rng):
    g = random_connected_graph(rng, 14, extra_edges=8)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices))
    sub = ball_subgraph(g, "v0", 2)
    if sub.is_whole_graph or not sub.sorted_edges():
        pytest.skip("degenerate ball for this seed")
    x = solve_exact(problem)
    stepped = localized_pgd_step(problem, sub, x)
    outside = sub.sorted_edge_complement()
    assert np.array_equal(stepped[outside], x[outside])


def test_localized_boundary_violation_detected(rng):
    g = random_connected_graph(rng, 14, extra_edges=8)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices))
    sub = ball_subgraph(g, "v0", 1)
    if sub.is_whole_graph or not sub.sorted_edges():
        pytest.skip("degenerate ball for this seed")
    x = solve_exact(problem)
    bad = x.copy()
    bad[sub.sorted_edge_complement()[0]] += 1.0
    with pytest.raises(SolverError, match="boundary"):
        localized_pgd_step(problem, sub, bad)


def test_localized_limit_is_restricted_solve(rng):
    g = random_connected_graph(rng, 16, extra_edges=10)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices))
    sub = ball_subgraph(g, "v0", 2)
    if sub.is_whole_graph or not sub.sorted_edges():
        pytest.skip("degenerate ball for this seed")
    x_star = solve_exact(problem)
    p = np.zeros(g.n_vertices)
    inside = [v for v in sub.sorted_vertices() if v != sub.sorted_vertices()[0]]
    p[sub.sorted_vertices()[0]] = 1.0
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
    if sub.is_whole_graph or not sub.sorted_edges():
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
    if sub.is_whole_graph or not sub.sorted_edges():
        pytest.skip("degenerate ball for this seed")
    verts = sub.sorted_vertices()
    p = np.zeros(g.n_vertices)
    p[verts[0]], p[verts[1]] = 1.0, -1.0
    pert = PerturbationSpec(g, p)
    b_target = problem.b + p
    seen = []
    warm_start_reoptimize(problem, pert, sub, t=10, collect=seen.append)
    A_rows = problem.A[verts]
    for x in seen:
        assert np.abs(A_rows @ x - b_target[verts]).max() < 1e-9


def _reference_iterates(problem, sub, x, b_target, t, eta):
    """t localized steps on the full vector, with the dense projector of
    the subgraph's incidence matrix."""
    e_in, v_in = sub.sorted_edges(), sub.sorted_vertices()
    e_out = sub.sorted_edge_complement()
    A_sub = build_incidence(sub.induced)
    lift = A_sub.T @ pseudoinverse(A_sub @ A_sub.T)
    Pi = np.eye(len(e_in)) - lift @ A_sub
    b_in = b_target[v_in] - (problem.A[:, e_out] @ x[e_out])[v_in]
    iterates = []
    for _ in range(t):
        grads = problem.bundle.gradient(x)[e_in]
        x = x.copy()
        x[e_in] = Pi @ (x[e_in] - eta * grads) + lift @ b_in
        iterates.append(x)
    return iterates


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.integers(0, 3))
def test_localized_run_matches_full_vector_reference(seed, quadratic, radius):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(4, 30)),
                               extra_edges=int(rng.integers(0, 20)))
    bundle = (ObjectiveBundle.uniform_quadratic(g.n_edges, a=1.5, c=0.3)
              if quadratic else logcosh_bundle(rng, g.n_edges))
    problem = FlowProblem(g, bundle, random_balanced(rng, g.n_vertices))
    sub = ball_subgraph(g, int(rng.integers(g.n_vertices)), radius)
    if not sub.sorted_edges():
        return
    x = solve_exact(problem)
    x0 = x.copy()
    verts = sub.sorted_vertices()
    b_target = problem.b.copy()
    b_target[verts[0]] += 1.0
    b_target[verts[-1]] -= 1.0
    eta = 0.9 / bundle.beta
    ref = _reference_iterates(problem, sub, x, b_target, 7, eta)
    seen = []
    local = LocalizedSolver(problem, sub)
    collected = local.run(x, b_target, 7, eta, collect=seen.append)
    plain = local.run(x, b_target, 7, eta)
    scale = max(np.abs(r).max() for r in ref)
    assert len(seen) == 7
    for got, want in zip(seen, ref):
        assert np.abs(got - want).max() <= 1e-12 * scale
    assert np.array_equal(collected, plain)
    assert np.array_equal(plain, seen[-1])
    assert np.array_equal(x, x0)  # the run does not write into x


def test_localized_run_checks_frozen_flows_once(rng):
    """Per step the run touches only the ball: the full graph's outflow is
    computed once, and the full bundle is only domain-checked once."""
    g = generate("random-k-regular", n=400, k=3, seed=5)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices))
    x = solve_exact(problem)
    local = LocalizedSolver(problem, ball_subgraph(g, 0, 2))
    outflows, gradient_sizes = [], []
    full_outflow, ball_gradient = g.net_outflow, local.bundle.gradient

    def counted_outflow(*args):
        outflows.append(len(args[0]))
        return full_outflow(*args)

    def counted_gradient(v):
        gradient_sizes.append(len(v))
        return ball_gradient(v)

    g.net_outflow, local.bundle.gradient = counted_outflow, counted_gradient
    problem.bundle.gradient = problem.bundle.hessian_diag = None
    local.run(x, problem.b, 30)
    assert outflows == [g.n_edges - len(local.e_in)]
    assert gradient_sizes == [len(local.e_in)] * 30


def test_localized_run_rejects_out_of_domain_frozen_flow():
    g = generate("cycle", n=12)
    costs = [EdgeCost("quartic", a=1.0, q=0.1, radius=3.0)
             for _ in range(g.n_edges)]
    problem = FlowProblem(g, ObjectiveBundle(costs), np.zeros(12))
    sub = ball_subgraph(g, 0, 2)
    x = solve_exact(problem)
    frozen = sub.sorted_edge_complement()[3]  # both ends outside the ball
    x[frozen] = 5.0
    # a target that the frozen flows meet, so only the domain check objects
    b_target = g.net_outflow(x)
    local = LocalizedSolver(problem, sub)
    with pytest.raises(CostError, match="edge %d outside" % frozen):
        local.run(x, b_target, 3)
    with pytest.raises(SolverError, match="boundary"):
        local.run(x, problem.b, 3)
