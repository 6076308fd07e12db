import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localflow import (DirectedGraph, EdgeCost, FlowProblem, ObjectiveBundle,
                       PerturbationSpec, SensitivityError,
                       directional_derivative, generate,
                       integrate_sensitivity, pseudoinverse,
                       sensitivity_operator, solve_exact)
from localflow.graph import FEAS_TOL
from localflow.laplacian import LaplacianError
from localflow.sensitivity import STATIONARITY_TOL, _project
from conftest import (logcosh_bundle, path, quadratic_problem,
                      random_balanced, random_connected_graph, triangle)
from oracles import (boundary_sensitivity_check, gaussian_identity_check,
                     generic_sensitivity_matrix, incidence, is_aperiodic,
                     sensitivity_matrix, series_apply)


def test_flow_problem_rejects_unbalanced():
    g = path(2)
    bundle = ObjectiveBundle.from_arrays("quadratic", np.full(1, 1.0))
    with pytest.raises(SensitivityError, match="not balanced"):
        FlowProblem(g, bundle, np.array([1.0, 0.0]))


def test_perturbation_support_and_balance():
    g = triangle()
    pert = PerturbationSpec(g, np.array([1.0, -1.0, 0.0]))
    assert pert.support == {0, 1}
    with pytest.raises(SensitivityError, match="not balanced"):
        PerturbationSpec(g, np.array([1.0, 0.0, 0.0]))
    # zero perturbation is the degenerate no-op
    assert PerturbationSpec(g, np.zeros(3)).support == frozenset()


def test_solve_exact_forced_edge():
    g = path(2)
    problem = quadratic_problem(g, np.array([1.0, -1.0]))
    assert solve_exact(problem) == pytest.approx([1.0])


def test_solve_exact_triangle_least_norm():
    problem = quadratic_problem(triangle(), np.array([1.0, -1.0, 0.0]))
    x = solve_exact(problem)
    assert np.allclose(x, [2.0 / 3, -1.0 / 3, -1.0 / 3], atol=1e-12)
    # cross-check against the independent least-norm formula
    A = incidence(problem.graph)
    oracle = A.T @ (pseudoinverse(A @ A.T) @ problem.b)
    assert np.allclose(x, oracle, atol=1e-12)


def test_solve_exact_zero_b():
    g = triangle()
    problem = quadratic_problem(g, np.zeros(3))
    assert np.abs(solve_exact(problem)).max() < 1e-12


def test_solve_exact_quadratic_with_linear_terms(rng):
    g = random_connected_graph(rng, 12, extra_edges=6)
    costs = [EdgeCost("quadratic", a=float(rng.uniform(0.5, 2.0)),
                      c=float(rng.uniform(-1, 1))) for _ in range(g.n_edges)]
    problem = FlowProblem(g, ObjectiveBundle(costs),
                          random_balanced(rng, g.n_vertices))
    x = solve_exact(problem)
    assert np.abs(incidence(problem.graph) @ x - problem.b).max() < 1e-9
    grad = problem.bundle.gradient(x)
    assert np.abs(problem.project_gradient(grad)).max() < 1e-8


def test_solve_exact_logcosh_kkt(rng):
    g = random_connected_graph(rng, 15, extra_edges=8)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices, scale=2.0))
    x = solve_exact(problem)
    assert np.abs(incidence(problem.graph) @ x - problem.b).max() < 1e-9
    assert np.abs(problem.project_gradient(
        problem.bundle.gradient(x))).max() < 1e-8


def test_operator_quadratic_is_unweighted_pinv_form():
    problem = quadratic_problem(triangle(), np.array([1.0, -1.0, 0.0]))
    op = sensitivity_operator(problem)
    A = incidence(problem.graph)
    expected = A.T @ pseudoinverse(A @ A.T)
    assert np.allclose(sensitivity_matrix(op), expected, atol=1e-10)


def test_operator_derivative_is_feasible(rng):
    g = random_connected_graph(rng, 20, extra_edges=10)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices))
    op = sensitivity_operator(problem)
    for _ in range(5):
        p = random_balanced(rng, g.n_vertices)
        d = op.apply(p)
        assert np.abs(incidence(problem.graph) @ d - p).max() < 1e-8


def test_operator_matches_central_difference(rng):
    g = random_connected_graph(rng, 10, extra_edges=5)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices))
    p = random_balanced(rng, g.n_vertices)
    d = sensitivity_operator(problem).apply(p)
    h = 1e-5
    plus = solve_exact(problem.with_b(problem.b + h * p), tol=1e-13)
    minus = solve_exact(problem.with_b(problem.b - h * p), tol=1e-13)
    fd = (plus - minus) / (2 * h)
    assert np.abs(d - fd).max() <= 1e-4 * max(1.0, np.abs(d).max())


def test_directional_derivative_forced_edge():
    g = path(2)
    problem = quadratic_problem(g, np.array([0.5, -0.5]))
    pert = PerturbationSpec(g, np.array([1.0, -1.0]))
    for eps in (0.0, 0.3):
        d = directional_derivative(problem, pert, eps)
        assert d == pytest.approx([1.0])


def test_directional_derivative_triangle_linearity():
    problem = quadratic_problem(triangle(), np.array([0.0, 0.0, 0.0]))
    pert = PerturbationSpec(problem.graph, np.array([1.0, -1.0, 0.0]))
    d = directional_derivative(problem, pert)
    assert np.allclose(d, [2.0 / 3, -1.0 / 3, -1.0 / 3], atol=1e-10)


def test_quadratic_derivative_independent_of_eps(rng):
    g = random_connected_graph(rng, 10, extra_edges=4)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices), a=1.5)
    pert = PerturbationSpec(g, random_balanced(rng, g.n_vertices))
    d0 = directional_derivative(problem, pert, 0.0)
    d1 = directional_derivative(problem, pert, 0.7)
    assert np.allclose(d0, d1, atol=1e-10)


def test_laplacian_vs_series_form(rng):
    count = 0
    while count < 5:
        g = random_connected_graph(rng, 14, extra_edges=10)
        problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                              random_balanced(rng, g.n_vertices))
        op = sensitivity_operator(problem)
        if not is_aperiodic(op.walk):
            continue
        count += 1
        p = random_balanced(rng, g.n_vertices)
        assert np.abs(op.apply(p) - series_apply(op, p)).max() < 1e-8


def test_integrate_sensitivity_quadratic_exact(rng):
    g = random_connected_graph(rng, 12, extra_edges=6)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices), a=2.0)
    b_to = random_balanced(rng, g.n_vertices)
    integral = integrate_sensitivity(problem, problem.b, b_to, n_steps=1)
    diff = solve_exact(problem.with_b(b_to)) - solve_exact(problem)
    assert np.allclose(integral, diff, atol=1e-9)


def test_integrate_sensitivity_same_endpoints():
    problem = quadratic_problem(triangle(), np.array([1.0, -1.0, 0.0]))
    out = integrate_sensitivity(problem, problem.b, problem.b)
    assert np.abs(out).max() == 0.0


def test_integrate_sensitivity_logcosh_triangle():
    g = triangle()
    rng = np.random.default_rng(21)
    problem = FlowProblem(g, logcosh_bundle(rng, 3),
                          np.array([1.0, -0.4, -0.6]))
    b_to = np.array([-0.5, 1.2, -0.7])
    integral = integrate_sensitivity(problem, problem.b, b_to, n_steps=16)
    diff = solve_exact(problem.with_b(b_to)) - solve_exact(problem)
    rel = np.abs(integral - diff).max() / max(1.0, np.abs(diff).max())
    assert rel < 1e-6


def test_generic_sensitivity_full_rank():
    A = np.array([[1.0, 1.0]])
    D = generic_sensitivity_matrix([1.0, 1.0], A)
    assert np.allclose(D, [[0.5], [0.5]], atol=1e-12)


def test_gaussian_identity_simple_and_random(rng):
    assert gaussian_identity_check(np.eye(2), np.array([[1.0, 1.0]])) < 1e-12
    assert gaussian_identity_check(np.eye(3), np.eye(3)) < 1e-12
    for _ in range(5):
        M = rng.standard_normal((6, 6))
        Sigma = M @ M.T + 6 * np.eye(6)
        A = rng.standard_normal((4, 6))
        assert gaussian_identity_check(Sigma, A) < 1e-10


def test_gaussian_identity_rejects_rank_deficient():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(SensitivityError, match="full row rank"):
        gaussian_identity_check(np.eye(2), A)


def test_boundary_sensitivity_two_by_two():
    H = np.array([[2.0, 1.0], [1.0, 2.0]])
    block_dev, fd_dev = boundary_sensitivity_check(H, [0], [1])
    assert block_dev < 1e-12
    assert fd_dev < 1e-5
    Sigma = np.linalg.inv(H)
    value = Sigma[0, 1] / Sigma[1, 1]
    assert value == pytest.approx(-0.5, abs=1e-12)


def test_boundary_sensitivity_diagonal_decouples():
    H = np.diag([1.0, 2.0, 3.0, 4.0])
    Sigma = np.linalg.inv(H)
    lhs = Sigma[np.ix_([0, 1], [2, 3])] @ np.linalg.inv(
        Sigma[np.ix_([2, 3], [2, 3])])
    assert np.abs(lhs).max() == 0.0
    block_dev, _ = boundary_sensitivity_check(H, [0, 1], [2, 3])
    assert block_dev < 1e-12


def test_boundary_sensitivity_random(rng):
    for _ in range(5):
        M = rng.standard_normal((6, 6))
        H = M @ M.T + 6 * np.eye(6)
        block_dev, fd_dev = boundary_sensitivity_check(H, [0, 2, 4], [1, 3, 5])
        assert block_dev < 1e-10
        assert fd_dev < 1e-5


def test_boundary_sensitivity_rejects_bad_partition():
    with pytest.raises(SensitivityError, match="partition"):
        boundary_sensitivity_check(np.eye(3), [0], [1])


def test_newton_line_search_propagates_non_cost_errors(rng, monkeypatch):
    # the line search halves the step only when a trial point leaves a
    # cost's domain; any other failure surfaces unchanged
    g = random_connected_graph(rng, 10, extra_edges=5)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices, scale=2.0))
    gradient = problem.bundle.gradient
    calls = []

    def failing_gradient(x):
        calls.append(1)
        if len(calls) > 2:  # the start's gradient and the first trial point
            raise ZeroDivisionError("not a cost error")
        return gradient(x)

    monkeypatch.setattr(problem.bundle, "gradient", failing_gradient)
    with pytest.raises(ZeroDivisionError, match="not a cost error"):
        solve_exact(problem)


def test_project_gradient_matches_pinv_formula(rng):
    g = random_connected_graph(rng, 15, extra_edges=8)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices))
    grad = rng.standard_normal(g.n_edges)
    A = incidence(problem.graph)
    want = grad - A.T @ (problem.unweighted_laplacian_pinv() @ (A @ grad))
    got = problem.project_gradient(grad)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # A A^T and D - W are one integer matrix: the same pseudoinverse, bit
    # for bit, on the test's graph and on a grid
    grid = generate("grid-2d", rows=4, cols=5)
    for prob in (problem, quadratic_problem(grid, np.zeros(20))):
        A = incidence(prob.graph)
        assert np.array_equal(prob.unweighted_laplacian_pinv(),
                              pseudoinverse(A @ A.T))


@pytest.mark.parametrize("kind", ["quadratic", "log-cosh"])
def test_apply_matches_dense_matrix(rng, kind):
    g = generate("random-k-regular", n=60, k=3, seed=4)
    if kind == "quadratic":
        bundle = ObjectiveBundle(
            [EdgeCost("quadratic", a=float(rng.uniform(0.5, 2.0)),
                      c=float(rng.standard_normal()))
             for _ in range(g.n_edges)])
    else:
        bundle = logcosh_bundle(rng, g.n_edges)
    problem = FlowProblem(g, bundle, random_balanced(rng, g.n_vertices))
    op = sensitivity_operator(problem)
    p = random_balanced(rng, g.n_vertices)
    want = sensitivity_matrix(op) @ p
    assert np.abs(op.apply(p) - want).max() <= 1e-10 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), log10_s=st.floats(-300.0, 300.0))
def test_quadratic_solve_is_linear_in_b(seed, log10_s):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, 12, extra_edges=6)
    bundle = ObjectiveBundle([EdgeCost("quadratic",
                                       a=float(rng.uniform(0.5, 2.0)))
                              for _ in range(g.n_edges)])
    b = random_balanced(rng, g.n_vertices)
    s = 10.0 ** log10_s
    x = solve_exact(FlowProblem(g, bundle, b))
    xs = solve_exact(FlowProblem(g, bundle, s * b))
    assert np.abs(xs - s * x).max() <= 1e-10 * s * np.abs(x).max()


@pytest.mark.parametrize("kind", ["quadratic", "log-cosh"])
def test_solve_exact_at_large_demand(rng, kind):
    # feasibility and stationarity are judged relative to |b| and |grad|
    g = generate("random-k-regular", n=400, k=3, seed=7)
    bundle = (ObjectiveBundle.from_arrays("quadratic", np.full(g.n_edges, 1.0))
              if kind == "quadratic" else logcosh_bundle(rng, g.n_edges))
    b = random_balanced(rng, g.n_vertices)
    b *= 1e7 / np.abs(b).max()
    x = solve_exact(FlowProblem(g, bundle, b))
    assert np.abs(g.net_outflow(x) - b).max() <= 1e-9 * 1e7


def test_large_quadratic_solve_and_apply_are_matrix_free(rng):
    # a dense incidence matrix at this size would take 4.8 GB
    n = 20_000
    g = generate("random-k-regular", n=n, k=3, seed=3)
    problem = FlowProblem(
        g, ObjectiveBundle([EdgeCost("quadratic",
                                     a=float(rng.uniform(1.0, 2.0)))
                            for _ in range(g.n_edges)]),
        random_balanced(rng, n))
    p = np.zeros(n)
    p[g.tails[0]], p[g.heads[0]] = 1.0, -1.0
    tracemalloc.start()
    try:
        x = solve_exact(problem)
        u = sensitivity_operator(problem, x).apply(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20
    assert np.abs(g.net_outflow(u) - p).max() <= 1e-9


def test_quadratic_stats_and_free_stationarity_check(rng):
    # the check's projection starts from the closed form's potential,
    # which is already its answer
    g = generate("random-k-regular", n=200, k=3, seed=5)
    bundle = ObjectiveBundle([EdgeCost("quadratic",
                                       a=float(rng.uniform(1.0, 2.0)),
                                       c=float(rng.standard_normal()))
                              for _ in range(g.n_edges)])
    problem = FlowProblem(g, bundle, random_balanced(rng, g.n_vertices))
    stats = {}
    x = solve_exact(problem, stats=stats)
    assert np.array_equal(x, solve_exact(problem))
    solve, check = stats.pop("cg_iterations")
    assert solve > 10 and check <= 1
    assert stats == {
        "method": "closed-form", "newton_iterations": 0, "halvings": 0,
        "feasibility_inf": float(np.abs(g.net_outflow(x) - problem.b).max()),
        "stationarity_inf": pytest.approx(
            np.abs(problem.project_gradient(bundle.gradient(x))).max(),
            abs=1e-12)}


def test_newton_stats_and_warm_started_solves(rng):
    g = generate("random-k-regular", n=40, k=3, seed=6)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices, scale=3.0))
    stats = {}
    x = solve_exact(problem, stats=stats)
    cg = stats["cg_iterations"]
    assert stats["method"] == "newton" and stats["newton_iterations"] >= 2
    assert stats["start"] == "quadratic-part"
    # the start, then per Newton iteration a direction and a solve per
    # trial point (log-cosh never leaves its domain, so every trial
    # point reaches its residual); no final-check solve
    assert len(cg) == (1 + 2 * stats["newton_iterations"]
                       + stats["halvings"])
    assert sum(cg) < len(cg) * cg[0]
    assert stats["feasibility_inf"] <= 1e-9
    assert stats["stationarity_inf"] == pytest.approx(
        np.abs(problem.project_gradient(problem.bundle.gradient(x))).max(),
        abs=1e-12)


def test_newton_evaluates_one_gradient_per_trial_point(rng, monkeypatch):
    # the start and each trial point (accepted or halved); an accepted
    # point's gradient serves the next direction and the final check
    g = generate("random-k-regular", n=40, k=3, seed=6)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                          random_balanced(rng, g.n_vertices, scale=3.0))
    gradient, calls = problem.bundle.gradient, []

    def counted(x):
        calls.append(1)
        return gradient(x)

    monkeypatch.setattr(problem.bundle, "gradient", counted)
    stats = {}
    solve_exact(problem, stats=stats)
    assert stats["newton_iterations"] >= 2
    assert len(calls) == 1 + stats["newton_iterations"] + stats["halvings"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 30),
       kind=st.sampled_from(["log-cosh", "quartic", "mixed"]),
       log10_b=st.floats(-2.0, 5.0))
def test_newton_solve_meets_dense_kkt_oracle(seed, n, kind, log10_b):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)))
    m, A = g.n_edges, incidence(g)
    gram_pinv = pseudoinverse(A @ A.T)
    b = random_balanced(rng, n)
    b *= 10.0 ** log10_b / np.abs(b).max()
    quartic = {"log-cosh": np.zeros(m, bool), "quartic": np.ones(m, bool),
               "mixed": rng.random(m) < 0.5}[kind]
    a, q, s = (rng.uniform(0.5, 2.0, m), rng.uniform(0.0, 1.0, m),
               rng.uniform(0.0, 1.0, m))
    # every term of the cost is at least a x^2 / 2, and the least-norm
    # point's cost (log cosh x <= |x|) bounds the optimum's: no optimal
    # flow exceeds sqrt(2 f / a), and neither does the quadratic start
    x_ln = A.T @ (gram_pinv @ b)
    f_ln = np.sum(0.5 * a * x_ln ** 2 + 0.25 * q * x_ln ** 4 + s * abs(x_ln))
    radius = 2.0 * np.sqrt(2.0 * f_ln / a.min()) + 1.0
    bundle = ObjectiveBundle([
        EdgeCost("quartic", a=a[e], q=q[e], radius=radius) if quartic[e]
        else EdgeCost("log-cosh", a=a[e], s=s[e]) for e in range(m)])
    try:
        x = solve_exact(FlowProblem(g, bundle, b))
    except (SensitivityError, LaplacianError):
        # a known defect: where quartic curvature 3 q x^2 dwarfs the
        # log-cosh edges' (|b| >~ 1e3), potentials of size |grad| cost
        # the flows their last digits, and the weighted CG can break
        # down (LaplacianError); such an instance is refused, never
        # answered wrongly
        assert kind == "mixed" and log10_b > 2.0
        return
    assert np.abs(A @ x - b).max() <= FEAS_TOL * max(1.0, np.abs(b).max())
    grad = bundle.gradient(x)
    pg = grad - A.T @ (gram_pinv @ (A @ grad))
    assert np.abs(pg).max() <= STATIONARITY_TOL * max(1.0, np.abs(grad).max())


def test_cg_breakdown_is_a_laplacian_error():
    # quartic edges beside log-cosh ones at |b|_inf = 1e5: a Newton solve
    # meets p^T L p = 0 in CG, which is refused with the documented error
    # and no floating-point warning
    rng = np.random.default_rng(3)
    n = int(rng.choice([5, 12]))
    g = random_connected_graph(rng, n, extra_edges=n)
    costs = []
    for _ in range(g.n_edges):
        a = float(rng.uniform(0.5, 2.0))
        if rng.random() < 0.5:
            costs.append(EdgeCost("quartic", a=a, q=float(rng.uniform(0, 1)),
                                  radius=1e7))
        else:
            costs.append(EdgeCost("log-cosh", a=a, s=float(rng.uniform(0, 1))))
    b = rng.standard_normal(n)
    b -= b.mean()
    b *= 1e5 / np.abs(b).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LaplacianError, match="broke down"):
            solve_exact(FlowProblem(g, ObjectiveBundle(costs), b))


def test_newton_at_a_quadratic_optimum_takes_one_step(rng):
    # with s = 0 the quadratic part is the whole cost, so Newton's start is
    # the optimum and its one step leaves it there
    g = random_connected_graph(rng, 20, extra_edges=10)
    a = rng.uniform(0.5, 2.0, g.n_edges)
    b = random_balanced(rng, g.n_vertices, scale=3.0)
    stats = {}
    x = solve_exact(FlowProblem(g, ObjectiveBundle(
        [EdgeCost("log-cosh", a=ae, s=0.0) for ae in a]), b), stats=stats)
    want = solve_exact(FlowProblem(g, ObjectiveBundle(
        [EdgeCost("quadratic", a=ae) for ae in a]), b))
    assert stats["start"] == "quadratic-part"
    assert stats["newton_iterations"] == 1 and stats["halvings"] == 0
    assert np.abs(x - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_newton_falls_back_to_least_norm_start():
    # the cheap edge e12 would carry 100/100.5 of the unit demand at the
    # quadratic part's optimum, beyond its radius 0.8; the least-norm
    # point puts 2/3 there, and the optimum about 0.47
    bundle = ObjectiveBundle([EdgeCost("quartic", a=0.01, q=10.0, radius=0.8),
                              EdgeCost("quartic", a=1.0, q=0.0, radius=2.0),
                              EdgeCost("quartic", a=1.0, q=0.0, radius=2.0)])
    problem = FlowProblem(triangle(), bundle, np.array([1.0, -1.0, 0.0]))
    stats = {}
    x = solve_exact(problem, stats=stats)
    assert stats["start"] == "least-norm"
    assert 0.4 < x[0] < 0.5
    assert np.abs(incidence(problem.graph) @ x - problem.b).max() <= 1e-12
    grad = bundle.gradient(x)
    assert np.abs(problem.project_gradient(grad)).max() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 20),
       log10_v=st.floats(-3.0, 3.0))
def test_project_meets_the_dense_weighted_projection(seed, n, log10_v):
    # every flow solve is this projection; its potential's sign is what
    # each warm start relies on
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)))
    A = incidence(g)
    sigma = 10.0 ** rng.uniform(-1.0, 1.0, g.n_edges)
    v = rng.standard_normal(g.n_edges) * 10.0 ** log10_v
    d = random_balanced(rng, n)
    log = []
    x, nu = _project(g, sigma, v, d, log=log)
    assert np.abs(A @ x - d).max() <= FEAS_TOL * max(1.0, np.abs(d).max())
    scale = max(1.0, np.abs(x).max(), np.abs(v).max())
    assert np.abs((x - v) / sigma - A.T @ nu).max() <= 1e-12 * scale \
        / sigma.min()
    want = pseudoinverse((A * sigma) @ A.T) @ (d - A @ v)
    assert np.abs(nu - nu.mean() - want).max() <= 1e-9 * max(
        1.0, np.abs(want).max())
    # a warm start from the returned potential is already converged, bar
    # round-off: CG stops on its recurrence residual, and the true one,
    # re-measured at the start, can sit just above CG_RTOL (1 in ~200
    # draws, then one or two iterations)
    again = _project(g, sigma, v, d, nu0=nu, log=log)
    assert log[1] <= 2
    assert np.abs(again[0] - x).max() <= 1e-12 * scale
