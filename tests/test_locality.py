import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from localflow import (DirectedGraph, EdgeCost, ErrorBudget, GraphError,
                       LocalityError, ObjectiveBundle, PerturbationSpec,
                       SubgraphSpec, TunerFamily, WeightedWalk,
                       adjacency_slem, ball_subgraph, bias_variance,
                       budget_for, generate, geodesic_distance,
                       interlacing_bound, measure_decay,
                       sensitivity_operator, solve_exact, tune)
from conftest import (logcosh_bundle, neighbors, quadratic_problem,
                      random_balanced, random_connected_graph,
                      traced_peak_mb, triangle)
from localflow import FlowProblem, SolverError
from localflow import laplacian, locality
from localflow.laplacian import LANCZOS_STEPS, SPECTRAL_DELTA
from localflow.locality import _set_constants
from oracles import induced_vertex_set, point_to_set, set_to_point


def k4():
    return generate("complete", n=4)


def antipodal_perturbation(g):
    """Unit perturbation on a farthest vertex pair."""
    dist = g.bfs_distances([0])
    far = int(dist.argmax())
    p = np.zeros(g.n_vertices)
    p[0], p[far] = 1.0, -1.0
    return PerturbationSpec(g, p)


def test_adjacency_slem_complete_graph():
    # K_n adjacency spectrum: n-1 once, -1 repeated
    assert adjacency_slem(k4()) == pytest.approx(1.0, abs=1e-10)


def check_bounds_bracket_dense(g, seed, spread=False):
    """adjacency_slem and the walk's slem_bound against dense eigensolves:
    dense <= bound <= 1.01 dense, each with its record. The walk's weights
    are U[0.5, 2], or 10^U[-3, 3] when spread."""
    rng = np.random.default_rng(seed)
    weights = (10.0 ** rng.uniform(-3.0, 3.0, g.n_edges) if spread
               else rng.uniform(0.5, 2.0, g.n_edges))
    vals = np.linalg.eigvalsh(WeightedWalk(g, np.ones(g.n_edges)).W)
    walk = WeightedWalk(g, weights)
    for bound, dense in ((adjacency_slem(g), max(-vals[0], abs(vals[-2]))),
                         (walk.slem_bound, walk.spectrum().lam)):
        assert dense <= bound <= 1.01 * dense
        record = bound.spectral
        assert record["ritz"] <= record["bound"] == bound
        assert record["delta"] in (0.0, SPECTRAL_DELTA)
        assert record["delta"] == 0.0 or g.n_vertices > LANCZOS_STEPS
        assert record["method"] == ("dense" if g.n_vertices <= LANCZOS_STEPS
                                    else "lanczos")


# one-row grids (odd paths) are left out: there ||A - (d/n) 1 1^T||
# exceeds the second eigenvalue by up to 5%, a sound but loose bound;
# cycles above LANCZOS_STEPS vertices have a Krylov space of B^2 that
# Lanczos exhausts within its steps
GRAPHS = st.one_of(
    st.builds(lambda n: generate("cycle", n=n), st.integers(121, 400)),
    st.builds(lambda n, k, seed: generate("random-k-regular", n=2 * n, k=k,
                                          seed=seed),
              st.integers(3, 150), st.sampled_from([3, 4]),
              st.integers(0, 1000)),
    st.builds(lambda rows, cols: generate("grid-2d", rows=rows, cols=cols),
              st.integers(2, 20), st.integers(2, 20)),
    st.builds(lambda n: generate("complete", n=n), st.integers(2, 40)))


@settings(max_examples=60, deadline=None)
@given(g=GRAPHS, seed=st.integers(0, 2 ** 16), spread=st.booleans())
def test_certified_bounds_bracket_dense_spectra(g, seed, spread):
    check_bounds_bracket_dense(g, seed, spread)


@pytest.mark.parametrize("kind, params", [
    ("random-k-regular", {"n": 2000, "k": 3, "seed": 1}),
    ("grid-2d", {"rows": 40, "cols": 50})])
def test_certified_bounds_bracket_dense_spectra_at_n_2000(kind, params):
    check_bounds_bracket_dense(generate(kind, **params), 0)


def test_certified_bound_covers_an_unconverged_ritz_value(monkeypatch):
    # ten steps leave the Ritz value below the norm; the tail bound's
    # inflation, not the Ritz value, is what makes the bound sound
    monkeypatch.setattr(laplacian, "LANCZOS_STEPS", 10)
    g = generate("random-k-regular", n=400, k=3, seed=1)
    vals = np.linalg.eigvalsh(WeightedWalk(g, np.ones(g.n_edges)).W)
    bound = adjacency_slem(g)
    ritz = bound.spectral["ritz"]
    assert bound.spectral["steps"] == 10
    assert ritz < max(-vals[0], vals[-2]) <= bound
    e = (math.log(1.648 * math.sqrt(400) / SPECTRAL_DELTA) / 19) ** 2
    assert bound >= ritz / math.sqrt(1.0 - e)


@pytest.fixture(scope="module")
def expander20k():
    return generate("random-k-regular", n=20_000, k=3, seed=1)


def test_constants_form_no_n_by_n_array(expander20k):
    # an n x n float array at n = 2e4 is 3.2 GB
    g = expander20k
    rng = np.random.default_rng(0)
    problem = FlowProblem(g, ObjectiveBundle([
        EdgeCost("quadratic", a=a) for a in rng.uniform(1.0, 2.0, g.n_edges)
    ]), np.zeros(g.n_vertices))
    assert traced_peak_mb(lambda: budget_for(problem)) < 64
    pert = antipodal_perturbation(g)
    assert traced_peak_mb(lambda: measure_decay(
        problem, pert, [[0], [1, 2], [g.n_edges - 1]])) < 64


def test_measure_decay_distance_zero_case(expander200):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    pert = antipodal_perturbation(g)
    z0 = next(iter(pert.support))
    touching = [k for k in range(g.n_edges)
                if z0 in (g.tails[k], g.heads[k])]
    report = measure_decay(problem, pert, [touching[:1]])
    row = report.rows[0]
    assert row.distance == 0
    assert row.bound == pytest.approx(
        row.c / (1.0 - report.lam) * report.p_norm_Z)
    assert row.measured <= row.bound + 1e-9


def test_measure_decay_all_bounds_hold(expander200):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    pert = antipodal_perturbation(g)
    report = measure_decay(problem, pert,
                           [[k] for k in range(0, g.n_edges, 7)])
    assert report.constants_mode == "exact"
    for row in report.rows:
        assert row.measured <= row.bound + 1e-9


def test_measure_decay_median_decreasing(expander200):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    pert = antipodal_perturbation(g)
    report = measure_decay(problem, pert, [[k] for k in range(g.n_edges)])
    buckets = {}
    for row in report.rows:
        buckets.setdefault(row.distance, []).append(row.measured)
    dists = sorted(buckets)
    medians = [float(np.median(buckets[d])) for d in dists]
    # medians over the populated distance range should trend down; allow
    # the sparse extreme buckets to wobble
    core = medians[: max(2, len(medians) - 1)]
    assert all(m2 <= m1 * 1.5 for m1, m2 in zip(core, core[1:]))
    assert medians[-1] < medians[0]


def test_measure_decay_envelope_mode(rng):
    g = k4()
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges, (1.0, 1.0),
                                            (0.1, 0.1)),
                          random_balanced(rng, 4, 0.3))
    pert = PerturbationSpec(g, np.array([1.0, -1.0, 0.0, 0.0]))
    report = measure_decay(problem, pert, [[0], [3]])
    assert report.constants_mode == "envelope"
    for row in report.rows:
        assert row.measured <= row.bound + 1e-9


def dense_decay_rate(problem, walk):
    """The decay rate from dense eigensolves: the walk's second eigenvalue
    in magnitude in exact mode, the envelope of the adjacency's otherwise."""
    if problem.bundle.all_quadratic:
        return walk.spectrum().lam
    g = problem.graph
    vals = np.linalg.eigvalsh(WeightedWalk(g, np.ones(g.n_edges)).W)
    mu = max(abs(vals[-2]), abs(vals[0]))
    k_plus, k_minus = g.degrees().max(), g.degrees().min()
    return problem.bundle.Q * (k_plus + mu) / k_minus - 1.0


def reference_decay(problem, pert, F_sets, lam):
    """measure_decay rows as (edge ids, distance, measured, bound, c) at
    decay rate lam, with one BFS per F and a loop over every edge for the
    exact-mode weight."""
    g = problem.graph
    exact = problem.bundle.all_quadratic
    op = sensitivity_operator(problem)
    deriv = op.apply(pert.p)
    Z = sorted(pert.support)
    p_norm = float(np.linalg.norm(pert.p[Z])) if Z else 0.0
    rows = []
    nbrs, deg = neighbors(g), g.degrees()
    for F in F_sets:
        idx = [g.edge_index[e] if isinstance(e, str) else int(e) for e in F]
        U = {int(v) for k in idx for v in (g.tails[k], g.heads[k])}
        dist = geodesic_distance(g, U, Z) if Z else 0
        maxsq = math.sqrt(2.0 * max(sum(1 for w in nbrs[v] if w in U)
                                    for v in U))
        if exact:
            max_w = 0.0
            for k in range(g.n_edges):
                if int(g.tails[k]) in U and int(g.heads[k]) in U:
                    max_w = max(max_w, op.walk.weights[k])
            c = maxsq / min(op.walk.d[v] for v in U) * max_w
        else:
            c = maxsq * problem.bundle.Q / min(deg[v] for v in U)
        rows.append((tuple(g.edges[k][0] for k in idx), dist,
                     float(np.linalg.norm(deriv[idx])),
                     c * lam ** dist / (1.0 - lam) * p_norm, c))
    return rows


@pytest.mark.parametrize("kind", ["quadratic", "log-cosh"])
def test_measure_decay_matches_reference(kind):
    g = generate("random-k-regular", n=60, k=3, seed=7)
    rng = np.random.default_rng(3)
    a = rng.uniform(1.0, 1.01, g.n_edges)
    if kind == "quadratic":
        costs = [EdgeCost(kind, a=x, c=y)
                 for x, y in zip(a, rng.standard_normal(g.n_edges))]
    else:  # Q <= 1.02 keeps the envelope rate below 1
        costs = [EdgeCost(kind, a=x, s=y)
                 for x, y in zip(a, rng.uniform(0.0, 0.01, g.n_edges))]
    problem = FlowProblem(g, ObjectiveBundle(costs),
                          random_balanced(rng, g.n_vertices))
    p = np.zeros(g.n_vertices)
    p[[0, 5, 9]] = [1.0, -0.5, -0.5]
    pert = PerturbationSpec(g, p)
    F_sets = [[int(k) for k in rng.choice(g.n_edges, size=size,
                                          replace=False)]
              for size in (1, 2, 3, 5, 8) for _ in range(6)]
    F_sets += [[g.edges[k][0] for k in F] for F in F_sets[::3]]
    report = measure_decay(problem, pert, F_sets)
    rows = reference_decay(problem, pert, F_sets, report.lam)
    assert report.constants_mode == ("exact" if kind == "quadratic"
                                     else "envelope")
    dense = dense_decay_rate(problem, sensitivity_operator(problem).walk)
    assert dense <= report.lam <= 1.01 * dense
    assert [(r.edge_ids, r.distance, r.measured, r.bound, r.c)
            for r in report.rows] == rows


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 16),
       n_sets=st.integers(1, 10), kind=st.sampled_from(["quadratic",
                                                         "log-cosh"]))
def test_measure_decay_resolves_many_sets_as_the_reference(seed, n, n_sets,
                                                           kind):
    rng = np.random.default_rng(seed)
    # dense enough that a decay rate below 1 usually exists
    g = random_connected_graph(rng, n, extra_edges=2 * n)
    a = rng.uniform(1.0, 1.01, g.n_edges)
    if kind == "quadratic":
        bundle = ObjectiveBundle.from_arrays(
            kind, a, c=rng.standard_normal(g.n_edges))
    else:
        bundle = ObjectiveBundle.from_arrays(
            kind, a, s=rng.uniform(0.0, 0.01, g.n_edges))
    problem = FlowProblem(g, bundle, random_balanced(rng, n))
    pert = PerturbationSpec(g, random_balanced(rng, n))
    # drawn with replacement, so an edge can repeat inside a set and sets
    # overlap; each entry an id or an index
    F_sets = [[g.edges[k][0] if rng.random() < 0.5 else int(k)
               for k in rng.integers(0, g.n_edges, size=size)]
              for size in rng.integers(1, 9, size=n_sets)]
    F_sets[0] += F_sets[0][:1]
    try:
        report = measure_decay(problem, pert, F_sets)
    except LocalityError as exc:
        assume("spectral gap" not in str(exc))
        raise
    assert [(r.edge_ids, r.distance, r.measured, r.bound, r.c)
            for r in report.rows] == reference_decay(problem, pert, F_sets,
                                                     report.lam)


def test_measure_decay_checks_sets_before_rate():
    g = generate("cycle", n=6)  # bipartite: no rate below 1 exists
    problem = quadratic_problem(g, np.zeros(6))
    pert = PerturbationSpec(g, np.array([1, -1, 0, 0, 0, 0.0]))
    report = measure_decay(problem, pert, [])
    assert report.rows == [] and report.lam is None
    with pytest.raises(LocalityError, match="empty"):
        measure_decay(problem, pert, [[0], []])


def test_measure_decay_rejects_empty_edge_set():
    g = triangle()
    problem = quadratic_problem(g, np.zeros(3))
    pert = PerturbationSpec(g, np.array([1.0, -1.0, 0.0]))
    with pytest.raises(LocalityError, match="empty edge set"):
        measure_decay(problem, pert, [[]])
    # every id is resolved first: one unknown after an empty set is named
    with pytest.raises(GraphError, match="unknown edge id: nope"):
        measure_decay(problem, pert, [[], ["e12"], ["nope"]])


def test_measure_decay_bipartite_errors():
    g = generate("cycle", n=6)  # bipartite: lambda = 1
    problem = quadratic_problem(g, np.zeros(6))
    pert = PerturbationSpec(g, np.array([1, -1, 0, 0, 0, 0.0]))
    with pytest.raises(LocalityError, match="spectral gap"):
        measure_decay(problem, pert, [[0]])


def test_set_to_point_bounds(expander200):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    rng = np.random.default_rng(5)
    for _ in range(50):
        e = int(rng.integers(0, g.n_edges))
        F = [int(k) for k in rng.choice(g.n_edges, size=4, replace=False)]
        measured, bound = set_to_point(problem, e, F)
        assert measured <= bound + 1e-9


def test_set_to_point_self_edge(expander200):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    measured, bound = set_to_point(problem, 0, [0])
    assert measured <= bound + 1e-9
    assert measured > 0.0


def test_set_to_point_bound_independent_of_set_size(expander200):
    # doubling F with a vertex-disjoint edge at the same distance leaves
    # the bound unchanged: it depends on the distance and the inner
    # degrees, not on |F|
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    e = 0
    V_e = induced_vertex_set(g, [e])
    by_dist = {}
    for k in range(g.n_edges):
        d = geodesic_distance(g, induced_vertex_set(g, [k]), V_e)
        by_dist.setdefault(d, []).append(k)
    target = next(d for d in sorted(by_dist) if d >= 2
                  and len(by_dist[d]) >= 2)
    f1 = by_dist[target][0]
    f2 = next(k for k in by_dist[target][1:]
              if not (induced_vertex_set(g, [k])
                      & induced_vertex_set(g, [f1])))
    _, bound1 = set_to_point(problem, e, [f1])
    _, bound2 = set_to_point(problem, e, [f1, f2])
    assert bound2 == pytest.approx(bound1, abs=1e-12)


def test_point_to_set_bounds(expander200):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    rng = np.random.default_rng(6)
    for _ in range(50):
        f = int(rng.integers(0, g.n_edges))
        F = [int(k) for k in rng.choice(g.n_edges, size=4, replace=False)]
        measured, bound = point_to_set(problem, f, F)
        assert measured <= bound + 1e-9


def test_point_to_set_single_edge(expander200):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    m1, _ = point_to_set(problem, 5, [5])
    m2, _ = set_to_point(problem, 5, [5])
    assert m1 == pytest.approx(m2, abs=1e-12)


def test_point_to_set_symmetry_with_pinv(expander200):
    # with uniform quadratic costs the derivative of edge f under the
    # perturbation of edge e is W (e_u-e_v)^T L^+ (e_w-e_z), symmetric
    # under swapping (e, f)
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    m_ef, _ = point_to_set(problem, 3, [11])
    m_fe, _ = point_to_set(problem, 11, [3])
    assert m_ef == pytest.approx(m_fe, abs=1e-10)


def test_interlacing_k4_equality():
    g = k4()
    walk = WeightedWalk(g, np.ones(g.n_edges))
    lam_prime, bound, _ = interlacing_bound(g, walk, 1.0, 1.0)
    assert lam_prime == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert bound == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_interlacing_uniform_weights_specialize():
    g = generate("random-k-regular", n=20, k=3, seed=2)
    walk = WeightedWalk(g, np.full(g.n_edges, 0.7))
    lam_prime, bound, _ = interlacing_bound(g, walk, 0.7, 0.7)
    mu = adjacency_slem(g)
    assert bound == pytest.approx(3.0 / 3.0 - 1.0 + mu / 3.0)
    assert lam_prime <= bound + 1e-10


def test_interlacing_rejects_weight_outside_range():
    g = k4()
    walk = WeightedWalk(g, np.ones(g.n_edges))
    with pytest.raises(LocalityError, match="outside"):
        interlacing_bound(g, walk, 2.0, 3.0)


def test_interlacing_seeded_subgraph_sweep():
    g = generate("random-k-regular", n=100, k=3, seed=13)
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 100:
        center = "v%d" % int(rng.integers(0, 100))
        sub = ball_subgraph(g, center, int(rng.integers(1, 4)))
        e_in = sub.e_in
        if len(e_in) < 2:
            continue
        verts = [g.vertices[v] for v in sub.v_in]
        edges = [g.edges[k] for k in e_in]
        try:
            sub_graph = DirectedGraph(verts, edges)
        except Exception:
            continue
        w_minus, w_plus = 0.5, 1.5
        weights = rng.uniform(w_minus, w_plus, len(e_in))
        walk = WeightedWalk(sub_graph, weights)
        lam_prime, bound, _ = interlacing_bound(g, walk, w_minus, w_plus)
        assert lam_prime <= bound + 1e-10
        checked += 1


def test_bias_variance_whole_graph_no_bias(rng):
    g = random_connected_graph(rng, 12, extra_edges=8)
    problem = quadratic_problem(g, random_balanced(rng, g.n_vertices))
    pert = PerturbationSpec(g, random_balanced(rng, g.n_vertices))
    sub = SubgraphSpec(g, range(g.n_vertices))
    out = bias_variance(problem, pert, sub, t=5)
    assert np.abs(out.bias).max() < 1e-9
    assert out.bias_bound == 0.0


def test_bias_variance_zero_perturbation():
    g = triangle()
    problem = quadratic_problem(g, np.array([1.0, -1.0, 0.0]))
    pert = PerturbationSpec(g, np.zeros(3))
    out = bias_variance(problem, pert, SubgraphSpec(g, range(3)), t=3)
    assert np.abs(out.bias).max() == 0.0
    assert np.abs(out.variance).max() == 0.0


def test_bias_variance_refuses_a_foreign_subgraph_by_name():
    g, other = generate("cycle", n=6), generate("cycle", n=6)
    problem = quadratic_problem(g, np.zeros(6))
    p = np.zeros(6)
    p[0], p[1] = 1.0, -1.0
    for pert in (PerturbationSpec(g, np.zeros(6)), PerturbationSpec(g, p)):
        with pytest.raises(SolverError, match="does not belong"):
            bias_variance(problem, pert, ball_subgraph(other, 0, 2), t=3)


def test_bias_variance_refuses_support_outside_before_any_solve(
        expander200, monkeypatch):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the support was checked")

    monkeypatch.setattr(locality, "solve_exact", no_solve)
    with pytest.raises(LocalityError, match="support not inside"):
        bias_variance(problem, antipodal_perturbation(g),
                      ball_subgraph(g, g.vertices[0], 1), t=3)


def test_bias_variance_identity_and_support(expander200):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    center = g.vertices[0]
    sub = ball_subgraph(g, center, 3)
    p = np.zeros(g.n_vertices)
    p[0] = 1.0
    p[neighbors(g)[0][0]] = -1.0
    pert = PerturbationSpec(g, p)
    out = bias_variance(problem, pert, sub, t=20)
    # exact vector identity
    assert np.abs(out.error - (out.bias + out.variance)).max() < 1e-12
    # variance is supported on the subgraph's edges only
    outside = np.setdiff1d(np.arange(g.n_edges), sub.e_in)
    assert np.abs(out.variance[outside]).max() == 0.0
    assert out.budget.valid
    assert np.linalg.norm(out.bias) <= out.bias_bound + 1e-9
    assert np.linalg.norm(out.variance) <= out.variance_bound + 1e-9


def test_bias_variance_radius_sweep(expander200):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    p = np.zeros(g.n_vertices)
    p[0] = 1.0
    p[neighbors(g)[0][0]] = -1.0
    pert = PerturbationSpec(g, p)
    p_norm = float(np.linalg.norm(p))
    budget = budget_for(problem)
    assert budget.valid
    for r in range(1, 7):
        sub = ball_subgraph(g, g.vertices[0], r)
        for t in (1, 10, 100):
            out = bias_variance(problem, pert, sub, t=t)
            assert np.linalg.norm(out.bias) <= \
                budget.bias_bound(p_norm, out.boundary_distance,
                                  sub.is_whole_graph) + 1e-9
            assert np.linalg.norm(out.variance) <= \
                budget.variance_bound(p_norm, t) + 1e-9


def test_budget_constants_regular_graph(expander200):
    problem = quadratic_problem(expander200,
                                np.zeros(expander200.n_vertices))
    budget = budget_for(problem)
    mu = adjacency_slem(expander200)
    assert budget.k_plus == budget.k_minus == 3
    assert budget.Q == 1.0
    assert budget.rho == pytest.approx(mu / 3.0)
    assert budget.c == pytest.approx(math.sqrt(6.0) / 3.0)
    assert budget.gamma == pytest.approx(
        budget.c * (1.0 + budget.c * math.sqrt(2.0)))
    assert budget.spectral == mu.spectral


@pytest.mark.parametrize("s", [0.0, 0.005])
def test_envelope_constants_agree_across_entry_points(expander200, s):
    # one 3-regular family seen through every entry point of the
    # interlacing envelope: budget, decay rate, tuner and interlacing
    g = expander200
    problem = FlowProblem(
        g, ObjectiveBundle([EdgeCost("log-cosh", a=1.0, s=s)] * g.n_edges),
        np.zeros(g.n_vertices))
    Q, mu = problem.bundle.Q, adjacency_slem(g)
    budget = budget_for(problem)
    tuned = tune(TunerFamily(Q, 3, mu), 1e-3)
    walk = WeightedWalk(g, np.ones(g.n_edges))
    _, bound, _ = interlacing_bound(g, walk, 1.0, Q)
    assert tuned.rho == budget.rho
    assert bound == budget.rho
    assert tuned.nu_var * (1.0 - tuned.rho) == pytest.approx(budget.c)


def test_tune_closed_forms():
    family = TunerFamily(Q=1.0, k=3, mu=2.8, z=1, p_norm=1.0)
    eps = 1e-3
    result = tune(family, eps)
    rho = 1.0 - 1.0 + 2.8 / 3.0
    c = math.sqrt(2.0) / math.sqrt(3.0)
    gamma = c * (1.0 + c * math.sqrt(2.0))
    nu_bias = gamma / ((1.0 - rho) ** 2 * rho)
    nu_var = c / (1.0 - rho)
    assert result.rho == pytest.approx(rho)
    assert result.r == math.ceil(math.log(2 * nu_bias / eps)
                                 / math.log(1.0 / rho))
    assert result.t == math.ceil(2.0 * math.log(2 * nu_var / eps))
    # tuned values satisfy the half budgets
    assert nu_bias * rho ** result.r <= eps / 2 + 1e-15
    assert nu_var * math.exp(-result.t / 2.0) <= eps / 2 + 1e-15
    assert result.predicted_cost == pytest.approx(
        (3.0 ** result.r) ** 3 * result.t)


def test_an_invalid_budget_bounds_nothing():
    # the grid's degrees 2 to 4 and mu = 4.01 give rho = 3 at Q = 1: no
    # ball certifies a bias or a variance, and only the whole graph's
    # zero bias stands
    budget = ErrorBudget.envelope(1.0, 4, 2, 4.01)
    assert budget.rho >= 1.0 and not budget.valid
    assert budget.bias_bound(1.0, 3, False) == math.inf
    assert budget.variance_bound(1.0, 10) == math.inf
    assert budget.bias_bound(1.0, 3, True) == 0.0


@settings(max_examples=200, deadline=None)
@given(k=st.integers(3, 32), mu_frac=st.floats(0.0, 1.0, exclude_min=True),
       q_frac=st.floats(0.0, 1.0, exclude_max=True), z=st.integers(0, 3),
       p_norm=st.floats(1e-100, 1e100),
       eps=st.floats(0.0, 1e300, exclude_min=True))
# past the float range: rho^-z, and so nu_bias; then 2 nu / eps
@example(k=3, mu_frac=1e-200, q_frac=0.0, z=2, p_norm=1.0, eps=1e-3)
@example(k=3, mu_frac=0.99, q_frac=0.0, z=2, p_norm=1.0, eps=1e-310)
def test_tune_inverts_the_budget_bounds(k, mu_frac, q_frac, z, p_norm, eps):
    # a valid regular family: mu in (0, 2 sqrt(k - 1)], the Ramanujan
    # bound, and Q from 1 up to where rho = Q (1 + mu/k) - 1 reaches 1;
    # p_norm within 1e+-100 keeps p_norm gamma a finite float
    mu = mu_frac * 2.0 * math.sqrt(k - 1)
    Q = 1.0 + q_frac * (2.0 / (1.0 + mu / k) - 1.0)
    budget = ErrorBudget.envelope(Q, k, k, mu)
    assume(0.0 < budget.rho < 1.0)
    result = tune(TunerFamily(Q, k, mu, z=z, p_norm=p_norm), eps)
    # r and t are exactly the least integers >= 1 whose bounds meet eps/2
    bias = [budget.bias_bound(p_norm, r - z, False)
            for r in (result.r - 1, result.r)]
    var = [budget.variance_bound(p_norm, t)
           for t in (result.t - 1, result.t)]
    assert bias[1] <= eps / 2.0 and var[1] <= eps / 2.0
    assert result.r == 1 or bias[0] > eps / 2.0
    assert result.t == 1 or var[0] > eps / 2.0
    assert result.nu_bias == budget.bias_bound(p_norm, -z, False)
    assert result.nu_var == budget.variance_bound(p_norm, 0)
    assert result.xi_bias == -math.log(result.rho)


def test_tune_refuses_a_bound_that_overflows():
    # p_norm gamma overflows, so no r has a finite bias bound
    with pytest.raises(LocalityError, match="overflows"):
        tune(TunerFamily(Q=1.0, k=3, mu=2.8, p_norm=1.7e308), 1e-3)


def test_tune_floors_at_one():
    family = TunerFamily(Q=1.0, k=3, mu=0.3, z=1)
    result = tune(family, eps=1e6)
    assert result.r == 1
    assert result.t == 1


def test_tune_halving_eps_monotone():
    family = TunerFamily(Q=1.0, k=3, mu=2.8)
    r1 = tune(family, 1e-2).r
    r2 = tune(family, 5e-3).r
    xi = math.log(1.0 / tune(family, 1e-2).rho)
    assert r1 <= r2 <= r1 + math.ceil(math.log(2.0) / xi)


def test_tune_invalid_rho():
    family = TunerFamily(Q=2.0, k=3, mu=2.8)
    with pytest.raises(LocalityError, match="budget invalid"):
        tune(family, 1e-3)
    with pytest.raises(LocalityError, match="positive"):
        tune(TunerFamily(Q=1.0, k=3, mu=0.5), -1.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30),
       extra=st.integers(0, 30), n_sets=st.integers(1, 6))
def test_set_constants_match_a_loop_over_the_edges(seed, n, extra, n_sets):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=extra)
    problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges), np.zeros(n))
    walk = WeightedWalk(g, rng.uniform(0.1, 3.0, g.n_edges))
    # one vertex up to the whole graph
    Us = [np.sort(rng.choice(n, size=size, replace=False))
          for size in rng.integers(1, n + 1, size=n_sets)] + [np.arange(n)]
    for mode in ("exact", "envelope"):
        got = _set_constants(problem, walk, np.concatenate(Us),
                             np.array([len(U) for U in Us]), mode)
        for j, U in enumerate(Us):
            ids = {g.vertices[v] for v in U.tolist()}
            inner_degree = dict.fromkeys(ids, 0)
            degree = dict.fromkeys(ids, 0)
            max_w = 0.0
            for k, (_, t, h) in enumerate(g.edges):
                for end in {t, h} & ids:
                    degree[end] += 1
                if t in ids and h in ids:
                    inner_degree[t] += 1
                    inner_degree[h] += 1
                    max_w = max(max_w, walk.weights[k])
            maxsq = math.sqrt(2.0 * max(inner_degree.values()))
            if mode == "exact":
                min_d = min(walk.d[g.vertex_index[v]] for v in ids)
                c = maxsq / min_d * max_w
            else:
                min_d = min(degree.values())
                c = maxsq * problem.bundle.Q / min_d
            assert (got[0][j], got[1][j], got[2][j]) == (c, maxsq, min_d)
