import hashlib
import json
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localflow import graph as graph_module
from localflow import (DirectedGraph, GraphError, PerturbationSpec,
                       SubgraphSpec, WeightedWalk, ball_subgraph, generate,
                       geodesic_distance, measure_decay)
from conftest import (neighbors, path, quadratic_problem,
                      random_connected_graph, triangle)
from oracles import (RestrictedLaplacian, green_difference, incidence,
                     induced_vertex_set, point_to_set, radius_max,
                     set_to_point)


def test_incidence_two_vertices():
    g = DirectedGraph(["1", "2"], [("e1", "1", "2")])
    A = incidence(g)
    assert A.tolist() == [[1.0], [-1.0]]


def test_incidence_triangle_columns():
    A = incidence(triangle())
    expected = np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1]], dtype=float)
    assert np.array_equal(A, expected)


def test_incidence_columns_sum_to_zero(rng):
    g = random_connected_graph(rng, 25, extra_edges=15)
    A = incidence(g)
    assert np.abs(A.sum(axis=0)).max() == 0.0


def test_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        DirectedGraph(["a", "b"], [("e", "a", "a")])


def test_rejects_duplicate_pair_any_orientation():
    with pytest.raises(GraphError, match="multiple edges"):
        DirectedGraph(["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")])


def test_rejects_unknown_endpoint():
    with pytest.raises(GraphError, match="unknown endpoint id: c"):
        DirectedGraph(["a", "b"], [("e1", "a", "c")])


def test_rejects_duplicate_edge_id():
    with pytest.raises(GraphError, match="duplicate edge id"):
        DirectedGraph(["a", "b", "c"],
                      [("e", "a", "b"), ("e", "b", "c")])


def test_id_constructor_keeps_the_ids_it_was_given():
    """The ids, which shuffle the names an array-built graph would get,
    come back in the order given, as do their index maps."""
    vertices = ["v2", "v0", "x", "v1"]
    edges = [("e1", "v2", "v0"), ("e0", "x", "v0"), ("e7", "v1", "x"),
             ("b", "v2", "v1")]
    g = DirectedGraph(iter(vertices), iter(edges))
    assert g.vertices == vertices
    assert g.edges == edges
    assert g.vertex_index == {v: i for i, v in enumerate(vertices)}
    assert g.edge_index == {e[0]: k for k, e in enumerate(edges)}
    assert g.tails.tolist() == [0, 2, 3, 0]
    assert g.heads.tolist() == [1, 1, 2, 3]


def test_rejects_disconnected():
    with pytest.raises(GraphError, match="not connected"):
        DirectedGraph(["a", "b", "c", "d"],
                      [("e1", "a", "b"), ("e2", "c", "d")])


def test_geodesic_distance_path():
    g = path(4)
    assert geodesic_distance(g, {"1"}, {"4"}) == 3


def test_geodesic_distance_overlap_is_zero():
    g = path(4)
    assert geodesic_distance(g, {"1", "2"}, {"2", "3"}) == 0


def test_geodesic_distance_empty_set_errors():
    with pytest.raises(GraphError):
        geodesic_distance(path(3), set(), {"1"})


def test_induced_vertex_set():
    g = triangle()
    assert induced_vertex_set(g, ["e12"]) == {0, 1}
    assert induced_vertex_set(g, []) == set()
    assert induced_vertex_set(g, ["e12", "e23"]) == {0, 1, 2}


def test_ball_radius_zero():
    g = path(3)
    sub = ball_subgraph(g, "2", 0)
    assert sub.vertex_set == {1}
    assert sub.edge_set == frozenset()


def test_ball_cycle_radius_one():
    g = generate("cycle", n=6)
    sub = ball_subgraph(g, "v0", 1)
    assert sub.vertex_set == {0, 1, 5}


def test_ball_monotone_and_reaches_whole_graph(rng):
    g = random_connected_graph(rng, 30, extra_edges=10)
    rmax = radius_max(g, "v0")
    prev = set()
    for r in range(rmax + 1):
        cur = set(ball_subgraph(g, "v0", r).vertex_set)
        assert prev <= cur
        prev = cur
    assert prev == set(range(g.n_vertices))
    assert ball_subgraph(g, "v0", rmax).boundary == frozenset()


def test_boundary_definition(rng):
    g = random_connected_graph(rng, 20, extra_edges=8)
    sub = ball_subgraph(g, "v3", 2)
    nbrs = neighbors(g)
    for v in sub.vertex_set:
        outside = [w for w in nbrs[v] if w not in sub.vertex_set]
        if v in sub.boundary:
            assert outside
        else:
            assert not outside


def test_subgraph_requires_connected():
    g = path(4)
    with pytest.raises(GraphError, match="not connected"):
        SubgraphSpec(g, [0, 3])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_induced_matches_constructor_on_random_vertex_sets(seed):
    """`induced`, built from index arrays, is the graph the constructor
    builds from the subgraph's ids; a set the constructor finds
    disconnected raises "subgraph is not connected"."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 25)),
                               extra_edges=int(rng.integers(0, 30)))
    size = int(rng.integers(1, g.n_vertices + 1))
    vertices = rng.choice(g.n_vertices, size=size, replace=False)
    inside = set(vertices.tolist())
    ids = [g.vertices[v] for v in sorted(inside)]
    edges = [e for k, e in enumerate(g.edges)
             if g.tails[k] in inside and g.heads[k] in inside]
    try:
        want = DirectedGraph(ids, edges)
    except GraphError:
        with pytest.raises(GraphError, match="subgraph is not connected"):
            SubgraphSpec(g, vertices)
        return
    got = SubgraphSpec(g, vertices).induced
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    assert np.array_equal(got.tails, want.tails)
    assert np.array_equal(got.heads, want.heads)
    assert neighbors(got) == neighbors(want)
    assert got.vertex_index == want.vertex_index
    assert got.edge_index == want.edge_index


def test_generate_complete():
    g = generate("complete", n=4)
    assert g.n_edges == 6
    assert set(g.degrees()) == {3}


def test_generate_cycle():
    g = generate("cycle", n=5)
    assert g.n_edges == 5
    assert set(g.degrees()) == {2}


def test_generate_grid():
    g = generate("grid-2d", rows=3, cols=4)
    assert g.n_vertices == 12
    assert g.n_edges == 3 * 3 + 2 * 4


def test_generate_reads_named_parameters():
    assert generate("grid-2d", rows=2, cols=3).vertices[-1] == "v1_2"
    with pytest.raises(GraphError, match="unknown graph kind: star"):
        generate("star", n=5)


def test_generate_regular_deterministic():
    g1 = generate("random-k-regular", n=100, k=3, seed=7)
    g2 = generate("random-k-regular", n=100, k=3, seed=7)
    assert g1.edges == g2.edges
    assert set(g1.degrees()) == {3}


def test_generate_two_regular_is_one_random_cycle():
    # a connected simple 2-regular graph is a Hamiltonian cycle, drawn as
    # one permutation rather than pairings redrawn until one is a cycle
    n = 40_000
    start = time.perf_counter()
    g = generate("random-k-regular", n=n, k=2, seed=1)
    assert time.perf_counter() - start < 1.0
    assert g.n_edges == n and set(g.degrees()) == {2}
    ends = np.sort(np.stack((g.tails, g.heads)), axis=0)
    assert np.all(ends[0] < ends[1])  # no self-loop
    assert len(np.unique(ends, axis=1).T) == n  # no multi-edge
    assert np.all(g.bfs_distances([0]) >= 0)  # connected
    assert generate("random-k-regular", n=n, k=2, seed=2).edges != g.edges


def test_generate_regular_infeasible():
    with pytest.raises(GraphError):
        generate("random-k-regular", n=4, k=5, seed=0)
    with pytest.raises(GraphError):
        generate("random-k-regular", n=5, k=3, seed=0)


@pytest.mark.parametrize("n, k", [(3, 1), (4, 1), (4000, 1), (2, 0),
                                  (40, 0), (10, -1), (1, -2)])
def test_generate_regular_refuses_degrees_with_no_connected_graph(n, k):
    # refused before any pairing is drawn, not after REGULAR_MAX_TRIES
    with pytest.raises(GraphError, match="no connected simple %d-regular "
                       "graph on %d vertices exists" % (k, n)):
        generate("random-k-regular", n=n, k=k, seed=0)


def test_json_round_trip(rng):
    g = random_connected_graph(rng, 15, extra_edges=5)
    g2 = DirectedGraph.from_json_dict(
        json.loads(json.dumps(g.to_json_dict())))
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges


@pytest.mark.parametrize("make", [
    lambda: generate("random-k-regular", n=2000, k=3, seed=1),
    lambda: DirectedGraph(["\u00e9", "\u2192", '"q"'],
                          [("e\n", "\u00e9", "\u2192"),
                           ("f", "\u2192", '"q"')])],
    ids=["k3", "escaped-ids"])
def test_save_writes_the_bytes_of_json_dumps(tmp_path, make):
    # save streams the text through a temporary file, renamed into place;
    # the file holds the bytes of one json.dumps, and nothing else is left
    g = make()
    path = tmp_path / "graph.json"
    g.save(str(path))
    assert path.read_bytes() == json.dumps(g.to_json_dict(),
                                           indent=2).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["graph.json"]
    assert DirectedGraph.load(str(path)).edges == g.edges


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 40))
def test_incidence_left_null_space_property(seed, n):
    g = random_connected_graph(np.random.default_rng(seed), n, extra_edges=5)
    A = incidence(g)
    assert np.abs(np.ones(g.n_vertices) @ A).max() == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
def test_neighbors_and_degrees_match_edge_list(seed, n):
    g = random_connected_graph(np.random.default_rng(seed), n, extra_edges=n)
    nbrs = [set() for _ in range(n)]
    for _, t, h in g.edges:
        nbrs[g.vertex_index[t]].add(g.vertex_index[h])
        nbrs[g.vertex_index[h]].add(g.vertex_index[t])
    assert neighbors(g) == [sorted(s) for s in nbrs]
    assert g.degrees().tolist() == [len(s) for s in nbrs]


def _reference_distances(g, sources):
    """Distances from a queue-driven BFS over the neighbor lists."""
    dist = np.full(g.n_vertices, -1, dtype=np.intp)
    queue = deque(sources)
    dist[list(sources)] = 0
    nbrs = neighbors(g)
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _reference_ball(g, center, r):
    """The ball from a whole-graph BFS, as (vertices, edges, boundary)."""
    dist = _reference_distances(g, [center])
    verts = {int(v) for v in np.nonzero(dist <= r)[0]}
    edges = {k for k in range(g.n_edges)
             if g.tails[k] in verts and g.heads[k] in verts}
    nbrs = neighbors(g)
    boundary = {v for v in verts
                if any(w not in verts for w in nbrs[v])}
    return verts, edges, boundary


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["random-k-regular", "grid-2d", "cycle"]),
       st.integers(0, 10**6))
def test_local_ball_matches_whole_graph_bfs(kind, seed):
    """The depth-bounded ball equals the ball cut from a whole-graph BFS,
    for every radius up to the center's eccentricity."""
    rng = np.random.default_rng(seed)
    if kind == "random-k-regular":
        g = generate(kind, n=2 * int(rng.integers(5, 40)),
                     k=int(rng.integers(3, 5)), seed=seed)
    elif kind == "grid-2d":
        g = generate(kind, rows=int(rng.integers(1, 8)),
                     cols=int(rng.integers(2, 8)))
    else:
        g = generate(kind, n=int(rng.integers(3, 40)))
    center = int(rng.integers(g.n_vertices))
    for r in range(radius_max(g, center) + 1):
        sub = ball_subgraph(g, center, r)
        verts, edges, boundary = _reference_ball(g, center, r)
        assert sub.vertex_set == verts
        assert sub.edge_set == edges
        assert sub.boundary == boundary
        assert sub.v_in.tolist() == sorted(verts)
        assert sub.e_in.tolist() == sorted(edges)
        assert sub.cut.tolist() == [
            k for k in range(g.n_edges)
            if (g.tails[k] in verts) != (g.heads[k] in verts)]
        assert sub.is_whole_graph == (len(verts) == g.n_vertices)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["random", "grid", "tree"]))
def test_array_bfs_ball_and_tree(seed, shape):
    """On random graphs, grids and trees, with a random center and radius:
    bfs_distances matches a queue-driven BFS from one or more sources, the
    ball matches the ball cut from it, and each vertex's tree edge joins
    it, at depth d, to a ball vertex at depth d - 1."""
    rng = np.random.default_rng(seed)
    if shape == "grid":
        g = generate("grid-2d", rows=int(rng.integers(1, 9)),
                     cols=int(rng.integers(2, 9)))
    else:
        g = random_connected_graph(
            rng, int(rng.integers(2, 40)),
            extra_edges=0 if shape == "tree" else int(rng.integers(0, 60)))
    sources = rng.choice(g.n_vertices, replace=False,
                         size=int(rng.integers(1, min(g.n_vertices, 3) + 1)))
    sources = sources.tolist()
    assert np.array_equal(g.bfs_distances(sources),
                          _reference_distances(g, sources))
    center, r = int(rng.integers(g.n_vertices)), int(rng.integers(0, 8))
    sub = ball_subgraph(g, center, r)
    verts, edges, boundary = _reference_ball(g, center, r)
    assert sub.v_in.tolist() == sorted(verts)
    assert sub.e_in.tolist() == sorted(edges)
    assert sub.cut.tolist() == [
        k for k in range(g.n_edges)
        if (g.tails[k] in verts) != (g.heads[k] in verts)]
    assert sub.boundary == boundary
    dist = _reference_distances(g, [center])
    assert np.array_equal(sub.depth, dist[sub.v_in])
    assert sub.depth.max() <= r
    root = sub.tree_edge < 0
    assert sub.v_in[root].tolist() == [center]
    child = np.flatnonzero(~root)
    edge = sub.e_in[sub.tree_edge[child]]
    ends = np.stack((g.tails[edge], g.heads[edge]))
    assert (ends == sub.v_in[child]).any(axis=0).all()
    up = ends.sum(axis=0) - sub.v_in[child]
    assert np.isin(up, sub.v_in).all()
    assert np.array_equal(dist[up], sub.depth[child] - 1)


@pytest.mark.parametrize("failing_call", [1, 2, 4])
def test_interrupted_search_leaves_later_balls_as_a_fresh_bfs(
        monkeypatch, failing_call):
    """A search keeps its visited marks in a per-graph scratch and undoes
    them on the way out: a ball whose search raises part way (here at its
    first, second or fourth level expansion) leaves no mark behind, and
    every later ball and distance is that of a fresh BFS."""
    g = generate("grid-2d", rows=9, cols=11)
    slots, calls = graph_module._slots, []

    def failing_slots(*args):
        calls.append(None)
        if len(calls) == failing_call:
            raise MemoryError("interrupted")
        return slots(*args)

    monkeypatch.setattr(graph_module, "_slots", failing_slots)
    with pytest.raises(MemoryError):
        ball_subgraph(g, 40, 5)
    monkeypatch.undo()
    assert (g._mark == -1).all()
    for center, r in ((40, 5), (0, 3), (98, 12)):
        sub = ball_subgraph(g, center, r)
        verts, edges, boundary = _reference_ball(g, center, r)
        assert sub.v_in.tolist() == sorted(verts)
        assert sub.e_in.tolist() == sorted(edges)
        assert sub.boundary == boundary
        assert np.array_equal(sub.depth,
                              _reference_distances(g, [center])[sub.v_in])
    assert np.array_equal(g.bfs_distances([5]), _reference_distances(g, [5]))


@pytest.mark.parametrize("radius", [2.5, float("nan"), -1, float("inf"),
                                    "2", None, True, False, np.True_])
def test_ball_radius_must_be_a_nonnegative_integer(radius):
    with pytest.raises(GraphError, match="radius must be a nonnegative"):
        ball_subgraph(path(4), "1", radius)


def test_ball_accepts_integral_radius_of_any_type():
    g = path(5)
    want = ball_subgraph(g, "1", 2).v_in.tolist()
    for radius in (2.0, np.int64(2), np.float64(2.0)):
        assert ball_subgraph(g, "1", radius).v_in.tolist() == want


# sha256 of json.dumps(g.edges) for generate("random-k-regular", n, k=3,
# seed): the benchmark's graphs and the README quick start
SAMPLER_SHA256 = {
    (200, 1): "230cefc8e67897e7c35f1b4bce7fcc551ff2f58f1bba3378e9aa94439457a276",
    (800, 1): "6732eb26d589bdfd3a20a220c251b1ebb7b74b32c5b4ad249a318249b38e82d7",
    (2000, 1): "f40d6d7c2e7c07c7904a4d70f3afb74a487c2525fb06fda5b0775db502cd6290",
    (200, 11): "f758aaece77ecd973aac366ec925026968fc612fac4b06f976ed33fbc290e242",
}


@pytest.mark.parametrize("n, seed", sorted(SAMPLER_SHA256))
def test_sampler_draws_are_pinned(n, seed):
    g = generate("random-k-regular", n=n, k=3, seed=seed)
    digest = hashlib.sha256(json.dumps(g.edges).encode()).hexdigest()
    assert digest == SAMPLER_SHA256[n, seed]


# sha256 of json.dumps(g.to_json_dict()) for one member of every family,
# ids included
GENERATOR_SHA256 = {
    ("complete", (("n", 7),)):
        "90bf171eed0df85b2f93cb5805a410aa2cf7b10debab1ff7bdcd5d9ba870806a",
    ("cycle", (("n", 9),)):
        "d2ac85566e32a13b38e1727dc0c59b4dd62dc66b37ec4c73449995b4414b58a4",
    ("grid-2d", (("rows", 3), ("cols", 5))):
        "75647349f2a2acbdbc7a6687efedc3ec1fa00fefb47bde831e4d1579e38802ad",
    ("random-k-regular", (("n", 200), ("k", 3), ("seed", 1))):
        "130074a7d38846065501991c44d516c85da433c5c5e285d3c02b26b1c5ea4c35",
}


@pytest.mark.parametrize("kind, params", sorted(GENERATOR_SHA256))
def test_generator_output_is_pinned(kind, params):
    g = generate(kind, **dict(params))
    digest = hashlib.sha256(json.dumps(g.to_json_dict()).encode()).hexdigest()
    assert digest == GENERATOR_SHA256[kind, params]


def _refusal(build):
    try:
        build()
    except GraphError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 8),
       pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                      max_size=12))
@example(n=3, pairs=[(0, 1), (1, 1), (1, 2)])  # self-loop
@example(n=3, pairs=[(0, 1), (1, 2), (2, 1)])  # pair repeated, reversed
@example(n=3, pairs=[(0, 1), (0, 1), (1, 2)])  # pair repeated
@example(n=4, pairs=[(0, 1), (2, 3)])  # disconnected
def test_from_arrays_refuses_as_the_id_constructor(n, pairs):
    """On index arrays and on the same graph with default ids, both
    constructors refuse with the same message, or build the same graph."""
    tails = [t % n for t, _ in pairs]
    heads = [h % n for _, h in pairs]
    ids = (["v%d" % i for i in range(n)],
           [("e%d" % k, "v%d" % t, "v%d" % h)
            for k, (t, h) in enumerate(zip(tails, heads))])
    message = _refusal(lambda: DirectedGraph(*ids))
    assert _refusal(lambda: DirectedGraph.from_arrays(n, tails, heads)) \
        == message
    if message is None:
        g = DirectedGraph.from_arrays(n, tails, heads)
        want = DirectedGraph(*ids)
        assert (g.vertices, g.edges) == (want.vertices, want.edges)
        assert neighbors(g) == neighbors(want)


@pytest.mark.parametrize("tails, heads", [
    ([0, 3], [1, 1]), ([0, -1], [1, 1]), ([0, 1], [1]), ([0.0, 1.9], [1, 2]),
    ([0, 1], [1.0, 2.0]), ([True, False], [1, 2]), ([[0, 1]], [[1, 2]])])
def test_from_arrays_refuses_bad_index_arrays(tails, heads):
    """Index arrays that are not integer, of unequal length or out of
    range(n) are refused, never cast: 1.9 does not become 1."""
    with pytest.raises(GraphError, match="one length, in range"):
        DirectedGraph.from_arrays(3, tails, heads)


def _resolver_callers(g):
    """Each public caller of the id/index resolvers, as (takes edges,
    call with one bad vertex or edge)."""
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    p = np.zeros(g.n_vertices)
    p[g.tails[0]], p[g.heads[0]] = 1.0, -1.0
    pert = PerturbationSpec(g, p)
    walk = WeightedWalk(g, np.ones(g.n_edges))
    return {
        "ball_subgraph": (False, lambda v: ball_subgraph(g, v, 1)),
        "radius_max": (False, lambda v: radius_max(g, v)),
        "SubgraphSpec": (False, lambda v: SubgraphSpec(g, [0, v])),
        "geodesic_distance": (False, lambda v: geodesic_distance(g, [0], [v])),
        "induced_vertex_set": (True, lambda e: induced_vertex_set(g, [0, e])),
        "measure_decay": (True, lambda e: measure_decay(problem, pert,
                                                        [[0], [e]])),
        "set_to_point": (True, lambda e: set_to_point(problem, e, [0])),
        "point_to_set": (True, lambda e: point_to_set(problem, 0, [e])),
        # the killed walk of a WeightedWalk, built by tests/oracles.py;
        # the key names what the test ids have always named
        "WeightedWalk.restricted": (False,
                                    lambda v: RestrictedLaplacian(walk, v)),
        "green_difference": (False, lambda v: green_difference(walk, 0, v,
                                                               1, 2)),
        "PerturbationSpec.from_mapping": (
            False, lambda v: PerturbationSpec.from_mapping(g, {v: 1.0,
                                                               0: -1.0})),
    }


@pytest.mark.parametrize("bad", ["unknown id", "index past the end", "-1"])
@pytest.mark.parametrize("caller", sorted(_resolver_callers(path(3))))
def test_bad_ids_and_indices_raise(caller, bad):
    g = generate("random-k-regular", n=20, k=3, seed=1)
    takes_edges, call = _resolver_callers(g)[caller]
    size = g.n_edges if takes_edges else g.n_vertices
    value = {"unknown id": "nope", "index past the end": size, "-1": -1}[bad]
    with pytest.raises(GraphError, match="unknown .* id: nope|out of range"):
        call(value)


def _expected_fault(vertices, edges):
    """The message of the first fault of the first failing class, in the
    documented order, or None for a valid graph."""
    if len(set(vertices)) < len(vertices):
        return "duplicate vertex ids"
    seen = set()
    for eid, _, _ in edges:
        if eid in seen:
            return "duplicate edge id: %s" % eid
        seen.add(eid)
    for v in (v for _, t, h in edges for v in (t, h)):
        if v not in vertices:
            return "unknown endpoint id: %s" % v
    for _, t, h in edges:
        if t == h:
            return "self-loop on vertex: %s" % t
    pairs = set()
    for _, t, h in edges:
        if frozenset((t, h)) in pairs:
            return "multiple edges between vertices: %s, %s" % (t, h)
        pairs.add(frozenset((t, h)))
    reached, stack = {vertices[0]}, [vertices[0]]
    while stack:
        u = stack.pop()
        for _, t, h in edges:
            for a, b in ((t, h), (h, t)):
                if a == u and b not in reached:
                    reached.add(b)
                    stack.append(b)
    return None if len(reached) == len(vertices) else "graph is not connected"


def _inject(rng, vertices, edges, fault, tag):
    """Put one fault into the vertex and edge lists, in place."""
    def insert(edge):
        edges.insert(int(rng.integers(len(edges) + 1)), edge)
    j = int(rng.integers(len(edges)))
    eid, t, h = edges[j]
    if fault == "duplicate id":
        edges[j] = (edges[(j + 1) % len(edges)][0], t, h)
    elif fault == "unknown endpoint":
        edges[j] = (eid, "ghost%d" % tag, h) if rng.integers(2) else \
            (eid, t, "ghost%d" % tag)
    elif fault == "self-loop":
        insert(("loop%d" % tag, t, t))
    elif fault == "reversed pair":
        insert(("rev%d" % tag, h, t))
    else:  # a split component: an isolated new vertex
        vertices.insert(int(rng.integers(len(vertices) + 1)), "iso%d" % tag)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 12),
       extra=st.integers(0, 6),
       faults=st.lists(st.sampled_from(["duplicate id", "unknown endpoint",
                                        "self-loop", "reversed pair",
                                        "split component"]),
                       min_size=1, max_size=2))
def test_fault_reporting_follows_check_order(seed, n, extra, faults):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=extra)
    vertices, edges = list(g.vertices), list(g.edges)
    for tag, fault in enumerate(faults):
        _inject(rng, vertices, edges, fault, tag)
    expected = _expected_fault(vertices, edges)
    assert expected is not None
    with pytest.raises(GraphError) as info:
        DirectedGraph(vertices, edges)
    assert str(info.value) == expected
