import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localflow import (DirectedGraph, GraphError, SubgraphSpec, ball_subgraph,
                       build_incidence, generate, geodesic_distance,
                       induced_vertex_set, radius_max)
from conftest import path, random_connected_graph, triangle


def test_incidence_two_vertices():
    g = DirectedGraph(["1", "2"], [("e1", "1", "2")])
    A = build_incidence(g)
    assert A.tolist() == [[1.0], [-1.0]]


def test_incidence_triangle_columns():
    A = build_incidence(triangle())
    expected = np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1]], dtype=float)
    assert np.array_equal(A, expected)


def test_incidence_columns_sum_to_zero(rng):
    g = random_connected_graph(rng, 25, extra_edges=15)
    A = build_incidence(g)
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
    for v in sub.vertex_set:
        outside = [w for w in g.neighbors[v] if w not in sub.vertex_set]
        if v in sub.boundary:
            assert outside
        else:
            assert not outside


def test_subgraph_requires_connected():
    g = path(4)
    with pytest.raises(GraphError, match="not connected"):
        SubgraphSpec(g, [0, 3])


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


def test_generate_regular_deterministic():
    g1 = generate("random-k-regular", n=100, k=3, seed=7)
    g2 = generate("random-k-regular", n=100, k=3, seed=7)
    assert g1.edges == g2.edges
    assert set(g1.degrees()) == {3}


def test_generate_regular_infeasible():
    with pytest.raises(GraphError):
        generate("random-k-regular", n=4, k=5, seed=0)
    with pytest.raises(GraphError):
        generate("random-k-regular", n=5, k=3, seed=0)


def test_json_round_trip(rng):
    g = random_connected_graph(rng, 15, extra_edges=5)
    g2 = DirectedGraph.from_json_dict(
        json.loads(json.dumps(g.to_json_dict())))
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 40))
def test_incidence_left_null_space_property(seed, n):
    g = random_connected_graph(np.random.default_rng(seed), n, extra_edges=5)
    A = build_incidence(g)
    assert np.abs(np.ones(g.n_vertices) @ A).max() == 0.0


def _reference_ball(g, center, r):
    """The ball from a whole-graph BFS, as (vertices, edges, boundary)."""
    dist = g.bfs_distances([center])
    verts = {int(v) for v in np.nonzero(dist <= r)[0]}
    edges = {k for k in range(g.n_edges)
             if g.tails[k] in verts and g.heads[k] in verts}
    boundary = {v for v in verts
                if any(w not in verts for w in g.neighbors[v])}
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
        assert sub.sorted_vertices() == sorted(verts)
        assert sub.sorted_edges() == sorted(edges)
        assert sub.sorted_edge_complement() == sorted(
            set(range(g.n_edges)) - edges)
        assert sub.v_out.tolist() == sorted(
            set(range(g.n_vertices)) - verts)
        assert sub.is_whole_graph == (len(verts) == g.n_vertices)
