import tracemalloc

import numpy as np
import pytest

from localflow import (DirectedGraph, EdgeCost, FlowProblem, ObjectiveBundle,
                       generate)


def triangle():
    return DirectedGraph(
        ["1", "2", "3"],
        [("e12", "1", "2"), ("e23", "2", "3"), ("e31", "3", "1")])


def path(n):
    verts = [str(i + 1) for i in range(n)]
    edges = [("e%d" % i, verts[i], verts[i + 1]) for i in range(n - 1)]
    return DirectedGraph(verts, edges)


def random_connected_graph(rng, n, extra_edges=0):
    """Random spanning tree plus extra chords; simple and connected."""
    verts = ["v%d" % i for i in range(n)]
    edges = []
    pairs = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append(("t%d" % i, verts[j], verts[i]))
        pairs.add(frozenset((i, j)))
    tries = 0
    while len(edges) < n - 1 + extra_edges and tries < 50 * (extra_edges + 1):
        tries += 1
        i, j = rng.integers(0, n, size=2)
        key = frozenset((int(i), int(j)))
        if i == j or key in pairs:
            continue
        pairs.add(key)
        edges.append(("c%d" % len(edges), verts[int(i)], verts[int(j)]))
    return DirectedGraph(verts, edges)


def random_balanced(rng, n, scale=1.0):
    p = rng.standard_normal(n) * scale
    return p - p.mean()


def quadratic_problem(g, b, a=1.0):
    return FlowProblem(g, ObjectiveBundle.uniform_quadratic(g.n_edges, a=a), b)


def logcosh_bundle(rng, n_edges, a_range=(0.5, 2.0), s_range=(0.2, 1.0)):
    costs = []
    for _ in range(n_edges):
        costs.append(EdgeCost("log-cosh",
                              a=float(rng.uniform(*a_range)),
                              s=float(rng.uniform(*s_range))))
    return ObjectiveBundle(costs)


def traced_peak_mb(fn):
    """Peak memory traced while fn() runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def expander200():
    return generate("random-k-regular", n=200, k=3, seed=11)
