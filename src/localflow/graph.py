"""Directed graphs, incidence products, distances, balls and boundaries.

Vertex and edge ids are strings in files; internally everything is mapped
to dense 0-based indices. The id <-> index mapping is part of the public
surface so reports can embed it.
"""

import json
from collections import deque

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction or query."""


class DirectedGraph:
    """Simple connected directed graph.

    No self-loops, no repeated edges between the same (unordered) vertex
    pair, and the undirected skeleton must be connected. Immutable after
    construction.
    """

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = [(str(eid), str(t), str(h)) for eid, t, h in edges]
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("duplicate vertex ids")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}

        seen_eids = set()
        seen_pairs = set()
        self._tails = np.empty(len(self.edges), dtype=np.intp)
        self._heads = np.empty(len(self.edges), dtype=np.intp)
        for k, (eid, tail, head) in enumerate(self.edges):
            if eid in seen_eids:
                raise GraphError("duplicate edge id: %s" % eid)
            seen_eids.add(eid)
            if tail not in self.vertex_index:
                raise GraphError("unknown endpoint id: %s" % tail)
            if head not in self.vertex_index:
                raise GraphError("unknown endpoint id: %s" % head)
            if tail == head:
                raise GraphError("self-loop on vertex: %s" % tail)
            pair = frozenset((tail, head))
            if pair in seen_pairs:
                raise GraphError(
                    "multiple edges between vertices: %s, %s" % (tail, head))
            seen_pairs.add(pair)
            self._tails[k] = self.vertex_index[tail]
            self._heads[k] = self.vertex_index[head]
        self.edge_index = {e[0]: k for k, e in enumerate(self.edges)}

        # undirected adjacency: neighbor vertex indices per vertex
        nbrs = [set() for _ in self.vertices]
        for u, v in zip(self._tails, self._heads):
            nbrs[u].add(int(v))
            nbrs[v].add(int(u))
        self.neighbors = [sorted(s) for s in nbrs]

        if self.n_vertices > 0 and not self._is_connected():
            raise GraphError("graph is not connected")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def tails(self):
        return self._tails

    @property
    def heads(self):
        return self._heads

    def net_outflow(self, x, edges=slice(None)):
        """A x: flow leaving each vertex; x may hold the flows of `edges`
        only, the other edges carrying none."""
        n = self.n_vertices
        return (np.bincount(self._tails[edges], x, n)
                - np.bincount(self._heads[edges], x, n))

    def potential_difference(self, nu):
        """A^T nu: tail minus head potential on each edge."""
        return nu[self._tails] - nu[self._heads]

    def degree(self, v_idx):
        return len(self.neighbors[v_idx])

    def degrees(self):
        return np.array([len(s) for s in self.neighbors], dtype=np.intp)

    def _is_connected(self):
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in self.neighbors[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n_vertices

    def bfs_distances(self, sources):
        """Unweighted shortest-path distance from a set of vertex indices.

        Unreachable vertices get -1 (cannot happen on a connected graph).
        """
        dist = np.full(self.n_vertices, -1, dtype=np.intp)
        queue = deque()
        for s in sources:
            dist[s] = 0
            queue.append(s)
        while queue:
            u = queue.popleft()
            for w in self.neighbors[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def to_json_dict(self):
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e, "tail": t, "head": h}
                      for e, t, h in self.edges],
        }

    @classmethod
    def from_json_dict(cls, data):
        edges = [(e["id"], e["tail"], e["head"]) for e in data["edges"]]
        return cls(data["vertices"], edges)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def build_incidence(g):
    """Dense vertex-by-edge incidence matrix: +1 at the tail, -1 at the head.
    A small-graph reference for net_outflow and potential_difference."""
    A = np.zeros((g.n_vertices, g.n_edges))
    cols = np.arange(g.n_edges)
    A[g.tails, cols] = 1.0
    A[g.heads, cols] = -1.0
    return A


def geodesic_distance(g, U, Z):
    """Minimum unweighted shortest-path length between vertex sets U and Z.

    Both sets are given as vertex ids or indices; returns 0 when they
    intersect.
    """
    U_idx = _as_vertex_indices(g, U)
    Z_idx = _as_vertex_indices(g, Z)
    if not U_idx or not Z_idx:
        raise GraphError("geodesic_distance requires nonempty vertex sets")
    dist = g.bfs_distances(U_idx)
    return int(min(dist[z] for z in Z_idx))


def _as_vertex_indices(g, vs):
    out = []
    for v in vs:
        if isinstance(v, str):
            if v not in g.vertex_index:
                raise GraphError("unknown vertex id: %s" % v)
            out.append(g.vertex_index[v])
        else:
            out.append(int(v))
    return out


def induced_vertex_set(g, F):
    """Vertex indices touched by the edge set F (edge ids or indices)."""
    out = set()
    for e in F:
        k = g.edge_index[e] if isinstance(e, str) else int(e)
        out.add(int(g.tails[k]))
        out.add(int(g.heads[k]))
    return out


class SubgraphSpec:
    """A connected subgraph with its complement sets and inner boundary.

    The inner boundary holds the subgraph vertices with at least one
    neighbor outside the subgraph. `induced` is the subgraph as a
    DirectedGraph, vertices and edges in increasing index order.
    """

    def __init__(self, g, vertex_indices):
        self.graph = g
        self.vertex_set = frozenset(int(v) for v in vertex_indices)
        if not self.vertex_set:
            raise GraphError("empty subgraph vertex set")
        self.edge_set = frozenset(
            k for k in range(g.n_edges)
            if g.tails[k] in self.vertex_set and g.heads[k] in self.vertex_set)
        self.vertex_complement = frozenset(
            range(g.n_vertices)) - self.vertex_set
        self.edge_complement = frozenset(range(g.n_edges)) - self.edge_set
        self.boundary = frozenset(
            v for v in self.vertex_set
            if any(w not in self.vertex_set for w in g.neighbors[v]))
        try:
            self.induced = DirectedGraph(
                [g.vertices[v] for v in self.sorted_vertices()],
                [g.edges[k] for k in self.sorted_edges()])
        except GraphError:
            raise GraphError("subgraph is not connected") from None

    @property
    def is_whole_graph(self):
        return len(self.vertex_set) == self.graph.n_vertices

    def sorted_vertices(self):
        return sorted(self.vertex_set)

    def sorted_edges(self):
        return sorted(self.edge_set)

    def sorted_edge_complement(self):
        return sorted(self.edge_complement)


def ball_subgraph(g, center, r):
    """Subgraph induced by the ball of radius r around a center vertex."""
    if isinstance(center, str):
        center = g.vertex_index[center]
    if r < 0:
        raise GraphError("radius must be nonnegative")
    dist = g.bfs_distances([int(center)])
    verts = np.nonzero((dist >= 0) & (dist <= r))[0]
    return SubgraphSpec(g, verts)


def radius_max(g, center):
    """Eccentricity of the center: smallest r with ball = whole graph."""
    if isinstance(center, str):
        center = g.vertex_index[center]
    return int(g.bfs_distances([int(center)]).max())


def generate(kind, **params):
    """Build a named graph family member. Edges get an arbitrary fixed
    orientation; random-k-regular resamples until simple and connected."""
    if kind == "complete":
        return _complete(params["n"])
    if kind == "cycle":
        return _cycle(params["n"])
    if kind == "grid-2d":
        return _grid(params["rows"], params["cols"])
    if kind == "random-k-regular":
        return _random_regular(params["n"], params["k"], params["seed"])
    raise GraphError("unknown graph kind: %s" % kind)


def _vnames(n):
    return ["v%d" % i for i in range(n)]


def _complete(n):
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append(("e%d_%d" % (i, j), "v%d" % i, "v%d" % j))
    return DirectedGraph(_vnames(n), edges)


def _cycle(n):
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    edges = [("e%d" % i, "v%d" % i, "v%d" % ((i + 1) % n)) for i in range(n)]
    return DirectedGraph(_vnames(n), edges)


def _grid(rows, cols):
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GraphError("grid needs at least 2 vertices")
    def name(i, j):
        return "v%d_%d" % (i, j)
    vertices = [name(i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append(("eh%d_%d" % (i, j), name(i, j), name(i, j + 1)))
            if i + 1 < rows:
                edges.append(("ev%d_%d" % (i, j), name(i, j), name(i + 1, j)))
    return DirectedGraph(vertices, edges)


def _random_regular(n, k, seed, max_tries=2000):
    """Pairing-model sampler, rejecting self-loops, multi-edges and
    disconnected outcomes."""
    if k >= n:
        raise GraphError("k-regular needs k < n")
    if (n * k) % 2 != 0:
        raise GraphError("k-regular needs n*k even")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n), k)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        keys = {frozenset(map(int, p)) for p in pairs}
        if len(keys) != len(pairs):
            continue
        edges = [("e%d" % i, "v%d" % int(u), "v%d" % int(v))
                 for i, (u, v) in enumerate(pairs)]
        try:
            return DirectedGraph(_vnames(n), edges)
        except GraphError:
            continue
    raise GraphError("failed to sample a connected simple %d-regular graph" % k)
