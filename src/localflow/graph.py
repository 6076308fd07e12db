"""Directed graphs, incidence products, distances, balls and boundaries.

A graph is index-native: its vertices are 0..n-1 and its edges the pairs
(tails[k], heads[k]). Vertex and edge ids are strings that live at the
file boundary. A graph built by `from_arrays` names its vertices v0, v1,
... and its edges e0, e1, ...; one built from ids keeps them, and so does
a subgraph's `induced` graph. The edge tuples and id -> index maps are
derived from the id lists on first use, and reports embed them.
"""

import json
from functools import cached_property, partial

import numpy as np

# relative to max(1, |v|_inf): the sum of a balanced vertex vector v, and
# the net-outflow residual Ax - b of a feasible flow x (v = b)
BALANCE_TOL = 1e-9
FEAS_TOL = 1e-9


class GraphError(ValueError):
    """Invalid graph construction or query."""


class DirectedGraph:
    """Simple connected directed graph, immutable after construction.

    The checks run one class at a time: duplicate vertex ids, duplicate
    edge ids, unknown endpoints (ids; for `from_arrays`, tails and heads
    that are not integer arrays of one length with entries in range(n)),
    self-loops, repeated vertex pairs (either orientation), connectivity
    of the undirected skeleton. A GraphError reports the first fault of
    the first failing class. Queries take vertex or edge ids or indices,
    and raise GraphError for an unknown id and for a negative or
    out-of-range index.

    The undirected adjacency is an incident-edge CSR: the slots
    indptr[u]:indptr[u + 1] hold u's neighbors `adj`, ascending, and the
    edges `adj_edge` that join u to them.
    """

    def __init__(self, vertices, edges):
        self._vertex_ids = vertices = list(vertices)
        self.vertex_index = index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise GraphError("duplicate vertex ids")
        edges = list(edges)
        self._edge_ids = ids = [str(eid) for eid, _, _ in edges]
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate edge id: %s" % ids[_first_repeat(ids)])
        try:
            ends = np.array([index[str(v)] for _, t, h in edges
                             for v in (t, h)], dtype=np.intp)
        except KeyError as exc:
            raise GraphError("unknown endpoint id: %s" % exc.args[0]) from None
        self._check(len(vertices), *ends.reshape(-1, 2).T)

    @classmethod
    def from_arrays(cls, n, tails, heads):
        """The graph on vertices 0..n-1 with edge k from tails[k] to
        heads[k], after the constructor's checks; its ids are v0, v1, ...
        and e0, e1, ..."""
        g = cls.__new__(cls)
        g._check(n, tails, heads)
        return g

    # the ids by index: lists, or None for v0, v1, ... and e0, e1, ...
    _vertex_ids = _edge_ids = None

    def _vertex_name(self, i):
        return "v%d" % i if self._vertex_ids is None else self._vertex_ids[i]

    def _edge_name(self, k):
        return "e%d" % k if self._edge_ids is None else self._edge_ids[k]

    def _check(self, n, tails, heads):
        """Set n, the index arrays and the CSR; GraphError for tails and
        heads that are not integer arrays of one length, an index outside
        range(n), a self-loop or a repeated vertex pair (see `_adjacency`),
        or a graph that is not connected."""
        self.n_vertices = n = int(n)
        t, h = ends = [np.asarray(a) for a in (tails, heads)]
        # an empty list is a float array
        if (t.shape != h.shape or t.ndim != 1
                or any(a.dtype.kind not in "iu" and a.size for a in ends)
                or np.any((t < 0) | (t >= n) | (h < 0) | (h >= n))):
            raise GraphError("tails and heads must be integer arrays of one "
                             "length, in range(n)")
        t, h = self.tails, self.heads = t.astype(np.intp), h.astype(np.intp)
        self.adj, self.adj_edge = _adjacency(t, h, n, self._vertex_name)
        self.indptr = np.concatenate(([0], np.cumsum(self.degrees())))
        if not n or len(_search(self, [0])[2]) < n:
            raise GraphError("graph is not connected")

    @cached_property
    def vertices(self):
        return self._vertex_ids or ["v%d" % i for i in range(self.n_vertices)]

    @cached_property
    def edges(self):
        """(id, tail id, head id) of each edge."""
        name = self.vertices.__getitem__
        return list(zip(self.edge_index, map(name, self.tails.tolist()),
                        map(name, self.heads.tolist())))

    @cached_property
    def vertex_index(self):
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_index(self):
        ids = self._edge_ids or ("e%d" % k for k in range(self.n_edges))
        return {e: k for k, e in enumerate(ids)}

    @property
    def n_edges(self):
        return len(self.tails)

    def net_outflow(self, x, edges=slice(None)):
        """A x: flow leaving each vertex; x may hold the flows of `edges`
        only, the other edges carrying none."""
        n = self.n_vertices
        return (np.bincount(self.tails[edges], x, n)
                - np.bincount(self.heads[edges], x, n))

    def potential_difference(self, nu):
        """A^T nu: tail minus head potential on each edge."""
        return nu[self.tails] - nu[self.heads]

    def degrees(self):
        return np.bincount(np.concatenate((self.tails, self.heads)),
                           minlength=self.n_vertices)

    def bfs_distances(self, sources):
        """Unweighted shortest-path distance from a set of vertex indices.

        Unreachable vertices get -1 (cannot happen on a connected graph).
        """
        sources = np.unique(np.asarray(sources, dtype=np.intp))
        return _search(self, sources)[0]

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
        text = json.dumps(self.to_json_dict(), indent=2)
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _scale(v):
    return max(1.0, float(np.abs(v).max()))


def _balanced(g, v, error, what):
    """v as a float array if it has one finite entry per vertex of g and
    sums to 0 within BALANCE_TOL; else `error`, naming v `what`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (g.n_vertices,):
        raise error("%s has wrong dimension" % what)
    if not np.all(np.isfinite(v)):
        raise error("%s is not finite" % what)
    if abs(v.sum()) > BALANCE_TOL * _scale(v):
        raise error("%s not balanced" % what)
    return v


def _feasible(residual, b, error, message):
    """|r|_inf of the residual r = Ax - b of a flow x if it is at most
    FEAS_TOL max(1, |b|_inf); else `error`, `message` % |r|_inf."""
    worst = float(np.abs(residual).max())
    if not worst <= FEAS_TOL * _scale(b):
        raise error(message % worst)
    return worst


def build_incidence(g):
    """Dense vertex-by-edge incidence matrix: +1 at the tail, -1 at the head.
    A small-graph reference for net_outflow and potential_difference."""
    A = np.zeros((g.n_vertices, g.n_edges))
    cols = np.arange(g.n_edges)
    A[g.tails, cols] = 1.0
    A[g.heads, cols] = -1.0
    return A


def _first_repeat(keys):
    """Index of the first entry equal to an earlier one (there is one)."""
    _, first = np.unique(keys, return_index=True)
    later = np.ones(len(keys), dtype=bool)
    later[first] = False
    return int(np.argmax(later))


def _adjacency(tails, heads, n, name):
    """The CSR's `adj` and `adj_edge`, in the order that sorts the keys
    u * n + w of both orientations of every edge (entry k < m of them is
    edge k from its tail, entry m + k edge k from its head), after the
    simple-graph rule: GraphError at the first self-loop, else at the
    first edge repeating an earlier vertex pair in either orientation.
    `name` turns a vertex index into the id the message shows."""
    keys = np.concatenate((tails * n + heads, heads * n + tails))
    ordered = np.sort(keys)  # cheaper than the order on rejected draws
    if (ordered[1:] == ordered[:-1]).any():  # a self-loop repeats its key
        loops = np.flatnonzero(tails == heads)
        if len(loops):
            raise GraphError("self-loop on vertex: %s" % name(tails[loops[0]]))
        k = _first_repeat(np.minimum(tails, heads) * n
                          + np.maximum(tails, heads))
        raise GraphError("multiple edges between vertices: %s, %s"
                         % (name(tails[k]), name(heads[k])))
    order = keys.argsort()
    return np.concatenate((heads, tails))[order], order % len(tails)


def _indices(g, ids, kind):
    """Index array of ids, each a vertex or edge id (kind "vertex" or
    "edge") or an integer index into g's vertices or edges; GraphError for
    anything else. The id -> index map is built only for an id."""
    count = g.n_vertices if kind == "vertex" else g.n_edges
    try:
        idx = [getattr(g, kind + "_index")[a] if isinstance(a, str) else a
               for a in ids]
    except KeyError as exc:
        raise GraphError("unknown %s id: %s" % (kind, exc.args[0])) from None
    bad = [k for k in idx if not 0 <= k < count]
    if bad:
        raise GraphError("%s index out of range: %d" % (kind, bad[0]))
    return np.array(idx, dtype=np.intp)


_vertex_indices = partial(_indices, kind="vertex")
_edge_indices = partial(_indices, kind="edge")


def geodesic_distance(g, U, Z):
    """Minimum unweighted shortest-path length between vertex sets U and Z.

    Both sets are given as vertex ids or indices; returns 0 when they
    intersect.
    """
    U_idx, Z_idx = _vertex_indices(g, U), _vertex_indices(g, Z)
    if not len(U_idx) or not len(Z_idx):
        raise GraphError("geodesic_distance requires nonempty vertex sets")
    return int(g.bfs_distances(U_idx)[Z_idx].min())


def _edge_sets(g, F_sets):
    """(idx, sizes, verts, counts): the edge indices of all sets F_sets end
    to end with each set's size, and each set's sorted vertices end to end
    with each set's count. GraphError names the first bad entry."""
    sizes = np.array([len(F) for F in F_sets], dtype=np.intp)
    idx = _edge_indices(g, [e for F in F_sets for e in F])
    n, owner = g.n_vertices, np.repeat(np.arange(len(sizes)), sizes)
    keys = np.unique(owner * n + np.stack((g.tails[idx], g.heads[idx])))
    return idx, sizes, keys % n, np.bincount(keys // n, minlength=len(sizes))


def induced_vertex_set(g, F):
    """Vertex indices touched by the edge set F (edge ids or indices)."""
    return set(_edge_sets(g, [F])[2].tolist())


class SubgraphSpec:
    """A connected subgraph: v_in/e_in are its vertex and edge indices and
    cut the edges with one end in it, each sorted. The inner boundary holds
    the subgraph vertices with a neighbor outside it.

    A BFS spanning tree of the subgraph comes with it: `depth` holds each
    vertex's depth (in v_in's order) and `tree_edge` the position in e_in
    of its edge toward the root, -1 at the root. `tree` is the (dist,
    parent) pair of a search over g that reached exactly these vertices,
    such as ball_subgraph's, rooted at the ball's center. Without it a
    search from the lowest vertex through the set builds the tree, and a
    set it does not reach whole raises GraphError. `induced`, the subgraph
    as a DirectedGraph with vertices and edges in index order and g's ids,
    is built from g's index arrays on first use.
    """

    def __init__(self, g, vertex_indices, tree=None):
        self.graph = g
        if tree is None:
            inside = np.zeros(g.n_vertices, dtype=bool)
            inside[_vertex_indices(g, vertex_indices)] = True
            self.v_in = np.flatnonzero(inside)
            if not len(self.v_in):
                raise GraphError("empty subgraph vertex set")
            dist, parent, reached = _search(g, self.v_in[:1], inside=inside)
            if len(reached) < len(self.v_in):
                raise GraphError("subgraph is not connected")
        else:
            dist, parent = tree
            inside = dist >= 0
            self.v_in = np.sort(vertex_indices)
        slots, counts = _slots(g, self.v_in)
        edges, across = g.adj_edge[slots], ~inside[g.adj[slots]]
        # an inner edge shows up once from each end
        self.e_in = np.sort(edges[~across])[::2]
        self.cut = np.sort(edges[across])
        self._inner_ends = self.v_in.repeat(counts)[across]
        self.depth = dist[self.v_in]
        up = parent[self.v_in]
        self.tree_edge = self.e_in.searchsorted(up)
        self.tree_edge[up < 0] = -1

    @cached_property
    def vertex_set(self):
        return frozenset(self.v_in.tolist())

    @cached_property
    def edge_set(self):
        return frozenset(self.e_in.tolist())

    @cached_property
    def boundary(self):
        return frozenset(self._inner_ends.tolist())

    @cached_property
    def ends(self):
        """Tails and heads of the subgraph's edges, as positions in v_in."""
        g = self.graph
        return (self.v_in.searchsorted(g.tails[self.e_in]),
                self.v_in.searchsorted(g.heads[self.e_in]))

    @cached_property
    def induced(self):
        g = self.graph
        sub = DirectedGraph.from_arrays(len(self.v_in), *self.ends)
        sub._vertex_ids = [g._vertex_name(v) for v in self.v_in.tolist()]
        sub._edge_ids = [g._edge_name(k) for k in self.e_in.tolist()]
        return sub

    @property
    def is_whole_graph(self):
        return len(self.v_in) == self.graph.n_vertices

    @property
    def cycle_rank(self):
        """Dimension |E| - |V| + 1 of the subgraph's cycle space; 0 for a
        tree, whose flows are fixed by their net outflows."""
        return len(self.e_in) - len(self.v_in) + 1


def ball_subgraph(g, center, r):
    """Subgraph induced by the ball of radius r around a center vertex,
    searched to depth r only; its spanning tree is rooted at the center.
    The radius must be a nonnegative integer."""
    center = _vertex_indices(g, [center])
    depth = _nonnegative_int(r, GraphError, "radius")
    dist, parent, reached = _search(g, center, depth)
    return SubgraphSpec(g, reached, tree=(dist, parent))


def _nonnegative_int(value, error, name):
    """value as an int if it is a nonnegative integer (2.0 included, a
    bool not); else `error`, naming the value `name`."""
    try:
        if (not isinstance(value, (bool, np.bool_)) and value >= 0
                and float(value).is_integer()):
            return int(value)
    except (TypeError, ValueError):
        pass
    raise error("%s must be a nonnegative integer, got %r" % (name, value))


def _slots(g, vertices):
    """Positions in g's CSR arrays of the edges incident to the nonempty
    `vertices`, vertex by vertex, and the count of each vertex's."""
    starts = g.indptr[vertices]
    counts = g.indptr[vertices + 1] - starts
    stops = counts.cumsum()
    return np.arange(stops[-1]) + (starts - stops + counts).repeat(counts), \
        counts


def _search(g, sources, depth=None, inside=None):
    """Level-synchronous BFS over g's CSR from the distinct vertex indices
    `sources`, to `depth` levels (all when None), through the vertices of
    the mask `inside` only (all when None). Returns (dist, parent,
    reached): each vertex's distance from the sources and the edge to its
    parent in the BFS forest, a neighbor on the level above, both -1 where
    it is not reached (parent also at a source), and the reached vertices
    level by level."""
    dist, parent = np.full((2, g.n_vertices), -1, dtype=np.intp)
    frontier = np.asarray(sources, dtype=np.intp)
    dist[frontier] = 0
    levels = [frontier]
    level = 0
    while len(frontier) and level != depth:
        slots = _slots(g, frontier)[0]
        ahead = g.adj[slots]
        new = dist[ahead] < 0
        if inside is not None:
            new &= inside[ahead]
        ahead, edges = ahead[new], g.adj_edge[slots[new]]
        # a vertex seen across several edges keeps whichever edge the
        # write leaves, and joins the frontier once
        parent[ahead] = edges
        frontier = ahead[parent[ahead] == edges]
        level += 1
        dist[frontier] = level
        levels.append(frontier)
    return dist, parent, np.concatenate(levels)


def radius_max(g, center):
    """Eccentricity of the center: smallest r with ball = whole graph."""
    return int(g.bfs_distances(_vertex_indices(g, [center])).max())


def generate(kind, **params):
    """Build a named graph family member. Edges get an arbitrary fixed
    orientation; random-k-regular resamples until simple and connected."""
    if kind not in GENERATORS:
        raise GraphError("unknown graph kind: %s" % kind)
    build, names = GENERATORS[kind]
    return build(*(params[name] for name in names))


def _complete(n):
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    g = DirectedGraph.from_arrays(n, *np.triu_indices(n, 1))
    g._edge_ids = ["e%d_%d" % ends for ends in zip(g.tails.tolist(),
                                                   g.heads.tolist())]
    return g


def _cycle(n):
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return DirectedGraph.from_arrays(n, np.arange(n), (np.arange(n) + 1) % n)


def _grid(rows, cols):
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GraphError("grid needs at least 2 vertices")
    n = rows * cols
    v = np.arange(n)
    i, j = np.divmod(v, cols)
    # each vertex's edge to its right (eh), then the one below (ev)
    keep = np.stack((j + 1 < cols, i + 1 < rows), axis=1).ravel()
    tails = np.repeat(v, 2)[keep]
    g = DirectedGraph.from_arrays(
        n, tails, np.stack((v + 1, v + cols), axis=1).ravel()[keep])
    names = ["%d_%d" % ij for ij in zip(i.tolist(), j.tolist())]
    g._vertex_ids = ["v" + name for name in names]
    g._edge_ids = [kind + names[t] for kind, t in zip(
        np.tile(["eh", "ev"], n)[keep].tolist(), tails.tolist())]
    return g


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
        try:
            return DirectedGraph.from_arrays(n, *stubs.reshape(-1, 2).T)
        except GraphError:
            continue
    raise GraphError("failed to sample a connected simple %d-regular graph" % k)


GENERATORS = {
    "complete": (_complete, ("n",)),
    "cycle": (_cycle, ("n",)),
    "grid-2d": (_grid, ("rows", "cols")),
    "random-k-regular": (_random_regular, ("n", "k", "seed")),
}
