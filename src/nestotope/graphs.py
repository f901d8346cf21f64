"""Graphs on {0..n} and their building sets of connected subsets.

Vertex subsets are plain Python ints used as bitmasks, so all subset algebra
is &, |, ^ and bit_count().  A *tube* of a graph is a nonempty vertex subset
whose induced subgraph is connected; the collection of all tubes is the
(graphical) building set.  Tubes are kept in a canonical order, by cardinality
and then lexicographically on the sorted member list, and every consumer of a
building set relies on that order being deterministic.

Ground sets are capped at 64 vertices.  Exhaustive subset enumeration caps
out far earlier in practice; the routines here are meant for the small graphs
(up to nine or so vertices) that the rest of the package works with.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .errors import ValidationError, json_int, read_json

MAX_VERTICES = 64


def bits_of(mask):
    """Yield the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(it):
    m = 0
    for i in it:
        m |= 1 << i
    return m


def members(mask):
    return tuple(bits_of(mask))


def tube_sort_key(mask):
    """Canonical order: cardinality first, then lex on the member tuple."""
    return (mask.bit_count(), members(mask))


class Graph:
    """A finite simple graph with vertices 0..n_vertices-1.

    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> sorted(g.edges)
    [(0, 1), (1, 2)]
    >>> g.degree(1)
    2
    """

    def __init__(self, n_vertices, edges):
        if not 1 <= n_vertices <= MAX_VERTICES:
            raise ValidationError(
                f"vertex count must be between 1 and {MAX_VERTICES}, got {n_vertices}"
            )
        self.n_vertices = n_vertices
        self.ground_mask = (1 << n_vertices) - 1
        adj = [0] * n_vertices
        edge_set = set()
        for u, v in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValidationError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValidationError(f"loop at vertex {u} not allowed")
            if u > v:
                u, v = v, u
            edge_set.add((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.edges = frozenset(edge_set)
        self.adjacency = tuple(adj)

    def degree(self, v):
        return self.adjacency[v].bit_count()

    def has_edge(self, u, v):
        return (self.adjacency[u] >> v) & 1 == 1

    def neighbours(self, v):
        return self.adjacency[v]

    def is_connected(self):
        return is_connected_induced(self, self.ground_mask)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n_vertices == other.n_vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n_vertices, self.edges))

    def __repr__(self):
        return f"Graph({self.n_vertices}, {sorted(self.edges)})"


def is_connected_induced(g, subset):
    """Is the subgraph induced on the vertex subset ``subset`` connected?

    The empty set is not connected.  Runs a bitmask flood fill.
    """
    if subset == 0:
        return False
    if subset & ~g.ground_mask:
        raise ValidationError("subset contains vertices outside the graph")
    return _component(g, subset) == subset


def _component(g, subset):
    """The component of the lowest vertex of the nonempty ``subset`` in the
    subgraph induced on ``subset``, by a bitmask flood fill."""
    seen = frontier = subset & -subset
    while frontier:
        grow = 0
        for v in bits_of(frontier):
            grow |= g.adjacency[v] & subset
        frontier = grow & ~seen
        seen |= frontier
    return seen


class BuildingSet:
    """A building set on a ground set, stored as a canonically ordered tube list.

    ``tubes`` holds every member including, when present, the full ground set.
    ``proper_tubes`` drops the ground set; those index the facets of the
    associated polytope, in this fixed order.
    """

    def __init__(self, n_vertices, tubes):
        self.n_vertices = n_vertices
        self.ground_mask = (1 << n_vertices) - 1
        self.tubes = tuple(sorted(set(tubes), key=tube_sort_key))
        self.tube_index = {t: i for i, t in enumerate(self.tubes)}
        self.contains_ground = self.ground_mask in self.tube_index
        if self.contains_ground:
            self.proper_tubes = self.tubes[:-1]
        else:
            self.proper_tubes = self.tubes
        self.proper_index = {t: i for i, t in enumerate(self.proper_tubes)}

    def __repr__(self):
        shown = [members(t) for t in self.tubes]
        return f"BuildingSet({self.n_vertices}, {shown})"


def graph_building_set(g):
    """All tubes (connected nonempty induced subsets) of ``g``.

    Disconnected graphs are accepted; their building set simply lacks the
    ground set, which downstream polytope constructions then reject.

    >>> len(graph_building_set(Graph(3, [(0, 1), (1, 2)])).tubes)
    6
    """
    if g.n_vertices > 20:
        raise ValidationError("subset enumeration capped at 20 vertices")
    tubes = [s for s in range(1, g.ground_mask + 1) if is_connected_induced(g, s)]
    return BuildingSet(g.n_vertices, tubes)


def validate_building_set(b):
    """Check the building set axioms; raise ValidationError on failure.

    Every singleton must be present, and the union of any two intersecting
    members must again be a member.
    """
    _check_singletons(b)
    for s, t in combinations(b.tubes, 2):
        if s & t and (s | t) not in b.tube_index:
            raise _missing_union(s, t)
    return True


def _check_singletons(b):
    """Raise for the first singleton missing from ``b``."""
    for v in range(b.n_vertices):
        if (1 << v) not in b.tube_index:
            raise ValidationError(f"missing singleton {{{v}}}")


def _missing_union(s, t):
    """The error for intersecting members ``s`` and ``t`` whose union is
    missing."""
    return ValidationError(f"union {members(s | t)} of intersecting members "
                           f"{members(s)} and {members(t)} is missing")


def components_minus_vertex(g, v):
    """Connected components of g with vertex ``v`` deleted.

    Returns a list of (component graph, label map) pairs where the label map
    is a tuple sending the component's dense labels back to labels of ``g``.
    Components are listed in order of their smallest original vertex.
    """
    if not 0 <= v < g.n_vertices:
        raise ValidationError(f"vertex {v} out of range")
    remaining = g.ground_mask & ~(1 << v)
    comps = []
    while remaining:
        comps.append(_component(g, remaining))
        remaining &= ~comps[-1]
    out = []
    for comp in comps:
        labels = members(comp)
        back = {old: new for new, old in enumerate(labels)}
        edges = [
            (back[u], back[w])
            for u, w in g.edges
            if (comp >> u) & 1 and (comp >> w) & 1
        ]
        out.append((Graph(len(labels), edges), labels))
    return out


# ---------------------------------------------------------------------------
# Named families


def path_graph(k):
    """Path on k vertices, edges {i, i+1}."""
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k):
    if k < 3:
        raise ValidationError("cycle needs at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k):
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def star_graph(k):
    """Star on k vertices with center 0."""
    if k < 2:
        raise ValidationError("star needs at least 2 vertices")
    return Graph(k, [(0, i) for i in range(1, k)])


_PRESETS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "star": star_graph,
}


def graph_from_json_dict(data):
    try:
        n = json_int(data["n_vertices"], "malformed graph JSON: 'n_vertices'")
        if "preset" in data:
            name = data["preset"]
            if name not in _PRESETS:
                raise ValidationError(f"unknown graph preset {name!r}")
            return _PRESETS[name](n)
        edges = [tuple(json_int(v, "malformed graph JSON: edge endpoint")
                       for v in e) for e in data["edges"]]
        for e in edges:
            if len(e) != 2:
                raise ValidationError(
                    f"malformed graph JSON: edge {list(e)} needs two endpoints")
        return Graph(n, edges)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed graph JSON: {exc}") from exc


def graph_from_spec(text):
    """Parse a graph argument: either 'preset:k' or a JSON file path."""
    if ":" in text:
        name, _, count = text.partition(":")
        if name in _PRESETS:
            try:
                k = int(count)
            except ValueError as exc:
                raise ValidationError(f"bad vertex count in {text!r}") from exc
            return _PRESETS[name](k)
    return graph_from_json_dict(read_json(text, "graph"))


def path_order(g):
    """If g is a path, return its vertices in path order, else None."""
    if g.n_vertices == 1:
        return (0,)
    degs = [g.degree(v) for v in range(g.n_vertices)]
    ends = [v for v, d in enumerate(degs) if d == 1]
    if len(ends) != 2 or any(d > 2 or d == 0 for d in degs):
        return None
    if not g.is_connected():
        return None
    order = [min(ends)]
    seen = 1 << order[0]
    while len(order) < g.n_vertices:
        nxt = g.adjacency[order[-1]] & ~seen
        if nxt == 0:
            return None
        v = (nxt & -nxt).bit_length() - 1
        order.append(v)
        seen |= 1 << v
    return tuple(order)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small connected graphs.
#
# Several verification suites quantify over "all connected graphs on at most
# k vertices".  The quantities being checked (face vectors, Betti numbers and
# friends) are invariant under relabelling of the vertices, because every
# construction in this package is equivariant: relabelling a graph relabels
# its tubes and nothing else.  So the suites walk one representative per
# relabelling orbit.  Orbits are enumerated directly, by applying all
# permutations to each not-yet-seen edge set; no isomorphism testing is done.


def _edge_list(k):
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def _apply_perm(edge_bits, perm, pairs, pair_index):
    out = 0
    m = edge_bits
    while m:
        low = m & -m
        u, v = pairs[low.bit_length() - 1]
        a, b = perm[u], perm[v]
        if a > b:
            a, b = b, a
        out |= 1 << pair_index[(a, b)]
        m ^= low
    return out


def connected_graph_representatives(k):
    """One connected graph per relabelling orbit on exactly k vertices.

    >>> [len(connected_graph_representatives(k)) for k in range(1, 6)]
    [1, 1, 2, 6, 21]
    """
    if k == 1:
        return [Graph(1, [])]
    pairs = _edge_list(k)
    pair_index = {p: i for i, p in enumerate(pairs)}
    perms = list(permutations(range(k)))
    seen = set()
    reps = []
    for bits in range(1, 1 << len(pairs)):
        if bits in seen:
            continue
        g = Graph(k, [pairs[i] for i in bits_of(bits)])
        orbit = {_apply_perm(bits, p, pairs, pair_index) for p in perms}
        seen |= orbit
        if g.is_connected():
            reps.append(g)
    return reps
