"""Face structure of nestohedra built from building sets.

Proper tubes become facets; a set of tubes spans a face exactly when the
tubes are pairwise compatible, where compatibility means nested, or disjoint
with union outside the building set.  Faces are enumerated as cliques of the
compatibility relation, one level per size, each level extended into the
next in lexicographic order.  The cliques are the tubings because the
nested-set complex of a graphical building set is flag; one with more
pairwise compatible tubes than the dimension is refused.  The enumeration
checks the building-set axioms on the way, counts each level before
building it, and refuses past FACE_BUDGET faces.  ``face_poset`` marks
the poset it builds as enumerated, and memoises it on the building set
(``memo``), so a poset is shared by the callers of a repeated building
set and is frozen: nothing changes it after its constructor, and its
incidences and coordinate table are computed once, on first use.  On a
hand-built poset, or one assigned to after it was built,
``check_simple_and_flag`` rebuilds the cliques of the stored pair
relation the same way and compares each stored level with them; on a
marked one it returns True, as the enumeration has already shown it.

Vertex coordinates come from Postnikov's closed form for the Minkowski sum
of the simplices Delta_S over the tubes S (Postnikov, "Permutohedra,
associahedra, and beyond", IMRN 2009, arXiv:math/0507163, section 7): at a
vertex, coordinate j counts the tubes S with j in S contained in T_j, the
smallest tube of the vertex's tubing (or the ground set) that holds j.  The
points are integral; each tube's support-count equations and inequalities
are checked once over the columns of all the points, and an independent
oracle recovers the same vertex set by maximizing every strict linear order
over the Minkowski summands.

The last third of the module studies the simplicial projection onto the
simplex spanned by the ground set: a face maps to the barycentre of the
coordinate simplex on the elements its tubes leave uncovered.  Each flag
of the simplex has exactly one chain of faces over it, so the mapping
degree is the orientation sign of one chain, read from one determinant
of n + 1 face centres (``pi_degree``).  A face's centre is the sum of
the barycentres of the faces of the Minkowski summands that lie on it,
in closed form and integral after scaling; each is checked against every
tube, and the face lattice of the Minkowski sum is cited (Postnikov 2009,
Theorem 7.4; Feichtner and Sturmfels 2005).  A hand-built poset is first
checked against a fresh enumeration of the tubings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import comb, lcm
from operator import add

from . import errors
from .errors import ValidationError, check_budget
from .graphs import (
    _check_singletons,
    _missing_union,
    bits_of,
    members,
)
from .memo import _MEMO

_MAX_POSET_VERTICES = 10  # clique enumeration above this is not worth having


def support_constant(b, s):
    """Number of tubes contained in the vertex subset ``s`` (a bitmask)."""
    if s & ~b.ground_mask:
        raise ValidationError("subset outside the ground set")
    return sum(1 for t in b.tubes if t & ~s == 0)


def compatible(b, s, t):
    """Whether two distinct tubes span an edge of the compatibility graph:
    nested, or disjoint with union not itself a tube."""
    if s == t:
        raise ValidationError("compatibility needs two distinct tubes")
    if s not in b.tube_index or t not in b.tube_index:
        raise ValidationError("arguments must be tubes of the building set")
    if s & ~t == 0 or t & ~s == 0:
        return True
    if s & t:
        return False
    return (s | t) not in b.tube_index


class FacePoset:
    """Faces of the nestohedron of a building set, graded by tubing size.

    ``faces_by_size[k]`` lists the k-tubings as sorted tuples of indexes into
    ``building_set.proper_tubes``; size 0 is the whole polytope and size
    ``dim`` the vertices; ``support[i]`` is ``support_constant`` of proper tube
    i.  The raw constructor trusts its input; use ``face_poset`` to build
    from scratch.  ``face_poset`` shares one poset between the callers of
    a repeated building set, so a poset is never changed after its
    constructor: its levels are tuples, ``face_sets`` frozensets, and
    ``incidences`` and ``coordinate_table`` are computed once, on first
    use.

    ``_enumerated`` is True only on a poset that ``face_poset`` built, whose
    levels are the enumeration's, so ``check_simple_and_flag`` and
    ``pi_degree`` skip what the enumeration has shown.  Assigning any other
    attribute (``b``, ``support``, ``faces_by_size``, ``face_sets`` or
    another) sets it back to False, so a changed poset is checked in full
    again; the computed-once properties write around ``__setattr__``.  The
    mark also relies on the building set itself, which it does not watch,
    being left as built.
    """

    def __init__(self, building_set, faces_by_size):
        self.b = building_set
        self.dim = building_set.n_vertices - 1
        self.support = tuple(support_constant(building_set, s)
                             for s in building_set.proper_tubes)
        self.faces_by_size = tuple(tuple(level) for level in faces_by_size)
        self.face_sets = tuple(map(frozenset, self.faces_by_size))

    def __setattr__(self, name, value):
        object.__setattr__(self, "_enumerated", False)
        object.__setattr__(self, name, value)

    @property
    def vertices(self):
        return self.faces_by_size[self.dim]

    @cached_property
    def incidences(self):
        """``face_incidences`` of this poset, computed on first use."""
        return face_incidences(self)

    @cached_property
    def coordinate_table(self):
        """One row per proper tube T, in index order, and a last row for the
        ground set: entry j counts the tubes S with j in S contained in T
        (0 off T).  The vertex points are read from here, and nothing else
        reads it, so only that path builds it."""
        b = self.b
        rows = []
        for t in b.proper_tubes + (b.ground_mask,):
            row = [0] * b.n_vertices
            for s in b.tubes:
                if s & ~t == 0:
                    for j in bits_of(s):
                        row[j] += 1
            rows.append(tuple(row))
        return tuple(rows)

    def f_counts(self):
        return tuple(len(level) for level in self.faces_by_size)

    def __repr__(self):
        return (f"FacePoset(dim={self.dim}, "
                f"f={self.f_counts()})")


def _clique_levels(start, adj, n):
    """Yield the cliques of the relation ``adj`` (a neighbour bitmask per
    index) on the indexes of ``start``, one level per size from 0 to n.

    Each level is a list of cliques, in lexicographic order, and the list
    of their common neighbours.  A clique carries its candidates, the
    common neighbours above its last index, and is extended by each of
    them in increasing order, so the next level has one clique per
    candidate bit.  That count is added to the cliques already yielded
    before the level is built, and a total over FACE_BUDGET is refused.
    """
    faces, cands, commons = [()], [start], [start]
    total = 1
    for _ in range(n):
        yield faces, commons
        total += sum(map(int.bit_count, cands))
        check_budget("face poset", total, "faces", errors.FACE_BUDGET)
        next_faces, next_cands, next_commons = [], [], []
        for face, cand, common in zip(faces, cands, commons):
            while cand:
                low = cand & -cand
                i = low.bit_length() - 1
                cand ^= low
                next_faces.append(face + (i,))
                next_cands.append(cand & adj[i])
                next_commons.append(common & adj[i])
        faces, cands, commons = next_faces, next_cands, next_commons
    yield faces, commons


def face_poset(b):
    """Enumerate all tubings of the building set as compatibility cliques.

    The cliques are built one level per size, each level in lexicographic
    order (``_clique_levels``), which ``face_incidences`` relies on.
    Requires the ground set to be a tube (connected graph, in the graphical
    case) and ``b`` to be a building set.  Every maximal tubing must have
    full size; anything else means the input was not a building set and
    raises.  The cliques are the nested sets only when the nested-set
    complex is flag, that is when every family of pairwise compatible
    tubes is a nested set (Feichtner and Sturmfels, Portugal. Math. 62,
    2005).  Every graphical building set is flag, since a union of
    pairwise disjoint tubes no two of which are adjacent is disconnected;
    a building set with more pairwise compatible tubes than the dimension
    is not, and is refused.

    The poset is marked as enumerated (``FacePoset``), which is what
    ``check_simple_and_flag`` and ``pi_degree`` would establish again.
    It is memoised on the building set's vertex count and tubes
    (``memo``), so a repeated building set is enumerated and checked
    twice, then shared.
    """
    return _MEMO.fetch(("face_poset", b.n_vertices, b.tubes), len(b.tubes),
                       lambda: _enumerated_poset(b), _poset_cells)


def _enumerated_poset(b):
    p = FacePoset(b, _tubing_levels(b))
    p._enumerated = True
    return p


def _poset_cells(p):
    """The memo's count of a stored poset, taken before it computes its
    incidences or its coordinate table: each face once, and once more for
    each incidence that lists it (a face with k tubes is a facet of k
    faces), and the table's entries."""
    return (sum(k * f for k, f in enumerate(p.f_counts(), 1))
            + (len(p.b.proper_tubes) + 1) * p.b.n_vertices)


def _tubing_levels(b):
    """The levels of ``face_poset(b)``, each a list of sorted tuples.

    The compatibility rows apply the rule of ``compatible`` to every pair
    of proper tubes, inline, as this pass is the enumeration's m² part.
    ``b`` is checked against the building-set axioms on the way, with the
    errors of ``validate_building_set``: the union of two overlapping
    tubes on that pass (the ground set's unions are the ground set), and
    the singletons after the levels, so that a family the clique model
    refuses keeps that refusal.
    """
    if not b.contains_ground:
        raise ValidationError("face poset needs the ground set among the tubes")
    if b.n_vertices > _MAX_POSET_VERTICES:
        raise ValidationError(
            f"face enumeration is capped at {_MAX_POSET_VERTICES} vertices")
    n = b.n_vertices - 1
    proper = b.proper_tubes
    index = b.tube_index
    compat = []   # compat[i]: the tubes compatible with tube i, as bits
    for i, s in enumerate(proper):
        row = 0
        for j, t in enumerate(proper):
            if s & t:
                if s & ~t and t & ~s:
                    if s | t not in index:
                        raise _missing_union(s, t)
                elif i != j:
                    row |= 1 << j
            elif s | t not in index:
                row |= 1 << j
        compat.append(row)
    levels = []
    for k, (faces, commons) in enumerate(
            _clique_levels((1 << len(proper)) - 1, compat, n)):
        if k < n and not all(commons):
            raise ValidationError(
                "maximal tubing smaller than the dimension; not a building set")
        levels.append(faces)
    if any(commons):
        raise ValidationError(
            "nested-set complex is not flag: more pairwise compatible tubes "
            "than the dimension, so the clique model does not apply")
    _check_singletons(b)
    return levels


def check_simple_and_flag(p):
    """Verify the stored face list against the clique model.

    True when each level of ``p.faces_by_size`` lists the cliques of the
    pair relation that the stored 2-faces record, each once, and every
    maximal clique is a full-size tubing.  Levels 1 and 2, which the
    relation is read from, are first checked for shape and for indexes in
    range; the cliques, rebuilt level by level, are distinct, sorted and
    subset-closed, so a level as long as its cliques that contains them all
    is the same list with no face twice, and is subset-closed too.  A
    hand-built poset missing the top of a clique (three compatible tubes,
    no triple face) or listing a face twice fails here.

    A poset that ``face_poset`` built, and that has not been assigned to
    since (``FacePoset``), returns True without the rebuild, which would
    repeat the enumeration's own pass: its level 1 lists every proper
    tube, its level 2 every compatible pair, and its levels are the
    cliques of that relation as ``_clique_levels`` builds them, each
    maximal one checked there to have full size.
    """
    if p._enumerated:
        return True
    n = p.dim
    stored = p.face_sets
    m = len(p.b.proper_tubes)
    for k in range(1, min(n, 2) + 1):
        for face in stored[k]:
            if (len(face) != k or list(face) != sorted(set(face))
                    or face[0] < 0 or face[-1] >= m):
                return False
    # adjacency as recorded by the 2-faces
    adj = [0] * m
    if n >= 2:
        for (i, j) in stored[2]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    start = sum(1 << f[0] for f in stored[1]) if n >= 1 else 0
    for k, (faces, commons) in enumerate(_clique_levels(start, adj, n)):
        # the cliques are distinct, so equal counts and containment suffice
        if (len(faces) != len(p.faces_by_size[k])
                or not stored[k].issuperset(faces)
                or k < n and not all(commons)):
            return False
    return not any(commons)


def face_incidences(p):
    """Cellular incidence numbers [F : F+t] in {1, -1} of every face F and
    each of its facets F+t, as ``{F: ((F+t, sign), ...)}`` in increasing t
    (``face_poset`` lists every level in lexicographic order).

    The sign is (-1)^#{s in F : s < t}, that is (-1) to the position of t
    in the sorted tubing F+t.  A face with k tubes is a (k-1)-simplex of
    the simplicial complex of tubings, the boundary of the polar polytope,
    and this is that complex's coboundary sign, so the boundary of the
    polytope's cells squares to zero by construction: C_d of the polytope
    is the augmented cochain group C^(n-1-d) of the tubings.  On a regular
    CW complex, incidence numbers whose boundary squares to zero are unique
    up to the sign of each cell (Lundell and Weingram, "The Topology of CW
    Complexes", 1969), and a gluing of copies along faces takes the same
    numbers in every copy, so its cellular homology does not depend on the
    choice.  A face under a stored face must be stored, and a face with
    dim-1 tubes is an edge and must have exactly two ends, or this raises.

    >>> from nestotope.graphs import path_graph, graph_building_set
    >>> p = face_poset(graph_building_set(path_graph(2)))
    >>> face_incidences(p)[()]
    (((0,), 1), ((1,), 1))
    """
    n = p.dim
    out = {face: [] for level in p.faces_by_size[:n] for face in level}
    try:
        for level in p.faces_by_size[1:]:
            for facet in level:
                for i in range(len(facet)):
                    out[facet[:i] + facet[i + 1:]].append((facet, (-1) ** i))
    except KeyError as missing:
        raise ValidationError(f"face {missing.args[0]} under face {facet} is "
                              "missing from the face poset") from None
    if n and any(len(out[edge]) != 2 for edge in p.faces_by_size[n - 1]):
        raise ValidationError("an edge of the polytope does not have two ends")
    return {face: tuple(facets) for face, facets in out.items()}


@dataclass
class FaceVectors:
    f: tuple      # counts of tubings of size 0..dim (whole polytope first)
    h: tuple
    gamma: tuple


def face_vectors(p):
    """f-, h- and gamma-vectors from the graded face counts.

    h is extracted as the coefficient list of sum_k f_k (x-1)^(dim-k) and is
    checked to be palindromic before the gamma expansion in the basis
    t^i (1+t)^(dim-2i) is peeled off.
    """
    n = p.dim
    f = p.f_counts()
    # expand sum_k f[k] * (x-1)^(n-k)
    coeffs = [0] * (n + 1)  # coeffs[j] multiplies x^(n-j)
    for k in range(n + 1):
        d = n - k
        for j in range(d + 1):
            coeffs[n - d + j] += f[k] * comb(d, j) * (-1) ** j
    h = tuple(coeffs)
    if h[0] != 1 or any(c < 0 for c in h):
        raise ValidationError(f"h-vector {h} is not of polytope shape")
    if h != h[::-1]:
        raise ValidationError(f"h-vector {h} is not palindromic")
    gamma = []
    work = list(h)
    for i in range(n // 2 + 1):
        g = work[i]
        gamma.append(g)
        # subtract g * t^i (1+t)^(n-2i)
        for j in range(n - 2 * i + 1):
            work[i + j] -= g * comb(n - 2 * i, j)
    if any(work):
        raise ValidationError("gamma expansion left a remainder")
    return FaceVectors(f, h, tuple(gamma))


# ---------------------------------------------------------------------------
# Coordinates.


def vertex_coordinates(p, vertex):
    """Integer coordinates of a vertex given as a tuple of tube indexes: the
    one-vertex case of ``all_vertex_coordinates``, checked the same way.

    >>> from nestotope.graphs import complete_graph, graph_building_set
    >>> p = face_poset(graph_building_set(complete_graph(3)))
    >>> sorted(vertex_coordinates(p, p.vertices[0]))
    [1, 2, 4]
    """
    if vertex not in p.face_sets[p.dim]:
        raise ValidationError("not a vertex of this face poset")
    return _checked_points(p, (vertex,))[0]


def all_vertex_coordinates(p):
    """Map every vertex tubing to its coordinate tuple.

    Postnikov's formula (IMRN 2009, arXiv:math/0507163, section 7):
    coordinate j counts the tubes S with j in S contained in T_j, the
    smallest tube of the vertex holding j, or the ground set if none does.
    Those counts are the rows of ``p.coordinate_table``: x starts as the
    ground-set row, and the vertex's tubes, walked from largest to smallest
    (the canonical tube order is by size), overwrite it on their members,
    so each x_j ends as T_j's entry.

    Each point must meet the support-count equation of every tube of its
    tubing, and every other proper tube's inequality strictly.  The checks
    run one tube at a time over all the points, on the points' sums over
    masks: each mask's sums are its lowest bit's coordinate column added to
    the sums of the rest of the mask.  The points holding a tube must all
    sum to its support count, and the count must appear on no other point
    and nothing lie below it.  A failure raises for the first failing
    vertex, worded by its ground-set sum if that is wrong, else by its
    lowest failing tube.
    """
    return dict(zip(p.vertices, _checked_points(p, p.vertices)))


def _checked_points(p, vertices):
    """The checked points of ``vertices``, in order (see
    ``all_vertex_coordinates``)."""
    b = p.b
    proper = b.proper_tubes
    masks = set()
    for s in proper + (b.ground_mask,):
        while s:
            masks.add(s)
            s &= s - 1
    # one sums list per mask and for the empty mask, one entry per point
    check_budget("vertex coordinates", (len(masks) + 1) * len(vertices),
                 "mask sums", errors.SUMS_BUDGET)
    table = p.coordinate_table
    tube_members = [members(t) for t in proper]
    points = []
    own_rows = [[] for _ in proper]  # own_rows[i]: points whose tubing holds i
    for r, vertex in enumerate(vertices):
        x = list(table[-1])
        for i in sorted(set(vertex), reverse=True):
            row = table[i]
            for j in tube_members[i]:
                x[j] = row[j]
            own_rows[i].append(r)
        points.append(tuple(x))
    sums = {0: [0] * len(points)}  # sums[mask][r]: sum of x_j over j in mask
    columns = list(zip(*points)) or [()] * b.n_vertices
    for s in sorted(masks):
        low = s & -s
        sums[s] = list(map(add, sums[s ^ low], columns[low.bit_length() - 1]))
    checks = [(-1, b.ground_mask, len(b.tubes), range(len(points)))]
    checks += zip(range(len(proper)), proper, p.support, own_rows)
    failures = []  # (first failing point, tube) of each failing tube
    for idx, s, c, own in checks:
        totals = sums[s]
        if ([totals[r] for r in own] != [c] * len(own)
                or totals.count(c) != len(own) or min(totals, default=c) < c):
            # a point fails below c, or where being at c and holding disagree
            holders = set(own)
            failures.append((next(r for r, t in enumerate(totals)
                                  if t < c or (t == c) != (r in holders)), idx))
    if failures:
        r, idx = min(failures)
        if idx == -1 or idx in vertices[r]:
            raise ValidationError("vertex equations failed to hold")
        raise ValidationError(
            "support inequality not strict off the vertex's own tubes")
    return points


def minkowski_vertex_oracle(b):
    """Vertex set recovered without the face poset: every strict order on
    the ground set selects, in each Minkowski summand simplex, the top
    coordinate; summing indicator vectors over the tubes gives a vertex, and
    ranging over all orders gives all of them."""
    if not b.contains_ground:
        raise ValidationError("oracle needs the ground set among the tubes")
    nv = b.n_vertices
    out = set()
    for perm in permutations(range(nv)):
        rank = [0] * nv
        for pos, v in enumerate(perm):
            rank[v] = pos
        point = [0] * nv
        for s in b.tubes:
            best = max(bits_of(s), key=lambda j: rank[j])
            point[best] += 1
        out.add(tuple(point))
    return out


# ---------------------------------------------------------------------------
# Barycentric model and the projection to the coordinate simplex.


def _flags(p):
    """All complete chains of faces, listed from vertex up to the whole
    polytope, as tuples of face tuples: one chain per vertex and order of
    dropping its tubes.  The cell numbering of the barycentric complex
    follows this list: per vertex, chains sorted by the position of each
    dropped tube among the tubes left (the order's Lehmer code), which is
    the order ``permutations`` makes."""
    out = []
    for v in p.vertices:
        for order in permutations(v):
            flag = [v]
            for tube in order:
                face = flag[-1]
                drop = face.index(tube)
                flag.append(face[:drop] + face[drop + 1:])
            out.append(tuple(flag))
    return out


def barycentric_complex(p):
    """Simplicial complex of all face chains, one vertex per face of the
    polytope (the whole polytope included), labelled (dimension, tubing).
    Sorted labels put each simplex's vertices in increasing face dimension.
    """
    n = p.dim
    tops = []
    for flag in _flags(p):
        tops.append(tuple((n - len(face), face) for face in flag))
    from .cellcomplex import SimplicialCellComplex
    return SimplicialCellComplex.from_top_simplices(tops)


def _int_det(rows):
    """Bareiss determinant of a square integer matrix; every division is
    exact, so it never leaves the integers."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _det_sign(rows):
    """Orientation sign of n+1 integer points spanning a simplex in the
    positive-sum hyperplane, via the ambient coordinate determinant.  Scaling
    a point by a positive factor leaves the sign alone, so callers pass
    positive multiples of barycentres."""
    d = _int_det(rows)
    return (d > 0) - (d < 0)


def _check_tubings(p, levels):
    """Raise unless each level of ``p`` lists the faces of ``levels`` (the
    tubings of ``p.b``), each once and nothing else, naming the first face
    missing, stored but no tubing, or stored twice.  Containment and equal
    lengths suffice, and only a failing level is searched for the face."""
    if len(p.faces_by_size) != len(levels):
        raise ValidationError(f"face poset has {len(p.faces_by_size)} "
                              f"levels, not {len(levels)}")
    for stored, have, level in zip(p.faces_by_size, p.face_sets, levels):
        if len(stored) == len(level) and have.issuperset(level):
            continue
        tubings = set(level)
        seen = set()
        for face in level:
            if face not in have:
                raise ValidationError(
                    f"face {face} is missing from the face poset")
        for face in stored:
            if face not in tubings:
                raise ValidationError(
                    f"stored face {face} is no tubing of the building set")
            if face in seen:
                raise ValidationError(
                    f"face {face} is stored twice in the face poset")
            seen.add(face)


def _face_centres(b, faces, scale):
    """One integer point in the relative interior of each face of
    ``faces`` (tubings, as tuples of proper tube indexes): ``scale`` times
    the sum over the tubes S of the barycentre of the simplex on S minus
    the union of the face's tubes that do not contain S.

    The nestohedron is the Minkowski sum of the simplices Delta_S over the
    tubes S, and its face on a tubing F is where w, the sum over F's tubes
    T of the coordinates in T, is least (Postnikov, IMRN 2009, section 7
    and Theorem 7.4).  The face of a Minkowski sum where w is least is the
    sum of the summands' faces where it is least, and on Delta_S that is
    the simplex above, so the sum of its barycentres lies in the relative
    interior of F.  The simplex is never empty: the tubes of F that meet S
    without containing it cover S only if their maximal ones, pairwise
    disjoint, have a union that is a tube (unioning them one by one with
    S, which meets each), which a nested set allows for none of two or
    more, while one alone would contain S.  With ``scale`` a multiple of
    lcm(1, ..., n_vertices), every point is integral.
    """
    proper = b.proper_tubes
    centres = []
    for face in faces:
        masks = [proper[i] for i in face]
        x = [0] * b.n_vertices
        for s in b.tubes:
            face_of_s = s
            for t in masks:
                if s & ~t:
                    face_of_s &= ~t
            share = scale // face_of_s.bit_count()
            for j in bits_of(face_of_s):
                x[j] += share
        centres.append(x)
    return centres


def _checked_centres(p, faces):
    """The centres of ``faces`` (``_face_centres``, scaled by L = lcm(1,
    ..., n_vertices)), each checked against every tube: its sum is
    ``len(p.b.tubes)`` * L over the ground set and ``p.support`` * L over
    each tube of its face, and more than ``p.support`` * L over every other
    proper tube.  A failure raises for the first failing face, worded as
    an equation when the ground set or an own tube fails."""
    b = p.b
    scale = lcm(*range(1, b.n_vertices + 1))
    centres = _face_centres(b, faces, scale)
    for face, x in zip(faces, centres):
        sums = [0]  # sums[mask]: the sum of x over the bits of mask
        for xj in x:
            sums += [s + xj for s in sums]
        if sums[b.ground_mask] != len(b.tubes) * scale or any(
                sums[b.proper_tubes[i]] != p.support[i] * scale for i in face):
            raise ValidationError("face centre equations failed to hold")
        own = set(face)
        if any(sums[t] <= c * scale
               for i, (t, c) in enumerate(zip(b.proper_tubes, p.support))
               if i not in own):
            raise ValidationError(
                "support inequality not strict off the face's own tubes")
    return centres


def pi_degree(p):
    """Degree of the barycentric projection onto the ground-set simplex,
    read off the one face chain over one image flag.

    A face F maps to the barycentre of the coordinate simplex on u(F), the
    elements its tubes leave uncovered; u(F) is never empty, since the
    union of a tubing's maximal tubes is no tube and the ground set is one.
    On the barycentric subdivisions, one vertex per face of the polytope
    and one per nonempty subset of the ground set, this is a simplicial
    map: a chain of faces goes to the chain of their uncovered sets.  A
    proper face leaves a proper subset uncovered, so the boundary sphere,
    the chains without the whole polytope, goes into the boundary of the
    simplex.  For a simplicial map of (ball, sphere) pairs the degree is
    the signed count of the preimages of any one top simplex of the image:
    each chain mapped onto it counts its orientation sign times the
    image's, and a chain mapped to lower dimension counts nothing.  The
    signs are determinant signs of points: one relative-interior point per
    face on the source (its integer centre, ``_face_centres``) and 0/1
    indicator rows on the image.  Any choice of relative-interior points
    gives a triangulation isomorphic to the barycentric subdivision, and
    the relative interiors are convex, so the maps are homotopic and the
    degree does not depend on the choice; every determinant is taken in
    the one orientation of the hyperplane of the points.

    The top simplex read is the image flag of the ground set's own order:
    u grows through {0}, {0, 1}, ..., whose rows form a unitriangular
    matrix of determinant 1.  Its preimage chain is forced (Carr and
    Devadoss, Topology Appl. 153, 2006, for the tubings of a graph).  Read
    from the whole polytope down, the face with k tubes leaves 0 to n - k
    uncovered (n = dim), so its tubes cover exactly C_k = {n-k+1, ..., n}.
    Going from C_(k-1) to C_k adds x = n - k + 1 and one tube T, which holds
    x and lies in C_k.  The maximal tubes of the face with k - 1 tubes are
    the components of C_(k-1), and each of them that meets or touches T
    lies inside it, or the two are not compatible.  So T is the component of x in the graph
    induced on C_k; for a building set, the largest tube inside C_k that
    holds x.  Those tubes are pairwise compatible, so each image flag has
    exactly one preimage chain, and the degree is its sign: n + 1 faces
    and one determinant.

    Cited, not checked: the nestohedron is the polytope on which the sum
    over the ground set is ``len(b.tubes)`` and the sum over each proper
    tube T at least its support constant, and its faces are the tubings,
    the face of F lying on exactly the facets of F's tubes (Postnikov,
    IMRN 2009, Theorem 7.4; Feichtner and Sturmfels, Portugal. Math. 62,
    2005).  Checked: each centre of the chain meets the equations of the
    ground set and of its face's tubes, and every other proper tube's
    inequality strictly (``_checked_centres``, against ``p.support``), so
    it lies in the relative interior of its face; and the n + 1 centres
    span a simplex, as a zero determinant raises.  The chain argument
    needs ``p.b`` to be a building set and the poset to hold its tubings
    and only them.  A poset that ``face_poset`` built holds them by
    construction: its enumeration refuses a family that breaks either
    axiom.  On any other poset, or one assigned to since (``FacePoset``),
    a fresh ``_tubing_levels`` refuses such a family, and every level must
    match it (``_check_tubings``), which refuses a face dropped, listed
    twice or not a tubing, so every face of the chain is stored.
    """
    b = p.b
    n = p.dim
    if not p._enumerated:
        _check_tubings(p, _tubing_levels(b))
    chain = []  # chain[k - 1]: the tube the face with k tubes adds
    for x in range(n, 0, -1):
        c_k = b.ground_mask >> x << x
        chain.append(b.proper_index[next(
            t for t in reversed(b.proper_tubes)
            if t >> x & 1 and t & ~c_k == 0)])
    # rows[i]: the centre of the face with n - i tubes
    rows = _checked_centres(p, [chain[:n - i] for i in range(n + 1)])
    sign = _det_sign(rows)
    if sign == 0:
        raise ValidationError("degenerate source flag with nondegenerate image")
    return sign
