"""Face structure of nestohedra built from building sets.

Proper tubes become facets; a set of tubes spans a face exactly when the
tubes are pairwise compatible, where compatibility means nested, or disjoint
with union outside the building set.  Faces are enumerated as cliques of the
compatibility relation, and ``check_simple_and_flag`` verifies each stored
level against the cliques of the stored pair relation rather than taking
the clique property on faith.

Vertex coordinates come from Postnikov's closed form for the Minkowski sum
of the simplices Delta_S over the tubes S (Postnikov, "Permutohedra,
associahedra, and beyond", IMRN 2009, arXiv:math/0507163, section 7): at a
vertex, coordinate j counts the tubes S with j in S contained in T_j, the
smallest tube of the vertex's tubing (or the ground set) that holds j.  The
points are integral; each is checked against the support-count equations
and inequalities, and an independent oracle recovers the same vertex set by
maximizing every strict linear order over the Minkowski summands.

The last third of the module studies the simplicial projection onto the
simplex spanned by the ground set: barycentres of faces map to barycentres
of complementary coordinate simplices, and the mapping degree is computed by
signed counting of nondegenerate flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import permutations
from operator import add

from .errors import ValidationError
from .graphs import bits_of

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
    from scratch.
    """

    def __init__(self, building_set, faces_by_size):
        self.b = building_set
        self.dim = building_set.n_vertices - 1
        self.support = tuple(support_constant(building_set, s)
                             for s in building_set.proper_tubes)
        self.faces_by_size = tuple(tuple(level) for level in faces_by_size)
        self.face_sets = tuple(set(level) for level in self.faces_by_size)

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
        (0 off T).  ``vertex_coordinates`` reads its coordinates from here,
        and nothing else reads it, so only that path builds it."""
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


def face_poset(b):
    """Enumerate all tubings of the building set as compatibility cliques.

    Requires the ground set to be a tube (connected graph, in the graphical
    case).  Every maximal tubing must have full size; anything else means the
    input was not a building set and raises.
    """
    if not b.contains_ground:
        raise ValidationError("face poset needs the ground set among the tubes")
    if b.n_vertices > _MAX_POSET_VERTICES:
        raise ValidationError(
            f"face enumeration is capped at {_MAX_POSET_VERTICES} vertices")
    n = b.n_vertices - 1
    proper = b.proper_tubes
    m = len(proper)
    compat = []
    for i in range(m):
        mask = 0
        for j in range(m):
            if j != i and compatible(b, proper[i], proper[j]):
                mask |= 1 << j
        compat.append(mask)
    faces = [[] for _ in range(n + 1)]
    full = (1 << m) - 1

    def rec(members_tup, cand, ext):
        k = len(members_tup)
        faces[k].append(members_tup)
        if k == n:
            if ext:
                raise ValidationError(
                    "found more pairwise compatible tubes than the dimension")
            return
        if ext == 0:
            raise ValidationError(
                "maximal tubing smaller than the dimension; not a building set")
        c = cand
        while c:
            low = c & -c
            i = low.bit_length() - 1
            higher = ~((1 << (i + 1)) - 1)
            rec(members_tup + (i,), cand & compat[i] & higher, ext & compat[i])
            c ^= low
    rec((), full, full)
    return FacePoset(b, faces)


def check_simple_and_flag(p):
    """Verify the stored face list against the clique model.

    True when each level of ``p.face_sets`` equals the cliques of the pair
    relation that the stored 2-faces record, and every maximal clique is a
    full-size tubing.  Levels 1 and 2, which the relation is read from, are
    first checked for shape; the cliques are sorted and subset-closed, so
    equality implies the same of the store.  A hand-built poset missing the
    top of a clique (three compatible tubes, no triple face) fails here.
    """
    n = p.dim
    stored = p.face_sets
    if stored[0] != {()}:
        return False
    for k in range(1, min(n, 2) + 1):
        for face in stored[k]:
            if len(face) != k or list(face) != sorted(set(face)):
                return False
    # adjacency as recorded by the 2-faces
    m = len(p.b.proper_tubes)
    adj = [0] * m
    if n >= 2:
        for (i, j) in stored[2]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    cliques = [set() for _ in range(n + 2)]

    def rec(members_tup, cand, ext):
        k = len(members_tup)
        if k > n or (ext == 0 and k < n):
            return False
        cliques[k].add(members_tup)
        c = cand
        ok = True
        while c:
            low = c & -c
            i = low.bit_length() - 1
            higher = ~((1 << (i + 1)) - 1)
            if not rec(members_tup + (i,), cand & adj[i] & higher, ext & adj[i]):
                ok = False
            c ^= low
        return ok

    start = sum(1 << f[0] for f in stored[1]) if n >= 1 else 0
    if not rec((), start, start):
        return False
    return all(cliques[k] == stored[k] for k in range(n + 1))


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
    choice.  A face with dim-1 tubes is an edge and must have exactly two
    ends, or this raises.

    >>> from nestotope.graphs import path_graph, graph_building_set
    >>> p = face_poset(graph_building_set(path_graph(2)))
    >>> face_incidences(p)[()]
    (((0,), 1), ((1,), 1))
    """
    n = p.dim
    out = {face: [] for level in p.faces_by_size[:n] for face in level}
    for level in p.faces_by_size[1:]:
        for facet in level:
            for i in range(len(facet)):
                out[facet[:i] + facet[i + 1:]].append((facet, (-1) ** i))
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
    binom = _binomials(n)
    for k in range(n + 1):
        d = n - k
        for j in range(d + 1):
            coeffs[n - d + j] += f[k] * binom[d][j] * (-1) ** j
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
            work[i + j] -= g * binom[n - 2 * i][j]
    if any(work):
        raise ValidationError("gamma expansion left a remainder")
    return FaceVectors(f, h, tuple(gamma))


def _binomials(n):
    rows = [[1]]
    for i in range(1, n + 1):
        prev = rows[-1]
        rows.append([1] + [prev[j - 1] + prev[j] for j in range(1, i)] + [1])
    return rows


# ---------------------------------------------------------------------------
# Coordinates.


def vertex_coordinates(p, vertex):
    """Integer coordinates of a vertex given as a tuple of tube indexes.

    Postnikov's formula (IMRN 2009, arXiv:math/0507163, section 7):
    coordinate j counts the tubes S with j in S contained in T_j, the
    smallest tube of the vertex holding j, or the ground set if none does.
    Those counts are the rows of ``p.coordinate_table``: x starts as the
    ground-set row, and the vertex's tubes, walked from largest to smallest
    (the canonical tube order is by size), overwrite it on their members,
    so each x_j ends as T_j's entry.

    The point is then checked to meet the support-count equation of every
    tube of the vertex, and every other proper tube's inequality strictly.
    The sums over tubes are read from a subset-sum table of x over all
    2^n_vertices masks, built by doubling, so each tube costs one lookup.

    >>> from nestotope.graphs import complete_graph, graph_building_set
    >>> p = face_poset(graph_building_set(complete_graph(3)))
    >>> sorted(vertex_coordinates(p, p.vertices[0]))
    [1, 2, 4]
    """
    b = p.b
    if vertex not in p.face_sets[p.dim]:
        raise ValidationError("not a vertex of this face poset")
    proper = b.proper_tubes
    table = p.coordinate_table
    x = list(table[-1])
    for i in sorted(vertex, reverse=True):
        row = table[i]
        for j in bits_of(proper[i]):
            x[j] = row[j]
    if sum(x) != len(b.tubes):
        raise ValidationError("vertex equations failed to hold")
    sums = [0]  # sums[mask] = sum of x[j] over the bits j of mask
    for xj in x:
        sums += [s + xj for s in sums]
    own = set(vertex)
    for idx, (s, c) in enumerate(zip(proper, p.support)):
        total = sums[s]
        if idx in own:
            if total != c:
                raise ValidationError("vertex equations failed to hold")
        elif total <= c:
            raise ValidationError(
                "support inequality not strict off the vertex's own tubes")
    return tuple(x)


def all_vertex_coordinates(p):
    """Map every vertex tubing to its coordinate tuple."""
    return {v: vertex_coordinates(p, v) for v in p.vertices}


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
    polytope, as tuples of face tuples."""
    n = p.dim
    out = []

    def rec(chain):
        face = chain[-1]
        if not face:
            out.append(tuple(chain))
            return
        for drop in range(len(face)):
            rec(chain + [face[:drop] + face[drop + 1:]])

    for v in p.vertices:
        rec([v])
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


def pi_map(p):
    """Barycentre images of all faces: a face with tubing T goes to the
    barycentre of the coordinate simplex on the vertices not covered by T."""
    b = p.b
    proper = b.proper_tubes
    zero = Fraction(0)
    share = [zero] + [Fraction(1, k) for k in range(1, b.n_vertices + 1)]
    out = {}
    for level in p.faces_by_size:
        for face in level:
            covered = 0
            for i in face:
                covered |= proper[i]
            u = b.ground_mask & ~covered
            if u == 0:
                raise ValidationError("tubing covers the whole ground set")
            w = share[u.bit_count()]
            out[face] = tuple(w if (u >> j) & 1 else zero
                              for j in range(b.n_vertices))
    return out


def _int_det(rows):
    """Fraction-free Bareiss determinant of a square integer matrix."""
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


def _simplex_flags(nv):
    """Each complete flag of the simplex on range(nv), as the chain of masks
    a permutation fills one element at a time, mapped to the permutation's
    sign: the chain's 0/1 rows differ by the permutation matrix's rows."""
    flags = {}
    for perm in permutations(range(nv)):
        m = inversions = 0
        chain = []
        for v in perm:
            inversions += (m >> (v + 1)).bit_count()  # earlier elements above v
            m |= 1 << v
            chain.append(m)
        flags[tuple(chain)] = -1 if inversions & 1 else 1
    return flags


def _signed_flag_counts(p, coords):
    """Signed counts of the nondegenerate complete face chains, per image.

    Returns ``(acc, boundary_keys)``: ``acc`` maps each image flag, the
    tuple of uncovered masks u(F) of the chain's faces from vertex to the
    whole polytope, to the sum of the source orientation signs of the
    chains over it, and ``boundary_keys`` holds those flags without their
    last mask.  Source points are face barycentres scaled by vertex counts:
    each vertex's point is added into every face of its tubing.

    A chain counts only when u grows by one element at each step: its face
    at step i, which has dim - i tubes, must leave i + 1 elements uncovered.
    So a chain is nondegenerate exactly when every face F on it is good,
    |u(F)| = n_vertices - |F|, and the walk down from each vertex, which
    descends only into good faces, reaches exactly the nondegenerate chains
    of ``_flags``.  A face under a good face that the poset does not store,
    and a stored face that no vertex contains, raise.
    """
    b = p.b
    nv = b.n_vertices
    proper = b.proper_tubes
    uncovered = {}
    bary = {}
    for level in p.faces_by_size:
        for face in level:
            covered = 0
            for i in face:
                covered |= proper[i]
            uncovered[face] = b.ground_mask & ~covered
            bary[face] = None
    for v in p.vertices:
        pt = coords[v]
        under = [()]
        for i in v:
            under += [face + (i,) for face in under]
        for face in under:
            if face in bary:
                row = bary[face]
                bary[face] = pt if row is None else tuple(map(add, row, pt))
    if any(row is None for row in bary.values()):
        raise ValidationError("face with no vertices")
    good = {face for face, u in uncovered.items()
            if u.bit_count() == nv - len(face)}

    acc = {}
    boundary_keys = set()

    def descend(face, key, rows):
        if not face:
            boundary_keys.add(key[:-1])
            sdom = _det_sign(rows)
            if sdom == 0:
                raise ValidationError(
                    "degenerate source flag with nondegenerate image")
            acc[key] = acc.get(key, 0) + sdom
            return
        for drop in range(len(face)):
            child = face[:drop] + face[drop + 1:]
            if child in good:
                descend(child, key + (uncovered[child],), rows + (bary[child],))
            elif child not in uncovered:
                raise ValidationError(
                    f"face {child} under face {face} is missing from the "
                    "face poset")

    for v in p.vertices:
        if v in good:
            descend(v, (uncovered[v],), (bary[v],))
    return acc, boundary_keys


def pi_degree(p):
    """Degree of the barycentric projection onto the ground-set simplex.

    Every complete face chain maps to a chain of coordinate subsets; chains
    whose subset sizes fail to grow one by one are degenerate and count
    zero.  For the rest, the product of the two orientation signs is
    accumulated per image flag (``_signed_flag_counts``, which builds the
    face barycentres from per-vertex tables and prunes the chain walk at
    the first degenerate face); each image flag's sign is its permutation's
    (``_simplex_flags``).  The count must come out the same for every
    image flag, the image flags must exhaust all orderings of the ground
    set, and face barycentres must land in the subsimplex missing their
    tubes; any failure raises.
    """
    b = p.b
    nv = b.n_vertices
    proper = b.proper_tubes
    coords = all_vertex_coordinates(p)
    images = pi_map(p)

    # containment guard: image support avoids every tube of the face
    for face, img in images.items():
        covered = 0
        for i in face:
            covered |= proper[i]
        if any(img[j] != 0 for j in bits_of(covered)):
            raise ValidationError(
                "face image meets a coordinate its tube forbids")

    acc, boundary_keys = _signed_flag_counts(p, coords)

    flags = _simplex_flags(nv)
    if acc.keys() != flags.keys():
        raise ValidationError("projection misses some full flags of the simplex")
    if boundary_keys != {key[:-1] for key in flags}:
        raise ValidationError("projection misses part of the boundary")

    degs = {total * flags[key] for key, total in acc.items()}
    if len(degs) != 1:
        raise ValidationError(f"local degrees disagree: {sorted(degs)}")
    return degs.pop()
