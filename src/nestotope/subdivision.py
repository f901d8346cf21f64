"""Graph-driven rainbow subdivisions.

``lemma_subdivision`` cuts the standard simplex on a connected graph's
vertex set into simplices whose vertices carry graph-vertex colours,
every top cell showing every colour once.  The recursion deletes an
apex vertex, subdivides each remaining component, reflects those
pieces over all sign patterns so they tile the boundary of a
cross-polytope, joins the tiled spheres, cones at the origin, and
finally straightens the cross-polytope onto the simplex orthant by
orthant.  Its points are integer barycentric tuples that all sum to one
positive scale, and its certificate measures cell volumes by integer
Bareiss determinants.

``subdivide_pseudomanifold`` pushes the same colouring onto any closed
orientable complex: barycentric vertices are coloured through the
graph, either directly along a path or by substituting the simplex
subdivision into every barycentric cell.

Both builders are memoised on the exact content of their input: the
graph's vertex count and adjacency masks with the apex for
``lemma_subdivision``; the complex's dimension, vertex and face
columns, the graph and the apex exactly as passed for
``subdivide_pseudomanifold``.  A key is admitted on its second sight: the
first call that returns records only the key, counted at its input's cell
count, and the second stores the result, counted at its complex's cell
count, so a one-off input is never retained.  The least recently used
entries are evicted so that the memo never holds more than CELL_BUDGET
cells, the budget being read from ``errors`` on every call.  A call that
raises stores nothing.  Verdicts are never memoised:
``verify_lemma_conditions`` and ``condition_star_check`` run on every
call, the star check of a substitution subdivision on its simplex piece,
which decides it for the whole.  Callers of a memoised input share one
result, so ``ColouredSubdivision`` is frozen.

A substitution subdivision y is certified on two smaller objects, not by
walking y: its simplex piece K, which ``_piece_signs`` shows tiles the
simplex once with coherent signs, and bar(Z), which ``orient`` passes in
both modes (in path mode y is bar(Z) itself), and both are
vertex-determined.  They prove y a vertex-determined oriented
pseudo-manifold whose signs are the products of bar(Z)'s and K's (see
``_subdivide_pseudomanifold``), so y carries the verdicts of
``pseudo_manifold_check`` and ``is_vertex_determined``, and neither they
nor ``orient`` run on it; it also carries K, on which
``condition_star_check`` answers for it.  How ``_substitute`` assembles
y's columns is not certified: the tests compare it with an independent
construction.

Both checks walk the codimension-2 cells in one routine, which reads a
cell's colours as the OR of ``1 << colour`` over its vertices, and the pair
of colours it misses from a table keyed by that mask; its depth in the
simplex comes from the OR of its vertices' coordinate supports.
"""

from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import chain, combinations
from math import factorial, lcm
from operator import itemgetter, or_

from . import errors
from .errors import ValidationError, check_budget
from .graphs import components_minus_vertex, members, path_order
from .cellcomplex import (
    SimplicialCellComplex,
    barycentric_subdivide,
    orient,
    record_passed_checks,
)
from .nestohedron import _int_det


@dataclass(frozen=True)
class ColouredSubdivision:
    """A complex whose vertices carry graph-vertex colours.

    ``coords`` is set for simplex subdivisions (integer barycentric points,
    all summing to one positive scale), ``orientation`` for closed
    subdivided pseudo-manifolds, and ``piece`` for substitution
    subdivisions: the simplex subdivision substituted into every
    barycentric cell.  Memoised results are shared between callers, so
    neither it nor its complex is ever changed.
    """
    graph: object
    complex: SimplicialCellComplex
    colours: tuple
    apex: object = None
    coords: tuple = None
    orientation: tuple = None
    mode: str = ""
    piece: object = None


class _Memo:
    """Results keyed by input content, admitted on a key's second sight and
    evicted least recently used beyond CELL_BUDGET cells in all."""

    def __init__(self):
        self.entries = OrderedDict()   # key -> (cells, result or None)
        self.cells = 0

    def clear(self):
        self.entries.clear()
        self.cells = 0

    def fetch(self, key, input_cells, build):
        """The stored result for ``key``, or ``build()``; a first sight
        records the key at ``input_cells``, a second stores the result."""
        budget = errors.CELL_BUDGET
        self._trim(budget)
        seen = self.entries.get(key)
        if seen is not None and seen[1] is not None:
            self.entries.move_to_end(key)
            return seen[1]
        result = build()
        if seen is None:
            cells, kept = input_cells, None
        else:
            cells, kept = result.complex.total_cells(), result
        # the build may have evicted the key through a nested fetch
        old = self.entries.pop(key, None)
        if old is not None:
            self.cells -= old[0]
        if cells <= budget:
            self.entries[key] = (cells, kept)
            self.cells += cells
            self._trim(budget)
        return result

    def _trim(self, budget):
        while self.cells > budget:
            self.cells -= self.entries.popitem(last=False)[1][0]


_MEMO = _Memo()


def lemma_subdivision(g, a):
    """Colour-subdivide the simplex on the graph's vertices, apex first."""
    return _MEMO.fetch((g.n_vertices, g.adjacency, a), g.n_vertices,
                       lambda: _lemma_subdivision(g, a))


def _lemma_subdivision(g, a):
    if not 0 <= a < g.n_vertices:
        raise ValidationError(f"apex {a} out of range")
    if not g.is_connected():
        raise ValidationError("graph must be connected")
    check_budget("simplex subdivision", _lemma_top_count(g, a))
    tops = _lemma_tops(g, a)
    complex_ = SimplicialCellComplex.from_top_simplices(tops)
    coords = tuple(lbl[0] for lbl in complex_.vertex_labels)
    colours = tuple(lbl[1] for lbl in complex_.vertex_labels)
    return ColouredSubdivision(g, complex_, colours, apex=a, coords=coords,
                               mode="simplex")


def _lemma_top_count(g, a):
    """Top simplices of ``lemma_subdivision(g, a)``, without building them:
    each component C of g minus the apex contributes its own count times
    the 2^|C| reflected copies, and the join multiplies the blocks."""
    out = 1
    for sub, labels in components_minus_vertex(g, a):
        b = min(v for v in labels if g.has_edge(a, v))
        out *= (1 << len(labels)) * _lemma_top_count(sub, labels.index(b))
    return out


def _lemma_tops(g, a):
    """Top simplices as tuples of (coords, colour) labels; coordinates are
    integer barycentric points over the graph's own vertex list, all
    summing to one positive scale.

    A block's reflected points sum in absolute value to that block's own
    scale, so each block is brought to the lcm of the scales before the
    join, and the straightening multiplies that by lcm(1..nv).
    """
    nv = g.n_vertices
    if nv == 1:
        return [(((1,), 0),)]
    blocks = []
    for sub, labels in components_minus_vertex(g, a):
        adjacent = g.adjacency[a]
        b_old = min(v for v in labels if (adjacent >> v) & 1)
        sub_tops = _lemma_tops(sub, labels.index(b_old))
        blocks.append((_reflect_block(sub_tops, len(labels)), labels,
                       sum(sub_tops[0][0][0])))
    scale = lcm(*(s for _, _, s in blocks))

    ambient = [v for v in range(nv) if v != a]
    slot_of = {v: j for j, v in enumerate(ambient)}
    joined = [()]
    for tops, labels, s in blocks:
        positions = [slot_of[v] for v in labels]
        embedded = {c: _embed(c, positions, len(ambient), scale // s)
                    for c in {c for top in tops for c, _ in top}}
        grown = []
        for top in tops:
            emb = tuple((embedded[c], labels[col]) for c, col in top)
            for prefix in joined:
                grown.append(prefix + emb)
        joined = grown

    origin = ((0,) * len(ambient), a)
    phi = _straightening(g, a, scale)
    tops = [top + (origin,) for top in joined]
    image = {(c, col): (phi(c), col)
             for c, col in set(chain.from_iterable(tops))}
    if len(set(image.values())) != len(image):
        raise ValidationError("straightening map collapsed two vertices")
    return [tuple(map(image.__getitem__, top)) for top in tops]


def _flip(coords, pattern):
    return tuple(-c if (pattern >> j) & 1 else c for j, c in enumerate(coords))


def _embed(coords, positions, width, factor):
    out = [0] * width
    for c, j in zip(coords, positions):
        out[j] = c * factor
    return tuple(out)


def _reflect_block(tops, k):
    """All 2^k sign-reflected copies; they must tile a (k-1)-sphere."""
    points = {c for top in tops for c, _ in top}
    out = []
    for pattern in range(1 << k):
        flipped = {c: _flip(c, pattern) for c in points}
        for top in tops:
            out.append(tuple((flipped[c], col) for c, col in top))
    sphere = SimplicialCellComplex.from_top_simplices(out)
    cert = orient(sphere)
    if not cert.is_pseudo or cert.orientation == "non-orientable":
        raise ValidationError("reflected copies do not close up into a sphere")
    if sphere.euler_characteristic() != 1 + (-1) ** (k - 1):
        raise ValidationError("reflected copies have the wrong Euler number")
    return out


def _straightening(g, a, scale):
    """Affine-per-orthant bijection from the cross-polytope of radius
    ``scale`` onto the simplex of points summing to scale * lcm(1..nv).

    The positive endpoint of every axis stays put; the negative endpoint
    of the i-th axis (apex first, the rest in increasing order) goes to
    the barycentre of the first i simplex corners; the origin goes to
    the overall barycentre.  The lcm makes every barycentre integral.
    """
    nv = g.n_vertices
    m = lcm(*range(1, nv + 1))
    order = [a] + [v for v in range(nv) if v != a]
    whole = m // nv

    plus_target = []
    minus_target = []
    for i in range(1, nv):
        plus_target.append(tuple(m if u == order[i] else 0 for u in range(nv)))
        head = order[:i]
        minus_target.append(tuple(
            m // i if u in head else 0 for u in range(nv)))

    def phi(x):
        slack = scale - sum(abs(c) for c in x)
        acc = [slack * whole] * nv
        for j, c in enumerate(x):
            if c == 0:
                continue
            target = plus_target[j] if c > 0 else minus_target[j]
            mag = abs(c)
            for u in range(nv):
                acc[u] += mag * target[u]
        return tuple(acc)

    return phi


# ---------------------------------------------------------------------------
# Certificates for the simplex subdivision.


@dataclass
class LemmaCertificate:
    ok: bool
    checks: dict
    failures: list


def verify_lemma_conditions(k, g, a):
    """All structural guarantees of the simplex subdivision at once.

    The certificate covers: complex validity, rainbow tops, apex colour
    confined to the interior, distinct vertex coordinates, nonzero cell
    volumes adding up to the whole simplex, and the four-cofacet rule
    for codimension-2 cells missing two non-adjacent colours.  The points
    share one scale s, read from the first, so the whole simplex has
    volume s^nv in integer determinants.
    """
    c = k.complex
    nv = g.n_vertices
    n = nv - 1
    checks = {}
    failures = []

    checks["valid"] = c.validate()
    if not checks["valid"]:
        failures.append("complex fails validation")

    rainbow = True
    for verts in zip(*c.vertex_columns[n]):
        if sorted(k.colours[v] for v in verts) != list(range(nv)):
            rainbow = False
            failures.append(f"top cell {verts} is not rainbow")
            break
    checks["rainbow_tops"] = rainbow

    interior_apex = True
    for vid in range(c.n_cells(0)):
        if k.colours[vid] == a and any(x == 0 for x in k.coords[vid]):
            interior_apex = False
            failures.append(f"apex colour on boundary vertex {vid}")
    checks["apex_interior"] = interior_apex

    checks["coords_injective"] = len(set(k.coords)) == c.n_cells(0)
    if not checks["coords_injective"]:
        failures.append("two vertices share coordinates")

    whole = sum(k.coords[0]) ** nv
    total = 0
    volumes_ok = True
    for verts in zip(*c.vertex_columns[n]):
        det = _int_det([k.coords[v] for v in verts])
        if det == 0:
            volumes_ok = False
            failures.append(f"degenerate cell {verts}")
            break
        total += abs(det)
    checks["volumes"] = volumes_ok and total == whole
    if volumes_ok and total != whole:
        failures.append(f"cell volumes add to {total}, not {whole}")

    _, missed = _codim2_rule(c, k.colours, k.coords, g)
    checks["four_cofacets"] = not missed
    failures.extend(missed)

    ok = all(checks.values())
    return LemmaCertificate(ok, checks, failures)


def _codim2_cofacets(c):
    """Top-cell count of every codimension-2 cell, in first-seen order
    over the facets that lie in a top cell.

    A top cell holding a codimension-2 cell C holds exactly two of its
    facets through C, so 2 tops(C) is the sum of w_F over the facets F
    through C, w_F being F's top count.  That holds with or without
    boundary: a boundary facet simply counts one top cell.
    """
    n = c.n
    weights = Counter(chain.from_iterable(c.face_columns[n]))
    twice = {}
    for f, faces in enumerate(zip(*c.face_columns[n - 1])):
        w = weights[f]
        if w:
            for cid in faces:
                twice[cid] = twice.get(cid, 0) + w
    return {(n - 2, cid): t // 2 for cid, t in twice.items()}


def _missing_pairs(g):
    """Colour mask of a cell missing exactly the colours u < w -> (u, w,
    whether u and w are adjacent)."""
    full = (1 << g.n_vertices) - 1
    return {full ^ (1 << u) ^ (1 << w): (u, w, g.has_edge(u, w))
            for u, w in combinations(range(g.n_vertices), 2)}


def _supports(coords):
    """The coordinate support of every point, as a slot mask."""
    return [sum(1 << j for j, x in enumerate(p) if x) for p in coords]


def _vertex_masks(c, k, bits):
    """The OR of ``bits[v]`` over the vertices v of every k-cell, one vertex
    column at a time."""
    masks = [0] * c.n_cells(k)
    for col in c.vertex_columns[k]:
        masks = list(map(or_, masks, map(bits.__getitem__, col)))
    return masks


def _codim2_rule(c, colours, coords, g):
    """Codimension-2 cells missing two non-adjacent colours: four top
    cofacets when interior, two on a boundary facet, nothing deeper.
    Without ``coords`` every cell counts as interior.  Returns a
    ``Counter`` of such cells by depth, the number of slots their
    coordinates miss (0 for all without ``coords``), and the failures, in
    the order of ``_codim2_cofacets``.  A cell's colours and support are
    the ORs of its vertices' colour bits and support masks."""
    checked = Counter()
    if c.n < 2:
        return checked, []
    nv = g.n_vertices
    full = (1 << nv) - 1
    pairs = _missing_pairs(g)
    k = c.n - 2
    masks = _vertex_masks(c, k, [(1 << col) & full for col in colours])
    supports = _vertex_masks(c, k, [full] * c.n_cells(0) if coords is None
                             else _supports(coords))
    failures = []
    for (kk, cid), cnt in _codim2_cofacets(c).items():
        pair = pairs.get(masks[cid])
        if pair is None:
            failures.append(f"cell ({kk},{cid}) misses colours "
                            f"{list(members(full ^ masks[cid]))}")
            continue
        u, w, adjacent = pair
        if adjacent:
            continue
        depth = nv - supports[cid].bit_count()
        checked[depth] += 1
        if depth > 1:
            failures.append(
                f"cell ({kk},{cid}) missing {u},{w} sits {depth} levels deep")
        elif cnt != 4 >> depth:
            failures.append(
                f"cell ({kk},{cid}) missing {u},{w} has {cnt} top cofacets")
    return checked, failures


# ---------------------------------------------------------------------------
# Subdividing a closed complex through a graph.


def subdivide_pseudomanifold(z, g, apex=None):
    """Refine an oriented closed complex so its vertices are graph-coloured.

    The barycentric subdivision colours vertices by the dimension of the
    cell they subdivide.  Along a path graph, dimensions map straight
    onto path positions.  Any other graph is routed through the simplex
    subdivision, substituted into every barycentric cell by carrier.  The
    result records the apex the substitution used (0 unless given); a
    path subdivision has none.
    """
    key = (z.n, *(tuple(tuple(map(tuple, cols)) for cols in levels)
                  for levels in (z.vertex_columns, z.face_columns)),
           g.n_vertices, g.adjacency, apex)
    return _MEMO.fetch(key, z.total_cells(),
                       lambda: _subdivide_pseudomanifold(z, g, apex))


def _subdivide_pseudomanifold(z, g, apex):
    """Build the subdivision; in substitution mode, certify it on bar(Z)
    and its piece K without walking it.

    ``orient`` passes bar(Z) and ``_piece_signs`` passes K, which tiles
    the simplex once.  The substituted complex y has one cell (h, c) per
    K-cell c and barycentric cell h hosting it: the subcell, in any top
    cell of bar(Z) around h, on the slots of c's carrier.  Slot i of every
    top cell of bar(Z) has dimension i, so all top cells around h see the
    same subcells of h, and:

    - y is valid: the vertices and faces of (h, c) are those of c, read
      through the subcell table of bar(Z), which is valid, and K is
      valid.
    - y is pure, as K is: (h, c) lies in (t, c') for a top cell c' of K
      holding c and a top cell t of bar(Z) around h.
    - every facet of y lies in two top cells.  One with full carrier lies
      inside one top cell t, in the two top cells of K around it.  One
      whose carrier misses slot j lies in one top cell of K, and on the
      facet of bar(Z) missing dimension j, which is at slot j of the two
      top cells around it; bar(Z) is a pseudo-manifold.
    - the signs sign_bar(t) * sign_K(c) on the top cells (t, c) are
      coherent.  Inside a top cell t, K's signs obey the slot-parity rule
      of ``orient``.  Across a facet of bar(Z) the facet of y has one slot
      of K on both sides, while bar(Z)'s facet sits at slot j in both of
      its top cells, so bar(Z)'s signs flip.
    - they are the signs ``orient`` would give.  Every top cell of K has
      full carrier, so ``_substitute`` numbers the top cells (t, c) as
      t * |tops of K| + c.  K is facet-connected and every slot is missed
      by one of its boundary facets, so the components of y are those of
      bar(Z), each with all of K; the least top cell of one is (t, 0),
      t least in bar(Z)'s component, and its product sign is +1.
    - y is vertex-determined, as K and bar(Z) are.  The vertex labels of
      (h, c) hold c's K-vertices, and K is vertex-determined, so the
      vertex set fixes c.  The hosts of those vertices are faces of h
      whose slot sets cover carrier(c), which is all of h's slots, so
      their vertices are all of h's, and bar(Z), a simplicial complex,
      fixes h.

    So y carries the verdicts of ``pseudo_manifold_check`` and
    ``is_vertex_determined``, and neither runs on it.
    """
    if z.n + 1 != g.n_vertices:
        raise ValidationError(
            f"dimension mismatch: a {z.n}-complex needs a graph "
            f"on {z.n + 1} vertices, got {g.n_vertices}")
    if not g.is_connected():
        raise ValidationError("graph must be connected")
    cert = orient(z)
    if not cert.is_pseudo:
        raise ValidationError("input is not a pseudo-manifold: "
                              + "; ".join(cert.failures))
    if cert.orientation == "non-orientable":
        raise ValidationError("non-orientable input")

    po = path_order(g)
    substituted = po is None or apex is not None
    if substituted:
        if apex is None:
            apex = 0
        if not 0 <= apex < g.n_vertices:
            raise ValidationError(f"apex {apex} out of range")
        check_budget("substitution", z.n_cells(z.n) * factorial(z.n + 1)
                     * _lemma_top_count(g, apex))
    bar = barycentric_subdivide(z)
    bcert = orient(bar)
    if not bcert.is_pseudo or bcert.orientation == "non-orientable":
        raise ValidationError("subdivision did not stay an oriented "
                              "pseudo-manifold")
    if not substituted:
        colours = tuple(po[lbl[0]] for lbl in bar.vertex_labels)
        return ColouredSubdivision(g, bar, colours,
                                   orientation=bcert.orientation, mode="path")

    k = lemma_subdivision(g, apex)
    signs = _piece_signs(k)
    if not (bar.is_vertex_determined() and k.complex.is_vertex_determined()):
        raise ValidationError("two cells of the barycentric subdivision or "
                              "of the simplex piece share a vertex set")
    y, colours = _substitute(bar, k)
    record_passed_checks(y)
    flipped = [-s for s in signs]
    orientation = tuple(chain.from_iterable(
        signs if s > 0 else flipped for s in bcert.orientation))
    return ColouredSubdivision(g, y, colours, apex=apex,
                               orientation=orientation, mode="substitution",
                               piece=k)


def _carriers(k):
    """The coordinate support of every cell of the simplex subdivision
    ``k`` as a slot mask, level by level."""
    kc, supports = k.complex, _supports(k.coords)
    return [_vertex_masks(kc, kk, supports) for kk in range(kc.n + 1)]


def _piece_signs(k):
    """The signs of the top cells of the simplex subdivision ``k``, +1 on
    top cell 0, after showing that ``k`` tiles the simplex once with
    coherent signs; else ``ValidationError``.

    The complex must pass ``validate`` and ``is_pure``; every top cell
    must have a nonzero integer determinant, and their absolute values
    must add up to the whole simplex's; every facet must lie either in two
    top cells, with full carrier, whose determinant signs obey the
    slot-parity rule of ``orient`` across it, or in one top cell, with a
    carrier that misses exactly one slot.  The signs are then the
    determinant signs times that of top cell 0, and they are coherent.

    Signed so, the top cells form a chain whose boundary lies on the
    coordinate hyperplanes, so each facet-connected component covers every
    point off them the same number of times within each region the
    hyperplanes cut out, and no times on the unbounded ones: only the
    simplex is left, covered d >= 1 times by each component, since all top
    cells are signed alike by their determinants.  The volumes make the
    sum of the d one: there is one component, it tiles the simplex once,
    and its boundary facets cover every facet of the simplex.  Nonzero
    volume also gives every top cell full carrier.
    """
    c = k.complex
    n = c.n

    def fail(why):
        raise ValidationError(f"simplex piece cannot be substituted: {why}")

    if not (c.validate() and c.is_pure()):
        fail("it is not a valid pure complex")
    dets = [_int_det([k.coords[v] for v in verts])
            for verts in zip(*c.vertex_columns[n])]
    if 0 in dets:
        fail(f"top cell {dets.index(0)} is degenerate")
    if sum(map(abs, dets)) != sum(k.coords[0]) ** (n + 1):
        fail("its top cell volumes do not add up to the simplex")
    sign = [1 if (d > 0) == (dets[0] > 0) else -1 for d in dets]

    full = (1 << (n + 1)) - 1
    carrier = _carriers(k)[n - 1]
    hits = [[] for _ in range(c.n_cells(n - 1))]
    for slot, col in enumerate(c.face_columns[n]):
        for t, f in enumerate(col):
            hits[f].append((t, slot))
    for f, around in enumerate(hits):
        if len(around) == 2:
            (t, s), (u, r) = around
            # slots of equal parity induce equal orientations, so the sign
            # flips
            if carrier[f] != full:
                fail(f"facet {f} lies in two top cells on the boundary")
            if sign[t] * sign[u] != (1 if (s ^ r) & 1 else -1):
                fail(f"facet {f} lies in two top cells on one side")
        elif len(around) != 1:
            fail(f"facet {f} lies in {len(around)} top cells")
        elif (full ^ carrier[f]).bit_count() != 1:
            fail(f"facet {f} lies in one top cell off the boundary")
    return sign


def _substitute(bar, k):
    """Replace every barycentric cell by the matching piece of the simplex
    subdivision, matching graph vertices to barycentric dimensions.

    Slot i of every top barycentric cell has dimension i, so a piece whose
    coordinate support is the slot set S sits, inside top cell t, in the
    subcell ``subfaces(n, t)[S]``: the smallest barycentric cell with those
    dimensions, so pieces on a common boundary are shared and the copies
    glue.  Vertices are numbered in (host cell, piece vertex) order; higher
    cells on first sight in one pass over the top cells, which lists the
    top cells in (barycentric top, piece) order.  A piece whose carrier is
    every slot lies inside t alone and takes a fresh id; any other piece
    is looked up by the int host id * (piece cells) + piece cell, its
    host's dimension being fixed by its carrier.  The result is not
    validated: ``_subdivide_pseudomanifold`` certifies it on bar and the
    piece instead.
    """
    n = bar.n
    kc = k.complex
    # carrier[kk][cid]: the coordinate support of a piece, as a slot mask
    carrier = _carriers(k)
    on_support = {}            # support mask -> piece vertices, ascending
    rank = []                  # each piece vertex's place in its list
    for u, m in enumerate(carrier[0]):
        same = on_support.setdefault(m, [])
        rank.append(len(same))
        same.append(u)
    first = {}                 # barycentric cell -> its first hosted vertex
    labels = []
    for bk in range(n + 1):
        for bid, verts in enumerate(zip(*bar.vertex_columns[bk])):
            first[bk, bid] = len(labels)
            dims = sum(1 << bar.vertex_labels[v][0] for v in verts)
            labels.extend(((bk, bid), u) for u in on_support.get(dims, ()))

    # Every top cell t places the piece cells that are new there, in id
    # order, and their vertices and faces, read from the output ids of the
    # cells below them in t, are appended to the output columns at once.
    full = (1 << (n + 1)) - 1
    ids = [{} for _ in range(n + 1)]   # host id * piece cells + cid -> id
    vertex_columns = [[[] for _ in range(kk + 1)] for kk in range(n + 1)]
    face_columns = [[[] for _ in range(kk + 1)] for kk in range(n + 1)]
    count = [0] * (n + 1)
    for t, verts in enumerate(zip(*bar.vertex_columns[n])):
        if [bar.vertex_labels[v][0] for v in verts] != list(range(n + 1)):
            raise ValidationError("barycentric cell with repeated dims")
        table = bar.subfaces(n, t)
        # here[kk][cid]: the output id of piece cell cid inside top cell t
        here = [[first[table[m]] + r for m, r in zip(carrier[0], rank)]]
        for kk in range(1, n + 1):
            keyed, width = ids[kk], kc.n_cells(kk)
            next_id = count[kk]
            row = []
            new = []
            for cid, m in enumerate(carrier[kk]):
                if m != full:
                    # a piece on a proper face of t is shared with the top
                    # cells around that face
                    key = table[m][1] * width + cid
                    got = keyed.get(key)
                    if got is not None:
                        row.append(got)
                        continue
                    keyed[key] = next_id
                row.append(next_id)
                new.append(cid)
                next_id += 1
            count[kk] = next_id
            for out, col in zip(vertex_columns[kk], kc.vertex_columns[kk]):
                out.extend(map(here[0].__getitem__, map(col.__getitem__, new)))
            for out, col in zip(face_columns[kk], kc.face_columns[kk]):
                out.extend(map(here[kk - 1].__getitem__, map(col.__getitem__, new)))
            here.append(row)
    out = SimplicialCellComplex.from_columns(n, len(labels), vertex_columns,
                                             face_columns, vertex_labels=labels)
    return out, tuple(k.colours[u] for _, u in labels)


@dataclass
class StarCertificate:
    ok: bool
    cells_checked: int
    failures: list


def condition_star_check(y, g):
    """Every codimension-2 cell missing two non-adjacent colours must lie
    in exactly four top cells.

    A substitution subdivision that still has its piece K's colours,
    checked against the graph it was built with, is decided on K.  The
    copy (h, c) of a K-cell c has c's colours and lies in tops_bar(h) *
    tops_K(c) top cells.  When c's carrier misses no slot, h is one of
    the T top cells of bar(Z), in one top cell; when it misses one, h is
    one of the T / 2 facets of bar(Z) missing that dimension (each lies
    in two top cells, and each top cell has one), in two.  So the copies
    of c lie in four top cells exactly when ``_codim2_rule``, run on K
    with its coordinates, finds the four top cofacets it asks for at
    depth 0 or the two at depth 1.  A pass on K is the answer for y, with
    T copies of each checked cell at depth 0 and T / 2 of each at depth
    1.  Otherwise (path mode, a recoloured y, another graph, or a piece
    that fails) the rule walks y itself, which also words the failures.
    """
    k = y.piece
    if (k is not None and g.adjacency == y.graph.adjacency
            and y.colours == tuple(map(k.colours.__getitem__, map(
                itemgetter(1), y.complex.vertex_labels)))):
        depths, failures = _codim2_rule(k.complex, k.colours, k.coords, g)
        if not failures:
            c, kc = y.complex, k.complex
            tops = c.n_cells(c.n) // kc.n_cells(kc.n)
            return StarCertificate(True, tops * depths[0]
                                   + tops // 2 * depths[1], [])
    depths, failures = _codim2_rule(y.complex, y.colours, None, g)
    return StarCertificate(not failures, sum(depths.values()), failures)
